import collections
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrspaces.verify
from qrspaces.analytic import (
    RationalLog,
    derivative,
    identity,
    koebe,
    poly,
    real_coefficients,
    scale,
)
from qrspaces.errors import InvalidParameterError, NonQuasiregularError
from qrspaces.families import (
    OrderModel,
    affine_extremal,
    cayley_shear,
    from_dilatation,
    kkprime_example,
    koebe_shear,
)
from qrspaces.harmonic import (
    HarmonicMap,
    analytic_as_harmonic,
    angular_radial,
    estimate_quasiregularity,
    wirtinger,
)
from qrspaces.quadrature import (
    ANGULAR_LADDER,
    ROW_BLOCK_POINTS,
    PolarTable,
    angular_count_for,
    truncated_panels,
    truncated_radial_rule,
)
from qrspaces.spaces import (
    BergmanMorrey,
    Fpqs,
    Morrey,
    Mpqs,
    Qs,
    SupSearchSpec,
    WeightedSupProblem,
    _sup_search,
)
from qrspaces.verify import (
    DEFAULT_TRUNCATION_MAX_J,
    MEMBERSHIP_TARGETS,
    TRUNCATION_FIRST_J,
    _conjugate_norm_pair,
    _membership_values,
    _truncated_sup_norms,
    check_conjugate_bound_fh,
    check_conjugate_bound_qh,
    check_inhomogeneous_bound_fh,
    check_inhomogeneous_bound_qh,
    equivalence_ratio,
    membership_range,
    recompute_pass,
    verify_corollary,
    verify_membership,
)

FAST = SupSearchSpec(max_j=3, angles_per_radius=8)
DEFAULT_JS = range(TRUNCATION_FIRST_J, DEFAULT_TRUNCATION_MAX_J + 1)


def test_qh_bound_analytic_zero_margin():
    f = analytic_as_harmonic(koebe())
    rep = check_conjugate_bound_qh(f, 1.0, 1.5, 0.0, FAST)
    # F = G for analytic maps, so both norms are the same computation
    assert rep.lhs == rep.rhs
    assert rep.passed


def test_qh_bound_affine_equality_and_slack():
    eq = check_conjugate_bound_qh(affine_extremal(0.5, -1), 3.0, 1.5, 0.0, FAST)
    assert eq.margin == pytest.approx(0.0, abs=1e-9 * eq.rhs)
    assert eq.passed
    slack = check_conjugate_bound_qh(affine_extremal(0.5, +1), 3.0, 1.5, 0.0, FAST)
    # ||v|| = ||u||/3 so the margin is (3 - 1/3) ||u||
    assert slack.margin == pytest.approx((3.0 - 1.0 / 3.0) * slack.extra["norm_u"],
                                         rel=1e-9)


def test_qh_bound_range_rejected():
    f = affine_extremal(0.2)
    with pytest.raises(InvalidParameterError):
        check_conjugate_bound_qh(f, 1.5, 2.5, 0.0, FAST)  # p >= alpha + 2
    with pytest.raises(InvalidParameterError):
        check_conjugate_bound_qh(f, 1.5, 0.5, 0.0, FAST)  # p <= alpha + 1


def test_qh_bound_requires_quasiregularity():
    with pytest.raises(NonQuasiregularError):
        check_conjugate_bound_qh(affine_extremal(0.5), 1.5, 1.5, 0.0, FAST)
    with pytest.raises(NonQuasiregularError):
        check_conjugate_bound_qh(kkprime_example(), 2.0, 1.5, 0.0, FAST)
    sense_reversing = HarmonicMap(identity(), poly([0.0, 2.0]))  # J < 0
    with pytest.raises(NonQuasiregularError):
        check_conjugate_bound_qh(sense_reversing, 3.0, 1.5, 0.0, FAST)


@pytest.mark.parametrize("K", [0.5, 0.01])
def test_every_conjugate_check_rejects_K_below_one(monkeypatch, K):
    # K >= 1 by definition: every check rejects a smaller K itself, before
    # the distortion estimate that would reject it only indirectly
    def no_estimate(*args, **kwargs):
        raise AssertionError("the distortion estimate ran")

    monkeypatch.setattr(qrspaces.verify, "estimate_quasiregularity",
                        no_estimate)
    f = affine_extremal(0.2)
    scales = (Morrey(0.5), BergmanMorrey(1.5, 0.5), Qs(1.0))
    checks = [
        (check_conjugate_bound_qh, (f, K, 1.5, 0.0)),
        (check_inhomogeneous_bound_qh, (f, K, 4.0, 1.5, 0.0)),
        (check_conjugate_bound_fh, (f, K, Fpqs(2.0, 0.0, 1.0))),
        (check_inhomogeneous_bound_fh, (f, K, 4.0, Fpqs(2.0, 0.0, 1.0))),
        *((verify_corollary, (f, f"cor3.{i + 1}", scale, K))
          for i, scale in enumerate(scales)),
        *((verify_corollary, (f, f"cor3.{i + 4}", scale, K, 4.0))
          for i, scale in enumerate(scales)),
    ]
    for check, args in checks:
        with pytest.raises(InvalidParameterError, match="K must be >= 1"):
            check(*args, search=FAST)


def test_conjugate_pair_one_kernel_call_per_a(monkeypatch):
    # every distinct a of the trace is evaluated once: by a direct call, as
    # a turn of its lattice ring, or answered from conj(a), and the counters
    # say so; the map's coefficients are real, so the kernel sees only the
    # member of a conjugate pair in the upper half-plane
    calls = collections.Counter()
    kernel = WeightedSupProblem.integral_at

    def counted(self, a):
        calls[complex(a)] += 1
        return kernel(self, a)

    monkeypatch.setattr(WeightedSupProblem, "integral_at", counted)
    (_, _, tru), (_, _, trv), grid = _conjugate_norm_pair(
        cayley_shear(0.5), 0.0, 1.0, 2.0, FAST, 32, 256)
    traced = {a for a, _ in tru}
    ring_points = {a for points in FAST.rings().values() for a in points}
    assert [a for a, _ in tru] == [a for a, _ in trv]
    assert set(calls.values()) == {1}
    assert not set(calls) & ring_points
    assert all(a.imag >= 0 for a in calls)
    answered = traced - ring_points - set(calls)
    assert answered and all(a.conjugate() in calls for a in answered)
    evaluations = grid["kernel_evaluations"]
    assert evaluations["conjugate"] == len(answered)
    assert evaluations["direct"] == len(calls)
    assert grid["table_work"]["rings"] == len(FAST.rings())
    assert evaluations["ring_turns"] == len(ring_points)
    assert (len(calls) + evaluations["ring_turns"] + evaluations["conjugate"]
            == len(traced))
    assert evaluations["refined"] == 0
    # the map's coefficients are real: half the master grid's columns
    assert grid["table_work"]["points"] == 32 * (2048 // 2 + 1)


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("q_eff, s_eff, p", [(-1.5, 1.0, 0.5), (0.0, 0.5, 2.0),
                                             (0.8, 1.0, 0.8)])
def test_affine_conjugate_pair_is_the_engine_search(sign, q_eff, s_eff, p):
    # an affine map's bases |F'|^p and |G'|^p are constant: the pair takes
    # the closed form at a = 0, with no table and no kernel run, within
    # 1e-13 of the engine's own search on the same bases
    f = affine_extremal(0.5, sign)
    (nu, au, tru), (nv, av, trv), grid = _conjugate_norm_pair(
        f, q_eff, s_eff, p, SupSearchSpec(), 128, 256)
    assert grid["closed_form"] and au == av == 0.0
    assert set(grid["kernel_evaluations"].values()) == {0}
    assert set(grid["table_work"].values()) == {0}
    engine = WeightedSupProblem(
        lambda z: [m ** p for m in wirtinger(f, z).conjugate_moduli],
        q_eff, s_eff, even=True)
    (_, su, _), (_, sv, _) = _sup_search(engine.integral_at, SupSearchSpec(),
                                         engine.ring_integrals)
    assert engine.evaluations["direct"] > 0
    assert nu == pytest.approx(su ** (1.0 / p), rel=1e-13, abs=0.0)
    assert nv == pytest.approx(sv ** (1.0 / p), rel=1e-13, abs=0.0)


def test_conjugate_check_table_work(monkeypatch):
    # the record's ledger: one master table, tabulated on 1025 of its 2048
    # columns (the map's coefficients are real), a factor per direct a != 0
    # and per lattice ring, on the rung the aliasing bound picks for |a|, of
    # radial x (count/2 + 1) nodes at a real a and on a ring, radial x count
    # nodes off the real axis, none for the second a of a conjugate pair,
    # which the kernel never sees, and one copy of both bases per rung below
    # 2048
    direct = []
    kernel = WeightedSupProblem.integral_at

    def counted(self, a):
        direct.append(complex(a))
        return kernel(self, a)

    monkeypatch.setattr(WeightedSupProblem, "integral_at", counted)
    rec = check_conjugate_bound_fh(cayley_shear(0.5), 3.0, Fpqs(2.0, 0.0, 1.0),
                                   FAST, radial=32).to_record()

    def count(rho):
        return min(angular_count_for(rho, 1.0), 2048)

    computed = [a for a in direct if a != 0]
    counts = [count(abs(a)) for a in computed] + [
        count(r) for r in FAST.rings()]
    rungs = {c for c in counts if c < 2048}
    assert rungs and len(counts) > len(FAST.rings())
    assert any(a.imag == 0 for a in computed)
    assert all(a.imag >= 0 for a in computed)
    assert rec["kernel_evaluations"]["conjugate"] > 0
    nodes = [c if a.imag else c // 2 + 1 for a, c in zip(computed, counts)]
    nodes += [c // 2 + 1 for c in counts[len(computed):]]
    assert rec["table_work"] == {"points": 32 * (2048 // 2 + 1),
                                 "factor_nodes": 32 * sum(nodes),
                                 "rings": len(FAST.rings()),
                                 "copies": 2 * len(rungs),
                                 "copied_values": 2 * 32 * sum(rungs)}


# map builders of the conjugate-sweep families, by name and k
SWAP_FAMILIES = {"koebe-shear": koebe_shear, "cayley-shear": cayley_shear,
                 "affine:sign=-1": lambda k: affine_extremal(k, -1),
                 "affine:sign=1": lambda k: affine_extremal(k, 1)}


@settings(derandomize=True, deadline=None, max_examples=15)
@given(family=st.sampled_from(sorted(SWAP_FAMILIES)),
       k=st.floats(0.05, 0.8), p=st.floats(0.8, 2.5), q=st.floats(-0.5, 1.5),
       s=st.floats(0.3, 2.0))
def test_negating_g_swaps_the_conjugate_norms(family, k, p, q, s):
    # h - g has F' and G' of h + g swapped, so the u and v records swap
    # exactly: same lattice, same union of compass points, same kernel bits
    f = SWAP_FAMILIES[family](k)
    flipped = HarmonicMap(f.h, scale(f.g, -1.0), f.description + " (-g)")
    K = (1.0 + k) / (1.0 - k) + 1e-6
    a, b = (check_conjugate_bound_fh(m, K, Fpqs(p, q, s), FAST).extra
            for m in (f, flipped))
    assert (a["norm_u"], a["sup_a_u"]) == (b["norm_v"], b["sup_a_v"])
    assert (a["norm_v"], a["sup_a_v"]) == (b["norm_u"], b["sup_a_u"])


def test_fh_bound_affine_and_shear():
    eq = check_conjugate_bound_fh(affine_extremal(0.5, -1), 3.0,
                                  Fpqs(2.0, 0.0, 1.0), FAST)
    assert eq.margin == pytest.approx(0.0, abs=1e-9 * eq.rhs)
    sh = check_conjugate_bound_fh(cayley_shear(0.5), 3.0, Fpqs(2.0, 0.0, 1.0), FAST)
    assert sh.passed
    assert sh.margin >= -1e-6 * sh.rhs


def test_inhomogeneous_qh_degenerate_and_perturbed():
    rep = check_inhomogeneous_bound_qh(kkprime_example(), 1.0, 4.0, 1.5, 0.0, FAST)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.passed
    assert rep.extra["constant"] > 0.0
    # z + 0.9 conj(z) is (1, 2*0.9*1.9)-quasiregular with v != 0
    c = 0.9
    rep2 = check_inhomogeneous_bound_qh(affine_extremal(c, +1), 1.0,
                                        2 * c * (1 + c), 1.5, 0.0, FAST)
    assert rep2.lhs > 0.0
    assert rep2.passed
    with pytest.raises(NonQuasiregularError):
        check_inhomogeneous_bound_qh(affine_extremal(c, +1), 1.0, 1.0, 1.5, 0.0, FAST)


def test_inhomogeneous_qh_kprime_zero_reduction():
    f = affine_extremal(0.5, -1)
    rep = check_inhomogeneous_bound_qh(f, 3.0, 0.0, 1.5, 0.0, FAST)
    # reduces to 2^(p-1) K^p ||u||^p >= ||v||^p = (K ||u||)^p
    assert rep.rhs == pytest.approx(2.0 ** 0.5 * rep.lhs, rel=1e-9)
    assert rep.passed


def test_inhomogeneous_fh_variable_dilatation():
    # h' = 1, w = 0.9 z gives the (1, K') map z + conj(0.45 z^2)
    c = 0.9
    f = from_dilatation(poly([1.0]), poly([0.0, c]))
    rep = check_inhomogeneous_bound_fh(f, 1.0, 2 * c * (1 + c),
                                       Fpqs(2.0, 0.0, 1.0), FAST)
    assert rep.lhs > 0.0
    assert rep.passed


def test_corollaries_delegate():
    f = affine_extremal(0.5, -1)
    cor = verify_corollary(f, "cor3.3", Qs(1.0), K=3.0, search=FAST)
    thm = check_conjugate_bound_fh(f, 3.0, Fpqs(2.0, 0.0, 1.0), FAST)
    assert cor.lhs == thm.lhs and cor.rhs == thm.rhs  # same code path
    assert cor.scale_label == "Qs(1)"

    mor = verify_corollary(f, "cor3.1", Morrey(0.5), K=3.0, search=FAST)
    assert mor.margin == pytest.approx(0.0, abs=1e-9 * mor.rhs)

    bm = verify_corollary(f, "cor3.2", BergmanMorrey(1.5, 0.5), K=3.0,
                          search=FAST)
    assert bm.passed

    qskk = verify_corollary(kkprime_example(), "cor3.6", Qs(1.0), K=1.0,
                            Kprime=4.0, search=FAST)
    assert qskk.passed
    assert qskk.extra["constant"] == pytest.approx(math.pi / 2.0, rel=1e-8)

    morkk = verify_corollary(affine_extremal(0.9, +1), "cor3.4", Morrey(0.5),
                             K=1.0, Kprime=2 * 0.9 * 1.9, search=FAST)
    assert morkk.passed

    bmkk = verify_corollary(affine_extremal(0.9, +1), "cor3.5",
                            BergmanMorrey(1.5, 0.5), K=1.0,
                            Kprime=2 * 0.9 * 1.9, search=FAST)
    assert bmkk.passed

    with pytest.raises(InvalidParameterError):
        verify_corollary(f, "cor9.9", Qs(1.0), K=3.0)
    with pytest.raises(InvalidParameterError):
        verify_corollary(f, "cor3.1", Morrey(1.0), K=3.0)
    with pytest.raises(InvalidParameterError):
        verify_corollary(f, "cor3.1", Qs(1.0), K=3.0)
    # the K-quasiregular forms take no K', rather than dropping it
    for which, scale in (("cor3.1", Morrey(0.5)), ("cor3.3", Qs(1.0))):
        with pytest.raises(InvalidParameterError, match="takes no K'"):
            verify_corollary(f, which, scale, K=3.0, Kprime=4.0, search=FAST)

    # cor3.1-3.3 are Theorem 3.2 and cor3.4-3.6 Theorem 3.6 on scale.f_scale(),
    # bit for bit; only the id and the label differ
    kw = dict(search=FAST, radial=32, angular=256)
    fkk, kprime = affine_extremal(0.9, +1), 2 * 0.9 * 1.9
    for i, scale in enumerate((Morrey(0.5), BergmanMorrey(1.5, 0.5), Qs(1.0))):
        pairs = [
            (verify_corollary(f, f"cor3.{i + 1}", scale, K=3.0, **kw),
             check_conjugate_bound_fh(f, 3.0, scale.f_scale(), **kw)),
            (verify_corollary(fkk, f"cor3.{i + 4}", scale, K=1.0, Kprime=kprime,
                              **kw),
             check_inhomogeneous_bound_fh(fkk, 1.0, kprime, scale.f_scale(),
                                          **kw)),
        ]
        for cor, thm in pairs:
            assert cor.scale_label == scale.label()
            assert (cor.K, cor.Kprime) == (thm.K, thm.Kprime)
            assert cor.lhs == thm.lhs and cor.rhs == thm.rhs
            assert cor.extra == thm.extra


def _counting(fn: RationalLog, sizes: list) -> RationalLog:
    # fn with the same exact terms, so its real coefficients show
    def evaluator(z, order, min_order):
        sizes.append(z.size)
        return fn.jet(z, order, min_order)
    return RationalLog(fn.coeffs, fn.terms, fn.description, fn.max_order,
                       evaluator)


def test_conjugate_check_takes_one_jet_of_h_and_g_per_node():
    # |F'|^p and |G'|^p come from one h' and one g' per tabulated node,
    # taken a row block of ROW_BLOCK_POINTS nodes at a time; the only other
    # points are the distortion estimate's samples.  The map's coefficients
    # are real, so the master grid's 32 rows are tabulated on 1025 of its
    # 2048 columns, 3 rows a block
    f = from_dilatation(derivative(koebe()), poly([0.0, 0.5]))
    assert real_coefficients(f)

    def counted():
        h_sizes, g_sizes = [], []
        return (HarmonicMap(_counting(f.h, h_sizes), _counting(f.g, g_sizes),
                            f.description), h_sizes, g_sizes)

    fc, h_sizes, g_sizes = counted()
    rep = check_conjugate_bound_fh(fc, 3.0, Fpqs(2.0, 0.0, 1.0), FAST,
                                   radial=32, angular=256)
    assert rep == check_conjugate_bound_fh(f, 3.0, Fpqs(2.0, 0.0, 1.0), FAST,
                                           radial=32, angular=256)
    # the same map, its g(0) = 0 check and its distortion estimate only
    fs, h_sample, g_sample = counted()
    estimate_quasiregularity(fs)
    assert ROW_BLOCK_POINTS // 1025 == 3
    blocks = [3 * 1025] * 10 + [2 * 1025]
    for sizes, sample in ((h_sizes, h_sample), (g_sizes, g_sample)):
        assert sorted(sizes) == sorted(sample + blocks)


def test_membership_range_bookkeeping():
    rc = membership_range(0.8, 0.0, 1.0, 2.0)
    assert rc.t == pytest.approx(-0.6)
    assert rc.c == pytest.approx(0.6)
    assert rc.case == "c>0"
    assert rc.in_range
    assert abs(2.0 + rc.t + rc.c - 2.0 * 1.0) <= 1e-12
    rc2 = membership_range(1.2, 0.0, 1.0, 2.0)
    assert rc2.t == pytest.approx(-1.4)
    assert rc2.case == "t<=-1"
    assert not rc2.in_range
    rc3 = membership_range(1.0, 1.0, 1.0, 2.0)
    assert rc3.case == "c=0"


def test_membership_smoke_coarse():
    f = koebe_shear(0.0)
    model = OrderModel(K=1.0)
    rep = verify_membership(f, model, Mpqs(0.5, 0.0, 1.0),
                            truncation_max_j=6)
    assert rep.extra["in_range"]
    assert rep.theorem_id == "4.1"
    assert len(rep.extra["truncation_trace"]) == 4
    for j, entry in zip(range(3, 7), rep.extra["truncation_trace"]):
        R = 1.0 - 2.0 ** -j
        assert entry["R"] == R
        assert entry["radial"] == len(truncated_radial_rule(R)[0])
        n = entry["angular"]
        assert n >= 256 and n & (n - 1) == 0  # a power of two, so 8 | n
        assert entry["candidates"] == 1 + 8 * j
    rep2 = verify_membership(f, model, Fpqs(0.5, 0.0, 1.0),
                             truncation_max_j=6)
    assert rep2.theorem_id == "4.2"
    assert rep2.extra["growth_exponent"] == pytest.approx(3.0)


def test_membership_derivative_targets():
    f = koebe_shear(0.2)
    model = OrderModel(K=1.5)
    rep = verify_membership(f, model, Mpqs(0.3, 0.0, 1.0), target="ftheta",
                            truncation_max_j=5)
    assert rep.extra["pointwise_margin"] >= -1e-10
    assert rep.extra["growth_exponent"] == pytest.approx(model.alpha_K + 1.0)
    rep2 = verify_membership(f, model, Mpqs(0.3, 0.0, 1.0), target="fz",
                             truncation_max_j=5)
    assert rep2.extra["truncation_trace"][0]["norm"] > 1.0  # includes |h'(0)| = 1
    with pytest.raises(InvalidParameterError):
        verify_membership(f, model, Mpqs(0.3, 0.0, 1.0), target="nonsense")


def _lattice(R):
    # the truncated sup's candidates: a = 0 and r e^(2 pi i k/8), r <= R
    candidates = [0.0 + 0.0j]
    for i in range(1, round(-math.log2(1.0 - R)) + 1):
        r = 1.0 - 2.0 ** -i
        candidates += [r * np.exp(2j * np.pi * k / 8) for k in range(8)]
    return candidates


def _base_table(values_fn, p, q, s, t, w, count):
    return PolarTable(
        lambda z: (np.asarray(values_fn(z), dtype=np.float64) ** p,),
        np.sqrt(t), w * (1.0 - t) ** (q + s), count)


def _direct_truncated_sup(values_fn, p, q, s, R, count):
    # every candidate through the one-a kernel of each panel of R's rule,
    # the panels' integrals summed in rule order
    tables = [_base_table(values_fn, p, q, s, t, w, count)
              for _, t, w in truncated_panels(R)]
    return max(sum(table.integrals(a, s, count)[0] for table in tables)
               for a in _lattice(R))


@pytest.mark.parametrize("f", [
    koebe_shear(0.3),
    HarmonicMap(poly([0.0, 1.0, 0.3j]), poly([0.0, 0.2j, 0.1])),
], ids=["koebe-shear", "complex-coefficients"])
@pytest.mark.parametrize("target", ["ftheta", "bfb"])
def test_m_scale_angular_radial_values_keep_their_bits(f, target):
    # |f_theta| and |b f_b| are the bits of the formula
    # |z h' -+ conj(z) conj(g')| written out
    values, at0 = _membership_values(f, Mpqs(1.0, 0.0, 1.0), target)
    z = np.outer(np.linspace(0.0, 0.99, 57),
                 np.exp(2j * np.pi * np.arange(64) / 64))
    hp = f.h.jet(z, 1, 1)[1]
    gp = f.g.jet(z, 1, 1)[1]
    sign = -1.0 if target == "ftheta" else 1.0
    inline = np.abs(z * hp + sign * np.conj(z) * np.conj(gp))
    assert np.array_equal(values(z), inline)
    assert at0 == 0.0


@pytest.mark.parametrize("target", ["ftheta", "bfb"])
def test_m_scale_angular_radial_values_match_angular_radial(target):
    # one modulus per target, bit for bit the one of harmonic.angular_radial,
    # which computes both and multiplies f_theta by 1j (|1j x| = |x|), on a
    # row block of a polar grid
    f = koebe_shear(0.3)
    values, _ = _membership_values(f, Mpqs(1.0, 0.0, 1.0), target)
    z = np.outer(np.sqrt(np.linspace(0.0, 0.999, 2)),
                 np.exp(2j * np.pi * np.arange(ROW_BLOCK_POINTS // 2)
                        / (ROW_BLOCK_POINTS // 2)))
    assert np.array_equal(values(z),
                          np.abs(angular_radial(f, z)[target == "bfb"]))


def test_truncated_sup_norm_equals_direct_max():
    values, _ = _membership_values(analytic_as_harmonic(koebe()),
                                   Mpqs(0.8, 0.0, 1.0), "f")
    rot = np.exp(1j * math.pi / 4)
    rotated = lambda z: values(rot * z)  # its max lies off the real axis
    for j in (3, 6, 9):
        R = 1.0 - 2.0 ** -j
        ((value, grid),), _ = _truncated_sup_norms(values, 0.8, 0.0, 1.0, [R])
        assert grid["candidates"] == 1 + 8 * j
        direct = _direct_truncated_sup(values, 0.8, 0.0, 1.0, R, grid["angular"])
        assert value == direct
        ((value, grid),), _ = _truncated_sup_norms(rotated, 0.8, 0.0, 1.0, [R])
        direct = _direct_truncated_sup(rotated, 0.8, 0.0, 1.0, R, grid["angular"])
        assert value == pytest.approx(direct, rel=1e-15)


def test_truncation_ladder_matches_whole_rule_contraction():
    # an oracle apart from the panel sums: at each radius of a ladder, one
    # table on the whole concatenated rule of R, contracted once per
    # lattice point (a = 0 directly, each ring by the ring kernel)
    values, _ = _membership_values(analytic_as_harmonic(koebe()),
                                   Mpqs(0.8, 0.0, 1.0), "f")
    rot = np.exp(1j * math.pi / 4)
    js = (3, 6, 9, 12)
    radii = [1.0 - 2.0 ** -j for j in js]
    for base in (values, lambda z: values(rot * z)):
        ladder, _ = _truncated_sup_norms(base, 0.8, 0.0, 1.0, radii)
        for j, R, (value, grid) in zip(js, radii, ladder):
            count = grid["angular"]
            table = _base_table(base, 0.8, 0.0, 1.0, *truncated_radial_rule(R),
                                count)
            whole = table.integrals(0.0, 1.0, count)
            for i in range(1, j + 1):
                whole += table.ring_integrals(1.0 - 2.0 ** -i, 1.0, count, 8)[0]
            assert len(whole) == grid["candidates"] == len(_lattice(R))
            assert value == pytest.approx(max(whole), rel=1e-14)


# every target of a sheared koebe in both scales, but f itself in M from
# koebe's closed form (the shear's own values integrate g' numerically)
_LADDER_BASES = [
    (koebe_shear(0.0 if (t, kind) == ("f", Mpqs) else 0.3),
     kind(1.0, 0.0, 1.0), t)
    for kind in (Mpqs, Fpqs) for t in MEMBERSHIP_TARGETS
]


@settings(derandomize=True, deadline=None, max_examples=25)
@given(js=st.lists(st.integers(1, 9), min_size=1, max_size=9, unique=True),
       p=st.floats(0.5, 3.0), q=st.floats(-0.5, 1.0), s=st.floats(0.25, 2.0),
       angular=st.sampled_from(ANGULAR_LADDER),
       turn=st.floats(0.0, 2.0 * math.pi),
       case=st.sampled_from(_LADDER_BASES))
def test_truncation_ladder_equals_one_radius_ladders(js, p, q, s, angular,
                                                     turn, case):
    # the shared panels, strided base copies and per-count Mobius factors of a
    # ladder give each radius the bits it gets alone, also for bases whose
    # sup lies off the real axis
    values, _ = _membership_values(*case)
    rot = np.exp(1j * turn)
    base = lambda z: values(rot * z)
    radii = [1.0 - 2.0 ** -j for j in sorted(js)]
    ladder, _ = _truncated_sup_norms(base, p, q, s, radii, angular)
    assert len(ladder) == len(radii)
    for R, shared in zip(radii, ladder):
        assert shared == _truncated_sup_norms(base, p, q, s, [R], angular)[0][0]


def test_truncation_ladder_work_on_default_ladder(monkeypatch):
    # koebe in M(0.8,0,1) on j = 3..12 (256, 512, 1024, 2048 x 4, 4096 and
    # 8192 x 2 angles; 24-node panels): each panel is tabulated once, at the
    # largest count a radius uses it at, so the 11 dyadic panels at 8192 and
    # the 10 tails at their own counts; each (panel, ring, count) gets one
    # Mobius factor at that count, none at a = 0 (where the factor is 1.0)
    values, _ = _membership_values(analytic_as_harmonic(koebe()),
                                   Mpqs(0.8, 0.0, 1.0), "f")
    points, nodes = [], []

    def counted_values(z):
        points.append(z.size)
        return values(z)

    factor = qrspaces.quadrature.mobius_factor

    def counted_factor(a, s, rho, mob, *count):
        out = factor(a, s, rho, mob, *count)
        if not isinstance(out, float):
            nodes.append(mob.size)
        return out

    monkeypatch.setattr("qrspaces.quadrature.mobius_factor", counted_factor)
    counts = (256, 512, 1024, 2048, 2048, 2048, 2048, 4096, 8192, 8192)
    radii = [1.0 - 2.0 ** -j for j in DEFAULT_JS]
    tracemalloc.start()
    try:
        ladder, work = _truncated_sup_norms(counted_values, 0.8, 0.0, 1.0,
                                            radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [grid["angular"] for _, grid in ladder] == list(counts)
    assert sum(points) == 24 * (11 * 8192 + sum(counts)) == 2_893_824
    # one factor per (panel, count, ring): the rule of R = 1 - 2^-j holds
    # the dyadic panels m < j and its own tail, its lattice the rings
    # 1 - 2^-i, i <= j
    rings = {}  # (panel, count) -> rings
    for j, c in zip(DEFAULT_JS, counts):
        for panel in [*range(1, j), ("tail", j)]:
            rings.setdefault((panel, c), set()).update(range(1, j + 1))
    assert len(nodes) == sum(map(len, rings.values())) == 407
    assert sum(nodes) == 24 * sum(
        c * len(i) for (_, c), i in rings.items()) == 46_184_448
    assert peak < 150_000_000  # one radius at a time held 180 MB
    # the tables' one ledger counts the same work, plus one ring kernel per
    # (panel, ring, count) and one copy of the base per (panel, lower count)
    assert work == {"points": sum(points), "factor_nodes": sum(nodes),
                    "rings": 407, "copies": 26, "copied_values": 1_425_408}


def test_membership_record_carries_table_work():
    # the record's counters are those of the one ladder pass behind it,
    # which tabulates half the circle: the map's coefficients are real
    f = koebe_shear(0.0)
    scale = Mpqs(0.8, 0.0, 1.0)
    rec = verify_membership(f, OrderModel(K=1.0), scale,
                            truncation_max_j=5).to_record()
    values, _ = _membership_values(f, scale, "f")
    _, work = _truncated_sup_norms(values, 0.8, 0.0, 1.0,
                                   [1.0 - 2.0 ** -j for j in (3, 4, 5)],
                                   even=True)
    assert rec["table_work"] == work
    assert work["points"] > 0 and work["rings"] > 0


@pytest.mark.parametrize("max_j", [3, 54])
def test_membership_needs_two_radii(monkeypatch, max_j):
    # the ladder j = 3..max_j needs at least two radii, each 1 - 2^-j with
    # j <= 53 (1 - 2^-54 rounds to 1), and is checked before the first
    # radius runs
    calls = []
    monkeypatch.setattr("qrspaces.verify._truncated_sup_norms",
                        lambda *args, **kw: calls.append(args))
    with pytest.raises(InvalidParameterError):
        verify_membership(koebe_shear(0.0), OrderModel(K=1.0),
                          Mpqs(0.8, 0.0, 1.0), truncation_max_j=max_j)
    assert calls == []


@pytest.mark.parametrize("max_j", [5.0, 4.5, True, np.float64(5)])
def test_membership_rejects_a_non_integer_depth(monkeypatch, max_j):
    # a truncation depth that operator.index refuses, or a bool, is one line
    # of error before the first radius runs
    calls = []
    monkeypatch.setattr("qrspaces.verify._truncated_sup_norms",
                        lambda *args, **kw: calls.append(args))
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        verify_membership(koebe_shear(0.0), OrderModel(K=1.0),
                          Mpqs(0.8, 0.0, 1.0), truncation_max_j=max_j)
    assert calls == []


def test_pointwise_check_is_deterministic():
    # the ftheta bound is checked on the fixed sample grid, whose theta = 0
    # ray runs into koebe's singular direction: two runs give one record
    f, model = koebe_shear(0.3), OrderModel(K=(1.0 + 0.3) / (1.0 - 0.3))
    first, second = (verify_membership(f, model, Mpqs(0.8, 0.0, 1.0),
                                       target="ftheta", truncation_max_j=4)
                     .to_record() for _ in range(2))
    assert first == second
    assert 0.0 <= first["pointwise_margin"] < 1e-5


def test_membership_honours_tol():
    # final relative change 0.1693 against the 1e-3 threshold: margin -0.168
    f = koebe_shear(0.0)
    model = OrderModel(K=1.0)
    strict = verify_membership(f, model, Mpqs(0.8, 0.0, 1.0),
                               truncation_max_j=5, tol=1e-6)
    loose = verify_membership(f, model, Mpqs(0.8, 0.0, 1.0),
                              truncation_max_j=5, tol=1e3)
    assert strict.extra["in_range"] and loose.extra["in_range"]
    assert strict.lhs == loose.lhs == pytest.approx(0.1693, abs=1e-4)
    assert not strict.passed
    assert "divergence_exponent" in strict.extra
    assert loose.passed
    assert "divergence_exponent" not in loose.extra
    for rep in (strict, loose):
        rec = rep.to_record()
        assert recompute_pass(rec) == rec["pass"]


def test_membership_out_of_range_pass_recomputable():
    rep = verify_membership(koebe_shear(0.0), OrderModel(K=1.0),
                            Mpqs(1.2, 0.0, 1.0), truncation_max_j=5)
    rec = rep.to_record()
    assert not rec["in_range"]
    assert rec["margin"] < -rec["tol"] * abs(rec["rhs"])
    assert rec["pass"]
    assert recompute_pass(rec)


def test_report_pass_recomputable():
    rep = check_conjugate_bound_qh(affine_extremal(0.5, -1), 3.0, 1.5, 0.0, FAST)
    rec = rep.to_record()
    assert recompute_pass(rec) == rec["pass"]
    for key in ("theorem", "map", "scale", "K", "Kprime", "lhs", "rhs",
                "margin", "pass", "tol", "grid_radial", "grid_angular"):
        assert key in rec


def test_equivalence_ratio_identity():
    rep = equivalence_ratio(identity(), 2.0, 0.0, 1.0,
                            a_grid=[0.0, 0.3, 0.6j, -0.5 + 0.4j, 0.9])
    assert rep.ratio_min > 0.1
    assert rep.ratio_max < 10.0
    a0 = rep.entries[0]
    assert a0[3] == pytest.approx(1.0, rel=1e-8)  # both pi/2 at a = 0
    with pytest.raises(InvalidParameterError):
        equivalence_ratio(identity(), 2.0, -1.5, 0.2, a_grid=[0.0])


def test_equivalence_ratio_rejects_before_any_integral(monkeypatch):
    calls = []
    for name in ("disk_integral_green", "disk_integral_mobius_weight"):
        monkeypatch.setattr(f"qrspaces.verify.{name}",
                            lambda *args, **kw: calls.append(args))
    # an empty grid has no ratio to report
    with pytest.raises(InvalidParameterError):
        equivalence_ratio(identity(), 2.0, 0.0, 1.0, a_grid=[])
    # s < 0 and q <= -2 are what both integrals reject
    with pytest.raises(InvalidParameterError):
        equivalence_ratio(identity(), 2.0, 0.0, -0.5, a_grid=[0.3])
    with pytest.raises(InvalidParameterError):
        equivalence_ratio(identity(), 2.0, -2.5, 2.0, a_grid=[0.3])
    assert calls == []


def test_equivalence_ratio_larger_s_stays_bounded():
    rep = equivalence_ratio(identity(), 2.0, 0.0, 3.0,
                            a_grid=[0.0, 0.5, 0.8])
    assert rep.ratio_max < 50.0
    assert rep.ratio_min > 1.0 / 50.0
