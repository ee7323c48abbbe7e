import collections
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from conftest import column_spy, generic
from hypothesis import given, settings
from hypothesis import strategies as st

import qrspaces.spaces
from qrspaces.analytic import (compose_mobius, constant, constant_bases, identity,
                               koebe, poly, power_series)
from qrspaces.errors import InfiniteConstantError, InvalidParameterError
from qrspaces.families import affine_extremal, cayley_shear
from qrspaces.harmonic import (
    HarmonicMap,
    analytic_as_harmonic,
    conjugate_parts,
    wirtinger,
)
from qrspaces.mobius import MobiusMap
from qrspaces.quadrature import angular_count_for
from qrspaces.spaces import (
    RADIUS_CAP,
    RADIUS_CAP_J,
    BergmanMorrey,
    BlochAlpha,
    Fpqs,
    Morrey,
    Mpqs,
    Qnpa,
    Qs,
    SupSearchSpec,
    WeightedSupProblem,
    _by_value,
    _compass_max,
    _finish_norm,
    _lambda_fn,
    _pow_tabulator,
    _sup_search,
    dyadic_radii,
    fh_pqs_norm,
    m_pqs_norm,
    morrey_constant,
    pullback_exponents,
    q_npa_norm,
    qh_npa_norm,
    qs_constant,
    sigma_deriv_constant,
    specialized_norm,
    weight_overlap_constant,
)

SMALL_SEARCH = SupSearchSpec(max_j=3, angles_per_radius=8)


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        Qnpa(0, 2.0, 0.0).validate()
    with pytest.raises(InvalidParameterError):
        Qnpa(1, -1.0, 0.0).validate()
    with pytest.raises(InvalidParameterError):
        Fpqs(2.0, -2.5, 1.0).validate()
    with pytest.raises(InvalidParameterError):
        Fpqs(2.0, -1.5, 0.2).validate()  # q + s <= -1
    with pytest.raises(InvalidParameterError):
        Mpqs(1.0, 0.0, -1.0).validate()
    with pytest.raises(InvalidParameterError):
        Morrey(1.5).validate()
    with pytest.raises(InvalidParameterError):
        BergmanMorrey(1.0, 2.0).validate()
    assert Qnpa(1, 3.0, 0.5).is_trivial
    assert not Qnpa(1, 2.0, 0.5).is_trivial


def test_q_norm_identity_is_area():
    # per-a integral pulls back to the area of the disk for every a
    res = q_npa_norm(identity(), Qnpa(1, 2.0, 0.0), SMALL_SEARCH)
    assert res.raw_sup == pytest.approx(math.pi, rel=1e-14)
    spread = res.trace_values().max() - res.trace_values().min()
    assert spread <= 1e-12
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_q_norm_constant_vanishes():
    res = q_npa_norm(constant(3.0 + 1j), Qnpa(1, 1.5, 0.0), SMALL_SEARCH)
    assert res.value == pytest.approx(0.0, abs=1e-15)
    assert res.value_at_zero == pytest.approx(abs(3.0 + 1j))


def test_q_norm_trivial_warning():
    res = q_npa_norm(poly([0.0, 1.0, 0.5]), Qnpa(1, 3.0, 0.5), SMALL_SEARCH)
    assert res.warnings


def test_q_norm_mobius_invariance_smoke():
    f = poly([0.0, 0.0, 1.0])
    params = Qnpa(1, 2.0, 0.5)
    base = q_npa_norm(f, params)
    comp = q_npa_norm(compose_mobius(f, MobiusMap(0.3)), params)
    assert comp.value == pytest.approx(base.value, rel=1e-6)


def test_q_norm_higher_jet_order():
    # n = 2 on f = z^2: (f o sigma_a)'' at a = 0 is constant 2
    res = q_npa_norm(poly([0.0, 0.0, 1.0]), Qnpa(2, 2.0, 1.0), SMALL_SEARCH)
    at0 = [v for a, v in res.trace if a == 0][0]
    assert at0 == pytest.approx(4.0 * math.pi / 2.0, rel=1e-10)
    assert res.raw_sup >= at0


def test_qh_matches_q_for_analytic(rng):
    f = koebe()
    params = Qnpa(1, 1.5, 0.0)
    a_norm = q_npa_norm(f, params, SMALL_SEARCH)
    h_norm = qh_npa_norm(analytic_as_harmonic(f), params, SMALL_SEARCH)
    assert h_norm.value == pytest.approx(a_norm.value, rel=1e-10)


def test_qh_affine_scaling():
    params = Qnpa(1, 1.5, 0.0)
    base = q_npa_norm(identity(), params, SMALL_SEARCH)
    f = affine_extremal(0.4, +1)
    res = qh_npa_norm(f, params, SMALL_SEARCH)
    assert res.value == pytest.approx(1.4 * base.value, rel=1e-12)


def test_fh_identity_sup_at_origin():
    res = fh_pqs_norm(analytic_as_harmonic(identity()), Fpqs(2.0, 0.0, 1.0),
                      SMALL_SEARCH)
    assert res.raw_sup == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert abs(res.sup_a) <= 1e-3
    assert res.value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)


def test_fh_constant_lambda_scaling():
    f = affine_extremal(0.4, -1)  # Lambda = 1.4 everywhere
    params = Fpqs(2.0, 0.0, 1.0)
    res = fh_pqs_norm(f, params, SMALL_SEARCH)
    base = fh_pqs_norm(analytic_as_harmonic(identity()), params, SMALL_SEARCH)
    assert res.value == pytest.approx(1.4 * base.value, rel=1e-12)


def test_fh_green_form_close_to_mobius_form():
    f = analytic_as_harmonic(identity())
    search = SupSearchSpec(max_j=1, angles_per_radius=4)
    g = fh_pqs_norm(f, Fpqs(2.0, 0.0, 1.0), search, weight_form="green")
    m = fh_pqs_norm(f, Fpqs(2.0, 0.0, 1.0), search, weight_form="mobius")
    # identical at a = 0 (both reduce to radial closed forms with value pi/2)
    assert g.raw_sup == pytest.approx(math.pi / 2.0, rel=1e-8)
    assert 0.2 < g.raw_sup / m.raw_sup < 5.0
    # measured node-doubling error, not a fixed fraction of the value
    assert g.error_estimate < 1e-7 * g.value
    assert g.grid["grid_cap"] == 32
    assert set(g.grid["kernel_evaluations"]) == {"direct", "conjugate"}


# the two per-a paths outside the engine, as the cli-mix pool runs them
PER_A_NORMS = {
    "composition": lambda f, search: qh_npa_norm(f, Qnpa(2, 1.0, 1.0), search),
    "green": lambda f, search: fh_pqs_norm(f, Fpqs(2.0, 0.0, 1.0), search,
                                           weight_form="green"),
}


@pytest.mark.parametrize("path, f, search, expected", [
    ("composition", analytic_as_harmonic(koebe()), SupSearchSpec(4, 8),
     {"direct": 33, "conjugate": 18, "refined": 1}),
    ("green", analytic_as_harmonic(identity()), SupSearchSpec(3, 4),
     {"direct": 34, "conjugate": 11}),
], ids=["composition", "green"])
def test_per_a_paths_take_i_conj_a_from_i_a(monkeypatch, path, f, search,
                                            expected):
    # real coefficients: a conjugate pair of the trace costs one integral and
    # both members carry its bits; each a is one direct integral or one
    # conjugate answer, integrals at a real a walk the half circle, and the
    # record counts every integrand point walked; the lattice pairs are
    # answered too (the koebe Q(2,1,1) and identity Green items of cli-mix)
    grids = column_spy(monkeypatch)
    res = PER_A_NORMS[path](f, search)
    values = dict(res.trace)
    pairs = [a for a in values if a.imag > 0 and a.conjugate() in values]
    assert pairs and all(values[a] == values[a.conjugate()] for a in pairs)
    routes = res.grid["kernel_evaluations"]
    assert routes == expected
    assert routes["conjugate"] == len(pairs)
    assert routes["direct"] + routes["conjugate"] == len(values)
    assert any(cols % 2 for _, cols in grids)
    assert res.grid["points"] == sum(rows * cols for rows, cols in grids)


@pytest.mark.parametrize("path", ["composition", "green"])
def test_complex_coefficients_never_fold_or_pair(monkeypatch, path):
    # f(conj z) != conj(f(z)): every walk takes the whole circle of its
    # even count, and every distinct a its own integral, at a itself
    grids = column_spy(monkeypatch)
    asked = []
    for name in ("composed_integral", "disk_integral_green"):
        def spy(*args, kernel=getattr(qrspaces.spaces, name), **kw):
            asked.append(complex(getattr(args[3], "param", args[3])))
            return kernel(*args, **kw)
        monkeypatch.setattr(qrspaces.spaces, name, spy)
    res = PER_A_NORMS[path](analytic_as_harmonic(poly([0.0, 1.0, 0.5j])),
                            SupSearchSpec(3, 4))
    assert grids and not any(cols % 2 for _, cols in grids)
    values = dict(res.trace)
    assert any(a.imag < 0 for a in values) and set(asked) == set(values)
    routes = res.grid["kernel_evaluations"]
    assert routes["conjugate"] == 0
    assert routes["direct"] == len(values)
    assert res.grid["points"] == sum(rows * cols for rows, cols in grids)


def test_fh_invalid_weight_form():
    with pytest.raises(InvalidParameterError):
        fh_pqs_norm(analytic_as_harmonic(identity()), Fpqs(2, 0, 1),
                    SMALL_SEARCH, weight_form="carleson")


def test_m_norm_values():
    zero = m_pqs_norm(constant(0.0), Mpqs(2.0, 0.0, 1.0), SMALL_SEARCH)
    assert zero.value == pytest.approx(0.0, abs=1e-15)
    one = m_pqs_norm(analytic_as_harmonic(constant(1.0)), Mpqs(2.0, 0.0, 1.0),
                     SMALL_SEARCH)
    assert one.value == pytest.approx(1.0 + math.sqrt(math.pi / 2.0), rel=1e-12)


@pytest.mark.parametrize("coeffs, even", [([0.0, 1.0, 0.3], True),
                                          ([0.0, 1.0, 0.3j], False)],
                         ids=["real", "complex"])
def test_m_norm_takes_evenness_from_the_map(coeffs, even):
    # a map with real coefficients tabulates rows x (count/2 + 1) points, on
    # the 8 x 2048 master grid and the node doubling at the argmax; any
    # other map tabulates rows x count
    res = m_pqs_norm(analytic_as_harmonic(poly(coeffs)), Mpqs(1.0, 0.0, 1.0),
                     SMALL_SEARCH, radial=8)
    count = 2 * angular_count_for(abs(res.sup_a), 1.0)
    columns = (lambda c: c // 2 + 1) if even else (lambda c: c)
    assert res.grid["table_work"]["points"] == 8 * columns(2048) \
        + 16 * columns(count)


@pytest.mark.parametrize("analytic_norm, params", [
    (q_npa_norm, Qnpa(2, 1.0, 1.0)),
    (q_npa_norm, Qnpa(1, 1.5, 0.0)),
    (specialized_norm, BlochAlpha(1.0)),
    (specialized_norm, Morrey(0.5)),
], ids=["Q(2,1,1)", "Q(1,1.5,0)", "Bloch(1)", "Morrey(0.5)"])
def test_analytic_map_as_harmonic_map_same_norm(monkeypatch, analytic_norm,
                                                params):
    # h + conj(0) gets the norm of h, with the same evidence and the same
    # work: the harmonic derivative scale drops the constant part before
    # composing, so both make the same compositions
    composed = []
    compose = qrspaces.spaces.compose_mobius
    monkeypatch.setattr(qrspaces.spaces, "compose_mobius",
                        lambda *args: composed.append(args) or compose(*args))
    harmonic_norm = qh_npa_norm if analytic_norm is q_npa_norm else analytic_norm
    h = koebe()
    res = analytic_norm(h, params, SMALL_SEARCH, radial=32)
    calls = len(composed)
    hres = harmonic_norm(analytic_as_harmonic(h), params, SMALL_SEARCH,
                         radial=32)
    assert len(composed) == 2 * calls
    # value, raw_sup, sup_a, trace, and the grid's kernel_evaluations and
    # table_work, all of them to the bit
    assert hres == res


def test_norm_result_invariants():
    res = fh_pqs_norm(analytic_as_harmonic(koebe()), Fpqs(0.8, 0.8, 1.0),
                      SMALL_SEARCH)
    assert res.raw_sup >= res.trace_values().max() - 1e-15
    assert res.value == pytest.approx(res.raw_sup ** (1.0 / 0.8))
    assert res.error_estimate >= 0.0


def test_specialized_same_code_path():
    f = koebe()  # f(0) = 0 so the additive terms vanish
    qs_res = specialized_norm(f, Qs(1.0), SMALL_SEARCH)
    f_res = fh_pqs_norm(analytic_as_harmonic(f), Fpqs(2.0, 0.0, 1.0), SMALL_SEARCH)
    assert qs_res.value == f_res.value  # bit identical
    mor = specialized_norm(f, Morrey(0.5), SMALL_SEARCH)
    f_mor = fh_pqs_norm(analytic_as_harmonic(f), Fpqs(2.0, 0.5, 0.5), SMALL_SEARCH)
    assert mor.value == f_mor.value
    bm = specialized_norm(f, BergmanMorrey(1.5, 0.5), SMALL_SEARCH)
    f_bm = fh_pqs_norm(analytic_as_harmonic(f), Fpqs(1.5, 1.0, 0.5), SMALL_SEARCH)
    assert bm.value == f_bm.value


def test_specialized_additive_term():
    g = poly([2.0, 1.0])  # f(0) = 2
    res = specialized_norm(g, Morrey(0.5), SMALL_SEARCH)
    base = specialized_norm(poly([0.0, 1.0]), Morrey(0.5), SMALL_SEARCH)
    assert res.value == pytest.approx(2.0 + base.value, rel=1e-12)


def test_bloch_norm():
    res = specialized_norm(identity(), BlochAlpha(1.0), SMALL_SEARCH)
    assert res.value == pytest.approx(1.0, rel=1e-12)
    assert abs(res.sup_a) <= 1e-3
    k = specialized_norm(koebe(), BlochAlpha(3.0), SMALL_SEARCH)
    assert k.value > 0.0


def test_constants_closed_forms():
    cs = qs_constant(1.0)
    assert cs.value == pytest.approx(math.pi / 2.0, rel=1e-8)
    assert abs(cs.sup_a) <= 1e-3
    for alpha in (0.0, 0.5, 1.0):
        c = sigma_deriv_constant(2.0, alpha)
        assert c.value == pytest.approx(math.pi / (alpha + 1.0), rel=1e-8)
    lam = morrey_constant(0.5)
    assert np.isfinite(lam.value) and lam.value > 0.0


def test_constants_rotation_invariance():
    problems = [
        WeightedSupProblem(lambda z: [np.ones(z.shape)], 1.5 - 2.0, 0.0 + 2.0 - 1.5),
        WeightedSupProblem(lambda z: [np.ones(z.shape)], 0.0, 1.0),
        WeightedSupProblem(lambda z: [np.ones(z.shape)], 0.5, 0.5),
        WeightedSupProblem(lambda z: [np.ones(z.shape)], 0.0, 2.0),
    ]
    for pr in problems:
        (ref,) = pr.integral_at(0.6)
        for k in range(8):
            (val,) = pr.integral_at(0.6 * np.exp(2j * np.pi * k / 8))
            assert val == pytest.approx(ref, rel=1e-8)


def test_constant_divergence_detected():
    with pytest.raises(InfiniteConstantError):
        sigma_deriv_constant(3.5, 0.5)  # p > alpha + 2


@pytest.mark.parametrize("p, alpha", [(2.6, 0.5), (2.2, 0.0)])
def test_constant_infinite_for_small_negative_s(p, alpha):
    # s_eff = alpha + 2 - p is -0.1 and -0.2: (1-|a|^2)^s grows without
    # bound, however slowly, so the constant is infinite
    with pytest.raises(InfiniteConstantError):
        sigma_deriv_constant(p, alpha)


def test_constants_are_the_closed_form_at_zero():
    for (q, s), res in {(0.0, 1.0): qs_constant(1.0),
                        (0.5, 0.5): morrey_constant(0.5),
                        (-0.5, 0.5): sigma_deriv_constant(1.5, 0.0),
                        (0.0, 0.0): sigma_deriv_constant(2.0, 0.0),
                        (1.5, 0.5): weight_overlap_constant(1.5, 0.5)}.items():
        assert res.value == res.raw_sup == math.pi / (q + s + 1.0)
        assert res.sup_a == 0.0 and not res.sup_on_cap
        assert res.trace == ((0.0, res.value),)
        assert res.error_estimate == 1e-12 * res.value


# the (q_eff, s_eff) of the benchmark pools' constants and 3.5/3.6 checks,
# and five more from q = -1.9 to 1.5 and s = 0.2 to 5
CONSTANT_PAIRS = [(0.0, 0.5), (0.0, 1.0), (0.5, 1.0), (0.7, 0.3), (0.5, 0.5),
                  (0.3, 0.7), (-0.5, 0.5), (1.5, 0.5),
                  (-1.9, 1.0), (1.0, 5.0), (-0.5, 2.0), (1.0, 0.2), (-1.5, 0.6)]


@pytest.mark.parametrize("q, s", CONSTANT_PAIRS)
def test_engine_never_exceeds_the_closed_form_constant(q, s):
    # the closed form claims sup_a I(a) = I(0) = pi/(q+s+1); the engine,
    # scanned along the radius up to the cap, must agree
    closed = math.pi / (q + s + 1.0)
    pr = WeightedSupProblem(lambda z: [np.ones(z.shape)], q, s)
    radii = dyadic_radii(10) + tuple(np.linspace(0.0, RADIUS_CAP, 41))
    worst = max(pr.integral_at(r)[0] for r in radii)
    assert worst <= closed * (1.0 + 1e-12)
    assert pr.integral_at(0.0)[0] == pytest.approx(closed, rel=1e-12)


def test_weight_overlap_validation():
    with pytest.raises(InvalidParameterError):
        weight_overlap_constant(-1.5, 0.2)


def test_per_a_monotone_under_domination():
    # positive weights: pointwise-dominated bases give dominated integrals
    pr1 = WeightedSupProblem(lambda z: [np.abs(z) ** 2], 0.0, 1.0)
    pr2 = WeightedSupProblem(lambda z: [np.abs(z) ** 2 + 0.5], 0.0, 1.0)
    for a in (0.0, 0.3, 0.6j, -0.5 + 0.4j, 0.96):
        assert pr1.integral_at(a)[0] < pr2.integral_at(a)[0]


@pytest.mark.parametrize("q, s", [(0.0, 1.0), (-0.5, 2.0), (1.0, 0.5), (0.5, 1.0)])
def test_weight_integral_matches_forelli_rudin_closed_form(q, s):
    # int_D (1-|z|^2)^q (1-|sigma_a z|^2)^s dA
    #   = pi (1-|a|^2)^s / (q+s+1) 2F1(s, s; q+s+2; |a|^2)
    # Up to |a| = 1 - 2^-6; closer to the cap the top angular rung aliases.
    pr = WeightedSupProblem(lambda z: [np.ones(z.shape)], q, s)
    for j in range(7):
        r = 1.0 - 2.0 ** -j if j else 0.0
        exact = (math.pi * (1.0 - r * r) ** s / (q + s + 1.0)
                 * float(mpmath.hyp2f1(s, s, q + s + 2.0, r * r)))
        for a in (r, r * np.exp(0.7j), -1j * r):
            assert pr.integral_at(a)[0] == pytest.approx(exact, rel=1e-13)
        if j:
            ring = pr.ring_integrals(r, 16)
            assert len(ring) == 16
            for (value,) in ring:
                assert value == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("q_eff, s_eff", [(0.0, 1.0), (-0.5, 0.5), (0.3, 0.0)])
def test_joint_kernel_equals_single_base_problems(q_eff, s_eff):
    # one Mobius factor per a, one contraction per base: the same bits as
    # separate problems, on every rung of the angular ladder
    bases = [lambda z: np.abs(1.0 + z) ** 1.5,
             lambda z: np.abs(z - 0.5j) ** 2 + 0.1]
    joint = WeightedSupProblem(lambda z: [b(z) for b in bases], q_eff, s_eff)
    singles = [WeightedSupProblem(lambda z, b=b: [b(z)], q_eff, s_eff)
               for b in bases]
    params = (0.0, 0.3j, -0.5 + 0.4j, 0.9, 0.95j, -0.99, 0.999)
    if s_eff:
        assert {256, 2048} <= {angular_count_for(abs(a), s_eff) for a in params}
    for a in params:
        vals = joint.integral_at(a)
        assert len(vals) == 2
        assert vals == tuple(pr.integral_at(a)[0] for pr in singles)
        refined = joint.refined_integral_at(a)
        assert refined == tuple(pr.refined_integral_at(a)[0] for pr in singles)


def _cayley_shear_pair():
    # |F'|^2 and |G'|^2 of a map that is not rotation invariant, turned by
    # e^(i pi/4) so that it is not symmetric under z -> conj(z) either: a
    # shift by the wrong number of columns or in the wrong direction shows
    turn = np.exp(0.25j * np.pi)
    parts = conjugate_parts(cayley_shear(0.5))
    return WeightedSupProblem(
        lambda z: [np.abs(part.jet(turn * z, 1, 1)[1]) ** 2.0 for part in parts],
        0.0, 1.0)


def test_conjugate_pair_tabulation_makes_no_grid_sized_temporary():
    # the tabulator runs on row blocks and writes straight into the two
    # bases, so building the problem holds the bases (2 x 2.1 MB), the
    # Mobius factor's buffer (2.1 MB) and block-sized temporaries only; the
    # whole-grid tabulation held several (2, 128, 2048) complex jets
    f = cayley_shear(0.5)

    def build():
        return WeightedSupProblem(
            lambda z: [m ** 1.5 for m in wirtinger(f, z).conjugate_moduli],
            0.0, 1.0, radial=128)

    build()
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 128 * 2048 * 8 + 1_000_000


CONSECUTIVE_PROBLEMS = """
import json, resource
from qrspaces.families import cayley_shear
from qrspaces.harmonic import wirtinger
from qrspaces.spaces import RADIUS_CAP_J, WeightedSupProblem, dyadic_radii

f = cayley_shear(0.5)

def problem():
    pr = WeightedSupProblem(
        lambda z: [m ** 1.5 for m in wirtinger(f, z).conjugate_moduli], 0.0, 1.0)
    for r in dyadic_radii(RADIUS_CAP_J)[1:]:
        pr.ring_integrals(r, 16)

faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    problem()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="measures glibc's mmap and trim thresholds")
def test_consecutive_problems_reuse_the_heap():
    # a conjugate-pair problem on 128 x 2048 nodes with one ring per lattice
    # radius frees one 6.3 MB block (two bases and the factor) and about
    # 3.7 MB of rung copies: glibc's mmap threshold rises to the block's
    # size and its trim threshold to twice that, so from the third problem
    # on the heap keeps every page.  With a separate array per base and
    # factor the largest freed chunk was 2.1 MB, and each problem faulted
    # about 2,300 pages in anew.  A fresh interpreter, so that no earlier
    # test has moved the thresholds, without the settings that pin them or
    # swap glibc's allocator out (MALLOC_*_, GLIBC_TUNABLES, LD_PRELOAD)
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("MALLOC_")
           and key not in ("GLIBC_TUNABLES", "LD_PRELOAD")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(qrspaces.__file__).resolve().parent.parent))
    run = subprocess.run([sys.executable, "-c", CONSECUTIVE_PROBLEMS], env=env,
                         capture_output=True, text=True, check=True)
    faults = json.loads(run.stdout)
    assert faults[2] < 100 and faults[3] < 100, faults


def test_refined_integral_makes_no_grid_sized_temporary():
    # node doubling near the boundary tabulates one base on 256 x 4096
    # nodes: the call holds that base and its Mobius factor (2 x 8.4 MB)
    # and block-sized temporaries, no complex grid (16.8 MB)
    a = 0.99 + 0.05j
    assert angular_count_for(abs(a), 1.0) == 2048
    pr = WeightedSupProblem(lambda z: (np.abs(1.0 + 0.5 * z) ** 1.5,),
                            0.0, 1.0, radial=128)
    pr.refined_integral_at(a)
    tracemalloc.start()
    try:
        pr.refined_integral_at(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 256 * 4096 * 8 + 1_000_000


def test_tabulator_must_return_values_on_the_grid():
    # checked on every row block, before a value is written
    with pytest.raises(InvalidParameterError, match="values on the grid"):
        WeightedSupProblem(lambda z: (np.ones(z.shape[1]),), 0.0, 1.0,
                           radial=8)


def test_table_work_counts_the_master_and_refined_grids():
    # the master grid, then one node-doubling grid at the argmax: twice the
    # radial nodes and twice the angles its integral used, every column of
    # both: the coefficient 0.3j makes the bases uneven in theta
    f = poly([0.0, 1.0, 0.3j, 0.1])
    res = q_npa_norm(f, Qnpa(1, 1.5, 0.0), SMALL_SEARCH, radial=32)
    count = angular_count_for(abs(res.sup_a), res.grid["s_eff"])
    assert res.grid["table_work"]["points"] == 32 * 2048 + 64 * 2 * count
    assert res.grid["kernel_evaluations"]["refined"] == 1


def test_node_doubling_at_s_eff_0_doubles_the_master_grid():
    # at s_eff = 0 the value integrates all 2048 master angles, whatever a,
    # so its node doubling takes 4096 on twice the radial nodes; the factor
    # is 1.0 and computes no nodes.  The polynomial's coefficients are real,
    # so both tables tabulate half the circle, count/2 + 1 columns
    res = q_npa_norm(poly([0.0, 1.0, 0.5]), Qnpa(1, 2.0, 0.0), SMALL_SEARCH,
                     radial=32)
    assert res.grid["s_eff"] == 0.0
    assert res.grid["table_work"] == {"points": 32 * 1025 + 64 * 2049,
                                      "factor_nodes": 0, "rings": 0,
                                      "copies": 0, "copied_values": 0}


@pytest.mark.parametrize("f", [
    identity(), constant(2.0 - 1j), affine_extremal(0.5, -1),
    affine_extremal(0.5, 1), HarmonicMap(poly([0.0, 1.0]), poly([0.0, 0.5])),
], ids=["identity", "constant", "affine-minus", "affine-plus", "hpoly"])
def test_constant_bases_of_degree_one_maps(f):
    assert constant_bases(f) is True


@pytest.mark.parametrize("f", [
    koebe(), poly([0.0, 1.0, 1e-300]), power_series([0.0, 1.0], 5),
    generic(identity()), analytic_as_harmonic(koebe()), cayley_shear(0.5),
], ids=["koebe", "tiny-quadratic", "power-series", "generic", "harmonic-koebe",
        "cayley-shear"])
def test_constant_bases_decided_on_the_exact_map(f):
    # a quadratic term of 1e-300 is still a quadratic term, and a map the
    # library cannot see into is never taken as constant
    assert constant_bases(f) is False


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("cell", [Qnpa(1, 1.5, 0.0), Qnpa(1, 2.0, 0.0),
                                  Qnpa(1, 0.7, -0.5), Fpqs(2.0, 0.0, 1.0),
                                  Fpqs(0.8, 0.8, 1.0)],
                         ids=lambda cell: cell.label())
def test_affine_norm_is_the_closed_form_of_the_engine_search(sign, cell):
    # the closed form at a = 0, exact up to rounding: no table, no search
    # and no node doubling, within 1e-13 of the engine's own search
    f = affine_extremal(0.5, sign)
    if isinstance(cell, Qnpa):
        res = qh_npa_norm(f, cell)
        q_eff, s_eff = pullback_exponents(cell.p, cell.alpha)
    else:
        res = fh_pqs_norm(f, cell)
        q_eff, s_eff = cell.q, cell.s
    assert res.grid["closed_form"] and res.sup_a == 0.0
    assert set(res.grid["kernel_evaluations"].values()) == {0}
    assert set(res.grid["table_work"].values()) == {0}
    assert res.error_estimate == 1e-12 * res.value
    engine = _finish_norm(WeightedSupProblem(
        _pow_tabulator(_lambda_fn(f), cell.p), q_eff, s_eff, even=True),
        SupSearchSpec(), cell.p)
    assert not engine.grid["closed_form"]
    assert engine.grid["kernel_evaluations"]["direct"] > 0
    assert res.raw_sup == pytest.approx(engine.raw_sup, rel=1e-13, abs=0.0)
    assert res.value == pytest.approx(engine.value, rel=1e-13, abs=0.0)


def test_zero_constant_base_is_zero_past_the_trivial_range():
    # a constant map's derivative base is 0, whose sup is 0 even where
    # s_eff < 0 makes the weight's sup infinite
    res = q_npa_norm(constant(2.0), Qnpa(1, 3.0, 0.5), SMALL_SEARCH)
    assert res.grid["s_eff"] < 0.0 and res.raw_sup == 0.0 and res.value == 0.0
    with pytest.raises(InfiniteConstantError):
        q_npa_norm(identity(), Qnpa(1, 3.0, 0.5), SMALL_SEARCH)


def test_parseval_oracle_at_zero_for_koebe():
    # for f = sum a_n z^n, int |f'|^2 (1-|z|^2)^b dA = pi sum n^2 |a_n|^2
    # B(n, b+1); koebe has a_n = n.  At s_eff = 0 the value at a = 0
    # integrates all 2048 master angles, on the default 128 radial nodes
    b = 10.0
    f = koebe()
    pr = WeightedSupProblem(lambda z: (np.abs(f.jet(z, 1, 1)[1]) ** 2,), b, 0.0)
    (value,) = pr.integral_at(0.0)
    oracle = float(mpmath.pi * mpmath.nsum(
        lambda n: n ** 4 * mpmath.beta(n, b + 1), [1, mpmath.inf]))
    assert abs(value / oracle - 1.0) <= 1e-11


def test_ring_integrals_match_rotated_kernel():
    pr = _cayley_shear_pair()
    spec = SupSearchSpec()
    rungs = set()
    for r, points in spec.rings().items():
        rungs.add(angular_count_for(r, pr.s_eff))
        ring = pr.ring_integrals(r, len(points))
        assert len(ring) == spec.angles_per_radius == 16
        for k, (a, values) in enumerate(zip(points, ring)):
            direct = pr.integral_at(a)
            assert len(values) == 2
            if k == 0:
                assert values == direct
            else:
                assert values == pytest.approx(direct, rel=1e-12)
    assert {256, 2048} <= rungs


def test_sup_search_ring_matches_direct():
    spec = SupSearchSpec(max_j=8)
    ringed, direct = _cayley_shear_pair(), _cayley_shear_pair()
    with_ring = _sup_search(ringed.integral_at, spec, ringed.ring_integrals)
    without = _sup_search(direct.integral_at, spec)
    assert ringed.work["rings"] == len(spec.rings())
    assert direct.work["rings"] == 0
    for (a1, v1, tr1), (a2, v2, tr2) in zip(with_ring, without):
        assert [a for a, _ in tr1] == [a for a, _ in tr2]
        assert a1 == a2
        assert v1 == pytest.approx(v2, rel=1e-13)
        for (_, x), (_, y) in zip(tr1, tr2):
            assert x == pytest.approx(y, rel=1e-13)


@pytest.mark.parametrize("params, angles", [
    (Qnpa(1, 1.5, 0.0), 3),  # 3 does not divide the rung counts
    (Qnpa(1, 2.0, 0.0), 8),  # s_eff = 0: one cached value per problem
    (Qnpa(1, 1.5, 0.0), 64),  # 64^2 exceeds every rung count
], ids=["angles-3", "s-eff-0", "angles-64"])
def test_ring_fallbacks_equal_direct_path(monkeypatch, params, angles):
    spec = SupSearchSpec(SMALL_SEARCH.max_j, angles)
    f = poly([0.0, 1.0, 0.3j, 0.1])
    ringed = q_npa_norm(f, params, spec)
    assert ringed.grid["table_work"]["rings"] == 0
    monkeypatch.setattr(WeightedSupProblem, "ring_integrals",
                        lambda self, r, turns: None)
    assert ringed == q_npa_norm(f, params, spec)


class _PairLattice:
    """A search lattice of one conjugate pair, ``first`` first."""

    def __init__(self, first):
        self.first = first

    def candidates(self):
        return [self.first, self.first.conjugate()]


@pytest.mark.parametrize("a", [0.3 + 0.4j, -0.6 - 0.7j, 0.95j])
def test_even_problem_takes_i_conj_a_from_i_a(monkeypatch, a):
    # bases even in theta, searched with the problem's ledger: a conjugate
    # pair costs one kernel run, at the member in the upper half-plane, and
    # one factor, whichever member comes first, and both get the same bits,
    # within 1e-13 of the kernel run at each; the counters say which ran
    monkeypatch.setattr(qrspaces.spaces, "_compass_max", lambda *args: [])
    bases = lambda z: [np.abs(1.0 + 0.5 * z) ** 2.5, np.abs(z - 0.3) ** 1.5]
    plain = WeightedSupProblem(bases, 0.0, 1.0, radial=32)
    upper = complex(a.real, abs(a.imag))
    one_run = WeightedSupProblem(bases, 0.0, 1.0, radial=32, even=True)
    one_run.integral_at(upper)
    for first in (a, a.conjugate()):
        pr = WeightedSupProblem(bases, 0.0, 1.0, radial=32, even=True)
        asked = []

        def objective(b, pr=pr, asked=asked):
            asked.append(b)
            return pr.integral_at(b)

        sups = _sup_search(objective, _PairLattice(first), ledger=pr.evaluations)
        assert asked == [upper]
        assert pr.work["factor_nodes"] == one_run.work["factor_nodes"] > 0
        assert pr.evaluations == {"direct": 1, "ring_turns": 0, "refined": 0,
                                  "conjugate": 1}
        for i, (_, _, trace) in enumerate(sups):
            assert [b for b, _ in trace] == [first, first.conjugate()]
            assert trace[0][1] == trace[1][1]
            for b, value in trace:
                assert value == pytest.approx(plain.integral_at(b)[i],
                                              rel=1e-13, abs=0.0)
    assert plain.evaluations["conjugate"] == 0


def test_uneven_search_never_pairs(monkeypatch):
    # no ledger: each member of a conjugate pair is its own kernel run, at
    # the member itself
    monkeypatch.setattr(qrspaces.spaces, "_compass_max", lambda *args: [])
    pr = WeightedSupProblem(lambda z: (np.abs(1.0 + 0.5 * z) ** 2.5,), 0.0, 1.0,
                            radial=32, even=True)
    asked = []
    _sup_search(lambda b: asked.append(b) or pr.integral_at(b),
                _PairLattice(0.3 - 0.4j))
    assert asked == [0.3 - 0.4j, 0.3 + 0.4j]
    assert pr.evaluations["direct"] == 2 and pr.evaluations["conjugate"] == 0


@pytest.mark.parametrize("angles", [3, 4])
def test_engine_complex_coefficient_never_pairs(angles):
    # f(conj z) != conj(f(z)): no a of the engine's trace is answered from
    # conj(a), though the lattice comes in exact conjugate pairs (3 angles:
    # every lattice point a direct call; 4: a ring per radius)
    f = analytic_as_harmonic(poly([0.0, 1.0, 0.5j]))
    res = qh_npa_norm(f, Qnpa(1, 1.5, 0.0), SupSearchSpec(3, angles))
    values = dict(res.trace)
    assert any(a.imag < 0 and a.conjugate() in values for a in values)
    routes = res.grid["kernel_evaluations"]
    assert routes["conjugate"] == 0
    assert routes["direct"] + routes["ring_turns"] == len(values)


def _rounding_candidates(spec):
    # a = 0 and every ring r = 1 - 2^-j, j <= max_j, of angles_per_radius
    # points, deduplicated by rounding every point to 15 decimals
    n = spec.angles_per_radius
    out = [0.0 + 0.0j]
    for r in dyadic_radii(spec.max_j)[1:]:
        out.extend(r * np.exp(1j * (2.0 * np.pi * k / n)) for k in range(n))
    seen, uniq = set(), []
    for a in out:
        key = (round(a.real, 15), round(a.imag, 15))
        if key not in seen:
            seen.add(key)
            uniq.append(a)
    return uniq


@pytest.mark.parametrize("angles", [1, 2, 3, 4, 8, 16, 64, 2048])
def test_candidates_match_rounding_dedupe(angles):
    # the lattice of the search depth j: the same order, types and count as
    # a dedupe of every point by rounding, each point within 8 ulps of |a|
    for j in range(RADIUS_CAP_J + 1):
        spec = SupSearchSpec(j, angles)
        got, want = spec.candidates(), _rounding_candidates(spec)
        assert len(got) == len(want)
        assert all(abs(g - w) <= 8 * np.spacing(abs(w)) for g, w in zip(got, want))
        assert list(map(type, got)) == list(map(type, want))
        assert list(spec.rings()) == list(dyadic_radii(j)[1:])


@pytest.mark.parametrize("angles", [1, 2, 3, 4, 8, 16, 64, 2048])
def test_lattice_comes_in_exact_conjugate_pairs(angles):
    # every lattice point below the real axis is the exact conjugate of its
    # partner at n - k, and every other point lies on or above the axis
    for j in range(RADIUS_CAP_J + 1):
        for ring in SupSearchSpec(j, angles).rings().values():
            for k, a in enumerate(ring):
                if k > angles / 2:
                    assert a == ring[angles - k].conjugate() and a.imag < 0
                else:
                    assert a.imag >= 0


@pytest.mark.parametrize("max_j, angles", [(-1, 16), (RADIUS_CAP_J + 1, 16),
                                           (3, 0)])
def test_search_spec_rejects_a_depth_past_the_cap_or_no_angles(max_j, angles):
    # a ring deeper than RADIUS_CAP_J would lie past the radius cap
    with pytest.raises(InvalidParameterError):
        SupSearchSpec(max_j, angles)


@pytest.mark.parametrize("build", [
    lambda: SupSearchSpec(3, 4.0), lambda: SupSearchSpec(2.5, 4),
    lambda: SupSearchSpec(True, 4), lambda: SupSearchSpec(3, True),
    lambda: SupSearchSpec(3, "4"),
    lambda: q_npa_norm(koebe(), Qnpa(2.5, 1.0, 1.0), SMALL_SEARCH),
    lambda: q_npa_norm(koebe(), Qnpa(2.0, 1.0, 1.0), SMALL_SEARCH),
    lambda: qh_npa_norm(analytic_as_harmonic(koebe()), Qnpa(True, 1.0, 1.0),
                        SMALL_SEARCH),
], ids=["angles-float", "depth-float", "depth-bool", "angles-bool",
        "angles-str", "n-2.5", "n-2.0", "n-bool"])
def test_integer_parameters_reject_floats_and_bools(build):
    # a value operator.index refuses, or a bool, is one line of error before
    # any search, ladder or jet runs
    with pytest.raises(InvalidParameterError) as exc:
        build()
    assert "must be an integer" in str(exc.value)
    assert "\n" not in str(exc.value)


def test_integer_parameters_take_numpy_integers():
    spec = SupSearchSpec(np.int64(2), np.int32(4))
    assert len(spec.candidates()) == 1 + 2 * 4
    Qnpa(np.int64(2), 1.0, 1.0).validate()


def _bump(center, width):
    return lambda a: math.exp(-abs(a - center) ** 2 / width)


def test_sup_search_evaluates_each_point_once():
    calls = collections.Counter()
    components = [_bump(0.3 - 0.2j, 0.5), _bump(-0.6j, 0.1)]

    def joint(a):
        calls[a] += 1
        return tuple(f(a) for f in components)

    results = _sup_search(joint, SMALL_SEARCH)
    assert len(results) == len(components)
    assert set(calls.values()) == {1}
    for _, _, trace in results:
        assert set(calls) == {a for a, _ in trace}


def test_sup_search_dominated_objectives_dominated_sups():
    f = _bump(0.3 - 0.2j, 0.5)
    bump = _bump(-0.6j, 0.1)
    g = lambda a: f(a) + bump(a)  # noqa: E731
    (_, sup_f, trace_f), (_, sup_g, trace_g) = _sup_search(
        lambda a: (f(a), g(a)), SMALL_SEARCH)
    assert sup_f <= sup_g
    assert [a for a, _ in trace_f] == [a for a, _ in trace_g]
    assert len(trace_f) > len(SMALL_SEARCH.candidates())


@settings(derandomize=True, deadline=None, max_examples=12)
@given(coefficients=st.lists(st.complex_numbers(max_magnitude=2.0),
                             min_size=1, max_size=4),
       p=st.floats(0.5, 3.0), c=st.floats(1e-3, 10.0),
       q=st.floats(-0.5, 1.0), s=st.floats(0.25, 2.0))
def test_sup_search_dominated_base_dominated_sup(coefficients, p, c, q, s):
    # base2 = base1 + c > base1 on every node and the weight is positive,
    # so the ring-seeded engine integrals of base2 dominate those of base1
    # at every a, both bases are traced over the same points, and so the
    # sup of base2 is at least that of base1
    def tabulate(z):
        b = np.abs(np.polyval(coefficients, z)) ** p
        return b, b + c

    pr = WeightedSupProblem(tabulate, q, s, radial=32)
    (_, sup1, trace1), (_, sup2, trace2) = _sup_search(
        pr.integral_at, SMALL_SEARCH, pr.ring_integrals)
    assert pr.work["rings"] == len(SMALL_SEARCH.rings())
    assert [a for a, _ in trace1] == [a for a, _ in trace2]
    assert all(v1 < v2 for (_, v1), (_, v2) in zip(trace1, trace2))
    assert sup2 >= sup1


def test_sup_search_single_objective_is_lattice_then_compass():
    f = _bump(0.3 - 0.2j, 0.5)
    (best_a, best_v, trace), = _sup_search(lambda a: (f(a),), SMALL_SEARCH)
    lattice = [(a, f(a)) for a in SMALL_SEARCH.candidates()]
    start, value = max(lattice, key=_by_value)
    expected = lattice + _compass_max(f, start, value)
    assert trace == expected
    assert (best_a, best_v) == max(expected, key=_by_value)


def test_qh_real_part_representation(rng):
    # u = Re f carried by h = g = F/2: integrand equals |(F o sigma_a)'|^p,
    # cross-checked against finite differences of u o sigma_a
    from qrspaces.analytic import compose_mobius
    from qrspaces.harmonic import conjugate_parts, real_part_map

    f = HarmonicMap(koebe(), poly([0.0, 0.0, 0.25]))
    params = Qnpa(1, 1.5, 0.0)
    u = real_part_map(f)
    res_u = qh_npa_norm(u, params, SMALL_SEARCH)
    F, _ = conjugate_parts(f)
    res_F = q_npa_norm(F, params, SMALL_SEARCH)
    assert res_u.value == pytest.approx(res_F.value, rel=1e-10)

    a = 0.4 - 0.2j
    comp = compose_mobius(F, MobiusMap(a))
    h = 1e-5
    for z in (0.1 + 0.2j, -0.3j, 0.5):
        u_at = lambda w: np.real(u(complex(sigma_of(a, w))))
        fx = (u_at(z + h) - u_at(z - h)) / (2 * h)
        fy = (u_at(z + 1j * h) - u_at(z - 1j * h)) / (2 * h)
        grad = math.hypot(fx, fy)
        assert grad == pytest.approx(abs(comp.derivative_at(z)), rel=1e-5)


def sigma_of(a, z):
    return (a - z) / (1.0 - np.conj(a) * z)
