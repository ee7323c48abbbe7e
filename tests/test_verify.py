import collections
import math

import pytest

from qrspaces.analytic import identity, koebe, poly
from qrspaces.errors import InvalidParameterError, NonQuasiregularError
from qrspaces.families import (
    OrderModel,
    affine_extremal,
    cayley_shear,
    from_dilatation,
    kkprime_example,
    koebe_shear,
)
from qrspaces.harmonic import HarmonicMap, analytic_as_harmonic
from qrspaces.spaces import Fpqs, Mpqs, SupSearchSpec, WeightedSupProblem
from qrspaces.verify import (
    _conjugate_norm_pair,
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

FAST = SupSearchSpec(radii=(0.0, 0.5, 0.75, 0.875), angles_per_radius=8)


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


def test_conjugate_pair_one_kernel_call_per_a(monkeypatch):
    calls = collections.Counter()
    kernel = WeightedSupProblem.integral_at

    def counted(self, a):
        calls[complex(a)] += 1
        return kernel(self, a)

    monkeypatch.setattr(WeightedSupProblem, "integral_at", counted)
    (_, _, tru), (_, _, trv), _ = _conjugate_norm_pair(
        cayley_shear(0.5), 0.0, 1.0, 2.0, FAST, 32, 16)
    assert [a for a, _ in tru] == [a for a, _ in trv]
    assert set(calls.values()) == {1}
    assert set(calls) == {a for a, _ in tru}


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
    cor = verify_corollary(f, "cor3.3", K=3.0, s=1.0, search=FAST)
    thm = check_conjugate_bound_fh(f, 3.0, Fpqs(2.0, 0.0, 1.0), FAST)
    assert cor.lhs == thm.lhs and cor.rhs == thm.rhs  # same code path
    assert cor.scale_label == "Qs(1)"

    mor = verify_corollary(f, "cor3.1", K=3.0, lam=0.5, search=FAST)
    assert mor.margin == pytest.approx(0.0, abs=1e-9 * mor.rhs)

    bm = verify_corollary(f, "cor3.2", K=3.0, lam=0.5, p=1.5, search=FAST)
    assert bm.passed

    qskk = verify_corollary(kkprime_example(), "cor3.6", K=1.0, Kprime=4.0,
                            s=1.0, search=FAST)
    assert qskk.passed
    assert qskk.extra["constant"] == pytest.approx(math.pi / 2.0, rel=1e-8)

    morkk = verify_corollary(affine_extremal(0.9, +1), "cor3.4", K=1.0,
                             Kprime=2 * 0.9 * 1.9, lam=0.5, search=FAST)
    assert morkk.passed

    bmkk = verify_corollary(affine_extremal(0.9, +1), "cor3.5", K=1.0,
                            Kprime=2 * 0.9 * 1.9, lam=0.5, p=1.5, search=FAST)
    assert bmkk.passed

    with pytest.raises(InvalidParameterError):
        verify_corollary(f, "cor9.9", K=3.0)
    with pytest.raises(InvalidParameterError):
        verify_corollary(f, "cor3.1", K=3.0, lam=1.0)


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
                            truncation_js=range(3, 7))
    assert rep.extra["in_range"]
    assert rep.theorem_id == "4.1"
    assert len(rep.extra["truncation_trace"]) == 4
    rep2 = verify_membership(f, model, Fpqs(0.5, 0.0, 1.0),
                             truncation_js=range(3, 7))
    assert rep2.theorem_id == "4.2"
    assert rep2.extra["growth_exponent"] == pytest.approx(3.0)


def test_membership_derivative_targets():
    f = koebe_shear(0.2)
    model = OrderModel(K=1.5)
    rep = verify_membership(f, model, Mpqs(0.3, 0.0, 1.0), target="ftheta",
                            truncation_js=range(3, 6))
    assert rep.extra["pointwise_margin"] >= -1e-10
    assert rep.extra["growth_exponent"] == pytest.approx(model.alpha_K + 1.0)
    rep2 = verify_membership(f, model, Mpqs(0.3, 0.0, 1.0), target="fz",
                             truncation_js=range(3, 6))
    assert rep2.extra["truncation_trace"][0]["norm"] > 1.0  # includes |h'(0)| = 1
    with pytest.raises(InvalidParameterError):
        verify_membership(f, model, Mpqs(0.3, 0.0, 1.0), target="nonsense")


def test_membership_honours_tol():
    # final relative change 0.1693 against the 1e-3 threshold: margin -0.168
    f = koebe_shear(0.0)
    model = OrderModel(K=1.0)
    strict = verify_membership(f, model, Mpqs(0.8, 0.0, 1.0),
                               truncation_js=(3, 4, 5), tol=1e-6)
    loose = verify_membership(f, model, Mpqs(0.8, 0.0, 1.0),
                              truncation_js=(3, 4, 5), tol=1e3)
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
                            Mpqs(1.2, 0.0, 1.0), truncation_js=(3, 4, 5))
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


def test_equivalence_ratio_larger_s_stays_bounded():
    rep = equivalence_ratio(identity(), 2.0, 0.0, 3.0,
                            a_grid=[0.0, 0.5, 0.8])
    assert rep.ratio_max < 50.0
    assert rep.ratio_min > 1.0 / 50.0
