import collections
import math

import numpy as np
import pytest

from qrspaces.analytic import compose_mobius, constant, identity, koebe, poly
from qrspaces.errors import InfiniteConstantError, InvalidParameterError
from qrspaces.families import affine_extremal
from qrspaces.harmonic import HarmonicMap, analytic_as_harmonic
from qrspaces.mobius import MobiusMap
from qrspaces.quadrature import angular_count_for
from qrspaces.spaces import (
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
    _sup_search,
    fh_pqs_norm,
    m_pqs_norm,
    morrey_constant,
    q_npa_norm,
    qh_npa_norm,
    qs_constant,
    sigma_deriv_constant,
    specialized_norm,
    weight_overlap_constant,
)

SMALL_SEARCH = SupSearchSpec(radii=(0.0, 0.5, 0.75, 0.875), angles_per_radius=8)


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
    res = q_npa_norm(identity(), Qnpa(1, 3.0, 0.5), SMALL_SEARCH)
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
    search = SupSearchSpec(radii=(0.0, 0.5), angles_per_radius=4)
    g = fh_pqs_norm(f, Fpqs(2.0, 0.0, 1.0), search, weight_form="green")
    m = fh_pqs_norm(f, Fpqs(2.0, 0.0, 1.0), search, weight_form="mobius")
    # identical at a = 0 (both reduce to radial closed forms with value pi/2)
    assert g.raw_sup == pytest.approx(math.pi / 2.0, rel=1e-8)
    assert 0.2 < g.raw_sup / m.raw_sup < 5.0
    # measured cap-refinement error, not a fixed fraction of the value
    assert g.error_estimate < 1e-7 * g.value


def test_fh_invalid_weight_form():
    with pytest.raises(InvalidParameterError):
        fh_pqs_norm(analytic_as_harmonic(identity()), Fpqs(2, 0, 1),
                    SMALL_SEARCH, weight_form="carleson")


def test_m_norm_values():
    zero = m_pqs_norm(lambda z: np.zeros(z.shape), 0.0, Mpqs(2.0, 0.0, 1.0),
                      SMALL_SEARCH)
    assert zero.value == pytest.approx(0.0, abs=1e-15)
    one = m_pqs_norm(lambda z: np.ones(z.shape), 1.0, Mpqs(2.0, 0.0, 1.0),
                     SMALL_SEARCH)
    assert one.value == pytest.approx(1.0 + math.sqrt(math.pi / 2.0), rel=1e-12)


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
        WeightedSupProblem([lambda z: np.ones(z.shape)], 1.5 - 2.0, 0.0 + 2.0 - 1.5),
        WeightedSupProblem([lambda z: np.ones(z.shape)], 0.0, 1.0),
        WeightedSupProblem([lambda z: np.ones(z.shape)], 0.5, 0.5),
        WeightedSupProblem([lambda z: np.ones(z.shape)], 0.0, 2.0),
    ]
    for pr in problems:
        (ref,) = pr.integral_at(0.6)
        for k in range(8):
            (val,) = pr.integral_at(0.6 * np.exp(2j * np.pi * k / 8))
            assert val == pytest.approx(ref, rel=1e-8)


def test_constant_divergence_detected():
    with pytest.raises(InfiniteConstantError):
        sigma_deriv_constant(3.5, 0.5)  # p > alpha + 2


def test_weight_overlap_validation():
    with pytest.raises(InvalidParameterError):
        weight_overlap_constant(-1.5, 0.2)


def test_per_a_monotone_under_domination():
    # positive weights: pointwise-dominated bases give dominated integrals
    pr1 = WeightedSupProblem([lambda z: np.abs(z) ** 2], 0.0, 1.0)
    pr2 = WeightedSupProblem([lambda z: np.abs(z) ** 2 + 0.5], 0.0, 1.0)
    for a in (0.0, 0.3, 0.6j, -0.5 + 0.4j, 0.96):
        assert pr1.integral_at(a)[0] < pr2.integral_at(a)[0]


@pytest.mark.parametrize("q_eff, s_eff", [(0.0, 1.0), (-0.5, 0.5), (0.3, 0.0)])
def test_joint_kernel_equals_single_base_problems(q_eff, s_eff):
    # one Mobius factor per a, one contraction per base: the same bits as
    # separate problems, on every rung of the angular ladder
    bases = [lambda z: np.abs(1.0 + z) ** 1.5,
             lambda z: np.abs(z - 0.5j) ** 2 + 0.1]
    joint = WeightedSupProblem(bases, q_eff, s_eff)
    singles = [WeightedSupProblem([b], q_eff, s_eff) for b in bases]
    params = (0.0, 0.3j, -0.5 + 0.4j, 0.9, 0.95j, -0.99, 0.999)
    if s_eff:
        assert {256, 2048} <= {angular_count_for(abs(a), s_eff) for a in params}
    for a in params:
        vals = joint.integral_at(a)
        assert len(vals) == 2
        assert vals == tuple(pr.integral_at(a)[0] for pr in singles)
        refined = joint.refined_integral_at(a)
        assert refined == tuple(pr.refined_integral_at(a)[0] for pr in singles)


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
