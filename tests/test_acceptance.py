"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Expected values are closed forms or independently coded
oracles (Beta moments, series sums, hand-evaluated identities).
"""

import math
import time

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from qrspaces.analytic import compose_mobius, derivative, koebe, poly
from qrspaces.families import (
    affine_extremal,
    cayley_shear,
    from_dilatation,
    growth_exponent,
    kkprime_example,
    koebe_shear,
    OrderModel,
)
from qrspaces.harmonic import HarmonicMap, analytic_as_harmonic, wirtinger
from qrspaces.mobius import MobiusMap, one_minus_sigma_sq, sigma, sigma_derivatives
from qrspaces.quadrature import disk_integral_alpha
from qrspaces.spaces import (
    Fpqs,
    Mpqs,
    Qnpa,
    WeightedSupProblem,
    morrey_constant,
    q_npa_norm,
    qs_constant,
    sigma_deriv_constant,
    weight_overlap_constant,
)
from qrspaces.verify import (
    check_conjugate_bound_fh,
    check_conjugate_bound_qh,
    check_inhomogeneous_bound_fh,
    check_inhomogeneous_bound_qh,
    membership_range,
    verify_membership,
)


def report(n, text, ok):
    print(f"[criterion {n:2d}] {text}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed: {text}"


def disk_points(rng, n, r_max=0.99):
    return r_max * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


# --- 1: quadrature oracles ------------------------------------------------------


def test_criterion_1_quadrature_oracles():
    t0 = time.time()
    worst = 0.0
    for alpha in (0.0, 0.5, 1.0, 2.0):
        res = disk_integral_alpha(lambda z: np.ones(z.shape), alpha)
        worst = max(worst, abs(res.value - math.pi / (alpha + 1)) * (alpha + 1) / math.pi)
        for m in range(11):
            res = disk_integral_alpha(
                lambda z, m=m: (z.real ** 2 + z.imag ** 2) ** m, alpha
            )
            oracle = math.pi * beta_fn(m + 1, alpha + 1)
            worst = max(worst, abs(res.value - oracle) / oracle)
    elapsed = time.time() - t0
    report(1, f"Beta-moment oracles (worst rel {worst:.2e}, {elapsed:.2f}s)",
           worst <= 1e-12 and elapsed < 1.0)


# --- 2: Mobius identities -------------------------------------------------------


def test_criterion_2_mobius_identities():
    rng = np.random.default_rng(2)
    a = disk_points(rng, 1000)
    z = disk_points(rng, 1000)
    worst = 0.0
    for ai, zi in zip(a, z):
        m = MobiusMap(ai)
        w = sigma(m, zi)
        worst = max(worst, abs(sigma(m, w) - zi))
        worst = max(worst, abs(sigma_derivatives(m, w, 1)[0]
                               * sigma_derivatives(m, zi, 1)[0] - 1.0))
        worst = max(worst, abs(one_minus_sigma_sq(m, zi) - (1.0 - abs(w) ** 2)))
    report(2, f"involution/chain/product identities (worst {worst:.2e})",
           worst <= 1e-12)


# --- 3: Mobius invariance of the derivative-scale seminorm ----------------------


def test_criterion_3_mobius_invariance():
    f = poly([0.0, 0.0, 1.0])
    params = Qnpa(1, 2.0, 0.5)
    base = q_npa_norm(f, params)
    worst = 0.0
    for b in (0.3, 0.6j, -0.5 + 0.4j):
        res = q_npa_norm(compose_mobius(f, MobiusMap(b)), params)
        worst = max(worst, abs(res.value - base.value) / base.value)
    report(3, f"Q(1,2,0.5) invariance under composition (worst rel {worst:.2e})",
           worst <= 1e-6)


# --- 4: pointwise comparability --------------------------------------------------


def test_criterion_4_gradient_comparability():
    rng = np.random.default_rng(4)
    z = disk_points(rng, 1000)
    maps = [
        analytic_as_harmonic(poly([0.0, 1.0])),            # f = z (upper tight)
        HarmonicMap(poly([0.0, 0.5]), poly([0.0, 0.5])),   # f = Re z (lower tight)
        affine_extremal(0.5, -1),
        cayley_shear(0.5),
        from_dilatation(derivative(koebe()), poly([0.0, 0.5])),
    ]
    ok = True
    for f in maps:
        w = wirtinger(f, z)
        lam, grad = w.lambda_big, w.grad_norm
        ok &= bool(np.all(lam <= grad + 1e-12))
        ok &= bool(np.all(grad <= math.sqrt(2.0) * lam + 1e-12))
    wz = wirtinger(maps[0], z)
    ok &= bool(np.max(np.abs(wz.grad_norm - math.sqrt(2) * wz.lambda_big)) <= 1e-12)
    wre = wirtinger(maps[1], z)
    ok &= bool(np.max(np.abs(wre.grad_norm - wre.lambda_big)) <= 1e-12)
    report(4, "Lambda <= |grad| <= sqrt(2) Lambda with tight witnesses", ok)


# --- 5 and 6: conjugate-bound suite ----------------------------------------------

Q_CELLS = ((0.7, -0.5), (1.5, 0.0), (2.5, 1.0))
F_CELLS = ((2.0, 0.0, 1.0), (0.8, 0.8, 1.0), (1.5, 1.0, 0.5))
K_VALUES = (0.2, 0.5, 0.8)


def suite_maps(k):
    K = (1 + k) / (1 - k)
    return [
        (f"z - {k} conj(z)", affine_extremal(k, -1), K, "equality"),
        (f"z + {k} conj(z)", affine_extremal(k, +1), K, ""),
        (f"cayley shear k={k}", cayley_shear(k), K, ""),
        (f"koebe dilatation k={k}",
         from_dilatation(derivative(koebe()), poly([0.0, k])), K, ""),
    ]


@pytest.fixture(scope="module")
def conjugate_suite():
    reports = []
    maps = [("analytic koebe", analytic_as_harmonic(koebe()), 1.0, "")]
    for k in K_VALUES:
        maps.extend(suite_maps(k))
    for label, f, K, tag in maps:
        for (p, alpha) in Q_CELLS:
            rep = check_conjugate_bound_qh(f, K, p, alpha)
            reports.append(("3.1", label, tag, rep))
        for (p, q, s) in F_CELLS:
            rep = check_conjugate_bound_fh(f, K, Fpqs(p, q, s))
            reports.append(("3.2", label, tag, rep))
    return reports


def test_criterion_5_conjugate_bound_suite(conjugate_suite):
    t0 = time.time()
    worst = -math.inf
    for tid, label, tag, rep in conjugate_suite:
        rel = rep.margin / abs(rep.rhs) if rep.rhs else 0.0
        worst = max(worst, -rel)
    ok = worst <= 1e-6
    report(5, f"3.1/3.2 margins over {len(conjugate_suite)} cells "
              f"(worst deficit {worst:.2e})", ok)


def test_criterion_6_equality_witness(conjugate_suite):
    worst = 0.0
    n = 0
    for tid, label, tag, rep in conjugate_suite:
        if tag != "equality":
            continue
        n += 1
        worst = max(worst, abs(rep.margin) / abs(rep.rhs))
    report(6, f"equality witness |margin|/rhs over {n} cells "
              f"(worst {worst:.2e})", n > 0 and worst <= 1e-6)


# --- 7: inhomogeneous suite -------------------------------------------------------


def test_criterion_7_inhomogeneous_suite():
    ok = True
    cases = [(kkprime_example(), 1.0, 4.0)]
    for c in (0.9, 0.95):
        cases.append((affine_extremal(c, +1), 1.0, 2 * c * (1 + c)))
    cases.append((from_dilatation(poly([1.0]), poly([0.0, 0.9])),
                  1.0, 2 * 0.9 * 1.9))
    for f, K, Kp in cases:
        rq = check_inhomogeneous_bound_qh(f, K, Kp, 1.5, 0.0)
        rf = check_inhomogeneous_bound_fh(f, K, Kp, Fpqs(2.0, 0.0, 1.0))
        ok &= rq.passed and rf.passed
        ok &= rq.extra["constant"] > 0 and rf.extra["constant"] > 0
    # elementary power inequality on 1e4 random triples
    rng = np.random.default_rng(7)
    A = rng.exponential(1.0, 10_000)
    B = rng.exponential(1.0, 10_000)
    ps = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0], 10_000)
    lhs = (A + B) ** ps
    rhs = 2.0 ** np.maximum(ps - 1.0, 0.0) * (A ** ps + B ** ps)
    worst = float(np.max(lhs - rhs * (1.0 + 1e-12)))
    ok &= worst <= 0.0
    report(7, "3.5/3.6 bounds with in-run constants and power inequality", ok)


# --- 8: constants ------------------------------------------------------------------


def series_overlap_constant(rho):
    """(1-rho)^2 pi sum (m+1) rho^m / (m+2) with rho = |a|^2."""
    total, m = 0.0, 0
    while True:
        term = (m + 1) * rho ** m / (m + 2)
        total += term
        if term < 1e-18 * total or m > 200_000:
            break
        m += 1
    return (1.0 - rho) ** 2 * math.pi * total


def test_criterion_8_constants():
    cs = qs_constant(1.0)
    ok = abs(cs.value - math.pi / 2) <= 1e-8 * (math.pi / 2)
    ok &= abs(cs.sup_a) <= 1e-3
    # series oracle at a nonzero parameter validates the integral itself
    pr = WeightedSupProblem([lambda z: np.ones(z.shape)], 0.0, 1.0)
    for rho_a in (0.0, 0.5, 0.9):
        oracle = series_overlap_constant(rho_a ** 2)
        ok &= abs(pr.integral_at(rho_a)[0] - oracle) <= 1e-8 * oracle
    # rotation invariance of all four constant integrands
    problems = [
        WeightedSupProblem([lambda z: np.ones(z.shape)], -0.5, 0.5),  # C(p,alpha)
        WeightedSupProblem([lambda z: np.ones(z.shape)], 0.0, 1.0),   # C(q,s)
        WeightedSupProblem([lambda z: np.ones(z.shape)], 0.5, 0.5),   # Morrey
        WeightedSupProblem([lambda z: np.ones(z.shape)], 0.0, 2.0),   # Qs
    ]
    for prob in problems:
        (ref,) = prob.integral_at(0.6)
        for j in range(8):
            (val,) = prob.integral_at(0.6 * np.exp(2j * np.pi * j / 8))
            ok &= abs(val - ref) <= 1e-8 * abs(ref)
    # the three named wrappers agree with their defining integrals
    ok &= abs(morrey_constant(0.5).value
              - weight_overlap_constant(0.5, 0.5).value) <= 1e-12
    ok &= sigma_deriv_constant(2.0, 0.0).value == pytest.approx(math.pi, rel=1e-8)
    report(8, "C_s(1) = pi/2 at rho <= 1e-3; rotation invariance of constants", ok)


# --- 9: membership ranges -----------------------------------------------------------


def test_criterion_9_membership_threshold():
    f = koebe_shear(0.0)
    model = OrderModel(K=1.0)  # conjectured order: alpha_K = 2
    assert model.alpha_K == pytest.approx(2.0)
    rep_in = verify_membership(f, model, Mpqs(0.8, 0.0, 1.0))
    rep_out = verify_membership(f, model, Mpqs(1.2, 0.0, 1.0))
    stabilized = rep_in.extra["final_relative_change"] < 1e-3
    divergent = (not rep_out.extra["in_range"]
                 and rep_out.extra["final_relative_change"] >= 1e-3
                 and rep_out.extra.get("divergence_exponent") is not None
                 and rep_out.extra["divergence_exponent"] > 0)
    rc_ok = True
    for p in (0.8, 1.0, 1.2):
        rc = membership_range(p, 0.0, 1.0, model.alpha_K)
        rc_ok &= abs(2.0 + rc.t + rc.c - 2.0 * 1.0) <= 1e-12
        rc_ok &= rc.in_range == (p < 1.0)
    ok = (rep_in.extra["in_range"] and stabilized and rep_in.passed
          and divergent and rc_ok)
    report(9, "truncated norms: stabilize at p=0.8, diverge at p=1.2 "
              f"(threshold p=1; t/c identity exact)", ok)


# --- 10: growth fit -----------------------------------------------------------------


def test_criterion_10_growth_fit():
    fit = growth_exponent(analytic_as_harmonic(koebe()), "hprime")
    # oracle: |koebe'| = |1+z|/|1-z|^3 peaks on the positive axis
    r = np.asarray(fit.radii)
    oracle = (1 + r) / (1 - r) ** 3
    values_ok = np.allclose(fit.values, oracle, rtol=1e-12)
    ok = abs(fit.beta - 3.0) <= 0.05 and values_ok
    report(10, f"Koebe derivative growth exponent {fit.beta:.4f} = 3.0 +- 0.05", ok)
