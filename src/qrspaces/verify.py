"""Inequality and membership checks for harmonic quasiregular mappings.

Each check computes both sides of a claimed bound and reports the margin
rhs - lhs together with everything needed to recompute the verdict.  The
conjugate-pair norms of u = Re f and v = Im f are evaluated over a shared
automorphism candidate set (coarse lattice plus the union of both compass
trajectories), so pointwise-dominated integrands always produce dominated
sups and margins never go negative through search asymmetry alone.  Their
bases |F'|^p and |G'|^p are tabulated from one jet of h and one of g.

Theorems 3.1, 3.2, 3.5, 3.6 and Corollaries 3.1-3.6 are one computation,
``_conjugate_check``: the quasiregularity requirement (K, or (K, K') when a
constant enters), the u/v norm pair on the engine problem (q_eff, s_eff),
the record fields, and ||v|| <= K ||u|| or its (K, K') form.  The public
checks only validate their scale and pick (q_eff, s_eff) and the constant;
a corollary is Theorem 3.2 or 3.6 on the F-scale its scale maps to.

Membership in the M/F scales is an asymptotic statement; it is
operationalized as truncation stabilization: the truncated norm is computed
at radii R = 1 - 2^-j and declared finite when successive relative changes
drop below a documented threshold, divergent otherwise (with a fitted
exponent).  The radii of a ladder are one pass, ``_truncated_sup_norms``,
which tabulates each radial panel they share once and counts its tables'
work in one ledger, with the values a radius computed alone would give.
Out-of-range parameters yield an informational divergence report,
not a failure, since only sufficiency is asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .analytic import AnalyticFn, real_coefficients
from .errors import InvalidParameterError, NonQuasiregularError, require_index
from .families import OrderModel
from .harmonic import (HarmonicMap, SampleGrid, angular_radial,
                       estimate_quasiregularity, wirtinger)
from .mobius import MobiusMap
from .quadrature import (
    DEFAULT_ANGULAR,
    DEFAULT_RADIAL,
    PolarTable,
    _check_mobius_params,
    angular_count_for,
    check_angular,
    disk_integral_green,
    disk_integral_mobius_weight,
    table_work,
    truncated_panels,
)
from .spaces import (
    Fpqs,
    Mpqs,
    Morrey,
    BergmanMorrey,
    NormResult,
    Qs,
    Qnpa,
    SupSearchSpec,
    _derivative_norms,
    _lambda_fn,
    _pow_tabulator,
    dyadic_radii,
    on_cap,
    pullback_exponents,
    sigma_deriv_constant,
    weight_overlap_constant,
)

DEFAULT_VERIFY_TOL = 1e-6
_QR_SLACK = 1e-9


@dataclass(frozen=True)
class VerificationReport:
    """One checked bound: lhs <= rhs up to the recorded tolerance."""

    theorem_id: str
    map_description: str
    scale_label: str
    K: float
    Kprime: float
    lhs: float
    rhs: float
    margin: float
    passed: bool
    tol: float
    grid: dict
    extra: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        rec = {
            "theorem": self.theorem_id,
            "map": self.map_description,
            "scale": self.scale_label,
            "K": self.K,
            "Kprime": self.Kprime,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
            "tol": self.tol,
            "grid_radial": self.grid.get("grid_radial"),
            "grid_angular": self.grid.get("grid_angular"),
        }
        rec.update(self.extra)
        return rec


def _within_tol(margin: float, rhs: float, tol: float) -> bool:
    return margin >= -tol * abs(rhs)


def recompute_pass(record: dict) -> bool:
    """The pass flag is a pure function of (margin, rhs, tol), except that a
    membership record outside the asserted range passes regardless."""
    return (_within_tol(record["margin"], record["rhs"], record["tol"])
            or record.get("in_range") is False)


def _require_qh_range(p: float, alpha: float):
    if alpha <= -1.0:
        raise InvalidParameterError("alpha must exceed -1")
    if not (alpha + 1.0 < p < alpha + 2.0):
        raise InvalidParameterError(
            f"p = {p:g} outside the admissible range ({alpha + 1:g}, {alpha + 2:g})"
        )


def _require_k_quasiregular(f: HarmonicMap, K: float):
    est = estimate_quasiregularity(f)
    if not math.isfinite(est.K_est):
        raise NonQuasiregularError("distortion is unbounded on the sample grid")
    if est.K_est > K + _QR_SLACK:
        raise NonQuasiregularError(
            f"estimated distortion {est.K_est:.6f} exceeds claimed K = {K:g}"
        )
    return est


def _require_kkprime(f: HarmonicMap, K: float, Kprime: float):
    est = estimate_quasiregularity(f, require_k=False, K_for_residual=K)
    if est.Kprime_residual > Kprime + _QR_SLACK:
        raise NonQuasiregularError(
            f"residual max(Lambda^2 - K J) = {est.Kprime_residual:.6f} exceeds "
            f"claimed K' = {Kprime:g}"
        )
    return est


def _conjugate_norm_pair(f: HarmonicMap, q_eff: float, s_eff: float, p: float,
                         search: SupSearchSpec, radial: int, angular: int):
    """(norm, argmax, trace) of u and of v on the shared candidate set, the
    norms on the 1/p scale, and their grid.

    The bases |F'|^p and |G'|^p are tabulated together from one jet of h and
    one of g per node; the (1-t)^q_eff part belongs to the rule, and one
    Mobius factor per a serves both; affine maps take the closed form.
    """
    def tabulate(z):
        return [m ** p for m in wirtinger(f, z).conjugate_moduli]

    u, v = _derivative_norms(f, tabulate, q_eff, s_eff, search, radial,
                             angular, p, refine=False)
    return (u.value, u.sup_a, u.trace), (v.value, v.sup_a, v.trace), u.grid


def _conjugate_check(theorem_id: str, f: HarmonicMap, scale_label: str,
                     K: float, Kprime: float, p: float, q_eff: float,
                     s_eff: float, constant: Optional[NormResult] = None,
                     search: Optional[SupSearchSpec] = None,
                     tol: float = DEFAULT_VERIFY_TOL,
                     radial: int = DEFAULT_RADIAL,
                     angular: int = DEFAULT_ANGULAR) -> VerificationReport:
    """The body of every conjugate check: norms of u and v in the engine
    problem (q_eff, s_eff) on the 1/p scale, compared as ||v|| <= K ||u|| for
    a K-quasiregular map, or, given the ``constant`` C (a NormResult), on the
    p-th power scale for a (K, K') map:

    ||v||^p <= 2^max(p-1,0) (K^p ||u||^p + K'^(p/2) C).

    A K below 1, which no map has, is rejected first.
    """
    if not K >= 1.0:
        raise InvalidParameterError(f"K must be >= 1, got K = {K:g}")
    if constant is None:
        _require_k_quasiregular(f, K)
    else:
        _require_kkprime(f, K, Kprime)
    (nu, au, _), (nv, av, _), grid = _conjugate_norm_pair(
        f, q_eff, s_eff, p, search or SupSearchSpec(), radial, angular
    )
    # both norms, their argmaxes as [re, im], whether each sat on the radius
    # cap, and the kernel counts, table work and route of the u/v problem
    extra = {"norm_u": nu, "norm_v": nv,
             "sup_a_u": [au.real, au.imag], "sup_a_v": [av.real, av.imag],
             "sup_on_cap_u": on_cap(au), "sup_on_cap_v": on_cap(av),
             **{key: grid[key] for key in
                ("kernel_evaluations", "table_work", "closed_form")}}
    if constant is None:
        lhs, rhs = nv, K * nu
    else:
        lhs = nv ** p
        rhs = 2.0 ** max(p - 1.0, 0.0) * (K ** p * nu ** p
                                          + Kprime ** (p / 2.0) * constant.value)
        extra.update(constant=constant.value,
                     constant_sup_rho=abs(constant.sup_a))
    margin = rhs - lhs
    return VerificationReport(
        theorem_id=theorem_id, map_description=f.description,
        scale_label=scale_label, K=K, Kprime=Kprime, lhs=lhs, rhs=rhs,
        margin=margin, passed=_within_tol(margin, rhs, tol), tol=tol,
        grid=grid, extra=extra)


def check_conjugate_bound_qh(f: HarmonicMap, K: float, p: float, alpha: float,
                             search: Optional[SupSearchSpec] = None,
                             **kw) -> VerificationReport:
    """Theorem 3.1: ||v|| <= K ||u|| in the harmonic derivative scale
    Q_h(1,p,alpha), for alpha+1 < p < alpha+2 and a K-quasiregular map; the
    per-a integrals use the pulled-back exponents (p-2, alpha+2-p)."""
    _require_qh_range(p, alpha)
    return _conjugate_check("3.1", f, Qnpa(1, p, alpha).label(), K, 0.0, p,
                            *pullback_exponents(p, alpha), search=search, **kw)


def check_conjugate_bound_fh(f: HarmonicMap, K: float, params: Fpqs,
                             search: Optional[SupSearchSpec] = None,
                             **kw) -> VerificationReport:
    """Theorem 3.2: ||v|| <= K ||u|| in the harmonic F-scale (Mobius weight
    form)."""
    params.validate()
    return _conjugate_check("3.2", f, params.label(), K, 0.0, params.p,
                            params.q, params.s, search=search, **kw)


def check_inhomogeneous_bound_qh(f: HarmonicMap, K: float, Kprime: float,
                                 p: float, alpha: float,
                                 search: Optional[SupSearchSpec] = None,
                                 **kw) -> VerificationReport:
    """Theorem 3.5: the (K,K') bound in Q_h(1,p,alpha), on the p-th power
    scale, with C(p,alpha) = sup_a int |sigma_a'|^p (1-t)^alpha dA."""
    _require_qh_range(p, alpha)
    return _conjugate_check("3.5", f, Qnpa(1, p, alpha).label(), K, Kprime, p,
                            *pullback_exponents(p, alpha),
                            constant=sigma_deriv_constant(p, alpha),
                            search=search, **kw)


def check_inhomogeneous_bound_fh(f: HarmonicMap, K: float, Kprime: float,
                                 params: Fpqs,
                                 search: Optional[SupSearchSpec] = None,
                                 **kw) -> VerificationReport:
    """Theorem 3.6: the (K,K') bound in F_h(p,q,s), with
    C(q,s) = sup_a int (1-t)^q (1-|sigma_a z|^2)^s dA."""
    params.validate()
    return _conjugate_check("3.6", f, params.label(), K, Kprime, params.p,
                            params.q, params.s,
                            constant=weight_overlap_constant(params.q, params.s),
                            search=search, **kw)


# The scale each corollary takes: cor3.1-cor3.3 specialize Theorem 3.2 (the
# K-quasiregular form), cor3.4-cor3.6 Theorem 3.6 (the (K, K') form).
COROLLARY_SCALES = {"cor3.1": Morrey, "cor3.2": BergmanMorrey, "cor3.3": Qs,
                    "cor3.4": Morrey, "cor3.5": BergmanMorrey, "cor3.6": Qs}


def verify_corollary(f: HarmonicMap, which: str, scale, K: float,
                     Kprime: float = 0.0, **kw) -> VerificationReport:
    """The F-scale bound of ``which`` on ``scale.f_scale()``, the standard
    mapping of its Morrey (lam in (0,1)), Bergman-Morrey or Qs scale."""
    kind = COROLLARY_SCALES.get(which)
    if kind is None:
        raise InvalidParameterError(f"unknown corollary id {which!r}")
    if not isinstance(scale, kind):
        raise InvalidParameterError(
            f"corollary {which} takes a {kind.__name__} scale, got {scale!r}")
    scale.validate()
    if kind is Morrey and not scale.lam < 1.0:
        raise InvalidParameterError(
            f"corollary {which} takes a Morrey(lam) scale with lam in (0, 1)")
    fp = scale.f_scale()
    if which in ("cor3.1", "cor3.2", "cor3.3"):
        if Kprime != 0.0:
            raise InvalidParameterError(
                f"corollary {which} is the K-quasiregular form and takes no "
                f"K', got K' = {Kprime:g}")
        constant = None
    else:
        constant = weight_overlap_constant(fp.q, fp.s)
    return _conjugate_check(which, f, scale.label(), K, Kprime, fp.p, fp.q,
                            fp.s, constant=constant, **kw)


# --- membership ranges (truncation stabilization) ------------------------------


MEMBERSHIP_TARGETS = ("f", "fz", "fzbar", "ftheta", "bfb")


@dataclass(frozen=True)
class RangeCheck:
    """Bookkeeping of the three-case kernel estimate behind the ranges.

    t = q + s - p e and c = s - q - 2 + p e for the effective growth exponent
    e; membership is asserted for t > -1 and c < s, and 2 + t + c = 2 s holds
    identically.
    """

    t: float
    c: float
    in_range: bool
    case: str


def membership_range(p: float, q: float, s: float, exponent: float) -> RangeCheck:
    t = q + s - p * exponent
    c = s - q - 2.0 + p * exponent
    if t <= -1.0:
        case = "t<=-1"
    elif abs(c) < 1e-12:
        case = "c=0"
    elif c < 0.0:
        case = "c<0"
    else:
        case = "c>0"
    in_range = (t > -1.0) and (c < s)
    return RangeCheck(t, c, in_range, case)


def _growth_offset(scale, target: str) -> float:
    """Exponent offset over alpha_K for the measured object."""
    derivative_like = target != "f"
    if isinstance(scale, Mpqs):
        return 1.0 if derivative_like else 0.0
    if isinstance(scale, Fpqs):
        return 2.0 if derivative_like else 1.0
    raise InvalidParameterError("membership checks take an M or F scale")


def _membership_values(f: HarmonicMap, scale, target: str):
    """|target| values for M-scale; Lambda of the target for F-scale."""
    m_scale = isinstance(scale, Mpqs)
    lambda_f = _lambda_fn(f)

    def vals(z):
        if target == "f":
            return np.abs(f(z)) if m_scale else lambda_f(z)
        if target in ("fz", "fzbar"):
            part = f.h if target == "fz" else f.g
            order = 1 if m_scale else 2
            return np.abs(part.jet(z, order, order)[order])
        if m_scale:
            w = wirtinger(f, z)  # one modulus of ``angular_radial``'s pair
            zf, zg = z * w.fz, np.conj(z) * w.fzbar
            return np.abs(zf + zg if target == "bfb" else zf - zg)
        # angular/radial derivatives share Lambda = |h'+z h''| + |g'+z g''|
        hj = f.h.jet(z, 2, 1)
        gj = f.g.jet(z, 2, 1)
        return np.abs(hj[1] + z * hj[2]) + np.abs(gj[1] + z * gj[2])

    if target == "f":
        at0 = abs(f(0.0))
    elif target == "fz":
        at0 = abs(f.h.derivative_at(0.0)) if m_scale else 0.0
    elif target == "fzbar":
        at0 = abs(f.g.derivative_at(0.0)) if m_scale else 0.0
    else:
        at0 = 0.0
    return vals, at0


# The truncated norms of the quasiconformal growth models converge like
# (1-R)^c with c barely above 1, so the ladder runs deeper than the sup
# searches do: relative changes cross the stabilization threshold at j = 12
# for the slowest in-range acceptance case.
TRUNCATION_FIRST_J = 3
DEFAULT_TRUNCATION_MAX_J = 12
# a truncation ladder is stabilized when its final relative change is at
# most this
STABILIZATION_TOL = 1e-3
# from j = 54 on, the radius 1 - 2^-j rounds to 1.0
TRUNCATION_MAX_J = 53
_TRUNC_MAX_ANGULAR = 8192
# lattice angles per automorphism radius in the truncated sup
_TRUNC_SEARCH_ANGLES = 8


def _pow2_at_least(x: float) -> int:
    return 1 << max(0, math.ceil(math.log2(max(x, 1.0))))


def _truncation_count(R: float, s: float, angular: int) -> int:
    """Angular nodes of the truncation radius R: the Mobius-factor aliasing
    ladder and the ridge width 1-R, as a power of two capped at
    ``_TRUNC_MAX_ANGULAR``; non-decreasing in R."""
    count = max(angular_count_for(R, s, angular),
                _pow2_at_least(4.0 / (1.0 - R)))
    return min(count, _TRUNC_MAX_ANGULAR)


def _truncated_sup_norms(values_fn, p: float, q: float, s: float,
                         radii: Sequence[float],
                         angular: int = DEFAULT_ANGULAR,
                         even: bool = False) -> tuple:
    """sup over |a| <= R (coarse lattice) of the truncated weighted integral,
    for each R of ``radii`` (a ladder; one radius is a one-element ladder).

    Returns one (sup, grid) per radius, the grid holding its ``radial``
    nodes, ``angular`` nodes and the number of ``candidates`` a (a = 0 plus
    ``_TRUNC_SEARCH_ANGLES`` per ring r = 1 - 2^-i <= R), and the pass's
    work: the one ``quadrature.table_work`` ledger of all its tables.

    The automorphism search radius grows with the truncation radius so that
    sup-driven divergence (integrals unbounded in a) stays visible.  The
    angular count (``_truncation_count``) tracks both the Mobius-factor
    aliasing ladder and the width 1-R of any boundary ridge of the
    integrand, up to ``_TRUNC_MAX_ANGULAR``: at j = 12 the 8192 cap sits
    below the 4/(1-R) = 16384 the ridge rule asks for (kept, so the
    reference values of the default ladder stay put).  The count is a power
    of two of at least 256, so a ring's lattice angles are column shifts of
    one Mobius factor (``PolarTable.ring_integrals``).

    The radii share work.  A panel of ``truncated_panels`` depends on its
    edges alone, so each distinct panel is one ``quadrature.PolarTable``,
    with the panel's weights times (1-t)^(q+s), tabulated once at the
    largest count a radius uses it at, which serves every lower
    power-of-two count bit for bit.  Its ring kernel runs once per ring and
    count; a = 0, whose factor is exactly 1.0, takes the base's row means.
    Each radius sums its panels' integrals in rule order, so every value is
    the one a radius computed alone would give.  ``even``, for values of a
    map with real coefficients, makes every panel tabulate half the circle;
    a lower count's columns are still every (count/c)-th of the top's.
    """
    tabulate = _pow_tabulator(values_fn, p)
    counts = [_truncation_count(R, s, angular) for R in radii]
    rings = [[r for r in dyadic_radii(int(-math.log2(1.0 - R) + 0.5))[1:]
              if r <= R] for R in radii]
    rules = [truncated_panels(R) for R in radii]
    users = {}  # panel edges -> (its rule t, w, indices of the radii using it)
    for n, rule in enumerate(rules):
        for edges, t, w in rule:
            users.setdefault(edges, (t, w, []))[2].append(n)

    # (panel edges, count, ring r or None for a = 0) -> the panel's integrals
    integrals = {}
    work = table_work()
    for edges, (t, w, ns) in users.items():
        table = PolarTable(tabulate, np.sqrt(t), w * (1.0 - t) ** (q + s),
                           max(counts[n] for n in ns), work, even)
        for c in {counts[n] for n in ns}:
            integrals[edges, c, None] = table.integrals(0.0, s, c)
            for r in {r for n in ns if counts[n] == c for r in rings[n]}:
                (integrals[edges, c, r],) = table.ring_integrals(
                    r, s, c, _TRUNC_SEARCH_ANGLES)

    results = []
    for R, c, ring, rule in zip(radii, counts, rings, rules):
        values = [sum(panels) for r in (None, *ring) for panels in zip(
            *(integrals[edges, c, r] for edges, _, _ in rule))]
        results.append((max(values),
                        {"radial": sum(len(t) for _, t, _ in rule),
                         "angular": c, "candidates": len(values)}))
    return results, work


def verify_membership(f: HarmonicMap, model: OrderModel, scale,
                      target: str = "f",
                      truncation_max_j: int = DEFAULT_TRUNCATION_MAX_J,
                      tol: float = DEFAULT_VERIFY_TOL,
                      angular: int = DEFAULT_ANGULAR) -> VerificationReport:
    """Truncation-stabilization check of membership in an M or F scale.

    The truncated norm N(R) is computed at R = 1 - 2^-j for
    j = ``TRUNCATION_FIRST_J``, ..., ``truncation_max_j``, which must lie in
    4..``TRUNCATION_MAX_J`` (checked before any radius runs), so the ladder
    has at least two radii, in one ``_truncated_sup_norms`` pass; each
    ``truncation_trace`` entry records the grid that radius used, and
    ``table_work`` the pass's work ledger.  The ftheta and bfb targets first
    check their pointwise bound |target| <= (1+k)|h'| on the
    ``SampleGrid`` points.
    "Finite" means the final successive relative change (lhs) is at most
    ``STABILIZATION_TOL`` (rhs) up to the relative ``tol`` of every check,
    margin >= -tol * rhs; otherwise a divergence exponent is fitted.
    Out-of-range parameters give an informational divergence report (pass
    is not withheld), since the membership assertion is one-directional.
    """
    if target not in MEMBERSHIP_TARGETS:
        raise InvalidParameterError(f"unknown membership target {target!r}")
    if not TRUNCATION_FIRST_J < require_index(
            truncation_max_j, "truncation_max_j") <= TRUNCATION_MAX_J:
        raise InvalidParameterError(
            f"a truncation ladder runs j = {TRUNCATION_FIRST_J}..max_j over at "
            f"least 2 radii, so max_j must lie in {TRUNCATION_FIRST_J + 1}.."
            f"{TRUNCATION_MAX_J}, got {truncation_max_j}")
    scale.validate()
    check_angular(angular)
    exponent = model.alpha_K + _growth_offset(scale, target)
    rc = membership_range(scale.p, scale.q, scale.s, exponent)
    values_fn, at0 = _membership_values(f, scale, target)

    extra = {
        "target": target,
        "alpha_K": model.alpha_K,
        "growth_exponent": exponent,
        "t": rc.t,
        "c": rc.c,
        "case": rc.case,
        "in_range": rc.in_range,
    }

    if target in ("ftheta", "bfb"):
        zs = SampleGrid().points()
        bound = (1.0 + model.k) * np.abs(f.fz(zs))
        quantity = np.abs(angular_radial(f, zs)[target == "bfb"])
        worst = float(np.min(bound - quantity))
        extra["pointwise_margin"] = worst
        if worst < -1e-10:
            raise NonQuasiregularError(
                f"|{target}| exceeds (1+k)|h'| at a sample (margin {worst:.3e})"
            )

    radii = [1.0 - 2.0 ** -j
             for j in range(TRUNCATION_FIRST_J, truncation_max_j + 1)]
    ladder, work = _truncated_sup_norms(values_fn, scale.p, scale.q, scale.s,
                                        radii, angular, real_coefficients(f))
    raws, grids = zip(*ladder)
    norms = [at0 + raw ** (1.0 / scale.p) for raw in raws]
    changes = [abs(b - a) / max(abs(b), 1e-300)
               for a, b in zip(norms, norms[1:])]
    lhs = changes[-1]
    margin = STABILIZATION_TOL - lhs
    stabilized = _within_tol(margin, STABILIZATION_TOL, tol)
    extra.update(truncation_trace=[{"R": r, "norm": n, **g}
                                   for r, n, g in zip(radii, norms, grids)],
                 final_relative_change=lhs, table_work=work)
    if not stabilized and len(raws) >= 3:
        x = np.asarray([-math.log1p(-r * r) for r in radii])
        y = np.log(np.maximum(raws, 1e-300))
        extra["divergence_exponent"] = float(np.polyfit(x, y, 1)[0])
    return VerificationReport(
        theorem_id="4.1" if isinstance(scale, Mpqs) else "4.2",
        map_description=f.description, scale_label=scale.label(), K=model.K,
        Kprime=0.0, lhs=lhs, rhs=STABILIZATION_TOL, margin=margin,
        passed=stabilized or not rc.in_range, tol=tol,
        grid={"grid_radial": "graded", "grid_angular": angular}, extra=extra)


# --- equivalence ratio of the two weight families -------------------------------


@dataclass(frozen=True)
class RatioReport:
    entries: tuple  # (a, green_value, mobius_value, ratio)
    ratio_min: float
    ratio_max: float


def equivalence_ratio(f: AnalyticFn, p: float, q: float, s: float,
                      a_grid: Sequence[complex]) -> RatioReport:
    """Empirical ratio of the Green-weight and Mobius-weight integrals.

    No fixed equivalence constant is asserted; the report carries the range
    of the observed ratios over the supplied automorphism parameters, of
    which there must be at least one.  q and s are checked as both
    integrals check them, before either runs.  A map with real
    coefficients folds both integrals at a real a onto the half circle.
    """
    _check_mobius_params(q, s)
    a_grid = list(a_grid)
    if not a_grid:
        raise InvalidParameterError(
            "the equivalence ratio needs at least one automorphism parameter")
    tabulate = _pow_tabulator(_lambda_fn(f), p)
    even = real_coefficients(f)

    def base(z):
        return tabulate(z)[0]

    entries = []
    for a in a_grid:
        m = MobiusMap(a)
        gval = disk_integral_green(base, q, s, m, even=even).value
        wval = disk_integral_mobius_weight(base, q, s, m, tol=1e-9,
                                           even=even).value
        entries.append((complex(a), gval, wval, gval / wval))
    ratios = [e[3] for e in entries]
    return RatioReport(tuple(entries), min(ratios), max(ratios))
