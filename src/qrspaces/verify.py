"""Inequality and membership checks for harmonic quasiregular mappings.

Each check computes both sides of a claimed bound and reports the margin
rhs - lhs together with everything needed to recompute the verdict.  The
conjugate-pair norms of u = Re f and v = Im f are evaluated over a shared
automorphism candidate set (coarse lattice plus the union of both compass
trajectories), so pointwise-dominated integrands always produce dominated
sups and margins never go negative through search asymmetry alone.

Membership in the M/F scales is an asymptotic statement; it is
operationalized as truncation stabilization: the truncated norm is computed
at radii R = 1 - 2^-j and declared finite when successive relative changes
drop below a documented threshold, divergent otherwise (with a fitted
exponent).  Out-of-range parameters yield an informational divergence
report, not a failure, since only sufficiency is asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .analytic import AnalyticFn
from .errors import InvalidParameterError, NonQuasiregularError
from .families import OrderModel
from .harmonic import (
    HarmonicMap,
    conjugate_parts,
    estimate_quasiregularity,
    wirtinger,
)
from .mobius import MobiusMap
from .quadrature import (
    DEFAULT_ANGULAR,
    DEFAULT_RADIAL,
    angular_count_for,
    angular_nodes,
    disk_integral_green,
    disk_integral_mobius_weight,
    mobius_integrals,
    truncated_radial_rule,
    work_arrays,
)
from .spaces import (
    Fpqs,
    Mpqs,
    Morrey,
    BergmanMorrey,
    Qs,
    Qnpa,
    SupSearchSpec,
    WeightedSupProblem,
    _analytic_deriv_base,
    _sup_search,
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


def _report(theorem_id, f, scale_label, K, Kprime, lhs, rhs, tol, grid, extra=None):
    margin = rhs - lhs
    return VerificationReport(
        theorem_id=theorem_id,
        map_description=getattr(f, "description", str(f)),
        scale_label=scale_label,
        K=K,
        Kprime=Kprime,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        passed=_within_tol(margin, rhs, tol),
        tol=tol,
        grid=dict(grid),
        extra=dict(extra or {}),
    )


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
    """(norm_u, norm_v) on the shared candidate set; values on the 1/p scale."""
    F, G = conjugate_parts(f)
    # bases are |F'|^p and |G'|^p; the (1-t)^q_eff part belongs to the rule,
    # and one Mobius factor per a serves both
    pr = WeightedSupProblem([_analytic_deriv_base(F, p), _analytic_deriv_base(G, p)],
                            q_eff, s_eff, radial, angular)
    (au, su, tru), (av, sv, trv) = _sup_search(pr.integral_at, search)
    return (su ** (1.0 / p), au, tru), (sv ** (1.0 / p), av, trv), pr.grid_metadata()


def check_conjugate_bound_qh(f: HarmonicMap, K: float, p: float, alpha: float,
                             search: Optional[SupSearchSpec] = None,
                             tol: float = DEFAULT_VERIFY_TOL,
                             radial: int = DEFAULT_RADIAL,
                             angular: int = DEFAULT_ANGULAR) -> VerificationReport:
    """||v|| <= K ||u|| in the harmonic derivative scale Q_h(1,p,alpha).

    Requires alpha+1 < p < alpha+2 and a K-quasiregular map; the per-a
    integrals use the pulled-back exponents (p-2, alpha+2-p).
    """
    _require_qh_range(p, alpha)
    _require_k_quasiregular(f, K)
    search = search or SupSearchSpec()
    # pullback: base carries |.|^p (1-t)^(p-2) jointly via q_eff = p-2
    (nu, au, _), (nv, av, _), grid = _conjugate_norm_pair(
        f, p - 2.0, alpha + 2.0 - p, p, search, radial, angular
    )
    scale = Qnpa(1, p, alpha)
    return _report("3.1", f, scale.label(), K, 0.0,
                   lhs=nv, rhs=K * nu, tol=tol, grid=grid,
                   extra={"norm_u": nu, "norm_v": nv,
                          "sup_a_u": repr(au), "sup_a_v": repr(av)})


def check_conjugate_bound_fh(f: HarmonicMap, K: float, params: Fpqs,
                             search: Optional[SupSearchSpec] = None,
                             tol: float = DEFAULT_VERIFY_TOL,
                             radial: int = DEFAULT_RADIAL,
                             angular: int = DEFAULT_ANGULAR,
                             theorem_id: str = "3.2",
                             scale_label: Optional[str] = None) -> VerificationReport:
    """||v|| <= K ||u|| in the harmonic F-scale (Mobius weight form)."""
    params.validate()
    _require_k_quasiregular(f, K)
    search = search or SupSearchSpec()
    (nu, au, _), (nv, av, _), grid = _conjugate_norm_pair(
        f, params.q, params.s, params.p, search, radial, angular
    )
    return _report(theorem_id, f, scale_label or params.label(), K, 0.0,
                   lhs=nv, rhs=K * nu, tol=tol, grid=grid,
                   extra={"norm_u": nu, "norm_v": nv,
                          "sup_a_u": repr(au), "sup_a_v": repr(av)})


def check_inhomogeneous_bound_qh(f: HarmonicMap, K: float, Kprime: float,
                                 p: float, alpha: float,
                                 search: Optional[SupSearchSpec] = None,
                                 tol: float = DEFAULT_VERIFY_TOL,
                                 radial: int = DEFAULT_RADIAL,
                                 angular: int = DEFAULT_ANGULAR) -> VerificationReport:
    """(K,K') bound in Q_h(1,p,alpha), on the p-th power scale:

    ||v||^p <= 2^max(p-1,0) (K^p ||u||^p + K'^(p/2) C(p,alpha)),
    C(p,alpha) = sup_a int |sigma_a'|^p (1-t)^alpha dA.
    """
    _require_qh_range(p, alpha)
    _require_kkprime(f, K, Kprime)
    search = search or SupSearchSpec()
    (nu, _, _), (nv, _, _), grid = _conjugate_norm_pair(
        f, p - 2.0, alpha + 2.0 - p, p, search, radial, angular
    )
    c_res = sigma_deriv_constant(p, alpha, radial=radial, angular=angular)
    lhs = nv ** p
    rhs = 2.0 ** max(p - 1.0, 0.0) * (K ** p * nu ** p
                                      + Kprime ** (p / 2.0) * c_res.value)
    return _report("3.5", f, Qnpa(1, p, alpha).label(), K, Kprime,
                   lhs=lhs, rhs=rhs, tol=tol, grid=grid,
                   extra={"norm_u": nu, "norm_v": nv,
                          "constant": c_res.value,
                          "constant_sup_rho": abs(c_res.sup_a)})


def check_inhomogeneous_bound_fh(f: HarmonicMap, K: float, Kprime: float,
                                 params: Fpqs,
                                 search: Optional[SupSearchSpec] = None,
                                 tol: float = DEFAULT_VERIFY_TOL,
                                 radial: int = DEFAULT_RADIAL,
                                 angular: int = DEFAULT_ANGULAR,
                                 theorem_id: str = "3.6",
                                 scale_label: Optional[str] = None) -> VerificationReport:
    """(K,K') bound in F_h(p,q,s):

    ||v||^p <= 2^max(p-1,0) (K^p ||u||^p + K'^(p/2) C(q,s)),
    C(q,s) = sup_a int (1-t)^q (1-|sigma_a z|^2)^s dA.
    """
    params.validate()
    _require_kkprime(f, K, Kprime)
    search = search or SupSearchSpec()
    (nu, _, _), (nv, _, _), grid = _conjugate_norm_pair(
        f, params.q, params.s, params.p, search, radial, angular
    )
    c_res = weight_overlap_constant(params.q, params.s, radial=radial,
                                    angular=angular)
    p = params.p
    lhs = nv ** p
    rhs = 2.0 ** max(p - 1.0, 0.0) * (K ** p * nu ** p
                                      + Kprime ** (p / 2.0) * c_res.value)
    return _report(theorem_id, f, scale_label or params.label(), K, Kprime,
                   lhs=lhs, rhs=rhs, tol=tol, grid=grid,
                   extra={"norm_u": nu, "norm_v": nv,
                          "constant": c_res.value,
                          "constant_sup_rho": abs(c_res.sup_a)})


COROLLARY_IDS = ("cor3.1", "cor3.2", "cor3.3", "cor3.4", "cor3.5", "cor3.6")


def verify_corollary(f: HarmonicMap, which: str, K: float, Kprime: float = 0.0,
                     lam: Optional[float] = None, p: Optional[float] = None,
                     s: Optional[float] = None, **kw) -> VerificationReport:
    """Specializations of the F-scale bounds under the standard mappings.

    cor3.1/cor3.4: Morrey (lam in (0,1)); cor3.2/cor3.5: Bergman-Morrey
    (p, lam in (0,2)); cor3.3/cor3.6: Qs (s > 0).  The first three take the
    K-quasiregular form, the last three the (K, K') form.
    """
    if which not in COROLLARY_IDS:
        raise InvalidParameterError(f"unknown corollary id {which!r}")
    if which in ("cor3.1", "cor3.4"):
        if lam is None or not 0.0 < lam < 1.0:
            raise InvalidParameterError("Morrey corollaries need lam in (0, 1)")
        scale = Morrey(lam)
        fp = scale.f_scale()
        label = scale.label()
    elif which in ("cor3.2", "cor3.5"):
        if lam is None or p is None:
            raise InvalidParameterError("Bergman-Morrey corollaries need p and lam")
        scale = BergmanMorrey(p, lam)
        scale.validate()
        fp = scale.f_scale()
        label = scale.label()
    else:
        if s is None:
            raise InvalidParameterError("Qs corollaries need s")
        scale = Qs(s)
        scale.validate()
        fp = scale.f_scale()
        label = scale.label()
    if which in ("cor3.1", "cor3.2", "cor3.3"):
        return check_conjugate_bound_fh(f, K, fp, theorem_id=which,
                                        scale_label=label, **kw)
    return check_inhomogeneous_bound_fh(f, K, Kprime, fp, theorem_id=which,
                                        scale_label=label, **kw)


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

    def vals(z):
        if target == "f":
            if m_scale:
                return np.abs(f(z))
            w = wirtinger(f, z)
            return w.lambda_big
        if target in ("fz", "fzbar"):
            part = f.h if target == "fz" else f.g
            order = 1 if m_scale else 2
            return np.abs(part.jet(z, order, order)[order])
        # angular/radial derivatives share Lambda = |h'+z h''| + |g'+z g''|
        if m_scale:
            hp = f.h.jet(z, 1, 1)[1]
            gp = f.g.jet(z, 1, 1)[1]
            sign = -1.0 if target == "ftheta" else 1.0
            return np.abs(z * hp + sign * np.conj(z) * np.conj(gp))
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
DEFAULT_TRUNCATION_JS = tuple(range(3, 13))
_TRUNC_MAX_ANGULAR = 8192
# lattice angles per automorphism radius in the truncated sup
_TRUNC_SEARCH_ANGLES = 8


def _pow2_at_least(x: float) -> int:
    return 1 << max(0, math.ceil(math.log2(max(x, 1.0))))


def _truncated_sup_norm(values_fn, p: float, q: float, s: float, R: float,
                        angular: int = DEFAULT_ANGULAR) -> float:
    """sup over |a| <= R (coarse lattice) of the truncated weighted integral.

    The automorphism search radius grows with the truncation radius so that
    sup-driven divergence (integrals unbounded in a) stays visible.  The
    angular count tracks both the Mobius-factor aliasing ladder and the
    width 1-R of any boundary ridge of the integrand.
    """
    t, w = truncated_radial_rule(R)
    count = max(angular_count_for(R, s, angular),
                _pow2_at_least(4.0 / (1.0 - R)))
    count = min(count, _TRUNC_MAX_ANGULAR)
    theta = angular_nodes(count)
    z = np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]
    bases = [np.asarray(values_fn(z), dtype=np.float64) ** p]
    w = w * (1.0 - t) ** (q + s)
    work = work_arrays(z.shape)
    candidates = [0.0 + 0.0j]
    j_max = int(-math.log2(1.0 - R) + 0.5)
    for i in range(1, j_max + 1):
        r = 1.0 - 2.0 ** -i
        if r > R:
            break
        for jj in range(_TRUNC_SEARCH_ANGLES):
            candidates.append(r * np.exp(2j * np.pi * jj / _TRUNC_SEARCH_ANGLES))
    return max(mobius_integrals(a, s, z, bases, w, work)[0] for a in candidates)


def verify_membership(f: HarmonicMap, model: OrderModel, scale,
                      target: str = "f",
                      truncation_js: Sequence[int] = DEFAULT_TRUNCATION_JS,
                      stabilization_tol: float = 1e-3,
                      tol: float = DEFAULT_VERIFY_TOL,
                      angular: int = DEFAULT_ANGULAR,
                      rng_seed: int = 0) -> VerificationReport:
    """Truncation-stabilization check of membership in an M or F scale.

    The truncated norm N(R) is computed at R = 1 - 2^-j; "finite" means the
    final successive relative change (lhs) is at most ``stabilization_tol``
    (rhs) up to the relative ``tol`` of every check, margin >= -tol * rhs;
    otherwise a divergence exponent is fitted.  Out-of-range parameters give
    an informational divergence report (pass is not withheld), since the
    membership assertion is one-directional.
    """
    if target not in MEMBERSHIP_TARGETS:
        raise InvalidParameterError(f"unknown membership target {target!r}")
    scale.validate()
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
        rng = np.random.default_rng(rng_seed)
        zs = 0.995 * np.sqrt(rng.random(1000)) * np.exp(
            2j * np.pi * rng.random(1000)
        )
        w = wirtinger(f, zs)
        bound = (1.0 + model.k) * np.abs(w.fz)
        quantity = np.abs(zs * w.fz - np.conj(zs) * w.fzbar) \
            if target == "ftheta" else np.abs(zs * w.fz + np.conj(zs) * w.fzbar)
        worst = float(np.min(bound - quantity))
        extra["pointwise_margin"] = worst
        if worst < -1e-10:
            raise NonQuasiregularError(
                f"|{target}| exceeds (1+k)|h'| at a sample (margin {worst:.3e})"
            )

    radii, norms, raws = [], [], []
    for j in truncation_js:
        R = 1.0 - 2.0 ** -j
        raw = _truncated_sup_norm(values_fn, scale.p, scale.q, scale.s, R,
                                  angular=angular)
        norm = at0 + raw ** (1.0 / scale.p)
        radii.append(R)
        norms.append(norm)
        raws.append(raw)
    changes = [abs(b - a) / max(abs(b), 1e-300)
               for a, b in zip(norms, norms[1:])]
    lhs = changes[-1] if changes else math.inf
    margin = stabilization_tol - lhs
    stabilized = _within_tol(margin, stabilization_tol, tol)
    extra["truncation_trace"] = [
        {"R": r, "norm": n} for r, n in zip(radii, norms)
    ]
    extra["final_relative_change"] = changes[-1] if changes else None
    if not stabilized and len(raws) >= 3:
        x = np.asarray([-math.log1p(-r * r) for r in radii])
        y = np.log(np.maximum(raws, 1e-300))
        slope = float(np.polyfit(x, y, 1)[0])
        extra["divergence_exponent"] = slope
    passed = stabilized or not rc.in_range
    report = VerificationReport(
        theorem_id="4.1" if isinstance(scale, Mpqs) else "4.2",
        map_description=f.description,
        scale_label=scale.label(),
        K=model.K,
        Kprime=0.0,
        lhs=lhs,
        rhs=stabilization_tol,
        margin=margin,
        passed=passed,
        tol=tol,
        grid={"grid_radial": "graded", "grid_angular": angular},
        extra=extra,
    )
    return report


# --- equivalence ratio of the two weight families -------------------------------


@dataclass(frozen=True)
class RatioReport:
    entries: tuple  # (a, green_value, mobius_value, ratio)
    ratio_min: float
    ratio_max: float


def equivalence_ratio(f: AnalyticFn, p: float, q: float, s: float,
                      a_grid: Sequence[complex],
                      radial: int = DEFAULT_RADIAL,
                      angular: int = DEFAULT_ANGULAR) -> RatioReport:
    """Empirical ratio of the Green-weight and Mobius-weight integrals.

    No fixed equivalence constant is asserted; the report carries the range
    of the observed ratios over the supplied automorphism parameters.
    """
    if q + s <= -1.0:
        raise InvalidParameterError("q + s must exceed -1")
    base = _analytic_deriv_base(f, p)
    entries = []
    for a in a_grid:
        m = MobiusMap(a)
        gval = disk_integral_green(base, q, s, m, radial=radial,
                                   angular=angular, tol=1e-7).value
        wval = disk_integral_mobius_weight(base, q, s, m, radial=radial,
                                           angular=angular, tol=1e-9).value
        entries.append((complex(a), gval, wval, gval / wval))
    ratios = [e[3] for e in entries]
    return RatioReport(tuple(entries), min(ratios), max(ratios))
