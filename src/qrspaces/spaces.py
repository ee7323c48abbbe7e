"""Norm scales over the disk, their parameter records, and sup searches.

Every scale here is a supremum over the automorphism parameter a of a
weighted area integral.  All of them reduce to one engine:

    I(a) = int_D base(z) (1-|z|^2)^q_eff (1-|sigma_a z|^2)^s_eff dA(z),

with

    * F_h(p,q,s):  base = Lambda_f^p,          (q_eff, s_eff) = (q, s)
    * M_h(p,q,s):  base = |f|^p,               (q_eff, s_eff) = (q, s)
    * Q(1,p,a):    base = |f'|^p (1-t)^(p-2),  (q_eff, s_eff) = (p-2, a+2-p)

The last line is the exact pullback of int |(f o sigma_a)'|^p (1-t)^alpha dA
through z = sigma_a(w) (the automorphism derivative |sigma_a'| equals
(1-|sigma_a|^2)/(1-|w|^2), so the whole integrand is again a power of the
standard Mobius weight).  This keeps the moving part of every per-a integral
a bounded rational factor and makes the sup search cheap: base values are
tabulated once on a master grid whose angular resolution nests the ladder
used near the boundary.

Composition-based evaluation (Faa di Bruno) remains as the path for jet
orders n >= 2, where no pullback of this form exists.

Every sup over a in the disk (engine, composition, Green, Bloch, and the u/v
pairs of the conjugate checks) runs through ``_sup_search``: one lattice, one
compass ascent per component of a joint objective, every component on the
union of the compass points, one joint evaluation per distinct a.  An engine
problem carries every base that shares its weight and grid (|F'|^p and |G'|^p
of a conjugate pair), so one Mobius factor per a serves all of them; scalar
sups are the one-component case.  The rotation-invariant constants use a
golden section along the radius.  ``_norm_result`` builds every NormResult;
its error is node doubling at the maximizer (engine, composition, constants),
the Green cap-refinement estimate, or only the 1e-12 floor (Bloch).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .analytic import AnalyticFn, compose_mobius
from .errors import InfiniteConstantError, InvalidParameterError
from .harmonic import HarmonicMap, wirtinger
from .mobius import MobiusMap
from .quadrature import (
    ANGULAR_LADDER,
    DEFAULT_ANGULAR,
    DEFAULT_RADIAL,
    _jacobi_01,
    angular_count_for,
    angular_nodes,
    build_grid,
    disk_integral_green,
    grid_points,
    mobius_integrals,
    tensor_integral,
    work_arrays,
)

# --- parameter records -------------------------------------------------------


@dataclass(frozen=True)
class Qnpa:
    """Derivative scale: sup_a int |(f o sigma_a)^(n)|^p (1-t)^alpha dA."""

    n: int
    p: float
    alpha: float

    def validate(self):
        if self.n < 1:
            raise InvalidParameterError("n must be a positive integer")
        if self.p <= 0.0:
            raise InvalidParameterError("p must be positive")
        if self.alpha <= -1.0:
            raise InvalidParameterError("alpha must exceed -1")

    @property
    def is_trivial(self) -> bool:
        # only constants remain when n p > alpha + 2
        return self.n * self.p > self.alpha + 2.0

    def label(self):
        return f"Q({self.n},{self.p:g},{self.alpha:g})"


@dataclass(frozen=True)
class Fpqs:
    p: float
    q: float
    s: float

    def validate(self):
        if self.p <= 0.0:
            raise InvalidParameterError("p must be positive")
        if self.q <= -2.0:
            raise InvalidParameterError("q must exceed -2")
        if self.s <= 0.0:
            raise InvalidParameterError("s must be positive")
        if self.q + self.s <= -1.0:
            raise InvalidParameterError("q + s must exceed -1")

    def label(self):
        return f"F({self.p:g},{self.q:g},{self.s:g})"


@dataclass(frozen=True)
class Mpqs:
    p: float
    q: float
    s: float

    def validate(self):
        Fpqs(self.p, self.q, self.s).validate()

    def label(self):
        return f"M({self.p:g},{self.q:g},{self.s:g})"


@dataclass(frozen=True)
class Morrey:
    lam: float

    def validate(self):
        if not 0.0 < self.lam <= 1.0:
            raise InvalidParameterError("Morrey exponent must lie in (0, 1]")

    def f_scale(self) -> Fpqs:
        return Fpqs(2.0, 1.0 - self.lam, self.lam)

    def label(self):
        return f"Morrey({self.lam:g})"


@dataclass(frozen=True)
class BergmanMorrey:
    p: float
    lam: float

    def validate(self):
        if self.p <= 0.0:
            raise InvalidParameterError("p must be positive")
        if not 0.0 < self.lam < 2.0:
            raise InvalidParameterError("Bergman-Morrey exponent must lie in (0, 2)")

    def f_scale(self) -> Fpqs:
        return Fpqs(self.p, self.p - self.lam, self.lam)

    def label(self):
        return f"BergmanMorrey({self.p:g},{self.lam:g})"


@dataclass(frozen=True)
class Qs:
    s: float

    def validate(self):
        if self.s <= 0.0:
            raise InvalidParameterError("s must be positive")

    def f_scale(self) -> Fpqs:
        return Fpqs(2.0, 0.0, self.s)

    def label(self):
        return f"Qs({self.s:g})"


@dataclass(frozen=True)
class BlochAlpha:
    alpha: float

    def validate(self):
        if self.alpha <= 0.0:
            raise InvalidParameterError("Bloch exponent must be positive")

    def label(self):
        return f"Bloch({self.alpha:g})"


SpaceParams = Union[Qnpa, Fpqs, Mpqs, Morrey, BergmanMorrey, Qs, BlochAlpha]


# --- search specification and results ----------------------------------------

DEFAULT_SEARCH_RADII = tuple(0.0 if j == 0 else 1.0 - 2.0 ** -j for j in range(11))
RADIUS_CAP = 1.0 - 2.0 ** -10
# compass refinement: the step halves when no direction improves, down to
# COMPASS_STOP; the evaluation budget guards against pathological integrands
COMPASS_SHRINK = 0.5
COMPASS_STOP = 1e-3
COMPASS_BUDGET = 2000


@dataclass(frozen=True)
class SupSearchSpec:
    """Coarse polar lattice for sup_{a in D}, refined by compass ascent.

    The search is heuristic: integrals of the test maps are smooth in a, and
    the trace is always reported so a missed sup is diagnosable.
    """

    radii: Sequence[float] = DEFAULT_SEARCH_RADII
    angles_per_radius: int = 16

    def __post_init__(self):
        if len(self.radii) == 0 or self.angles_per_radius < 1:
            raise InvalidParameterError(
                "the sup search needs at least one radius and one angle per radius"
            )

    def candidates(self):
        out = []
        for r in self.radii:
            r = min(float(r), RADIUS_CAP)
            if r <= 0.0:
                out.append(0.0 + 0.0j)
                continue
            for j in range(self.angles_per_radius):
                theta = 2.0 * np.pi * j / self.angles_per_radius
                out.append(r * np.exp(1j * theta))
        # deterministic, duplicate-free order
        seen, uniq = set(), []
        for a in out:
            key = (round(a.real, 15), round(a.imag, 15))
            if key not in seen:
                seen.add(key)
                uniq.append(a)
        return uniq


@dataclass(frozen=True)
class NormResult:
    """A computed norm: sup value, maximizer, and the evidence behind it."""

    value: float
    sup_a: complex
    trace: tuple
    error_estimate: float
    grid: dict
    raw_sup: float
    p_root: float
    value_at_zero: Optional[float] = None
    warnings: tuple = ()

    def trace_values(self):
        return np.asarray([v for _, v in self.trace])


def _by_value(av):
    return av[1]


def _compass_max(objective: Callable[[complex], float], start: complex,
                 value: float):
    """Four-direction local ascent inside |a| <= RADIUS_CAP.

    Returns the visited points as (a, value) pairs.  The first step is a
    quarter of the distance from ``start`` to the boundary, at least 0.05.
    """
    best_a, best_v = start, value
    visited = []
    step = max(0.05, 0.25 * (1.0 - abs(start)))
    while step > COMPASS_STOP and len(visited) < COMPASS_BUDGET:
        moved = False
        for d in (step, -step, 1j * step, -1j * step):
            cand = best_a + d
            if abs(cand) > RADIUS_CAP:
                continue
            v = objective(cand)
            visited.append((cand, v))
            if v > best_v:
                best_a, best_v, moved = cand, v, True
                break
        if not moved:
            step *= COMPASS_SHRINK
    return visited


def _sup_search(objective: Callable[[complex], Sequence[float]],
                search: SupSearchSpec):
    """One (argmax, value, trace) per component of a joint objective.

    ``objective(a)`` returns one value per component (a one-tuple for a
    scalar sup).  Lattice, one compass ascent per component, then every
    component on the union of all compass points, so pointwise-dominated
    components come out with dominated sups.  Memoized: one joint evaluation
    per distinct a.  The argmax is the first trace point with the largest
    value.
    """
    joint = functools.lru_cache(maxsize=None)(objective)
    lattice = search.candidates()
    values = [joint(a) for a in lattice]
    traces = [[(a, v[i]) for a, v in zip(lattice, values)]
              for i in range(len(values[0]))]
    union = []
    for i, trace in enumerate(traces):
        union.extend(a for a, _ in _compass_max(lambda a, i=i: joint(a)[i],
                                                *max(trace, key=_by_value)))
    for i, trace in enumerate(traces):
        trace.extend((a, joint(a)[i]) for a in union)
    return [(*max(trace, key=_by_value), trace) for trace in traces]


def _norm_result(best, err_raw: float, p_root: float, grid: dict,
                 value_at_zero=None, warnings=()) -> NormResult:
    """NormResult of a sup ``(argmax, raw value, trace)`` on the 1/p_root scale.

    ``err_raw`` is the error of the raw sup; it goes through the root to
    first order and is floored at summation noise, 1e-12 of the value.
    """
    best_a, best_v, trace = best
    value = best_v ** (1.0 / p_root) if p_root != 1.0 else best_v
    if best_v > 0.0 and p_root != 1.0:
        err_value = value * err_raw / (p_root * best_v)
    else:
        err_value = err_raw
    return NormResult(
        value=value,
        sup_a=complex(best_a),
        trace=tuple((complex(a), float(v)) for a, v in trace),
        error_estimate=float(max(err_value, 1e-12 * abs(value))),
        grid=grid,
        raw_sup=float(best_v),
        p_root=float(p_root),
        value_at_zero=value_at_zero,
        warnings=tuple(warnings),
    )


# --- the weighted sup engine --------------------------------------------------


class WeightedSupProblem:
    """sup over a of int base(z) (1-t)^q_eff (1-|sigma_a z|^2)^s_eff dA.

    One problem carries any number of bases that share the weight and the
    grid (the u/v pair of a conjugate check); each per-a call is one
    ``quadrature.mobius_integrals``, which computes the Mobius factor once and
    returns one integral per base.  Base values are tabulated once on a
    (radial x max_angular) master grid; per-a integrals run on the rung of the
    nested angular ladder that the aliasing bound picks, so near-boundary
    parameters get the resolution they need without repricing the interior
    ones.  Each rung keeps a contiguous copy of every ``max_angular //
    count``-th master column, so ``base_angular`` must divide ``max_angular``.
    """

    def __init__(self, base_fns: Sequence[Callable], q_eff: float, s_eff: float,
                 radial: int = DEFAULT_RADIAL,
                 base_angular: int = DEFAULT_ANGULAR):
        if q_eff + s_eff <= -1.0:
            raise InvalidParameterError(
                "combined radial exponent must exceed -1 for the Jacobi rule"
            )
        self.max_angular = ANGULAR_LADDER[-1]
        if radial < 2:
            raise InvalidParameterError(f"need at least 2 radial nodes, got {radial}")
        if base_angular < 4 or self.max_angular % base_angular:
            raise InvalidParameterError(
                "angular node count must be a power of two from 4 to "
                f"{self.max_angular}, got {base_angular}"
            )
        self.q_eff = float(q_eff)
        self.s_eff = float(s_eff)
        self.radial = int(radial)
        self.base_angular = int(base_angular)
        self._base_fns = tuple(base_fns)
        self._t, self._w = _jacobi_01(self.radial, self.q_eff + self.s_eff)
        theta = angular_nodes(self.max_angular)
        self._z = np.sqrt(self._t)[:, None] * np.exp(1j * theta)[None, :]
        self._bases = self._tabulate(self._z)
        self._const_value = None
        self._rungs = {}

    def _tabulate(self, z) -> list:
        bases = [np.asarray(fn(z), dtype=np.float64) for fn in self._base_fns]
        if any(b.shape != z.shape for b in bases):
            raise InvalidParameterError("base_fn must return values on the grid")
        return bases

    def grid_metadata(self) -> dict:
        return {
            "grid_radial": self.radial,
            "grid_angular": self.base_angular,
            "grid_angular_max": self.max_angular,
            "q_eff": self.q_eff,
            "s_eff": self.s_eff,
        }

    def _rung(self, count: int):
        """The master grid and the bases at ``count`` angles as contiguous
        copies, with work arrays for one per-a call.

        Strided reads (at 256 angles) and fresh temporaries (at 2048) each
        cost about as much as the arithmetic of a call.
        """
        if count not in self._rungs:
            stride = self.max_angular // count
            z = np.ascontiguousarray(self._z[:, ::stride])
            bases = [np.ascontiguousarray(b[:, ::stride]) for b in self._bases]
            self._rungs[count] = (z, bases, work_arrays(z.shape))
        return self._rungs[count]

    def integral_at(self, a: complex) -> tuple:
        """One integral per base at the automorphism parameter a."""
        a = complex(a)
        if self.s_eff == 0.0:
            if self._const_value is None:
                z, bases, work = self._rung(self.max_angular)
                self._const_value = mobius_integrals(a, self.s_eff, z, bases,
                                                     self._w, work)
            return self._const_value
        count = angular_count_for(abs(a), abs(self.s_eff), self.base_angular)
        z, bases, work = self._rung(min(count, self.max_angular))
        return mobius_integrals(a, self.s_eff, z, bases, self._w, work)

    def refined_integral_at(self, a: complex) -> tuple:
        """One-off evaluation with doubled node counts (error estimation)."""
        a = complex(a)
        t, w = _jacobi_01(2 * self.radial, self.q_eff + self.s_eff)
        count = 2 * min(
            angular_count_for(abs(a), abs(self.s_eff), self.base_angular),
            self.max_angular,
        )
        theta = angular_nodes(count)
        z = np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]
        return mobius_integrals(a, self.s_eff, z, self._tabulate(z), w,
                                work_arrays(z.shape))


def _finish_norm(problem: WeightedSupProblem, search: SupSearchSpec,
                 p_root: float, value_at_zero=None, warnings=()) -> NormResult:
    """Sup of a one-base engine problem, node-doubling error at the argmax."""
    (best,) = _sup_search(problem.integral_at, search)
    (refined,) = problem.refined_integral_at(best[0])
    return _norm_result(best, abs(refined - best[1]), p_root,
                        problem.grid_metadata(), value_at_zero, warnings)


# --- base tabulators ----------------------------------------------------------


def _analytic_deriv_base(f: AnalyticFn, p: float):
    def base(z):
        return np.abs(f.jet(z, 1, 1)[1]) ** p
    return base


def _harmonic_lambda_pow(f: HarmonicMap, p: float):
    def base(z):
        return wirtinger(f, z).lambda_big ** p
    return base


def _values_pow(values_fn: Callable, p: float):
    def base(z):
        return np.abs(np.asarray(values_fn(z))) ** p
    return base


# --- norm functionals ----------------------------------------------------------


def q_npa_norm(f: AnalyticFn, params: Qnpa,
               search: Optional[SupSearchSpec] = None,
               radial: int = DEFAULT_RADIAL,
               angular: int = DEFAULT_ANGULAR) -> NormResult:
    """Seminorm of the derivative scale; |f(0)| is reported separately.

    For n = 1 the per-a integral is evaluated in pulled-back form (see module
    docstring); higher jet orders go through explicit composition.
    """
    params.validate()
    search = search or SupSearchSpec()
    warnings = ()
    if params.is_trivial:
        warnings = (
            f"trivial range: n*p = {params.n * params.p:g} exceeds alpha+2 = "
            f"{params.alpha + 2.0:g}; only constants have finite norm",
        )
    f0 = abs(f(0.0))
    if params.n == 1:
        pr = WeightedSupProblem([_analytic_deriv_base(f, params.p)],
                                params.p - 2.0, params.alpha + 2.0 - params.p,
                                radial, angular)
        return _finish_norm(pr, search, params.p, value_at_zero=f0,
                            warnings=warnings)
    return _q_norm_composed([f], params, search, radial, angular, f0, warnings)


def qh_npa_norm(f: HarmonicMap, params: Qnpa,
                search: Optional[SupSearchSpec] = None,
                radial: int = DEFAULT_RADIAL,
                angular: int = DEFAULT_ANGULAR) -> NormResult:
    """Harmonic derivative scale with integrand (|(h o s)^(n)| + |(g o s)^(n)|)^p.

    For n = 1 this is the Lambda_f form, handled by the pullback engine.
    """
    params.validate()
    search = search or SupSearchSpec()
    warnings = ()
    if params.is_trivial:
        warnings = ("trivial range: n*p exceeds alpha+2",)
    f0 = abs(f(0.0))
    if params.n == 1:
        pr = WeightedSupProblem([_harmonic_lambda_pow(f, params.p)],
                                params.p - 2.0, params.alpha + 2.0 - params.p,
                                radial, angular)
        return _finish_norm(pr, search, params.p, value_at_zero=f0,
                            warnings=warnings)
    return _q_norm_composed([f.h, f.g], params, search, radial, angular, f0,
                            warnings)


def _q_norm_composed(parts, params: Qnpa, search, radial, angular, f0, warnings):
    """Composition path for jet orders n >= 2."""
    n, p = params.n, params.p
    pole = 0.5 * p * (n + 1)

    def integral_at(a, nr=radial, na=angular):
        m = MobiusMap(a)
        count = angular_count_for(abs(complex(a)), pole, na)
        grid = build_grid(nr, params.alpha, count)
        z = grid_points(grid)
        total = np.zeros(z.shape)
        for part in parts:
            total += np.abs(compose_mobius(part, m).jet(z, n, n)[n])
        return (tensor_integral(total ** p, grid),)

    (best,) = _sup_search(integral_at, search)
    (refined,) = integral_at(best[0], nr=2 * radial, na=2 * angular)
    grid = {"grid_radial": radial, "grid_angular": angular, "jet_order": n}
    return _norm_result(best, abs(refined - best[1]), p, grid, f0, warnings)


def fh_pqs_norm(f: HarmonicMap, params: Fpqs,
                search: Optional[SupSearchSpec] = None,
                weight_form: str = "mobius",
                radial: int = DEFAULT_RADIAL,
                angular: int = DEFAULT_ANGULAR) -> NormResult:
    """sup_a int Lambda_f^p (1-t)^q W(z,a) dA with the chosen weight form.

    ``mobius`` uses (1-|sigma_a z|^2)^s; ``green`` uses g(z,a)^s, the
    log-singular companion (cross-validation only, slower).
    """
    params.validate()
    search = search or SupSearchSpec()
    base = _harmonic_lambda_pow(f, params.p)
    if weight_form == "mobius":
        pr = WeightedSupProblem([base], params.q, params.s, radial, angular)
        return _finish_norm(pr, search, params.p)
    if weight_form != "green":
        raise InvalidParameterError(f"unknown weight form {weight_form!r}")

    # the cap-refinement error of each per-a integral, kept for the argmax
    errors = {}

    def integral_at(a):
        res = disk_integral_green(base, params.q, params.s, MobiusMap(a),
                                  radial=radial, angular=angular, tol=1e-7)
        errors[a] = res.abs_error_estimate
        return (res.value,)

    (best,) = _sup_search(integral_at, search)
    grid = {"grid_radial": radial, "grid_angular": angular, "weight": "green"}
    return _norm_result(best, errors[best[0]], params.p, grid)


def m_pqs_norm(values_fn: Callable, f0: complex, params: Mpqs,
               search: Optional[SupSearchSpec] = None,
               radial: int = DEFAULT_RADIAL,
               angular: int = DEFAULT_ANGULAR) -> NormResult:
    """|f(0)| + (sup_a int |f|^p (1-t)^q (1-|sigma_a z|^2)^s dA)^(1/p).

    ``values_fn`` maps a complex array of disk points to values of f.
    """
    params.validate()
    search = search or SupSearchSpec()
    pr = WeightedSupProblem([_values_pow(values_fn, params.p)], params.q,
                            params.s, radial, angular)
    f0 = abs(complex(f0))
    res = _finish_norm(pr, search, params.p, value_at_zero=f0)
    return dataclasses.replace(res, value=f0 + res.value)


def _lambda_values(f):
    """Adapter: |f'| for analytic input, Lambda_f for harmonic input."""
    if isinstance(f, HarmonicMap):
        return lambda z: wirtinger(f, z).lambda_big, abs(f(0.0))
    return lambda z: np.abs(f.jet(z, 1, 1)[1]), abs(f(0.0))


def specialized_norm(f, scale, search: Optional[SupSearchSpec] = None,
                     radial: int = DEFAULT_RADIAL,
                     angular: int = DEFAULT_ANGULAR) -> NormResult:
    """Morrey / Bergman-Morrey / Qs / Bloch-type norms.

    The first three delegate to the F-scale with the standard parameter
    mappings (Morrey(l) -> F(2,1-l,l), BergmanMorrey(p,l) -> F(p,p-l,l),
    Qs(s) -> F(2,0,s)) and add the value-at-zero term exactly as the
    respective definitions state.  Accepts analytic or harmonic ``f``.
    """
    scale.validate()
    search = search or SupSearchSpec()
    if isinstance(scale, BlochAlpha):
        return _bloch_norm(f, scale, search)
    fparams = scale.f_scale()
    deriv_fn, f0 = _lambda_values(f)
    pr = WeightedSupProblem([_values_pow(deriv_fn, fparams.p)], fparams.q,
                            fparams.s, radial, angular)
    res = _finish_norm(pr, search, fparams.p, value_at_zero=f0)
    if f0 == 0.0:
        return res
    if isinstance(scale, Morrey):
        value = f0 + res.value
    elif isinstance(scale, BergmanMorrey):
        value = (f0 ** fparams.p + res.raw_sup) ** (1.0 / fparams.p)
    else:  # Qs
        value = math.sqrt(f0 ** 2 + res.raw_sup)
    return dataclasses.replace(res, value=value)


def _bloch_norm(f, scale: BlochAlpha, search: SupSearchSpec) -> NormResult:
    """|f(0)| + sup_z (1-|z|^2)^alpha Lambda_f(z), searched like a sup over a.

    A pointwise sup has no quadrature error: only the summation-noise floor
    is reported.
    """
    deriv_fn, f0 = _lambda_values(f)

    def objective(z):
        z = np.asarray(complex(z))
        return (float((1.0 - abs(complex(z)) ** 2) ** scale.alpha * deriv_fn(z)),)

    (best,) = _sup_search(objective, search)
    res = _norm_result(best, 0.0, 1.0, {"search_points": len(best[2])}, f0)
    return dataclasses.replace(res, value=f0 + res.value)


# --- sup-type constants --------------------------------------------------------

CONSTANT_SCAN_RADII = tuple(0.0 if j == 0 else 1.0 - 2.0 ** -j for j in range(11))


def _constant_sup(base_problem: WeightedSupProblem, label: str,
                  xtol: float = 1e-4) -> NormResult:
    """1-D sup over rho in [0, 1) of a rotation-invariant per-a integral.

    Coarse scan along the real axis, divergence detection, then golden
    section on the bracketing interval.  ``base_problem`` has one base.
    """

    def value(rho):
        (v,) = base_problem.integral_at(rho)
        return v

    radii = [min(r, RADIUS_CAP) for r in CONSTANT_SCAN_RADII]
    vals = [value(r) for r in radii]
    trace = list(zip(radii, vals))
    if vals[-1] > 10.0 * max(vals[0], 1e-300) and vals[-1] > vals[-2] > vals[-3]:
        raise InfiniteConstantError(
            f"{label} diverges along the radius scan "
            f"(value {vals[-1]:.3e} at rho = {radii[-1]:.6f})"
        )
    i = int(np.argmax(vals))
    lo = radii[i - 1] if i > 0 else 0.0
    hi = radii[i + 1] if i + 1 < len(radii) else radii[-1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = value(x1), value(x2)
    while hi - lo > xtol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = value(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = value(x1)
        trace.append((x1, f1))
        trace.append((x2, f2))
    best_rho, best_v = max(trace, key=_by_value)
    (refined,) = base_problem.refined_integral_at(best_rho)
    return _norm_result((best_rho, best_v, trace), abs(refined - best_v), 1.0,
                        base_problem.grid_metadata())


def _unit_base(z):
    return np.ones(z.shape)


def sigma_deriv_constant(p: float, alpha: float,
                         radial: int = DEFAULT_RADIAL,
                         angular: int = DEFAULT_ANGULAR) -> NormResult:
    """sup_a int |sigma_a'(z)|^p (1-|z|^2)^alpha dA(z).

    Pulled back this is the engine integral with base 1 and exponents
    (p-2, alpha+2-p); it is finite exactly when p <= alpha + 2.
    """
    if alpha <= -1.0:
        raise InvalidParameterError("alpha must exceed -1")
    if p <= 0.0:
        raise InvalidParameterError("p must be positive")
    pr = WeightedSupProblem([_unit_base], p - 2.0, alpha + 2.0 - p, radial, angular)
    return _constant_sup(pr, f"C({p:g};{alpha:g})")


def weight_overlap_constant(q: float, s: float,
                            radial: int = DEFAULT_RADIAL,
                            angular: int = DEFAULT_ANGULAR) -> NormResult:
    """sup_a int (1-|z|^2)^q (1-|sigma_a z|^2)^s dA(z)."""
    Fpqs(1.0, q, s).validate()
    pr = WeightedSupProblem([_unit_base], q, s, radial, angular)
    return _constant_sup(pr, f"C({q:g},{s:g})")


def morrey_constant(lam: float, **kw) -> NormResult:
    Morrey(lam).validate()
    return weight_overlap_constant(1.0 - lam, lam, **kw)


def qs_constant(s: float, **kw) -> NormResult:
    Qs(s).validate()
    return weight_overlap_constant(0.0, s, **kw)
