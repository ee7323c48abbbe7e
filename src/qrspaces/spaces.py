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
used near the boundary.  That grid, and the node-doubling grid of the error
estimate, is a ``quadrature.PolarTable``: the bases, tabulated a row block
of ``quadrature.ROW_BLOCK_POINTS`` points at a time, with the radial
weights of their rule, and the per-base integrals against each per-a Mobius
factor.

Composition-based evaluation (Faa di Bruno, ``composed_integral``) remains
the path for jet orders n >= 2 until their pullback (ROADMAP item 11) is
put on the engine.

Every sup over a in the disk (engine, composition, Green, Bloch, and the u/v
pairs of the conjugate checks) runs through ``_sup_search``: one lattice, one
compass ascent per component of a joint objective, every component on the
union of the compass points, one joint evaluation per distinct a.  An engine
problem carries every base that shares its weight and grid, tabulated by one
call (|F'|^p and |G'|^p of a conjugate pair, from one jet of h and one of g),
so one Mobius factor per a serves all of them; scalar sups are the
one-component case.  The engine's lattice is computed one ring
at a time: one Mobius factor per distinct lattice radius r, at a = r, whose
column shifts give the other angles of the ring (``ring_integrals``).  Direct
per-a calls remain for a = 0, the compass points, s_eff = 0 and angle counts
that do not divide the rung.  ``_norm_result`` builds every NormResult;
its error is node doubling at the maximizer (engine and composition: radial
nodes and angles; Green: radial nodes alone), or only the 1e-12 floor (Bloch
and the constants), and it flags a maximizer on RADIUS_CAP (``sup_on_cap``).

The sup-type constants of Theorems 3.5/3.6 are the engine integral of base 1,
which has a closed form (Forelli-Rudin; Hedenmalm, Korenblum & Zhu, Theory of
Bergman Spaces, 2000): with x = |a|^2,

    I(a) = pi (1-x)^s/(q+s+1) 2F1(s, s; q+s+2; x).

By Pfaff's transformation (1-x)^s 2F1(s, s; c; x) = 2F1(s, q+2; c; x/(x-1)),
and for s > 0, q > -2 Euler's integral writes the right side as a positive
weighted average of (1 - t x/(x-1))^(-s), which falls as x grows.  So
sup_a I = I(0) = pi/(q+s+1) for s >= 0 (s = 0 does not depend on a).  For
s < 0 the sup is infinite: (1-x)^s grows without bound while 2F1(s, s; c; 1)
stays positive and finite.  The constants and constant derivative bases
(``_derivative_sups``) take that closed form: no search and no quadrature.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .analytic import AnalyticFn, compose_mobius, constant_bases, real_coefficients
from .errors import InfiniteConstantError, InvalidParameterError
from .harmonic import HarmonicMap, wirtinger
from .mobius import MobiusMap
from .quadrature import (
    ANGULAR_LADDER,
    DEFAULT_ANGULAR,
    DEFAULT_RADIAL,
    GREEN_CAP_NODES,
    PolarTable,
    _jacobi_01,
    _radial_contract,
    angular_count_for,
    angular_nodes,
    build_grid,
    check_angular,
    disk_integral_green,
    polar_row_means,
    table_work,
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


def pullback_exponents(p: float, alpha: float) -> tuple:
    """(q_eff, s_eff) of the pulled-back Q(1,p,alpha) integral (module
    docstring): the base |f'|^p carries (1-t)^(p-2), the weight the rest."""
    return p - 2.0, alpha + 2.0 - p


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


# --- search specification and results ----------------------------------------


def dyadic_radii(max_j: int) -> tuple:
    """The radii 0 and 1 - 2^-j for j = 1, ..., max_j."""
    return tuple(1.0 - 2.0 ** -j for j in range(max_j + 1))


RADIUS_CAP_J = 10
RADIUS_CAP = dyadic_radii(RADIUS_CAP_J)[-1]
# compass refinement: the step halves when no direction improves, down to
# COMPASS_STOP; the evaluation budget guards against pathological integrands
COMPASS_SHRINK = 0.5
COMPASS_STOP = 1e-3
COMPASS_BUDGET = 2000
KERNEL_ROUTES = ("direct", "ring_turns", "refined", "conjugate")


@dataclass(frozen=True)
class SupSearchSpec:
    """Coarse polar lattice for sup_{a in D}, refined by compass ascent: a = 0
    and ``angles_per_radius`` points on each ring r = 1 - 2^-j, j = 1, ...,
    ``max_j`` (at most ``RADIUS_CAP_J``, whose ring is the radius cap).

    The search is heuristic: integrals of the test maps are smooth in a, and
    the trace is always reported so a missed sup is diagnosable.
    """

    max_j: int = RADIUS_CAP_J
    angles_per_radius: int = 16

    def __post_init__(self):
        if not 0 <= self.max_j <= RADIUS_CAP_J or self.angles_per_radius < 1:
            raise InvalidParameterError(
                f"the sup search takes a depth max_j in 0..{RADIUS_CAP_J} and at "
                f"least one angle per radius, got {self.max_j} and "
                f"{self.angles_per_radius}")

    def rings(self) -> dict:
        """The points a = r e^(2 pi i k/angles_per_radius) of each ring r > 0,
        the very values ``candidates`` yields."""
        n = self.angles_per_radius
        return {r: [r * np.exp(1j * (2.0 * np.pi * k / n)) for k in range(n)]
                for r in dyadic_radii(self.max_j)[1:]}

    def candidates(self):
        """The lattice in a deterministic order: 0j, then every ring of
        ``rings`` in order."""
        return [0j, *(a for ring in self.rings().values() for a in ring)]


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
    sup_on_cap: bool = False

    def trace_values(self):
        return np.asarray([v for _, v in self.trace])


def on_cap(a: complex) -> bool:
    """Whether |a| sits on RADIUS_CAP, up to the rounding of a lattice point
    rotated off the real axis (1 ulp): a sup there may lie beyond the search."""
    return bool(abs(abs(a) - RADIUS_CAP) <= 1e-12)


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
                search: SupSearchSpec, ring: Optional[Callable] = None):
    """One (argmax, value, trace) per component of a joint objective.

    ``objective(a)`` returns one value per component (a one-tuple for a
    scalar sup).  Lattice, one compass ascent per component, then every
    component on the union of all compass points, so pointwise-dominated
    components come out with dominated sups.  Memoized: one joint evaluation
    per distinct a.  ``ring(r, turns)``, if given, returns the objective at
    every lattice point of the radius r at once, or None to leave them to
    ``objective``; its values seed the memo.  The argmax is the first trace
    point with the largest value.
    """
    memo = {}
    if ring is not None:
        for r, points in search.rings().items():
            values = ring(r, len(points))
            if values is not None:
                memo.update(zip(points, values))

    def joint(a):
        if a not in memo:
            memo[a] = objective(a)
        return memo[a]

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
        sup_on_cap=on_cap(best_a),
    )


# --- the weighted sup engine --------------------------------------------------


class WeightedSupProblem:
    """sup over a of int base(z) (1-t)^q_eff (1-|sigma_a z|^2)^s_eff dA.

    One problem carries any number of bases that share the weight and the
    grid: ``tabulate(z)`` returns every base's values on the points z at
    once, so bases built from the same data share its evaluation (the u/v
    pair of a conjugate check takes |h'+g'|^p and |h'-g'|^p from one jet of
    h and one of g).  Base values are tabulated once on a (radial x
    max_angular) master grid, a ``quadrature.PolarTable``; per-a integrals
    run on the rung of the nested angular ladder that the aliasing bound
    picks, so near-boundary parameters get the resolution they need without
    repricing the interior ones.  Each per-a call takes the table's
    ``integrals`` at a, one Mobius factor for every base, and
    ``ring_integrals`` serves a whole lattice ring from the table's
    ``ring_integrals`` of one factor.  ``base_angular`` must be a rung,
    since every a != 0 gets at least the first one.  ``evaluations`` counts
    the per-a evaluations by route: ``direct`` (each kernel run of
    ``integral_at``), ``conjugate`` (the ``integral_at`` calls answered by
    the values of conj(a)), ``ring_turns`` (the lattice points
    ``ring_integrals`` served) and ``refined`` (``refined_integral_at``);
    ``work`` is the one ledger of the master table and every node-doubling
    table.  ``even``, for bases built from a map with real coefficients,
    makes every table tabulate half the circle and fold the kernel at real
    a (``quadrature.PolarTable``), and makes ``integral_at`` evaluate one a
    of each conjugate pair, since the integrals of even bases are even in
    a too: I(conj a) = I(a).
    """

    def __init__(self, tabulate: Callable, q_eff: float, s_eff: float,
                 radial: int = DEFAULT_RADIAL,
                 base_angular: int = DEFAULT_ANGULAR, even: bool = False):
        if q_eff + s_eff <= -1.0:
            raise InvalidParameterError(
                "combined radial exponent must exceed -1 for the Jacobi rule"
            )
        self.max_angular = ANGULAR_LADDER[-1]
        if radial < 2:
            raise InvalidParameterError(f"need at least 2 radial nodes, got {radial}")
        check_angular(base_angular)
        self.q_eff = float(q_eff)
        self.s_eff = float(s_eff)
        self.radial = int(radial)
        self.base_angular = int(base_angular)
        self._tabulator = tabulate
        self.even = even
        self.work = table_work()
        self._table = self._tabulate(self.radial, self.max_angular)
        self._const_value = None
        self._partners = {}
        self.evaluations = dict.fromkeys(KERNEL_ROUTES, 0)

    def _tabulate(self, radial: int, count: int) -> PolarTable:
        """The ``PolarTable`` of the problem's (radial, count) rule."""
        t, w = _jacobi_01(radial, self.q_eff + self.s_eff)
        return PolarTable(self._tabulator, np.sqrt(t), w, count, self.work,
                          self.even)

    def grid_metadata(self) -> dict:
        return {
            "grid_radial": self.radial,
            "grid_angular": self.base_angular,
            "grid_angular_max": self.max_angular,
            "q_eff": self.q_eff,
            "s_eff": self.s_eff,
            "kernel_evaluations": dict(self.evaluations),
            "table_work": dict(self.work),
            "closed_form": False,
        }

    def _count_for(self, rho: float) -> int:
        return min(angular_count_for(rho, abs(self.s_eff), self.base_angular),
                   self.max_angular)

    def integral_at(self, a: complex) -> tuple:
        """One integral per base at the automorphism parameter a.  On an
        even problem I(conj a) = I(a): a off the real axis is evaluated at
        the one of a, conj(a) in the upper half-plane, and the first call of
        a conjugate pair leaves its values for the second."""
        a = complex(a)
        if not (self.even and a.imag):
            return self._direct(a)
        values = self._partners.pop(a.conjugate(), None)
        if values is not None:
            self.evaluations["conjugate"] += 1
            return values
        values = self._partners[a] = self._direct(complex(a.real, abs(a.imag)))
        return values

    def _direct(self, a: complex) -> tuple:
        self.evaluations["direct"] += 1
        if self.s_eff != 0.0:
            return tuple(self._table.integrals(a, self.s_eff,
                                               self._count_for(abs(a))))
        if self._const_value is None:
            self._const_value = tuple(self._table.integrals(
                a, 0.0, self.max_angular))
        return self._const_value

    def ring_integrals(self, r: float, turns: int):
        """``integral_at(r e^(2 pi i k/turns))`` for k < turns, from one Mobius
        factor on the rung ``integral_at(r)`` uses (k = 0 is bit-identical).

        None where a ring cannot stand in for direct calls: s_eff = 0, whose
        one value ``integral_at`` caches, a rung that ``turns`` does not
        divide, or turns^2 > count, where the ring's (radial, turns, turns)
        product would outgrow the grid (``--search-angles 2048`` would ask
        for 4 GB on the top rung).
        """
        count = self._count_for(r)
        if self.s_eff == 0.0 or count % turns or turns * turns > count:
            return None
        self.evaluations["ring_turns"] += turns
        return list(zip(*self._table.ring_integrals(r, self.s_eff, count,
                                                    turns)))

    def refined_integral_at(self, a: complex) -> tuple:
        """One-off evaluation with doubled node counts (error estimation):
        twice the radial nodes and twice the angles ``integral_at(a)`` used,
        all of the master grid's at s_eff = 0."""
        a = complex(a)
        self.evaluations["refined"] += 1
        count = 2 * (self._count_for(abs(a)) if self.s_eff else self.max_angular)
        return tuple(self._tabulate(2 * self.radial, count).integrals(
            a, self.s_eff, count))


def _finish_norm(problem: WeightedSupProblem, search: SupSearchSpec,
                 p_root: float, value_at_zero=None, warnings=()) -> NormResult:
    """Sup of a one-base engine problem, node-doubling error at the argmax."""
    (best,) = _sup_search(problem.integral_at, search, problem.ring_integrals)
    (refined,) = problem.refined_integral_at(best[0])
    return _norm_result(best, abs(refined - best[1]), p_root,
                        problem.grid_metadata(), value_at_zero, warnings)


def _derivative_sups(f, tabulate, q_eff, s_eff, radial, angular):
    """(sups, grid, problem) for the bases ``tabulate`` builds from f's derivatives:
    the engine problem alone, for the caller to search, or for constant bases c
    (``constant_bases``, read at z = 0) c times base 1's closed form, no problem."""
    if not constant_bases(f):
        return None, None, WeightedSupProblem(
            tabulate, q_eff, s_eff, radial, angular, real_coefficients(f))
    values = [float(c) for (c,) in tabulate(np.zeros(1, complex))]
    unit = _closed_form_constant(q_eff, s_eff, "a norm").value if any(values) else 0.0
    grid = {"grid_radial": radial, "grid_angular": angular, "q_eff": q_eff,
            "s_eff": s_eff, "kernel_evaluations": dict.fromkeys(KERNEL_ROUTES, 0),
            "table_work": table_work(), "closed_form": True}
    return [(0.0, c * unit, [(0.0, c * unit)]) for c in values], grid, None


def _derivative_norm(f, tabulate, q_eff, s_eff, search, radial, angular, p_root, *rest):
    """``_finish_norm`` of the engine problem, or the exact closed form."""
    sups, grid, pr = _derivative_sups(f, tabulate, q_eff, s_eff, radial, angular)
    if pr is None:
        return _norm_result(sups[0], 0.0, p_root, grid, *rest)
    return _finish_norm(pr, search, p_root, *rest)


# --- base tabulators ----------------------------------------------------------


def _pow_tabulator(values_fn: Callable, p: float):
    """Tabulator of the one base |values_fn(z)|^p."""
    def tabulate(z):
        return (np.abs(np.asarray(values_fn(z))) ** p,)
    return tabulate


def _lambda_fn(f):
    """Lambda_f = |h'| + |g'|: |h'| alone for analytic input or a constant g."""
    if isinstance(f, HarmonicMap) and f.g.constant_value is None:
        return lambda z: wirtinger(f, z).lambda_big
    h = f.h if isinstance(f, HarmonicMap) else f
    return lambda z: np.abs(h.jet(z, 1, 1)[1])


# --- norm functionals ----------------------------------------------------------


def q_npa_norm(f: AnalyticFn, params: Qnpa,
               search: Optional[SupSearchSpec] = None,
               radial: int = DEFAULT_RADIAL,
               angular: int = DEFAULT_ANGULAR) -> NormResult:
    """Seminorm of the derivative scale; |f(0)| is reported separately.

    For n = 1 the per-a integral is evaluated in pulled-back form (see module
    docstring); higher jet orders go through explicit composition.
    """
    return _q_norm(f, [f], params, search, radial, angular)


def qh_npa_norm(f: HarmonicMap, params: Qnpa,
                search: Optional[SupSearchSpec] = None,
                radial: int = DEFAULT_RADIAL,
                angular: int = DEFAULT_ANGULAR) -> NormResult:
    """Harmonic derivative scale with integrand (|(h o s)^(n)| + |(g o s)^(n)|)^p.

    For n = 1 this is the Lambda_f form, handled by the pullback engine.
    """
    return _q_norm(f, [f.h, f.g], params, search, radial, angular)


def _q_norm(f, parts, params: Qnpa, search, radial, angular) -> NormResult:
    """Body of both derivative scales: the pullback engine on Lambda_f for
    n = 1, the composition of ``parts`` with sigma_a for n >= 2, less any
    constant part, whose jets of order >= 1 are zero."""
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
        return _derivative_norm(f, _pow_tabulator(_lambda_fn(f), params.p),
                                *pullback_exponents(params.p, params.alpha),
                                search, radial, angular, params.p, f0, warnings)
    parts = [p for p in parts if p.constant_value is None] or parts[:1]
    return _q_norm_composed(parts, params, search, radial, angular, f0, warnings)


def composed_rule(radial: int, alpha: float, count: int) -> tuple:
    """(rho, w, eig) of the Jacobi(alpha) x ``count``-angle trapezoid rule:
    the node radii, the radial weights and the unit-circle nodes."""
    grid = build_grid(radial, alpha, count)
    return (np.sqrt(grid.radial_nodes), grid.radial_weights,
            np.exp(1j * angular_nodes(count)))


def composed_integral(parts, n: int, p: float, a: complex, rule) -> float:
    """int (sum over ``parts`` of |(part o sigma_a)^(n)|)^p (1-t)^alpha dA on
    a ``composed_rule``: one ``compose_mobius`` per part, whose jets run on
    the row blocks of ``quadrature.polar_row_means``."""
    rho, w, eig = rule
    m = MobiusMap(a)
    composed = [compose_mobius(part, m) for part in parts]

    def integrand(z):
        total = np.abs(composed[0].jet(z, n, n)[n])
        for c in composed[1:]:
            total += np.abs(c.jet(z, n, n)[n])
        return total ** p

    return _radial_contract(w, polar_row_means(integrand, rho, eig))


def _q_norm_composed(parts, params: Qnpa, search, radial, angular, f0, warnings):
    """Composition path for jet orders n >= 2.

    Each per-a integral is a ``composed_integral`` at the angular count
    that the aliasing bound of the pole order p(n+1)/2 picks for |a|; the
    rule of each (radial, count) is built once.  The error is node doubling
    at the argmax: twice the radial nodes and twice the count it used.
    ``kernel_evaluations`` counts the per-a integrals: ``direct`` (one per
    distinct a of the search) and ``refined``.
    """
    check_angular(angular)
    n, p = params.n, params.p
    pole = 0.5 * p * (n + 1)
    rules = {}
    evaluations = {"direct": 0, "refined": 0}

    def count_for(a):
        return angular_count_for(abs(complex(a)), pole, angular)

    def integral(a, nr, count):
        if (nr, count) not in rules:
            rules[nr, count] = composed_rule(nr, params.alpha, count)
        return composed_integral(parts, n, p, a, rules[nr, count])

    def integral_at(a):
        evaluations["direct"] += 1
        return (integral(a, radial, count_for(a)),)

    (best,) = _sup_search(integral_at, search)
    evaluations["refined"] += 1
    refined = integral(best[0], 2 * radial, 2 * count_for(best[0]))
    grid = {"grid_radial": radial, "grid_angular": angular, "jet_order": n,
            "kernel_evaluations": evaluations}
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
    tabulate = _pow_tabulator(_lambda_fn(f), params.p)
    if weight_form == "mobius":
        return _derivative_norm(f, tabulate, params.q, params.s, search,
                                radial, angular, params.p)
    if weight_form != "green":
        raise InvalidParameterError(f"unknown weight form {weight_form!r}")
    check_angular(angular)

    # the node-doubling error of each per-a integral, kept for the argmax
    errors = {}
    evaluations = {"direct": 0}

    def integral_at(a):
        res = disk_integral_green(lambda z: tabulate(z)[0], params.q,
                                  params.s, MobiusMap(a),
                                  radial=radial, angular=angular)
        evaluations["direct"] += 1
        errors[a] = res.abs_error_estimate
        return (res.value,)

    (best,) = _sup_search(integral_at, search)
    grid = {"grid_radial": radial, "grid_angular": angular,
            "grid_cap": GREEN_CAP_NODES, "weight": "green",
            "kernel_evaluations": evaluations}
    return _norm_result(best, errors[best[0]], params.p, grid)


def m_pqs_norm(f, params: Mpqs, search: Optional[SupSearchSpec] = None,
               radial: int = DEFAULT_RADIAL,
               angular: int = DEFAULT_ANGULAR) -> NormResult:
    """|f(0)| + (sup_a int |f|^p (1-t)^q (1-|sigma_a z|^2)^s dA)^(1/p).

    ``f`` is an analytic or harmonic map; a map with real coefficients
    tabulates half the circle (``WeightedSupProblem``).
    """
    params.validate()
    search = search or SupSearchSpec()
    pr = WeightedSupProblem(_pow_tabulator(f, params.p), params.q, params.s,
                            radial, angular, real_coefficients(f))
    f0 = abs(f(0.0))
    res = _finish_norm(pr, search, params.p, value_at_zero=f0)
    return dataclasses.replace(res, value=f0 + res.value)


def specialized_norm(f, scale, search: Optional[SupSearchSpec] = None,
                     radial: int = DEFAULT_RADIAL,
                     angular: int = DEFAULT_ANGULAR) -> NormResult:
    """Morrey / Bergman-Morrey / Qs / Bloch-type norms.

    The first three are ``fh_pqs_norm`` on the standard parameter mappings
    (Morrey(l) -> F(2,1-l,l), BergmanMorrey(p,l) -> F(p,p-l,l),
    Qs(s) -> F(2,0,s)) plus the value-at-zero term exactly as the
    respective definitions state.  Accepts analytic or harmonic ``f``.
    """
    scale.validate()
    search = search or SupSearchSpec()
    if isinstance(scale, BlochAlpha):
        return _bloch_norm(f, scale, search)
    fparams = scale.f_scale()
    f0 = abs(f(0.0))
    res = dataclasses.replace(
        fh_pqs_norm(f, fparams, search, radial=radial, angular=angular),
        value_at_zero=f0)
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
    deriv_fn, f0 = _lambda_fn(f), abs(f(0.0))

    def objective(z):
        z = np.asarray(complex(z))
        return (float((1.0 - abs(complex(z)) ** 2) ** scale.alpha * deriv_fn(z)),)

    (best,) = _sup_search(objective, search)
    res = _norm_result(best, 0.0, 1.0, {"search_points": len(best[2])}, f0)
    return dataclasses.replace(res, value=f0 + res.value)


# --- sup-type constants --------------------------------------------------------


def _closed_form_constant(q_eff: float, s_eff: float, label: str) -> NormResult:
    """sup_a int (1-|z|^2)^q_eff (1-|sigma_a z|^2)^s_eff dA: pi/(q_eff+s_eff+1)
    at a = 0 for s_eff >= 0, infinite for s_eff < 0 (module docstring)."""
    if s_eff < 0.0:
        raise InfiniteConstantError(
            f"{label} is infinite: s = {s_eff:g} < 0, so (1-|a|^2)^s grows "
            "without bound as |a| -> 1")
    value = math.pi / (q_eff + s_eff + 1.0)
    return _norm_result((0.0, value, [(0.0, value)]), 0.0, 1.0,
                        {"q_eff": q_eff, "s_eff": s_eff})


def sigma_deriv_constant(p: float, alpha: float) -> NormResult:
    """C(p, alpha) = sup_a int |sigma_a'(z)|^p (1-|z|^2)^alpha dA(z).

    Pulled back this is the engine integral with base 1 and exponents
    (p-2, alpha+2-p), so C = pi/(alpha+1) for p <= alpha + 2 and it is
    infinite for p > alpha + 2.
    """
    if alpha <= -1.0:
        raise InvalidParameterError("alpha must exceed -1")
    if p <= 0.0:
        raise InvalidParameterError("p must be positive")
    return _closed_form_constant(*pullback_exponents(p, alpha),
                                 f"C({p:g};{alpha:g})")


def weight_overlap_constant(q: float, s: float) -> NormResult:
    """C(q, s) = sup_a int (1-|z|^2)^q (1-|sigma_a z|^2)^s dA(z) = pi/(q+s+1),
    attained at a = 0 (module docstring)."""
    Fpqs(1.0, q, s).validate()
    return _closed_form_constant(q, s, f"C({q:g},{s:g})")


def morrey_constant(lam: float) -> NormResult:
    Morrey(lam).validate()
    return weight_overlap_constant(1.0 - lam, lam)


def qs_constant(s: float) -> NormResult:
    Qs(s).validate()
    return weight_overlap_constant(0.0, s)
