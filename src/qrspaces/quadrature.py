"""Weighted integration over the unit disk.

All rules live in the substituted radial variable t = r^2, where

    int_D f(z) (1-|z|^2)^alpha dA(z)
        = 1/2 int_0^1 (1-t)^alpha [ int_0^{2pi} f(sqrt(t) e^{i theta}) dtheta ] dt.

The radial factor (1-t)^alpha is exact in a Gauss-Jacobi(alpha, 0) rule, the
angular integral uses the periodic trapezoid rule (exact for e^{ik theta},
|k| < M).  Moving Mobius weights (1-|sigma_a z|^2)^s are reduced to the
bounded ratio (1-|a|^2)^s / |1 - conj(a) z|^{2s} with the (1-t)^s part folded
into the Jacobi exponent.

Near-boundary automorphism parameters make the angular factor oscillate on
the scale 1-|a|; the module picks the angular node count from a fixed nested
ladder so those integrals stay resolved without repricing interior ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .errors import AccuracyError, InvalidParameterError
from .mobius import MobiusMap, green, sigma

DEFAULT_RADIAL = 128
DEFAULT_ANGULAR = 256
DEFAULT_REFINE_CAP = 4
DEFAULT_REL_TOL = 1e-8

# Nested angular ladder: every entry divides the largest, so base values
# tabulated on the finest grid can be reused at every rung (the engine keeps
# one contiguous copy per rung).
ANGULAR_LADDER = (256, 512, 1024, 2048)


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor rule: Jacobi nodes/weights in t = r^2 plus an angular count.

    ``radial_weights`` absorb the (1-t)^alpha_absorbed factor, so summing them
    against a constant reproduces 1/(alpha+1).
    """

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    angular_count: int
    alpha_absorbed: float

    @property
    def radial_count(self) -> int:
        return len(self.radial_nodes)

    def metadata(self) -> dict:
        return {
            "grid_radial": self.radial_count,
            "grid_angular": self.angular_count,
            "alpha_absorbed": self.alpha_absorbed,
        }


@dataclass(frozen=True)
class IntegralResult:
    value: float
    abs_error_estimate: float
    refinements_used: int


@functools.lru_cache(maxsize=128)
def _jacobi_01(n: int, alpha: float):
    """Nodes/weights for int_0^1 (1-t)^alpha h(t) dt on (0,1)."""
    x, w = roots_jacobi(n, alpha, 0.0)
    t = 0.5 * (x + 1.0)
    w = w * 0.5 ** (alpha + 1.0)
    return t, w


def build_grid(radial: int = DEFAULT_RADIAL, alpha: float = 0.0,
               angular: int = DEFAULT_ANGULAR) -> QuadratureGrid:
    if radial < 2:
        raise InvalidParameterError("need at least 2 radial nodes")
    if angular < 4:
        raise InvalidParameterError("need at least 4 angular nodes")
    if alpha <= -1.0:
        raise InvalidParameterError("radial weight exponent must exceed -1")
    t, w = _jacobi_01(radial, float(alpha))
    return QuadratureGrid(t, w, int(angular), float(alpha))


def angular_nodes(count: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(count) / count


def grid_points(grid: QuadratureGrid) -> np.ndarray:
    """Complex nodes of shape (radial, angular)."""
    r = np.sqrt(grid.radial_nodes)
    theta = angular_nodes(grid.angular_count)
    return np.outer(r, np.exp(1j * theta))


def tensor_integral(values: np.ndarray, grid: QuadratureGrid) -> float:
    """Contract tabulated integrand values against the tensor rule."""
    ang = values.mean(axis=1) * (2.0 * np.pi)
    return float(0.5 * np.dot(grid.radial_weights, ang))


def angular_count_for(rho: float, pole_exponent: float,
                      base: int = DEFAULT_ANGULAR,
                      ladder=ANGULAR_LADDER) -> int:
    """Smallest ladder entry resolving a |1 - conj(a) z|^(-2 e) factor.

    Trapezoid aliasing of that factor decays like rho^M M^(2e-1); demand
    rho^M * M^max(2e-1, 1) <= 1e-10, else settle for the ladder cap (the
    (1-|a|^2)^s prefactor suppresses what is left).
    """
    rho = float(abs(rho))
    if rho <= 0.0:
        return base
    growth = max(2.0 * pole_exponent - 1.0, 1.0)
    for m in ladder:
        if m < base:
            continue
        if m * math.log(rho) * -1.0 >= growth * math.log(m) + 10.0 * math.log(10.0):
            return m
    return ladder[-1]


def _refine_loop(evaluate, radial, angular, tol, refine_cap):
    """Run ``evaluate(radial, angular)`` under node doubling until stable."""
    v_prev = evaluate(radial, angular)
    for k in range(1, refine_cap + 1):
        v_next = evaluate(radial * 2 ** k, angular * 2 ** k)
        err = abs(v_next - v_prev)
        if err <= max(tol * abs(v_next), 1e-300):
            # floor the estimate at summation noise so it stays an upper bound
            return IntegralResult(v_next, max(err, 1e-12 * abs(v_next)), k)
        v_prev = v_next
    raise AccuracyError(
        f"disk integral did not converge within {refine_cap} refinements "
        f"(last change {err:.3e})"
    )


def disk_integral_alpha(integrand, alpha: float,
                        radial: int = DEFAULT_RADIAL,
                        angular: int = DEFAULT_ANGULAR,
                        tol: float = DEFAULT_REL_TOL,
                        refine_cap: int = DEFAULT_REFINE_CAP) -> IntegralResult:
    """int_D integrand(z) (1-|z|^2)^alpha dA(z) for alpha > -1.

    ``integrand`` must accept a complex ndarray and return (nonnegative)
    reals of the same shape.  The error estimate comes from node doubling.
    """
    if alpha <= -1.0:
        raise InvalidParameterError("alpha must exceed -1")

    def evaluate(nr, na):
        grid = build_grid(nr, alpha, na)
        vals = np.asarray(integrand(grid_points(grid)), dtype=np.float64)
        return tensor_integral(vals, grid)

    return _refine_loop(evaluate, radial, angular, tol, refine_cap)


def _check_mobius_params(q: float, s: float):
    if q <= -2.0:
        raise InvalidParameterError("q must exceed -2")
    if s <= 0.0:
        raise InvalidParameterError("s must be positive")
    if q + s <= -1.0:
        raise InvalidParameterError("q + s must exceed -1")


def work_arrays(shape) -> tuple:
    """Scratch for one ``mobius_integrals`` call on a grid of ``shape``:
    1 - conj(a) z, the Mobius factor, and a product."""
    return np.empty(shape, complex), np.empty(shape), np.empty(shape)


def mobius_integrals(a: complex, s: float, z, bases, w, work) -> tuple:
    """One integral per base of base(z) (1-|a|^2)^s / |1 - conj(a) z|^(2s).

    ``z`` holds the nodes of a tensor rule (radial x angular), ``bases`` the
    tabulated bases on it, ``w`` the radial weights (with any (1-t)-power
    absorbed) and ``work`` the ``work_arrays`` of the grid's shape, which the
    call writes into.  The Mobius factor is computed once; each base then
    gets its own contraction, since a stacked one would reorder the sums.
    """
    cbuf, mob, prod = work
    if s == 0.0:
        mob = 1.0
    else:
        diff = np.subtract(1.0, np.multiply(np.conj(a), z, out=cbuf), out=cbuf)
        mob = np.abs(diff, out=mob)
        mob **= -2.0 * s
        mob *= (1.0 - abs(a) ** 2) ** s
    return tuple(
        float(0.5 * np.dot(w, np.multiply(b, mob, out=prod).mean(axis=1)
                           * (2.0 * np.pi)))
        for b in bases
    )


def disk_integral_mobius_weight(integrand, q: float, s: float, m: MobiusMap,
                                radial: int = DEFAULT_RADIAL,
                                angular: int = DEFAULT_ANGULAR,
                                tol: float = DEFAULT_REL_TOL,
                                refine_cap: int = DEFAULT_REFINE_CAP) -> IntegralResult:
    """int_D integrand(z) (1-|z|^2)^q (1-|sigma_a z|^2)^s dA(z).

    The rule absorbs (1-t)^(q+s) radially; the remaining bounded factor is
    (1-|a|^2)^s / |1 - conj(a) z|^{2s}, integrated by ``mobius_integrals``.
    """
    _check_mobius_params(q, s)
    a = m.param
    base_angular = angular_count_for(abs(a), s, angular)

    def evaluate(nr, na):
        grid = build_grid(nr, q + s, na)
        z = grid_points(grid)
        base = np.asarray(integrand(z), dtype=np.float64)
        (value,) = mobius_integrals(a, s, z, [base], grid.radial_weights,
                                    work_arrays(z.shape))
        return value

    return _refine_loop(evaluate, radial, base_angular, tol, refine_cap)


# --- Green-weight integrals -------------------------------------------------
#
# Pulled back through w = sigma_a(z) the integral becomes
#
#   (1-|a|^2)^(q+2) int_D f(sigma_a w) (1-|w|^2)^q (-log|w|)^s
#                         / |1 - conj(a) w|^(2q+4) dA(w),
#
# with a purely radial log singularity at w = 0.  The radial line is split at
# t0 = delta^2: geometric Gauss-Legendre panels absorb the log factor on the
# cap, and on [t0, 1) the identity (-log t)^s = (1-t)^s ((-log t)/(1-t))^s
# turns the weight into Jacobi(q+s) times a smooth factor.

_CAP_GL_X, _CAP_GL_W = np.polynomial.legendre.leggauss(16)
_CAP_SHRINK = 0.25
_CAP_LEVELS = 30


def _cap_nodes(t0: float):
    edges = t0 * _CAP_SHRINK ** np.arange(_CAP_LEVELS + 1)
    ts, ws = [], []
    for hi, lo in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        ts.append(lo + half * (_CAP_GL_X + 1.0))
        ws.append(half * _CAP_GL_W)
    return np.concatenate(ts), np.concatenate(ws)


def disk_integral_green(integrand, q: float, s: float, m: MobiusMap,
                        radial: int = DEFAULT_RADIAL,
                        angular: int = DEFAULT_ANGULAR,
                        tol: float = DEFAULT_REL_TOL,
                        refine_cap: int = DEFAULT_REFINE_CAP) -> IntegralResult:
    """int_D integrand(z) (1-|z|^2)^q g(z,a)^s dA(z), g = -log|sigma_a|.

    The split radius delta is halved until the cap contribution stabilizes
    within the requested tolerance.
    """
    _check_mobius_params(q, s)
    if radial < 2:
        raise InvalidParameterError(f"need at least 2 radial nodes, got {radial}")
    if angular < 4:
        raise InvalidParameterError(f"need at least 4 angular nodes, got {angular}")
    a = m.param
    rho = abs(a)
    pref = (1.0 - rho ** 2) ** (q + 2.0)
    na = angular_count_for(rho, q + 2.0, angular)
    theta = angular_nodes(na)
    eig = np.exp(1j * theta)

    def angular_average(t_nodes):
        w = np.sqrt(t_nodes)[:, None] * eig[None, :]
        z = sigma(m, w)
        vals = np.asarray(integrand(z), dtype=np.float64)
        vals = vals / np.abs(1.0 - np.conj(a) * w) ** (2.0 * q + 4.0)
        return vals.mean(axis=1) * (2.0 * np.pi)

    def evaluate(t0):
        # cap: weight (1-t)^q (-log t)^s kept explicit, log part integrable
        ct, cw = _cap_nodes(t0)
        cap_vals = angular_average(ct)
        cap_weight = (1.0 - ct) ** q * (0.5 * (-np.log(ct))) ** s
        cap = float(np.dot(cw, cap_weight * cap_vals))
        # annulus: Jacobi(q+s) on [t0, 1] with the smooth log correction
        tj, wj = _jacobi_01(radial, q + s)
        t = t0 + (1.0 - t0) * tj
        ann_vals = angular_average(t)
        log_corr = (0.5 * (-np.log(t)) / (1.0 - t)) ** s
        ann = float((1.0 - t0) ** (q + s + 1.0) * np.dot(wj, log_corr * ann_vals))
        return 0.5 * pref * (cap + ann)

    t0 = 0.25
    v_prev = evaluate(t0)
    for k in range(1, refine_cap + 1):
        t0 *= 0.25
        v_next = evaluate(t0)
        err = abs(v_next - v_prev)
        if err <= max(tol * abs(v_next), 1e-300):
            return IntegralResult(v_next, max(err, 1e-12 * abs(v_next)), k)
        v_prev = v_next
    raise AccuracyError("Green-weight integral did not stabilize under cap refinement")


def truncated_radial_rule(R: float, points_per_panel: int = 24):
    """Composite Gauss-Legendre nodes/weights on t in [0, R^2].

    Panels shrink geometrically toward the outer edge, where (1-t)-power
    weights and boundary-singular integrands vary fastest.
    """
    if not 0.0 < R < 1.0:
        raise InvalidParameterError("truncation radius must lie in (0, 1)")
    T = R * R
    edges = [0.0]
    gap = 0.5
    while gap > (1.0 - T):
        edges.append(1.0 - gap)
        gap *= 0.5
    edges.append(T)
    edges = np.asarray(edges)
    x, w = np.polynomial.legendre.leggauss(points_per_panel)
    ts, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        half = 0.5 * (hi - lo)
        ts.append(lo + half * (x + 1.0))
        ws.append(half * w)
    return np.concatenate(ts), np.concatenate(ws)

