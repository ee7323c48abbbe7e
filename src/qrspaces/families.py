"""Constructors of harmonic quasiregular test mappings.

The fast routes to interesting maps:

* ``from_dilatation``: prescribe h' and the analytic dilatation w = g'/h'.
* ``shear``: prescribe the analytic target phi = h - g and w, solving
  h' = phi'/(1-w); optionally renormalized to h(0) = 0, h'(0) = 1, g(0) = 0.
* ``affine_extremal``: z + sign*k*conj(z), the family attaining equality in
  the conjugate-norm bound (sign = -1 gives |G'| = K |F'| everywhere).
* ``kkprime_example``: z + conj(z), degenerate Jacobian, (1,4)-quasiregular
  but not K-quasiregular for any K.
* ``koebe_shear``: shear of z/(1-z)^2 with w = k z, the designated
  quasiconformal stand-in for growth/membership sweeps (the published
  closed-form extremal is not reproduced here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .analytic import (
    AnalyticFn,
    antiderivative,
    cayley_half,
    combine,
    constant,
    derivative,
    koebe,
    poly,
)
from .errors import InvalidParameterError, NonQuasiregularError
from .harmonic import HarmonicMap, SampleGrid, analytic_as_harmonic


@dataclass(frozen=True)
class ShearSpec:
    """Input to the shear construction: h - g = phi with dilatation w."""

    phi: AnalyticFn
    w: AnalyticFn
    normalize: bool = True
    check_grid: SampleGrid = field(default_factory=SampleGrid)


@dataclass(frozen=True)
class OrderModel:
    """Growth-order model for normalized quasiconformal families.

    ``alpha_K`` defaults to (3K+1)/(K+1), the conjectured order; every report
    built on it records which value was used, and callers may override.
    """

    K: float
    alpha_K: Optional[float] = None

    def __post_init__(self):
        if not 1.0 <= self.K < math.inf:
            raise InvalidParameterError("K must be finite and >= 1")
        if self.alpha_K is None:
            object.__setattr__(self, "alpha_K", (3.0 * self.K + 1.0) / (self.K + 1.0))
        if self.alpha_K <= 0.0:
            raise InvalidParameterError("alpha_K must be positive")

    @property
    def k(self) -> float:
        return (self.K - 1.0) / (self.K + 1.0)


def _check_dilatation_bound(w: AnalyticFn, grid: SampleGrid):
    vals = np.abs(w.jet(grid.points(), 0)[0])
    worst = float(np.max(vals))
    if worst >= 1.0:
        raise NonQuasiregularError(
            f"dilatation modulus reaches {worst:.6f} >= 1 on the sample grid"
        )
    return worst


def from_dilatation(hprime: AnalyticFn, w: AnalyticFn,
                    grid: Optional[SampleGrid] = None) -> HarmonicMap:
    """Build f with f_z = h' prescribed and g' = w h'.

    h and g are radial antiderivatives vanishing at 0; the map has analytic
    dilatation w wherever h' does not vanish.
    """
    grid = grid or SampleGrid()
    _check_dilatation_bound(w, grid)
    h = antiderivative(hprime, 0.0)
    g = antiderivative(combine("mul", w, hprime), 0.0)
    return HarmonicMap(h, g, description=f"dilatation map (w = {w.description})")


def shear(spec: ShearSpec) -> HarmonicMap:
    """Shear of phi along w: h' = phi'/(1-w), g' = w phi'/(1-w).

    Then h - g = phi up to the constant phi(0).  With ``normalize`` the map is
    rescaled so h(0) = 0, h'(0) = 1, g(0) = 0 (dividing h by c = h'(0) and g
    by conj(c), which preserves |w|).
    """
    _check_dilatation_bound(spec.w, spec.check_grid)
    phi_prime = derivative(spec.phi)
    denom = combine("sub", constant(1.0), spec.w)
    hprime = combine("div", phi_prime, denom)
    gprime = combine("mul", spec.w, hprime)
    h = antiderivative(hprime, 0.0)
    g = antiderivative(gprime, 0.0)
    if spec.normalize:
        c = h.derivative_at(0.0)
        if abs(c) < 1e-14:
            raise NonQuasiregularError("cannot normalize: h'(0) = 0")
        h = combine("mul", h, constant(1.0 / c))
        g = combine("mul", g, constant(1.0 / np.conj(c)))
    return HarmonicMap(h, g, description=f"shear of {spec.phi.description}")


def affine_extremal(k: float, sign: int = -1) -> HarmonicMap:
    """f(z) = z + sign * k * conj(z).

    For sign = -1 the conjugate pair is F = (1-k) z, G = (1+k) z, so
    |G'|/|F'| = (1+k)/(1-k) = K at every point.
    """
    if not 0.0 <= k < 1.0:
        raise InvalidParameterError("k must lie in [0, 1)")
    if sign not in (-1, +1):
        raise InvalidParameterError("sign must be +1 or -1")
    return HarmonicMap(poly([0.0, 1.0]), poly([0.0, sign * k]),
                       description=f"z {'+' if sign > 0 else '-'} {k} conj(z)")


def kkprime_example() -> HarmonicMap:
    """f(z) = z + conj(z) = 2 Re z: Lambda = 2, J = 0, (1,4)-quasiregular."""
    return HarmonicMap(poly([0.0, 1.0]), poly([0.0, 1.0]), description="z + conj(z)")


def koebe_shear(k: float, normalize: bool = True) -> HarmonicMap:
    """Shear of the Koebe function z/(1-z)^2 with dilatation w = k z.

    At k = 0 this is the Koebe function itself, returned in closed form.
    """
    if not 0.0 <= k < 1.0:
        raise InvalidParameterError("k must lie in [0, 1)")
    if k == 0.0:
        return analytic_as_harmonic(koebe())
    return shear(ShearSpec(koebe(), poly([0.0, k]), normalize=normalize))


def cayley_shear(k: float, normalize: bool = True) -> HarmonicMap:
    """Shear of z/(1-z) with dilatation w = k z."""
    if not 0.0 <= k < 1.0:
        raise InvalidParameterError("k must lie in [0, 1)")
    if k == 0.0:
        return analytic_as_harmonic(cayley_half())
    return shear(ShearSpec(cayley_half(), poly([0.0, k]), normalize=normalize))


DEFAULT_GROWTH_RADII = tuple(1.0 - 2.0 ** -j for j in range(3, 13))

GROWTH_TARGETS = ("hprime", "hsecond", "gprime", "gsecond", "f_itself")


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares exponent of M(r) against (1 - r^2)^(-1).

    beta solves log M(r) ~ beta * (-log(1 - r^2)) + const; residual is the
    RMS misfit of the regression.
    """

    beta: float
    residual: float
    radii: tuple
    values: tuple
    monotone_warning: bool = False


def growth_exponent(f: HarmonicMap, which: str,
                    radii: Sequence[float] = DEFAULT_GROWTH_RADII,
                    n_angles: int = 512) -> GrowthFit:
    """Fit the boundary growth exponent of a derived quantity of f.

    M(r) is the max over an angular sample at |z| = r of the chosen quantity
    (h', h'', g', g'', or |f| itself).  Radii must increase toward 1.
    """
    if which not in GROWTH_TARGETS:
        raise InvalidParameterError(f"unknown growth target {which!r}")
    radii = tuple(float(r) for r in radii)
    if any(not 0.0 < r < 1.0 for r in radii) or any(
        b <= a for a, b in zip(radii, radii[1:])
    ):
        raise InvalidParameterError("radii must increase within (0, 1)")
    theta = 2.0 * np.pi * np.arange(n_angles) / n_angles
    eig = np.exp(1j * theta)

    values = []
    for r in radii:
        z = r * eig
        if which == "hprime":
            q = np.abs(f.h.jet(z, 1, 1)[1])
        elif which == "hsecond":
            q = np.abs(f.h.jet(z, 2, 2)[2])
        elif which == "gprime":
            q = np.abs(f.g.jet(z, 1, 1)[1])
        elif which == "gsecond":
            q = np.abs(f.g.jet(z, 2, 2)[2])
        else:
            q = np.abs(f(z))
        values.append(float(np.max(q)))

    vals = np.asarray(values)
    if np.any(vals <= 0.0):
        return GrowthFit(0.0, 0.0, radii, tuple(values), monotone_warning=False)
    x = -np.log1p(-np.square(radii))
    y = np.log(vals)
    beta, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (beta * x + intercept)) ** 2)))
    # |.|-max over circles of analytic data is nondecreasing in r; a genuine
    # decrease signals an unresolved fit
    drops = np.any(vals[1:] < vals[:-1] * (1.0 - 1e-9))
    return GrowthFit(float(beta), resid, radii, tuple(values),
                     monotone_warning=bool(drops))


def recovered_dilatation_error(f: HarmonicMap, w: AnalyticFn,
                               grid: Optional[SampleGrid] = None) -> float:
    """Max deviation |g'/h' - w| over samples where h' does not vanish."""
    grid = grid or SampleGrid()
    z = grid.points()
    hp = f.h.jet(z, 1, 1)[1]
    gp = f.g.jet(z, 1, 1)[1]
    keep = np.abs(hp) > 1e-12
    ratio = gp[keep] / hp[keep]
    return float(np.max(np.abs(ratio - w.jet(z, 0)[0][keep])))
