"""Harmonic mappings f = h + conj(g) and their Wirtinger calculus.

For the canonical decomposition (g(0) = 0) one has f_z = h' and
f_zbar = conj(g'), hence

    Lambda_f = |f_z| + |f_zbar|,   lambda_f = ||f_z| - |f_zbar||,
    J_f = |f_z|^2 - |f_zbar|^2 = Lambda_f * lambda_f * sign(|f_z| - |f_zbar|).

The conjugate pair F = h + g, G = h - g carries the real and imaginary parts:
u = Re f = Re F and v = Im f = Im G, with |F'| = |grad u| and |G'| = |grad v|.
Everything here is pure and vectorized; maps are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import AnalyticFn, combine, constant, constant_bases, poly
from .errors import HypothesisViolationError, InvalidParameterError, NonQuasiregularError
from .mobius import as_complex

# Guard for dilatation ratios at zeros of h'.
_RATIO_GUARD = 1e-300
# Radii and angles of a ``SampleGrid``.
SAMPLE_RADII = 32
SAMPLE_ANGLES = 64


@dataclass(frozen=True)
class HarmonicMap:
    """f = h + conj(g) with analytic h, g and the normalization g(0) = 0."""

    h: AnalyticFn
    g: AnalyticFn
    description: str = ""

    def __post_init__(self):
        g0 = self.g(0.0)
        if abs(g0) > 1e-9:
            raise InvalidParameterError(
                f"decomposition requires g(0) = 0, got |g(0)| = {abs(g0):.3e}"
            )
        if not self.description:
            object.__setattr__(
                self, "description", f"{self.h.description} + conj({self.g.description})"
            )

    def __call__(self, z):
        zz = np.asarray(as_complex(z))
        val = self.h.jet(zz, 0)[0]
        if self.g.constant_value != 0:  # an analytic f skips its g = 0
            val = val + np.conj(self.g.jet(zz, 0)[0])
        return complex(val) if np.ndim(zz) == 0 else val

    def fz(self, z):
        return self.h.derivative_at(z)

    def fzbar(self, z):
        return np.conj(self.g.derivative_at(z))


@dataclass(frozen=True)
class WirtingerData:
    """Pointwise first-order data of a harmonic map (scalars or arrays)."""

    fz: np.ndarray
    fzbar: np.ndarray

    @property
    def lambda_big(self):
        return np.abs(self.fz) + np.abs(self.fzbar)

    @property
    def lambda_small(self):
        return np.abs(np.abs(self.fz) - np.abs(self.fzbar))

    @property
    def jacobian(self):
        return np.abs(self.fz) ** 2 - np.abs(self.fzbar) ** 2

    @property
    def grad_norm(self):
        # |grad f|^2 = |f_x|^2 + |f_y|^2 = 2(|f_z|^2 + |f_zbar|^2)
        return np.sqrt(2.0 * (np.abs(self.fz) ** 2 + np.abs(self.fzbar) ** 2))

    @property
    def conjugate_moduli(self):
        """(|F'|, |G'|) = (|grad u|, |grad v|) of the pair F = h + g, G = h - g,
        from the h' = f_z and g' = conj(f_zbar) already at hand."""
        gp = np.conj(self.fzbar)
        return np.abs(self.fz + gp), np.abs(self.fz - gp)


@dataclass(frozen=True)
class QrParams:
    """Distortion data (K, K').

    k = mu1 = (K-1)/(K+1) and mu2 = sqrt(K')/(1+K) are the coefficients of
    the pointwise bound |g'| <= mu1 |h'| + mu2.
    """

    K: float
    Kprime: float = 0.0

    def __post_init__(self):
        if self.K < 1.0:
            raise InvalidParameterError("K must be >= 1")
        if self.Kprime < 0.0:
            raise InvalidParameterError("K' must be >= 0")

    @property
    def k(self) -> float:
        return (self.K - 1.0) / (self.K + 1.0)

    @property
    def mu1(self) -> float:
        return self.k

    @property
    def mu2(self) -> float:
        return math.sqrt(self.Kprime) / (1.0 + self.K)

    @classmethod
    def from_k(cls, k: float) -> "QrParams":
        if not 0.0 <= k < 1.0:
            raise InvalidParameterError("k must lie in [0, 1)")
        return cls((1.0 + k) / (1.0 - k))


def wirtinger(f: HarmonicMap, z) -> WirtingerData:
    """First-order Wirtinger data at z (vectorized)."""
    zz = np.asarray(as_complex(z))
    return WirtingerData(f.h.jet(zz, 1, min_order=1)[1],
                         np.conj(f.g.jet(zz, 1, min_order=1)[1]))


def conjugate_parts(f: HarmonicMap):
    """The analytic pair F = h + g, G = h - g.

    |F'(z)| = |grad u(z)| and |G'(z)| = |grad v(z)| for u = Re f, v = Im f.
    """
    F = combine("add", f.h, f.g)
    G = combine("sub", f.h, f.g)
    return F, G


def real_part_map(f: HarmonicMap) -> HarmonicMap:
    """u = Re f as a harmonic map (h = g = F/2, constants dropped).

    The constant offset keeps g(0) = 0; derivative-based norms are unchanged.
    """
    F, _ = conjugate_parts(f)
    half = combine("mul", combine("sub", F, constant(F(0.0))), constant(0.5))
    return HarmonicMap(half, half, description=f"Re({f.description})")


def imag_part_map(f: HarmonicMap) -> HarmonicMap:
    """v = Im f as a harmonic map, via v = Re(-i G)."""
    _, G = conjugate_parts(f)
    half = combine("mul", combine("sub", G, constant(G(0.0))), constant(-0.5j))
    return HarmonicMap(half, half, description=f"Im({f.description})")


def angular_radial(f: HarmonicMap, z):
    """(f_theta, b f_b) at z, from the polar identities.

    -i f_theta = z f_z - conj(z) f_zbar and b f_b = z f_z + conj(z) f_zbar;
    both vanish at z = 0 by convention, which the formulas produce directly.
    """
    zz = np.asarray(as_complex(z))
    w = wirtinger(f, zz)
    f_theta = 1j * (zz * w.fz - np.conj(zz) * w.fzbar)
    b_f_b = zz * w.fz + np.conj(zz) * w.fzbar
    if np.ndim(np.asarray(as_complex(z))) == 0:
        return complex(f_theta), complex(b_f_b)
    return f_theta, b_f_b


@dataclass(frozen=True)
class SampleGrid:
    """Polar sampling specification for pointwise estimates:
    ``SAMPLE_RADII`` radii up to ``r_max`` times ``SAMPLE_ANGLES`` angles."""

    r_max: float = 0.995

    def points(self) -> np.ndarray:
        if not 0.0 < self.r_max < 1.0:
            raise InvalidParameterError("r_max must lie in (0, 1)")
        radii = self.r_max * np.arange(1, SAMPLE_RADII + 1) / SAMPLE_RADII
        theta = 2.0 * np.pi * np.arange(SAMPLE_ANGLES) / SAMPLE_ANGLES
        return np.outer(radii, np.exp(1j * theta)).ravel()


@dataclass(frozen=True)
class QrEstimate:
    K_est: float
    Kprime_residual: float
    argmax: complex
    degenerate_points: int
    grid: SampleGrid


def estimate_quasiregularity(f: HarmonicMap, grid: Optional[SampleGrid] = None,
                             K_for_residual: Optional[float] = None,
                             require_k: bool = True) -> QrEstimate:
    """Estimate the distortion of f on a polar sample grid.

    K_est is the max of D_f = Lambda/lambda over samples with J > 0, sharpened
    by a compass refinement around the maximizer.  It is inf when some
    sample reverses sense beyond rounding, J < -1e-12 Lambda^2, since no K
    bounds a map that does, or when no sample has J > 0 and some sample is
    degenerate; it is 1 for a constant map (J = 0 everywhere).  The
    residual reports
    max(Lambda^2 - K J) for the supplied K (default: the estimated K).  With
    ``require_k`` set, samples where lambda vanishes while Lambda does not
    raise :class:`NonQuasiregularError` (D_f unbounded there).

    Where h' and g' are constant (``analytic.constant_bases``) every sample
    gives the values of the grid's first point, so that point alone is
    evaluated, stands for every sample in the degenerate count, and is the
    argmax, which no compass step moves: the estimate the whole grid gives.
    """
    grid = grid or SampleGrid()
    z = grid.points()
    samples = z.size
    uniform = constant_bases(f)
    if uniform:
        z = z[:1]
    w = wirtinger(f, z)
    lam_big = w.lambda_big
    lam_small = w.lambda_small
    degenerate = (lam_small < 1e-12) & (lam_big > 1e-12)
    n_degenerate = int(np.count_nonzero(degenerate)) * (samples // z.size)
    if require_k and n_degenerate:
        raise NonQuasiregularError(
            f"dilatation unbounded at {n_degenerate} sample(s): "
            "lambda = 0 with Lambda > 0"
        )
    ratio = lam_big / np.maximum(lam_small, _RATIO_GUARD)
    jac = w.jacobian
    usable = jac > 0
    if not np.any(usable) or np.any(jac < -1e-12 * lam_big ** 2):
        K_est = math.inf if n_degenerate or np.any(jac < 0) else 1.0
        argmax = 0j
    else:
        idx = int(np.argmax(np.where(usable, ratio, -np.inf)))
        K_est = float(ratio[idx])
        argmax = complex(z[idx])
        # compass polish around the maximizer
        step = grid.r_max / SAMPLE_RADII
        best, best_z = K_est, argmax
        while step > 1e-4 and not uniform:
            moved = False
            for d in (step, -step, 1j * step, -1j * step):
                cand = best_z + d
                if abs(cand) >= grid.r_max:
                    continue
                wc = wirtinger(f, np.asarray(cand))
                ls = float(wc.lambda_small)
                lb = float(wc.lambda_big)
                if ls < 1e-12:
                    continue
                val = lb / ls
                if val > best:
                    best, best_z, moved = val, cand, True
            if not moved:
                step *= 0.5
        K_est, argmax = best, complex(best_z)

    K_used = K_for_residual if K_for_residual is not None else min(K_est, 1e12)
    residual = float(np.max(lam_big ** 2 - K_used * jac))
    return QrEstimate(K_est, residual, argmax, n_degenerate, grid)


@dataclass(frozen=True)
class MarginReport:
    """Worst-case slack of the pointwise (K, K') bounds over a sample set.

    ``conjugate_margin`` tracks K|F'| + sqrt(K') - |G'| and
    ``distortion_margin`` the sharper K lambda + sqrt(K') - Lambda; the
    distortion bound implies the conjugate one, and both are nonnegative
    exactly when the (K, K') hypothesis holds.
    """

    min_margin: float
    conjugate_margin: float
    distortion_margin: float
    argmin: complex
    n_samples: int


def pointwise_conjugate_bound(f: HarmonicMap, params: QrParams, samples) -> MarginReport:
    """Check the pointwise bounds behind the (K, K') norm estimates.

    Evaluates K|F'| + sqrt(K') - |G'| and K lambda_f + sqrt(K') - Lambda_f at
    the sample points.  A violation of either beyond -1e-10 raises
    :class:`HypothesisViolationError` carrying the report.
    """
    z = np.ravel(np.asarray(as_complex(samples)))
    root = math.sqrt(params.Kprime)
    w = wirtinger(f, z)
    grad_u, grad_v = w.conjugate_moduli
    conj_margins = params.K * grad_u + root - grad_v
    dist_margins = params.K * w.lambda_small + root - w.lambda_big
    margins = np.minimum(conj_margins, dist_margins)
    idx = int(np.argmin(margins))
    report = MarginReport(
        float(margins[idx]),
        float(np.min(conj_margins)),
        float(np.min(dist_margins)),
        complex(z[idx]),
        z.size,
    )
    if report.min_margin < -1e-10:
        raise HypothesisViolationError(
            f"pointwise conjugate bound violated: margin {report.min_margin:.3e}",
            report,
        )
    return report


def analytic_as_harmonic(h: AnalyticFn) -> HarmonicMap:
    """Wrap an analytic function as a harmonic map with g = 0."""
    return HarmonicMap(h, poly([0.0]), description=h.description)
