"""Analytic functions on the disk as jet evaluators.

An ``AnalyticFn`` produces jets: arrays whose entry j is f^(j)(z), for
j = 0..order, evaluated vectorized over numpy arrays of points.

Closed forms.  Polynomials, the Koebe function and the half-plane Cayley map
are :class:`RationalLog` functions: a polynomial plus pole terms
c (1-bz)^-m plus log terms L log(1-bz), held in exact rational arithmetic.
``scale``, ``shift``, ``derivative``, ``combine`` (sums; products, and
quotients by a constant or by a0 + a1 z, of log-free operands) and
``antiderivative`` return that type when their operands have it, so maps
built from rational inputs -- the shear and dilatation families -- get
exact antiderivatives and closed-form jets without a change at their call
sites.  Every other input takes the generic path: jets by Leibniz and
quotient recursion over the ``combine`` tree, and an antiderivative's
order-0 values by radial quadrature.  That covers power series, Mobius
compositions, products and quotients that hold log terms, and division by
anything but a constant or a degree-1 polynomial.

Jets support a ``min_order``: entries below it are left unspecified (zero).
Cheap closed-form evaluators may ignore it, but evaluators with a real cost
per entry honor it; in particular an antiderivative evaluates no order-0
value (on the generic path, no radial quadrature at all) when only
derivative entries are consumed, which is what the norm integrands do on
large node sets.

Composition with a Mobius automorphism uses Faa di Bruno: the partial Bell
polynomials of sigma_a's derivatives are scalars times powers of
1/(1 - conj(a) z), so a composed jet is one Horner sum in that quotient;
orders above ``MAX_COMPOSE_ORDER`` are rejected.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AccuracyError, InvalidParameterError, PoleError
from .mobius import MobiusMap, as_complex
from .quadrature import gauss_legendre_panels

MAX_COMPOSE_ORDER = 6

_binom = math.comb


class AnalyticFn:
    """An analytic function represented by a jet evaluator.

    ``evaluator(z, order, min_order)`` must return an array of shape
    (order+1,) + z.shape with entry j equal to f^(j)(z) for j >= min_order
    (lower entries are unspecified).  Evaluators are immutable after
    construction and evaluation is pure, so instances may be shared freely
    across threads.
    """

    def __init__(self, evaluator: Callable, max_order: int = MAX_COMPOSE_ORDER,
                 description: str = "analytic function",
                 constant_value: Optional[complex] = None):
        if max_order < 1:
            raise InvalidParameterError("max_order must be >= 1")
        self._evaluator = evaluator
        self.max_order = max_order
        self.description = description
        self.constant_value = constant_value

    def jet(self, z, order: int, min_order: int = 0) -> np.ndarray:
        """[f(z), f'(z), ..., f^(order)(z)] on axis 0.

        Entries below ``min_order`` are not meaningful; request only what is
        consumed (expensive evaluators skip the rest).
        """
        if order < 0:
            raise InvalidParameterError("jet order must be >= 0")
        if not 0 <= min_order <= order:
            raise InvalidParameterError("need 0 <= min_order <= order")
        if order > self.max_order:
            raise InvalidParameterError(
                f"jet order {order} exceeds max_order {self.max_order} "
                f"of {self.description}"
            )
        z = np.asarray(as_complex(z))
        out = np.asarray(self._evaluator(z, order, min_order))
        if out.shape[0] != order + 1:
            raise AssertionError("evaluator returned a jet of wrong length")
        return out

    def __call__(self, z):
        val = self.jet(np.asarray(as_complex(z)), 0)[0]
        if np.ndim(np.asarray(as_complex(z))) == 0:
            return complex(val)
        return val

    def derivative_at(self, z, j: int = 1):
        val = self.jet(np.asarray(as_complex(z)), j, min_order=j)[j]
        if np.ndim(np.asarray(as_complex(z))) == 0:
            return complex(val)
        return val

    def __repr__(self):
        return f"AnalyticFn({self.description!r})"

    # arithmetic sugar, all routed through `combine`
    def __add__(self, other):
        return combine("add", self, _as_fn(other))

    def __sub__(self, other):
        return combine("sub", self, _as_fn(other))

    def __mul__(self, other):
        return combine("mul", self, _as_fn(other))

    def __truediv__(self, other):
        return combine("div", self, _as_fn(other))

    def __radd__(self, other):
        return combine("add", _as_fn(other), self)

    def __rsub__(self, other):
        return combine("sub", _as_fn(other), self)

    def __rmul__(self, other):
        return combine("mul", _as_fn(other), self)

    def __rtruediv__(self, other):
        return combine("div", _as_fn(other), self)


def _as_fn(x) -> AnalyticFn:
    if isinstance(x, AnalyticFn):
        return x
    return constant(complex(x))


def _falling_factorial(indices: np.ndarray, j: int) -> np.ndarray:
    """i (i-1) ... (i-j+1) as floats (derivative coefficient scaling)."""
    out = np.ones_like(indices, dtype=np.float64)
    for m in range(j):
        out *= indices - m
    return out


def _polynomial_jet(coeffs: np.ndarray, z, order: int, min_order: int):
    """The jet of sum coeffs[i] z^i, entries min_order..order (those past
    the degree are 0), with the signature of ``evaluator``."""
    n = len(coeffs)
    out = np.zeros((order + 1,) + z.shape, dtype=np.complex128)
    for j in range(min_order, min(order + 1, n)):
        dj = coeffs[j:] * _falling_factorial(np.arange(j, n), j)
        out[j] = np.polynomial.polynomial.polyval(z, dj)
    return out


class _Exact:
    """An exact complex rational, for the term algebra of :class:`RationalLog`.

    Float inputs are exact rationals, so partial fractions built from them
    are exact and round once, when they are evaluated; cancellations that
    hold by algebra (a proper integrand's residues summing to 0, say) hold
    exactly rather than to a few ulps of the largest term.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def _of(cls, re: Fraction, im: Fraction) -> "_Exact":
        out = object.__new__(cls)
        out.re, out.im = re, im
        return out

    def __add__(self, other):
        other = _exact(other)
        return _Exact._of(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _Exact._of(-self.re, -self.im)

    def __sub__(self, other):
        return self + -_exact(other)

    def __rsub__(self, other):
        return _exact(other) - self

    def __mul__(self, other):
        other = _exact(other)
        if not (self.im or other.im):  # the common, real case
            return _Exact._of(self.re * other.re, self.im)
        return _Exact._of(self.re * other.re - self.im * other.im,
                          self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _exact(other)
        if not (self.im or other.im):
            return _Exact._of(self.re / other.re, self.im)
        den = other.re * other.re + other.im * other.im
        return _Exact._of((self.re * other.re + self.im * other.im) / den,
                          (self.im * other.re - self.re * other.im) / den)

    def __rtruediv__(self, other):
        return _exact(other) / self

    def __pow__(self, n: int):
        out = _Exact(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, _Exact):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def _exact(x) -> _Exact:
    if isinstance(x, _Exact):
        return x
    x = complex(x)
    if not cmath.isfinite(x):
        raise InvalidParameterError(f"coefficient {x} is not finite")
    return _Exact(x.real, x.imag)


def _exact_sum(values) -> _Exact:
    return sum(values, _Exact(0))


def _poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    return [a + q[i] if i < len(q) else a for i, a in enumerate(p)]


def _poly_mul(p, q):
    out = [_Exact(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def _rising(m: int, j: int) -> int:
    """(m)_j = m (m+1) ... (m+j-1)."""
    return math.prod(range(m, m + j))


def _horner(coeffs, z):
    """sum_i coeffs[i] z^i for a non-empty coefficient sequence."""
    if len(coeffs) == 1:
        return coeffs[0]
    acc = coeffs[-1] * z
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= z
        acc += c
    return acc


def _log1p(x, mod_w):
    """log(1 + x) with w = 1 + x off the negative real axis; ``mod_w = |w|``.

    log|w| is log1p(|w|^2 - 1)/2 with |w|^2 - 1 = x (2 + x) formed without
    cancellation, so small |x| keeps its relative accuracy; near the pole it
    is log|w|.  Both are cheaper than the complex log.
    """
    re, im = x.real, x.imag
    t = re * (2.0 + re) + im * im
    out = np.empty(x.shape, dtype=np.complex128)
    out.real = np.where(t > -0.5, 0.5 * np.log1p(np.maximum(t, -0.5)),
                        np.log(mod_w))
    out.imag = np.arctan2(im, 1.0 + re)
    return out


def _over_common_denominator(P, fractions: dict):
    """P(z) + sum gamma_{b,e} (1-bz)^-e as N(z) / prod_b (1-bz)^E_b, exactly:
    returns (N, {b: E_b}) with E_b the largest e at b."""
    exps = {}
    for b, e in fractions:
        exps[b] = max(exps.get(b, 0), e)
    binomials = {}

    def powers(skip=None, less=0):
        out = [_Exact(1)]
        for b, e in exps.items():
            n = e - less if b == skip else e
            if (b, n) not in binomials:
                binomials[b, n] = [_binom(n, i) * (-b) ** i for i in range(n + 1)]
            out = _poly_mul(out, binomials[b, n])
        return out

    N = _poly_mul(P, powers())
    for (b, e), gamma in fractions.items():
        N = _poly_add(N, [gamma * c for c in powers(b, e)])
    while len(N) > 1 and not N[-1]:
        N.pop()
    return N, exps


def _derivative_rows(N, count: int):
    """Float coefficients of N, N', ..., N^(count-1) (empty past the degree)."""
    rows = [N]
    for _ in range(count - 1):
        rows.append([i * c for i, c in enumerate(rows[-1])][1:])
    return [np.array([complex(c) for c in row]) for row in rows]


def _product_jets(rows, factors, z, n: int, lo: int) -> list:
    """d^i/dz^i [N(z) prod (1-bz)^-E] for i = lo..n, by Leibniz over the
    factors; ``rows[a]`` holds the coefficients of N^(a), ``factors`` holds
    (b, E, r = 1/(1-bz)), and d^c r^E = (E)_c b^c r^(E+c).  An entry that is
    identically 0 is None."""
    G = [_horner(rows[a], z) if a < len(rows) and len(rows[a]) else None
         for a in range(n + 1)]
    for index, (b, E, r) in enumerate(factors):
        p = r
        for _ in range(E - 1):
            p = p * r
        R = [p]
        for c in range(1, n + 1):
            p = p * r
            R.append(p * (_rising(E, c) * b ** c))
        last = index == len(factors) - 1
        new = []
        for i in range(n + 1):
            acc = None
            if i >= lo or not last:
                for a in range(i + 1):
                    if G[a] is None:
                        continue
                    term = G[a] * R[i - a]
                    if a and a < i:
                        term *= _binom(i, a)
                    if acc is None:
                        acc = term
                    else:
                        acc += term
            new.append(acc)
        G = new
    return G[lo:]


class RationalLog(AnalyticFn):
    """A polynomial plus pole and log terms, with exact jets:

        f(z) = P(z) + sum_{b, m>=1} c_{b,m} (1-bz)^-m + sum_b L_b log(1-bz).

    ``coeffs`` holds P and ``terms`` maps (b, m) to c_{b,m}, with L_b at
    m = 0 (b != 0), all exact complex rationals: float inputs are exact
    rationals, so the partial fractions that ``scale``, ``shift``,
    ``derivative``, ``combine`` and ``antiderivative`` build are exact too,
    and identities such as sum_b L_b = 0 (a proper integrand's residues)
    hold exactly.  Those operations return this type when every operand
    has it: ``combine`` adds and subtracts any two, and multiplies, or
    divides by a constant or by a0 + a1 z with a0 != 0, operands without log
    terms; ``antiderivative`` of a log-free one is exact.

    Evaluation rounds once per coefficient.  Jets of order >= 1 are the
    derivatives of f' = N(z) prod_b (1-bz)^-E_b, with N the exact numerator
    over the common denominator, by Leibniz over the factors; the value is
    f(0) + (R(z) - R(0)) + the logs, R - R(0) being the rational part as a
    numerator vanishing at 0 over its denominator.  Neither form sums
    partial fractions, whose terms can be thousands of times larger than f
    when poles lie close together.  ``evaluator`` replaces this term
    evaluator (``terms_jet``) where an operation delegates its jets to its
    operand's.
    """

    def __init__(self, coeffs, terms: dict, description: str,
                 max_order: int = MAX_COMPOSE_ORDER,
                 evaluator: Optional[Callable] = None):
        coeffs = [_exact(c) for c in coeffs]
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = coeffs
        self.terms = {(_exact(b), m): _exact(c) for (b, m), c in terms.items()}
        self.terms = {key: c for key, c in self.terms.items() if c}
        cval = complex(coeffs[0]) if len(coeffs) == 1 and not self.terms else None
        super().__init__(evaluator or self.terms_jet, max_order=max_order,
                         description=description, constant_value=cval)

    @property
    def has_logs(self) -> bool:
        return any(m == 0 for _, m in self.terms)

    @cached_property
    def _float_coeffs(self):
        return np.array([complex(c) for c in self.coeffs])

    @cached_property
    def _poles(self):
        """The distinct b, as floats."""
        return list(dict.fromkeys(complex(b) for b, _ in self.terms))

    @cached_property
    def _value_form(self):
        """(f(0), N, exponents, logs) for the value f(0) + N(z) prod (1-bz)^-E
        + logs, N(0) = 0; built on first use, like ``_slope_form`` (most
        intermediate functions of a construction are never evaluated)."""
        pole_sum = _exact_sum(c for (_, m), c in self.terms.items() if m)
        N, exps = _over_common_denominator(
            [-pole_sum] + self.coeffs[1:],
            {key: c for key, c in self.terms.items() if key[1]})
        logs = [(b, L) for (b, m), L in self.terms.items() if m == 0]
        log_data = None
        if logs:
            b0 = logs[0][0]
            log_data = (complex(b0), complex(_exact_sum(L for _, L in logs)),
                        [(complex(b), complex(b0 - b), complex(L))
                         for b, L in logs[1:]])
        return (complex(self.coeffs[0] + pole_sum), np.array([complex(c) for c in N]),
                [(complex(b), e) for b, e in exps.items()], log_data)

    @cached_property
    def _slope_form(self):
        """(rows of N, N', ..., exponents) for f' = N(z) prod (1-bz)^-E."""
        N, exps = _over_common_denominator(*_derivative_terms(self))
        return _derivative_rows(N, self.max_order), [(complex(b), e)
                                                     for b, e in exps.items()]

    # Array temporaries stay on the left of complex products: NumPy elides a
    # right-hand temporary by multiplying into it with the operands swapped,
    # and its fused complex multiply is not bitwise commutative, so a value
    # would depend on the size of the array it is evaluated in.
    def terms_jet(self, z, order, min_order):
        """Jet evaluator of the terms, with the signature of ``evaluator``."""
        shape = z.shape
        z = np.atleast_1d(z)  # the in-place steps need arrays
        if not self.terms:
            return _polynomial_jet(self._float_coeffs, z, order,
                                   min_order).reshape((order + 1,) + shape)
        out = np.zeros((order + 1,) + z.shape, dtype=np.complex128)
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                r = {}
                for b in self._poles:
                    w = 1.0 - z if b == 1 else 1.0 - b * z
                    r[b] = np.divide(1.0, w, out=w)
                if min_order == 0:
                    at0, value, value_exps, log_data = self._value_form
                    if len(value) > 1:
                        val = _horner(value, z)
                        for b, e in value_exps:
                            for _ in range(e):
                                val *= r[b]
                        out[0] = val
                    if at0:
                        out[0] += at0
                    if log_data:
                        out[0] += self._logs(z, r, *log_data)
                if order >= 1:
                    rows, slope_exps = self._slope_form
                    jets = _product_jets(rows, [(b, e, r[b]) for b, e in slope_exps],
                                         z, order - 1, max(0, min_order - 1))
                    for j, val in enumerate(jets, start=max(1, min_order)):
                        if val is not None:
                            out[j] = val
        except FloatingPointError as exc:
            raise PoleError(f"evaluation point on a pole of {self.description}") from exc
        return out.reshape((order + 1,) + shape)

    @staticmethod
    def _logs(z, r, b0, total, others):
        """(sum L_b) log(1-b0 z) + sum_{b != b0} L_b log((1-bz)/(1-b0 z)):
        logs whose coefficients sum to 0 cancel before rounding."""
        mod0 = np.abs(r[b0])
        out = np.zeros(z.shape, dtype=np.complex128)
        if total:
            out += _log1p(-b0 * z, 1.0 / mod0) * total
        for b, diff, L in others:
            out += _log1p(diff * z * r[b0], mod0 / np.abs(r[b])) * L
        return out


def _derivative_terms(f: RationalLog):
    """(P', terms) of f': d (1-bz)^-m = m b (1-bz)^-(m+1) and
    d log(1-bz) = -b (1-bz)^-1."""
    return ([i * c for i, c in enumerate(f.coeffs)][1:] or [0],
            {(b, m + 1): (m * b if m else -b) * c for (b, m), c in f.terms.items()})


def _accumulate(flat: dict, terms: dict, c=1):
    for key, v in terms.items():
        flat[key] = flat.get(key, _Exact(0)) + c * v


def _poly_over_pole(P, b: _Exact, n: int):
    """P(z) (1-bz)^-n as (polynomial, {(b, m): coefficient}).

    P(z) = Q(u) in u = 1 - bz; the powers u^(k-n) with k < n are poles and
    the rest is a polynomial in u, expanded back in z.
    """
    Q = [_Exact(0)]
    for p in P[::-1]:
        Q = _poly_add(_poly_mul(Q, [1 / b, -1 / b]), [p])
    poles = {(b, n - k): Q[k] for k in range(min(n, len(Q)))}
    rest = [_Exact(0)]
    for q in Q[n:][::-1]:
        rest = _poly_add(_poly_mul(rest, [_Exact(1), -b]), [q])
    return rest, poles


def _pole_pair(b: _Exact, m: int, d: _Exact, n: int) -> dict:
    """(1-bz)^-m (1-dz)^-n in partial fractions.

    With 1/((1-bz)(1-dz)) = A/(1-bz) + B/(1-dz), A = b/(b-d), B = -d/(b-d),
    unrolling that identity gives (1-bz)^-i the coefficient
    C(m+n-i-1, m-i) A^n B^(m-i) and (1-dz)^-j the coefficient
    C(m+n-j-1, n-j) B^m A^(n-j).
    """
    if b == d:
        return {(b, m + n): _Exact(1)}
    A, B = b / (b - d), -d / (b - d)
    out = {(b, i): _binom(m + n - i - 1, m - i) * A ** n * B ** (m - i)
           for i in range(1, m + 1)}
    out.update({(d, j): _binom(m + n - j - 1, n - j) * B ** m * A ** (n - j)
                for j in range(1, n + 1)})
    return out


def _product(f: RationalLog, g: RationalLog, description: str,
             max_order: int) -> RationalLog:
    """f g for log-free operands, in partial fractions."""
    coeffs = _poly_mul(f.coeffs, g.coeffs)
    terms = {}
    for own, other in ((f, g), (g, f)):
        for (b, m), c in own.terms.items():
            rest, poles = _poly_over_pole(other.coeffs, b, m)
            coeffs = _poly_add(coeffs, [c * v for v in rest])
            _accumulate(terms, poles, c)
    for (b, m), c in f.terms.items():
        for (d, n), e in g.terms.items():
            _accumulate(terms, _pole_pair(b, m, d, n), c * e)
    return RationalLog(coeffs, terms, description, max_order)


def _reciprocal_linear(g: RationalLog) -> Optional[RationalLog]:
    """1/g for g = a0 + a1 z with a0, a1 != 0, else None."""
    if g.terms or len(g.coeffs) != 2 or not g.coeffs[0]:
        return None
    a0, a1 = g.coeffs
    return RationalLog([0], {(-a1 / a0, 1): 1 / a0}, "", g.max_order)


def real_coefficients(f) -> bool:
    """Whether f, an ``AnalyticFn`` or a harmonic map h + conj(g), is a
    :class:`RationalLog` (h and g both are) whose every coefficient, pole b
    and term coefficient has an imaginary part of exactly 0.  Then
    f(conj z) = conj(f(z)), so every modulus built from f and its jets is
    even in theta on a polar grid.  Decided on the exact rationals: any
    other ``AnalyticFn`` (a power series, a Mobius composition, a generic
    combination) gives False."""
    parts = (f,) if isinstance(f, AnalyticFn) else (f.h, f.g)
    return all(isinstance(part, RationalLog)
               and not any(c.im for c in part.coeffs)
               and not any(b.im or c.im for (b, _), c in part.terms.items())
               for part in parts)


def poly(coefficients: Sequence[complex]) -> AnalyticFn:
    """Polynomial sum c[i] z^i with exact jets."""
    coeffs = [complex(c) for c in coefficients]
    if not coeffs:
        raise InvalidParameterError("polynomial needs at least one coefficient")
    label = "poly(" + ", ".join(format(c, 'g') for c in coeffs) + ")"
    return RationalLog(coeffs, {}, label)


def constant(c) -> AnalyticFn:
    return poly([complex(c)])


def identity() -> AnalyticFn:
    return poly([0.0, 1.0])


def power_series(coefficients: Sequence[complex], truncation: int) -> AnalyticFn:
    """Truncated power series sum_{m<=truncation} c[m] z^m.

    Derivatives are summed termwise; evaluation raises
    :class:`AccuracyError` where the tail is not decreasing (divergence at
    that point).
    """
    if truncation < 1:
        raise InvalidParameterError("truncation must be a positive integer")
    if truncation > 10 ** 6:
        raise InvalidParameterError("truncation above 1e6 is not supported")
    coeffs = np.asarray([complex(c) for c in coefficients], dtype=np.complex128)
    coeffs = coeffs[: truncation + 1]
    n = len(coeffs)

    def _check_divergence(z):
        if n < 4:
            return
        r = np.abs(np.asarray(z))
        rmax = float(np.max(r)) if r.size else 0.0
        if rmax == 0.0:
            return
        t1 = np.abs(coeffs[-2]) * rmax ** (n - 2)
        t2 = np.abs(coeffs[-1]) * rmax ** (n - 1)
        if t2 > t1 > 0.0 and t2 > 1e-13 * max(1.0, t1):
            raise AccuracyError(
                "power series tail is not decreasing at |z| = "
                f"{rmax:.6g}; evaluation diverges"
            )

    def evaluator(z, order, min_order):
        _check_divergence(z)
        return _polynomial_jet(coeffs, z, order, min_order)

    return AnalyticFn(evaluator, description=f"power series ({n} terms)")


def koebe() -> AnalyticFn:
    """z / (1-z)^2 = (1-z)^-2 - (1-z)^-1, normalized so f(0) = 0, f'(0) = 1."""
    return RationalLog([0], {(1, 1): -1, (1, 2): 1}, "koebe z/(1-z)^2")


def cayley_half() -> AnalyticFn:
    """z / (1-z) = (1-z)^-1 - 1."""
    return RationalLog([-1], {(1, 1): 1}, "z/(1-z)")


def scale(f: AnalyticFn, c) -> AnalyticFn:
    """c * f; every jet entry scales, so min_order passes straight through."""
    c = complex(c)
    label = f"{c:g}*{f.description}"
    if isinstance(f, RationalLog):
        e = _exact(c)
        return RationalLog([e * a for a in f.coeffs],
                           {key: e * v for key, v in f.terms.items()},
                           label, f.max_order)

    def evaluator(z, order, min_order):
        return c * f.jet(z, order, min_order)

    cval = None if f.constant_value is None else c * f.constant_value
    return AnalyticFn(evaluator, max_order=f.max_order, description=label,
                      constant_value=cval)


def shift(f: AnalyticFn, c) -> AnalyticFn:
    """f + c; only the order-0 entry changes."""
    c = complex(c)
    label = f"({f.description} + {c:g})"
    if isinstance(f, RationalLog):
        return RationalLog([f.coeffs[0] + c] + f.coeffs[1:], f.terms, label,
                           f.max_order)

    def evaluator(z, order, min_order):
        out = f.jet(z, order, min_order).copy()
        if min_order == 0:
            out[0] = out[0] + c
        return out

    cval = None if f.constant_value is None else c + f.constant_value
    return AnalyticFn(evaluator, max_order=f.max_order, description=label,
                      constant_value=cval)


def combine(op: str, f: AnalyticFn, g: AnalyticFn) -> AnalyticFn:
    """Pointwise combination.

    Combinations with a constant operand reduce to scale/shift and keep jet
    laziness.  Two :class:`RationalLog` operands combine in closed form when
    the result is one (see the module docstring); otherwise the jets come by
    Leibniz / quotient recursion, which needs the full lower jets of both
    operands.  For ``div`` the caller asserts the denominator does not
    vanish on the disk; a zero met at evaluation raises :class:`PoleError`.
    """
    if op not in ("add", "sub", "mul", "div"):
        raise InvalidParameterError(f"unknown combine op {op!r}")
    # constant folding keeps expensive operands lazy
    if g.constant_value is not None:
        c = g.constant_value
        if op == "add":
            return shift(f, c)
        if op == "sub":
            return shift(f, -c)
        if op == "mul":
            return scale(f, c)
        if c == 0:
            raise PoleError("division by the zero function")
        return scale(f, 1.0 / c)
    if f.constant_value is not None and op in ("add", "mul"):
        return combine(op, g, f)
    if f.constant_value is not None and op == "sub":
        return shift(scale(g, -1.0), f.constant_value)

    max_order = min(f.max_order, g.max_order)
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
    label = f"({f.description} {sym} {g.description})"
    if isinstance(f, RationalLog) and isinstance(g, RationalLog):
        if op in ("add", "sub"):
            sign = 1 if op == "add" else -1
            terms = dict(f.terms)
            _accumulate(terms, g.terms, sign)
            return RationalLog(_poly_add(f.coeffs, [sign * c for c in g.coeffs]),
                               terms, label, max_order)
        inverse = _reciprocal_linear(g) if op == "div" else g
        if inverse is not None and not f.has_logs and not inverse.has_logs:
            return _product(f, inverse, label, max_order)

    def evaluator(z, order, min_order):
        if op in ("add", "sub"):
            fj = f.jet(z, order, min_order)
            gj = g.jet(z, order, min_order)
            return fj + gj if op == "add" else fj - gj
        fj = f.jet(z, order)
        gj = g.jet(z, order)
        if op == "mul":
            out = np.empty_like(fj)
            for nn in range(order + 1):
                acc = np.zeros(z.shape, dtype=np.complex128)
                for k in range(nn + 1):
                    acc += _binom(nn, k) * fj[k] * gj[nn - k]
                out[nn] = acc
            return out
        # quotient: q g = f  =>  q^(n) = (f^(n) - sum_{k<n} C(n,k) q^(k) g^(n-k)) / g
        den = gj[0]
        bad = np.abs(den) < 1e-290
        if np.any(bad):
            raise PoleError("denominator vanishes at an evaluation point")
        out = np.empty_like(fj)
        out[0] = fj[0] / den
        for nn in range(1, order + 1):
            acc = fj[nn].astype(np.complex128).copy()
            for k in range(nn):
                acc -= _binom(nn, k) * out[k] * gj[nn - k]
            out[nn] = acc / den
        return out

    return AnalyticFn(evaluator, max_order=max_order, description=label)


def derivative(f: AnalyticFn) -> AnalyticFn:
    """f' as an AnalyticFn (jets shift down one order)."""
    if f.max_order < 2:
        raise InvalidParameterError("cannot differentiate: max_order too small")

    def evaluator(z, order, min_order):
        return f.jet(z, order + 1, min_order + 1)[1:]

    label = f"d/dz {f.description}"
    if isinstance(f, RationalLog):
        # the terms serve further algebra; the jets stay f's own entries
        return RationalLog(*_derivative_terms(f), label, f.max_order - 1, evaluator)
    return AnalyticFn(evaluator, max_order=f.max_order - 1, description=label)


def _bell_factors(a: complex, order: int) -> list:
    """The scalars b[n][k] with B_{n,k}(sigma_a', sigma_a'', ...) =
    b[n][k] (1 - conj(a) z)^-(n+k), for 1 <= k <= n <= order.

    sigma_a^(j) = c_j (1 - conj(a) z)^-(j+1), c_j = -(1-|a|^2) j! conj(a)^(j-1),
    and every monomial of B_{n,k} is a product of k of them whose orders sum
    to n, so its power of 1/(1 - conj(a) z) is n + k and b[n][k] is B_{n,k}
    of the scalars c_j, by the usual recursion
    B_{n,k} = sum_i C(n-1, i-1) c_i B_{n-i,k-1}.
    """
    abar = complex(a).conjugate()
    pref = -(1.0 - abs(a) ** 2)
    c = [0.0] + [pref * math.factorial(j) * abar ** (j - 1)
                 for j in range(1, order + 1)]
    b = [[0.0] * (order + 1) for _ in range(order + 1)]
    b[0][0] = 1.0
    for nn in range(1, order + 1):
        for k in range(1, nn + 1):
            b[nn][k] = sum(_binom(nn - 1, i - 1) * c[i] * b[nn - i][k - 1]
                           for i in range(1, nn - k + 2))
    return b


def compose_mobius(f: AnalyticFn, m: MobiusMap) -> AnalyticFn:
    """f composed with sigma_a, jets by Faa di Bruno in closed form.

    With D = 1 - conj(a) z every partial Bell polynomial of the derivatives
    of sigma_a is a scalar times a power of 1/D (``_bell_factors``, computed
    once per map), so

        (f o sigma_a)^(n)(z) = D^-(n+1) sum_k b[n][k] f^(k)(w) D^-(k-1),

    summed by Horner in 1/D, with w = sigma_a(z) = (a - z)/D.  D is formed
    once per call and w takes the same division as ``mobius.sigma``, so it
    is bit-identical to it (multiplying by 1/D instead moves w by an ulp,
    which near a pole of f, where 1 - w cancels, moved koebe's near-cap
    Q(2,1,1) integral by 1.9e-11).  Orders above ``MAX_COMPOSE_ORDER`` are
    rejected.
    """
    a = m.param
    abar = np.conj(a)
    max_order = min(f.max_order, MAX_COMPOSE_ORDER)
    bell = _bell_factors(a, max_order)

    def evaluator(z, order, min_order):
        D = 1.0 - abar * z
        w = (a - z) / D
        out = np.zeros((order + 1,) + z.shape, dtype=np.complex128)
        fj = f.jet(w, order, min_order=min(1, min_order))
        if min_order == 0:
            out[0] = fj[0]
        if order == 0:
            return out
        u = 1.0 / D
        for nn in range(max(1, min_order), order + 1):
            acc = bell[nn][nn] * fj[nn]
            for k in range(nn - 1, 0, -1):
                acc *= u
                acc += bell[nn][k] * fj[k]
            for _ in range(nn + 1):
                acc *= u
            out[nn] = acc
        return out

    return AnalyticFn(evaluator, max_order=max_order,
                      description=f"{f.description} o sigma_{m.param:g}")


# Fixed Gauss-Legendre panels for the radial antiderivative path.  Panels are
# graded geometrically toward t = 1 so integrands that peak when |z| -> 1
# (Koebe-type derivatives) stay resolved.  Two independent rules (24- and
# 16-point per panel) are evaluated together; their disagreement is the
# convergence check.
_PANEL_EDGES = np.asarray([0.0] + [1.0 - 0.5 ** m for m in range(1, 15)] + [1.0])


def _panel_rule(npts):
    ts, ws = zip(*gauss_legendre_panels(
        zip(_PANEL_EDGES[:-1], _PANEL_EDGES[1:]), npts))
    return np.concatenate(ts), np.concatenate(ws)


_PATH_T24, _PATH_W24 = _panel_rule(24)
_PATH_T16, _PATH_W16 = _panel_rule(16)
_PATH_T = np.concatenate([_PATH_T24, _PATH_T16])
_ANTIDERIV_CHUNK = 4096


def _radial_value(f: AnalyticFn, base: complex) -> Callable:
    """z -> base + z int_0^1 f(tz) dt on the graded panels, checked against
    the coarser rule."""
    n24 = _PATH_T24.size

    def _value_chunk(z):
        tz = np.multiply.outer(_PATH_T, z)
        vals = f.jet(tz, 0)[0]
        fine = z * np.tensordot(_PATH_W24, vals[:n24], axes=(0, 0))
        check = z * np.tensordot(_PATH_W16, vals[n24:], axes=(0, 0))
        err = np.abs(fine - check)
        scale_ = np.maximum(np.abs(fine), 1.0)
        if np.any(err > 1e-7 * scale_):
            raise AccuracyError(
                "antiderivative quadrature did not converge on the radial segment"
            )
        return base + fine

    def _value(z):
        flat = np.ravel(z)
        if flat.size <= _ANTIDERIV_CHUNK:
            return _value_chunk(z)
        parts = [_value_chunk(flat[i:i + _ANTIDERIV_CHUNK])
                 for i in range(0, flat.size, _ANTIDERIV_CHUNK)]
        return np.concatenate(parts).reshape(np.shape(z))

    return _value


def antiderivative(f: AnalyticFn, base_value: complex = 0.0) -> AnalyticFn:
    """F with F(0) = base_value and F' = f.

    For a log-free :class:`RationalLog` F is exact: (1-bz)^-m integrates to
    ((1-bz)^-(m-1) - 1)/(b(m-1)) for m >= 2 and to -log(1-bz)/b for m = 1.
    Otherwise F(z) = base + z * int_0^1 f(t z) dt along the radial segment;
    the disk is simply connected so the value is path independent.  That
    integral uses graded composite Gauss-Legendre panels and verifies
    convergence against an independent coarser rule; disagreement raises
    :class:`AccuracyError`.  Either way jets of order >= 1 are delegated to
    ``f`` (and a jet request with min_order >= 1 evaluates no order-0 value).
    """
    base = complex(base_value)
    label = f"antiderivative of {f.description}"
    exact = isinstance(f, RationalLog) and not f.has_logs
    if exact:
        terms = {(b, m - 1): (c / (b * (m - 1)) if m > 1 else -c / b)
                 for (b, m), c in f.terms.items()}
        # the constant makes F(0) = P(0) + sum c = base exactly
        coeffs = [base - _exact_sum(c for (_, m), c in terms.items() if m)] \
            + [c / (i + 1) for i, c in enumerate(f.coeffs)]

        def _value(z):
            return F.terms_jet(z, 0, 0)[0]
    else:
        _value = _radial_value(f, base)

    def evaluator(z, order, min_order):
        out = np.zeros((order + 1,) + z.shape, dtype=np.complex128)
        if min_order == 0:
            out[0] = _value(z)
        if order >= 1:
            out[1:] = f.jet(z, order - 1, max(0, min_order - 1))
        return out

    if exact:
        F = RationalLog(coeffs, terms, label, f.max_order + 1, evaluator)
        return F
    return AnalyticFn(evaluator, max_order=f.max_order + 1, description=label)
