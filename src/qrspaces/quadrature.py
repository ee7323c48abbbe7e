"""Weighted integration over the unit disk.

All rules live in the substituted radial variable t = r^2, where

    int_D f(z) (1-|z|^2)^alpha dA(z)
        = 1/2 int_0^1 (1-t)^alpha [ int_0^{2pi} f(sqrt(t) e^{i theta}) dtheta ] dt.

The radial factor (1-t)^alpha is exact in a Gauss-Jacobi(alpha, 0) rule, the
angular integral uses the periodic trapezoid rule (exact for e^{ik theta},
|k| < M).  Moving Mobius weights (1-|sigma_a z|^2)^s are reduced to the
bounded ratio (1-|a|^2)^s / |1 - conj(a) z|^{2s} with the (1-t)^s part folded
into the Jacobi exponent.  ``mobius_factor`` computes that ratio on a polar
grid z[i, j] = rho_i e^(i theta_j), theta_j = ``angular_nodes(count)[j]``
(every caller's grid), from the node radii rho and the count alone, as

    (u_i / (v_i + sin^2((theta_j - phi)/2)))^s,
    u_i = (1-r)(1+r) / (4 r rho_i),  v_i = (1 - r rho_i)^2 / (4 r rho_i),

for a = r e^(i phi): two grid passes of real arithmetic on sums of
nonnegative terms, so it stays accurate to a few ulps as |a| and rho
approach 1.  A ``PolarTable`` holds bases on such a grid with the radial
weights of their rule, and is the one contraction: each base with the
factor by one BLAS dot per row (``_row_means``), so no grid-sized product
is formed, then the row means with the weights.  Its direct kernel and the a = r turn of its ring kernel
run both steps on the same arrays, which keeps the two bit-identical.
On a table of bases even in theta, the integrand at a real a is even in
theta too: the factor is computed on the columns 0..count/2 alone, the
row sums fold onto them, and a ring of an even number of turns takes a
half-width block product and computes only the turns up to turns/2.
It counts its work in a ``table_work`` ledger that its owner may share
among its tables, as the sup engine and the truncation ladder do.
Blocked dots, like the truncation ladder's sums of per-panel integrals in
rule order, keep the forward-error bound of recursive summation,
n u sum |b mob| (Higham, Accuracy and Stability of Numerical Algorithms,
2002, sec. 3.1), far inside the 1e-12 the values are held to.

The Green weight g(z,a)^s has one fixed rule in t, split at 1/2: a Gauss
rule for its own log-singular weight on the cap (``green_cap_rule``) and
Gauss-Jacobi beyond, with node doubling on the same angles as its error.

Near-boundary automorphism parameters make the angular factor oscillate on
the scale 1-|a|; the module picks the angular node count from a fixed nested
ladder so those integrals stay resolved without repricing interior ones.

Every integrand on a polar grid z[i, j] = rho_i e^(i theta_j) is evaluated
by one walker, ``_row_blocks``, which hands out the grid in blocks of
max(1, ``ROW_BLOCK_POINTS`` // count) rows.  ``polar_tabulate`` writes
each block's base values straight into preallocated (rows, count) arrays,
the bases of a ``PolarTable``: the sup engine's master and node-doubling
grids, the truncation ladder's panels and the Mobius-weight integral (and
so ``disk_integral_alpha``, its s = 0 case) each build one.  A table's
bases and its Mobius factor buffer are the planes of one array, so that
the largest block a sup problem frees is more than half of all it frees
(the reason is in ``PolarTable``).  Bases built
from a map with real coefficients are even in theta
(f(conj z) = conj(f(z))), and the periodic trapezoid rule keeps that
symmetry exactly (Trefethen & Weideman, SIAM Rev. 56, 2014): their table
evaluates the columns 0..count/2 and fills the others as mirror images,
as ``mobius_factor`` does for a real a on the whole circle.  Only the
caller that built the tabulator from the map knows this
(``analytic.real_coefficients``); a bare callable gets every column.  ``polar_row_means`` keeps only each row's
mean, for integrands that change with a and so are evaluated per a
rather than tabulated once (the Green weight here, the composition path of
``spaces``).  Every value is pointwise, so the results do not depend on
the blocking, and no grid-sized temporary is made.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .errors import AccuracyError, InvalidParameterError
from .mobius import MobiusMap

DEFAULT_RADIAL = 128
DEFAULT_ANGULAR = 256
DEFAULT_REFINE_CAP = 4
DEFAULT_REL_TOL = 1e-8

# Nested angular ladder: every entry divides the largest, so base values
# tabulated on the finest grid can be reused at every rung (a ``PolarTable``
# keeps one contiguous copy per rung).
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


# Points per row block of ``_row_blocks``: 4096 complex values are 64 KiB,
# so a block's temporaries stay in L2 and below both NumPy's 256 KiB
# temporary-elision size and glibc's default 128 KiB mmap threshold.  On a
# 2-vCPU Xeon the koebe Q(2,1,1) norm (51 per-a integrals) took 0.52-0.57 s
# at 4096 points, in a fresh process and after large allocations alike;
# 8192 took 0.41-0.52 s after a large allocation but 1.2-1.5 s in a fresh
# process, where each block maps and faults in its temporaries anew, and
# 2048 took 0.58-0.78 s.
ROW_BLOCK_POINTS = 4096


def _row_blocks(rho, eig):
    """(rows, z) for each row block of the polar grid z[i, j] = rho[i] *
    eig[j]: ``rows`` is the slice of the block's rows, ``z`` its points,
    formed by that product, as every grid of the package is.  Each block
    holds max(1, ROW_BLOCK_POINTS // count) rows, read at call time."""
    step = max(1, ROW_BLOCK_POINTS // eig.size)
    for lo in range(0, rho.size, step):
        yield slice(lo, lo + step), rho[lo:lo + step, None] * eig[None, :]


def _mirror(arr, cols: int):
    """Fill the columns of the (rows, count) array ``arr`` past its first
    ``cols`` = count // 2 + 1, column j with column count - j: the values
    of rows even in theta_j = 2 pi j/count."""
    # a slice assignment would copy the reversed columns first (their memory
    # bounds overlap the target's); a ufunc checks for a true overlap on
    # large grids and copies nothing there
    np.positive(arr[:, arr.shape[1] - cols:0:-1], out=arr[:, cols:])


def polar_tabulate(tabulate, rho, eig, count: int) -> tuple:
    """(bases, spare): the real bases of ``tabulate(z)``, a sequence of
    arrays of z's shape, on the polar grid z[i, j] = rho[i] * eig[j], one
    (rows, count) float64 array per base, filled a row block at a time, and
    one more such array, unset, for a ``PolarTable``'s Mobius factor.  All
    are planes of one (bases + 1, rows, count) array (why: ``PolarTable``).
    ``eig`` holds the first columns' nodes: all ``count`` of them, or, for
    bases even in theta, the first count // 2 + 1, whose values fill the
    other columns as their mirror images (``_mirror``).

    A base value depends on its point alone, so the arrays hold the bits a
    call on the whole grid would give, and an exception a block raises
    leaves with its type.
    """
    planes = None
    for rows, z in _row_blocks(rho, eig):
        values = tabulate(z)
        if any(np.shape(b) != z.shape for b in values):
            raise InvalidParameterError("tabulate must return values on the grid")
        if planes is None:
            planes = list(np.empty((len(values) + 1, rho.size, count)))
        for base, b in zip(planes, values):
            base[rows, :eig.size] = b
    *bases, spare = planes
    if eig.size < count:
        for base in bases:
            _mirror(base, eig.size)
    return bases, spare


def polar_row_means(integrand, rho, eig) -> np.ndarray:
    """Row means of the real values ``integrand(z)`` on the polar grid
    z[i, j] = rho[i] * eig[j], computed a row block at a time
    (``_row_blocks``).  Each row's mean is taken over that row alone, so
    the means do not depend on the blocking.  Contract them with
    ``_radial_contract`` (or any radial rule on rho^2).
    """
    means = np.empty(rho.size)
    for rows, z in _row_blocks(rho, eig):
        means[rows] = np.asarray(integrand(z), dtype=np.float64).mean(axis=1)
    return means


def angular_count_for(rho: float, pole_exponent: float,
                      base: int = DEFAULT_ANGULAR) -> int:
    """Smallest ladder entry resolving a |1 - conj(a) z|^(-2 e) factor.

    Trapezoid aliasing of that factor decays like rho^M M^(2e-1); demand
    rho^M * M^max(2e-1, 1) <= 1e-10, else settle for the ladder cap (the
    (1-|a|^2)^s prefactor suppresses what is left).
    """
    rho = float(abs(rho))
    if rho <= 0.0:
        return base
    growth = max(2.0 * pole_exponent - 1.0, 1.0)
    for m in ANGULAR_LADDER:
        if m < base:
            continue
        if m * math.log(rho) * -1.0 >= growth * math.log(m) + 10.0 * math.log(10.0):
            return m
    return ANGULAR_LADDER[-1]


def check_angular(angular: int):
    """A base angular count of the sup engine, composition, Green and
    membership paths must be a rung of ``ANGULAR_LADDER``: every a != 0 gets
    at least the first rung, so a coarser count would reach a = 0 alone."""
    if angular not in ANGULAR_LADDER:
        raise InvalidParameterError(
            f"angular node count must be one of {ANGULAR_LADDER}, got {angular}")


def disk_integral_alpha(integrand, alpha: float,
                        radial: int = DEFAULT_RADIAL,
                        angular: int = DEFAULT_ANGULAR) -> IntegralResult:
    """int_D integrand(z) (1-|z|^2)^alpha dA(z) for alpha > -1.

    ``integrand`` must accept a complex ndarray and return (nonnegative)
    reals of the same shape.  This is ``disk_integral_mobius_weight`` at
    s = 0 and a = 0, where the Mobius weight is 1: the same rule, node
    doubling and error estimate.
    """
    if alpha <= -1.0:
        raise InvalidParameterError("alpha must exceed -1")
    return disk_integral_mobius_weight(integrand, alpha, 0.0, MobiusMap(0.0),
                                       radial, angular)


def _check_mobius_params(q: float, s: float):
    if q <= -2.0:
        raise InvalidParameterError("q must exceed -2")
    if s < 0.0:
        raise InvalidParameterError("s must be nonnegative")
    if q + s <= -1.0:
        raise InvalidParameterError("q + s must exceed -1")


def mobius_factor(a: complex, s: float, rho, mob, count=None):
    """(1-|a|^2)^s / |1 - conj(a) z|^(2s) on the polar grid z[i, j] =
    rho_i e^(i theta_j), theta_j = ``angular_nodes(count)[j]``, written into
    the columns j < mob.shape[1] of the (rho.size, cols) array ``mob``
    (``count`` defaults to cols, the whole circle); the scalar 1.0 if s = 0
    or a = 0, where the factor is identically 1.  With a = r e^(i phi),

        |1 - conj(a) z|^2 = (1 - r rho)^2 + 4 r rho sin^2((theta - phi)/2),

    so, divided through by 4 r rho_i, the ratio is

        u_i / (v_i + sin^2((theta_j - phi)/2)),
        u_i = (1-r)(1+r) / (4 r rho_i),  v_i = (1 - r rho_i)^2 / (4 r rho_i):

    two grid passes, an add and a divide, then ``**= s`` unless s = 1 (by
    NumPy's scalar fast path, a square root, at s = 1/2).  Every term is
    nonnegative, and 1 - r rho = (1 - r) + r (1 - rho) holds no
    cancellation either, so u_i and v_i are accurate to a few ulps, their
    sum with sin^2 too, and so is every node however close r and rho come
    to 1 (the expanded 1 - 2 Re(conj(a) z) + r^2 rho^2 loses about 1e-9
    relative at r = 1 - 2^-12).  4 r rho is floored at 1e-300, which keeps
    u and v finite for a tiny a: below it the sin^2 term is under 1e-300 of
    (1 - r rho)^2 either way.  For real a the factor is even in theta: a
    caller that only needs the half circle passes count/2 + 1 columns (an
    even ``PolarTable``), and on the whole circle of an even count only the
    columns 0..count/2 are computed and the rest mirrored (``_mirror``).
    """
    a = complex(a)
    if s == 0.0 or a == 0.0:
        return 1.0
    cols = mob.shape[1]
    count = count or cols
    if cols == count and a.imag == 0.0 and count % 2 == 0:
        cols = count // 2 + 1
    r, phi = abs(a), math.atan2(a.imag, a.real)
    left = mob[:, :cols]
    sin2 = np.sin(0.5 * (angular_nodes(count)[:cols] - phi)) ** 2
    near = (1.0 - r) + r * (1.0 - rho)
    d = np.maximum((4.0 * r) * rho, 1e-300)
    np.add((near * near / d)[:, None], sin2, out=left)
    np.divide(((1.0 - r) * (1.0 + r) / d)[:, None], left, out=left)
    if s != 1.0:
        left **= s
    if cols < mob.shape[1]:
        _mirror(mob, cols)
    return mob


def _radial_contract(w, row_means) -> float:
    return float(0.5 * np.dot(w, row_means * (2.0 * np.pi)))


def _row_means(b, mob) -> np.ndarray:
    """The row means of b * mob, for a Mobius factor ``mob`` of b's shape:
    one BLAS dot per row, divided by the count, so no product array is
    made.  The scalar factor 1.0 (s = 0 or a = 0) takes b's plain row means.
    A half factor, the columns 0..count/2 of a factor even in theta, pairs
    with a base even in theta: the columns past count/2 repeat 1..count/2-1,
    so the trapezoid sum folds onto the half circle with weights
    (1, 2, ..., 2, 1).
    """
    if isinstance(mob, float):
        return b.mean(axis=1)
    count = b.shape[1]
    if mob.shape[1] == count:
        return np.vecdot(b, mob) / count
    h = count // 2
    sums = 2.0 * np.vecdot(b[:, 1:h], mob[:, 1:h])
    sums += b[:, 0] * mob[:, 0]
    sums += b[:, h] * mob[:, h]
    return sums / count


@functools.lru_cache(maxsize=None)
def _cyclic_diagonals(turns: int) -> np.ndarray:
    """Flat indices of the cyclic diagonals of a (turns, turns) matrix G:
    row k picks G[m, (m - k) mod turns], m < turns."""
    m = np.arange(turns)
    return m[None, :] * turns + (m[None, :] - m[:, None]) % turns


@functools.lru_cache(maxsize=None)
def _folded_diagonals(turns: int) -> np.ndarray:
    """Flat indices into a (turns, turns/2) matrix G of the folded ring:
    row k <= turns/2 picks G[(q + k) mod turns, q] and then
    G[(q - k) mod turns, q], q < turns/2."""
    half = turns // 2
    q = np.tile(np.arange(half), 2)
    sign = np.repeat([1, -1], half)
    k = np.arange(half + 1)[:, None]
    return (q + sign * k) % turns * half + q


def table_work() -> dict:
    """A ``PolarTable`` work ledger, every count at 0."""
    return dict.fromkeys(
        ("points", "factor_nodes", "rings", "copies", "copied_values"), 0)


class PolarTable:
    """Bases tabulated once on the polar grid z[i, j] = rho_i e^(i theta_j),
    theta_j = ``angular_nodes(count)[j]`` (``polar_tabulate``), with the
    radial weights w of their rule in t = rho^2, and their integrals with
    the Mobius factor at a on ``count`` angles or on any
    power-of-two divisor c of it.  The nodes at c angles are every
    (count/c)-th of those at ``count``, bit for bit: the bases at c are
    contiguous copies of those columns, made once per c when first asked
    for, since a strided view would change BLAS's summation order; the
    factor at c is computed at c, into a leading view of one buffer the
    size of a base.

    The bases and that buffer are the planes of one array
    (``polar_tabulate``).  glibc raises its mmap threshold to the size of
    each mmapped block it frees (up to 32 MiB) and keeps a heap top below
    twice that.  A conjugate-pair problem on 128 x 2048 nodes frees about
    10 MB, 6.3 MB of it as this one block, so the heap outlives the problem
    and the next one reuses its pages; as three 2.1 MB arrays each problem
    faulted about 2,300 pages in anew.
    The rung copies stay lazy and apart: a table that never leaves its top
    count would hold room for them for nothing.

    ``even`` says that every base is even in theta, as the bases built
    from a map with real coefficients are (``analytic.real_coefficients``):
    then only the columns 0..count/2 are tabulated, and the others are
    their mirror images, and at a real a on an even count the kernels
    compute the factor on those columns alone (``_folds``).  Only a caller
    that built ``tabulate`` from such a map knows it; the default
    tabulates every column.

    The table counts its work in ``work``, a ``table_work`` ledger that its
    owner may pass in to share among its tables (a fresh one otherwise):
    ``points`` tabulated (rows x (count/2 + 1) on an even table),
    ``factor_nodes``, the size of every factor array computed (rows x
    (count/2 + 1) for a folded one; the scalar 1.0 at a = 0 or s = 0
    counts nothing), ``rings`` run, and the rung
    ``copies`` with their ``copied_values``.
    """

    def __init__(self, tabulate, rho, w, count: int, work=None,
                 even: bool = False):
        self.rho = rho
        self.w = w
        self.even = even
        self.work = table_work() if work is None else work
        cols = count // 2 + 1 if even else count
        self.bases, factor = polar_tabulate(
            tabulate, rho, np.exp(1j * angular_nodes(count))[:cols], count)
        self.work["points"] += rho.size * cols
        self._rungs = {count: self.bases}
        self._factor = factor.reshape(-1)

    def _folds(self, a: complex, count: int) -> bool:
        """Whether the integrand at a is even in theta on ``count`` angles:
        even bases, a real a and an even count."""
        return self.even and complex(a).imag == 0.0 and count % 2 == 0

    def _at(self, a: complex, s: float, count: int, half: bool) -> tuple:
        """The bases at ``count`` angles and the Mobius factor at a there:
        its columns 0..count/2 alone if ``half``."""
        if count not in self._rungs:
            stride = self.bases[0].shape[1] // count
            self._rungs[count] = [np.ascontiguousarray(b[:, ::stride])
                                  for b in self.bases]
            self.work["copies"] += len(self.bases)
            self.work["copied_values"] += len(self.bases) * self.rho.size * count
        cols = count // 2 + 1 if half else count
        buf = self._factor[:self.rho.size * cols].reshape(self.rho.size, cols)
        mob = mobius_factor(a, s, self.rho, buf, count)
        if mob is buf:
            self.work["factor_nodes"] += buf.size
        return self._rungs[count], mob

    def integrals(self, a: complex, s: float, count: int) -> list:
        """Per base, the integral of base * (1-|a|^2)^s / |1 - conj(a) z|^(2s)
        on ``count`` angles.  At s = 0 and at a = 0 the factor is 1.0 and
        the bases' plain row means are used.  Where the integrand is even in
        theta (``_folds``) the factor is computed on the half circle and the
        row sums fold onto it (``_row_means``)."""
        bases, mob = self._at(a, s, count, self._folds(a, count))
        return [_radial_contract(self.w, _row_means(b, mob)) for b in bases]

    def ring_integrals(self, r: float, s: float, count: int, turns: int) -> list:
        """Per base, the ``integrals`` at a = r e^(2 pi i k/turns), k < turns
        (r > 0, s != 0).  A rotation of a by 2 pi k/turns shifts the factor
        by k L columns, L = count/turns, so the factor is computed once, at
        a = r, and the base viewed as (radial, turns, L) times the factor
        viewed as (radial, L, turns) pairs every base block with every
        factor block, with no grid-sized temporary while turns^2 <= count.
        One dot with the weights contracts that to G, and turn k is pi/count
        times the sum of G's k-th cyclic diagonal.  k = 0 is ``integrals``
        at r, bit for bit; the others agree with it to about 1e-15 relative.

        Where the integrand at r is even in theta (``_folds``) and ``turns``
        is even, the factor is computed on the half circle, and the product
        takes its turns/2 blocks alone: G is (turns, turns/2).  The factor's
        columns past count/2 mirror 1..count/2-1, so turn k is
        sum_q G[q+k, q] + G[q-k, q], less the j = 0 column that sum counts
        twice, plus the j = count/2 column it misses; turns k <= turns/2 are
        computed, and turn turns - k is turn k, bit for bit, as
        I(conj a) = I(a) there.
        """
        if count % turns:
            raise InvalidParameterError(
                f"{count} angular nodes do not split into {turns} turns")
        half = self._folds(r, count)
        fold = half and turns % 2 == 0
        bases, mob = self._at(r, s, count, fold)
        self.work["rings"] += 1
        rows, span = self.rho.size, count // turns
        # the half factor for turn 0, which ``integrals`` at r uses
        mob0 = mob[:, :count // 2 + 1] if half else mob
        if fold:
            m3 = mob[:, :count // 2].reshape(rows, turns // 2, span)
            diagonals = _folded_diagonals(turns)
            edges = self.w * mob[:, 0], self.w * mob[:, count // 2]
        else:
            m3 = mob.reshape(rows, turns, span)
            diagonals = _cyclic_diagonals(turns)
        m3 = m3.transpose(0, 2, 1)
        per_base = []
        for b in bases:
            g = np.dot(self.w, np.matmul(b.reshape(rows, turns, span),
                                         m3).reshape(rows, -1))
            sums = g[diagonals].sum(axis=1)
            if fold:
                # the base's columns k L, k <= turns/2
                cols = b[:, :count // 2 + 1:span]
                sums -= np.dot(edges[0], cols)
                sums += np.dot(edges[1], cols)[::-1]
                sums = np.concatenate([sums, sums[-2:0:-1]])
            values = (sums * (np.pi / count)).tolist()
            values[0] = _radial_contract(self.w, _row_means(b, mob0))
            per_base.append(values)
        return per_base


def disk_integral_mobius_weight(integrand, q: float, s: float, m: MobiusMap,
                                radial: int = DEFAULT_RADIAL,
                                angular: int = DEFAULT_ANGULAR,
                                tol: float = DEFAULT_REL_TOL) -> IntegralResult:
    """int_D integrand(z) (1-|z|^2)^q (1-|sigma_a z|^2)^s dA(z), s >= 0.

    The rule absorbs (1-t)^(q+s) radially; the remaining bounded factor is
    (1-|a|^2)^s / |1 - conj(a) z|^{2s}, integrated with the integrand on a
    ``PolarTable`` of each rule (at s = 0 or a = 0 the factor is 1, and the
    table takes its rows' plain means).  Both node counts double, up to
    ``DEFAULT_REFINE_CAP`` times, until the value changes by at most ``tol``
    of itself; that change, floored at 1e-12 of the value, is the error
    estimate, and ``refinements_used`` the doublings taken.
    """
    _check_mobius_params(q, s)
    a = m.param
    angular = angular_count_for(abs(a), s, angular)
    previous = None
    for k in range(DEFAULT_REFINE_CAP + 1):
        nr, na = radial * 2 ** k, angular * 2 ** k
        grid = build_grid(nr, q + s, na)
        value = PolarTable(lambda z: (integrand(z),), np.sqrt(grid.radial_nodes),
                           grid.radial_weights, na).integrals(a, s, na)[0]
        if previous is not None:
            err = abs(value - previous)
            if err <= max(tol * abs(value), 1e-300):
                # floor the estimate at summation noise so it stays an upper bound
                return IntegralResult(value, max(err, 1e-12 * abs(value)), k)
        previous = value
    raise AccuracyError(
        f"disk integral did not converge within {DEFAULT_REFINE_CAP} "
        f"refinements (last change {err:.3e})"
    )


def gauss_legendre_panels(spans, npts: int) -> list:
    """The ``npts``-node Gauss-Legendre rule on each (lo, hi) of ``spans``,
    in order, as (t, w): t = lo + h (x + 1), w = h w_GL, h = (hi - lo)/2."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return [(lo + 0.5 * (hi - lo) * (x + 1.0), 0.5 * (hi - lo) * w)
            for lo, hi in spans]


# --- Green-weight integrals -------------------------------------------------
#
# Pulled back through w = sigma_a(z) the integral becomes
#
#   (1-|a|^2)^(q+2) int_D f(sigma_a w) (1-|w|^2)^q (-log|w|)^s
#                         / |1 - conj(a) w|^(2q+4) dA(w),
#
# with a purely radial log singularity at w = 0.  On [1/2, 1) in t = |w|^2,
# (-log t)^s = (1-t)^s ((-log t)/(1-t))^s is Jacobi(q+s) times a factor
# analytic there; the cap [0, 1/2] has a Gauss rule of its own weight.

GREEN_CAP_NODES = 32


@functools.lru_cache(maxsize=32)
def green_cap_rule(n: int, q: float, s: float):
    """Nodes/weights of the n-node Gauss rule for
    int_0^(1/2) (1-t)^q (-1/2 log t)^s h(t) dt.

    Lanczos with full reorthogonalization gives the Jacobi matrix of the
    weight discretized by 64-node Gauss-Legendre panels on the 60 dyadic
    intervals [2^-(k+1), 2^-k], k < 59, and [0, 2^-60], and Golub-Welsch
    the rule (Golub & Welsch, Math. Comp. 23, 1969; Gautschi, Orthogonal
    Polynomials, 2004, sec. 2.2).  It runs in x = 4t - 1 on [-1, 1], whose
    rounding is half that in t - 1/2: the moments of degree < 2n then hold
    to 4e-14 for n <= 64.
    """
    edges = np.append(0.5 ** np.arange(1, 61), 0.0)
    # largest t first, the order the sums below are taken in
    ts, ws = zip(*gauss_legendre_panels(zip(edges[1:], edges[:-1]), 64))
    t = np.concatenate(ts)
    weight = np.concatenate(ws) * (1.0 - t) ** q * (-0.5 * np.log(t)) ** s
    x = 4.0 * t - 1.0
    basis = np.empty((n, t.size))
    alpha, beta = np.empty(n), np.empty(n)
    v = np.sqrt(weight / weight.sum())
    for k in range(n):
        basis[k] = v
        u = x * v - (beta[k - 1] * basis[k - 1] if k else 0.0)
        alpha[k] = v @ u
        u -= alpha[k] * v
        for _ in range(2):
            u -= basis[:k + 1].T @ (basis[:k + 1] @ u)
        beta[k] = np.linalg.norm(u)
        v = u / beta[k]
    # a dense eigh: importing scipy.linalg for its tridiagonal one would add
    # about 6 MB and 0.1 s to every process
    nodes, vectors = np.linalg.eigh(
        np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
    return 0.25 * (1.0 + nodes), weight.sum() * vectors[0] ** 2


def disk_integral_green(integrand, q: float, s: float, m: MobiusMap,
                        radial: int = DEFAULT_RADIAL,
                        angular: int = DEFAULT_ANGULAR) -> IntegralResult:
    """int_D integrand(z) (1-|z|^2)^q g(z,a)^s dA(z), g = -log|sigma_a|.

    The value is the rule of ``GREEN_CAP_NODES`` cap and ``radial`` annulus
    nodes; the error estimate is its change when both counts double, on the
    same angles (``refinements_used`` is that one doubling).  A change above
    1e-7 of the value raises :class:`AccuracyError`: the integral is not
    resolved, as for an integrand growing too fast at the boundary.  One
    ``polar_row_means`` walk per rule takes sigma_a(w) and
    |1 - conj(a) w|^(2q+4) from one denominator per block.
    """
    _check_mobius_params(q, s)
    a = m.param
    rho = abs(a)
    pref = (1.0 - rho ** 2) ** (q + 2.0)
    na = angular_count_for(rho, q + 2.0, angular)
    eig = np.exp(1j * angular_nodes(na))
    abar = np.conj(a)

    def pulled_back(w):
        # sigma_a(w) by the division ``mobius.sigma`` makes, and |D|^(2q+4),
        # from one D = 1 - conj(a) w
        D = 1.0 - abar * w
        vals = np.asarray(integrand((a - w) / D), dtype=np.float64)
        return vals / np.abs(D) ** (2.0 * q + 4.0)

    def evaluate(cap_nodes, nr):
        grid = build_grid(nr, q + s, angular)  # validates nr and angular
        ct, cw = green_cap_rule(cap_nodes, q, s)
        t, wj = 0.5 + 0.5 * grid.radial_nodes, grid.radial_weights
        means = polar_row_means(pulled_back, np.sqrt(np.concatenate([ct, t])), eig)
        log_corr = (0.5 * (-np.log(t)) / (1.0 - t)) ** s
        ann = 0.5 ** (q + s + 1.0) * np.dot(wj, log_corr * means[cap_nodes:])
        return float(np.pi * pref * (np.dot(cw, means[:cap_nodes]) + ann))

    value = evaluate(GREEN_CAP_NODES, radial)
    err = abs(evaluate(2 * GREEN_CAP_NODES, 2 * radial) - value)
    if not err <= 1e-7 * abs(value):
        raise AccuracyError(
            f"Green-weight integral not resolved: doubling its nodes moves "
            f"{value:.6g} by {err:.3e}")
    return IntegralResult(value, max(err, 1e-12 * abs(value)), 1)


# Gauss-Legendre nodes per panel of ``truncated_panels``.
PANEL_POINTS = 24


def truncated_panels(R: float) -> list:
    """The ``PANEL_POINTS``-node Gauss-Legendre panels of t in [0, R^2], as
    ((lo, hi), t, w).

    Panels shrink geometrically toward the outer edge, where (1-t)-power
    weights and boundary-singular integrands vary fastest: for
    R = 1 - 2^-j they are the dyadic [1 - 2^(1-m), 1 - 2^-m], m < j, and a
    tail ending at R^2.  A panel's nodes and weights depend on its edges
    alone, so the radii of a truncation ladder share all but their tails.
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
    spans = list(zip(edges[:-1], edges[1:]))
    return [(span, t, w) for span, (t, w)
            in zip(spans, gauss_legendre_panels(spans, PANEL_POINTS))]


def truncated_radial_rule(R: float):
    """Composite Gauss-Legendre nodes/weights on t in [0, R^2]: the
    ``truncated_panels`` of R, concatenated."""
    panels = truncated_panels(R)
    return (np.concatenate([t for _, t, _ in panels]),
            np.concatenate([w for _, _, w in panels]))
