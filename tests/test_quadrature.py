import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from conftest import column_spy
from hypothesis import given, settings
from hypothesis import strategies as st

import qrspaces.spaces
from qrspaces import quadrature
from qrspaces.analytic import koebe, real_coefficients
from qrspaces.cli import MAP_FAMILIES, build_map
from qrspaces.errors import InvalidParameterError
from qrspaces.families import koebe_shear
from qrspaces.harmonic import wirtinger
from qrspaces.mobius import MobiusMap
from qrspaces.quadrature import (
    _jacobi_01,
    _radial_contract,
    _row_means,
    angular_count_for,
    angular_nodes,
    build_grid,
    disk_integral_alpha,
    disk_integral_green,
    disk_integral_mobius_weight,
    gauss_legendre_panels,
    green_cap_rule,
    PolarTable,
    mobius_factor,
    polar_row_means,
    polar_tabulate,
    truncated_radial_rule,
)
from qrspaces.spaces import (
    RADIUS_CAP,
    Fpqs,
    Mpqs,
    Qnpa,
    SupSearchSpec,
    WeightedSupProblem,
    _lambda_fn,
    _pow_tabulator,
    composed_integral,
    composed_rule,
    fh_pqs_norm,
)
from qrspaces.verify import _membership_values, _truncated_sup_norms


def mobius_area_series(rho):
    """int_D (1-|sigma_a z|^2) dA as a series in rho = |a|^2."""
    total, m = 0.0, 0
    while True:
        term = (m + 1) * rho ** m / (m + 2)
        total += term
        if term < 1e-18 * total or m > 200_000:
            break
        m += 1
    return (1.0 - rho) ** 2 * math.pi * total


def test_constant_alpha_oracle():
    for alpha in (0.0, 0.5, 1.0, 2.0):
        res = disk_integral_alpha(lambda z: np.ones(z.shape), alpha)
        assert res.value == pytest.approx(math.pi / (alpha + 1.0), rel=1e-13)
        assert res.abs_error_estimate < 1e-10


def test_moment_beta_oracle():
    for alpha in (0.0, 0.5, 1.0, 2.0):
        for m in range(11):
            res = disk_integral_alpha(lambda z, m=m: np.abs(z) ** (2 * m), alpha)
            oracle = math.pi * float(mpmath.beta(m + 1, alpha + 1))
            assert res.value == pytest.approx(oracle, rel=1e-12)


# the rules the benchmark pools build, as (n, alpha)
POOL_RULES = ([(8, 1.0), (16, 1.0)]
              + [(128, alpha) for alpha in (-0.5, 0.0, 0.5, 1.0, 1.5, 1.8, 2.0)]
              + [(256, alpha) for alpha in (0.0, 1.0, 2.0)])
RULE_GRID = ([(n, alpha) for n in (2, 3, 5, 31, 64, 127, 131, 257, 512)
              for alpha in (-0.99, -0.5, 0.0, 0.3, 2.5, 12.0)]
             + [(1024, 0.0), (1024, 2.5)])


@pytest.mark.parametrize("n, alpha, solver",
                         [(n, alpha, "dsterf") for n, alpha in POOL_RULES + RULE_GRID]
                         + [(n, alpha, "eigvalsh") for n, alpha in POOL_RULES])
def test_jacobi_rule_is_scipys(monkeypatch, n, alpha, solver):
    # the nodes are SciPy's bit for bit, so every gated value keeps its
    # bits; the weights, scaled to the zeroth moment in another order, stay
    # within 32 ulps.  So they are where no dsterf is found, too.
    special = pytest.importorskip("scipy.special")
    if solver == "eigvalsh":
        monkeypatch.setattr(quadrature, "_lapack_dsterf", lambda: None)
    x, w = special.roots_jacobi(n, alpha, 0.0)
    t, wt = _jacobi_01.__wrapped__(n, alpha)
    assert np.array_equal(t, 0.5 * (x + 1.0))
    w = w * 0.5 ** (alpha + 1.0)
    assert np.all(np.abs(wt - w) <= 32 * np.spacing(w))


@pytest.mark.parametrize("n", [2, 3, 17, 256])
def test_tridiagonal_eigenvalues_are_eigvalshs(n):
    rng = np.random.default_rng(n)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    d0, e0 = d.copy(), e.copy()
    assert np.array_equal(quadrature._tridiagonal_eigenvalues(d, e),
                          np.linalg.eigvalsh(dense))
    assert np.array_equal(d, d0) and np.array_equal(e, e0)


# Where the moments of the Jacobi rule miss 1e-13: SciPy's rule misses by
# as much (3.6e-12, 2.2e-10, 4.4e-13 and 3.9e-13 at k = 39).  The weights
# of the nodes nearest t = 1 carry it, and at alpha = -0.9 the last node
# holds about a third of the mass.
JACOBI_MOMENT_TOL = {(128, -0.9): 1e-11, (256, -0.9): 5e-10,
                     (128, 0.0): 1e-12, (256, 0.0): 1e-12}


@pytest.mark.parametrize("alpha", [-0.9, 0.0, 2.5])
@pytest.mark.parametrize("n", [2, 8, 128, 256])
def test_jacobi_rule_moments(n, alpha):
    # an n-node Gauss rule integrates t^k (1-t)^alpha exactly for k < 2n:
    # sum w t^k = B(k+1, alpha+1), with the sums at 30 digits so only the
    # rule's own nodes and weights are judged
    tol = JACOBI_MOMENT_TOL.get((n, alpha), 1e-13)
    t, w = _jacobi_01(n, alpha)
    assert np.all(np.diff(t) > 0.0) and 0.0 < t[0] and t[-1] < 1.0
    assert np.all(w > 0.0)
    with mpmath.workdps(30):
        t = [mpmath.mpf(float(x)) for x in t]
        terms = [mpmath.mpf(float(x)) for x in w]
        for k in range(min(2 * n, 40)):
            exact = mpmath.beta(k + 1, alpha + 1)
            assert abs(mpmath.fsum(terms) / exact - 1) <= tol, k
            terms = [term * ti for term, ti in zip(terms, t)]


def test_grid_weight_sum_invariant():
    for alpha in (0.0, 0.5, 1.0, 2.0, -0.5):
        g = build_grid(128, alpha, 256)
        assert np.all(g.radial_weights > 0)
        assert g.radial_weights.sum() == pytest.approx(1.0 / (alpha + 1.0), abs=1e-13)


def test_angular_exactness_geometric():
    # int_D |1 - conj(a) z|^-2 dA = pi * (-log(1-rho)) / rho, rho = |a|^2
    for a in (0.3, 0.6j, -0.5 + 0.4j):
        rho = abs(a) ** 2
        res = disk_integral_alpha(
            lambda z: 1.0 / np.abs(1.0 - np.conj(a) * z) ** 2, 0.0
        )
        assert res.value == pytest.approx(-math.pi * math.log(1 - rho) / rho, rel=1e-12)


def test_invalid_alpha():
    with pytest.raises(InvalidParameterError):
        disk_integral_alpha(lambda z: np.ones(z.shape), -1.0)


def test_mobius_weight_origin():
    res = disk_integral_mobius_weight(
        lambda z: np.ones(z.shape), 0.0, 1.0, MobiusMap(0.0)
    )
    assert res.value == pytest.approx(math.pi / 2.0, rel=1e-13)


def test_mobius_weight_series_oracle():
    a = 0.5
    res = disk_integral_mobius_weight(
        lambda z: np.ones(z.shape), 0.0, 1.0, MobiusMap(a)
    )
    assert res.value == pytest.approx(mobius_area_series(abs(a) ** 2), rel=1e-12)


def test_mobius_weight_extreme_parameter():
    # near-boundary automorphism parameter: the ladder must keep this sane
    a = 1.0 - 2.0 ** -10
    res = disk_integral_mobius_weight(
        lambda z: np.ones(z.shape), 0.0, 1.0, MobiusMap(a), tol=1e-6
    )
    assert res.value == pytest.approx(mobius_area_series(abs(a) ** 2), rel=1e-6)


def test_mobius_weight_invalid_params():
    one = lambda z: np.ones(z.shape)
    with pytest.raises(InvalidParameterError):
        disk_integral_mobius_weight(one, -1.5, 0.2, MobiusMap(0.0))
    with pytest.raises(InvalidParameterError):
        disk_integral_mobius_weight(one, 0.0, -1e-3, MobiusMap(0.0))
    with pytest.raises(InvalidParameterError):
        disk_integral_mobius_weight(one, 0.0, -1.0, MobiusMap(0.0))
    with pytest.raises(InvalidParameterError):
        disk_integral_mobius_weight(one, -2.5, 1.0, MobiusMap(0.0))


@pytest.mark.parametrize("alpha", [0.0, 0.5, -0.5, 2.0])
@pytest.mark.parametrize("a", [0.0, 0.5j])
def test_mobius_weight_at_s_0_is_disk_integral_alpha(alpha, a):
    # at s = 0 the Mobius weight is 1 for every a: the same rule, the same
    # angular count (a = 0.5j needs no more than the base count) and the
    # same doublings as disk_integral_alpha, bit for bit
    base = lambda z: np.abs(1.0 + 0.6 * z) ** 1.5 + np.exp(-np.abs(z) ** 2)
    res = disk_integral_mobius_weight(base, alpha, 0.0, MobiusMap(a))
    assert res == disk_integral_alpha(base, alpha)


@pytest.mark.parametrize("count", [256, 2048])
def test_table_at_a_0_s_0_is_the_row_means(count):
    # the plain row means of a PolarTable (factor 1.0) are those that
    # polar_row_means takes a row block at a time, bit for bit, also on 131
    # radial nodes, which no block size at either count divides; so are
    # their contractions
    g = build_grid(131, 0.5, count)
    rho, eig = np.sqrt(g.radial_nodes), np.exp(1j * angular_nodes(count))
    base = lambda z: np.abs(z.real - 0.3) ** 0.5 + np.abs(np.sin(3.0 * z.imag))
    table = PolarTable(lambda z: (base(z),), rho, g.radial_weights, count)
    means = polar_row_means(base, rho, eig)
    assert np.array_equal(_row_means(table.bases[0], 1.0), means)
    assert table.integrals(0.0, 0.0, count)[0] == _radial_contract(
        g.radial_weights, means)


def test_green_weight_at_s_0_is_the_area():
    # g(z,a)^0 = 1: the pulled-back integral of 1 is the disk's area
    res = disk_integral_green(lambda z: np.ones(z.shape), 0.0, 0.0,
                              MobiusMap(0.5))
    assert res.value == pytest.approx(math.pi, rel=1e-13)
    assert abs(res.value - math.pi) <= 2.0 * res.abs_error_estimate + 1e-13 * math.pi


def test_green_origin_oracle():
    # int_D (-log|z|) dA = 2 pi int_0^1 r (-log r) dr = pi/2
    res = disk_integral_green(lambda z: np.ones(z.shape), 0.0, 1.0, MobiusMap(0.0))
    assert res.value == pytest.approx(math.pi / 2.0, rel=1e-10)


def test_green_zero_integrand():
    res = disk_integral_green(lambda z: np.zeros(z.shape), 0.0, 1.0, MobiusMap(0.4))
    assert res.value == pytest.approx(0.0, abs=1e-14)


def test_green_higher_power_oracle():
    # int_D (-log|z|)^s dA = pi Gamma(s+1) / 2^s
    s = 2.0
    res = disk_integral_green(lambda z: np.ones(z.shape), 0.0, s, MobiusMap(0.0))
    assert res.value == pytest.approx(math.pi * math.gamma(s + 1) / 2 ** s, rel=1e-10)


@pytest.mark.parametrize("angular", [256, 1024])
@pytest.mark.parametrize("a", [0.5, 0.9, 0.3 + 0.4j])
def test_green_integral_oracle(a, angular):
    # int_D g(z,a) dA(z) = (pi/2)(1-|a|^2): pulled back through
    # w = sigma_a(z) it is (1-|a|^2)^2 int -log|w| |1 - conj(a) w|^-4 dA(w);
    # the angular mean of |1 - conj(a) w|^-4 is sum (k+1)^2 |a|^2k |w|^2k,
    # and 2 pi int_0^1 -log(r) r^(2k+1) dr = 2 pi/(2k+2)^2, so the series
    # sums to (pi/2) (1-|a|^2)^2 / (1-|a|^2)
    res = disk_integral_green(lambda z: np.ones(z.shape), 0.0, 1.0,
                              MobiusMap(a), angular=angular)
    exact = 0.5 * math.pi * (1.0 - abs(a) ** 2)
    assert res.value == pytest.approx(exact, rel=1e-13)
    # the node-doubling estimate bounds the true error
    assert abs(res.value - exact) <= 2.0 * res.abs_error_estimate + 1e-13 * res.value


@functools.lru_cache(maxsize=None)
def _cap_moment(k, q, s):
    """int_0^(1/2) t^k (1-t)^q (-1/2 log t)^s dt at 30 digits: with
    t = e^(-u)/2 it is 2^-(k+1) int_0^inf e^(-(k+1)u) (1 - e^(-u)/2)^q
    ((u + log 2)/2)^s du, whose integrand is smooth; past u = 80/(k+1) it
    is below 1e-34 of the whole."""
    with mpmath.workdps(30):
        half, log2 = mpmath.mpf(1) / 2, mpmath.log(2)

        def f(u):
            e = mpmath.exp(-u)
            return e ** (k + 1) * (1 - half * e) ** q * (half * (u + log2)) ** s

        return half ** (k + 1) * mpmath.quad(f, [0, mpmath.mpf(80) / (k + 1)],
                                             method="gauss-legendre")


@pytest.mark.parametrize("m", [32, 64])
@pytest.mark.parametrize("q, s", [(0, 1), (0, 2), (-0.5, 1), (1, 0.5)])
def test_green_cap_rule_moments(q, s, m):
    # an m-node Gauss rule integrates t^k exactly against its weight for
    # k < 2m; the rule's moments are summed at 30 digits, so only the
    # rule's own nodes and weights are judged
    t, w = green_cap_rule(m, q, s)
    assert t.size == m and np.all(np.diff(t) > 0.0) and np.all(w > 0.0)
    assert 0.0 < t[0] and t[-1] < 0.5
    with mpmath.workdps(30):
        t, w = [mpmath.mpf(float(x)) for x in t], [mpmath.mpf(float(x)) for x in w]
        for k in range(2 * m):
            exact = _cap_moment(k, q, s)
            moment = mpmath.fsum(wi * ti ** k for wi, ti in zip(w, t))
            assert abs(moment / exact - 1) <= 1e-13, k


def test_green_vs_mobius_cross_validation():
    # the two weight families stay within a bounded ratio across a
    one = lambda z: np.ones(z.shape)
    ratios = []
    for mod in np.linspace(0.0, 0.9, 10):
        m = MobiusMap(mod * np.exp(0.7j))
        g = disk_integral_green(one, 0.0, 1.0, m).value
        w = disk_integral_mobius_weight(one, 0.0, 1.0, m).value
        ratios.append(g / w)
    assert max(ratios) < 10.0
    assert min(ratios) > 0.1
    assert ratios[0] == pytest.approx(1.0, rel=1e-9)


def test_doubling_stability():
    base = disk_integral_alpha(lambda z: np.exp(-np.abs(z) ** 2), 0.5)
    fine = disk_integral_alpha(
        lambda z: np.exp(-np.abs(z) ** 2), 0.5, radial=256, angular=512
    )
    assert abs(fine.value - base.value) <= max(base.abs_error_estimate, 1e-13)


def test_angular_ladder_monotone():
    assert angular_count_for(0.0, 1.0) == 256
    assert angular_count_for(0.5, 1.0) == 256
    assert angular_count_for(1.0 - 2.0 ** -10, 1.0) == 2048


def test_gauss_legendre_panels_keep_their_spans_and_order():
    # each span's rule integrates t^k, k < 2 npts, and the panels come in
    # the order of their spans, largest t first here
    spans = [(0.5, 1.0), (0.25, 0.5), (0.0, 0.25)]
    panels = gauss_legendre_panels(spans, 4)
    assert len(panels) == 3
    for (lo, hi), (t, w) in zip(spans, panels):
        assert lo < t.min() and t.max() < hi
        for k in range(8):
            assert np.dot(w, t ** k) == pytest.approx(
                (hi ** (k + 1) - lo ** (k + 1)) / (k + 1), rel=1e-14)


def test_truncated_integral_approaches_full():
    # sup_a int_{|z|<=R} (1-|sigma_a z|^2) dA sits at a = 0:
    # int_{|z|<=R} (1-|z|^2) dA = pi (R^2 - R^4/2)
    one = lambda z: np.ones(z.shape)
    for R in (0.5, 1.0 - 2.0 ** -6, 1.0 - 2.0 ** -9):
        ((value, _),), _ = _truncated_sup_norms(one, p=1.0, q=0.0, s=1.0,
                                                radii=[R])
        assert value == pytest.approx(math.pi * (R ** 2 - R ** 4 / 2.0), rel=1e-13)


def _integrals(table, a, s):
    # one integral per base at a on the table's own count
    count = table.bases[0].shape[1]
    return tuple(table.integrals(a, s, count))


def _ring_integrals(table, r, s, turns):
    # the ring's integrals, one tuple per turn holding one value per base
    count = table.bases[0].shape[1]
    return list(zip(*table.ring_integrals(r, s, count, turns)))


def test_mobius_integrals_matches_explicit_formula():
    theta = angular_nodes(512)
    for t, w in (_jacobi_01(64, 1.5), truncated_radial_rule(1.0 - 2.0 ** -6)):
        z = np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]
        bases = [np.ones(z.shape), np.abs(1.0 + z) ** 3]
        table = PolarTable(lambda z: (np.ones(z.shape), np.abs(1.0 + z) ** 3),
                           np.sqrt(t), w, 512)
        assert all(np.array_equal(b, tb) for b, tb in zip(bases, table.bases))
        for s in (0.0, 0.5, 2.0):
            for a in (0.0, 0.3, 0.9j, -0.5 + 0.4j, 1.0 - 2.0 ** -10):
                pref = (1.0 - abs(a) ** 2) ** s
                mob = pref / np.abs(1.0 - np.conj(a) * z) ** (2.0 * s)
                got = _integrals(table, a, s)
                assert len(got) == len(bases)
                for b, value in zip(bases, got):
                    explicit = np.pi * np.sum(w[:, None] * b * mob) / len(theta)
                    assert value == pytest.approx(explicit, rel=1e-14)


def _factor_grids(j):
    # the truncation rule of R = 1 - 2^-j on the ladder's top count and the
    # engine's Jacobi rule on its top rung
    t, _ = truncated_radial_rule(1.0 - 2.0 ** -j)
    yield np.sqrt(t), 8192
    t, _ = _jacobi_01(128, 1.0)
    yield np.sqrt(t), 2048


@pytest.mark.parametrize("where", ["ring", "off-axis", "negative-axis"])
@pytest.mark.parametrize("j", [6, 10, 12])
def test_mobius_factor_matches_mpmath(j, where):
    # |a| = 1 - 2^-j; the six rows nearest rho = 1 and the 17 columns around
    # arg a, against mpmath at the float inputs: the node radius rho and
    # the node angle.  A column k > count/2 of a real a is the mirror image of
    # column count - k, so it is judged at that column's angle (which equals
    # 2 pi k/count mod 2 pi more closely than the rounded theta_k does).
    # Off the positive axis the rounding of |a| and arg a alone moves the
    # factor by about 1e-16/(1 - r rho); at a = r it enters exactly, and
    # only the arithmetic's few ulps may remain
    mpmath = pytest.importorskip("mpmath")
    r = 1.0 - 2.0 ** -j
    a = {"ring": r, "off-axis": r * complex(math.cos(2.0), math.sin(2.0)),
         "negative-axis": -r}[where]
    for rho, count in _factor_grids(j):
        theta = angular_nodes(count)
        z = rho[:, None] * np.exp(1j * theta)[None, :]
        k0 = round(math.atan2(a.imag, a.real) / (2.0 * math.pi) * count)
        cols = [(k0 + d) % count for d in range(-8, 9)]
        rows = range(len(rho) - 6, len(rho))
        for s in (0.5, 1.0, 2.0):
            mob = mobius_factor(a, s, rho, np.empty(z.shape))
            naive = ((1.0 - abs(a) ** 2) / (1.0 - 2.0 * (np.conj(a) * z).real
                                            + abs(a * rho[:, None]) ** 2)) ** s
            worst = worst_naive = 0.0
            with mpmath.workdps(40):
                am = mpmath.mpc(complex(a))
                for k in cols:
                    node = count - k if a.imag == 0.0 and 2 * k > count else k
                    for i in rows:
                        zm = mpmath.mpf(rho[i]) * mpmath.expj(theta[node])
                        exact = ((1 - abs(am) ** 2)
                                 / abs(1 - mpmath.conj(am) * zm) ** 2) ** s
                        worst = max(worst, float(abs(mob[i, k] / exact - 1)))
                        worst_naive = max(worst_naive,
                                          float(abs(naive[i, node] / exact - 1)))
            assert worst <= (1e-14 if where == "ring" else 1e-12), (
                count, s, worst)
            if j >= 10:
                # the expanded real form cancels near the boundary
                assert worst_naive > 1e-12, (count, s, worst_naive)


@pytest.mark.parametrize("count", [256, 2048])
def test_mobius_factor_mirror_matches_unmirrored_formula(count):
    # for real a >= 0 on an even count, the columns past count/2 are mirror
    # copies; the unmirrored formula, on every column's angle reduced to
    # (-pi, pi], agrees within 1e-15, and a shift of the mirror by one
    # column would not
    k = np.arange(count)
    reduced = 2.0 * np.pi * np.where(2 * k <= count, k, k - count) / count
    t, _ = truncated_radial_rule(1.0 - 2.0 ** -12)
    rho = np.sqrt(t)
    mob = np.empty((rho.size, count))
    for i in (1, 3, 6, 9, 12):
        r = 1.0 - 2.0 ** -i
        near = (1.0 - r) + r * (1.0 - rho)
        den = (near ** 2)[:, None] + (4.0 * r * rho)[:, None] * np.sin(
            0.5 * reduced) ** 2
        for s in (0.5, 0.8, 1.0):
            formula = ((1.0 - r) * (1.0 + r) / den) ** s
            got = mobius_factor(r, s, rho, mob)
            np.testing.assert_allclose(got, formula, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("s", [1.0, 0.5, 1.5, 0.3])
def test_mobius_factor_at_lower_count_is_strided_top_factor(s):
    # a truncation-ladder panel computes each ring's factor at every count
    # it serves instead of copying every (C/c)-th column of the factor at
    # its top count C: for real r the two hold the same bits, since the
    # angles 2 pi k/c and 2 pi (k C/c)/C round alike (scaling by a power of
    # two is exact), mirrored columns included.  Panel radii of two
    # truncation rules, rings 1 - 2^-i, and C/c from 2 to 32
    top = 8192
    for j in (5, 12):
        t, _ = truncated_radial_rule(1.0 - 2.0 ** -j)
        rho = np.sqrt(t)
        for i in range(1, j + 1, 2):
            r = 1.0 - 2.0 ** -i
            full = mobius_factor(r, s, rho, np.empty((rho.size, top)))
            for c in (256, 512, 1024, 2048, 4096):
                got = mobius_factor(r, s, rho, np.empty((rho.size, c)))
                assert np.array_equal(got, full[:, ::top // c]), (j, i, c)


def test_mobius_ring_integrals_match_rotated_kernel():
    # the truncation grid at R = 1 - 2^-9 (2048 angles) with the koebe base
    # rotated by e^(i pi/4): it is not symmetric under z -> conj(z), so
    # shifting the columns the wrong way (a -> conj(a)) shows; a second base
    # checks that every base gets the same shift
    R = 1.0 - 2.0 ** -9
    t, w = truncated_radial_rule(R)

    def rotated(z):
        zr = np.exp(1j * np.pi / 4) * z
        return np.abs(zr / (1.0 - zr) ** 2) ** 0.8, np.abs(1.0 + zr) ** 3

    table = PolarTable(rotated, np.sqrt(t), w * (1.0 - t) ** 1.0, 2048)
    for i in range(1, 10):
        r = 1.0 - 2.0 ** -i
        ring = _ring_integrals(table, r, 1.0, 8)
        assert len(ring) == 8
        for k, values in enumerate(ring):
            a = r * np.exp(2j * np.pi * k / 8)
            direct = _integrals(table, a, 1.0)
            assert len(values) == len(table.bases)
            if k == 0:
                assert values == direct
            else:
                assert values == pytest.approx(direct, rel=1e-12)


_coefficients = st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1,
                         max_size=5)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(r=st.floats(1e-3, RADIUS_CAP), count_exp=st.integers(2, 11),
       turns_exp=st.integers(0, 5), s=st.floats(0.25, 2.0),
       p=st.floats(0.5, 3.0), bases=st.lists(_coefficients, min_size=1,
                                             max_size=3))
def test_mobius_ring_integrals_property(r, count_exp, turns_exp, s, p, bases):
    # any radius up to the cap, power-of-two grids, turn counts dividing
    # them, polynomial bases: the ring is the direct kernel at each turn
    count, turns = 2 ** count_exp, 2 ** min(turns_exp, count_exp)
    t, w = _jacobi_01(16, 0.5)
    table = PolarTable(lambda z: [np.abs(np.polyval(c, z)) ** p for c in bases],
                       np.sqrt(t), w, count)
    ring = _ring_integrals(table, r, s, turns)
    for k, values in enumerate(ring):
        a = r * np.exp(2j * np.pi * k / turns)
        direct = _integrals(table, a, s)
        if k == 0:
            assert values == direct
        else:
            assert values == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("turns", [1, 32], ids=["one-turn", "turns-eq-count"])
def test_mobius_ring_integrals_edge_turn_counts(turns):
    # one turn (a single block of every column) and one column per block
    t, w = _jacobi_01(16, 0.5)
    table = PolarTable(lambda z: (np.abs(1.0 + 0.7 * z) ** 2.5,
                                  np.abs(z - 0.3j) ** 1.5), np.sqrt(t), w, 32)
    ring = _ring_integrals(table, 0.9, 1.5, turns)
    assert len(ring) == turns
    for k, values in enumerate(ring):
        a = 0.9 * np.exp(2j * np.pi * k / turns)
        direct = _integrals(table, a, 1.5)
        if k == 0:
            assert values == direct
        else:
            assert values == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("shape, n_bases, turns", [
    ((288, 8192), 1, 8),    # the j = 12 membership truncation grid
    ((128, 2048), 2, 16),   # the engine's top rung, u/v pair, 16 angles
    # the direct kernel (turns None) on both grids, one base and two
    ((288, 8192), 1, None),
    ((288, 8192), 2, None),
    ((128, 2048), 1, None),
    ((128, 2048), 2, None),
], ids=["ladder-j12", "engine-2048", "direct-ladder-j12-1",
        "direct-ladder-j12-2", "direct-engine-2048-1", "direct-engine-2048-2"])
def test_mobius_ring_integrals_make_no_grid_sized_temporary(shape, n_bases,
                                                            turns):
    # the blocks are views of the base and the factor, and both kernels
    # contract by row dots: a grid-sized copy or product (288 x 8192
    # doubles = 18.9 MB) would show here; the direct kernel runs off the
    # real axis, where the factor is not mirrored
    radial, count = shape
    t, w = _jacobi_01(radial, 1.0)
    table = PolarTable(lambda z: [np.abs(1.0 + (0.5 + 0.1j * i) * z) ** 2.5
                                  for i in range(n_bases)], np.sqrt(t), w,
                       count)
    if turns is None:
        kernel = lambda: _integrals(table, 0.99j, 1.0)
    else:
        kernel = lambda: _ring_integrals(table, 0.99, 1.0, turns)
    kernel()
    tracemalloc.start()
    try:
        kernel()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("j", [6, 12])
def test_row_dots_match_exact_sums(j):
    # the row dot of the koebe base in M(0.8,0,1) and the factor at
    # r = 1 - 2^-j, on the j = 12 truncation grid (288 x 8192), against
    # math.fsum of the same products: within 1e-14 relative per row (2.7e-15
    # measured, against 4.4e-16 for a pairwise mean of the products)
    t, _ = truncated_radial_rule(1.0 - 2.0 ** -12)
    count = 8192
    z = np.sqrt(t)[:, None] * np.exp(1j * angular_nodes(count))[None, :]
    base = np.abs(z / (1.0 - z) ** 2) ** 0.8
    mob = mobius_factor(1.0 - 2.0 ** -j, 1.0, np.sqrt(t), np.empty(z.shape))
    got = _row_means(base, mob)
    products = base * mob
    exact = np.array([math.fsum(row) / count for row in products])
    assert np.max(np.abs(got / exact - 1.0)) <= 1e-14


# one map of every CLI family, all with real coefficients
FAMILY_SPECS = {"identity": "identity", "koebe": "koebe", "cayley": "cayley",
                "poly": "poly:coeffs=0,1,0.5", "hpoly": "hpoly:h=0,1;g=0,0.5",
                "affine": "affine:k=0.5;sign=1", "fold": "fold",
                "koebe-shear": "koebe-shear:k=0.5",
                "cayley-shear": "cayley-shear:k=0.5",
                "koebe-dilatation": "koebe-dilatation:k=0.5"}


def _map_tabulator(f):
    # the bases of the conjugate checks and of the F-scales
    def tabulate(z):
        w = wirtinger(f, z)
        return [m ** 1.5 for m in w.conjugate_moduli] + [w.lambda_big ** 2]
    return tabulate


@pytest.mark.parametrize("family", sorted(MAP_FAMILIES))
def test_even_table_matches_full_tabulation(family):
    # half the circle against every column: the tabulated columns
    # 0..count/2 hold the same bits, the others are their mirror images,
    # and every integral (real, complex and near-cap a, on the top rung and
    # a lower one, and a ring's turns) agrees within 1e-13.  The bases
    # agree within 1e-11: the full tabulation's column count - j sits at
    # the rounded angle 2 pi (count - j)/count, not at -theta_j, which
    # near the pole of koebe at 1 moves a value by about 1e-12
    f = build_map(FAMILY_SPECS[family])
    assert real_coefficients(f)
    t, w = _jacobi_01(64, 0.5)
    full = PolarTable(_map_tabulator(f), np.sqrt(t), w, 2048)
    half = PolarTable(_map_tabulator(f), np.sqrt(t), w, 2048, even=True)
    assert half.work["points"] == 64 * 1025 and full.work["points"] == 64 * 2048
    for h, b in zip(half.bases, full.bases):
        assert np.array_equal(h[:, :1025], b[:, :1025])
        assert np.array_equal(h[:, 1025:], h[:, 1023:0:-1])
        np.testing.assert_allclose(h, b, rtol=1e-11, atol=0.0)
    for a in (0.5, 0.9 + 0.3j, 1.0 - 2.0 ** -10, -0.99j):
        for count in (256, 2048):
            np.testing.assert_allclose(half.integrals(a, 1.0, count),
                                       full.integrals(a, 1.0, count),
                                       rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(half.ring_integrals(0.9, 0.5, 2048, 8),
                               full.ring_integrals(0.9, 0.5, 2048, 8),
                               rtol=1e-13, atol=0.0)


def test_complex_coefficient_map_keeps_full_tabulation(monkeypatch):
    # hpoly:h=0,1,0.3j has uneven bases: the engine tabulates every column
    # of its master grid and of the error estimate's two radial levels, and
    # the master bases hold the bits of a table built with no evenness
    f = build_map("hpoly:h=0,1,0.3j")
    assert not real_coefficients(f)
    shapes, tabulated = [], []

    def spy(tabulate, rho, eig, count):
        shapes.append((eig.size, count, rho.size))
        bases, spare = polar_tabulate(tabulate, rho, eig, count)
        tabulated.append(bases)
        return bases, spare

    monkeypatch.setattr(quadrature, "polar_tabulate", spy)
    search = SupSearchSpec(max_j=1, angles_per_radius=4)
    res = fh_pqs_norm(f, Fpqs(2.0, 0.0, 1.0), search, radial=32)
    master, *levels = shapes  # the master table and the radial levels
    count = levels[0][1]
    assert master == (2048, 2048, 32)
    assert levels == [(count, count, 8), (count, count, 16)]
    assert res.grid["table_work"]["points"] == 32 * 2048 + 24 * count
    monkeypatch.undo()
    t, w = _jacobi_01(32, 1.0)
    table = PolarTable(_pow_tabulator(_lambda_fn(f), 2.0), np.sqrt(t), w, 2048)
    assert [b.tobytes() for b in tabulated[0]] == [
        b.tobytes() for b in table.bases]


def _replay(bases):
    # a tabulator handing out the rows of ``bases`` block by block, so that
    # a table built from it holds the same bits, here without evenness
    done = [0]

    def tabulate(z):
        lo = done[0]
        done[0] += z.shape[0]
        return [b[lo:done[0]] for b in bases]
    return tabulate


def _fold_tables(count, radial=32):
    # an even table of the koebe shear's conjugate-check and F-scale bases,
    # and a full-circle table of the same bits
    t, w = _jacobi_01(radial, 0.5)
    f = build_map("koebe-shear:k=0.5")
    half = PolarTable(_map_tabulator(f), np.sqrt(t), w, count, even=True)
    full = PolarTable(_replay(half.bases), np.sqrt(t), w, count)
    for h, b in zip(half.bases, full.bases):
        assert np.array_equal(h, b)
    return half, full


@pytest.mark.parametrize("count", [256, 2048, 8192])
def test_folded_direct_kernel_matches_full_circle(count):
    # at a real a the even table computes the factor on the columns
    # 0..count/2 alone and folds the row sums onto them: within 1e-14 of
    # the whole circle, on the table's count and on the first rung
    half, full = _fold_tables(count)
    for a in (0.5, -0.5, -0.99, 1.0 - 2.0 ** -10):
        for c in {256, count}:
            nodes = half.work["factor_nodes"]
            np.testing.assert_allclose(half.integrals(a, 1.0, c),
                                       full.integrals(a, 1.0, c),
                                       rtol=1e-14, atol=0.0)
            assert half.work["factor_nodes"] - nodes == 32 * (c // 2 + 1)
    # off the real axis both compute the whole circle, bit for bit
    assert half.integrals(0.5j, 1.0, count) == full.integrals(0.5j, 1.0, count)


@pytest.mark.parametrize("turns", [2, 4, 8, 16])
def test_folded_ring_matches_full_circle(turns):
    # the half-width ring product: every turn within 1e-14 of the full
    # circle's ring, turn 0 bit-identical to the folded direct kernel, and
    # turns k and turns - k equal bit for bit
    half, full = _fold_tables(2048)
    for r, s in ((0.5, 1.0), (0.9, 0.5), (1.0 - 2.0 ** -10, 1.5)):
        nodes = half.work["factor_nodes"]
        ring = half.ring_integrals(r, s, 2048, turns)
        assert half.work["factor_nodes"] - nodes == 32 * 1025
        np.testing.assert_allclose(
            ring, full.ring_integrals(r, s, 2048, turns), rtol=1e-14, atol=0.0)
        assert [values[0] for values in ring] == half.integrals(r, s, 2048)
        for values in ring:
            assert all(values[k] == values[turns - k] for k in range(1, turns))


@pytest.mark.parametrize("count, turns", [(2048, 1), (12, 3), (9, 3)],
                         ids=["one-turn", "odd-turns", "odd-count"])
def test_unfoldable_rings_take_the_full_circle(count, turns):
    # one turn or an odd number of turns needs every factor block, and an
    # odd count has no half circle: the factor covers every column, the
    # turns match the full table's, and turn 0 is still the direct kernel
    # at r, which folds on an even count
    half, full = _fold_tables(count)
    ring = half.ring_integrals(0.9, 0.5, count, turns)
    assert half.work["factor_nodes"] == 32 * count
    assert [values[0] for values in ring] == half.integrals(0.9, 0.5, count)
    expected = full.ring_integrals(0.9, 0.5, count, turns)
    if count % 2:
        assert ring == expected
    else:
        np.testing.assert_allclose(ring, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("shape, turns", [
    ((288, 8192), 8), ((128, 2048), 16), ((288, 8192), None),
    ((128, 2048), None)],
    ids=["ladder-j12", "engine-2048", "direct-ladder-j12",
         "direct-engine-2048"])
def test_folded_kernels_make_no_grid_sized_temporary(shape, turns):
    # the half factor's blocks are views too, and the folded row sums take
    # row dots of views of the base: no copy of a half grid (288 x 4097
    # doubles = 9.4 MB) is made
    radial, count = shape
    t, w = _jacobi_01(radial, 1.0)
    table = PolarTable(lambda z: [np.abs(1.0 + 0.5 * z) ** 2.5], np.sqrt(t),
                       w, count, even=True)
    if turns is None:
        kernel = lambda: _integrals(table, 0.99, 1.0)
    else:
        kernel = lambda: _ring_integrals(table, 0.99, 1.0, turns)
    kernel()
    tracemalloc.start()
    try:
        kernel()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_mobius_factor_at_a_tiny_a_is_finite():
    # u and v divide by 4 r rho, floored at 1e-300: at |a| = 1e-310 the
    # factor is 1 to rounding, with no overflow or 0/0 on the way
    rho = np.sqrt(_jacobi_01(64, 1.0)[0])
    for a in (1e-310, 1e-310j, 1e-200 - 1e-200j):
        with np.errstate(over="raise", invalid="raise"):
            mob = mobius_factor(a, 1.5, rho, np.empty((rho.size, 256)))
        np.testing.assert_allclose(mob, 1.0, rtol=1e-15, atol=0.0)


def test_mobius_ring_integrals_reject_uneven_turns():
    rho = np.sqrt(np.array([0.25, 0.5]))
    table = PolarTable(lambda z: (np.ones(z.shape),), rho, np.ones(2), 12)
    with pytest.raises(InvalidParameterError):
        _ring_integrals(table, 0.5, 1.0, 8)


def test_row_blocks_cover_the_grid(monkeypatch):
    # 3 rows a block on a 16 x 32 grid: the blocks tile the rows in order,
    # and the row means of 1 contract to the disk's area
    monkeypatch.setattr(quadrature, "ROW_BLOCK_POINTS", 3 * 32)
    g = build_grid(16, 0.0, 32)
    rho, eig = np.sqrt(g.radial_nodes), np.exp(1j * angular_nodes(32))
    blocks = list(quadrature._row_blocks(rho, eig))
    assert [z.shape for _, z in blocks] == [(3, 32)] * 5 + [(1, 32)]
    assert np.array_equal(np.concatenate([z for _, z in blocks]),
                          rho[:, None] * eig[None, :])
    means = polar_row_means(lambda z: np.ones(z.shape), rho, eig)
    assert _radial_contract(g.radial_weights, means) == pytest.approx(
        math.pi, rel=1e-13)


KOEBE_Q211 = Qnpa(2, 1.0, 1.0)


@pytest.mark.parametrize("count", [256, 2048])
def test_row_blocks_leave_no_trace_in_composition(monkeypatch, count):
    # 131 radial nodes: neither 16 rows (a block at 256 angles) nor 2 (at
    # 2048) divides them; one block of the whole grid is the unblocked
    # evaluation, and every per-a value must match it bit for bit
    rule = composed_rule(131, KOEBE_Q211.alpha, count)
    points = (0.0, 0.6 - 0.3j, 0.99 + 0.01j)

    def values():
        return [composed_integral([koebe()], 2, 1.0, a, rule) for a in points]

    blocked = values()
    monkeypatch.setattr(quadrature, "ROW_BLOCK_POINTS", 131 * count)
    assert blocked == values()


@pytest.mark.parametrize("count", [256, 2048])
def test_row_blocks_leave_no_trace_in_green(monkeypatch, count):
    base = lambda z: np.abs(1.0 / (1.0 - 0.9 * z)) ** 2
    m = MobiusMap(0.7 - 0.5j)

    def value():
        res = disk_integral_green(base, 0.0, 1.0, m, radial=131, angular=count)
        return res.value, res.abs_error_estimate, res.refinements_used

    blocked = value()
    monkeypatch.setattr(quadrature, "ROW_BLOCK_POINTS", 10 ** 9)
    assert blocked == value()


def _nonconstant_parts(spec):
    f = build_map(spec)
    return [part for part in (f.h, f.g) if part.constant_value is None]


@pytest.mark.parametrize("count", [256, 2048])
@pytest.mark.parametrize("a", [0.5, 0.9984375])
@pytest.mark.parametrize("spec", ["koebe", "cayley-shear:k=0.5"])
def test_composition_folds_onto_the_half_circle_at_a_real_a(monkeypatch, spec,
                                                             a, count):
    # parts with real coefficients at a real a: the integrand is even in
    # theta, so the walk evaluates the columns 0..count/2 alone and folds
    # the row sums, within 1e-14 of the whole circle
    parts = _nonconstant_parts(spec)
    rule = composed_rule(128, KOEBE_Q211.alpha, count)
    grids = column_spy(monkeypatch)
    folded = composed_integral(parts, 2, 1.0, a, rule)
    assert grids == [(128, count // 2 + 1)]
    monkeypatch.setattr(qrspaces.spaces, "real_coefficients", lambda f: False)
    full = composed_integral(parts, 2, 1.0, a, rule)
    assert grids[1:] == [(128, count)]
    assert folded == pytest.approx(full, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("count", [256, 2048])
@pytest.mark.parametrize("a", [0.5, 0.9984375])
@pytest.mark.parametrize("spec", ["koebe", "cayley-shear:k=0.5"])
def test_green_folds_onto_the_half_circle_at_a_real_a(monkeypatch, spec, a,
                                                       count):
    # the same for both rules of the Green integral, on Lambda_f^(1/2) at
    # s = 4, which both maps resolve at both a
    base = _pow_tabulator(_lambda_fn(build_map(spec)), 0.5)
    na = angular_count_for(a, 2.0, count)
    grids = column_spy(monkeypatch)

    def value(even):
        return disk_integral_green(lambda z: base(z)[0], 0.0, 4.0, MobiusMap(a),
                                   angular=count, even=even).value

    folded = value(True)
    assert grids == [(160, na // 2 + 1), (320, na // 2 + 1)]
    full = value(False)
    assert grids[2:] == [(160, na), (320, na)]
    assert folded == pytest.approx(full, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("a", [0.0, 0.5, 0.5j])
def test_mobius_weight_folds_onto_the_half_circle_at_a_real_a(monkeypatch, a):
    # every rule of the node doubling tabulates the half circle at a real
    # a, and the whole circle off the axis, within 1e-14 of the unfolded
    base = _pow_tabulator(_lambda_fn(koebe()), 0.5)
    grids = column_spy(monkeypatch)

    def value(even):
        return disk_integral_mobius_weight(lambda z: base(z)[0], 0.0, 4.0,
                                           MobiusMap(a), even=even).value

    folded = value(True)
    walks = len(grids)
    full = value(False)
    assert walks > 1
    assert grids[:walks] == [(rows, count if complex(a).imag else count // 2 + 1)
                             for rows, count in grids[walks:]]
    assert folded == pytest.approx(full, rel=1e-14, abs=0.0)


KOEBE_SHEAR = koebe_shear(0.5)


def _conjugate_tabulator(z):
    return [m ** 1.5 for m in wirtinger(KOEBE_SHEAR, z).conjugate_moduli]


def _master_grid(even):
    pr = WeightedSupProblem(_conjugate_tabulator, 0.0, 1.0, radial=131,
                            even=even)
    return pr.integral_at(0.6 - 0.3j)


def _refined_grid(even):
    pr = WeightedSupProblem(_conjugate_tabulator, 0.0, 1.0, radial=131,
                            even=even)
    a = 0.9 + 0.05j
    return pr.refined_integral_at(a, pr.integral_at(a))


def _ladder_panel(even):
    # j = 4: four 24-node panels at 512 angles
    values_fn, _ = _membership_values(KOEBE_SHEAR, Mpqs(0.8, 0.0, 1.0), "f")
    return _truncated_sup_norms(values_fn, 0.8, 0.0, 1.0, [1.0 - 2.0 ** -4],
                                even=even)


@pytest.mark.parametrize(
    "path, even",
    [(path, even) for even in (False, True)
     for path in (_master_grid, _refined_grid, _ladder_panel)],
    ids=["master", "refined", "ladder-panel",
         "master-half", "refined-half", "ladder-panel-half"])
def test_row_blocks_leave_no_trace_in_tabulation(monkeypatch, path, even):
    # 131 radial nodes leave a short last block: 2 rows a block at 2048
    # angles (3 on the 1025 columns of half the circle), 8 on the error
    # estimate's 65 x 512 and 32 x 512 grids (15 on 257, short on both);
    # the ladder's 24-row panels take 8 + 8 + 8
    # at 512 angles (15 + 9 on 257).  One block of the whole grid is the
    # unblocked tabulation, and every base bit and every value must match
    # it.  KOEBE_SHEAR's coefficients are real, so its bases are even
    tabulated = []

    def spy(tabulate, rho, eig, count):
        calls = []
        bases, spare = polar_tabulate(
            lambda z: calls.append(z.size) or tabulate(z), rho, eig, count)
        assert eig.size == (count // 2 + 1 if even else count)
        tabulated.append((len(calls), [b.tobytes() for b in bases]))
        return bases, spare

    monkeypatch.setattr(quadrature, "polar_tabulate", spy)
    blocked = path(even)
    blocked_bases, tabulated[:] = tabulated[:], []
    monkeypatch.setattr(quadrature, "ROW_BLOCK_POINTS", 10 ** 9)
    whole = path(even)
    assert len(blocked_bases) == len(tabulated) >= 1
    assert all(blocks > 1 for blocks, _ in blocked_bases)
    assert all(blocks == 1 for blocks, _ in tabulated)
    assert [b for _, b in blocked_bases] == [b for _, b in tabulated]
    assert blocked == whole


@pytest.mark.parametrize("path", [_master_grid, _refined_grid, _ladder_panel],
                         ids=["master", "refined", "ladder-panel"])
def test_table_keeps_bases_and_factor_in_one_array(monkeypatch, path):
    # every base of a table and its Mobius factor buffer are the planes of
    # one array, so the largest block a problem frees is more than half of
    # all it frees; the rung copies stay apart, made lazily
    tables = []
    init = PolarTable.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append(self)

    monkeypatch.setattr(PolarTable, "__init__", spy)
    path(True)
    assert tables
    for table in tables:
        # back to back in memory, which two allocations never are
        planes = [*table.bases, table._factor]
        size = table.bases[0].nbytes
        assert all(p.nbytes == size and p.flags.c_contiguous for p in planes)
        start = planes[0].ctypes.data
        assert [p.ctypes.data for p in planes] == [
            start + k * size for k in range(len(planes))]


def test_composition_makes_no_grid_sized_temporary():
    # koebe's Q(2,1,1) integral at a near-cap a on 128 x 2048 nodes: the jets
    # run on row blocks, so the peak (1.1 MB measured) stays below one real
    # grid-sized array (2.1 MB; a complex one is 4.2 MB, and the unblocked
    # jets made three (3, 128, 2048) complex arrays)
    rule = composed_rule(128, 1.0, 2048)
    call = lambda: composed_integral([koebe()], 2, 1.0, 0.99 + 0.05j, rule)
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2048 * 8
