import cmath
import math
import warnings

import numpy as np
import pytest

from qrspaces.analytic import (
    MAX_COMPOSE_ORDER,
    RationalLog,
    antiderivative,
    cayley_half,
    combine,
    compose_mobius,
    constant,
    derivative,
    identity,
    koebe,
    poly,
    power_series,
    real_coefficients,
    scale,
    shift,
)
from qrspaces.errors import AccuracyError, InvalidParameterError, PoleError
from qrspaces.families import cayley_shear
from qrspaces.harmonic import HarmonicMap
from qrspaces.mobius import MobiusMap, sigma, sigma_derivatives
from qrspaces.quadrature import _jacobi_01, angular_nodes

from conftest import disk_samples, generic

ALL_BUILDERS = [
    lambda: poly([0.2, 1.0, -0.5j]),
    lambda: power_series(np.ones(200), 199),
    koebe,
    cayley_half,
    lambda: combine("div", poly([0.0, 1.0]), poly([1.0, -1.0])),
    lambda: antiderivative(koebe(), 0.0),
]


def fd_derivative(fn, z, h=1e-5):
    return (fn(z + h) - fn(z - h)) / (2.0 * h)


def wirtinger_zbar(fn, z, h=1e-5):
    fx = (fn(z + h) - fn(z - h)) / (2.0 * h)
    fy = (fn(z + 1j * h) - fn(z - 1j * h)) / (2.0 * h)
    return 0.5 * (fx + 1j * fy)


def test_poly_jets():
    f = poly([0.0, 1.0])
    j = f.jet(np.asarray(0.3 + 0j), 1)
    assert j[0] == pytest.approx(0.3)
    assert j[1] == pytest.approx(1.0)
    g = poly([0.0, 0.0, 1.0])
    j = g.jet(np.asarray(0.5 + 0j), 2)
    assert j[0] == pytest.approx(0.25)
    assert j[1] == pytest.approx(1.0)
    assert j[2] == pytest.approx(2.0)
    c = poly([1.0])
    j = c.jet(np.asarray(0.7 + 0.1j), 1)
    assert j[0] == pytest.approx(1.0)
    assert j[1] == pytest.approx(0.0)


def test_power_series_geometric():
    f = power_series(np.ones(400), 399)
    # 1/(1-z) at z = 0.5, truncation error ~ 2 * 0.5^400
    assert f(0.5) == pytest.approx(2.0, abs=1e-12)
    k = power_series([0.0] + [m for m in range(1, 50)], 60)
    j = k.jet(np.asarray(0.0j), 1)
    assert j[0] == 0.0
    assert j[1] == pytest.approx(1.0)
    z = power_series([0.0, 0.0], 5)
    assert z(0.3) == 0.0


def test_power_series_jet_is_the_polynomial_jet():
    # a power series and the polynomial of its coefficients share one jet
    # loop, so their jets agree bit for bit
    c = [0.3, 1.0, -0.5j, 0.25, 0.1 + 0.2j, -0.05]
    z = np.linspace(0.01, 0.99, 257) * np.exp(1j * np.linspace(0.0, 6.0, 257))
    assert np.array_equal(power_series(c, 5).jet(z, 4), poly(c).jet(z, 4))


def test_power_series_divergence_detected():
    import math

    bad = power_series([math.factorial(m) for m in range(40)], 39)
    with pytest.raises(AccuracyError):
        bad(0.5)


def test_koebe_and_cayley_values():
    k = koebe()
    assert k(0.0) == pytest.approx(0.0)
    assert k.derivative_at(0.0) == pytest.approx(1.0)
    assert k(0.5) == pytest.approx(2.0)
    c = cayley_half()
    assert c(0.5) == pytest.approx(1.0)
    # closed-form first derivatives
    z = 0.3 + 0.2j
    assert k.derivative_at(z) == pytest.approx((1 + z) / (1 - z) ** 3)
    assert c.derivative_at(z) == pytest.approx(1.0 / (1 - z) ** 2)


def test_combine_values():
    z = poly([0.0, 1.0])
    s = combine("add", z, z)
    assert s(0.3) == pytest.approx(0.6)
    assert s.derivative_at(0.3) == pytest.approx(2.0)
    d = combine("sub", koebe(), koebe())
    assert d(0.4 + 0.1j) == pytest.approx(0.0)
    q = combine("div", poly([0.0, 1.0]), poly([1.0, -1.0]))
    assert q(0.5) == pytest.approx(1.0)
    assert q.derivative_at(0.5) == pytest.approx(1.0 / 0.25)
    with pytest.raises(PoleError):
        combine("div", constant(1.0), poly([0.0, 1.0]))(0.0)


def test_combine_mul_leibniz():
    f = koebe()
    g = cayley_half()
    prod = combine("mul", f, g)
    z = np.asarray(0.2 - 0.3j)
    jf, jg = f.jet(z, 2), g.jet(z, 2)
    jp = prod.jet(z, 2)
    assert jp[2] == pytest.approx(jf[2] * jg[0] + 2 * jf[1] * jg[1] + jf[0] * jg[2])


def test_compose_mobius_values():
    m = MobiusMap(0.5)
    comp = compose_mobius(identity(), m)
    j = comp.jet(np.asarray(0.0j), 1)
    assert j[0] == pytest.approx(0.5)
    assert j[1] == pytest.approx(-0.75)

    f = koebe()
    flip = compose_mobius(f, MobiusMap(0.0))
    z = 0.3 + 0.1j
    assert flip(z) == pytest.approx(f(-z))
    assert flip.derivative_at(z) == pytest.approx(-f.derivative_at(-z))


def test_compose_mobius_involution(rng):
    f = poly([0.1, 0.5, -0.2, 0.05j])
    m = MobiusMap(0.4 - 0.3j)
    twice = compose_mobius(compose_mobius(f, m), m)
    z = disk_samples(rng, 50, r_max=0.9)
    np.testing.assert_allclose(twice.jet(z, 0)[0], f.jet(z, 0)[0], atol=1e-10)


def test_compose_mobius_higher_order_vs_fd(rng):
    f = koebe()
    m = MobiusMap(0.3 + 0.2j)
    comp = compose_mobius(f, m)
    z = disk_samples(rng, 20, r_max=0.6)
    j = comp.jet(z, 3)
    h = 1e-4
    d2 = (comp.derivative_at(z + h) - comp.derivative_at(z - h)) / (2 * h)
    np.testing.assert_allclose(j[2], d2, rtol=1e-5, atol=1e-5)
    d3 = (comp.jet(z + h, 2)[2] - comp.jet(z - h, 2)[2]) / (2 * h)
    np.testing.assert_allclose(j[3], d3, rtol=1e-5, atol=1e-5)


def _compose_by_array_bell_rows(f, m, z, order):
    """(f o sigma_a)^(n), n = 1..order, by the former route: the array
    derivatives of sigma_a and array-valued partial Bell polynomials."""
    xs = sigma_derivatives(m, z, order)
    fj = f.jet(sigma(m, z), order, min_order=1)
    B = [[None] * (order + 1) for _ in range(order + 1)]
    B[0][0] = 1.0
    for nn in range(1, order + 1):
        for k in range(1, nn + 1):
            acc = 0.0
            for i in range(1, nn - k + 2):
                if B[nn - i][k - 1] is not None:
                    acc = acc + math.comb(nn - 1, i - 1) * xs[i - 1] * B[nn - i][k - 1]
            B[nn][k] = acc
    return [sum(fj[k] * B[nn][k] for k in range(1, nn + 1))
            for nn in range(1, order + 1)]


@pytest.mark.parametrize("a", [0.3, 0.9j, (1.0 - 2.0 ** -10) * cmath.exp(2j)])
@pytest.mark.parametrize("name", ["koebe", "cayley-shear-h"])
def test_compose_mobius_bell_factors_match_array_bell_rows(rng, name, a):
    # the closed-form Bell factors b[n][k] D^-(n+k), summed by Horner in 1/D,
    # against the array Bell rows of sigma_a's derivatives, orders 1..6
    f = koebe() if name == "koebe" else cayley_shear(0.3).h
    m = MobiusMap(a)
    z = disk_samples(rng, 40, r_max=0.9)
    jets = compose_mobius(f, m).jet(z, MAX_COMPOSE_ORDER, min_order=1)
    old = _compose_by_array_bell_rows(f, m, z, MAX_COMPOSE_ORDER)
    for nn in range(1, MAX_COMPOSE_ORDER + 1):
        np.testing.assert_allclose(jets[nn], old[nn - 1], rtol=1e-13, atol=0)


def test_compose_mobius_point_is_the_sigma_division():
    # w = (a - z)/D bit for bit, as mobius.sigma forms it: w = (a - z)(1/D)
    # moves koebe's near-cap Q(2,1,1) integral here by 1.9e-11, through 1 - w
    m = MobiusMap(0.996875 + 0.003125j)
    rho = np.sqrt(_jacobi_01(128, 1.0)[0])
    z = rho[:, None] * np.exp(1j * angular_nodes(2048))[None, :]
    w = compose_mobius(identity(), m).jet(z, 0)[0]
    assert np.array_equal(w, sigma(m, z))


def test_compose_order_cap():
    comp = compose_mobius(poly(np.ones(10)), MobiusMap(0.2))
    with pytest.raises(InvalidParameterError):
        comp.jet(np.asarray(0.1 + 0j), 7)


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_jet_consistency_and_holomorphy(build, rng):
    f = build()
    z = disk_samples(rng, 100, r_max=0.8)
    jets = f.jet(z, 2)
    fd1 = fd_derivative(lambda w: f.jet(w, 0)[0], z)
    np.testing.assert_allclose(jets[1], fd1, rtol=1e-6, atol=1e-6)
    fd2 = fd_derivative(lambda w: f.jet(w, 1)[1], z)
    np.testing.assert_allclose(jets[2], fd2, rtol=1e-5, atol=1e-5)
    zbar = wirtinger_zbar(lambda w: f.jet(w, 0)[0], z)
    np.testing.assert_allclose(zbar, 0.0, atol=1e-6)


def test_antiderivative_values():
    f = antiderivative(constant(1.0), 0.0)
    assert f(0.77) == pytest.approx(0.77, abs=1e-10)
    g = antiderivative(poly([0.0, 2.0]), 0.0)
    assert g(0.3 + 0.4j) == pytest.approx((0.3 + 0.4j) ** 2, abs=1e-10)
    # f = 1/(1-z)^2 integrates to z/(1-z)
    kd = combine("div", constant(1.0), combine("mul", poly([1.0, -1.0]), poly([1.0, -1.0])))
    F = antiderivative(kd, 0.0)
    assert F(0.5) == pytest.approx(1.0, abs=1e-10)
    assert F(0.0) == pytest.approx(0.0, abs=1e-14)


def test_antiderivative_roundtrip(rng):
    f = koebe()
    F = antiderivative(derivative(f), f(0.0))
    z = disk_samples(rng, 200, r_max=0.9)
    np.testing.assert_allclose(F.jet(z, 0)[0], f.jet(z, 0)[0], rtol=1e-9, atol=1e-9)
    # jets above order 0 delegate to the integrand
    np.testing.assert_allclose(F.jet(z, 1)[1], f.jet(z, 1)[1], rtol=0, atol=0)


def test_arithmetic_sugar():
    f = identity() + 1.0
    assert f(0.25) == pytest.approx(1.25)
    g = identity() * identity()
    assert g(0.5) == pytest.approx(0.25)


def test_antiderivative_nonconvergence_raises():
    # a pole of order 3 within 1e-7 of the path end defeats the panel rule;
    # koebe itself integrates exactly, so it goes in behind a plain evaluator
    f = antiderivative(generic(koebe()), 0.0)
    with pytest.raises(AccuracyError):
        f.jet(np.asarray(complex(1.0 - 1e-9)), 0)


def test_closed_form_type_is_kept_where_the_result_is_one():
    k, c, lin = koebe(), cayley_half(), poly([1.0, -0.3])
    closed = [poly([1.0, 2.0]), k, c, scale(k, 2j), shift(k, 1.0), derivative(k),
              k + c, k * c, k / lin, constant(1.0) / lin, antiderivative(k / lin, 0.5),
              antiderivative(k / lin) + c]
    assert all(isinstance(f, RationalLog) for f in closed)
    log = antiderivative(c)
    assert log.has_logs and not k.has_logs
    generic_ = [power_series(np.ones(8), 7), compose_mobius(k, MobiusMap(0.3)),
                log * k, log / lin, k / poly([1.0, 0.0, -0.5]), k / identity(),
                antiderivative(log)]
    assert not any(isinstance(f, RationalLog) for f in generic_)


def test_exact_antiderivative_matches_quadrature(rng):
    f = combine("div", derivative(koebe()), poly([1.0, -0.6]))
    F, Q = antiderivative(f, 0.25 - 1j), antiderivative(generic(f), 0.25 - 1j)
    assert F(0.0) == 0.25 - 1j
    z = disk_samples(rng, 200, r_max=0.99)
    np.testing.assert_allclose(F.jet(z, 0)[0], Q.jet(z, 0)[0], rtol=1e-12)
    np.testing.assert_allclose(F.jet(z, 2, 1)[1:], f.jet(z, 1), rtol=0, atol=0)


@pytest.mark.parametrize("build", [
    koebe, cayley_half,
    lambda: constant(1.0) / poly([1.0, -1.0]),
    lambda: antiderivative(derivative(koebe()) / poly([1.0, -0.5])),
])
def test_pole_evaluation_raises_pole_error(build):
    f = build()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order, min_order in ((0, 0), (2, 1)):
            with pytest.raises(PoleError):
                f.jet(np.asarray([0.5, 1.0 + 0j]), order, min_order)


def test_nonfinite_coefficient_rejected():
    with pytest.raises(InvalidParameterError):
        poly([0.0, float("nan")])


@pytest.mark.parametrize("f", [poly([1.0, 0.5]), generic(poly([1.0, 0.5]))],
                         ids=["rational", "generic"])
def test_reflected_operators_match_constant_forms(f):
    # a number on the left goes through combine like constant(c) does
    z = np.asarray([0.0, 0.3 - 0.2j, -0.7j, 0.9])
    for c in (2.0, 1.5 - 0.5j):
        for reflected, explicit in ((c + f, constant(c) + f),
                                    (c - f, constant(c) - f),
                                    (c * f, constant(c) * f),
                                    (c / f, constant(c) / f)):
            np.testing.assert_array_equal(reflected.jet(z, 2), explicit.jet(z, 2))
    assert (1.0 / f)(0.5) == pytest.approx(1.0 / 1.25, rel=1e-15)


def test_real_coefficients_is_exact():
    # decided on the exact rationals: an imaginary part of 1e-300 anywhere,
    # in a coefficient, a pole or a term, is not real, and a function
    # without terms (a Mobius composition, even at a real a; a power
    # series; a generic combination) never counts as real
    assert real_coefficients(koebe()) and real_coefficients(cayley_shear(0.5))
    assert real_coefficients(HarmonicMap(poly([0.0, 1.0]), poly([0.0, 0.5])))
    tiny = complex(0.0, 1e-300)
    assert not real_coefficients(poly([0.0, 1.0, 0.5 + tiny]))
    assert not real_coefficients(RationalLog([0], {(1 + tiny, 1): 1}, ""))
    assert not real_coefficients(RationalLog([0], {(1, 2): 1 + tiny}, ""))
    assert not real_coefficients(HarmonicMap(koebe(), poly([0.0, tiny])))
    assert not real_coefficients(compose_mobius(koebe(), MobiusMap(0.5)))
    assert not real_coefficients(power_series(np.ones(20), 19))
    assert not real_coefficients(generic(koebe()))
