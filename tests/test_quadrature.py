import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from qrspaces.errors import InvalidParameterError
from qrspaces.mobius import MobiusMap
from qrspaces.quadrature import (
    _jacobi_01,
    angular_count_for,
    angular_nodes,
    build_grid,
    disk_integral_alpha,
    disk_integral_green,
    disk_integral_mobius_weight,
    grid_points,
    mobius_integrals,
    tensor_integral,
    truncated_radial_rule,
    work_arrays,
)
from qrspaces.verify import _truncated_sup_norm


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
            oracle = math.pi * beta_fn(m + 1, alpha + 1)
            assert res.value == pytest.approx(oracle, rel=1e-12)


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
        disk_integral_mobius_weight(one, 0.0, -1.0, MobiusMap(0.0))
    with pytest.raises(InvalidParameterError):
        disk_integral_mobius_weight(one, -2.5, 1.0, MobiusMap(0.0))


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


def test_truncated_integral_approaches_full():
    # sup_a int_{|z|<=R} (1-|sigma_a z|^2) dA sits at a = 0:
    # int_{|z|<=R} (1-|z|^2) dA = pi (R^2 - R^4/2)
    one = lambda z: np.ones(z.shape)
    for R in (0.5, 1.0 - 2.0 ** -6, 1.0 - 2.0 ** -9):
        value = _truncated_sup_norm(one, p=1.0, q=0.0, s=1.0, R=R)
        assert value == pytest.approx(math.pi * (R ** 2 - R ** 4 / 2.0), rel=1e-13)


def test_mobius_integrals_matches_explicit_formula():
    theta = angular_nodes(512)
    for t, w in (_jacobi_01(64, 1.5), truncated_radial_rule(1.0 - 2.0 ** -6)):
        z = np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]
        bases = [np.ones(z.shape), np.abs(1.0 + z) ** 3]
        work = work_arrays(z.shape)
        for s in (0.0, 0.5, 2.0):
            for a in (0.0, 0.3, 0.9j, -0.5 + 0.4j, 1.0 - 2.0 ** -10):
                pref = (1.0 - abs(a) ** 2) ** s
                mob = pref / np.abs(1.0 - np.conj(a) * z) ** (2.0 * s)
                got = mobius_integrals(a, s, z, bases, w, work)
                assert len(got) == len(bases)
                for b, value in zip(bases, got):
                    explicit = np.pi * np.sum(w[:, None] * b * mob) / len(theta)
                    assert value == pytest.approx(explicit, rel=1e-14)


def test_tensor_integral_shape():
    g = build_grid(16, 0.0, 32)
    z = grid_points(g)
    assert z.shape == (16, 32)
    assert tensor_integral(np.ones(z.shape), g) == pytest.approx(math.pi, rel=1e-13)
