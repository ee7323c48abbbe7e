import math

import numpy as np
import pytest

from qrspaces.analytic import cayley_half, koebe, poly
from qrspaces.errors import InvalidParameterError, NonQuasiregularError
from qrspaces.families import (
    DEFAULT_GROWTH_RADII,
    OrderModel,
    ShearSpec,
    affine_extremal,
    cayley_shear,
    from_dilatation,
    growth_exponent,
    kkprime_example,
    koebe_shear,
    recovered_dilatation_error,
    shear,
)
from qrspaces.harmonic import conjugate_parts, estimate_quasiregularity, wirtinger

from conftest import disk_samples


def test_from_dilatation_constant():
    f = from_dilatation(poly([1.0]), poly([0.5]))
    z = np.asarray([0.1 + 0.2j, -0.4j, 0.6])
    np.testing.assert_allclose(f(z), z + 0.5 * np.conj(z), atol=1e-10)
    est = estimate_quasiregularity(f)
    assert est.K_est == pytest.approx(3.0, rel=1e-9)


def test_from_dilatation_zero_is_analytic():
    f = from_dilatation(koebe().jet and poly([1.0, 2.0]), poly([0.0]))
    z = 0.3 + 0.1j
    assert f(z) == pytest.approx(z + z ** 2, abs=1e-10)
    w = wirtinger(f, np.asarray(z))
    assert w.fzbar == pytest.approx(0.0, abs=1e-12)


def test_from_dilatation_rejects_unbounded():
    with pytest.raises(NonQuasiregularError):
        from_dilatation(poly([1.0]), poly([1.0]))


def test_from_dilatation_koebe_kz(rng):
    k = 0.5
    f = from_dilatation(poly([1.0, 2.0, 3.0]), poly([0.0, k]))  # h' with a zero-free start
    err = recovered_dilatation_error(f, poly([0.0, k]))
    assert err <= 1e-8


def test_shear_constant_dilatation_closed_form(rng):
    k = 0.4
    raw = shear(ShearSpec(poly([0.0, 1.0]), poly([k]), normalize=False))
    z = disk_samples(rng, 100, r_max=0.9)
    np.testing.assert_allclose(raw.h.jet(z, 0)[0], z / (1 - k), atol=1e-9)
    np.testing.assert_allclose(raw.g.jet(z, 0)[0], k * z / (1 - k), atol=1e-9)
    assert raw.h.derivative_at(0.0) == pytest.approx(1.0 / (1.0 - k))

    normed = shear(ShearSpec(poly([0.0, 1.0]), poly([k]), normalize=True))
    assert normed.h.derivative_at(0.0) == pytest.approx(1.0, abs=1e-12)
    assert normed.h(0.0) == pytest.approx(0.0, abs=1e-12)
    assert normed.g(0.0) == pytest.approx(0.0, abs=1e-12)
    # normalized constant-dilatation shear of the identity is the affine map
    np.testing.assert_allclose(normed(z), z + k * np.conj(z), atol=1e-9)


def test_shear_zero_dilatation_returns_target():
    f = shear(ShearSpec(cayley_half(), poly([0.0])))
    z = 0.35 - 0.2j
    assert f(z) == pytest.approx(z / (1 - z), abs=1e-9)


def test_shear_target_difference(rng):
    spec = ShearSpec(cayley_half(), poly([0.0, 0.5]), normalize=False)
    f = shear(spec)
    z = disk_samples(rng, 80, r_max=0.85)
    diff = f.h.jet(z, 0)[0] - f.g.jet(z, 0)[0]
    np.testing.assert_allclose(diff, z / (1 - z), atol=1e-8)


def test_shear_normalization_invariants():
    for k in (0.2, 0.5, 0.8):
        f = koebe_shear(k)
        assert abs(f.h(0.0)) <= 1e-12
        assert abs(f.h.derivative_at(0.0) - 1.0) <= 1e-12
        assert abs(f.g(0.0)) <= 1e-12
        err = recovered_dilatation_error(f, poly([0.0, k]))
        assert err <= 1e-8


def test_shear_quasiregularity(rng):
    k = 0.5
    f = cayley_shear(k)
    est = estimate_quasiregularity(f)
    k_eff = k * est.grid.r_max
    assert est.K_est == pytest.approx((1 + k_eff) / (1 - k_eff), rel=1e-2)
    assert est.K_est <= (1 + k) / (1 - k) + 1e-9


def test_affine_extremal_ratio(rng):
    f = affine_extremal(0.5, -1)
    F, G = conjugate_parts(f)
    z = disk_samples(rng, 50)
    np.testing.assert_allclose(
        np.abs(G.jet(z, 1)[1]) / np.abs(F.jet(z, 1)[1]), 3.0, rtol=0
    )
    assert affine_extremal(0.0, -1)(0.3) == pytest.approx(0.3)
    fp = affine_extremal(0.5, +1)
    Fp, Gp = conjugate_parts(fp)
    assert abs(Gp.derivative_at(0.1)) / abs(Fp.derivative_at(0.1)) == pytest.approx(1 / 3)


def test_kkprime_example():
    f = kkprime_example()
    w = wirtinger(f, np.asarray(0.2 + 0.2j))
    assert w.lambda_big == pytest.approx(2.0)
    assert w.jacobian == pytest.approx(0.0)
    with pytest.raises(NonQuasiregularError):
        estimate_quasiregularity(f)
    est = estimate_quasiregularity(f, require_k=False, K_for_residual=1.0)
    assert est.Kprime_residual == pytest.approx(4.0)


def test_growth_exponent_koebe():
    fit = growth_exponent(koebe_shear(0.0), "hprime")
    assert fit.beta == pytest.approx(3.0, abs=0.05)
    assert not fit.monotone_warning


def test_growth_exponent_affine_bounded():
    f = affine_extremal(0.5)
    for which in ("hprime", "gprime", "f_itself"):
        fit = growth_exponent(f, which, radii=DEFAULT_GROWTH_RADII[:6])
        assert abs(fit.beta) <= 0.05


def test_growth_exponent_shear_bounded_by_model():
    model = OrderModel(K=3.0)
    f = koebe_shear(model.k)
    fit = growth_exponent(f, "hprime", radii=tuple(1 - 2.0 ** -j for j in range(3, 10)))
    assert fit.beta <= model.alpha_K + 1.0 + 0.1


def test_growth_exponent_validation():
    with pytest.raises(InvalidParameterError):
        growth_exponent(affine_extremal(0.1), "nonsense")
    with pytest.raises(InvalidParameterError):
        growth_exponent(affine_extremal(0.1), "hprime", radii=(0.9, 0.5))


def test_order_model_defaults():
    assert OrderModel(1.0).alpha_K == pytest.approx(2.0)
    assert OrderModel(3.0).alpha_K == pytest.approx(2.5)
    assert OrderModel(2.0, alpha_K=1.7).alpha_K == pytest.approx(1.7)
    assert OrderModel(5.0).alpha_K >= 1.0
    with pytest.raises(InvalidParameterError):
        OrderModel(0.5)
    with pytest.raises(InvalidParameterError):
        OrderModel(math.inf)
