import math
import re

import numpy as np
import pytest

from qrspaces import harmonic
from qrspaces.analytic import (AnalyticFn, cayley_half, constant_bases, identity,
                               koebe, poly)
from qrspaces.cli import build_map
from qrspaces.errors import (
    HypothesisViolationError,
    InvalidParameterError,
    NonQuasiregularError,
)
from qrspaces.harmonic import (
    HarmonicMap,
    QrParams,
    SampleGrid,
    analytic_as_harmonic,
    angular_radial,
    conjugate_parts,
    estimate_quasiregularity,
    imag_part_map,
    pointwise_conjugate_bound,
    real_part_map,
    wirtinger,
)

from conftest import disk_samples, generic


def affine(k, sign=+1.0):
    return HarmonicMap(poly([0.0, 1.0]), poly([0.0, sign * k]))


def test_wirtinger_basic_values():
    w = wirtinger(affine(0.5), np.asarray(0.2 + 0.1j))
    assert w.lambda_big == pytest.approx(1.5)
    assert w.lambda_small == pytest.approx(0.5)
    assert w.jacobian == pytest.approx(0.75)

    h_only = analytic_as_harmonic(koebe())
    z = np.asarray(0.3 - 0.2j)
    w = wirtinger(h_only, z)
    hp = abs(koebe().derivative_at(complex(z)))
    assert w.lambda_big == pytest.approx(hp)
    assert w.lambda_small == pytest.approx(hp)
    assert w.jacobian == pytest.approx(hp ** 2)

    fold = HarmonicMap(poly([0.0, 1.0]), poly([0.0, 1.0]))
    w = wirtinger(fold, np.asarray(0.1j))
    assert w.lambda_big == pytest.approx(2.0)
    assert w.lambda_small == pytest.approx(0.0)
    assert w.jacobian == pytest.approx(0.0)


def test_zero_coanalytic_part_is_not_evaluated(rng):
    # g = 0 (koebe as a harmonic map) is skipped, and |f| keeps its bits;
    # a nonzero g (the shear) is still added
    z = disk_samples(rng, 200)
    calls = []

    def zero_jet(w, order, min_order):
        calls.append(order)
        return np.zeros((order + 1,) + np.shape(w), complex)

    f = HarmonicMap(koebe(), AnalyticFn(zero_jet, constant_value=0j))
    calls.clear()
    values = f(z)
    assert calls == []
    assert np.array_equal(np.abs(values),
                          np.abs(koebe().jet(z, 0)[0] + np.conj(zero_jet(z, 0, 0)[0])))
    assert np.array_equal(analytic_as_harmonic(koebe())(z), koebe().jet(z, 0)[0])
    shear = HarmonicMap(koebe(), poly([0.0, 0.3]))
    assert np.array_equal(shear(z), koebe().jet(z, 0)[0] + np.conj(0.3 * z))


def test_g_normalization_enforced():
    with pytest.raises(InvalidParameterError):
        HarmonicMap(poly([0.0, 1.0]), poly([0.5]))


def test_conjugate_parts():
    f = affine(0.5)
    F, G = conjugate_parts(f)
    assert F.derivative_at(0.3) == pytest.approx(1.5)
    assert G.derivative_at(0.3) == pytest.approx(0.5)
    fm = affine(0.5, sign=-1.0)
    F, G = conjugate_parts(fm)
    # ratio |G'|/|F'| equals K exactly for the extremal affine map
    assert abs(G.derivative_at(0.2j)) / abs(F.derivative_at(0.2j)) == pytest.approx(3.0)
    h = analytic_as_harmonic(cayley_half())
    F, G = conjugate_parts(h)
    z = 0.4 + 0.3j
    assert F(z) == pytest.approx(G(z))


def test_real_imag_part_reconstruction(rng):
    f = HarmonicMap(koebe(), poly([0.0, 0.0, 0.25]))
    z = disk_samples(rng, 300, r_max=0.9)
    u = real_part_map(f)
    v = imag_part_map(f)
    fu = u(z) + np.real(f(0.0))
    fv = v(z) + np.imag(f(0.0))
    np.testing.assert_allclose(np.real(f(z)), np.real(fu), atol=1e-12)
    np.testing.assert_allclose(np.imag(f(z)), np.real(fv), atol=1e-12)
    # u is real-valued
    np.testing.assert_allclose(np.imag(fu), 0.0, atol=1e-12)


def test_comparability_of_gradient_and_lambda(rng):
    maps = [
        analytic_as_harmonic(identity()),
        affine(0.5),
        analytic_as_harmonic(koebe()),
        HarmonicMap(poly([0.0, 0.5]), poly([0.0, 0.5])),  # Re z
        HarmonicMap(cayley_half(), poly([0.0, 0.0, 0.2])),
    ]
    z = disk_samples(rng, 1000, r_max=0.95)
    for f in maps:
        w = wirtinger(f, z)
        lam = w.lambda_big
        grad = w.grad_norm
        assert np.all(lam <= grad + 1e-12)
        assert np.all(grad <= math.sqrt(2.0) * lam + 1e-12)
    # tightness witnesses
    wz = wirtinger(analytic_as_harmonic(identity()), np.asarray(0.1 + 0.2j))
    assert wz.grad_norm == pytest.approx(math.sqrt(2.0) * wz.lambda_big, rel=1e-14)
    wre = wirtinger(HarmonicMap(poly([0.0, 0.5]), poly([0.0, 0.5])), np.asarray(0.3j))
    assert wre.grad_norm == pytest.approx(wre.lambda_big, rel=1e-14)


def test_jacobian_factorization(rng):
    z = disk_samples(rng, 500)
    for f in (affine(0.3), affine(0.8, -1.0), analytic_as_harmonic(koebe())):
        w = wirtinger(f, z)
        np.testing.assert_allclose(
            w.jacobian,
            w.lambda_big * w.lambda_small * np.sign(np.abs(w.fz) - np.abs(w.fzbar)),
            atol=1e-12,
        )


def test_angular_radial_values():
    f = analytic_as_harmonic(identity())
    z = 0.3 + 0.4j
    ft, bfb = angular_radial(f, z)
    assert ft == pytest.approx(1j * z)
    assert bfb == pytest.approx(z)
    ft0, bfb0 = angular_radial(f, 0.0)
    assert ft0 == 0.0 and bfb0 == 0.0
    fold = HarmonicMap(poly([0.0, 1.0]), poly([0.0, 1.0]))
    ft, bfb = angular_radial(fold, 0.5)
    assert ft == pytest.approx(0.0)
    assert bfb == pytest.approx(1.0)


def test_angular_derivative_matches_finite_difference(rng):
    f = HarmonicMap(koebe(), poly([0.0, 0.0, 0.3]))
    for z in disk_samples(rng, 20, r_max=0.8):
        ft, bfb = angular_radial(f, z)
        b, th = abs(z), np.angle(z)
        h = 1e-6
        fd_t = (f(b * np.exp(1j * (th + h))) - f(b * np.exp(1j * (th - h)))) / (2 * h)
        fd_b = (f((b + h) * np.exp(1j * th)) - f((b - h) * np.exp(1j * th))) / (2 * h)
        assert ft == pytest.approx(fd_t, abs=1e-5)
        assert b * fd_b == pytest.approx(bfb, abs=1e-5)


def test_estimate_quasiregularity():
    est = estimate_quasiregularity(affine(0.5))
    assert est.K_est == pytest.approx(3.0, rel=1e-12)
    assert est.Kprime_residual <= 1e-9

    est = estimate_quasiregularity(analytic_as_harmonic(koebe()))
    assert est.K_est == pytest.approx(1.0, rel=1e-12)

    fold = HarmonicMap(poly([0.0, 1.0]), poly([0.0, 1.0]))
    with pytest.raises(NonQuasiregularError):
        estimate_quasiregularity(fold)
    est = estimate_quasiregularity(fold, require_k=False, K_for_residual=1.0)
    assert est.Kprime_residual == pytest.approx(4.0, rel=1e-12)
    assert est.degenerate_points > 0

    # z + 2 conj(z): J = 1 - 4 < 0 at every sample, so no K bounds it
    est = estimate_quasiregularity(HarmonicMap(identity(), poly([0.0, 2.0])))
    assert est.K_est == math.inf
    # z + conj(z)^2: J = 1 - 4|z|^2 < 0 on the samples beyond |z| = 1/2
    est = estimate_quasiregularity(HarmonicMap(identity(),
                                               poly([0.0, 0.0, 1.0])))
    assert est.K_est == math.inf
    # a constant map has J = 0 everywhere and keeps K = 1
    est = estimate_quasiregularity(HarmonicMap(poly([1.0]), poly([0.0])))
    assert est.K_est == 1.0


@pytest.mark.parametrize("spec", [
    "identity", "affine:k=0.5;sign=1", "affine:k=0.5;sign=-1", "fold",
    "hpoly:h=0.2,1+0.3j;g=0,0.4-0.1j"])
@pytest.mark.parametrize("kw", [{}, {"require_k": False, "K_for_residual": 2.0}],
                         ids=["default", "residual-at-2"])
def test_constant_derivative_estimate_is_the_sampled_one(monkeypatch, spec, kw):
    # h' and g' constant: one wirtinger call at the grid's first point gives
    # every field the 32 x 64 samples and their compass polish give to the
    # same map behind generic jets, which the library cannot see into
    f = build_map(spec)
    sampled = HarmonicMap(generic(f.h), generic(f.g))
    assert constant_bases(f) and not constant_bases(sampled)
    calls = []

    def counted(*args):
        calls.append(np.size(args[1]))
        return wirtinger(*args)

    try:
        expected = estimate_quasiregularity(sampled, **kw)
    except NonQuasiregularError as err:
        assert "2048 sample(s)" in str(err)
        monkeypatch.setattr(harmonic, "wirtinger", counted)
        with pytest.raises(NonQuasiregularError, match=re.escape(str(err))):
            estimate_quasiregularity(f, **kw)
    else:
        monkeypatch.setattr(harmonic, "wirtinger", counted)
        assert estimate_quasiregularity(f, **kw) == expected
    assert calls == [1]


def test_estimate_nonconstant_dilatation():
    # w(z) = 0.5 z: sup |w| approaches 0.5 at the rim
    f = HarmonicMap(koebe(), poly([0.0]))
    from qrspaces.families import from_dilatation  # deferred: families tested later

    fd = from_dilatation(poly([1.0]), poly([0.0, 0.5]))
    est = estimate_quasiregularity(fd, SampleGrid(r_max=0.999))
    k_eff = 0.5 * 0.999
    assert est.K_est == pytest.approx((1 + k_eff) / (1 - k_eff), rel=1e-3)


def test_pointwise_conjugate_bound(rng):
    z = disk_samples(rng, 400)
    # equality family: f = z - k conj(z) has |G'| = K |F'|
    rep = pointwise_conjugate_bound(affine(0.5, -1.0), QrParams(3.0), z)
    assert rep.min_margin == pytest.approx(0.0, abs=1e-12)
    rep = pointwise_conjugate_bound(
        analytic_as_harmonic(cayley_half()), QrParams(1.0), z
    )
    assert rep.min_margin == pytest.approx(0.0, abs=1e-12)
    fold = HarmonicMap(poly([0.0, 1.0]), poly([0.0, 1.0]))
    rep = pointwise_conjugate_bound(fold, QrParams(1.0, 4.0), z)
    assert rep.min_margin == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(HypothesisViolationError):
        pointwise_conjugate_bound(affine(0.5, -1.0), QrParams(2.0), z)


def test_qr_params():
    p = QrParams(3.0)
    assert p.k == pytest.approx(0.5)
    assert p.mu1 == pytest.approx(0.5)
    assert p.mu2 == 0.0
    p = QrParams(1.0, 4.0)
    assert p.mu2 == pytest.approx(1.0)
    assert QrParams.from_k(0.5).K == pytest.approx(3.0)
    with pytest.raises(InvalidParameterError):
        QrParams(0.5)


def test_conjugate_derivative_ratio_bounded_by_distortion(rng):
    # sup |w| <= k forces |G'| <= K |F'| with K = (1+k)/(1-k)
    from qrspaces.families import cayley_shear, from_dilatation
    from qrspaces.analytic import derivative, koebe

    z = disk_samples(rng, 500, r_max=0.99)
    for k in (0.2, 0.5, 0.8):
        K = (1 + k) / (1 - k)
        for f in (cayley_shear(k),
                  from_dilatation(derivative(koebe()), poly([0.0, k]))):
            F, G = conjugate_parts(f)
            ratio = np.abs(G.jet(z, 1, 1)[1]) / np.abs(F.jet(z, 1, 1)[1])
            assert np.all(ratio <= K * (1.0 + 1e-12))
