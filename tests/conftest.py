import numpy as np
import pytest


def disk_samples(rng, n, r_max=0.999):
    """Uniform-area samples in |z| < r_max."""
    r = r_max * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    return r * np.exp(1j * theta)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def generic(f):
    """``f`` behind a plain jet evaluator, so that operations on it take the
    generic combine tree and the radial antiderivative quadrature."""
    from qrspaces.analytic import AnalyticFn

    return AnalyticFn(lambda z, order, min_order: f.jet(z, order, min_order),
                      max_order=f.max_order, description=f.description)


def column_spy(monkeypatch) -> list:
    """(rows, columns) of every polar grid that ``quadrature._row_blocks``
    walks from now on: columns count/2 + 1 where a walk folds onto the
    half circle."""
    from qrspaces import quadrature

    grids = []
    walk = quadrature._row_blocks

    def spy(rho, eig):
        grids.append((rho.size, eig.size))
        return walk(rho, eig)

    monkeypatch.setattr(quadrature, "_row_blocks", spy)
    return grids
