"""Shared fixtures: the two workhorse symbols and a seeded generator."""

import numpy as np
import pytest

from toepspec import Symbol


@pytest.fixture(scope="session")
def quad():
    """a(lam) = lam + lam^2  (d1=2, d2=0)."""
    return Symbol((0.0, 1.0, 1.0), 2, 0)


@pytest.fixture(scope="session")
def tri():
    """a(lam) = lam^{-1} + lam  (d1=1, d2=1): the symmetric tridiagonal symbol."""
    return Symbol((1.0, 0.0, 1.0), 1, 1)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_symbol_and_zs(d1, d2, seed):
    """A seeded random symbol (complex coefficients) and 4 z values drawn
    uniformly from its curve's bounding box widened by 0.5."""
    g = np.random.default_rng(seed)
    coeffs = g.standard_normal(d1 + d2 + 1) + 1j * g.standard_normal(d1 + d2 + 1)
    s = Symbol(tuple(coeffs), d1, d2)
    curve = s.curve(256)
    re = g.uniform(curve.real.min() - 0.5, curve.real.max() + 0.5, 4)
    im = g.uniform(curve.imag.min() - 0.5, curve.imag.max() + 0.5, 4)
    return s, [complex(z) for z in re + 1j * im]
