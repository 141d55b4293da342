"""Noise ensembles: normalization, support patterns, seeding, tail reports."""

import numpy as np
import pytest

from toepspec import (
    NoiseModel,
    Symbol,
    corner_delta,
    corner_support,
    op_norm_est,
    sample,
    smin_tail_check,
)


# ---------------------------------------------------------------------------
# Model validation and serialization


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("white")  # unknown kind
    with pytest.raises(ValueError):
        NoiseModel("sparse_bernoulli_gaussian")  # p missing
    with pytest.raises(ValueError):
        NoiseModel("sparse_bernoulli_gaussian", p=1.5)
    with pytest.raises(ValueError):
        NoiseModel("corner_delta")  # gamma_star missing


def test_noise_model_json_roundtrip():
    models = [
        NoiseModel("gaussian_complex"),
        NoiseModel("sparse_bernoulli_gaussian", p=0.2),
        NoiseModel("corner_delta", gamma_star=3.0),
    ]
    for m in models:
        assert NoiseModel.from_json(m.to_json()) == m
    with pytest.raises(ValueError):
        NoiseModel.from_json({"kind": "gaussian_real", "sigma": 2.0})
    # The scaling exponent is the experiment's gamma, not the model's.
    with pytest.raises(ValueError, match="gamma"):
        NoiseModel.from_json({"kind": "gaussian_real", "gamma": 0.75})


# ---------------------------------------------------------------------------
# Entry statistics (fixed seeds keep these deterministic)


def test_gaussian_real_unit_variance():
    e = sample(NoiseModel("gaussian_real"), 200, seed=3)
    assert e.shape == (200, 200) and e.dtype == np.complex128
    assert np.abs(e.imag).max() == 0.0
    assert np.var(e.real) == pytest.approx(1.0, abs=0.03)
    assert np.mean(e.real) == pytest.approx(0.0, abs=0.02)


def test_gaussian_complex_split_variance():
    e = sample(NoiseModel("gaussian_complex"), 200, seed=4)
    assert np.var(e.real) == pytest.approx(0.5, abs=0.02)
    assert np.var(e.imag) == pytest.approx(0.5, abs=0.02)
    assert np.mean(np.abs(e) ** 2) == pytest.approx(1.0, abs=0.03)


def test_rademacher_entries():
    e = sample(NoiseModel("rademacher"), 100, seed=5)
    assert set(np.unique(e.real)) == {-1.0, 1.0}
    assert np.abs(e.imag).max() == 0.0
    assert abs(np.mean(e.real)) < 0.03


def test_sparse_bernoulli_gaussian():
    p = 0.1
    e = sample(NoiseModel("sparse_bernoulli_gaussian", p=p), 200, seed=6)
    frac = np.mean(e != 0)
    assert frac == pytest.approx(p, abs=0.01)
    assert np.var(e.real[e != 0]) == pytest.approx(1.0 / p, rel=0.1)
    assert np.mean(np.abs(e) ** 2) == pytest.approx(1.0, rel=0.1)


def test_haar_scaled_is_scaled_unitary():
    n = 32
    e = sample(NoiseModel("haar_scaled"), n, seed=7)
    assert np.abs(e @ e.conj().T - n * np.eye(n)).max() < 1e-9
    assert np.mean(np.abs(e) ** 2) == pytest.approx(1.0, rel=1e-9)


def test_sample_seeding_and_domains():
    m = NoiseModel("gaussian_complex")
    a = sample(m, 30, seed=11)
    assert np.array_equal(a, sample(m, 30, seed=11))
    assert not np.array_equal(a, sample(m, 30, seed=12))


def test_sample_rejects_corner_kind():
    with pytest.raises(ValueError):
        sample(NoiseModel("corner_delta", gamma_star=3.0), 10, seed=0)


# ---------------------------------------------------------------------------
# Corner perturbations


def test_corner_support_frozen(quad, tri):
    assert corner_support(10, quad.d1, quad.d2) == [(8, 0), (9, 0), (9, 1)]
    assert corner_support(6, tri.d1, tri.d2) == [(0, 5), (5, 0)]


def test_corner_support_transpose():
    plain = corner_support(8, 2, 1)
    flipped = corner_support(8, 2, 1, transpose=True)
    assert sorted((j, i) for i, j in plain) == flipped


def test_corner_support_validation():
    with pytest.raises(ValueError):
        corner_support(2, 2, 0)  # too small for the band width
    with pytest.raises(ValueError):
        corner_support(5, -1, 0)


def test_corner_delta_entries(quad):
    n, gs = 20, 3.0
    delta = corner_delta(quad, n, gs, seed=9)
    support = {(i, j) for i, j in zip(*np.nonzero(delta))}
    assert support == set(corner_support(n, quad.d1, quad.d2))
    vals = delta[delta != 0]
    assert np.abs(vals.imag).max() == 0.0
    scale = float(n) ** (-gs)
    assert np.all(vals.real >= 0.5 * scale) and np.all(vals.real <= scale)


def test_corner_delta_norm_bound(quad):
    # Row sums are at most d entries of size N^{-gamma*}, so the operator
    # norm obeys the same polynomial envelope.
    n, gs = 30, 3.0
    delta = corner_delta(quad, n, gs, seed=2)
    assert op_norm_est(delta) <= quad.d * float(n) ** (-gs)


def test_corner_delta_validation(quad):
    with pytest.raises(ValueError):
        corner_delta(quad, 20, gamma_star=2.0, seed=0)  # needs gamma_star > d
    with pytest.raises(ValueError):
        corner_delta(quad, 2, gamma_star=3.0, seed=0)


def test_corner_delta_transpose_flag(quad):
    a = corner_delta(quad, 12, 3.0, seed=1)
    b = corner_delta(quad, 12, 3.0, seed=1, transpose=True)
    assert np.array_equal(np.sort(a[a != 0]), np.sort(b[b != 0]))
    assert {(j, i) for i, j in zip(*np.nonzero(a))} == set(
        zip(*np.nonzero(b))
    )


# ---------------------------------------------------------------------------
# Smallest-singular-value tails


def test_smin_tail_report_shape():
    model = NoiseModel("gaussian_complex")
    rep = smin_tail_check(model, np.zeros((16, 16), complex), trials=25, seed=0)
    assert rep.n == 16 and rep.trials == 25
    assert rep.betas == (1.0, 2.0, 4.0)
    assert rep.smins.shape == (25,)
    assert np.all(rep.smins > 0.0)
    # Lower thresholds can only trim the tail fraction.
    assert rep.fractions[1.0] >= rep.fractions[2.0] >= rep.fractions[4.0]
    again = smin_tail_check(model, np.zeros((16, 16), complex), trials=25, seed=0)
    assert np.array_equal(rep.smins, again.smins)


def test_smin_tail_centering_shifts_values(tri):
    # A strongly diagonally dominant centering keeps smin away from zero
    # (raw noise at n=12 has operator norm around 2 sqrt(n)).
    m = 20.0 * np.eye(12, dtype=complex)
    rep = smin_tail_check(NoiseModel("gaussian_complex"), m, trials=10, seed=1)
    assert np.all(rep.smins > 5.0)


def test_smin_tail_validation():
    with pytest.raises(ValueError):
        smin_tail_check(
            NoiseModel("gaussian_real"), np.zeros((3, 4), complex), 5, 0
        )
    with pytest.raises(ValueError):
        smin_tail_check(
            NoiseModel("gaussian_real"), np.zeros((3, 3), complex), 0, 0
        )
