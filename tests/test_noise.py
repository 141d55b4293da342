"""Noise ensembles: normalization, support patterns, seeding, tail reports."""

import numpy as np
import pytest

from toepspec._rng import generator, seed_sequence
from toepspec import (
    ConfigError,
    NoiseModel,
    Symbol,
    corner_delta,
    corner_entries,
    corner_support,
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


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "gaussian_complex", "p": 0.5},
        {"kind": "rademacher", "gamma_star": 3.0},
        {"kind": "sparse_bernoulli_gaussian", "p": 0.5, "gamma_star": 3.0},
        {"kind": "corner_delta", "gamma_star": 3.0, "p": 0.5},
    ],
)
def test_noise_model_rejects_fields_its_kind_does_not_read(data):
    # An unread field would still change the config hash of the run.
    with pytest.raises(ConfigError, match="does not read"):
        NoiseModel.from_json(data)


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


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "sparse_bernoulli_gaussian", "p": True},
        {"kind": "sparse_bernoulli_gaussian", "p": "0.2"},
        {"kind": "corner_delta", "gamma_star": True},
    ],
)
def test_noise_model_json_rejects_non_numbers(data):
    with pytest.raises(ValueError, match="must be a number"):
        NoiseModel.from_json(data)


@pytest.mark.parametrize("root", [5, 2**130 + 7, np.random.SeedSequence(9, spawn_key=(4,))])
def test_seed_sequence_appends_the_key_to_the_root(root):
    if isinstance(root, np.random.SeedSequence):
        entropy, spawn = root.entropy, (4,)
        assert seed_sequence(root) is root
    else:
        entropy, spawn = root & ((1 << 128) - 1), ()
    for key in [(), (0,), (3, 17, 2)]:
        got = seed_sequence(root, *key)
        want = np.random.SeedSequence(entropy=entropy, spawn_key=spawn + key)
        assert (got.entropy, got.spawn_key) == (want.entropy, want.spawn_key)
        assert np.array_equal(got.generate_state(8), want.generate_state(8))


# ---------------------------------------------------------------------------
# Entry statistics (fixed seeds keep these deterministic)


def test_gaussian_real_unit_variance():
    e = sample(NoiseModel("gaussian_real"), 200, seed=3)
    assert e.shape == (200, 200) and e.dtype == np.float64
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


def test_gaussian_complex_draw_is_pinned():
    # The real parts are the stream's first N^2 normals and the imaginary
    # parts its next N^2, both scaled by sqrt(1/2).
    for n, seed in ((1, 0), (7, 3), (100, 12345)):
        rg = generator(seed)
        x = rg.standard_normal((n, n))
        y = rg.standard_normal((n, n))
        got = sample(NoiseModel("gaussian_complex"), n, seed)
        assert got.dtype == np.complex128
        assert np.array_equal(got, np.sqrt(0.5) * (x + 1j * y))


@pytest.mark.parametrize("kind", ["gaussian_real", "rademacher", "sparse_bernoulli_gaussian"])
def test_real_kinds_draw_float64(kind):
    model = NoiseModel(kind, p=0.3 if kind == "sparse_bernoulli_gaussian" else None)
    assert sample(model, 5, 1).dtype == np.float64


@pytest.mark.parametrize("coeffs, d1, d2", [((0, 1, 1), 2, 0), ((1, 0.5j, 2, 0.3), 1, 2)])
@pytest.mark.parametrize("transpose", [False, True])
def test_corner_delta_is_the_per_entry_scatter_of_its_stream(coeffs, d1, d2, transpose):
    # The stream and the values are fixed: one Uniform[1/2, 1] draw per
    # support pair, in sorted pair order, scaled by N^{-gamma*}.  The
    # transposed corners are the corners of the swapped widths (d2, d1),
    # and the support is all the symbol contributes.
    s = Symbol((1.0,) * len(coeffs), d2, d1) if transpose else Symbol(coeffs, d1, d2)
    for n, seed in ((4, 0), (9, 7), (31, 123456789)):
        support = corner_support(n, s.d1, s.d2)
        if transpose:
            assert support == sorted((j, i) for i, j in corner_support(n, d1, d2))
        vals = float(n) ** -4.5 * generator(seed).uniform(0.5, 1.0, size=len(support))
        want = np.zeros((n, n))
        for (i, j), v in zip(support, vals):
            want[i, j] = v
        got = corner_delta(s, n, 4.5, seed)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        rows, cols, entries = corner_entries(s, n, 4.5, seed)
        assert list(zip(rows.tolist(), cols.tolist())) == support
        assert entries.tobytes() == vals.tobytes()


def test_corner_entries_checks_the_corner_regime(quad):
    with pytest.raises(ValueError):
        corner_entries(quad, 2, 3.0, seed=0)  # N <= max(d1, d2)
    with pytest.raises(ValueError):
        corner_entries(quad, 10, 2.0, seed=0)  # gamma_star <= d


def test_corner_delta_norm_bound(quad):
    # Row sums are at most d entries of size N^{-gamma*}, so the operator
    # norm obeys the same polynomial envelope.
    n, gs = 30, 3.0
    delta = corner_delta(quad, n, gs, seed=2)
    assert np.linalg.norm(delta, 2) <= quad.d * float(n) ** (-gs)


def test_corner_orientation_is_not_a_parameter(quad):
    # The transposed corners are those of the swapped widths (d2, d1).
    for call in (
        lambda: corner_support(8, 2, 1, transpose=True),
        lambda: corner_entries(quad, 8, 3.0, 0, transpose=True),
        lambda: corner_delta(quad, 8, 3.0, 0, transpose=True),
    ):
        with pytest.raises(TypeError):
            call()


def test_corner_delta_validation(quad):
    with pytest.raises(ValueError):
        corner_delta(quad, 20, gamma_star=2.0, seed=0)  # needs gamma_star > d
    with pytest.raises(ValueError):
        corner_delta(quad, 2, gamma_star=3.0, seed=0)


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
