"""Dense kernels against numpy.linalg and classical closed forms.

The kernels are thin wrappers over numpy.linalg, so the comparisons with it
are regression pins on the wrappers' contracts (ordering, the LogDet form,
the singular sentinel, non-convergence reporting); the closed forms stay
independent checks.
"""

import math

import numpy as np
import pytest

from conftest import random_complex
from toepspec import (
    LOG_SINGULAR,
    ConvergenceError,
    LogDet,
    band_logdet,
    eigenvalues,
    haar_unitary,
    hs_norm,
    lu_det,
    lu_logdet,
    singular_values,
    smin,
    stieltjes_from_singvals,
)
from toepspec.linalg import as_matrix


def sorted_complex(v):
    v = np.asarray(v, dtype=complex)
    return v[np.lexsort((v.imag, v.real))]


# ---------------------------------------------------------------------------
# LU determinants


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 20])
def test_lu_logdet_matches_slogdet(rng, n):
    for _ in range(10):
        m = random_complex(rng, n)
        ld = lu_logdet(m)
        sign, logabs = np.linalg.slogdet(m)
        assert not ld.singular
        assert ld.log_abs == pytest.approx(logabs, abs=1e-9, rel=1e-12)
        assert ld.phase == pytest.approx(sign, abs=1e-9)


def test_lu_det_matches_numpy(rng):
    for n in (1, 2, 4, 7):
        m = random_complex(rng, n)
        assert lu_det(m) == pytest.approx(np.linalg.det(m), rel=1e-9)


def test_lu_logdet_flags_singular():
    m = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)  # rank one
    ld = lu_logdet(m)
    assert ld.singular
    assert ld.log_abs == LOG_SINGULAR
    assert ld.det == 0


def band_storage(m, kl, ku):
    """Row-wise band storage of a dense matrix: out[i, kl + j - i] = m[i, j]."""
    n = m.shape[0]
    ab = np.zeros((n, kl + ku + 1), dtype=complex)
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            ab[i, kl + j - i] = m[i, j]
    return ab


def random_band(rng, n, kl, ku):
    m = random_complex(rng, n)
    i, j = np.indices((n, n))
    m[(j - i > ku) | (i - j > kl)] = 0
    return m


@pytest.mark.parametrize("kl, ku", [(0, 0), (0, 3), (3, 0), (1, 1), (4, 4), (2, 5)])
def test_band_logdet_matches_slogdet(rng, kl, ku):
    # One batched call over matrices of the same order.  Two backward-stable
    # LUs agree to about cond * eps; random triangular band matrices grow
    # ill-conditioned with n, so the tolerance follows the condition number.
    for n in (1, 2, 5, 13, 40):
        mats = [random_band(rng, n, kl, ku) for _ in range(3)]
        got = band_logdet(np.stack([band_storage(m, kl, ku) for m in mats]), kl, ku)
        assert len(got) == 3
        for m, ld in zip(mats, got):
            sign, logabs = np.linalg.slogdet(m)
            tol = 1e-13 * max(10.0, np.linalg.cond(m))
            assert not ld.singular
            assert abs(ld.log_abs - logabs) <= tol, (n, kl, ku)
            assert abs(ld.phase - sign) <= tol, (n, kl, ku)


def test_band_logdet_does_not_depend_on_the_batch(rng):
    # Each matrix gets the same LogDet, to the bit, alone or in any batch;
    # n = 300 is past the length where a pairwise sum would round otherwise.
    n, kl, ku = 300, 4, 4
    ab = np.stack([band_storage(random_band(rng, n, kl, ku), kl, ku) for _ in range(5)])
    batch = band_logdet(ab, kl, ku)
    for b in range(5):
        assert band_logdet(ab[b : b + 1], kl, ku) == [batch[b]]
        assert band_logdet(ab[b:][::-1], kl, ku)[-1] == batch[b]


def test_band_logdet_ignores_slots_off_the_matrix(rng):
    m = random_band(rng, 6, 2, 1)
    ab = band_storage(m, 2, 1)
    filled = ab.copy()
    for i in range(6):
        for c in range(4):
            if not 0 <= i + c - 2 < 6:
                filled[i, c] = 7.0 - 3j
    assert band_logdet(filled[None], 2, 1) == band_logdet(ab[None], 2, 1)


def test_band_logdet_flags_singular_per_matrix(rng):
    # A zero column is an exact zero pivot; the other matrix of the batch
    # is unaffected.
    sick = random_band(rng, 8, 2, 2)
    sick[:, 3] = 0
    well = random_band(rng, 8, 2, 2)
    got = band_logdet(np.stack([band_storage(sick, 2, 2), band_storage(well, 2, 2)]), 2, 2)
    assert got[0] == LogDet(LOG_SINGULAR, 1.0 + 0j, True)
    assert not got[1].singular
    assert got[1].log_abs == pytest.approx(np.linalg.slogdet(well)[1], abs=1e-9)


def test_band_logdet_validation(rng):
    ab = band_storage(random_band(rng, 5, 1, 1), 1, 1)[None]
    with pytest.raises(ValueError):
        band_logdet(ab, 1, 2)  # width does not match kl + ku + 1
    with pytest.raises(ValueError):
        band_logdet(ab[0], 1, 1)  # no batch axis
    with pytest.raises(ValueError):
        band_logdet(ab, -1, 3)
    with pytest.raises(ValueError):
        band_logdet(np.zeros((1, 0, 3)), 1, 1)
    bad = ab.copy()
    bad[0, 2, 1] = np.nan
    with pytest.raises(ValueError):
        band_logdet(bad, 1, 1)


def test_logdet_det_property():
    ld = LogDet(log_abs=math.log(2.0), phase=1j)
    assert ld.det == pytest.approx(2j, rel=1e-12)


def test_lu_logdet_rejects_nonsquare(rng):
    with pytest.raises(ValueError):
        lu_logdet(random_complex(rng, 3, 4))


def test_as_matrix_keeps_real_input_real():
    for m, dtype in (
        ([[1, 2], [3, 4]], np.float64),
        (np.eye(2, dtype=np.float32), np.float64),
        (np.eye(2, dtype=bool), np.float64),
        ([[1.0, 2j], [0, 1]], np.complex128),
        (np.eye(2, dtype=np.complex64), np.complex128),
        (np.zeros((2, 2), dtype=complex), np.complex128),
    ):
        a = as_matrix(m)
        assert a.dtype == dtype and a.flags.c_contiguous
    a = np.asfortranarray(np.ones((3, 2)))
    assert np.array_equal(as_matrix(a), a) and as_matrix(a).flags.c_contiguous


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]))  # 1-D
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# General eigenvalues


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34])
def test_eigenvalues_match_numpy(rng, n):
    for _ in range(5):
        m = random_complex(rng, n)
        res = eigenvalues(m)
        assert res.converged
        got = sorted_complex(res.eigenvalues)
        want = sorted_complex(np.linalg.eigvals(m))
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() < 1e-7 * scale


def test_eigenvalues_triangular_exact(rng):
    m = np.triu(random_complex(rng, 9))
    got = sorted_complex(eigenvalues(m).eigenvalues)
    want = sorted_complex(np.diag(m))
    assert np.abs(got - want).max() < 1e-10


def test_eigenvalues_tridiagonal_closed_form():
    # Symmetric tridiagonal (0 diagonal, unit off-diagonals) has eigenvalues
    # 2 cos(k pi / (n+1)), k = 1..n.
    n = 30
    m = np.zeros((n, n), dtype=complex)
    m[np.arange(n - 1), np.arange(1, n)] = 1.0
    m[np.arange(1, n), np.arange(n - 1)] = 1.0
    got = np.sort(eigenvalues(m).eigenvalues.real)
    want = np.sort(2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    assert np.abs(got - want).max() < 1e-10
    assert np.abs(eigenvalues(m).eigenvalues.imag).max() < 1e-10


def test_eigenvalues_nilpotent_cluster():
    # A single Jordan block is maximally ill-conditioned: computed values
    # scatter on a circle of radius ~ eps^(1/n) around 0.  Only the cluster
    # radius is checkable.
    n = 8
    m = np.diag(np.ones(n - 1, dtype=complex), 1)
    res = eigenvalues(m)
    assert res.converged
    assert np.abs(res.eigenvalues).max() < 0.1


def test_eigenvalues_repeated_diagonalizable(rng):
    want = np.array([1.0, 1.0, 1.0, 2.0, -3.0 + 1j], dtype=complex)
    q = np.linalg.qr(random_complex(rng, 5))[0]
    m = q @ np.diag(want) @ q.conj().T
    got = sorted_complex(eigenvalues(m).eigenvalues)
    assert np.abs(got - sorted_complex(want)).max() < 1e-8


def _raise_linalg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("forced non-convergence")


def test_eigenvalues_nonconvergence_reports_diagonal(rng, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvals", _raise_linalg_error)
    m = random_complex(rng, 7)
    res = eigenvalues(m)
    assert not res.converged
    assert res.eigenvalues.shape == (7,)
    assert np.isfinite(res.eigenvalues).all()
    assert np.array_equal(res.eigenvalues, np.diag(m))


def test_eigenvalues_of_a_real_matrix_are_complex_conjugate_pairs(rng):
    # A real input stays real through LAPACK (dgeev), whose spectrum is
    # closed under conjugation exactly; the result is complex128 even when
    # every eigenvalue is real.
    m = rng.standard_normal((40, 40))
    got = eigenvalues(m).eigenvalues
    assert got.dtype == np.complex128
    assert np.array_equal(np.sort(got), np.sort(got.conj()))
    assert eigenvalues(np.diag([1.0, 2.0])).eigenvalues.dtype == np.complex128


def test_eigenvalues_empty_and_scalar():
    res = eigenvalues(np.array([[3.0 - 2j]]))
    assert res.eigenvalues[0] == pytest.approx(3.0 - 2j)
    assert eigenvalues(np.zeros((0, 0), dtype=complex)).eigenvalues.size == 0


# ---------------------------------------------------------------------------
# Singular values and Stieltjes transforms


@pytest.mark.parametrize("n", [1, 2, 5, 12, 25])
def test_singular_values_match_svd(rng, n):
    m = random_complex(rng, n)
    got = singular_values(m)
    want = np.linalg.svd(m, compute_uv=False)
    assert got.shape == (n,)
    assert np.all(np.diff(got) <= 1e-12)  # descending
    assert np.abs(got - want).max() < 1e-8 * max(1.0, want[0])


def test_singular_values_rank_deficient(rng):
    u = random_complex(rng, 6, 1)
    v = random_complex(rng, 1, 6)
    got = singular_values(u @ v)
    assert got[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-9)
    assert np.all(got[1:] < 1e-10)
    assert np.all(got >= 0.0)


def test_singular_values_nonconvergence_raises(rng, monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", _raise_linalg_error)
    m = random_complex(rng, 5)
    with pytest.raises(ConvergenceError):
        singular_values(m)
    with pytest.raises(ConvergenceError):
        smin(m)


def test_smin_matches_svd(rng):
    m = random_complex(rng, 10)
    assert smin(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[-1], rel=1e-8)


def test_stieltjes_matches_direct_sum(rng):
    m = random_complex(rng, 8)
    sv = np.linalg.svd(m, compute_uv=False)
    xi = 0.7 + 0.9j
    want = np.mean(0.5 / (xi - sv) + 0.5 / (xi + sv))
    assert stieltjes_from_singvals(sv, xi) == pytest.approx(want, rel=1e-12)


def test_stieltjes_broadcasts_over_an_array_of_points(rng):
    # Each point of an array gives the bits of its own scalar call.
    sv = np.linalg.svd(random_complex(rng, 9), compute_uv=False)
    xi = np.linspace(0.0, sv[0], 21) + 1j * np.array([[0.5], [1.0], [2.0]])
    got = stieltjes_from_singvals(sv, xi)
    assert got.shape == (3, 21)
    assert all(g == stieltjes_from_singvals(sv, x) for g, x in zip(got.flat, xi.flat))
    assert type(stieltjes_from_singvals(sv, 1j)) is complex
    with pytest.raises(ValueError):
        stieltjes_from_singvals(sv, np.array([1j, 2.0]))


def test_stieltjes_requires_offaxis_point(rng):
    sv = np.linalg.svd(random_complex(rng, 4), compute_uv=False)
    with pytest.raises(ValueError):
        stieltjes_from_singvals(sv, 1.0)
    with pytest.raises(ValueError):
        stieltjes_from_singvals(np.array([]), 1j)


# ---------------------------------------------------------------------------
# Norms


def test_hs_norm_matches_frobenius(rng):
    m = random_complex(rng, 7)
    assert hs_norm(m) == pytest.approx(np.linalg.norm(m, "fro"), rel=1e-12)


# ---------------------------------------------------------------------------
# Haar sampling


def test_haar_unitary_is_unitary():
    u = haar_unitary(12, seed=5)
    assert np.abs(u @ u.conj().T - np.eye(12)).max() < 1e-12
    assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10


def test_haar_unitary_seeding():
    a = haar_unitary(6, seed=1)
    assert np.array_equal(a, haar_unitary(6, seed=1))
    assert not np.array_equal(a, haar_unitary(6, seed=2))
