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
    eigenvalues,
    haar_unitary,
    hs_norm,
    load_matrix,
    lu_det,
    lu_logdet,
    op_norm_est,
    save_matrix,
    singular_values,
    smin,
    stieltjes,
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


def test_logdet_det_property():
    ld = LogDet(log_abs=math.log(2.0), phase=1j)
    assert ld.det == pytest.approx(2j, rel=1e-12)


def test_lu_logdet_rejects_nonsquare(rng):
    with pytest.raises(ValueError):
        lu_logdet(random_complex(rng, 3, 4))


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
    assert stieltjes(m, xi) == pytest.approx(want, rel=1e-8)
    assert stieltjes_from_singvals(sv, xi) == pytest.approx(want, rel=1e-12)


def test_stieltjes_requires_offaxis_point(rng):
    with pytest.raises(ValueError):
        stieltjes(random_complex(rng, 4), 1.0)
    with pytest.raises(ValueError):
        stieltjes_from_singvals(np.array([]), 1j)


# ---------------------------------------------------------------------------
# Norms


def test_hs_norm_matches_frobenius(rng):
    m = random_complex(rng, 7)
    assert hs_norm(m) == pytest.approx(np.linalg.norm(m, "fro"), rel=1e-12)


def test_op_norm_est_brackets_top_singular_value(rng):
    for n in (5, 15, 30):
        m = random_complex(rng, n)
        top = float(np.linalg.svd(m, compute_uv=False)[0])
        est = op_norm_est(m)
        assert est == pytest.approx(top, rel=1e-12)


def test_op_norm_est_zero_matrix():
    assert op_norm_est(np.zeros((4, 4), dtype=complex)) == 0.0


# ---------------------------------------------------------------------------
# Haar sampling and matrix serialization


def test_haar_unitary_is_unitary():
    u = haar_unitary(12, seed=5)
    assert np.abs(u @ u.conj().T - np.eye(12)).max() < 1e-12
    assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10


def test_haar_unitary_seeding():
    a = haar_unitary(6, seed=1)
    assert np.array_equal(a, haar_unitary(6, seed=1))
    assert not np.array_equal(a, haar_unitary(6, seed=2))


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (4, 4), (0, 0)])
def test_matrix_io_roundtrip(rng, tmp_path, shape):
    m = random_complex(rng, shape[0], shape[1]) if min(shape) else np.zeros(shape, complex)
    path = tmp_path / "m.cmat"
    save_matrix(m, path)
    back = load_matrix(path)
    assert back.shape == m.shape
    assert np.array_equal(back, m)


def test_load_matrix_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.cmat"
    path.write_bytes(b"NOTME" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_matrix(path)
