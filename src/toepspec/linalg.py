"""Linear-algebra kernels.

A matrix is a C-contiguous 2-d array, float64 or complex128 as its entries
need, so LAPACK runs its real routines on real data.  Every factorization
but one is one ``numpy.linalg`` (LAPACK) call: ``slogdet`` for
log-determinants, ``eigvals`` for spectra (always returned complex),
``svd`` for singular values, and ``qr`` for Haar unitaries.  The exception
is ``band_logdet``, a complex128 partial-pivoted band LU written here in
numpy, because numpy has no band solver and numpy stays the package's only
dependency.  This module fixes the package's contracts around those calls:
input coercion, the ``LogDet`` form with its singular sentinel, and how
non-convergence is reported.  Results are bit-identical across reruns for
a fixed numpy/BLAS build and BLAS thread setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import generator

__all__ = [
    "ConvergenceError",
    "LogDet",
    "LOG_SINGULAR",
    "SpectrumResult",
    "as_matrix",
    "lu_logdet",
    "lu_det",
    "band_logdet",
    "eigenvalues",
    "singular_values",
    "smin",
    "stieltjes_from_singvals",
    "hs_norm",
    "haar_unitary",
]

#: Sentinel stored in ``LogDet.log_abs`` for an exactly singular factorization.
LOG_SINGULAR = -1.0e300


class ConvergenceError(RuntimeError):
    """Raised when an iterative kernel (the SVD's QR iteration) fails to converge."""


def as_matrix(m) -> np.ndarray:
    """A C-contiguous, 2-d, finite float64 matrix, or complex128 for complex input."""
    a = np.ascontiguousarray(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got array of shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _require_square(a: np.ndarray) -> None:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")


# ---------------------------------------------------------------------------
# Determinants


@dataclass(frozen=True)
class LogDet:
    """Determinant in log-magnitude/phase form.

    ``det = phase * exp(log_abs)`` with ``|phase| = 1``; ``singular`` marks an
    exactly vanishing pivot, in which case ``log_abs`` holds the sentinel
    ``LOG_SINGULAR`` and ``det`` is zero.
    """

    log_abs: float
    phase: complex
    singular: bool = False

    @property
    def det(self) -> complex:
        if self.singular:
            return 0j
        return self.phase * math.exp(self.log_abs)


def lu_logdet(m) -> LogDet:
    """log|det| and phase of a square matrix via partial-pivoted LU."""
    a = as_matrix(m)
    _require_square(a)
    sign, log_abs = np.linalg.slogdet(a)
    if sign == 0:
        return LogDet(LOG_SINGULAR, 1.0 + 0j, True)
    return LogDet(float(log_abs), complex(sign), False)


def lu_det(m) -> complex:
    """Plain determinant (0 for singular input). Overflows if log|det| > 709."""
    return lu_logdet(m).det


def band_logdet(ab, kl: int, ku: int) -> list[LogDet]:
    """log|det| and phase of B band matrices of equal order N, one ``LogDet``
    per matrix, by partial-pivoted LU.

    ``ab`` has shape (B, N, kl + ku + 1) and holds row i of matrix b as
    ``ab[b, i, kl + j - i] = A_b[i, j]`` for i - kl <= j <= i + ku; slots
    outside the matrix are ignored.  The rows are copied into a work array
    of width 2 kl + ku + 1, which leaves room for the fill that row swaps
    bring.  Step k sees rows k..k+kl and columns k..k+kl+ku, the only part
    of the matrix the step can read or change, as a skewed view of that
    array; the Python loop runs over k and is vectorized over the batch, so
    a call costs O(B N (kl + 1)(kl + ku)) flops and O(B N (kl + ku)) memory.
    An exactly zero pivot column marks the matrix singular, as in
    ``lu_logdet``.
    """
    kl, ku = int(kl), int(ku)
    a = np.asarray(ab, dtype=np.complex128)
    if kl < 0 or ku < 0:
        raise ValueError("band widths must be nonnegative")
    if a.ndim != 3 or a.shape[2] != kl + ku + 1 or a.shape[1] < 1:
        raise ValueError(
            f"expected band storage of shape (B, N, {kl + ku + 1}), got {a.shape}"
        )
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    nb, n, _ = a.shape
    span = kl + ku + 1
    # Row i keeps columns i - kl .. i + kl + ku, and kl zero rows pad the
    # last windows.
    work = np.zeros((nb, n + kl, span + kl), dtype=np.complex128)
    work[:, :n, :span] = a
    # windows[:, k][b, r, c] is A_b[k + r, k + c] (work[b, k + r, kl + c - r]).
    sb, sr, sc = work.strides
    windows = np.lib.stride_tricks.as_strided(
        work[:, :, kl:], shape=(nb, n, kl + 1, span), strides=(sb, sr, sr - sc, sc)
    )
    batch = np.arange(nb)
    pivots = np.empty((n, nb), dtype=np.complex128)
    picks = np.empty((n, nb), dtype=np.int64)
    # A zero pivot leaves its multipliers NaN; the matrix is then singular
    # and nothing computed after that step is used.
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in range(n):
            w = windows[:, k]
            p = np.abs(w[:, :, 0]).argmax(axis=1)
            top = w[batch, p]
            w[batch, p] = w[:, 0]
            picks[k] = p
            pivots[k] = top[:, 0]
            if kl:
                w[:, 1:, 1:] -= (w[:, 1:, :1] / top[:, None, :1]) * top[:, None, 1:]
        # The log sum and phase product run down the pivots one step at a
        # time, so a matrix's result does not depend on its batch: a plain
        # sum over a batch of one would switch to pairwise summation.
        mags = np.abs(pivots)
        log_abs = np.add.accumulate(np.log(mags), axis=0)[-1]
        phase = np.multiply.accumulate(pivots / mags, axis=0)[-1]
        phase /= np.abs(phase)
    phase *= np.where((picks != 0).sum(axis=0) % 2, -1.0, 1.0)
    singular = (mags == 0).any(axis=0)
    return [
        LogDet(LOG_SINGULAR, 1.0 + 0j, True) if sing else LogDet(float(la), complex(ph), False)
        for sing, la, ph in zip(singular, log_abs, phase)
    ]


# ---------------------------------------------------------------------------
# General spectra


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray
    converged: bool


def eigenvalues(m) -> SpectrumResult:
    """All eigenvalues of a square matrix (unordered), always as complex128.

    ``converged`` is False when the QR iteration fails; the input's diagonal
    is then reported in place of the spectrum, so the values stay finite.
    """
    a = as_matrix(m)
    _require_square(a)
    try:
        return SpectrumResult(np.linalg.eigvals(a).astype(np.complex128, copy=False), True)
    except np.linalg.LinAlgError:
        return SpectrumResult(a.diagonal().astype(np.complex128), False)


# ---------------------------------------------------------------------------
# Singular values and Stieltjes transforms


def singular_values(m) -> np.ndarray:
    """All singular values of a square matrix, descending."""
    a = as_matrix(m)
    _require_square(a)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc


def smin(m) -> float:
    """Smallest singular value."""
    return float(singular_values(m)[-1])


def stieltjes_from_singvals(svals: np.ndarray, xi) -> complex | np.ndarray:
    """Stieltjes transform of the symmetrized singular-value law at each ``xi`` (a complex)."""
    xi = np.asarray(xi, dtype=complex)
    if (xi.imag == 0.0).any():
        raise ValueError("xi must have nonzero imaginary part")
    s = np.asarray(svals, dtype=float)
    n = s.size
    if n == 0:
        raise ValueError("empty singular-value list")
    g = (1.0 / (xi[..., None] - s) + 1.0 / (xi[..., None] + s)).sum(axis=-1) / (2.0 * n)
    return complex(g) if g.ndim == 0 else g


# ---------------------------------------------------------------------------
# Norms


def hs_norm(m) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    a = as_matrix(m)
    return math.sqrt(float(np.vdot(a, a).real))


# ---------------------------------------------------------------------------
# Haar unitaries


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed n-by-n unitary.

    QR of a complex Ginibre matrix with the R-diagonal phases divided out,
    which makes the factorization unique and the law exactly Haar.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rg = generator(seed)
    g = (rg.standard_normal((n, n)) + 1j * rg.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    rdiag = r.diagonal()
    mags = np.abs(rdiag)
    ph = np.where(mags > 0, rdiag / np.where(mags > 0, mags, 1.0), 1.0)
    return q * ph[np.newaxis, :]
