"""Banded Toeplitz matrices and their determinant/trace identities.

Builders for T_N, T_N(z) and the interleaved band of T_N(z) plus corner
entries, the bidiagonal factorization check, exact word traces of mixed
shift products, moment integrals against the symbol curve, and the
closed-form determinant as a sum over root subsets (computed in log space
so growth rates stay readable at any N).
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations

import numpy as np

from .linalg import LOG_SINGULAR, LogDet
from .symbol import Symbol, char_poly_coeffs, root_profile

__all__ = [
    "build",
    "build_z",
    "interleaved_band",
    "bidiagonal_factor_check",
    "trace_word",
    "moment_lhs",
    "moment_rhs",
    "widom_sum",
]

# Trapezoid nodes of moment_rhs's circle average.
_MOMENT_NODES = 2**14


def _fill_diagonal(t: np.ndarray, offset: int, value: complex) -> None:
    n = t.shape[0]
    if value == 0 or abs(offset) >= n:
        return
    if offset >= 0:
        idx = np.arange(n - offset)
        t[idx, idx + offset] = value
    else:
        idx = np.arange(n + offset)
        t[idx - offset, idx] = value


def build(s: Symbol, n: int) -> np.ndarray:
    """T_N with entries (T)_{i,j} = a_{j-i}: ``build_z`` at z = 0."""
    return build_z(s, 0.0, n)


def build_z(s: Symbol, z: complex, n: int) -> np.ndarray:
    """T_N(z) = T_N - z Id, whose diagonals a_{-d2}, ..., a_0 - z, ..., a_{d1} are
    ``char_poly_coeffs(s, z)``: float64 when all are real, else complex128."""
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    c = char_poly_coeffs(s, z)
    c = c if c.imag.any() else c.real
    t = np.zeros((n, n), dtype=c.dtype)
    for k, value in enumerate(c, start=-s.d2):
        _fill_diagonal(t, k, value)
    return t


def _interleave_pos(idx: np.ndarray, n: int) -> np.ndarray:
    """Position of each index under the interleave order (0, N-1, 1, N-2, ...)."""
    back = idx >= (n + 1) // 2
    return np.where(back, 2 * (n - 1 - idx) + 1, 2 * idx)


def interleaved_band(
    s: Symbol, zs, n: int, rows=(), cols=(), vals=()
) -> tuple[np.ndarray, int, int]:
    """T_N(z) + Delta for each z in ``zs``, with rows and columns both taken
    in the interleave order (0, N-1, 1, N-2, ...), as ``band_logdet`` input
    ``(ab, kl, ku)``.

    Delta is zero but for ``vals`` added at (``rows``, ``cols``), such as
    ``noise.corner_entries`` gives.  ``vals`` may also be a (D, m) stack of
    D perturbations on the same entries; ``ab`` then holds D x len(zs)
    matrices, draw-major (matrix t * len(zs) + j is draw t at z_j).  A band
    matrix with corner entries wraps around; the interleave order makes it
    an ordinary band, with kl and ku read off the permuted nonzero pattern
    (both at most 2 max(d1, d2) for corner entries).  No N x N array is
    built, and a reordering of rows and columns together leaves the
    determinant as it is.
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    zs = np.atleast_1d(np.asarray(zs, dtype=np.complex128))
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    vals = np.asarray(vals, dtype=np.complex128)
    stack = vals[None] if vals.ndim == 1 else vals
    if not rows.shape == cols.shape == stack.shape[1:] or rows.ndim != 1:
        raise ValueError("rows and cols must be 1-d, as long as vals' last axis")
    if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
        raise ValueError(f"perturbation indices must lie in [0, {n})")
    # Each band diagonal's (row, col) positions after the reordering.
    diags = []
    for k in range(-s.d2, s.d1 + 1):
        if (k == 0 or s.coeff(k) != 0) and abs(k) < n:
            i = np.arange(max(0, -k), min(n, n - k))
            diags.append((k, _interleave_pos(i, n), _interleave_pos(i + k, n)))
    pr, pc = _interleave_pos(rows, n), _interleave_pos(cols, n)
    gaps = np.concatenate([q - p for _, p, q in diags] + [pc - pr])
    kl, ku = int(-gaps.min()), int(gaps.max())
    ab = np.zeros((len(stack), zs.size, n, kl + ku + 1), dtype=np.complex128)
    for k, p, q in diags:
        ab[:, :, p, kl + q - p] = s.coeff(k) - (zs[:, None] if k == 0 else 0.0)
    np.add.at(ab, (slice(None), slice(None), pr, kl + pc - pr), stack[:, None, :])
    return ab.reshape(-1, n, kl + ku + 1), kl, ku


def bidiagonal_factor_check(s: Symbol, z: complex, n: int) -> float:
    """Max-entry defect of the bidiagonal factorization of the fully
    upper-shifted matrix of size N + d2, the upper-triangular Toeplitz
    matrix T_{N+d2}(z; d, 0) whose k-th superdiagonal holds the coefficient
    a'_k of lam^k in P(lam) (k = 0..d):

        T_{N+d2}(z; d, 0) = a'_{d1} * prod_l (J + lam_l Id).

    Returns the maximum absolute entrywise difference (0 up to roundoff)."""
    prof = root_profile(s, z)
    m = n + s.d2
    ap = char_poly_coeffs(s, z)
    prod = np.eye(m, dtype=complex) * ap[-1]
    for lam in prof.roots:
        shifted = np.zeros_like(prod)
        shifted[:, 1:] = prod[:, :-1]
        prod = lam * prod + shifted
    target = np.zeros((m, m), dtype=complex)
    for k, c in enumerate(ap):
        _fill_diagonal(target, k, c)
    return float(np.max(np.abs(prod - target)))


def trace_word(ms, ns, n: int) -> int:
    """Exact trace of prod_t J^{m_t} (J*)^{n_t} on C^N.

    The product of shifts maps e_i to e_{i + total} when every intermediate
    index stays inside [0, N); counting surviving basis vectors reduces to
    the running prefix-shift extrema.  Unbalanced words trace to zero.
    """
    ms = [int(v) for v in ms]
    ns = [int(v) for v in ns]
    if len(ms) != len(ns):
        raise ValueError("exponent lists must have equal length")
    if any(v < 0 for v in ms + ns):
        raise ValueError("exponents must be nonnegative")
    if any(v > n for v in ms + ns):
        raise ValueError("exponents must not exceed the matrix size")
    shift = 0
    lo = 0
    hi = 0
    for m_t, n_t in reversed(list(zip(ms, ns))):
        shift += n_t
        hi = max(hi, shift)
        shift -= m_t
        lo = min(lo, shift)
    if shift != 0:
        return 0
    return max(0, n - hi + lo)


def moment_lhs(s: Symbol, z: complex, k: int, n: int) -> float:
    """(1/N) tr ((z Id - T_N)^k ((z Id - T_N)*)^k) computed densely.

    The adjoint factor is the conjugate transpose of the power, so the trace
    is just the squared Frobenius norm of (z Id - T_N)^k.  For the pure
    shift symbol a = lam at z = 0 this gives exactly (N - k)/N.
    """
    if k < 1:
        raise ValueError("moment order must be >= 1")
    m = -build_z(s, z, n)
    p = m
    for _ in range(k - 1):
        p = p @ m
    return float(np.vdot(p, p).real) / n


def moment_rhs(s: Symbol, z: complex, k: int) -> float:
    """Circle average of |z - a|^{2k} by the periodic trapezoid rule on
    _MOMENT_NODES nodes, which is spectrally accurate for this smooth integrand."""
    if k < 1:
        raise ValueError("moment order must be >= 1")
    theta = np.arange(_MOMENT_NODES) * (2.0 * np.pi / _MOMENT_NODES)
    vals = np.abs(z - s.eval_many(np.exp(1j * theta))) ** (2 * k)
    return float(vals.mean())


def widom_sum(s: Symbol, z: complex, n: int) -> LogDet:
    """det T_N(z) as the closed-form sum over d1-subsets of the roots,

        sum_I C_I a'_{d1}^N prod_{l in I} lam_l^N,
        C_I = prod_{j in I, k not in I} lam_j / (lam_j - lam_k),

    evaluated in log space (complex log-sum-exp) so the result is usable at
    sizes where the determinant itself would overflow.  Requires distinct
    roots; z too close to a root collision is rejected.
    """
    prof = root_profile(s, z)
    if prof.near_double:
        raise ValueError(
            "root pair too close for the subset formula at this z; "
            "perturb z or use an LU factorization"
        )
    lam = np.array(prof.roots, dtype=complex)
    d = s.d
    lead = complex(char_poly_coeffs(s, z)[-1])
    base = n * cmath.log(lead)
    log_terms: list[complex] = []
    for subset in combinations(range(d), s.d1):
        inside = set(subset)
        if any(lam[j] == 0 for j in subset):
            continue  # a zero root inside the subset kills the term exactly
        coef = 1.0 + 0j
        for j in subset:
            for k in range(d):
                if k not in inside:
                    coef *= lam[j] / (lam[j] - lam[k])
        if coef == 0:
            continue
        logt = base + cmath.log(coef)
        for j in subset:
            logt += n * cmath.log(lam[j])
        log_terms.append(logt)
    if not log_terms:
        return LogDet(LOG_SINGULAR, 1.0 + 0j, True)
    mx = max(t.real for t in log_terms)
    total = 0j
    for t in log_terms:
        total += cmath.exp(t - mx)
    mag = abs(total)
    if mag == 0.0:
        return LogDet(LOG_SINGULAR, 1.0 + 0j, True)
    return LogDet(mx + math.log(mag), total / mag, False)
