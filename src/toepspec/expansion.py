"""Finite-rank determinant expansions and anti-concentration experiments.

The additive decomposition det(A + B) = sum over index-set pairs of signed
minor products is exact for any square A, B; here B is typically a sparse
corner perturbation, so the sum is tiny.  Index sets are 0-based throughout
the package; the closed forms below are stated for that convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._rng import generator
from .linalg import as_matrix, lu_logdet
from .symbol import BOUNDARY, Symbol, _log_potential, classify_region, root_profile
from .toeplitz import build_z

__all__ = [
    "perm_sign",
    "det_sum_decomposition",
    "bidiag_subdet",
    "corner_pk",
    "DominanceReport",
    "dominance_report",
    "AntiConcRow",
    "AntiConcTable",
    "anti_conc_experiment",
]

_BOUND_BASE = 8.0 * math.e


def perm_sign(x, n: int) -> int:
    """Sign of the permutation moving the sorted index set ``x`` to the front
    of range(n) while keeping both halves in order: (-1)^(sum_t (x_t - t))."""
    xs = sorted(int(v) for v in x)
    if len(set(xs)) != len(xs):
        raise ValueError("index set must have distinct entries")
    if xs and (xs[0] < 0 or xs[-1] >= n):
        raise ValueError(f"indices must lie in [0, {n})")
    inv = sum(v - t for t, v in enumerate(xs))
    return -1 if inv % 2 else 1


def _det(m: np.ndarray) -> complex:
    return lu_logdet(m).det


def _pair_sum(a: np.ndarray, b: np.ndarray, rows, cols, k: int) -> complex:
    """sum_{X in rows, Y in cols, |X|=|Y|=k} sign(X) sign(Y) det(A[X^c, Y^c]) det(B[X, Y])."""
    n = a.shape[0]
    every = np.arange(n)
    total = 0j
    for x in combinations(rows, k):
        xc = np.delete(every, x)
        sx = perm_sign(x, n)
        for y in combinations(cols, k):
            db = _det(b[np.ix_(x, y)])
            if db == 0:
                continue
            yc = np.delete(every, y)
            total += sx * perm_sign(y, n) * _det(a[np.ix_(xc, yc)]) * db
    return total


def det_sum_decomposition(a, b, max_n: int = 12) -> complex:
    """det(A + B) expanded over index-set pairs:

        sum_{X, Y, |X|=|Y|=k} sign(X) sign(Y) det(A[X^c, Y^c]) det(B[X, Y]).

    Enumeration restricted to B's nonzero rows/columns; guarded to small
    sizes because the pair count is combinatorial in the B support.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("A and B must be square matrices of equal size")
    n = a.shape[0]
    if n > max_n:
        raise ValueError(f"decomposition guarded to n <= {max_n}, got {n}")
    rows = [i for i in range(n) if np.any(b[i, :] != 0)]
    cols = [j for j in range(n) if np.any(b[:, j] != 0)]
    return complex(
        sum(_pair_sum(a, b, rows, cols, k) for k in range(min(len(rows), len(cols)) + 1))
    )


def bidiag_subdet(zfrak: complex, x, y, n: int) -> complex:
    """det((J_N + zfrak Id)[X^c, Y^c]) in closed form, 0-based X, Y.

    Nonzero exactly when the sets interlace (y_i <= x_i < y_{i+1}); the value
    is then zfrak to the power N - k, split as
    zfrak^{y_0} * prod_i zfrak^{y_i - x_{i-1} - 1} * zfrak^{N - 1 - x_{k-1}}.
    """
    zfrak = complex(zfrak)
    xs = sorted(int(v) for v in x)
    ys = sorted(int(v) for v in y)
    if len(xs) != len(ys):
        raise ValueError("X and Y must have the same cardinality")
    k = len(xs)
    for seq in (xs, ys):
        if len(set(seq)) != len(seq):
            raise ValueError("index sets must have distinct entries")
        if seq and (seq[0] < 0 or seq[-1] >= n):
            raise ValueError(f"indices must lie in [0, {n})")
    if k == 0:
        return zfrak**n
    for i in range(k):
        if not (ys[i] <= xs[i] and (i + 1 == k or xs[i] < ys[i + 1])):
            return 0j
    expo = ys[0] + (n - 1 - xs[-1])
    for i in range(1, k):
        expo += ys[i] - xs[i - 1] - 1
    return zfrak**expo


def corner_pk(s: Symbol, z: complex, delta, k: int, max_support: int = 12) -> complex:
    """k-th term of det(T_N(z) + Delta) expanded in the perturbation:

        P_k = sum_{|X|=|Y|=k} sign(X) sign(Y) det(T_N(z)[X^c, Y^c]) det(Delta[X, Y]),

    with X, Y running over Delta's nonzero rows/columns.  P_0 is det T_N(z);
    k beyond the support rank gives exactly 0.
    """
    delta = as_matrix(delta)
    if delta.shape[0] != delta.shape[1]:
        raise ValueError("perturbation must be square")
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = delta.shape[0]
    rows = [i for i in range(n) if np.any(delta[i, :] != 0)]
    cols = [j for j in range(n) if np.any(delta[:, j] != 0)]
    if max(len(rows), len(cols)) > max_support:
        raise ValueError(
            f"perturbation support too large to enumerate ({len(rows)} rows, "
            f"{len(cols)} cols; guard is {max_support})"
        )
    tz = build_z(s, z, n)
    if k == 0:
        return _det(tz)
    if k > min(len(rows), len(cols)):
        return 0j
    return complex(_pair_sum(tz, delta, rows, cols, k))


@dataclass(frozen=True)
class DominanceReport:
    """Size-resolved comparison of expansion terms against the dominant scale.

    ``log_normalizer`` is N log|a'_{d1}| + N sum_{|lam|>1} log|lam| (the log
    of the limiting modulus scale); ratios compare |sum of terms above/below
    the region order| to that scale, and ``normalized_pd`` is |P_{|dd|}| on
    the same scale.
    """

    n: int
    dd: int
    d0: int
    p_values: tuple[complex, ...]
    p_abs: tuple[float, ...]
    log_normalizer: float
    ratio_above: float
    ratio_below: float
    normalized_pd: float


def _log_ratio(value: float, log_norm: float) -> float:
    if value == 0.0:
        return 0.0
    return math.exp(math.log(value) - log_norm)


def dominance_report(s: Symbol, z: complex, delta) -> DominanceReport:
    """Expansion-term magnitudes of det(T_N(z) + Delta) relative to the
    limiting scale, for z in an open region (boundary z rejected)."""
    label = classify_region(s, z)
    if label == BOUNDARY:
        raise ValueError("z lies on the region boundary; dominance is undefined")
    delta = as_matrix(delta)
    n = delta.shape[0]
    prof = root_profile(s, z)
    log_norm = n * _log_potential(s, prof)
    p_values = [corner_pk(s, z, delta, k) for k in range(s.d + 1)]
    p_abs = [abs(p) for p in p_values]
    ad = abs(int(label))
    above = sum(p_abs[ad + 1 :])
    below = sum(p_abs[:ad])
    return DominanceReport(
        n=n,
        dd=int(label),
        d0=prof.d0,
        p_values=tuple(p_values),
        p_abs=tuple(p_abs),
        log_normalizer=log_norm,
        ratio_above=_log_ratio(above, log_norm),
        ratio_below=_log_ratio(below, log_norm),
        normalized_pd=_log_ratio(p_abs[ad], log_norm),
    )


# ---------------------------------------------------------------------------
# Anti-concentration of multilinear polynomials in uniform variables


@dataclass(frozen=True)
class AntiConcRow:
    epsilon: float
    frequency: float
    wilson_low: float
    wilson_high: float
    bound: float


@dataclass(frozen=True)
class AntiConcTable:
    k: int
    trials: int
    c_star: float
    rows: tuple[AntiConcRow, ...]


def _wilson(successes: int, trials: int, zcrit: float = 1.96) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    z2 = zcrit * zcrit
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (
        zcrit
        * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


def anti_conc_experiment(
    k: int, n: int, coeffs, eps_grid, trials: int, seed
) -> AntiConcTable:
    """Empirical small-ball frequencies of a degree-k multilinear polynomial
    Q = sum_S c_S prod_{i in S} U_i in i.i.d. Uniform[0,1] variables, against
    the theoretical bound

        P(|Q| <= eps) <= (8e)^k (c* ^ 1)^{-1} eps log(1/eps)^{k-1},

    where c* is the largest coefficient modulus.  Requires eps in (0, 1/e].
    """
    if k < 1:
        raise ValueError("degree k must be >= 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    terms: list[tuple[tuple[int, ...], complex]] = []
    c_star = 0.0
    for key, val in dict(coeffs).items():
        idx = tuple(int(i) for i in key)
        if len(idx) != k or len(set(idx)) != k:
            raise ValueError(f"index tuple {idx} is not a k-set of distinct variables")
        if min(idx) < 0 or max(idx) >= n:
            raise ValueError(f"index tuple {idx} outside [0, {n})")
        val = complex(val)
        terms.append((idx, val))
        c_star = max(c_star, abs(val))
    if not terms or c_star == 0.0:
        raise ValueError("need at least one nonzero coefficient")
    eps_grid = [float(e) for e in eps_grid]
    for eps in eps_grid:
        if not (0.0 < eps <= math.exp(-1.0)):
            raise ValueError(f"epsilon {eps} outside (0, 1/e]")
    rg = generator(seed)
    u = rg.random((trials, n))
    q = np.zeros(trials, dtype=complex)
    for idx, val in terms:
        q += val * np.prod(u[:, idx], axis=1)
    absq = np.abs(q)
    cfac = 1.0 / min(c_star, 1.0)
    rows = []
    for eps in sorted(eps_grid):
        hits = int((absq <= eps).sum())
        lo, hi = _wilson(hits, trials)
        bound = (_BOUND_BASE**k) * cfac * eps * math.log(1.0 / eps) ** (k - 1)
        rows.append(
            AntiConcRow(
                epsilon=eps,
                frequency=hits / trials,
                wilson_low=lo,
                wilson_high=hi,
                bound=bound,
            )
        )
    return AntiConcTable(k=k, trials=trials, c_star=c_star, rows=tuple(rows))
