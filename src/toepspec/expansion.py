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
from .linalg import as_matrix, lu_det
from .symbol import ConfigError, Symbol, _log_potential, root_profile
from .toeplitz import build_z

__all__ = [
    "perm_sign",
    "det_sum_decomposition",
    "bidiag_subdet",
    "DominanceReport",
    "dominance_report",
    "AntiConcRow",
    "AntiConcTable",
    "anti_conc_experiment",
]

_BOUND_BASE = 8.0 * math.e

# The index-set enumerations are combinatorial, so det_sum_decomposition takes
# matrices of order at most this and the corner terms a perturbation with at
# most this many nonzero rows and columns.
_GUARD = 12

# Normal quantile of the 95% Wilson interval.
_Z95 = 1.96


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


def _support(rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct rows and columns of the entries at (rows, cols),
    guarded against a large enumeration."""
    rows = np.unique(np.asarray(rows, dtype=np.intp))
    cols = np.unique(np.asarray(cols, dtype=np.intp))
    if max(len(rows), len(cols)) > _GUARD:
        raise ValueError(
            f"perturbation support too large to enumerate ({len(rows)} rows, "
            f"{len(cols)} cols; guard is {_GUARD})"
        )
    return rows, cols


def _minor_table(a: np.ndarray, rows, cols, k: int) -> tuple:
    """The k-subsets X of rows and Y of cols, pair by pair, as (P, k) arrays
    of positions in ``rows`` and ``cols``, with each pair's signed minor
    sign(X) sign(Y) det(A[X^c, Y^c])."""
    n = a.shape[0]
    every = np.arange(n)
    pairs = [
        (x, y) for x in combinations(range(len(rows)), k) for y in combinations(range(len(cols)), k)
    ]
    xs = np.array([x for x, _ in pairs], dtype=np.intp).reshape(len(pairs), k)
    ys = np.array([y for _, y in pairs], dtype=np.intp).reshape(len(pairs), k)
    minors = np.array(
        [
            perm_sign(x, n) * perm_sign(y, n)
            * lu_det(a[np.ix_(np.delete(every, x), np.delete(every, y))])
            for x, y in zip(rows[xs], cols[ys])
        ],
        dtype=complex,
    )
    return xs, ys, minors


def _table_sums(table, blocks: np.ndarray) -> list[complex]:
    """For each (rows x cols) block B of the (D, R, C) stack ``blocks``, the
    sum over the table of its signed minor times det(B[X, Y]), in table
    order and skipping exact zeros; the D x P k x k blocks go to one stacked
    det call.  Each draw is summed on its own, since a masked sum over the
    whole stack would change numpy's pairwise grouping and so the rounding."""
    xs, ys, minors = table
    dets = np.linalg.det(blocks[:, xs[:, :, None], ys[:, None, :]])
    terms = minors * dets
    return [complex(np.sum(row[keep])) for row, keep in zip(terms, dets != 0)]


def det_sum_decomposition(a, b) -> complex:
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
    if n > _GUARD:
        raise ValueError(f"decomposition guarded to n <= {_GUARD}, got {n}")
    rows, cols = _support(*np.nonzero(b))
    block = b[np.ix_(rows, cols)][None]
    ks = range(min(len(rows), len(cols)) + 1)
    return complex(sum(_table_sums(_minor_table(a, rows, cols, k), block)[0] for k in ks))


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


def _region_scale(s: Symbol, z: complex) -> tuple[int, int, float]:
    """(region order, d0, log-potential) at z from one root solve; boundary z rejected."""
    prof = root_profile(s, z)
    if prof.boundary:
        raise ValueError("z lies on the region boundary; dominance is undefined")
    return prof.dd, prof.d0, _log_potential(s, prof)


def _corner_tables(s: Symbol, z: complex, n: int, rows, cols) -> tuple:
    """What draws on the support at (``rows``, ``cols``) share: its distinct
    rows and cols, and the k = 0..d minor tables of T_N(z) on them.  The
    k = 0 table holds det T_N(z) alone, so P_0 takes the route of every P_k.
    The terms are plain complex floats, so a det T_N(z) or minor past double
    range is a ConfigError."""
    rs, cs = _support(rows, cols)
    tz = build_z(s, z, n)
    try:
        return rs, cs, [_minor_table(tz, rs, cs, k) for k in range(s.d + 1)]
    except OverflowError as exc:
        raise ConfigError(
            f"det T_N(z) at N = {n} leaves double range; the expansion terms "
            "are complex floats, so take a smaller N"
        ) from exc


def _report(scale, n: int, p_values) -> DominanceReport:
    """The report on one draw's terms P_0..P_d, with ``scale`` from ``_region_scale``."""
    label, d0, log_pot = scale
    log_norm = n * log_pot
    p_abs = [abs(p) for p in p_values]
    ad = abs(label)
    above = sum(p_abs[ad + 1 :])
    below = sum(p_abs[:ad])
    return DominanceReport(
        n=n,
        dd=label,
        d0=d0,
        p_values=tuple(p_values),
        p_abs=tuple(p_abs),
        log_normalizer=log_norm,
        ratio_above=_log_ratio(above, log_norm),
        ratio_below=_log_ratio(below, log_norm),
        normalized_pd=_log_ratio(p_abs[ad], log_norm),
    )


def _corner_reports(corner, scale, n: int, rows, cols, vals) -> list:
    """One ``DominanceReport`` per draw at size ``n``: row t of the (D, m)
    ``vals`` holds draw t's corner entries at (``rows``, ``cols``), and
    ``corner`` is the ``_corner_tables`` of that support, factored once for
    all draws.  Each draw's entries go into a (rows x cols) corner block, and
    each k makes one det call over all draws and pairs; no N x N
    perturbation is built."""
    rs, cs, tables = corner
    blocks = np.zeros((len(vals), len(rs), len(cs)), dtype=complex)
    blocks[:, np.searchsorted(rs, rows), np.searchsorted(cs, cols)] = vals
    sums = [_table_sums(table, blocks) for table in tables]
    return [_report(scale, n, p_values) for p_values in zip(*sums)]


def dominance_report(s: Symbol, z: complex, delta) -> DominanceReport:
    """Expansion-term magnitudes of det(T_N(z) + Delta) relative to the
    limiting scale, for z in an open region (boundary z rejected)."""
    scale = _region_scale(s, z)
    delta = as_matrix(delta)
    if delta.shape[0] != delta.shape[1]:
        raise ValueError("perturbation must be square")
    rows, cols = np.nonzero(delta)
    corner = _corner_tables(s, z, delta.shape[0], rows, cols)
    return _corner_reports(corner, scale, delta.shape[0], rows, cols, delta[rows, cols][None])[0]


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


def _wilson(successes: int, trials: int) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (
        _Z95
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
