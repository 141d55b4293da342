"""Banded Laurent symbols and their root geometry.

A symbol is a Laurent polynomial a(lam) = sum_{k=-d2..d1} a_k lam^k with
a_{d1} != 0 (and a_{-d2} != 0 when d2 > 0).  For a spectral parameter z the
characteristic polynomial is

    P(lam) = (a(lam) - z) * lam^d2,   degree d = d1 + d2.

The d stored root values are the NEGATED roots of P, sorted by nonincreasing
modulus; the count d0(z) of moduli >= 1 classifies z into open regions
indexed by the order dd = d1 - d0, with a BOUNDARY label where moduli sit on
the unit circle (within tolerance).  By the argument principle dd is also
the winding number of the curve a(S^1) around z, which is how region_labels
labels a whole grid: winding numbers off a thin band around the curve, the
Aberth root iteration on the band.  The limiting log-potential of the
symbol's curve measure mu_a evaluates in closed form from the same roots.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._rng import generator

__all__ = [
    "BOUNDARY",
    "ConfigError",
    "RootFindingError",
    "Symbol",
    "RootProfile",
    "MuASample",
    "aberth_roots",
    "char_poly_coeffs",
    "root_profile",
    "classify_region",
    "region_labels",
    "limit_logpot",
    "sample_mu_a",
]

#: Region label for z indistinguishable from the symbol curve at tolerance.
BOUNDARY = "boundary"

#: A root modulus in [1 - TOL_BOUNDARY, 1 + TOL_BOUNDARY] counts as on the
#: unit circle, which makes z a BOUNDARY point.
TOL_BOUNDARY = 1e-9

#: Two roots closer than this are flagged as numerically inseparable.
TOL_DOUBLE = 1e-7

# region_labels solves its band nodes in blocks of this many rows, which
# bounds the (rows, d, d) temporaries of the Aberth step; results do not
# depend on it.
_ROOT_BLOCK = 8192

# Cap on the curve samples region_labels takes for its winding numbers; a
# coarser polygon only widens the band that goes to the Aberth iteration.
_MAX_CURVE_SAMPLES = 1 << 16

# Aberth iteration cap, and the relative residual at which a root counts as
# done: |p(x)| <= _TOL_RESIDUAL * sum |c_l| |x|^l.
_MAX_ITER = 200
_TOL_RESIDUAL = 1e-12


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration: a field of the
    wrong form or out of range."""


def _json_int(value, name: str) -> int:
    """A JSON integer field's value: a bool, a non-number or a number with a
    fractional part raises ConfigError instead of being truncated."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _json_float(value, name: str) -> float:
    """A JSON number field's value as a float: a bool or a non-number raises
    ConfigError instead of being read as 1.0 or parsed from text."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{name} must be a number, got {value!r}")


class RootFindingError(RuntimeError):
    """Root iteration failed to converge (typically a near-degenerate z)."""


@dataclass(frozen=True)
class Symbol:
    """Finitely banded Laurent symbol.

    ``coeffs`` lists a_{-d2}, ..., a_{d1} in ascending power order, so the
    tuple is simultaneously the ascending coefficient vector of
    a(lam) * lam^d2.
    """

    coeffs: tuple[complex, ...]
    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 0 or self.d2 < 0:
            raise ValueError("d1 and d2 must be nonnegative")
        if self.d1 + self.d2 < 1:
            raise ValueError("symbol must have at least one nonzero band")
        coeffs = tuple(complex(c) for c in self.coeffs)
        if len(coeffs) != self.d1 + self.d2 + 1:
            raise ValueError(
                f"expected {self.d1 + self.d2 + 1} coefficients "
                f"(a_-d2..a_d1), got {len(coeffs)}"
            )
        if coeffs[-1] == 0:
            raise ValueError("leading coefficient a_d1 must be nonzero")
        if self.d2 > 0 and coeffs[0] == 0:
            raise ValueError("trailing coefficient a_-d2 must be nonzero")
        if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in coeffs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def d(self) -> int:
        return self.d1 + self.d2

    def coeff(self, k: int) -> complex:
        """a_k for -d2 <= k <= d1."""
        if not -self.d2 <= k <= self.d1:
            raise IndexError(f"band index {k} outside [-{self.d2}, {self.d1}]")
        return self.coeffs[k + self.d2]

    def eval(self, lam: complex) -> complex:
        """a(lam); undefined at 0 when the symbol has negative powers."""
        return complex(self.eval_many(np.asarray([lam], dtype=complex))[0])

    def eval_many(self, lams) -> np.ndarray:
        """Vectorized evaluation over an array of points."""
        lam = np.asarray(lams, dtype=complex)
        if self.d2 > 0 and np.any(lam == 0):
            raise ValueError("symbol with negative powers is undefined at 0")
        out = np.zeros_like(lam)
        for k in range(self.d1, 0, -1):
            out = (out + self.coeff(k)) * lam
        out = out + self.coeff(0)
        if self.d2:
            inv = 1.0 / lam
            acc = np.zeros_like(lam)
            for k in range(self.d2, 0, -1):
                acc = (acc + self.coeff(-k)) * inv
            out = out + acc
        return out

    def curve(self, nodes: int = 512) -> np.ndarray:
        """Samples of a(e^{i theta}) on an equispaced angular grid."""
        theta = np.linspace(0.0, 2.0 * np.pi, nodes, endpoint=False)
        return self.eval_many(np.exp(1j * theta))

    def to_json(self) -> dict:
        return {
            "d1": self.d1,
            "d2": self.d2,
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data) -> "Symbol":
        """Build from a JSON object: {"d1":., "d2":., "coeffs":[[re,im],..]}."""
        if not isinstance(data, dict):
            raise ValueError("symbol JSON must be an object")
        extra = set(data) - {"d1", "d2", "coeffs"}
        if extra:
            raise ValueError(f"unknown symbol fields: {sorted(extra)}")
        try:
            d1 = _json_int(data["d1"], "d1")
            d2 = _json_int(data["d2"], "d2")
            coeffs = tuple(
                complex(_json_float(re, "coeff"), _json_float(im, "coeff"))
                for re, im in data["coeffs"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed symbol JSON: {exc}") from exc
        return cls(coeffs, d1, d2)


@dataclass(frozen=True)
class RootProfile:
    """Characteristic roots of a symbol at a point z (negated convention).

    ``roots`` are sorted by nonincreasing modulus, ties broken by descending
    real then imaginary part.  ``d0`` counts moduli >= 1, ``dd = d1 - d0`` is
    the region order, ``boundary`` marks a modulus within ``TOL_BOUNDARY`` of
    1, and ``near_double`` flags a root pair closer than ``TOL_DOUBLE``.
    """

    z: complex
    roots: tuple[complex, ...]
    d0: int
    dd: int
    boundary: bool
    near_double: bool = False


@dataclass(frozen=True)
class MuASample:
    """Points a(U) for U uniform on the unit circle, with the seed used."""

    points: np.ndarray
    seed: int


def char_poly_coeffs(s: Symbol, z: complex) -> np.ndarray:
    """Ascending coefficients of (a(lam) - z) * lam^{d2}."""
    c = np.array(s.coeffs, dtype=complex)
    c[s.d2] -= z
    return c


# ---------------------------------------------------------------------------
# Aberth-Ehrlich simultaneous root iteration


def _horner_all(c: np.ndarray, x: np.ndarray):
    """Batched p(x), p'(x) and the residual scale sum |c_l| |x|^l.

    ``c`` has shape (B, n) ascending; ``x`` has shape (B, m).
    """
    p = np.broadcast_to(c[:, -1][:, None], x.shape).copy()
    dp = np.zeros_like(x)
    ax = np.abs(x)
    sc = np.broadcast_to(np.abs(c[:, -1])[:, None], x.shape).copy()
    for ell in range(c.shape[1] - 2, -1, -1):
        dp = dp * x + p
        p = p * x + c[:, ell][:, None]
        sc = sc * ax + np.abs(c[:, ell])[:, None]
    return p, dp, sc


def _aberth_step(p: np.ndarray, dp: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Aberth corrections (p/p') / (1 - (p/p') sum_{j != i} 1/(x_i - x_j)),
    row by row; non-finite where iterates collide or p' vanishes."""
    idx = np.arange(x.shape[1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = p / dp
        diffs = x[:, :, None] - x[:, None, :]
        diffs[:, idx, idx] = np.inf
        ssum = (1.0 / diffs).sum(axis=2)
        return ratio / (1.0 - ratio * ssum)


def _aberth_batch(c: np.ndarray):
    """Simultaneous roots for a batch of same-degree polynomials.

    Requires nonzero leading AND constant coefficients in every row (zero
    roots must be stripped by the caller).  Returns (roots (B, deg),
    ok (B,) convergence mask).  All arithmetic is row by row, so a row's
    result does not depend on the other rows of the batch; each stage works
    only on the rows it can still change.
    """
    b, n = c.shape
    deg = n - 1
    r0 = (np.abs(c[:, 0]) / np.abs(c[:, -1])) ** (1.0 / deg)
    angles = 2.0 * np.pi * np.arange(deg) / deg + 0.4
    x = r0[:, None] * np.exp(1j * angles)[None, :]
    done = np.zeros((b, deg), dtype=bool)
    live = np.arange(b)  # rows with a root not yet done
    for _ in range(_MAX_ITER):
        xl = x[live]
        p, dp, sc = _horner_all(c[live], xl)
        dl = done[live] | (np.abs(p) <= _TOL_RESIDUAL * np.maximum(sc, 1e-300))
        done[live] = dl
        keep = ~dl.all(axis=1)
        if not keep.any():
            break
        live, xl, dl = live[keep], xl[keep], dl[keep]
        step = _aberth_step(p[keep], dp[keep], xl)
        bad = ~np.isfinite(step)
        if bad.any():
            # collided iterates or vanishing derivative: nudge instead
            step = np.where(bad, (0.01 + 0.02j) * (1.0 + np.abs(xl)), step)
        x[live] = np.where(dl, xl, xl - step)
    # Polish sweeps, applied to every row: the residual test above lets a
    # multiple root freeze while still ~sqrt(_TOL_RESIDUAL) away (its residual
    # is quadratic in the distance), which would leave an exact double root
    # looking like two points 1e-6 apart.  Each sweep contracts a straddling
    # pair by ~1/3, so a few of them reach the attainable floor.  A sweep is
    # a pure function of (c, x), so a row whose x comes out bit-identical is
    # at a fixed point and drops out of the later sweeps.
    moving = np.arange(b)
    for _ in range(8):
        xm = x[moving]
        p, dp, _ = _horner_all(c[moving], xm)
        step = _aberth_step(p, dp, xm)
        xn = np.where(np.isfinite(step), xm - step, xm)
        x[moving] = xn
        moving = moving[(xn.view(np.int64) != xm.view(np.int64)).any(axis=1)]
        if moving.size == 0:
            break
    p, _, sc = _horner_all(c, x)
    ok = (np.abs(p) <= 10.0 * _TOL_RESIDUAL * np.maximum(sc, 1e-300)) | done
    return x, ok.all(axis=1)


def aberth_roots(coeffs) -> np.ndarray:
    """All complex roots of a polynomial (ascending coefficients).

    Exact zero roots are deflated first; the remainder is found by the
    Aberth-Ehrlich iteration started on a circle of radius
    (|c_0|/|c_deg|)^(1/deg).  Raises RootFindingError on non-convergence.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("need an ascending coefficient vector of degree >= 1")
    if c[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    nz = 0
    while c[nz] == 0:
        nz += 1
    work = c[nz:]
    deg = work.size - 1
    zero_part = np.zeros(nz, dtype=complex)
    if deg == 0:
        return zero_part
    if deg == 1:
        return np.concatenate([[-work[0] / work[1]], zero_part])
    roots, ok = _aberth_batch(work[np.newaxis, :])
    if not ok[0]:
        raise RootFindingError(
            f"root iteration did not converge in {_MAX_ITER} steps"
        )
    return np.concatenate([roots[0], zero_part])


def _sorted_roots(lam: np.ndarray) -> np.ndarray:
    """Sort by nonincreasing modulus; near-ties by (-re, -im)."""
    moduli = np.abs(lam)
    order = np.argsort(-moduli, kind="stable")
    lam = lam[order]
    moduli = moduli[order]
    i = 0
    n = lam.size
    while i < n:
        j = i + 1
        while j < n and moduli[i] - moduli[j] <= 1e-12 * max(1.0, moduli[i]):
            j += 1
        if j - i > 1:
            lam[i:j] = sorted(lam[i:j], key=lambda w: (-w.real, -w.imag))
        i = j
    return lam


def _split(s: Symbol, moduli):
    """The region order d1 - #{m >= 1} and whether the split is clean (no
    modulus within TOL_BOUNDARY of 1), over the last axis of ``moduli``."""
    dd = s.d1 - (moduli >= 1.0).sum(axis=-1)
    near = (moduli >= 1.0 - TOL_BOUNDARY) & (moduli <= 1.0 + TOL_BOUNDARY)
    return dd, ~near.any(axis=-1)


def root_profile(s: Symbol, z: complex) -> RootProfile:
    """Characteristic roots at z with region bookkeeping.

    Raises RootFindingError for the degenerate point z = a_0 of a symbol
    with d1 = 0 (the polynomial degree collapses) and on non-convergence.
    """
    z = complex(z)
    c = char_poly_coeffs(s, z)
    if c[-1] == 0:
        raise RootFindingError(
            "characteristic polynomial degenerates at this z (d1 = 0 and z = a_0)"
        )
    lam = _sorted_roots(-aberth_roots(c))
    dd, clean = _split(s, np.abs(lam))
    near_double = False
    if lam.size > 1:
        sep = np.abs(lam[:, None] - lam[None, :])
        sep[np.arange(lam.size), np.arange(lam.size)] = np.inf
        near_double = bool(sep.min() < TOL_DOUBLE)
    return RootProfile(
        z=z,
        roots=tuple(lam),
        d0=s.d1 - int(dd),
        dd=int(dd),
        boundary=not clean,
        near_double=near_double,
    )


def classify_region(s: Symbol, z: complex) -> int | str:
    """Region order dd = d1 - d0 at z, or BOUNDARY when a root modulus lies
    within TOL_BOUNDARY of 1."""
    prof = root_profile(s, z)
    return BOUNDARY if prof.boundary else prof.dd


def region_labels(s: Symbol, zs) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized classify_region over an array of z values.

    Returns (dd, boundary_mask); entries under the mask carry no valid order.
    Off a band around the symbol curve the order is the winding number
    wind(a(S^1), z), which is exact there and never BOUNDARY.  Band nodes,
    and nodes z = a_0 (where the polynomial degenerates if d1 = 0 or
    d2 = 0), take the Aberth route of classify_region: those with a root
    modulus within TOL_BOUNDARY of 1, or where the root iteration failed,
    are reported as boundary.  A failed iteration can therefore occur only
    on the band.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    bmask = np.zeros(zs.size, dtype=bool)
    if zs.size == 0:
        return np.zeros(0, dtype=int), bmask
    dd, band = _winding_labels(s, zs)
    band |= zs == s.coeff(0)
    dd[band], bmask[band] = _aberth_labels(s, zs[band])
    return dd, bmask


def _winding_labels(s: Symbol, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The winding numbers wind(a(S^1), z) = d1 - #{|lam| >= 1} of the
    nodes ``zs``, and the mask of the band where they are not to be trusted.

    The curve is sampled densely enough that, by the bound
    M = sum |k| |a_k| on |d a(e^{i theta}) / d theta|, consecutive samples
    lie at most ``gap`` apart; gap is about a quarter of the grid step a
    grid over the extent of ``zs`` would have.  Each node's order is the signed count of polygon crossings to its
    right on its horizontal line.  The straight-line homotopy from the curve
    to the polygon stays within gap of a sample, and a root within
    TOL_BOUNDARY of |lam| = 1 puts z within gap / 2 + 2 TOL_BOUNDARY M of
    one.  So every node farther than ``radius`` from all samples has an
    exact order that is not BOUNDARY; the band holds all other nodes.
    """
    coeffs = np.array(s.coeffs)
    lip = float(np.abs(np.arange(-s.d2, s.d1 + 1) * coeffs).sum())
    span = max(np.ptp(zs.real), np.ptp(zs.imag))
    want = 8.0 * math.pi * lip * math.sqrt(zs.size)  # samples for gap = span / (4 sqrt(N))
    samples = _MAX_CURVE_SAMPLES if want >= _MAX_CURVE_SAMPLES * span else math.ceil(want / span)
    gap = 2.0 * math.pi * lip / samples
    pts = s.curve(samples)
    # Rounding slack: the backward error of roots the Aberth route accepts
    # (relative residual 10 _TOL_RESIDUAL) and of the sampled curve.
    slack = 100.0 * _TOL_RESIDUAL * (np.abs(coeffs).sum() + np.abs(zs).max())
    radius = gap + 2.0 * TOL_BOUNDARY * lip + slack
    assert np.abs(pts - np.roll(pts, 1)).max() <= gap * (1.0 + 1e-9)

    # Signed crossings of each polygon edge with the distinct lines Im = y,
    # half-open in y so that every line's signs sum to zero.
    ys = np.unique(zs.imag)
    x0, y0 = pts.real, pts.imag
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    lo = np.searchsorted(ys, np.minimum(y0, y1))
    count = np.searchsorted(ys, np.maximum(y0, y1)) - lo
    edge = np.repeat(np.arange(samples), count)
    line = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - lo, count)
    xc = x0[edge] + (ys[line] - y0[edge]) / (y1[edge] - y0[edge]) * (x1[edge] - x0[edge])
    # Complex keys sort by (line, x); a suffix sum from a node's key counts
    # the crossings to its right on its own line.
    key = line + 1j * xc
    order = np.argsort(key)
    sign = np.where(y1 > y0, 1, -1)[edge][order]
    suffix = np.append(np.cumsum(sign[::-1])[::-1], 0)
    row = np.searchsorted(ys, zs.imag)
    dd = suffix[np.searchsorted(key[order], row + 1j * zs.real, side="right")]

    # Band: the nodes in a cell next to a cell holding a sample, which takes
    # in every node within radius of one.  Cells are at least radius and
    # span / (4 sqrt(N)) wide, so the nodes' cells on each axis are the
    # indices 0..top-2 with top <= 4 sqrt(N) + 2; samples beyond are clipped
    # to -2 or top, whose neighbours hold no node.
    size = max(radius, span / (4.0 * math.sqrt(zs.size)))
    top = int(span // size) + 2
    width = top + 5

    def cells(w):
        i = np.clip(np.floor((w.real - zs.real.min()) / size), -2, top)
        j = np.clip(np.floor((w.imag - zs.imag.min()) / size), -2, top)
        return (i * width + j).astype(np.int64)

    ring = (np.arange(-1, 2)[:, None] * width + np.arange(-1, 2)).ravel()
    near = np.unique(cells(pts)[:, None] + ring)
    at = cells(zs)
    return dd, near[np.searchsorted(near, at).clip(max=near.size - 1)] == at


def _aberth_labels(s: Symbol, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """region_labels by the Aberth iteration at every node of ``zs``:
    (dd, boundary_mask), with failed iterations reported as boundary."""
    m = zs.size
    dd = np.zeros(m, dtype=int)
    bmask = np.zeros(m, dtype=bool)
    cmat = np.tile(np.array(s.coeffs, dtype=complex), (m, 1))
    cmat[:, s.d2] -= zs
    easy = (cmat[:, -1] != 0) & (cmat[:, 0] != 0)
    for i in np.nonzero(~easy)[0]:
        try:
            lab = classify_region(s, complex(zs[i]))
        except RootFindingError:
            bmask[i] = True
            continue
        if lab == BOUNDARY:
            bmask[i] = True
        else:
            dd[i] = lab
    rows = np.nonzero(easy)[0]
    if rows.size:
        parts = [
            _aberth_batch(cmat[rows[i : i + _ROOT_BLOCK]])
            for i in range(0, rows.size, _ROOT_BLOCK)
        ]
        roots = np.concatenate([r for r, _ in parts])
        ok = np.concatenate([o for _, o in parts])
        dd[rows], clean = _split(s, np.abs(roots))
        bmask[rows] = ~(ok & clean)
    return dd, bmask


def limit_logpot(s: Symbol, z: complex) -> float:
    """Limiting log-potential of the symbol's curve measure at z.

    Closed form: log of the leading characteristic coefficient's modulus plus
    the log-moduli of all roots outside the unit circle.
    """
    return _log_potential(s, root_profile(s, z))


def _log_potential(s: Symbol, prof: RootProfile) -> float:
    """limit_logpot's closed form, from an already computed root profile."""
    total = math.log(abs(char_poly_coeffs(s, prof.z)[-1]))
    for r in prof.roots:
        ar = abs(r)
        if ar > 1.0:
            total += math.log(ar)
    return total


def sample_mu_a(s: Symbol, n: int, seed) -> MuASample:
    """n i.i.d. draws from the pushforward of the uniform circle law by a."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    rg = generator(seed)
    theta = rg.uniform(0.0, 2.0 * np.pi, size=n)
    pts = s.eval_many(np.exp(1j * theta))
    seed_val = seed if isinstance(seed, int) else -1
    return MuASample(points=pts, seed=seed_val)
