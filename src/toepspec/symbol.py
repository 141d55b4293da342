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
labels a whole grid: winding numbers off a thin band around the curve,
companion-matrix eigenvalues on the band.  The limiting log-potential of the
symbol's curve measure mu_a evaluates in closed form from the same roots.
"""

from __future__ import annotations

import cmath
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

# Cap on the curve samples region_labels takes for its winding numbers; a
# coarser polygon only widens the band whose nodes are solved for roots.
_MAX_CURVE_SAMPLES = 1 << 16


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
    """A JSON real field's value as a float, checked as ``_json_complex``
    checks a complex one."""
    if isinstance(value, numbers.Real):
        return _json_complex(value, name).real
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _json_complex(value, name: str) -> complex:
    """A complex field's value: a bool or a non-number (text and None
    included) raises ConfigError instead of being read as 1 or parsed, and
    so does an infinity, a NaN or an integer past double range, which no
    canonical JSON echo can hold."""
    if isinstance(value, numbers.Number) and not isinstance(value, bool):
        try:
            z = complex(value)
        except OverflowError:
            raise ConfigError(f"{name} is past double range") from None
        if cmath.isfinite(z):
            return z
        raise ConfigError(f"{name} must be finite, got {value!r}")
    raise ConfigError(f"{name} must be a number, got {value!r}")


class RootFindingError(RuntimeError):
    """The characteristic roots at this z are unavailable: the polynomial
    degree collapses (d1 = 0 and z = a_0), or the eigensolver failed."""


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
        object.__setattr__(self, "d1", _json_int(self.d1, "d1"))
        object.__setattr__(self, "d2", _json_int(self.d2, "d2"))
        if self.d1 < 0 or self.d2 < 0:
            raise ConfigError("d1 and d2 must be nonnegative")
        if self.d1 + self.d2 < 1:
            raise ConfigError("symbol must have at least one nonzero band")
        coeffs = tuple(_json_complex(c, "coefficient") for c in self.coeffs)
        if len(coeffs) != self.d1 + self.d2 + 1:
            raise ConfigError(
                f"expected {self.d1 + self.d2 + 1} coefficients "
                f"(a_-d2..a_d1), got {len(coeffs)}"
            )
        if coeffs[-1] == 0:
            raise ConfigError("leading coefficient a_d1 must be nonzero")
        if self.d2 > 0 and coeffs[0] == 0:
            raise ConfigError("trailing coefficient a_-d2 must be nonzero")
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
            raise ConfigError("symbol JSON must be an object")
        extra = set(data) - {"d1", "d2", "coeffs"}
        if extra:
            raise ConfigError(f"unknown symbol fields: {sorted(extra)}")
        try:
            d1, d2 = data["d1"], data["d2"]
            coeffs = tuple(
                complex(_json_float(re, "coeff"), _json_float(im, "coeff"))
                for re, im in data["coeffs"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed symbol JSON: {exc}") from exc
        return cls(coeffs, d1, d2)


@dataclass(frozen=True)
class RootProfile:
    """Characteristic roots of a symbol at a point z (negated convention).

    ``roots`` are sorted by nonincreasing modulus; roots of equal modulus
    come in no set order.  ``d0`` counts moduli >= 1, ``dd = d1 - d0`` is
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


def _companion_roots(c: np.ndarray) -> np.ndarray:
    """All roots of each row of ``c``, a (B, n) stack of ascending
    coefficient vectors with nonzero leading coefficients: the eigenvalues
    of the (B, n - 1, n - 1) companion matrices, in one LAPACK call that
    balances each matrix first.  Raises LinAlgError, for the whole stack,
    when the eigensolver fails on any row."""
    d = c.shape[1] - 1
    comp = np.zeros((c.shape[0], d, d), dtype=complex)
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    comp[:, :, -1] = -c[:, :-1] / c[:, -1:]
    return np.linalg.eigvals(comp)


def _roots(s: Symbol, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stored roots at each node of ``zs``, a (B, d) array whose rows are
    sorted by nonincreasing modulus, and the mask of the nodes that have
    roots.  The mask is off where the degree collapses (d1 = 0 and z = a_0)
    and where the eigensolver fails; those rows hold zeros."""
    cmat = np.tile(np.array(s.coeffs, dtype=complex), (zs.size, 1))
    cmat[:, s.d2] -= zs
    ok = cmat[:, -1] != 0
    rows = np.nonzero(ok)[0]
    roots = np.zeros((zs.size, s.d), dtype=complex)
    try:
        roots[rows] = _companion_roots(cmat[rows])
    except np.linalg.LinAlgError:
        # One failed matrix fails the whole stack: solve row by row, so only
        # the rows that fail on their own are masked.
        for i in rows:
            try:
                roots[i] = _companion_roots(cmat[i : i + 1])[0]
            except np.linalg.LinAlgError:
                ok[i] = False
    lam = -roots
    order = np.argsort(-np.abs(lam), axis=1, kind="stable")
    return np.take_along_axis(lam, order, axis=1), ok


def _split(s: Symbol, moduli):
    """The region order d1 - #{m >= 1} and whether the split is clean (no
    modulus within TOL_BOUNDARY of 1), over the last axis of ``moduli``."""
    dd = s.d1 - (moduli >= 1.0).sum(axis=-1)
    near = (moduli >= 1.0 - TOL_BOUNDARY) & (moduli <= 1.0 + TOL_BOUNDARY)
    return dd, ~near.any(axis=-1)


def root_profile(s: Symbol, z: complex) -> RootProfile:
    """Characteristic roots at z with region bookkeeping.

    Raises RootFindingError for the degenerate point z = a_0 of a symbol
    with d1 = 0 (the polynomial degree collapses) and when the eigensolver
    fails.
    """
    z = complex(z)
    roots, ok = _roots(s, np.array([z]))
    if not ok[0]:
        raise RootFindingError(
            f"no characteristic roots at z = {z}: the degree collapses "
            "(d1 = 0 and z = a_0) or the eigensolver failed"
        )
    lam = roots[0]
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
    within TOL_BOUNDARY of 1, the degree collapses (d1 = 0 and z = a_0) or
    the eigensolver fails: the label region_labels gives the node z."""
    dd, bmask = _root_labels(s, np.array([complex(z)]))
    return BOUNDARY if bmask[0] else int(dd[0])


def region_labels(s: Symbol, zs) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized classify_region over an array of z values.

    Returns (dd, boundary_mask); entries under the mask carry no valid order.
    Off a band around the symbol curve the order is the winding number
    wind(a(S^1), z), which is exact there and never BOUNDARY.  Band nodes,
    and nodes z = a_0 (where the polynomial degenerates if d1 = 0 or
    d2 = 0), take the root route of classify_region: those with a root
    modulus within TOL_BOUNDARY of 1, where the degree collapses, or where
    the eigensolver failed, are reported as boundary.  A failed solve can
    therefore occur only on the band.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    bmask = np.zeros(zs.size, dtype=bool)
    if zs.size == 0:
        return np.zeros(0, dtype=int), bmask
    dd, band = _winding_labels(s, zs)
    band |= zs == s.coeff(0)
    dd[band], bmask[band] = _root_labels(s, zs[band])
    return dd, bmask


def _winding_labels(s: Symbol, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The winding numbers wind(a(S^1), z) = d1 - #{|lam| >= 1} of the
    nodes ``zs``, and the mask of the band where they are not to be trusted.

    The curve is sampled densely enough that, by the bound
    M = sum |k| |a_k| on |d a(e^{i theta}) / d theta|, consecutive samples
    lie at most ``gap`` apart; gap is about a quarter of the grid step a
    grid over the extent of ``zs`` would have.  Each node's order is the
    signed count of polygon crossings to its right on its horizontal line.
    The straight-line homotopy from the curve to the polygon stays within gap
    of a sample, and a root within TOL_BOUNDARY of |lam| = 1 puts z within
    gap / 2 + 2 TOL_BOUNDARY M + ``slack`` of one.

    The slack covers rounding in the roots.  LAPACK returns the exact
    eigenvalues of C + E with ||E|| <= p(d) eps ||C||, C the balanced
    companion matrix, so a computed root lam has a relative residual
    eta = |P(lam)| / sum |c_l| |lam|^l of about p(d) eps ||C|| (Edelman &
    Murakami, Math. Comp. 1995).  It is then an exact root of a polynomial
    with coefficients moved by at most eta |c_l|, and where |lam| is within
    TOL_BOUNDARY of 1 that puts a(lam) within about eta sum |c_l| of z.
    The slack allows eta = 2^19 eps (1.2e-10) against sum |c_l| <=
    sum |a_k| + max |z|, far above the eta <= 2^12 eps the tests check on
    random symbols with d1, d2 <= 3; the margin also covers rounding in the
    curve samples.  So every node farther than ``radius`` from all samples
    has an exact order that is not BOUNDARY; the band holds all other nodes.
    """
    coeffs = np.array(s.coeffs)
    lip = float(np.abs(np.arange(-s.d2, s.d1 + 1) * coeffs).sum())
    span = max(np.ptp(zs.real), np.ptp(zs.imag))
    want = 8.0 * math.pi * lip * math.sqrt(zs.size)  # samples for gap = span / (4 sqrt(N))
    samples = _MAX_CURVE_SAMPLES if want >= _MAX_CURVE_SAMPLES * span else math.ceil(want / span)
    gap = 2.0 * math.pi * lip / samples
    pts = s.curve(samples)
    slack = 2.0**19 * np.finfo(float).eps * (np.abs(coeffs).sum() + np.abs(zs).max())
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


def _root_labels(s: Symbol, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """region_labels from the characteristic roots at every node of ``zs``:
    (dd, boundary_mask).  Nodes without roots (see ``_roots``) are reported
    as boundary."""
    roots, ok = _roots(s, zs)
    dd, clean = _split(s, np.abs(roots))
    return dd, ~(ok & clean)


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
