"""Banded Laurent symbols and their root geometry.

A symbol is a Laurent polynomial a(lam) = sum_{k=-d2..d1} a_k lam^k with
a_{d1} != 0 (and a_{-d2} != 0 when d2 > 0).  For a spectral parameter z the
characteristic polynomial is

    P(lam) = (a(lam) - z) * lam^d2,   degree d = d1 + d2.

The d stored root values are the NEGATED roots of P, sorted by nonincreasing
modulus; the count d0(z) of moduli >= 1 classifies z into open regions
indexed by the order dd = d1 - d0, with a BOUNDARY label where moduli sit on
the unit circle (within tolerance).  The limiting log-potential of the
symbol's curve measure mu_a evaluates in closed form from the same roots.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._rng import generator

__all__ = [
    "BOUNDARY",
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

#: Default tolerance for "modulus on the unit circle".
TOL_BOUNDARY = 1e-9

#: Two roots closer than this are flagged as numerically inseparable.
TOL_DOUBLE = 1e-7


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
        """Build from a dict or JSON text: {"d1":., "d2":., "coeffs":[[re,im],..]}."""
        if isinstance(data, (str, bytes)):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ValueError("symbol JSON must be an object")
        try:
            d1 = int(data["d1"])
            d2 = int(data["d2"])
            coeffs = tuple(complex(float(re), float(im)) for re, im in data["coeffs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed symbol JSON: {exc}") from exc
        return cls(coeffs, d1, d2)


@dataclass(frozen=True)
class RootProfile:
    """Characteristic roots of a symbol at a point z (negated convention).

    ``roots`` are sorted by nonincreasing modulus, ties broken by descending
    real then imaginary part.  ``d0`` counts moduli >= 1, ``dd = d1 - d0`` is
    the region order, ``boundary`` marks a modulus within tolerance of 1, and
    ``near_double`` flags a root pair closer than ``TOL_DOUBLE``.
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


def _aberth_batch(c: np.ndarray, max_iter: int, tol: float):
    """Simultaneous roots for a batch of same-degree polynomials.

    Requires nonzero leading AND constant coefficients in every row (zero
    roots must be stripped by the caller).  Returns (roots (B, deg),
    ok (B,) convergence mask).
    """
    b, n = c.shape
    deg = n - 1
    r0 = (np.abs(c[:, 0]) / np.abs(c[:, -1])) ** (1.0 / deg)
    angles = 2.0 * np.pi * np.arange(deg) / deg + 0.4
    x = r0[:, None] * np.exp(1j * angles)[None, :]
    done = np.zeros((b, deg), dtype=bool)
    idx = np.arange(deg)
    for _ in range(max_iter):
        p, dp, sc = _horner_all(c, x)
        done |= np.abs(p) <= tol * np.maximum(sc, 1e-300)
        if done.all():
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = p / dp
            diffs = x[:, :, None] - x[:, None, :]
            diffs[:, idx, idx] = np.inf
            ssum = (1.0 / diffs).sum(axis=2)
            step = ratio / (1.0 - ratio * ssum)
        bad = ~np.isfinite(step)
        if bad.any():
            # collided iterates or vanishing derivative: nudge instead
            step = np.where(bad, (0.01 + 0.02j) * (1.0 + np.abs(x)), step)
        x = np.where(done, x, x - step)
    # Polish sweeps, applied unconditionally: the residual test above lets a
    # multiple root freeze while still ~sqrt(tol) away (its residual is
    # quadratic in the distance), which would leave an exact double root
    # looking like two points 1e-6 apart.  Each sweep contracts a straddling
    # pair by ~1/3, so a few of them reach the attainable floor.
    for _ in range(8):
        p, dp, _ = _horner_all(c, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = p / dp
            diffs = x[:, :, None] - x[:, None, :]
            diffs[:, idx, idx] = np.inf
            ssum = (1.0 / diffs).sum(axis=2)
            step = ratio / (1.0 - ratio * ssum)
        x = np.where(np.isfinite(step), x - step, x)
    p, _, sc = _horner_all(c, x)
    ok = (np.abs(p) <= 10.0 * tol * np.maximum(sc, 1e-300)) | done
    return x, ok.all(axis=1)


def aberth_roots(coeffs, max_iter: int = 200, tol: float = 1e-12) -> np.ndarray:
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
    roots, ok = _aberth_batch(work[np.newaxis, :], max_iter, tol)
    if not ok[0]:
        raise RootFindingError(
            f"root iteration did not converge in {max_iter} steps"
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


def root_profile(
    s: Symbol,
    z: complex,
    tol_boundary: float = TOL_BOUNDARY,
    max_iter: int = 200,
    tol_residual: float = 1e-12,
) -> RootProfile:
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
    lam = _sorted_roots(-aberth_roots(c, max_iter=max_iter, tol=tol_residual))
    moduli = np.abs(lam)
    d0 = int((moduli >= 1.0).sum())
    boundary = bool(np.min(np.abs(moduli - 1.0)) < tol_boundary)
    near_double = False
    if lam.size > 1:
        sep = np.abs(lam[:, None] - lam[None, :])
        sep[np.arange(lam.size), np.arange(lam.size)] = np.inf
        near_double = bool(sep.min() < TOL_DOUBLE)
    return RootProfile(
        z=z,
        roots=tuple(lam),
        d0=d0,
        dd=s.d1 - d0,
        boundary=boundary,
        near_double=near_double,
    )


def classify_region(
    s: Symbol, z: complex, tol_boundary: float = TOL_BOUNDARY
) -> int | str:
    """Region order dd = d1 - d0 at z, or BOUNDARY when the modulus split
    across the unit circle is not clean at the given tolerance."""
    prof = root_profile(s, z, tol_boundary=tol_boundary)
    moduli = [abs(r) for r in prof.roots]
    outer = moduli[prof.d0 - 1] if prof.d0 >= 1 else math.inf
    inner = moduli[prof.d0] if prof.d0 < s.d else 0.0
    if outer > 1.0 + tol_boundary and inner < 1.0 - tol_boundary:
        return prof.dd
    return BOUNDARY


def region_labels(
    s: Symbol, zs, tol_boundary: float = TOL_BOUNDARY, max_iter: int = 200
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized region classification over an array of z values.

    Returns (dd, boundary_mask); entries under the mask carry no valid order
    (grid nodes that sit on the curve, too close to it, or where the root
    iteration failed are all reported as boundary).
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    m = zs.size
    dd = np.zeros(m, dtype=int)
    bmask = np.zeros(m, dtype=bool)
    if m == 0:
        return dd, bmask
    cmat = np.tile(np.array(s.coeffs, dtype=complex), (m, 1))
    cmat[:, s.d2] -= zs
    easy = (cmat[:, -1] != 0) & (cmat[:, 0] != 0)
    for i in np.nonzero(~easy)[0]:
        try:
            lab = classify_region(s, complex(zs[i]), tol_boundary)
        except RootFindingError:
            bmask[i] = True
            continue
        if lab == BOUNDARY:
            bmask[i] = True
        else:
            dd[i] = lab
    rows = np.nonzero(easy)[0]
    if rows.size:
        roots, ok = _aberth_batch(cmat[rows], max_iter, 1e-12)
        moduli = np.sort(np.abs(roots), axis=1)[:, ::-1]
        d0 = (moduli >= 1.0).sum(axis=1)
        k = moduli.shape[1]
        outer = np.where(
            d0 >= 1, np.take_along_axis(moduli, np.maximum(d0 - 1, 0)[:, None], 1)[:, 0], np.inf
        )
        inner = np.where(
            d0 < k, np.take_along_axis(moduli, np.minimum(d0, k - 1)[:, None], 1)[:, 0], 0.0
        )
        clean = ok & (outer > 1.0 + tol_boundary) & (inner < 1.0 - tol_boundary)
        dd[rows] = s.d1 - d0
        bmask[rows] = ~clean
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
