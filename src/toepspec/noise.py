"""Noise ensembles and structured corner perturbations.

All ensembles are normalized to unit entry variance before any N^{-gamma}
scaling (which is applied by callers, not here).  The corner perturbation is
the deterministic-support random matrix whose entries live on triangular
lower-left / upper-right corners of widths d1 and d2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import generator, seed_sequence
from .linalg import as_matrix, haar_unitary, smin
from .symbol import ConfigError, Symbol, _json_float

__all__ = [
    "KINDS",
    "NoiseModel",
    "sample",
    "corner_support",
    "corner_entries",
    "corner_delta",
    "SminTailReport",
    "smin_tail_check",
]

KINDS = (
    "gaussian_real",
    "gaussian_complex",
    "rademacher",
    "sparse_bernoulli_gaussian",
    "haar_scaled",
    "corner_delta",
)

# smin_tail_check reports the share of trials with smin below N^{-beta}.
_TAIL_BETAS = (1.0, 2.0, 4.0)


@dataclass(frozen=True)
class NoiseModel:
    """Noise ensemble selector.

    ``p`` is the sparsity level for the Bernoulli-Gaussian kind and
    ``gamma_star`` the corner decay exponent; each is rejected for any other
    kind, which would not read it.  The N^{-gamma} scaling exponent belongs
    to the experiment (``ExperimentConfig.gamma``).
    """

    kind: str
    p: float | None = None
    gamma_star: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}; choose from {KINDS}")
        for name, kind in (("p", "sparse_bernoulli_gaussian"), ("gamma_star", "corner_delta")):
            value = getattr(self, name)
            if value is None and self.kind == kind:
                raise ConfigError(f"{kind} requires {name}")
            if value is not None and self.kind != kind:
                raise ConfigError(f"noise kind {self.kind} does not read {name}")
            if value is not None:
                object.__setattr__(self, name, _json_float(value, f"noise {name}"))
        if self.kind == "sparse_bernoulli_gaussian" and not (0.0 < self.p <= 1.0):
            raise ConfigError("sparse_bernoulli_gaussian requires p in (0, 1]")

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.p is not None:
            out["p"] = self.p
        if self.gamma_star is not None:
            out["gamma_star"] = self.gamma_star
        return out

    @classmethod
    def from_json(cls, data) -> "NoiseModel":
        if not isinstance(data, dict):
            raise ConfigError("noise JSON must be an object")
        known = {"kind", "p", "gamma_star"}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown noise fields: {sorted(extra)}")
        try:
            return cls(kind=str(data["kind"]), p=data.get("p"), gamma_star=data.get("gamma_star"))
        except KeyError as exc:
            raise ConfigError(f"noise JSON missing field: {exc}") from exc


def sample(model: NoiseModel, n: int, seed) -> np.ndarray:
    """One unscaled N x N draw from the ensemble (unit entry variance):
    float64 for the real kinds, complex128 for the complex ones.

    The corner kind needs symbol geometry and has its own constructor;
    requesting it here is an error.
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    if model.kind == "corner_delta":
        raise ValueError("corner_delta is built by corner_delta(), not sample()")
    rg = generator(seed)
    if model.kind == "gaussian_real":
        return rg.standard_normal((n, n))
    if model.kind == "gaussian_complex":
        g = np.empty((n, n), dtype=complex)
        g.real = rg.standard_normal((n, n))
        g.imag = rg.standard_normal((n, n))
        g *= math.sqrt(0.5)
        return g
    if model.kind == "rademacher":
        return 2.0 * rg.integers(0, 2, size=(n, n)) - 1.0
    if model.kind == "sparse_bernoulli_gaussian":
        mask = rg.random((n, n)) < model.p
        g = rg.standard_normal((n, n))
        return mask * g / math.sqrt(model.p)
    if model.kind == "haar_scaled":
        return math.sqrt(n) * haar_unitary(n, rg)
    raise AssertionError(f"unhandled kind {model.kind}")  # pragma: no cover


def corner_support(n: int, d1: int, d2: int) -> list[tuple[int, int]]:
    """0-based index pairs of the corner support for an N x N matrix:
    lower-left triangle of width d1 (row - col in {N-1, ..., N-d1}) plus
    upper-right triangle of width d2, in sorted order."""
    if d1 < 0 or d2 < 0:
        raise ValueError("widths must be nonnegative")
    if n <= max(d1, d2):
        raise ValueError(f"matrix size {n} too small for corner widths ({d1}, {d2})")
    pairs: list[tuple[int, int]] = []
    for ell in range(1, d1 + 1):
        for j in range(ell):
            pairs.append((j + n - ell, j))
    for ell in range(1, d2 + 1):
        for i in range(ell):
            pairs.append((i, i + n - ell))
    return sorted(set(pairs))


def _check_corner(s: Symbol, n: int, gamma_star: float) -> None:
    """The corner regime's preconditions: gamma_star > d, so the perturbation
    norm vanishes faster than any band weight, and N > max(d1, d2), so both
    corners fit in the matrix."""
    if not gamma_star > s.d:
        raise ValueError(
            f"gamma_star must exceed the symbol degree d = {s.d}, got {gamma_star}"
        )
    if n <= max(s.d1, s.d2):
        raise ValueError(f"matrix size {n} too small for corner widths ({s.d1}, {s.d2})")


def _corner_draws(s: Symbol, n: int, gamma_star: float, seeds):
    """The corner perturbations at size ``n``, one per seed: the sorted
    ``corner_support`` as the (rows, cols) they share, and a (draws, m)
    stack of N^{-gamma_star} * Uniform[1/2, 1] values on it.  The support
    and the preconditions (``_check_corner``) are settled once per call."""
    _check_corner(s, n, gamma_star)
    support = np.array(corner_support(n, s.d1, s.d2), dtype=np.intp).reshape(-1, 2)
    scale = float(n) ** (-gamma_star)
    vals = [scale * generator(seed).uniform(0.5, 1.0, size=len(support)) for seed in seeds]
    return support[:, 0], support[:, 1], np.stack(vals)


def corner_entries(
    s: Symbol, n: int, gamma_star: float, seed
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One random corner perturbation as (rows, cols, values): the
    ``_corner_draws`` of the one seed."""
    rows, cols, vals = _corner_draws(s, n, gamma_star, [seed])
    return rows, cols, vals[0]


def corner_delta(s: Symbol, n: int, gamma_star: float, seed) -> np.ndarray:
    """The dense N x N float64 matrix of ``corner_entries``: zero off the support."""
    rows, cols, vals = corner_entries(s, n, gamma_star, seed)
    delta = np.zeros((n, n))
    delta[rows, cols] = vals
    return delta


@dataclass(frozen=True)
class SminTailReport:
    """Empirical lower-tail fractions of the smallest singular value."""

    n: int
    trials: int
    betas: tuple[float, ...]
    fractions: dict[float, float]
    smins: np.ndarray


def smin_tail_check(model: NoiseModel, m, trials: int, seed) -> SminTailReport:
    """Sample smin(E + M) over independent draws and report the fraction of
    trials falling below N^{-beta} for each beta in _TAIL_BETAS.

    ``m`` is the deterministic centering (often a shifted Toeplitz matrix);
    the raw smin values are returned so callers can test other thresholds.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("centering matrix must be square")
    n = m.shape[0]
    if trials < 1:
        raise ValueError("need at least one trial")
    root = seed_sequence(seed)
    smins = np.empty(trials)
    for t in range(trials):
        e = sample(model, n, seed_sequence(root, t))
        smins[t] = smin(e + m)
    fractions = {b: float((smins < float(n) ** -b).mean()) for b in _TAIL_BETAS}
    return SminTailReport(
        n=n,
        trials=trials,
        betas=_TAIL_BETAS,
        fractions=fractions,
        smins=smins,
    )
