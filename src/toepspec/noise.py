"""Noise ensembles and structured corner perturbations.

All ensembles are normalized to unit entry variance before any N^{-gamma}
scaling (which is applied by callers, not here).  The corner perturbation is
the deterministic-support random matrix whose entries live on triangular
lower-left / upper-right corners of widths d1 and d2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._rng import generator, seed_sequence
from .linalg import as_matrix, haar_unitary, smin
from .symbol import Symbol

__all__ = [
    "KINDS",
    "NoiseModel",
    "sample",
    "corner_support",
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


@dataclass(frozen=True)
class NoiseModel:
    """Noise ensemble selector.

    ``p`` is the sparsity level for the Bernoulli-Gaussian kind,
    ``gamma_star`` the corner decay exponent.  The N^{-gamma} scaling
    exponent belongs to the experiment (``ExperimentConfig.gamma``).
    """

    kind: str
    p: float | None = None
    gamma_star: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; choose from {KINDS}")
        if self.kind == "sparse_bernoulli_gaussian":
            if self.p is None or not (0.0 < self.p <= 1.0):
                raise ValueError("sparse_bernoulli_gaussian requires p in (0, 1]")
        if self.kind == "corner_delta" and self.gamma_star is None:
            raise ValueError("corner_delta requires gamma_star")

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.p is not None:
            out["p"] = self.p
        if self.gamma_star is not None:
            out["gamma_star"] = self.gamma_star
        return out

    @classmethod
    def from_json(cls, data) -> "NoiseModel":
        if isinstance(data, (str, bytes)):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ValueError("noise JSON must be an object")
        known = {"kind", "p", "gamma_star"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown noise fields: {sorted(extra)}")
        try:
            return cls(
                kind=str(data["kind"]),
                p=None if data.get("p") is None else float(data["p"]),
                gamma_star=(
                    None if data.get("gamma_star") is None else float(data["gamma_star"])
                ),
            )
        except KeyError as exc:
            raise ValueError(f"noise JSON missing field: {exc}") from exc


def sample(model: NoiseModel, n: int, seed) -> np.ndarray:
    """One unscaled N x N draw from the ensemble (unit entry variance).

    The corner kind needs symbol geometry and has its own constructor;
    requesting it here is an error.
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    if model.kind == "corner_delta":
        raise ValueError("corner_delta is built by corner_delta(), not sample()")
    rg = generator(seed)
    if model.kind == "gaussian_real":
        return rg.standard_normal((n, n)).astype(complex)
    if model.kind == "gaussian_complex":
        g = rg.standard_normal((n, n)) + 1j * rg.standard_normal((n, n))
        return g * math.sqrt(0.5)
    if model.kind == "rademacher":
        return (2.0 * rg.integers(0, 2, size=(n, n)) - 1.0).astype(complex)
    if model.kind == "sparse_bernoulli_gaussian":
        mask = rg.random((n, n)) < model.p
        g = rg.standard_normal((n, n))
        return (mask * g / math.sqrt(model.p)).astype(complex)
    if model.kind == "haar_scaled":
        return math.sqrt(n) * haar_unitary(n, rg)
    raise AssertionError(f"unhandled kind {model.kind}")  # pragma: no cover


def corner_support(
    n: int, d1: int, d2: int, transpose: bool = False
) -> list[tuple[int, int]]:
    """0-based index pairs of the corner support for an N x N matrix:
    lower-left triangle of width d1 (row - col in {N-1, ..., N-d1}) plus
    upper-right triangle of width d2.  ``transpose`` swaps the two corners
    (orientation sensitivity experiments)."""
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
    if transpose:
        pairs = [(j, i) for (i, j) in pairs]
    return sorted(set(pairs))


def corner_delta(
    s: Symbol, n: int, gamma_star: float, seed, transpose: bool = False
) -> np.ndarray:
    """Random corner perturbation: entries N^{-gamma_star} * Uniform[1/2, 1]
    on the corner support, zero elsewhere.  Requires gamma_star > d so the
    perturbation norm vanishes faster than any band weight."""
    if not gamma_star > s.d:
        raise ValueError(
            f"gamma_star must exceed the symbol degree d = {s.d}, got {gamma_star}"
        )
    support = corner_support(n, s.d1, s.d2, transpose=transpose)
    rg = generator(seed)
    vals = float(n) ** (-gamma_star) * rg.uniform(0.5, 1.0, size=len(support))
    delta = np.zeros((n, n), dtype=complex)
    for (i, j), v in zip(support, vals):
        delta[i, j] = v
    return delta


@dataclass(frozen=True)
class SminTailReport:
    """Empirical lower-tail fractions of the smallest singular value."""

    n: int
    trials: int
    betas: tuple[float, ...]
    fractions: dict[float, float]
    smins: np.ndarray


def smin_tail_check(
    model: NoiseModel, m, trials: int, seed, betas=(1.0, 2.0, 4.0)
) -> SminTailReport:
    """Sample smin(E + M) over independent draws and report the fraction of
    trials falling below N^{-beta} for each requested beta.

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
    fractions = {
        float(b): float((smins < float(n) ** (-float(b))).mean()) for b in betas
    }
    return SminTailReport(
        n=n,
        trials=trials,
        betas=tuple(float(b) for b in betas),
        fractions=fractions,
        smins=smins,
    )
