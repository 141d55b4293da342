"""Experiment harness: configs, runners, metrics, and artifact persistence.

Every runner lives here.  Each derives all randomness from its seed through
keyed Philox streams and returns a RunArtifact holding per-cell records,
summaries, and ``inputs``: the JSON echo of everything the run computed from,
which also gives the artifact its config hash and seed (the output directory
is not an input).  Artifacts serialize to JSONL/CSV (and optional static SVG)
with canonical, byte-stable formatting: the same inputs give identical files.

Trials run on a thread pool sized by the TOEPSPEC_THREADS environment
variable (default: CPU count); results are reduced in fixed cell order, so
the thread count never changes the output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _svg
from ._rng import (
    DOMAIN_CORNER,
    DOMAIN_LOGPOT,
    DOMAIN_MU,
    DOMAIN_NOISE,
    DOMAIN_REPLACE,
    seed_sequence,
)
from .expansion import dominance_report
from .linalg import eigenvalues, hs_norm, lu_logdet, singular_values, stieltjes_from_singvals
from .noise import NoiseModel, corner_delta, sample
from .symbol import Symbol, region_labels, limit_logpot, classify_region, BOUNDARY, sample_mu_a
from .toeplitz import build, build_z

__all__ = [
    "ConfigError",
    "ZGrid",
    "ExperimentConfig",
    "RunArtifact",
    "energy_distance",
    "ks_distance",
    "interval_mass_check",
    "IntervalMassRecord",
    "perturbation",
    "run_esd",
    "run_expansion",
    "run_region_map",
    "run_logpot",
    "run_replacement",
]

THREADS_ENV = "TOEPSPEC_THREADS"


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class ZGrid:
    """Either an explicit list of z points or a rect + resolution raster."""

    points: tuple[complex, ...] | None = None
    rect: tuple[float, float, float, float] | None = None
    resolution: int | None = None

    def __post_init__(self):
        if (self.points is None) == (self.rect is None):
            raise ConfigError("z_grid needs exactly one of 'points' or 'rect'")
        if self.rect is not None:
            if self.resolution is None or self.resolution < 2:
                raise ConfigError("rect z_grid needs resolution >= 2")
            re_lo, re_hi, im_lo, im_hi = self.rect
            if not (re_lo < re_hi and im_lo < im_hi):
                raise ConfigError("rect must satisfy re_lo < re_hi and im_lo < im_hi")
        if self.points is not None and len(self.points) == 0:
            raise ConfigError("points z_grid must be nonempty")

    def to_json(self) -> dict:
        if self.points is not None:
            return {"points": [[z.real, z.imag] for z in self.points]}
        return {"rect": list(self.rect), "resolution": self.resolution}

    @classmethod
    def from_json(cls, data) -> "ZGrid":
        if not isinstance(data, dict):
            raise ConfigError("z_grid must be an object")
        if "points" in data:
            try:
                pts = tuple(complex(float(re), float(im)) for re, im in data["points"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"malformed z_grid points: {exc}") from exc
            return cls(points=pts)
        if "rect" in data:
            try:
                rect = tuple(float(v) for v in data["rect"])
                res = int(data["resolution"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"malformed z_grid rect: {exc}") from exc
            if len(rect) != 4:
                raise ConfigError("z_grid rect must have 4 entries")
            return cls(rect=rect, resolution=res)
        raise ConfigError("z_grid needs 'points' or 'rect'")


@dataclass(frozen=True)
class ExperimentConfig:
    symbol: Symbol
    sizes: tuple[int, ...]
    gamma: float
    noise: NoiseModel
    trials: int
    z_grid: ZGrid
    mu_samples: int = 10000
    seed: int = 0
    outputs: str | None = None

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        if not sizes or any(n < 1 for n in sizes):
            raise ConfigError("sizes must be a nonempty list of positive ints")
        if list(sizes) != sorted(set(sizes)):
            raise ConfigError("sizes must be strictly increasing")
        object.__setattr__(self, "sizes", sizes)
        if not self.gamma > 0.5:
            raise ConfigError("gamma must exceed 1/2")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.mu_samples < 1:
            raise ConfigError("mu_samples must be >= 1")

    def to_json(self) -> dict:
        """Everything a run computes from; ``outputs`` (where it writes) is left out."""
        return {
            "symbol": self.symbol.to_json(),
            "sizes": list(self.sizes),
            "gamma": self.gamma,
            "noise": self.noise.to_json(),
            "trials": self.trials,
            "z_grid": self.z_grid.to_json(),
            "mu_samples": self.mu_samples,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data) -> "ExperimentConfig":
        if isinstance(data, (str, bytes)):
            try:
                data = json.loads(data)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {
            "symbol",
            "sizes",
            "gamma",
            "noise",
            "trials",
            "z_grid",
            "mu_samples",
            "seed",
            "outputs",
        }
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        try:
            return cls(
                symbol=Symbol.from_json(data["symbol"]),
                sizes=tuple(int(n) for n in data["sizes"]),
                gamma=float(data["gamma"]),
                noise=NoiseModel.from_json(data["noise"]),
                trials=int(data["trials"]),
                z_grid=ZGrid.from_json(data["z_grid"]),
                mu_samples=int(data.get("mu_samples", 10000)),
                seed=int(data.get("seed", 0)),
                outputs=data.get("outputs"),
            )
        except KeyError as exc:
            raise ConfigError(f"config missing field: {exc}") from exc
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from exc

    def canonical_json(self) -> str:
        return _dumps(self.to_json())

    def config_hash(self) -> str:
        return _hash(self.to_json())


# ---------------------------------------------------------------------------
# Artifacts


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _hash(inputs: dict) -> str:
    """The run identity: a short SHA-256 of the canonical JSON of its inputs."""
    return hashlib.sha256(_dumps(inputs).encode()).hexdigest()[:16]


def _cpair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


@dataclass
class RunArtifact:
    """Results of one experiment run.

    ``records`` are per-cell dicts (JSON-safe values only), ``summary`` is a
    list of aggregate rows, ``tables`` maps name -> (header, rows) for extra
    CSVs, ``svgs`` maps name -> markup.  ``inputs`` is the JSON echo of
    everything the run computed from; the config hash and the seed are read
    from it.
    """

    kind: str
    inputs: dict
    records: list[dict] = field(default_factory=list)
    summary: list[dict] = field(default_factory=list)
    tables: dict[str, tuple[tuple[str, ...], list[tuple]]] = field(default_factory=dict)
    svgs: dict[str, str] = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        return _hash(self.inputs)

    @property
    def seed(self) -> int | None:
        """The inputs' seed; None for a run that draws no random numbers."""
        return self.inputs.get("seed")

    def write(self, outdir, fmt: str = "jsonl", svg: bool = True) -> list[Path]:
        """Persist to ``outdir``; returns the written paths.

        ``fmt`` picks the record container (jsonl or csv); the summary and
        extra tables are always CSV.
        """
        if fmt not in ("jsonl", "csv"):
            raise ConfigError(f"unknown format {fmt!r}; choose jsonl or csv")
        from . import __version__

        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        # Results depend on numpy's LAPACK build, so the versions are recorded.
        info = {
            "kind": self.kind,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "versions": {
                "toepspec": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
            "config": self.inputs,
        }
        meta = outdir / f"{self.kind}_meta.json"
        meta.write_text(_dumps(info) + "\n")
        written.append(meta)
        if self.records:
            if fmt == "jsonl":
                p = outdir / f"{self.kind}.jsonl"
                with open(p, "w") as f:
                    for rec in self.records:
                        f.write(_dumps(rec) + "\n")
            else:
                p = outdir / f"{self.kind}.csv"
                _write_csv(
                    p,
                    tuple(self.records[0].keys()),
                    [
                        tuple(_csv_cell(rec[k]) for k in self.records[0].keys())
                        for rec in self.records
                    ],
                )
            written.append(p)
        if self.summary:
            p = outdir / f"{self.kind}_summary.csv"
            _write_csv(
                p,
                tuple(self.summary[0].keys()),
                [
                    tuple(_csv_cell(row[k]) for k in self.summary[0].keys())
                    for row in self.summary
                ],
            )
            written.append(p)
        for name, (header, rows) in self.tables.items():
            p = outdir / f"{self.kind}_{name}.csv"
            _write_csv(p, header, rows)
            written.append(p)
        if svg:
            for name, markup in self.svgs.items():
                p = outdir / f"{self.kind}_{name}.svg"
                p.write_text(markup + "\n")
                written.append(p)
        return written


def _csv_cell(v):
    if isinstance(v, (list, dict)):
        return _dumps(v)
    return v


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


# ---------------------------------------------------------------------------
# Thread pool


def thread_count() -> int:
    v = os.environ.get(THREADS_ENV)
    if v:
        try:
            return max(1, int(v))
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {v!r}") from exc
    return os.cpu_count() or 1


def _run_cells(cells, fn):
    """Map fn over cells, in parallel if configured; order preserved."""
    workers = thread_count()
    if workers == 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    results = [None] * len(cells)
    with ThreadPoolExecutor(max_workers=workers) as ex:
        futures = {ex.submit(fn, c): i for i, c in enumerate(cells)}
        for fut, i in futures.items():
            results[i] = fut.result()
    return results


# ---------------------------------------------------------------------------
# Metrics


def _mean_pairwise_abs(x: np.ndarray, chunk: int = 256) -> float:
    n = x.size
    total = 0.0
    for i0 in range(0, n, chunk):
        total += float(np.abs(x[i0 : i0 + chunk, None] - x[None, :]).sum())
    return total / (n * n)


def _mean_cross_abs(p: np.ndarray, q: np.ndarray, chunk: int = 256) -> float:
    total = 0.0
    for i0 in range(0, p.size, chunk):
        total += float(np.abs(p[i0 : i0 + chunk, None] - q[None, :]).sum())
    return total / (p.size * q.size)


def energy_distance(p, q) -> float:
    """Energy distance between two complex samples (V-statistic form):

        2 E|P - Q| - E|P - P'| - E|Q - Q'|,

    all means over the empirical products including diagonals, which keeps
    the statistic nonnegative.  Exact O(nm) evaluation, chunked.
    """
    p = np.asarray(p, dtype=complex).ravel()
    q = np.asarray(q, dtype=complex).ravel()
    if p.size == 0 or q.size == 0:
        raise ValueError("energy distance needs nonempty samples")
    return 2.0 * _mean_cross_abs(p, q) - _mean_pairwise_abs(p) - _mean_pairwise_abs(q)


def ks_distance(x, y) -> float:
    """Two-sample Kolmogorov-Smirnov statistic for real samples."""
    xs = np.sort(np.asarray(x, dtype=float).ravel())
    ys = np.sort(np.asarray(y, dtype=float).ravel())
    if xs.size == 0 or ys.size == 0:
        raise ValueError("KS distance needs nonempty samples")
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / xs.size
    fy = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(np.abs(fx - fy)))


@dataclass(frozen=True)
class IntervalMassRecord:
    mass: float
    upper: float
    lower: float


def interval_mass_check(samples, a: float, b: float, tau: float, rho: float) -> IntervalMassRecord:
    """Bracket the symmetrized empirical mass of [a, b] by smoothed-Stieltjes
    integrals at height tau with collar rho:

        mass <= (1/pi) int_{a-rho}^{b+rho} |Im G(x + i tau)| dx + tau/rho,
        mass >= (1/pi) int_{a+rho}^{b-rho} |Im G(x + i tau)| dx - tau/rho.

    The measure is the symmetrization (+/- s_j, weight 1/2n each); for it the
    integrals are exact arctan sums, so no quadrature error enters.
    """
    if not (tau > 0 and rho > 0):
        raise ValueError("tau and rho must be positive")
    if not (b - a > rho):
        raise ValueError("interval must be longer than the collar rho")
    s = np.asarray(samples, dtype=float).ravel()
    if s.size == 0:
        raise ValueError("need at least one sample")
    pts = np.concatenate([s, -s])
    mass = float(((pts >= a) & (pts <= b)).mean())

    def kernel_integral(lo: float, hi: float) -> float:
        vals = np.arctan((hi - pts) / tau) - np.arctan((lo - pts) / tau)
        return float(vals.mean()) / math.pi

    upper = kernel_integral(a - rho, b + rho) + tau / rho
    lower = kernel_integral(a + rho, b - rho) - tau / rho
    return IntervalMassRecord(mass=mass, upper=upper, lower=lower)


# ---------------------------------------------------------------------------
# Runners


def perturbation(s: Symbol, model: NoiseModel, gamma: float, n: int, seed) -> np.ndarray:
    """Additive perturbation for one trial: N^{-gamma} * E for i.i.d. kinds,
    the corner matrix (already internally scaled by N^{-gamma_star}) for the
    corner kind."""
    if model.kind == "corner_delta":
        return corner_delta(s, n, model.gamma_star, seed)
    return float(n) ** (-gamma) * sample(model, n, seed)


def run_esd(config: ExperimentConfig) -> RunArtifact:
    """Empirical spectra of T_N + N^{-gamma} E across sizes and trials, with
    energy distance to a fixed sample of the symbol curve measure."""
    s = config.symbol
    root = seed_sequence(config.seed)
    mu = sample_mu_a(s, config.mu_samples, seed_sequence(root, DOMAIN_MU))
    qq = _mean_pairwise_abs(mu.points)
    cells = [(n, t) for n in config.sizes for t in range(config.trials)]

    def work(cell):
        n, t = cell
        pert = perturbation(
            s, config.noise, config.gamma, n, seed_sequence(root, DOMAIN_NOISE, n, t)
        )
        res = eigenvalues(build(s, n) + pert)
        eig = res.eigenvalues
        dist = (
            2.0 * _mean_cross_abs(eig, mu.points) - _mean_pairwise_abs(eig) - qq
        )
        return {
            "n": n,
            "trial": t,
            "energy_distance": dist,
            "converged": res.converged,
            "eigenvalues": [_cpair(v) for v in eig],
        }

    records = _run_cells(cells, work)
    summary = []
    for n in config.sizes:
        dists = [r["energy_distance"] for r in records if r["n"] == n]
        conv = [r["converged"] for r in records if r["n"] == n]
        summary.append(
            {
                "n": n,
                "median_energy_distance": float(np.median(dists)),
                "mean_energy_distance": float(np.mean(dists)),
                "converged_fraction": float(np.mean(conv)),
            }
        )
    art = RunArtifact("esd", config.to_json(), records, summary)
    big_n = config.sizes[-1]
    first = next(r for r in records if r["n"] == big_n and r["trial"] == 0)
    eig_pts = np.array([complex(re, im) for re, im in first["eigenvalues"]])
    art.svgs["spectrum"] = _svg.scatter_svg(
        [
            (s.curve(720), 1.2, "#bbbbbb"),
            (eig_pts, 2.5, "#1f4e9c"),
        ],
        f"spectrum n={big_n}",
    )
    return art


def run_region_map(s: Symbol, rect, resolution: int) -> RunArtifact:
    """Region-order labels on a rectangular z grid; CSV rows (re, im, label)
    plus an SVG raster.  Boundary/unresolved nodes are labeled 'boundary'."""
    rect = [float(v) for v in rect]
    re_lo, re_hi, im_lo, im_hi = rect
    if not (re_lo < re_hi and im_lo < im_hi):
        raise ConfigError("rect must satisfy re_lo < re_hi and im_lo < im_hi")
    if resolution < 2:
        raise ConfigError("resolution must be >= 2")
    xs = np.linspace(re_lo, re_hi, resolution)
    ys = np.linspace(im_lo, im_hi, resolution)
    zs = (xs[None, :] + 1j * ys[:, None]).ravel()
    dd, bmask = region_labels(s, zs)
    dd = dd.reshape(resolution, resolution)
    bmask = bmask.reshape(resolution, resolution)
    re_text = [repr(float(x)) for x in xs]
    rows = []
    counts: dict[int | str, int] = {}
    for y, dd_row, b_row in zip(ys, dd.tolist(), bmask.tolist()):
        im_text = repr(float(y))
        for re, label, on_boundary in zip(re_text, dd_row, b_row):
            if on_boundary:
                label = "boundary"
            rows.append((re, im_text, label))
            counts[label] = counts.get(label, 0) + 1
    summary = [
        {"label": k, "nodes": v, "fraction": v / (resolution * resolution)}
        for k, v in sorted((str(k), v) for k, v in counts.items())
    ]
    inputs = {"symbol": s.to_json(), "rect": rect, "resolution": resolution}
    art = RunArtifact("regions", inputs, [], summary)
    art.tables["grid"] = (("re", "im", "label"), rows)
    art.svgs["map"] = _svg.region_svg(
        xs, ys, dd, bmask, s.d1, s.d, f"region orders d1={s.d1} d2={s.d2}"
    )
    return art


def run_logpot(config: ExperimentConfig, z_list=None) -> RunArtifact:
    """Normalized log-determinants (1/N) log|det(T_N(z) + perturbation)|
    against the limiting log-potential, per (z, N, trial)."""
    s = config.symbol
    if z_list is None:
        if config.z_grid.points is None:
            raise ConfigError("logpot needs an explicit z point list")
        z_list = list(config.z_grid.points)
    z_list = [complex(z) for z in z_list]
    limits = {}
    for z in z_list:
        if classify_region(s, z) == BOUNDARY:
            raise ConfigError(f"z = {z} lies on the region boundary")
        limits[z] = limit_logpot(s, z)
    root = seed_sequence(config.seed)
    cells = [(n, t) for n in config.sizes for t in range(config.trials)]

    def work(cell):
        n, t = cell
        pert = perturbation(
            s, config.noise, config.gamma, n, seed_sequence(root, DOMAIN_LOGPOT, n, t)
        )
        out = []
        for z in z_list:
            ld = lu_logdet(build_z(s, z, n) + pert)
            out.append(
                {
                    "z": _cpair(z),
                    "n": n,
                    "trial": t,
                    "log_pot": None if ld.singular else ld.log_abs / n,
                    "limit": limits[z],
                    "singular": ld.singular,
                }
            )
        return out

    records = [rec for group in _run_cells(cells, work) for rec in group]
    summary = []
    for z in z_list:
        zp = _cpair(z)
        for n in config.sizes:
            vals = [
                r["log_pot"]
                for r in records
                if r["n"] == n and r["z"] == zp and not r["singular"]
            ]
            med = float(np.median(vals)) if vals else None
            summary.append(
                {
                    "z_re": zp[0],
                    "z_im": zp[1],
                    "n": n,
                    "median_log_pot": med,
                    "limit": limits[z],
                    "abs_gap": None if med is None else abs(med - limits[z]),
                    "valid_trials": len(vals),
                }
            )
    inputs = {**config.to_json(), "z_grid": ZGrid(points=tuple(z_list)).to_json()}
    return RunArtifact("logpot", inputs, records, summary)


def run_replacement(
    config: ExperimentConfig, z: complex, n: int, model_b: NoiseModel
) -> RunArtifact:
    """Compare singular-value statistics of T_N(z) + N^{-gamma} noise under the
    config's ensemble and ``model_b`` (both scaled by ``config.gamma``),
    checking the deterministic Stieltjes resolvent bound

        |G_C(xi) - G_D(xi)| <= ||C - D||_HS / (sqrt(N) Im(xi)^2)

    at every grid xi, and reporting the KS distance of pooled spectra.
    """
    s, model_a, gamma, trials = config.symbol, config.noise, config.gamma, config.trials
    tz = build_z(s, z, n)
    root = seed_sequence(config.seed)
    records = []
    pooled_a: list[np.ndarray] = []
    pooled_b: list[np.ndarray] = []
    bound_ok = True
    for t in range(trials):
        sub = seed_sequence(root, DOMAIN_REPLACE, n, t)
        ca = tz + perturbation(s, model_a, gamma, n, sub)
        cb = tz + perturbation(s, model_b, gamma, n, sub)
        sa = singular_values(ca)
        sb = singular_values(cb)
        pooled_a.append(sa)
        pooled_b.append(sb)
        hs = hs_norm(ca - cb)
        top = float(max(sa[0], sb[0]))
        res = np.linspace(0.0, top, 21)
        max_ratio = 0.0
        max_diff = 0.0
        for im in (0.5, 1.0, 2.0):
            for re in res:
                xi = complex(re, im)
                diff = abs(
                    stieltjes_from_singvals(sa, xi) - stieltjes_from_singvals(sb, xi)
                )
                bound = hs / (math.sqrt(n) * im * im)
                max_diff = max(max_diff, diff)
                if bound > 0:
                    max_ratio = max(max_ratio, diff / bound)
                elif diff > 1e-12:
                    max_ratio = math.inf
        ok = max_ratio <= 1.0 + 1e-9
        bound_ok = bound_ok and ok
        records.append(
            {
                "trial": t,
                "hs_diff": hs,
                "max_stieltjes_diff": max_diff,
                "max_bound_ratio": max_ratio,
                "bound_ok": ok,
                "smin_a": float(sa[-1]),
                "smin_b": float(sb[-1]),
            }
        )
    flat_a = np.concatenate(pooled_a)
    flat_b = np.concatenate(pooled_b)
    ks = ks_distance(flat_a, flat_b)
    summary = [
        {
            "z_re": complex(z).real,
            "z_im": complex(z).imag,
            "n": n,
            "trials": trials,
            "ks_distance": ks,
            "bounds_ok": bound_ok,
            "max_bound_ratio": max(r["max_bound_ratio"] for r in records),
        }
    ]
    inputs = {**config.to_json(), "z": _cpair(z), "n": n, "noise_b": model_b.to_json()}
    art = RunArtifact("replace", inputs, records, summary)
    hi = float(max(flat_a.max(), flat_b.max())) or 1.0
    edges = np.linspace(0.0, hi, 51)
    ha, _ = np.histogram(flat_a, bins=edges)
    hb, _ = np.histogram(flat_b, bins=edges)
    art.tables["singval_hist"] = (
        ("bin_left", "bin_right", "count_a", "count_b"),
        [
            (repr(float(edges[i])), repr(float(edges[i + 1])), int(ha[i]), int(hb[i]))
            for i in range(len(ha))
        ],
    )
    return art


def run_expansion(
    s: Symbol, z: complex, sizes, draws: int, gamma_star: float, seed: int
) -> RunArtifact:
    """Corner-expansion dominance reports of det(T_N(z) + Delta) over sizes,
    one random corner perturbation Delta (decay N^{-gamma_star}) per draw."""
    sizes = [int(n) for n in sizes]
    records = []
    for n in sizes:
        for t in range(draws):
            delta = corner_delta(s, n, gamma_star, seed_sequence(seed, DOMAIN_CORNER, n, t))
            rep = dominance_report(s, z, delta)
            records.append(
                {
                    "n": n,
                    "draw": t,
                    "region_order": rep.dd,
                    "d0": rep.d0,
                    "ratio_above": rep.ratio_above,
                    "ratio_below": rep.ratio_below,
                    "normalized_pd": rep.normalized_pd,
                    "p_abs": list(rep.p_abs),
                }
            )
    summary = []
    for n in sizes:
        rows = [r for r in records if r["n"] == n]
        summary.append(
            {
                "n": n,
                "region_order": rows[0]["region_order"],
                "median_ratio_above": float(np.median([r["ratio_above"] for r in rows])),
                "median_ratio_below": float(np.median([r["ratio_below"] for r in rows])),
                "median_normalized_pd": float(np.median([r["normalized_pd"] for r in rows])),
            }
        )
    inputs = dict(
        symbol=s.to_json(), z=_cpair(z), sizes=sizes, draws=draws, gamma_star=gamma_star, seed=seed
    )
    return RunArtifact("expand", inputs, records, summary)
