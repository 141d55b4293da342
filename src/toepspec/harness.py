"""Experiment harness: configs, runners, metrics, and artifact persistence.

Every runner lives here.  Each derives all randomness from its seed through
keyed Philox streams and returns a RunArtifact holding per-cell records,
summaries, and ``inputs``: the JSON echo of everything the run computed from,
which also gives the artifact its config hash and seed (the output directory
is not an input).  A runner's first step, ``_<kind>_inputs``, checks its
arguments and returns that echo, with only the config fields the runner
reads; the CLI's dry run calls the same step.  Artifacts serialize to
JSONL/CSV (and optional static SVG) with canonical, byte-stable formatting:
the same inputs give identical files.

Runners compute their cells one after another in the calling thread; the
only parallelism is the BLAS threads inside each LAPACK call.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import platform
from dataclasses import dataclass, field, fields
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
from .expansion import _corner_reports, _corner_tables, _region_scale
from .linalg import (
    band_logdet, eigenvalues, hs_norm, lu_logdet, singular_values, stieltjes_from_singvals,
)
from .noise import NoiseModel, _check_corner, _corner_draws, corner_delta, corner_support, sample
from .symbol import (
    BOUNDARY, ConfigError, Symbol, _json_complex, _json_float, _json_int, classify_region,
    limit_logpot, region_labels, sample_mu_a,
)
from .toeplitz import build, build_z, interleaved_band

__all__ = [
    "ZGrid",
    "ExperimentConfig",
    "RunArtifact",
    "energy_distance",
    "ks_distance",
    "perturbation",
    "run_esd",
    "run_expansion",
    "run_region_map",
    "run_logpot",
    "run_replacement",
]


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
        if self.resolution is not None:
            object.__setattr__(self, "resolution", _json_int(self.resolution, "z_grid resolution"))
        if self.rect is not None:
            if not isinstance(self.rect, (tuple, list, np.ndarray)) or len(self.rect) != 4:
                raise ConfigError("z_grid rect must have 4 entries")
            object.__setattr__(self, "rect", tuple(_json_float(v, "rect entry") for v in self.rect))
            if self.resolution is None or self.resolution < 2:
                raise ConfigError("rect z_grid needs resolution >= 2")
            re_lo, re_hi, im_lo, im_hi = self.rect
            if not (re_lo < re_hi and im_lo < im_hi):
                raise ConfigError("rect must satisfy re_lo < re_hi and im_lo < im_hi")
        if self.points is not None:
            if len(self.points) == 0:
                raise ConfigError("points z_grid must be nonempty")
            if self.resolution is not None:
                raise ConfigError("points z_grid takes no resolution")
            object.__setattr__(self, "points", tuple(_json_complex(z, "z") for z in self.points))

    def to_json(self) -> dict:
        if self.points is not None:
            return {"points": [[z.real, z.imag] for z in self.points]}
        return {"rect": list(self.rect), "resolution": self.resolution}

    @classmethod
    def from_json(cls, data) -> "ZGrid":
        if not isinstance(data, dict):
            raise ConfigError("z_grid must be an object")
        extra = set(data) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown z_grid fields: {sorted(extra)}")
        pts, rect, res = (data.get(k) for k in ("points", "rect", "resolution"))
        try:
            if pts is not None:
                pts = tuple(complex(_json_float(re, "z"), _json_float(im, "z")) for re, im in pts)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed z_grid: {exc}") from exc
        return cls(points=pts, rect=rect, resolution=res)


@dataclass(frozen=True)
class ExperimentConfig:
    """Only ``symbol`` is required.  Each field present is checked on its own;
    a runner requires and echoes just the fields it reads (``_config_inputs``)."""

    symbol: Symbol
    sizes: tuple[int, ...] | None = None
    gamma: float | None = None
    noise: NoiseModel | None = None
    trials: int | None = None
    z_grid: ZGrid | None = None
    mu_samples: int = 10000
    seed: int = 0
    outputs: str | None = None

    def __post_init__(self):
        if self.sizes is not None:
            sizes = tuple(_json_int(n, "sizes entry") for n in self.sizes)
            if not sizes or any(n < 1 for n in sizes):
                raise ConfigError("sizes must be a nonempty list of positive ints")
            if list(sizes) != sorted(set(sizes)):
                raise ConfigError("sizes must be strictly increasing")
            object.__setattr__(self, "sizes", sizes)
        for name in ("trials", "mu_samples", "seed"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _json_int(getattr(self, name), name))
                if name != "seed" and getattr(self, name) < 1:
                    raise ConfigError(f"{name} must be >= 1")
        if self.gamma is not None:
            object.__setattr__(self, "gamma", _json_float(self.gamma, "gamma"))
            if not self.gamma > 0.5:
                raise ConfigError("gamma must exceed 1/2")
        if not isinstance(self.outputs, (str, type(None))):
            raise ConfigError(f"outputs must be a string, got {self.outputs!r}")

    def to_json(self) -> dict:
        """The fields present; ``outputs`` (where a run writes) is left out."""
        out = {
            "symbol": self.symbol.to_json(),
            "sizes": self.sizes and list(self.sizes),
            "gamma": self.gamma,
            "noise": self.noise and self.noise.to_json(),
            "trials": self.trials,
            "z_grid": self.z_grid and self.z_grid.to_json(),
            "mu_samples": self.mu_samples,
            "seed": self.seed,
        }
        return {k: v for k, v in out.items() if v is not None}

    @classmethod
    def from_json(cls, data) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        extra = set(data) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        if "symbol" not in data:
            raise ConfigError("config missing field: 'symbol'")
        nulls = sorted(k for k, v in data.items() if v is None)
        if nulls:
            raise ConfigError(f"config fields may not be null: {nulls}")
        read = {"symbol": Symbol.from_json, "noise": NoiseModel.from_json, "z_grid": ZGrid.from_json}
        try:
            return cls(**{k: read.get(k, lambda v: v)(v) for k, v in data.items()})
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from exc


def _config_inputs(config: ExperimentConfig, runner: str, names) -> dict:
    """The echo of exactly the config fields ``names``, which ``runner``
    reads.  Any of them missing is an error, and a runner that reads both
    the noise and the sizes has a corner noise checked at the smallest size."""
    echo = config.to_json()
    missing = [k for k in names if k not in echo]
    if missing:
        raise ConfigError(f"{runner} needs config field(s) {missing}")
    if {"noise", "sizes"} <= set(names) and config.noise.kind == "corner_delta":
        _check_corner(config.symbol, config.sizes[0], config.noise.gamma_star)
    return {k: echo[k] for k in names}


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
    list of aggregate rows, ``tables`` maps name -> CSV text (header line
    included, ``\r\n`` line ends) for extra CSVs, written verbatim, ``svgs``
    maps name -> markup.  ``inputs`` is the JSON echo of everything the run
    computed from; the config hash and the seed are read from it.
    """

    kind: str
    inputs: dict
    records: list[dict] = field(default_factory=list)
    summary: list[dict] = field(default_factory=list)
    tables: dict[str, str] = field(default_factory=dict)
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
                p.write_text("".join(_dumps(rec) + "\n" for rec in self.records))
            else:
                p = outdir / f"{self.kind}.csv"
                p.write_text(_dict_rows_text(self.records), newline="")
            written.append(p)
        texts = {"summary": _dict_rows_text(self.summary)} if self.summary else {}
        for name, text in {**texts, **self.tables}.items():
            p = outdir / f"{self.kind}_{name}.csv"
            p.write_text(text, newline="")
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


def _csv_text(header, rows) -> str:
    """``header`` and ``rows`` as CSV text, as ``csv.writer`` renders them."""
    import io

    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def _dict_rows_text(rows: list[dict]) -> str:
    header = tuple(rows[0].keys())
    return _csv_text(header, [tuple(_csv_cell(row[k]) for k in header) for row in rows])


def thread_count() -> int:
    """Always 1: runners use only the calling thread.  Kept solely for the
    benchmark's env stamp, which reads it; ROADMAP item 1 removes that read,
    and this function goes with it."""
    return 1


# ---------------------------------------------------------------------------
# Metrics


# The |x - y| means sum in tiles of at most this many elements: a tile has
# as many rows as fit against its columns (at least one), and a row longer
# than the budget is split into budget-wide column chunks.  Each tile's
# complex difference and its modulus then take at most 24 bytes per element
# (1.5 MB), whatever the sample sizes; only rounding depends on the budget.
_PAIR_BUDGET = 1 << 16


def _sum_abs_diff(p: np.ndarray, q: np.ndarray) -> float:
    """Sum of |p_i - q_j| over all pairs, one budget-sized tile at a time."""
    if q.size == 0:
        return 0.0
    width = min(q.size, _PAIR_BUDGET)
    rows = _PAIR_BUDGET // width
    total = 0.0
    for i0 in range(0, p.size, rows):
        blk = p[i0 : i0 + rows, None]
        for j0 in range(0, q.size, width):
            total += float(np.abs(blk - q[None, j0 : j0 + width]).sum())
    return total


def _mean_pairwise_abs(x: np.ndarray) -> float:
    """Mean of |x_i - x_j| over all n^2 ordered pairs.  The terms are
    symmetric, so each block of rows is summed against itself and, doubled,
    against the points after it: only the upper triangle is built.  A block
    takes as many rows as the budget allows against the n - i0 columns left,
    so the blocks grow as the triangle narrows."""
    n = x.size
    total = 0.0
    i0 = 0
    while i0 < n:
        i1 = i0 + max(1, _PAIR_BUDGET // (n - i0))
        blk = x[i0:i1]
        total += _sum_abs_diff(blk, blk) + 2.0 * _sum_abs_diff(blk, x[i1:])
        i0 = i1
    return total / (n * n)


def _mean_cross_abs(p: np.ndarray, q: np.ndarray) -> float:
    """Mean of |p_i - q_j| over all pairs."""
    return _sum_abs_diff(p, q) / (p.size * q.size)


def energy_distance(p, q) -> float:
    """Energy distance between two complex samples (V-statistic form):

        2 E|P - Q| - E|P - P'| - E|Q - Q'|,

    all means over the empirical products including diagonals, which keeps
    the statistic nonnegative.  Every mean is the exact O(nm) sum, evaluated
    in blocks of rows; the self-terms sum only the upper triangle of their
    symmetric pair matrix and double it, so they are exact up to rounding.
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


# ---------------------------------------------------------------------------
# Runners


def perturbation(s: Symbol, model: NoiseModel, gamma: float, n: int, seed) -> np.ndarray:
    """Additive perturbation for one trial: N^{-gamma} * E for i.i.d. kinds,
    the corner matrix (already internally scaled by N^{-gamma_star}) for the
    corner kind.  Float64 for a real kind, complex128 for a complex one."""
    if model.kind == "corner_delta":
        return corner_delta(s, n, model.gamma_star, seed)
    e = sample(model, n, seed)
    e *= float(n) ** (-gamma)
    return e


def _esd_inputs(config: ExperimentConfig) -> dict:
    """run_esd's inputs echo."""
    names = ("symbol", "sizes", "gamma", "noise", "trials", "mu_samples", "seed")
    return _config_inputs(config, "spectrum", names)


def run_esd(config: ExperimentConfig) -> RunArtifact:
    """Empirical spectra of T_N + N^{-gamma} E across sizes and trials, with
    energy distance to a fixed sample of the symbol curve measure."""
    inputs = _esd_inputs(config)
    s = config.symbol
    root = seed_sequence(config.seed)
    mu = sample_mu_a(s, config.mu_samples, seed_sequence(root, DOMAIN_MU))
    qq = _mean_pairwise_abs(mu.points)
    records = []
    summary = []
    for n in config.sizes:
        dists = []
        for t in range(config.trials):
            pert = perturbation(
                s, config.noise, config.gamma, n, seed_sequence(root, DOMAIN_NOISE, n, t)
            )
            tn = build(s, n)  # added in place, and freed before the eigensolver runs
            pert = pert.astype(np.result_type(pert, tn), copy=False)
            pert += tn
            del tn
            res = eigenvalues(pert)
            eig = res.eigenvalues
            dist = None
            if res.converged:
                dist = 2.0 * _mean_cross_abs(eig, mu.points) - _mean_pairwise_abs(eig) - qq
                dists.append(dist)
            records.append(
                {
                    "n": n,
                    "trial": t,
                    "energy_distance": dist,
                    "converged": res.converged,
                    "eigenvalues": [_cpair(v) for v in eig],
                }
            )
        summary.append(
            {
                "n": n,
                "median_energy_distance": float(np.median(dists)) if dists else None,
                "mean_energy_distance": float(np.mean(dists)) if dists else None,
                "converged_fraction": len(dists) / config.trials,
            }
        )
    art = RunArtifact("esd", inputs, records, summary)
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


def _off_boundary(s: Symbol, z) -> complex:
    """``z`` as a complex number, checked to lie off the region boundary and
    to have characteristic roots."""
    z = _json_complex(z, "z")
    if classify_region(s, z) == BOUNDARY:
        raise ConfigError(
            f"z = {z} lies on the region boundary, or has no characteristic roots "
            "(d1 = 0 and z = a_0, where the degree collapses)"
        )
    return z


def _region_inputs(s: Symbol, rect, resolution: int) -> dict:
    """run_region_map's inputs echo; ZGrid checks the rect and resolution."""
    grid = ZGrid(rect=rect, resolution=resolution)
    return {"symbol": s.to_json(), **grid.to_json()}


def _row_runs(codes: np.ndarray) -> tuple:
    """The runs of equal values along each row of the 2-D grid ``codes``,
    found over the whole grid at once: (row, start, stop, code) lists in
    row-major order, with run i covering ``codes[row[i], start[i]:stop[i]]``."""
    ny, nx = codes.shape
    breaks = np.ones((ny, nx + 1), bool)
    breaks[:, 1:-1] = codes[:, 1:] != codes[:, :-1]
    rows, cols = np.divmod(np.flatnonzero(breaks), nx + 1)
    rows, starts = rows[cols < nx], cols[cols < nx]
    return [a.tolist() for a in (rows, starts, cols[cols > 0], codes[rows, starts])]


def run_region_map(s: Symbol, rect, resolution: int) -> RunArtifact:
    """Region-order labels on a rectangular z grid; CSV rows (re, im, label)
    plus an SVG raster.  Boundary/unresolved nodes are labeled 'boundary'."""
    inputs = _region_inputs(s, rect, resolution)
    re_lo, re_hi, im_lo, im_hi = inputs["rect"]
    resolution = inputs["resolution"]
    xs = np.linspace(re_lo, re_hi, resolution)
    ys = np.linspace(im_lo, im_hi, resolution)
    zs = (xs[None, :] + 1j * ys[:, None]).ravel()
    dd, bmask = region_labels(s, zs)
    # Node codes: order + d2 for orders -d2..d1, d + 1 for boundary.
    names = [str(k) for k in range(-s.d2, s.d1 + 1)] + ["boundary"]
    codes = np.where(bmask, s.d + 1, dd + s.d2)
    counts = np.bincount(codes, minlength=len(names)).tolist()
    summary = [
        {"label": k, "nodes": v, "fraction": v / (resolution * resolution)}
        for k, v in zip(names, counts)
        if v
    ]
    runs = _row_runs(codes.reshape(resolution, resolution))
    # csv.writer would quote none of these fields, so the rows are joined by
    # hand.  Each label's text puts that label on every node, with "#" for
    # im; a run is a slice of its label's text, and a row joins its runs'
    # slices and puts repr(im) in for "#".
    re_text = [repr(float(x)) + ",#," for x in xs]
    nodes = [[t + k + "\r\n" for t in re_text] for k in names]
    texts = ["".join(row) for row in nodes]
    ends = [list(itertools.accumulate(map(len, row), initial=0)) for row in nodes]
    cuts = zip(*runs[1:])
    lines = ["re,im,label\r\n"]
    for y, count in zip(ys, np.bincount(runs[0]).tolist()):
        row = [texts[k][ends[k][a] : ends[k][b]] for a, b, k in itertools.islice(cuts, count)]
        lines.append("".join(row).replace("#", repr(float(y))))
    art = RunArtifact("regions", inputs, [], summary)
    art.tables["grid"] = "".join(lines)
    art.svgs["map"] = _svg.region_svg(
        runs, (resolution, resolution), s.d, f"region orders d1={s.d1} d2={s.d2}"
    )
    return art


def _logpot_inputs(config: ExperimentConfig) -> dict:
    """run_logpot's inputs echo: the config fields it reads, after checking
    that z_grid is a point list off the region boundary."""
    names = ("symbol", "sizes", "gamma", "noise", "trials", "seed", "z_grid")
    inputs = _config_inputs(config, "logpot", names)
    if config.z_grid.points is None:
        raise ConfigError("logpot needs a points z_grid")
    for z in config.z_grid.points:
        _off_boundary(config.symbol, z)
    return inputs


def run_logpot(config: ExperimentConfig) -> RunArtifact:
    """Normalized log-determinants (1/N) log|det(T_N(z) + perturbation)|
    against the limiting log-potential, per (z, N, trial) over the config's
    z_grid points.

    A corner perturbation keeps T_N(z) + Delta a band matrix that wraps
    around, and every trial at one size shares its corner support and so its
    band widths: each size makes one ``band_logdet`` call over every
    (trial, z), on the interleaved bands of the stacked corner entries.
    Entrywise noise is dense: each (size, trial) cell draws one perturbation
    and takes one ``lu_logdet`` per z."""
    s = config.symbol
    inputs = _logpot_inputs(config)
    zs = config.z_grid.points
    limits = {z: limit_logpot(s, z) for z in zs}
    root = seed_sequence(config.seed)
    cells = [(n, t) for n in config.sizes for t in range(config.trials)]
    model = config.noise
    lds = []
    if model.kind == "corner_delta":
        for n in config.sizes:
            seeds = [seed_sequence(root, DOMAIN_LOGPOT, n, t) for t in range(config.trials)]
            entries = _corner_draws(s, n, model.gamma_star, seeds)
            lds += band_logdet(*interleaved_band(s, zs, n, *entries))
    else:
        for n, t in cells:
            pert = perturbation(s, model, config.gamma, n, seed_sequence(root, DOMAIN_LOGPOT, n, t))
            lds += [lu_logdet(build_z(s, z, n) + pert) for z in zs]
    keys = [(n, t, z) for n, t in cells for z in zs]
    records = [
        {
            "z": _cpair(z),
            "n": n,
            "trial": t,
            "log_pot": None if ld.singular else ld.log_abs / n,
            "limit": limits[z],
            "singular": ld.singular,
        }
        for (n, t, z), ld in zip(keys, lds)
    ]
    summary = []
    for z in zs:
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
    return RunArtifact("logpot", inputs, records, summary)


def _replacement_inputs(
    config: ExperimentConfig, z: complex, n: int, model_b: NoiseModel
) -> dict:
    """run_replacement's inputs echo: the config fields it reads plus ``z``,
    ``n`` and the second ensemble, after checking ``n`` against both
    ensembles."""
    inputs = _config_inputs(config, "replace", ("symbol", "gamma", "noise", "trials", "seed"))
    z = _json_complex(z, "z")
    n = _json_int(n, "n")
    if n < 1:
        raise ConfigError("n must be >= 1")
    for model in (config.noise, model_b):
        if model.kind == "corner_delta":
            _check_corner(config.symbol, n, model.gamma_star)
    return {**inputs, "z": _cpair(z), "n": n, "noise_b": model_b.to_json()}


def run_replacement(
    config: ExperimentConfig, z: complex, n: int, model_b: NoiseModel
) -> RunArtifact:
    """Compare singular-value statistics of T_N(z) + N^{-gamma} noise under the
    config's ensemble and ``model_b`` (both scaled by ``config.gamma``),
    checking the deterministic Stieltjes resolvent bound

        |G_C(xi) - G_D(xi)| <= ||C - D||_HS / (sqrt(N) Im(xi)^2)

    at every grid xi, and reporting the KS distance of pooled spectra.
    """
    inputs = _replacement_inputs(config, z, n, model_b)
    z, n = complex(*inputs["z"]), inputs["n"]
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
        ims = np.array([[0.5], [1.0], [2.0]])
        xi = np.linspace(0.0, float(max(sa[0], sb[0])), 21) + 1j * ims
        diff = np.abs(stieltjes_from_singvals(sa, xi) - stieltjes_from_singvals(sb, xi))
        max_diff = float(diff.max())
        if hs > 0:
            max_ratio = float((diff / (hs / (math.sqrt(n) * ims * ims))).max())
        else:
            max_ratio = math.inf if max_diff > 1e-12 else 0.0
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
            "z_re": z.real,
            "z_im": z.imag,
            "n": n,
            "trials": trials,
            "ks_distance": ks,
            "bounds_ok": bound_ok,
            "max_bound_ratio": max(r["max_bound_ratio"] for r in records),
        }
    ]
    art = RunArtifact("replace", inputs, records, summary)
    hi = float(max(flat_a.max(), flat_b.max())) or 1.0
    edges = np.linspace(0.0, hi, 51)
    ha, _ = np.histogram(flat_a, bins=edges)
    hb, _ = np.histogram(flat_b, bins=edges)
    art.tables["singval_hist"] = _csv_text(
        ("bin_left", "bin_right", "count_a", "count_b"),
        [
            (repr(float(edges[i])), repr(float(edges[i + 1])), int(ha[i]), int(hb[i]))
            for i in range(len(ha))
        ],
    )
    return art


def _expansion_plan(
    s: Symbol, z: complex, sizes, draws: int, gamma_star: float, seed: int
) -> tuple[dict, dict]:
    """run_expansion's inputs echo and, per size, the ``_corner_tables`` its
    draws share, after checking the form of each argument, the sizes and
    draws, that z lies off the region boundary, that the corners fit every
    size and that every size's terms stay in double range."""
    sizes = [_json_int(n, "sizes entry") for n in sizes]
    draws = _json_int(draws, "draws")
    gamma_star = _json_float(gamma_star, "gamma_star")
    seed = _json_int(seed, "seed")
    if not sizes or any(n < 1 for n in sizes):
        raise ConfigError("sizes must be a nonempty list of positive ints")
    if draws < 1:
        raise ConfigError("draws must be >= 1")
    _check_corner(s, min(sizes), gamma_star)
    z = _off_boundary(s, z)
    corners = {
        n: _corner_tables(s, z, n, *zip(*corner_support(n, s.d1, s.d2)))
        for n in dict.fromkeys(sizes)
    }
    inputs = dict(
        symbol=s.to_json(), z=_cpair(z), sizes=sizes, draws=draws, gamma_star=gamma_star, seed=seed
    )
    return inputs, corners


def _expansion_inputs(*args) -> dict:
    """``_expansion_plan``'s inputs echo alone.  T_N(z) is factored at every
    size, so the dry run rejects a size whose terms leave double range."""
    return _expansion_plan(*args)[0]


def run_expansion(
    s: Symbol, z: complex, sizes, draws: int, gamma_star: float, seed: int
) -> RunArtifact:
    """Corner-expansion dominance reports of det(T_N(z) + Delta) over sizes,
    one random corner perturbation Delta (decay N^{-gamma_star}) per draw."""
    inputs, corners = _expansion_plan(s, z, sizes, draws, gamma_star, seed)
    z, sizes = complex(*inputs["z"]), inputs["sizes"]
    scale = _region_scale(s, z)
    records = []
    for n in sizes:
        seeds = [seed_sequence(seed, DOMAIN_CORNER, n, t) for t in range(draws)]
        entries = _corner_draws(s, n, gamma_star, seeds)
        for t, rep in enumerate(_corner_reports(corners[n], scale, n, *entries)):
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
    return RunArtifact("expand", inputs, records, summary)
