"""Experiment configuration, statistics helpers, runners, artifact output."""

import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import toepspec
from toepspec import _svg, expansion, harness, noise, symbol
from toepspec._rng import DOMAIN_CORNER, DOMAIN_LOGPOT, DOMAIN_NOISE, seed_sequence
from conftest import random_complex
from toepspec import (
    BOUNDARY,
    ConfigError,
    ExperimentConfig,
    NoiseModel,
    Symbol,
    ZGrid,
    corner_delta,
    dominance_report,
    energy_distance,
    ks_distance,
    perturbation,
    run_esd,
    run_expansion,
    run_logpot,
    run_region_map,
    run_replacement,
    sample,
)


def tiny_config(quad, **overrides):
    base = dict(
        symbol=quad,
        sizes=(8, 12),
        gamma=0.75,
        noise=NoiseModel("gaussian_complex"),
        trials=2,
        z_grid=ZGrid(points=(3.0 + 0j, 1.0 + 0j)),
        mu_samples=300,
        seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Configuration plumbing


def test_zgrid_needs_exactly_one_shape():
    with pytest.raises(ConfigError):
        ZGrid()
    with pytest.raises(ConfigError):
        ZGrid(points=(1.0,), rect=(0, 1, 0, 1), resolution=5)
    with pytest.raises(ConfigError):
        ZGrid(rect=(0, 1, 0, 1))  # resolution missing
    with pytest.raises(ConfigError):
        ZGrid(rect=(1, 0, 0, 1), resolution=5)  # empty rectangle
    with pytest.raises(ConfigError):
        ZGrid(points=())


def test_zgrid_json_roundtrip():
    for grid in (ZGrid(points=(1 + 2j, -0.5 + 0j)), ZGrid(rect=(0, 1, -1, 1), resolution=9)):
        assert ZGrid.from_json(grid.to_json()) == grid
    with pytest.raises(ConfigError):
        ZGrid.from_json({"nothing": 1})


@pytest.mark.parametrize(
    "data, message",
    [
        ({"points": [[0, 0]], "rect": [0, 1, 0, 1], "resolution": 5}, "exactly one"),
        ({"rect": [0, 1, 0, 1], "resolutoin": 5}, r"unknown z_grid fields: \['resolutoin'\]"),
        ({"points": [[0, 0]], "resolution": 5}, "takes no resolution"),
        ({"points": [[True, 0]]}, "z must be a number, got True"),
        ({"rect": ["0", 1, 0, 1], "resolution": 5}, "rect entry must be a number"),
    ],
)
def test_zgrid_json_rejects_what_it_would_drop(data, message):
    with pytest.raises(ConfigError, match=message):
        ZGrid.from_json(data)


def test_config_validation(quad):
    with pytest.raises(ConfigError):
        tiny_config(quad, sizes=(12, 8))
    with pytest.raises(ConfigError):
        tiny_config(quad, sizes=(8, 8))
    with pytest.raises(ConfigError):
        tiny_config(quad, gamma=0.5)
    with pytest.raises(ConfigError):
        tiny_config(quad, trials=0)


def test_config_json_roundtrip(quad):
    cfg = tiny_config(quad)
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    assert harness._esd_inputs(back) == harness._esd_inputs(cfg)
    integral_floats = {"sizes": [8.0, 12.0], "trials": 2.0, "seed": 42.0}
    assert ExperimentConfig.from_json({**cfg.to_json(), **integral_floats}) == cfg


def test_config_rejects_unknown_fields(quad):
    data = tiny_config(quad).to_json()
    data["typo_field"] = 1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(data)


@pytest.mark.parametrize(
    "path, value",
    [
        (("trials",), 2.7),
        (("trials",), True),
        (("sizes",), [8, 12.5]),
        (("seed",), 3.5),
        (("mu_samples",), "300"),
        (("z_grid",), {"rect": [0, 1, 0, 1], "resolution": 7.9}),
        (("symbol", "d1"), 1.6),
    ],
)
def test_config_integer_fields_are_not_truncated(quad, path, value):
    data = tiny_config(quad).to_json()
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigError, match="must be an integer"):
        ExperimentConfig.from_json(data)


def test_config_needs_only_the_symbol_and_checks_what_is_present(quad):
    cfg = ExperimentConfig.from_json({"symbol": quad.to_json()})
    assert cfg.to_json() == {"symbol": quad.to_json(), "mu_samples": 10000, "seed": 0}
    with pytest.raises(ConfigError, match=r"spectrum needs config field\(s\) \['sizes'"):
        run_esd(cfg)
    with pytest.raises(ConfigError, match="may not be null"):
        ExperimentConfig.from_json({"symbol": quad.to_json(), "sizes": None})
    # The constructor applies the integer rule too, instead of truncating.
    with pytest.raises(ConfigError, match="must be an integer"):
        ExperimentConfig(quad, sizes=(10.9,))
    assert ExperimentConfig(quad, sizes=np.array([8, 12]), trials=np.int64(2)).sizes == (8, 12)


@pytest.mark.parametrize(
    "reader, data",
    [
        (ExperimentConfig.from_json, '{"symbol": {"d1": 1, "d2": 0, "coeffs": [[0, 0], [1, 0]]}}'),
        (Symbol.from_json, '{"d1": 1, "d2": 0, "coeffs": [[0, 0], [1, 0]]}'),
        (NoiseModel.from_json, '{"kind": "rademacher"}'),
    ],
)
def test_json_readers_take_parsed_objects_only(reader, data):
    with pytest.raises(ValueError, match="must be .*object"):
        reader(data)


def esd_hash(cfg):
    return harness._hash(harness._esd_inputs(cfg))


def test_config_hash_is_canonical(quad):
    cfg = tiny_config(quad)
    h = esd_hash(cfg)
    assert len(h) == 16 and all(c in "0123456789abcdef" for c in h)
    assert esd_hash(tiny_config(quad, seed=43)) != h
    # Canonical form is key-sorted with no whitespace.
    s = harness._dumps(harness._esd_inputs(cfg))
    assert " " not in s
    assert json.loads(s) == harness._esd_inputs(cfg)
    assert list(json.loads(s)) == sorted(json.loads(s))


def test_config_hash_ignores_outputs(quad):
    cfg = tiny_config(quad, outputs="runs/a")
    assert esd_hash(cfg) == esd_hash(tiny_config(quad, outputs="runs/b"))
    assert esd_hash(cfg) == esd_hash(tiny_config(quad))
    assert "outputs" not in harness._esd_inputs(cfg)


# ---------------------------------------------------------------------------
# Two-sample statistics


def energy_distance_brute(p, q):
    p = np.asarray(p).ravel()
    q = np.asarray(q).ravel()
    pq = np.mean([abs(a - b) for a in p for b in q])
    pp = np.mean([abs(a - b) for a in p for b in p])
    qq = np.mean([abs(a - b) for a in q for b in q])
    return 2 * pq - pp - qq


def test_energy_distance_matches_brute_force(rng):
    p = random_complex(rng, 7, 1).ravel()
    q = random_complex(rng, 5, 1).ravel()
    assert energy_distance(p, q) == pytest.approx(
        energy_distance_brute(p, q), rel=1e-12
    )


def test_energy_distance_properties(rng):
    p = random_complex(rng, 40, 1).ravel()
    q = random_complex(rng, 30, 1).ravel() + 2.0
    assert energy_distance(p, p) == pytest.approx(0.0, abs=1e-14)
    big = random_complex(rng, 1000, 1).ravel()
    assert abs(energy_distance(big, big)) <= 1e-14
    d = energy_distance(p, q)
    assert d > 0.0
    assert energy_distance(p + 1j, q + 1j) == pytest.approx(d, rel=1e-12)
    assert energy_distance(q, p) == pytest.approx(d, rel=1e-12)


def mean_abs_full_matrix(x, y):
    return float(np.abs(x[:, None] - y[None, :]).mean())


# Each size is checked at a 64-element budget and at the default.  At 64,
# 8 points fill one square tile and 9 split it, 7 columns take 9 rows a
# tile and 10 rows need two; from 63 points a block is one row, and past 64
# a row is split into column chunks.  At the default, 256 and 257 are the
# square edge, and 1000 points put most pairs off the triangle's diagonal.
EDGE_BUDGETS = (64, harness._PAIR_BUDGET)


@pytest.mark.parametrize("n", [1, 8, 9, 63, 64, 65, 256, 257, 1000])
def test_mean_pairwise_abs_matches_full_matrix(rng, monkeypatch, n):
    x = random_complex(rng, n, 1).ravel()
    full = mean_abs_full_matrix(x, x)
    for budget in EDGE_BUDGETS:
        monkeypatch.setattr(harness, "_PAIR_BUDGET", budget)
        assert harness._mean_pairwise_abs(x) == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize(
    "n, m", [(1, 7), (9, 7), (10, 7), (63, 1000), (65, 130), (1000, 64), (257, 256)]
)
def test_mean_cross_abs_matches_full_matrix(rng, monkeypatch, n, m):
    p = random_complex(rng, n, 1).ravel()
    q = random_complex(rng, m, 1).ravel() + 0.5
    full = mean_abs_full_matrix(p, q)
    for budget in EDGE_BUDGETS:
        monkeypatch.setattr(harness, "_PAIR_BUDGET", budget)
        assert harness._mean_cross_abs(p, q) == pytest.approx(full, rel=1e-12)


def test_energy_distance_temporaries_stay_within_budget(rng, monkeypatch):
    # Every |x - y| tile goes through np.abs; at samples several times the
    # budget, none may hold more elements than the budget.
    budget = 64
    monkeypatch.setattr(harness, "_PAIR_BUDGET", budget)
    sizes = []
    np_abs = np.abs

    def spy(a, *args, **kwargs):
        sizes.append(np.size(a))
        return np_abs(a, *args, **kwargs)

    monkeypatch.setattr(np, "abs", spy)
    p = random_complex(rng, 5 * budget, 1).ravel()
    q = random_complex(rng, 3 * budget + 5, 1).ravel()
    d = energy_distance(p, q)
    monkeypatch.undo()
    assert d == pytest.approx(
        2.0 * mean_abs_full_matrix(p, q) - mean_abs_full_matrix(p, p) - mean_abs_full_matrix(q, q),
        rel=1e-12,
    )
    assert sizes and max(sizes) <= budget


def ks_brute(x, y):
    grid = np.concatenate([x, y])
    fx = np.array([(x <= t).mean() for t in grid])
    fy = np.array([(y <= t).mean() for t in grid])
    return float(np.abs(fx - fy).max())


def test_ks_distance_frozen_and_brute(rng):
    assert ks_distance(np.array([0.0, 1.0]), np.array([0.5])) == pytest.approx(0.5)
    x = rng.standard_normal(37)
    y = rng.standard_normal(53) + 0.3
    assert ks_distance(x, y) == pytest.approx(ks_brute(x, y), abs=1e-12)
    assert ks_distance(x, x) == 0.0


# ---------------------------------------------------------------------------
# Perturbation dispatch


def test_perturbation_scaling(quad):
    # Scaling the draw in place gives the bytes of N^{-gamma} * sample.
    for kind in (k for k in noise.KINDS if k != "corner_delta"):
        model = NoiseModel(kind, p=0.3 if kind == "sparse_bernoulli_gaussian" else None)
        pert = perturbation(quad, model, 0.75, 16, 99)
        assert np.array_equal(pert, float(16) ** (-0.75) * sample(model, 16, 99)), kind


def test_perturbation_corner_dispatch(quad):
    model = NoiseModel("corner_delta", gamma_star=3.0)
    pert = perturbation(quad, model, 0.75, 16, 1)
    nz = np.nonzero(pert)
    assert len(nz[0]) == 3  # corner support of a width-2 band
    assert np.abs(pert).max() <= 16.0 ** (-3.0)


# ---------------------------------------------------------------------------
# Runners


def test_run_esd_structure_and_determinism(quad):
    cfg = tiny_config(quad)
    art = run_esd(cfg)
    assert art.kind == "esd"
    assert art.inputs == harness._esd_inputs(cfg)
    assert art.config_hash == esd_hash(cfg)
    assert len(art.records) == 4  # two sizes x two trials
    for rec in art.records:
        assert rec["converged"]
        assert len(rec["eigenvalues"]) == rec["n"]
        assert rec["energy_distance"] >= 0.0
    assert [row["n"] for row in art.summary] == [8, 12]
    assert "spectrum" in art.svgs
    again = run_esd(cfg)
    assert json.dumps(art.records) == json.dumps(again.records)


def test_runners_start_no_thread(quad, monkeypatch, tmp_path):
    # Spectrum cells and entrywise logpot cells run in the calling thread.
    runs = {
        "esd": lambda: run_esd(tiny_config(quad, sizes=(8, 40), trials=3)),
        "logpot": lambda: run_logpot(tiny_config(quad, sizes=(8, 40), trials=3)),
    }
    for name, run in runs.items():
        run().write(tmp_path / "free" / name, svg=False)

    def refuse(self):
        raise RuntimeError("no thread may start")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for name, run in runs.items():
        run().write(tmp_path / "patched" / name, svg=False)
        for path in sorted((tmp_path / "free" / name).iterdir()):
            assert (tmp_path / "patched" / name / path.name).read_bytes() == path.read_bytes()


# Peak RSS of run_esd at the benchmark's esd config (N = 100/200/400, one
# trial, 10^4 mu_a samples) over the peak after imports, in a fresh process.
# It reads VmHWM, the peak of the process's own address space: ru_maxrss
# keeps the RSS the process had before exec, which here is pytest's.
_ESD_RSS_SCRIPT = """
import toepspec as tp
def peak_mb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024
cfg = tp.ExperimentConfig(
    symbol=tp.Symbol((0.0, 1.0, 1.0), 2, 0), sizes=(100, 200, 400), gamma=0.75,
    noise=tp.NoiseModel("gaussian_complex"), trials=1, mu_samples=10000, seed=21,
)
base = peak_mb()
tp.run_esd(cfg)
print(peak_mb() - base)
"""


def test_run_esd_eigenvalues_are_those_of_build_plus_perturbation(quad):
    # Each cell is assembled in place in its perturbation; the eigenvalues
    # are the bytes of eigvals(build + pert).
    cfg = tiny_config(quad)
    art = run_esd(cfg)
    root = seed_sequence(cfg.seed)
    for rec in art.records:
        n = rec["n"]
        pert = perturbation(quad, cfg.noise, cfg.gamma, n, seed_sequence(root, DOMAIN_NOISE, n, rec["trial"]))
        want = np.linalg.eigvals(harness.build(quad, n) + pert)
        assert rec["eigenvalues"] == [[v.real, v.imag] for v in want]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_run_esd_peak_memory():
    # Measured 14.1-14.3 MB, and the same at 4 x 10^4 mu_a samples; the
    # bound sits below the 26 MB that energy-distance blocks of 64 rows
    # against the whole sample took.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", _ESD_RSS_SCRIPT], env=env, capture_output=True, text=True,
        check=True,
    )
    assert float(out.stdout) <= 20.0


def test_run_esd_reports_nonconvergence(quad, monkeypatch, tmp_path):
    cfg = tiny_config(quad, trials=3)
    good = run_esd(cfg)
    eigvals = np.linalg.eigvals
    calls = []

    def fail_second(a):
        calls.append(a.shape)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("forced non-convergence")
        return eigvals(a)

    # One failed matrix: its cell leaves the median and the mean of its size.
    monkeypatch.setattr(np.linalg, "eigvals", fail_second)
    art = run_esd(cfg)
    bad = art.records[1]
    assert (bad["n"], bad["trial"], bad["converged"], bad["energy_distance"]) == (8, 1, False, None)
    assert art.records[:1] + art.records[2:] == good.records[:1] + good.records[2:]
    kept = [good.records[0]["energy_distance"], good.records[2]["energy_distance"]]
    assert art.summary == [
        {
            "n": 8,
            "median_energy_distance": float(np.median(kept)),
            "mean_energy_distance": float(np.mean(kept)),
            "converged_fraction": 2 / 3,
        },
        good.summary[1],
    ]

    # Every matrix failed: each size has null medians and means.
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("forced non-convergence")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    run_esd(tiny_config(quad)).write(tmp_path)
    with open(tmp_path / "esd.jsonl") as f:
        records = [json.loads(line) for line in f]
    assert records and not any(rec["converged"] for rec in records)
    for rec in records:
        assert len(rec["eigenvalues"]) == rec["n"]
        assert rec["energy_distance"] is None
    header, *rows = check_csv(tmp_path / "esd_summary.csv", expect_rows=2)
    for row in rows:
        cells = dict(zip(header, row))
        assert cells["median_energy_distance"] == cells["mean_energy_distance"] == ""
        assert float(cells["converged_fraction"]) == 0.0


def test_run_region_map_counts(quad):
    art = run_region_map(quad, (-2.5, 3.5, -3.0, 3.0), 9)
    header, *rows = csv.reader(io.StringIO(art.tables["grid"]))
    assert header == ["re", "im", "label"]
    assert len(rows) == 81
    total = sum(row["nodes"] for row in art.summary)
    assert total == 81
    labels = {row["label"] for row in art.summary}
    assert labels <= {"0", "1", "2", "boundary"}
    assert art.svgs["map"].lstrip().startswith("<svg")


ELLIPSE = Symbol((1.0, 0.0, 0.5), 1, 1)  # lam^{-1} + lam/2: order -1 inside


REGION_CASES = [
    (Symbol((0.0, 1.0, 1.0), 2, 0), (-2.5, 3.5, -3.0, 3.0), 9, ["0", "1", "2", "boundary"]),
    # Nodes at +-1.5 on the real axis sit on the curve; no node has order 1.
    (ELLIPSE, (-1.5, 1.5, -1.0, 1.0), 9, ["-1", "0", "boundary"]),
    # QUAD away from its order-2 loop: "2" has no node and no row.
    (Symbol((0.0, 1.0, 1.0), 2, 0), (1.0, 3.0, -1.0, 1.0), 5, ["0", "1", "boundary"]),
    (ELLIPSE, (2.0, 3.0, -1.0, 1.0), 5, ["0"]),
    # Rows follow the region order, "-2" before "-1", not the label strings.
    (Symbol((1.0, 1.0, 0.2), 0, 2), (-2.3, 3.7, -3.0, 3.0), 9, ["-2", "-1", "0", "boundary"]),
]


@pytest.mark.parametrize("s, rect, resolution, labels", REGION_CASES)
def test_region_map_csv_bytes_match_csv_writer(s, rect, resolution, labels, tmp_path):
    """The hand-joined grid and the summary are the bytes csv.writer writes
    for (repr(re), repr(im), label) rows built node by node."""
    run_region_map(s, rect, resolution).write(tmp_path, svg=False)
    xs = np.linspace(rect[0], rect[1], resolution)
    ys = np.linspace(rect[2], rect[3], resolution)
    zs = [complex(x, y) for y in ys for x in xs]
    dd, bmask = symbol.region_labels(s, zs)
    rows = [
        (repr(z.real), repr(z.imag), "boundary" if b else int(d))
        for z, d, b in zip(zs, dd.tolist(), bmask.tolist())
    ]
    counts = {}
    for row in rows:
        counts[str(row[2])] = counts.get(str(row[2]), 0) + 1
    assert sorted(counts, key=lambda k: math.inf if k == "boundary" else int(k)) == labels
    summary = [(k, counts[k], counts[k] / len(zs)) for k in labels]
    for name, header, body in [
        ("grid", ("re", "im", "label"), rows),
        ("summary", ("label", "nodes", "fraction"), summary),
    ]:
        with open(tmp_path / f"expected_{name}.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(body)
        expected = (tmp_path / f"expected_{name}.csv").read_bytes()
        assert (tmp_path / f"regions_{name}.csv").read_bytes() == expected


def region_svg_by_rows(labels, boundary, d1, d, title):
    """The region raster drawn row by row, each row's runs found on their
    own: the oracle for ``regions_map.svg``."""
    labels = np.asarray(labels, int)
    ny, nx = labels.shape
    cw = (_svg._W - 2 * _svg._PAD) / nx
    ch = (_svg._H - 2 * _svg._PAD) / ny
    out = _svg._header(title)
    level = np.rint(255 * ((d1 - labels) / d))
    level = np.where(boundary, -1, level.astype(int))
    fills = {
        v: "#cc2222" if v < 0 else f"#{v:02x}{v:02x}{v:02x}"
        for v in np.unique(level).tolist()
    }
    for r in range(ny):
        ypix = _svg._H - _svg._PAD - (r + 1) * ch
        row = level[r]
        edges = [0, *(np.flatnonzero(row[1:] != row[:-1]) + 1).tolist(), nx]
        for c0, c1 in zip(edges[:-1], edges[1:]):
            out.append(
                f'<rect x="{_svg._fmt(_svg._PAD + c0 * cw)}" y="{_svg._fmt(ypix)}" '
                f'width="{_svg._fmt((c1 - c0) * cw)}" height="{_svg._fmt(ch)}" '
                f'fill="{fills[int(row[c0])]}"/>'
            )
    out.append("</svg>")
    return "\n".join(out)


def row_labels(s, zs):
    """One order per row, cycling through -d2..d1, and a boundary last row:
    every row is a single run."""
    res = math.isqrt(len(zs))
    r = np.arange(len(zs)) // res
    return r % (s.d + 1) - s.d2, r == res - 1


def alternating_labels(s, zs):
    """Codes (order + d2, d + 1 for boundary) that step by one, cyclically,
    from each node to the next: every node is a run of its own."""
    res = math.isqrt(len(zs))
    i = np.arange(len(zs))
    code = (i // res + i % res) % (s.d + 2)
    return code - s.d2, code == s.d + 1


QUAD_GRID = (Symbol((0.0, 1.0, 1.0), 2, 0), (-2.5, 3.5, -3.0, 3.0))


@pytest.mark.parametrize(
    "s, rect, resolution, labels_of, rects",
    [(s, rect, res, None, None) for s, rect, res, _ in REGION_CASES]
    + [
        (*QUAD_GRID, 2, None, None),
        (*QUAD_GRID, 7, row_labels, 7),
        (ELLIPSE, (-1.5, 1.5, -1.0, 1.0), 6, row_labels, 6),
        (*QUAD_GRID, 7, alternating_labels, 49),
        (Symbol((1.0, 1.0, 0.2), 0, 2), (-2.3, 3.7, -3.0, 3.0), 5, alternating_labels, 25),
    ],
)
def test_region_map_svg_bytes_match_row_oracle(
    s, rect, resolution, labels_of, rects, tmp_path, monkeypatch
):
    """The SVG drawn from the whole-grid runs is the row-by-row raster,
    byte for byte; ``rects`` is the run count a made-up label grid gives."""
    if labels_of is not None:
        monkeypatch.setattr(harness, "region_labels", labels_of)
    run_region_map(s, rect, resolution).write(tmp_path)
    xs = np.linspace(rect[0], rect[1], resolution)
    ys = np.linspace(rect[2], rect[3], resolution)
    dd, bmask = harness.region_labels(s, (xs[None, :] + 1j * ys[:, None]).ravel())
    grid = (resolution, resolution)
    title = f"region orders d1={s.d1} d2={s.d2}"
    want = region_svg_by_rows(dd.reshape(grid), bmask.reshape(grid), s.d1, s.d, title)
    got = (tmp_path / "regions_map.svg").read_bytes()
    assert got == (want + "\n").encode()
    if rects is not None:
        assert got.count(b'<rect x="') == rects


@pytest.mark.parametrize(
    "s, rect, degenerate",
    [
        # d1 = 0: at z = a_0 = 0.2 the polynomial degree collapses.
        (Symbol((1.0, 1.0, 0.2), 0, 2), (-0.3, 2.7, -2.0, 2.0), "boundary"),
        # d1 = 0, d2 = 1: z = a_0 = 0.5 is the centre of the circle a(S^1),
        # far off the band, yet still degenerate.
        (Symbol((1.0, 0.5), 0, 1), (-1.0, 2.0, -1.5, 1.5), "boundary"),
        # d2 = 0: z = a_0 = 0.5 gives the zero root of lam^2 + 2 lam.
        (Symbol((0.5, 2.0, 1.0), 2, 0), (-1.0, 4.0, -2.5, 2.5), "1"),
        # lam^3: z = a_0 = 0 gives a triple zero root, all inside the circle.
        (Symbol((0.0, 0.0, 0.0, 1.0), 3, 0), (-1.5, 1.5, -1.5, 1.5), "3"),
    ],
    ids=["degree_collapse", "degree_collapse_centre", "zero_root", "triple_zero_root"],
)
def test_region_map_bytes_match_root_labels(s, rect, degenerate, tmp_path, monkeypatch):
    """Winding-number labels off the band write the same grid, summary and
    SVG bytes as root labels at every node, here with the node z = a_0
    on the grid."""
    got = run_region_map(s, rect, 61).write(tmp_path / "got")
    monkeypatch.setattr(
        harness,
        "region_labels",
        lambda s, zs: symbol._root_labels(s, np.asarray(zs, complex).ravel()),
    )
    want = run_region_map(s, rect, 61).write(tmp_path / "want")
    assert [p.name for p in got] == [p.name for p in want]
    for g, w in zip(got, want):
        assert g.read_bytes() == w.read_bytes(), g.name
    node = f"\n{s.coeff(0).real!r},0.0,{degenerate}\r\n".encode()
    assert node in (tmp_path / "got" / "regions_grid.csv").read_bytes()


def test_run_region_map_validation(quad):
    with pytest.raises(ConfigError):
        run_region_map(quad, (1.0, 0.0, 0.0, 1.0), 9)
    with pytest.raises(ConfigError):
        run_region_map(quad, (0.0, 1.0, 0.0, 1.0), 1)
    with pytest.raises(ConfigError, match="resolution must be an integer, got 2.5"):
        run_region_map(quad, (0.0, 1.0, 0.0, 1.0), 2.5)
    art = run_region_map(quad, (0.0, 1.0, 0.0, 1.0), np.int64(3))
    assert art.config_hash == run_region_map(quad, (0.0, 1.0, 0.0, 1.0), 3).config_hash
    assert art.config_hash == run_region_map(quad, np.array([0, 1, 0, 1]), 3).config_hash


def test_run_logpot_summary(quad):
    cfg = tiny_config(quad, sizes=(20, 40), trials=3)
    art = run_logpot(cfg)
    assert len(art.records) == 2 * 3 * 2  # sizes x trials x z values
    by_key = {(row["z_re"], row["n"]): row for row in art.summary}
    assert by_key[(3.0, 40)]["limit"] == pytest.approx(math.log(3.0))
    for row in art.summary:
        assert row["valid_trials"] == 3
        assert row["abs_gap"] is not None and row["abs_gap"] < 1.0


def test_run_logpot_echoes_the_z_list_it_used(quad):
    cfg = tiny_config(quad, sizes=(8,), trials=1)
    default = run_logpot(cfg)
    assert default.inputs == harness._logpot_inputs(cfg)
    assert default.inputs["z_grid"] == cfg.z_grid.to_json()
    assert default.config_hash == harness._hash(harness._logpot_inputs(cfg))
    chosen = run_logpot(tiny_config(quad, sizes=(8,), trials=1, z_grid=ZGrid(points=(3.0,))))
    assert chosen.inputs["z_grid"] == {"points": [[3.0, 0.0]]}
    assert chosen.config_hash != default.config_hash


def test_run_logpot_rejects_boundary_z(quad):
    cfg = tiny_config(quad, z_grid=ZGrid(points=(2.0 + 0j,)))
    with pytest.raises(ConfigError):
        run_logpot(cfg)
    with pytest.raises(ConfigError):
        run_logpot(tiny_config(quad, z_grid=ZGrid(rect=(0, 1, 0, 1), resolution=3)))


def test_run_logpot_corner_noise_is_one_band_call_per_size(quad, monkeypatch):
    # Each size factors every (trial, z) in one batched band call and builds
    # no dense matrix; the values are the dense LU's.
    cfg = tiny_config(
        quad, sizes=(6, 15), trials=2, noise=NoiseModel("corner_delta", gamma_star=3.0),
        z_grid=ZGrid(points=(3.0 + 0j, 1.0 + 0j, -0.1 + 0j)),
    )
    bands, dense = [], []
    spy(monkeypatch, bands, "band_logdet", harness)
    spy(monkeypatch, dense, "build_z", harness)
    art = run_logpot(cfg)
    monkeypatch.undo()
    assert [ab.shape[:2] for ab in bands] == [(6, 6), (6, 15)]
    assert dense == []
    root = seed_sequence(cfg.seed)
    for rec in art.records:
        n, z = rec["n"], complex(*rec["z"])
        pert = perturbation(quad, cfg.noise, cfg.gamma, n, seed_sequence(root, DOMAIN_LOGPOT, n, rec["trial"]))
        want = np.linalg.slogdet(harness.build_z(quad, z, n) + pert)[1] / n
        assert not rec["singular"]
        assert rec["log_pot"] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("points", [(3.0 + 0j, 1.0 + 0j, -0.1 + 0j), (-0.1 + 0j,)])
def test_run_logpot_corner_trial_does_not_depend_on_the_batch(quad, points):
    # A trial's records are the same bytes whether its size's band call
    # holds one trial or four, and for one z as well as three.
    corner = NoiseModel("corner_delta", gamma_star=3.0)
    arts = [
        run_logpot(tiny_config(quad, sizes=(7, 40), trials=trials, noise=corner,
                               z_grid=ZGrid(points=points)))
        for trials in (1, 4)
    ]
    first = [[harness._dumps(r) for r in art.records if r["trial"] == 0] for art in arts]
    assert len(first[0]) == 2 * len(points) and first[0] == first[1]


def test_run_logpot_entrywise_noise_stays_dense(quad, monkeypatch):
    calls = []
    spy(monkeypatch, calls, "band_logdet", harness)
    run_logpot(tiny_config(quad, sizes=(8,), trials=1))
    assert calls == []


def test_run_logpot_corner_noise_at_ten_thousand(quad):
    # Capability: a dense T_N(z) + Delta at N = 10^4 would take 1.6 GB.  The
    # median sits k gamma* ln(N)/N below the limit, k the region order.
    n, gamma_star = 10_000, 3.0
    cfg = tiny_config(
        quad, sizes=(n,), trials=1, noise=NoiseModel("corner_delta", gamma_star=gamma_star),
        z_grid=ZGrid(points=(3.0 + 0j, -0.1 + 0j)),
    )
    art = run_logpot(cfg)
    for row, k in zip(art.summary, (0, 2)):
        biased = row["limit"] - k * gamma_star * math.log(n) / n
        assert row["valid_trials"] == 1
        assert abs(row["median_log_pot"] - biased) < 0.05, row


def test_run_replacement_identical_models(quad):
    cfg = tiny_config(quad, seed=0)
    art = run_replacement(cfg, 1.0, 20, cfg.noise)
    row = art.summary[0]
    assert row["ks_distance"] == 0.0
    assert row["bounds_ok"]
    assert row["max_bound_ratio"] == 0.0
    for rec in art.records:
        assert rec["hs_diff"] == 0.0


def test_run_replacement_two_ensembles(quad):
    art = run_replacement(tiny_config(quad, seed=1), 1.0, 24, NoiseModel("rademacher"))
    assert art.inputs["noise_b"] == {"kind": "rademacher"}
    assert art.inputs["n"] == 24 and art.inputs["z"] == [1.0, 0.0]
    row = art.summary[0]
    assert row["bounds_ok"]  # deterministic resolvent inequality
    assert 0.0 <= row["ks_distance"] <= 1.0
    header, *rows = csv.reader(io.StringIO(art.tables["singval_hist"]))
    assert header == ["bin_left", "bin_right", "count_a", "count_b"]
    assert len(rows) == 50
    assert sum(int(r[2]) for r in rows) == 2 * 24


def test_run_replacement_scales_by_config_gamma(quad):
    model_b = NoiseModel("rademacher")
    low = run_replacement(tiny_config(quad, gamma=0.75), 1.0, 16, model_b)
    high = run_replacement(tiny_config(quad, gamma=2.0), 1.0, 16, model_b)
    # At N^{-2} the perturbation is 16^{1.25} times smaller than at N^{-3/4}.
    ratio = high.records[0]["hs_diff"] / low.records[0]["hs_diff"]
    assert ratio == pytest.approx(16.0 ** (0.75 - 2.0), rel=1e-9)


# A matrix is real exactly when the symbol, z and the noise are.  The
# all-complex route widens every builder and draw the runners call to
# complex128, so LAPACK takes its complex routines throughout.
DTYPE_SYMBOLS = {
    "real": Symbol((0.0, 1.0, 1.0), 2, 0),
    "complex": Symbol((0.2j, 1.0, 1.0 - 0.3j), 2, 0),
}
DTYPE_ZS = {"real": 3.0 + 0j, "complex": 3.0 + 0.5j}


def all_complex(monkeypatch):
    for name in ("build", "build_z", "perturbation"):
        real_route = getattr(harness, name)
        monkeypatch.setattr(
            harness, name, lambda *args, f=real_route: f(*args).astype(np.complex128)
        )


def assert_close_records(got, want, keys):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for key in keys:
            assert g[key] == pytest.approx(w[key], rel=1e-10, abs=0.0), (key, g, w)


@pytest.mark.parametrize("sym", sorted(DTYPE_SYMBOLS))
@pytest.mark.parametrize("kind", ["rademacher", "gaussian_complex"])
def test_run_esd_real_and_complex_routes_agree(sym, kind, monkeypatch):
    cfg = tiny_config(DTYPE_SYMBOLS[sym], sizes=(8, 16), noise=NoiseModel(kind))
    got = run_esd(cfg)
    if sym == "real" and kind == "rademacher":
        # A real matrix's spectrum is closed under conjugation exactly.
        for rec in got.records:
            eig = np.array([complex(re, im) for re, im in rec["eigenvalues"]])
            assert np.array_equal(np.sort(eig), np.sort(eig.conj()))
    all_complex(monkeypatch)
    want = run_esd(cfg)
    assert_close_records(got.records, want.records, ["energy_distance"])
    assert_close_records(got.summary, want.summary, ["median_energy_distance"])


@pytest.mark.parametrize("sym", sorted(DTYPE_SYMBOLS))
@pytest.mark.parametrize("kind", ["rademacher", "gaussian_complex"])
@pytest.mark.parametrize("zkind", sorted(DTYPE_ZS))
def test_run_logpot_real_and_complex_routes_agree(sym, kind, zkind, monkeypatch):
    cfg = tiny_config(
        DTYPE_SYMBOLS[sym], sizes=(8, 16), noise=NoiseModel(kind),
        z_grid=ZGrid(points=(DTYPE_ZS[zkind],)),
    )
    got = run_logpot(cfg)
    all_complex(monkeypatch)
    want = run_logpot(cfg)
    assert_close_records(got.records, want.records, ["log_pot"])


@pytest.mark.parametrize("sym", sorted(DTYPE_SYMBOLS))
@pytest.mark.parametrize("kind", ["rademacher", "gaussian_complex"])
@pytest.mark.parametrize("zkind", sorted(DTYPE_ZS))
def test_run_replacement_real_and_complex_routes_agree(sym, kind, zkind, monkeypatch):
    # The second ensemble is the other kind, so each run pairs a real draw
    # with a complex one.
    other = NoiseModel("gaussian_complex" if kind == "rademacher" else "rademacher")
    cfg = tiny_config(DTYPE_SYMBOLS[sym], noise=NoiseModel(kind), trials=3)
    got = run_replacement(cfg, DTYPE_ZS[zkind], 24, other)
    all_complex(monkeypatch)
    want = run_replacement(cfg, DTYPE_ZS[zkind], 24, other)
    keys = ["hs_diff", "max_stieltjes_diff", "max_bound_ratio", "smin_a", "smin_b"]
    assert_close_records(got.records, want.records, keys)
    assert_close_records(got.summary, want.summary, ["ks_distance"])


def test_run_expansion_records_and_inputs(quad):
    art = run_expansion(quad, 3.0, [6, 8], 2, 3.0, 5)
    assert [(r["n"], r["draw"]) for r in art.records] == [(6, 0), (6, 1), (8, 0), (8, 1)]
    assert [row["n"] for row in art.summary] == [6, 8]
    assert all(row["region_order"] == 0 for row in art.summary)
    assert art.seed == 5
    assert art.inputs["gamma_star"] == 3.0 and art.inputs["z"] == [3.0, 0.0]
    assert run_expansion(quad, 3.0, [6, 8], 2, 3.0, 6).config_hash != art.config_hash


def test_run_expansion_integer_inputs_are_not_truncated(quad):
    with pytest.raises(ConfigError, match="sizes entry must be an integer, got 10.9"):
        run_expansion(quad, 3.0, [10.9], 2, 3.0, 0)
    with pytest.raises(ConfigError, match="draws must be an integer, got 2.5"):
        run_expansion(quad, 3.0, [10], 2.5, 3.0, 0)
    art = run_expansion(quad, 3.0, [np.int64(6)], np.int64(2), 3.0, 0)
    assert art.inputs == run_expansion(quad, 3.0, [6], 2, 3.0, 0).inputs


# A field or runner argument of the wrong form, given to the library directly.
FORM_ERRORS = {
    "config-gamma-text": lambda q: ExperimentConfig(q, gamma="0.75"),
    "zgrid-resolution-bool": lambda q: ZGrid(rect=(0.0, 1.0, 0.0, 1.0), resolution=True),
    "zgrid-rect-3-entries": lambda q: ZGrid(rect=(0.0, 1.0, 0.0), resolution=3),
    "zgrid-point-text": lambda q: ZGrid(points=("x",)),
    "logpot-z-text": lambda q: run_logpot(tiny_config(q, z_grid=ZGrid(points=("3",)))),
    "noise-p-text": lambda q: NoiseModel("sparse_bernoulli_gaussian", p="0.2"),
    "regions-rect-text": lambda q: run_region_map(q, ("a", 1.0, 0.0, 1.0), 3),
    "regions-rect-scalar": lambda q: run_region_map(q, 1.0, 3),
    "replace-n-fraction": lambda q: run_replacement(
        tiny_config(q), 1.0, 2.5, NoiseModel("rademacher")
    ),
    "replace-z-text": lambda q: run_replacement(tiny_config(q), "1", 16, NoiseModel("rademacher")),
    "replace-z-bool": lambda q: run_replacement(tiny_config(q), True, 16, NoiseModel("rademacher")),
    "replace-z-nan": lambda q: run_replacement(
        tiny_config(q), complex(math.nan, 0), 16, NoiseModel("rademacher")
    ),
    "config-gamma-inf": lambda q: ExperimentConfig(q, gamma=math.inf),
    "zgrid-point-nan": lambda q: ZGrid(points=(complex(0, math.nan),)),
    "regions-rect-inf": lambda q: run_region_map(q, (-math.inf, 1.0, 0.0, 1.0), 3),
    "expand-gamma-star-inf": lambda q: run_expansion(q, 3.0, [6], 2, math.inf, 0),
    "noise-gamma-star-nan": lambda q: NoiseModel("corner_delta", gamma_star=math.nan),
    "expand-gamma-star-text": lambda q: run_expansion(q, 3.0, [6], 2, "4", 0),
    "symbol-coeff-count": lambda q: Symbol((0, 1), 2, 0),
    "symbol-coeff-text": lambda q: Symbol(("0.5", 1), 1, 0),
    "symbol-coeff-none": lambda q: Symbol((None, 1), 1, 0),
    "symbol-coeff-bool": lambda q: Symbol((True, 1), 1, 0),
    "symbol-coeff-inf": lambda q: Symbol((math.inf, 1), 1, 0),
    "symbol-json-d1-fraction": lambda q: Symbol.from_json(
        {"d1": 2.5, "d2": 0, "coeffs": [[0, 0], [1, 0], [1, 0]]}
    ),
}


@pytest.mark.parametrize("case", list(FORM_ERRORS))
def test_form_errors_are_config_errors(quad, case):
    with pytest.raises(ConfigError):
        FORM_ERRORS[case](quad)


# QUAD in each of its three regions, and a d1 = d2 = 1 symbol 0.5/lam + 2 lam
# inside and outside its ellipse.
EXPANSION_CASES = [
    ((0.0, 1.0, 1.0), 2, 0, 3.0),
    ((0.0, 1.0, 1.0), 2, 0, 1.0),
    ((0.0, 1.0, 1.0), 2, 0, -0.1),
    ((0.5, 0.0, 2.0), 1, 1, 0.3 + 0.2j),
    ((0.5, 0.0, 2.0), 1, 1, 4.0),
]


@pytest.mark.parametrize("coeffs, d1, d2, z", EXPANSION_CASES)
def test_run_expansion_records_equal_dominance_report_per_draw(coeffs, d1, d2, z):
    # The run shares roots and T_N(z) minors across draws; each record must
    # still be exactly what the public per-draw report gives.
    s = Symbol(coeffs, d1, d2)
    sizes, draws, gamma_star, seed = [5, 8, 11], 3, s.d + 1.0, 17
    want = []
    for n in sizes:
        for t in range(draws):
            delta = corner_delta(s, n, gamma_star, seed_sequence(seed, DOMAIN_CORNER, n, t))
            rep = dominance_report(s, z, delta)
            want.append(
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
    assert run_expansion(s, z, sizes, draws, gamma_star, seed).records == want


def spy(monkeypatch, calls, name, *modules):
    """Record the first argument of every call to ``name`` in ``modules``."""
    real = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)


@pytest.mark.parametrize("sizes, draws", [([6], 1), ([6, 9, 12], 1), ([6, 9, 12], 7)])
def test_run_expansion_solves_roots_at_most_twice(quad, monkeypatch, sizes, draws):
    # Once in the input step's boundary check, once for the run's scale.
    calls = []
    spy(monkeypatch, calls, "root_profile", symbol, expansion)
    run_expansion(quad, -0.1, sizes, draws, 3.0, 5)
    assert 1 <= len(calls) <= 2


def test_run_expansion_factors_each_minor_once_per_size(quad, monkeypatch):
    # QUAD's corner support has rows {n-2, n-1} and columns {0, 1}: P_0 is
    # one order-n det, P_1's table 2 x 2 order-(n-1) minors and P_2's table
    # one order-(n-2) minor.  Those are the only lu_det calls, whatever the
    # number of draws: each draw's k x k corner determinants go to one
    # stacked np.linalg.det call per k.
    for draws in (1, 6):
        calls = []
        spy(monkeypatch, calls, "lu_det", expansion)
        run_expansion(quad, 1.0, [6, 10], draws, 3.0, 5)
        monkeypatch.undo()
        seen = [len(m) for m in calls]
        assert sorted(seen) == sorted(n - k for n in (6, 10) for k in (0, 1, 1, 1, 1, 2)), draws


def test_run_expansion_settles_the_corner_support_once_per_size(quad, monkeypatch):
    # The input step builds each size's support for its minor tables and the
    # draws build it once more, whatever the number of draws; the corner
    # check runs at the smallest size in the input step, then once per size.
    for draws in (1, 6):
        support, checks = [], []
        spy(monkeypatch, support, "corner_support", noise, harness)
        spy(monkeypatch, checks, "_check_corner", noise, harness)
        run_expansion(quad, 1.0, [10, 6], draws, 3.0, 5)
        monkeypatch.undo()
        assert support == [10, 6, 10, 6], draws
        assert len(checks) == 3, draws


def test_run_expansion_first_draw_does_not_depend_on_the_batch(quad):
    # Draw 0's record is the same bytes whether its size's det calls hold
    # one draw or seven.
    arts = [run_expansion(quad, -0.1, [6, 11], draws, 3.0, 4) for draws in (1, 7)]
    first = [[harness._dumps(r) for r in art.records if r["draw"] == 0] for art in arts]
    assert len(first[0]) == 2 and first[0] == first[1]


def test_run_expansion_builds_no_dense_perturbation(quad, monkeypatch):
    calls = []
    spy(monkeypatch, calls, "corner_delta", noise, harness)
    run_expansion(quad, 1.0, [6, 10], 3, 3.0, 5)
    assert calls == []


def test_run_expansion_past_double_range_is_a_config_error():
    # |det T_700(3)| = 3^700 for lam + lam^2 exceeds the largest double.
    s = Symbol((0, 1, 1), 2, 0)
    with pytest.raises(ConfigError, match="N = 700 leaves double range"):
        run_expansion(s, 3, [700], 1, 3.0, 0)


@pytest.mark.parametrize(
    "sizes, draws", [([6, 8], 0), ([6, 8], -1), ([], 2), ([6, 0], 2), ([-3], 2)]
)
def test_run_expansion_rejects_empty_work(quad, sizes, draws):
    with pytest.raises(ConfigError):
        run_expansion(quad, 3.0, sizes, draws, 3.0, 5)


# ---------------------------------------------------------------------------
# Artifact output


def check_csv(path, expect_rows=None):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows, f"empty csv {path}"
    if expect_rows is not None:
        assert len(rows) - 1 == expect_rows
    return rows


def test_artifact_write_jsonl(quad, tmp_path):
    cfg = tiny_config(quad)
    art = run_esd(cfg)
    paths = art.write(tmp_path, fmt="jsonl")
    names = {p.name for p in paths}
    assert {"esd_meta.json", "esd.jsonl", "esd_summary.csv", "esd_spectrum.svg"} <= names
    meta = json.loads((tmp_path / "esd_meta.json").read_text())
    assert meta["config_hash"] == art.config_hash
    assert meta["seed"] == cfg.seed
    assert meta["config"] == harness._esd_inputs(cfg)
    assert meta["versions"] == {
        "toepspec": toepspec.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    with open(tmp_path / "esd.jsonl") as f:
        lines = [json.loads(line) for line in f]
    assert len(lines) == len(art.records)
    check_csv(tmp_path / "esd_summary.csv", expect_rows=2)
    ET.fromstring((tmp_path / "esd_spectrum.svg").read_text())  # well-formed


def test_artifact_write_csv_records(quad, tmp_path):
    art = run_region_map(quad, (-1.0, 1.0, -1.0, 1.0), 5)
    paths = art.write(tmp_path, fmt="csv", svg=False)
    names = {p.name for p in paths}
    assert "regions_grid.csv" in names
    assert not any(n.endswith(".svg") for n in names)
    check_csv(tmp_path / "regions_grid.csv", expect_rows=25)
    meta = json.loads((tmp_path / "regions_meta.json").read_text())
    assert meta["config"] == {
        "symbol": quad.to_json(),
        "rect": [-1.0, 1.0, -1.0, 1.0],
        "resolution": 5,
    }
    assert meta["config_hash"] == art.config_hash != ""
    assert meta["seed"] is None  # the region map draws no random numbers


def test_artifact_write_rejects_bad_format(quad, tmp_path):
    art = run_region_map(quad, (-1.0, 1.0, -1.0, 1.0), 3)
    with pytest.raises(ConfigError):
        art.write(tmp_path, fmt="parquet")
