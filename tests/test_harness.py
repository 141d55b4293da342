"""Experiment configuration, statistics helpers, runners, artifact output."""

import csv
import json
import math
import platform
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import toepspec
from conftest import random_complex
from toepspec import (
    BOUNDARY,
    ConfigError,
    ExperimentConfig,
    NoiseModel,
    Symbol,
    ZGrid,
    energy_distance,
    interval_mass_check,
    ks_distance,
    perturbation,
    run_esd,
    run_expansion,
    run_logpot,
    run_region_map,
    run_replacement,
    sample,
    thread_count,
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
    assert back.config_hash() == cfg.config_hash()


def test_config_rejects_unknown_fields(quad):
    data = tiny_config(quad).to_json()
    data["typo_field"] = 1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(data)


def test_config_hash_is_canonical(quad):
    cfg = tiny_config(quad)
    h = cfg.config_hash()
    assert len(h) == 16 and all(c in "0123456789abcdef" for c in h)
    assert tiny_config(quad, seed=43).config_hash() != h
    # Canonical form is key-sorted with no whitespace.
    s = cfg.canonical_json()
    assert " " not in s
    assert json.loads(s) == cfg.to_json()


def test_config_hash_ignores_outputs(quad):
    cfg = tiny_config(quad, outputs="runs/a")
    assert cfg.config_hash() == tiny_config(quad, outputs="runs/b").config_hash()
    assert cfg.config_hash() == tiny_config(quad).config_hash()
    assert "outputs" not in cfg.to_json()


def test_thread_count_env(monkeypatch):
    monkeypatch.setenv("TOEPSPEC_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("TOEPSPEC_THREADS", "zero")
    with pytest.raises(ConfigError):
        thread_count()
    monkeypatch.delenv("TOEPSPEC_THREADS")
    assert thread_count() >= 1


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
    d = energy_distance(p, q)
    assert d > 0.0
    assert energy_distance(p + 1j, q + 1j) == pytest.approx(d, rel=1e-12)
    assert energy_distance(q, p) == pytest.approx(d, rel=1e-12)


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
# Interval-mass bracket


def test_interval_mass_bracket_holds(rng):
    # The smoothed bracket is a deterministic inequality for any sample.
    for _ in range(20):
        s = np.abs(rng.standard_normal(int(rng.integers(5, 60))))
        a = float(rng.uniform(-2.0, 0.5))
        b = a + float(rng.uniform(0.3, 2.5))
        rho = float(rng.uniform(0.02, 0.25)) * (b - a)
        tau = float(rng.uniform(0.001, 0.1))
        rec = interval_mass_check(s, a, b, tau, rho)
        assert rec.lower - 1e-12 <= rec.mass <= rec.upper + 1e-12


def test_interval_mass_tightens_as_tau_shrinks():
    s = np.linspace(0.1, 2.0, 50)
    wide = interval_mass_check(s, 0.5, 1.5, tau=0.2, rho=0.2)
    tight = interval_mass_check(s, 0.5, 1.5, tau=0.002, rho=0.2)
    assert (tight.upper - tight.lower) < (wide.upper - wide.lower)
    assert tight.upper - tight.mass < 0.15


def test_interval_mass_validation():
    s = np.ones(3)
    with pytest.raises(ValueError):
        interval_mass_check(s, 0.0, 1.0, tau=-1.0, rho=0.1)
    with pytest.raises(ValueError):
        interval_mass_check(s, 0.0, 0.05, tau=0.1, rho=0.1)
    with pytest.raises(ValueError):
        interval_mass_check(np.array([]), 0.0, 1.0, tau=0.1, rho=0.1)


# ---------------------------------------------------------------------------
# Perturbation dispatch


def test_perturbation_scaling(quad):
    model = NoiseModel("gaussian_complex")
    seed = 99
    pert = perturbation(quad, model, 0.75, 16, seed)
    raw = sample(model, 16, seed)
    assert np.allclose(pert, 16.0 ** (-0.75) * raw)


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
    assert art.config_hash == cfg.config_hash()
    assert len(art.records) == 4  # two sizes x two trials
    for rec in art.records:
        assert rec["converged"]
        assert len(rec["eigenvalues"]) == rec["n"]
        assert rec["energy_distance"] >= 0.0
    assert [row["n"] for row in art.summary] == [8, 12]
    assert "spectrum" in art.svgs
    again = run_esd(cfg)
    assert json.dumps(art.records) == json.dumps(again.records)


def test_run_esd_records_independent_of_pool_size(quad, monkeypatch, tmp_path):
    # At N=200 LAPACK takes its blocked code paths, and with two pool threads
    # two eigensolves run inside OpenBLAS at once.
    cfg = tiny_config(quad, sizes=(200,), trials=4)
    out = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("TOEPSPEC_THREADS", threads)
        run_esd(cfg).write(tmp_path / threads, svg=False)
        out[threads] = (tmp_path / threads / "esd.jsonl").read_bytes()
    assert out["1"] == out["2"]


def test_run_esd_reports_nonconvergence(quad, monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("forced non-convergence")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    art = run_esd(tiny_config(quad))
    art.write(tmp_path)
    with open(tmp_path / "esd.jsonl") as f:
        records = [json.loads(line) for line in f]
    assert records and not any(rec["converged"] for rec in records)
    for rec in records:
        assert len(rec["eigenvalues"]) == rec["n"]
    rows = check_csv(tmp_path / "esd_summary.csv", expect_rows=2)
    frac = rows[0].index("converged_fraction")
    assert all(float(row[frac]) < 1.0 for row in rows[1:])


def test_run_region_map_counts(quad):
    art = run_region_map(quad, (-2.5, 3.5, -3.0, 3.0), 9)
    header, rows = art.tables["grid"]
    assert header == ("re", "im", "label")
    assert len(rows) == 81
    total = sum(row["nodes"] for row in art.summary)
    assert total == 81
    labels = {row["label"] for row in art.summary}
    assert labels <= {"0", "1", "2", "boundary"}
    assert art.svgs["map"].lstrip().startswith("<svg")


def test_run_region_map_validation(quad):
    with pytest.raises(ConfigError):
        run_region_map(quad, (1.0, 0.0, 0.0, 1.0), 9)
    with pytest.raises(ConfigError):
        run_region_map(quad, (0.0, 1.0, 0.0, 1.0), 1)


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
    assert default.inputs == cfg.to_json()
    assert default.config_hash == cfg.config_hash()
    chosen = run_logpot(cfg, [3.0])
    assert chosen.inputs["z_grid"] == {"points": [[3.0, 0.0]]}
    assert chosen.config_hash != default.config_hash


def test_run_logpot_rejects_boundary_z(quad):
    cfg = tiny_config(quad, z_grid=ZGrid(points=(2.0 + 0j,)))
    with pytest.raises(ConfigError):
        run_logpot(cfg)
    with pytest.raises(ConfigError):
        run_logpot(tiny_config(quad, z_grid=ZGrid(rect=(0, 1, 0, 1), resolution=3)))


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
    header, rows = art.tables["singval_hist"]
    assert header == ("bin_left", "bin_right", "count_a", "count_b")
    assert len(rows) == 50
    assert sum(int(r[2]) for r in rows) == 2 * 24


def test_run_replacement_scales_by_config_gamma(quad):
    model_b = NoiseModel("rademacher")
    low = run_replacement(tiny_config(quad, gamma=0.75), 1.0, 16, model_b)
    high = run_replacement(tiny_config(quad, gamma=2.0), 1.0, 16, model_b)
    # At N^{-2} the perturbation is 16^{1.25} times smaller than at N^{-3/4}.
    ratio = high.records[0]["hs_diff"] / low.records[0]["hs_diff"]
    assert ratio == pytest.approx(16.0 ** (0.75 - 2.0), rel=1e-9)


def test_run_expansion_records_and_inputs(quad):
    art = run_expansion(quad, 3.0, [6, 8], 2, 3.0, 5)
    assert [(r["n"], r["draw"]) for r in art.records] == [(6, 0), (6, 1), (8, 0), (8, 1)]
    assert [row["n"] for row in art.summary] == [6, 8]
    assert all(row["region_order"] == 0 for row in art.summary)
    assert art.seed == 5
    assert art.inputs["gamma_star"] == 3.0 and art.inputs["z"] == [3.0, 0.0]
    assert run_expansion(quad, 3.0, [6, 8], 2, 3.0, 6).config_hash != art.config_hash


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
    assert meta["config"] == cfg.to_json()
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
