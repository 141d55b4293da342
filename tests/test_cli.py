"""Command-line surface: exit codes, file outputs, overrides."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from toepspec import NoiseModel, RunArtifact, ZGrid
from toepspec.cli import main
from toepspec.harness import ExperimentConfig

QUAD_JSON = {"coeffs": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]], "d1": 2, "d2": 0}


def write_config(tmp_path, drop=(), **overrides):
    data = {
        "symbol": QUAD_JSON,
        "sizes": [8, 12],
        "gamma": 0.75,
        "noise": {"kind": "gaussian_complex"},
        "trials": 2,
        "z_grid": {"points": [[3.0, 0.0], [1.0, 0.0]]},
        "mu_samples": 200,
        "seed": 7,
    }
    data.update(overrides)
    for name in drop:
        del data[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def dry_run_plan(capsys):
    """(config hash, inputs echo) from a dry run's two stdout lines."""
    plan, echo = capsys.readouterr().out.splitlines()
    assert plan.startswith("plan: ")
    return plan.split("config hash ")[1].split()[0], json.loads(echo)


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def test_spectrum_dry_run(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "results"
    rc = main(["spectrum", "--config", str(cfg), "--out", str(out), "--dry-run"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "spectrum" in text and "hash" in text
    assert not out.exists()


def test_spectrum_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, sizes=[8], trials=1, mu_samples=100)
    out = tmp_path / "results"
    rc = main(["spectrum", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert {"esd_meta.json", "esd.jsonl", "esd_summary.csv", "esd_spectrum.svg"} <= names


def test_spectrum_summary_prints_null_medians(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("forced non-convergence")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    cfg = write_config(tmp_path, sizes=[8], trials=1, mu_samples=100)
    assert main(["spectrum", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == "n=8 median_energy_distance=None converged=0\n"


def test_import_leaves_validate_unloaded():
    code = "import sys, toepspec.cli; print('toepspec.validate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def test_spectrum_hash_ignores_out(tmp_path, capsys):
    cfg = write_config(tmp_path)
    hashes = []
    for out in ("a", "b"):
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / out), "--dry-run"]) == 0
        hashes.append(capsys.readouterr().out.split("config hash ")[1].strip())
    assert hashes[0] == hashes[1] != ""


def test_spectrum_set_override_changes_plan(tmp_path, capsys):
    cfg = write_config(tmp_path)
    main(["spectrum", "--config", str(cfg), "--dry-run"])
    base = capsys.readouterr().out
    main(["spectrum", "--config", str(cfg), "--dry-run", "--set", "seed=8"])
    bumped = capsys.readouterr().out
    assert base != bumped


def test_regions_from_flags(tmp_path):
    out = tmp_path / "maps"
    rc = main(
        [
            "regions",
            "--symbol",
            json.dumps(QUAD_JSON),
            "--rect=-2.5,3.5,-3,3",
            "--resolution",
            "9",
            "--out",
            str(out),
            "--no-svg",
        ]
    )
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert "regions_grid.csv" in names
    assert not any(n.endswith(".svg") for n in names)


def test_logpot_with_z_overrides(tmp_path):
    cfg = write_config(tmp_path, sizes=[10, 20], trials=2)
    out = tmp_path / "lp"
    rc = main(
        ["logpot", "--config", str(cfg), "--z", "3,0", "--z=-0.1,0", "--out", str(out)]
    )
    assert rc == 0
    assert (out / "logpot_summary.csv").exists()


def test_logpot_boundary_z_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["logpot", "--config", str(cfg), "--z", "2,0"])
    assert rc == 2
    assert "boundary" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, z",
    [({"z_grid": {"rect": [-1, 1, -1, 1], "resolution": 3}}, []), ({}, ["--z", "2"])],
    ids=["rect-grid-without-z", "z-on-curve"],
)
def test_logpot_dry_run_validates_like_the_run(tmp_path, capsys, overrides, z):
    cfg = write_config(tmp_path, **overrides)
    argv = ["logpot", "--config", str(cfg), *z]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert main(argv + ["--dry-run"]) == 2
    assert capsys.readouterr().err == err


def test_logpot_dry_run_counts_z_values(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["logpot", "--config", str(cfg), "--dry-run"]) == 0
    assert len(dry_run_plan(capsys)[1]["z_grid"]["points"]) == 2
    assert main(["logpot", "--config", str(cfg), "--z", "3", "--dry-run"]) == 0
    assert len(dry_run_plan(capsys)[1]["z_grid"]["points"]) == 1


def test_replace_runs(tmp_path):
    cfg = write_config(tmp_path, sizes=[16])
    out = tmp_path / "rep"
    rc = main(
        [
            "replace",
            "--config",
            str(cfg),
            "--z",
            "1,0",
            "--n",
            "16",
            "--noise-b",
            json.dumps({"kind": "rademacher"}),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert (out / "replace_summary.csv").exists()


def test_replace_reports_bound_violation(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)

    def fake(*args, **kwargs):
        art = RunArtifact("replace", {})
        art.summary = [
            {"bounds_ok": False, "ks_distance": 0.5, "max_bound_ratio": 2.0}
        ]
        return art

    monkeypatch.setattr("toepspec.cli.run_replacement", fake)
    rc = main(["replace", "--config", str(cfg), "--z", "1,0"])
    assert rc == 1


def test_expand_writes_summary(tmp_path):
    out = tmp_path / "exp"
    rc = main(
        [
            "expand",
            "--symbol",
            json.dumps(QUAD_JSON),
            "--z",
            "3,0",
            "--sizes",
            "6,8",
            "--draws",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert (out / "expand_summary.csv").exists()


@pytest.mark.parametrize("n", ["0", "-4"])
@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
def test_replace_rejects_nonpositive_n(tmp_path, capsys, n, dry_run):
    # --n 0 used to fall back to the largest config size.
    cfg = write_config(tmp_path, sizes=[16])
    out = tmp_path / "rep"
    argv = ["replace", "--config", str(cfg), "--z", "1,0", "--n", n, "--out", str(out)]
    assert main(argv + dry_run) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags", [["--draws", "0"], ["--sizes", "6,0"]], ids=["draws-0", "size-0"]
)
@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
def test_expand_rejects_empty_work(tmp_path, capsys, flags, dry_run):
    out = tmp_path / "exp"
    argv = ["expand", "--symbol", json.dumps(QUAD_JSON), "--z", "3,0", "--sizes", "6,8"]
    assert main(argv + flags + ["--out", str(out), *dry_run]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_validate_subcommand(monkeypatch, capsys):
    monkeypatch.setattr(
        "toepspec.validate.run_checks", lambda: [("alpha", True, "ok")]
    )
    assert main(["validate"]) == 0
    assert "alpha" in capsys.readouterr().out
    monkeypatch.setattr(
        "toepspec.validate.run_checks",
        lambda: [("alpha", True, "ok"), ("beta", False, "broken")],
    )
    assert main(["validate"]) == 1
    assert "beta" in capsys.readouterr().out


def test_missing_config_file(tmp_path, capsys):
    rc = main(["spectrum", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert capsys.readouterr().err != ""


def test_inline_config_bad_json(capsys):
    rc = main(["spectrum", "--config", "{not json"])
    assert rc == 2


def test_unknown_config_field(tmp_path, capsys):
    cfg = write_config(tmp_path, typo_field=1)
    rc = main(["spectrum", "--config", str(cfg), "--dry-run"])
    assert rc == 2
    assert "typo_field" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["trials=2.7", "trials=true", "seed=3.5", "sizes=[8.5]"])
def test_set_with_a_non_integer_is_config_error(tmp_path, capsys, override):
    cfg = write_config(tmp_path)
    assert main(["spectrum", "--config", str(cfg), "--set", override, "--dry-run"]) == 2
    assert "must be an integer" in capsys.readouterr().err


def run_replace(cfg, out, *extra):
    argv = ["replace", "--config", str(cfg), "--z", "1,0", "--n", "40", "--out", str(out)]
    return main(argv + list(extra))


def test_replace_records_follow_config_gamma(tmp_path):
    records = []
    for gamma in (0.75, 2.0):
        cfg = write_config(tmp_path, sizes=[40], trials=1, gamma=gamma)
        assert run_replace(cfg, tmp_path / str(gamma), "--noise-b", '{"kind": "rademacher"}') == 0
        records.append((tmp_path / str(gamma) / "replace.jsonl").read_bytes())
    assert records[0] != records[1]


@pytest.mark.parametrize(
    "config_noise, extra",
    [
        ({"kind": "gaussian_complex", "gamma": 0.75}, []),
        ({"kind": "gaussian_complex"}, ["--noise-b", '{"kind": "rademacher", "gamma": 0.75}']),
        ({"kind": "gaussian_complex"}, ["--set", "noise.gamma=0.1"]),
    ],
    ids=["config", "noise-b", "set"],
)
def test_noise_gamma_is_rejected(tmp_path, capsys, config_noise, extra):
    cfg = write_config(tmp_path, sizes=[16], noise=config_noise)
    assert run_replace(cfg, tmp_path / "rep", *extra) == 2
    assert "gamma" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_replace_and_expand_meta_echo_inputs(tmp_path):
    cfg = write_config(tmp_path, sizes=[16], trials=1)
    assert run_replace(cfg, tmp_path / "rep") == 0
    meta = json.loads((tmp_path / "rep" / "replace_meta.json").read_text())
    assert meta["config_hash"] != ""
    assert meta["config"]["gamma"] == 0.75 and meta["config"]["n"] == 40
    assert meta["config"]["noise_b"] == {"kind": "gaussian_complex"}
    rc = main(
        ["expand", "--symbol", json.dumps(QUAD_JSON), "--z", "3,0", "--sizes", "6",
         "--draws", "2", "--seed", "4", "--out", str(tmp_path / "exp")]
    )
    assert rc == 0
    meta = json.loads((tmp_path / "exp" / "expand_meta.json").read_text())
    assert meta["config_hash"] != "" and meta["seed"] == 4
    assert meta["config"] == {
        "symbol": QUAD_JSON, "z": [3.0, 0.0], "sizes": [6], "draws": 2,
        "gamma_star": 3.0, "seed": 4,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["regions", "--symbol", json.dumps(QUAD_JSON), "--rect=-1,1,-1,1", "--resolution", "3"],
        ["expand", "--symbol", json.dumps(QUAD_JSON), "--z", "3,0", "--sizes", "6", "--draws", "1"],
    ],
    ids=["regions", "expand"],
)
def test_set_without_config_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--set", "x=1", "--out", str(out)]) == 2
    assert "--set" in capsys.readouterr().err
    assert not out.exists()


def test_regions_rejects_config_with_grid_flags(tmp_path, capsys):
    cfg = write_config(tmp_path, z_grid={"rect": [-1, 1, -1, 1], "resolution": 3})
    out = tmp_path / "out"
    assert main(["regions", "--config", str(cfg), "--out", str(out)]) == 0
    for flag in (["--symbol", json.dumps(QUAD_JSON)], ["--rect=-2,2,-2,2"], ["--resolution", "5"]):
        assert main(["regions", "--config", str(cfg), *flag]) == 2
        assert "not both" in capsys.readouterr().err


def test_regions_rejects_seed(tmp_path, capsys):
    # The region map draws no random numbers, so a seed would be ignored.
    cfg = write_config(tmp_path, z_grid={"rect": [-1, 1, -1, 1], "resolution": 3})
    out = tmp_path / "out"
    for source in (
        ["--config", str(cfg)],
        ["--symbol", json.dumps(QUAD_JSON), "--rect=-1,1,-1,1", "--resolution", "3"],
    ):
        assert main(["regions", *source, "--seed", "3", "--out", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()


REGION_GRID = {"rect": [-1, 1, -1, 1], "resolution": 3}
REGION_FLAGS = ["--symbol", json.dumps(QUAD_JSON), "--rect=-1,1,-1,1", "--resolution", "3"]


def test_regions_config_reads_only_symbol_and_grid(tmp_path, capsys):
    # The map uses symbol, z_grid and outputs; a config that carries only
    # those, or other fields no region map reads, must not fail on them.
    minimal = json.dumps({"symbol": QUAD_JSON, "z_grid": REGION_GRID})
    assert main(["regions", "--config", minimal, "--dry-run"]) == 0
    plan_hash, echo = dry_run_plan(capsys)
    assert main(["regions", *REGION_FLAGS, "--dry-run"]) == 0
    assert dry_run_plan(capsys) == (plan_hash, echo)
    corner = {"kind": "corner_delta", "gamma_star": 3.0}
    cfg = str(write_config(tmp_path, sizes=[1], noise=corner, z_grid=REGION_GRID))
    out = tmp_path / "out"
    assert main(["regions", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "regions_meta.json").read_text())
    assert meta["config_hash"] == plan_hash


def test_regions_config_applies_set_and_rejects_unknown_fields(tmp_path, capsys):
    cfg = str(write_config(tmp_path, z_grid=REGION_GRID))
    assert main(["regions", "--config", cfg, "--set", "z_grid.resolution=4", "--dry-run"]) == 0
    plan_hash, _ = dry_run_plan(capsys)
    flags = [*REGION_FLAGS[:-1], "4", "--dry-run"]
    assert main(["regions", *flags]) == 0
    assert dry_run_plan(capsys)[0] == plan_hash
    assert main(["regions", "--config", cfg, "--set", "colour=red", "--dry-run"]) == 2
    assert "unknown config fields" in capsys.readouterr().err
    no_symbol = json.dumps({"z_grid": REGION_GRID})
    assert main(["regions", "--config", no_symbol, "--dry-run"]) == 2
    assert "symbol" in capsys.readouterr().err


CORNER_NOISE = {"kind": "corner_delta", "gamma_star": 1.0}
# lam^{-1} + 1/2: d1 = 0, so at z = a_0 = 0.5 the characteristic degree collapses.
COLLAPSE_JSON = {"d1": 0, "d2": 1, "coeffs": [[1.0, 0.0], [0.5, 0.0]]}


def quad_flags(*extra):
    return ["--symbol", json.dumps(QUAD_JSON), *extra]


def config_flag(tmp_path, drop=(), **overrides):
    return ["--config", str(write_config(tmp_path, drop, **overrides))]


def list_file(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    return str(path)


# Inputs that the run rejects, by name: argv builders taking tmp_path.
BAD_INPUTS = {
    "rect-reversed": lambda p: ["regions", *quad_flags("--rect=1,-1,-1,1", "--resolution", "3")],
    "resolution-0": lambda p: ["regions", *quad_flags("--rect=-1,1,-1,1", "--resolution", "0")],
    "resolution-1": lambda p: ["regions", *quad_flags("--rect=-1,1,-1,1", "--resolution", "1")],
    "expand-gamma-star": lambda p: ["expand", *quad_flags("--z", "3", "--gamma-star", "1")],
    "expand-z-on-curve": lambda p: ["expand", *quad_flags("--z", "2")],
    "expand-degree-collapse": lambda p: ["expand", "--symbol", json.dumps(COLLAPSE_JSON), "--z", "0.5"],
    "logpot-degree-collapse": lambda p: ["logpot", *config_flag(p, symbol=COLLAPSE_JSON), "--z", "0.5"],
    "expand-size-2": lambda p: ["expand", *quad_flags("--z", "3", "--sizes", "2")],
    "spectrum-corner": lambda p: ["spectrum", *config_flag(p, noise=CORNER_NOISE)],
    "logpot-corner": lambda p: ["logpot", *config_flag(p, noise=CORNER_NOISE)],
    "spectrum-corner-size-2": lambda p: [
        "spectrum", *config_flag(p, sizes=[2, 8], noise={**CORNER_NOISE, "gamma_star": 3.0})
    ],
    "replace-corner-noise-b": lambda p: [
        "replace", *config_flag(p), "--z", "1", "--noise-b", json.dumps(CORNER_NOISE)
    ],
    "expand-size-fraction": lambda p: ["expand", *quad_flags("--z", "3", "--sizes", "10.9")],
    # |det T_700(3)| = 3^700 for lam + lam^2 exceeds the largest double.
    "expand-size-past-double-range": lambda p: [
        "expand", *quad_flags("--z", "3", "--sizes", "700", "--draws", "1")
    ],
    "config-not-object": lambda p: ["spectrum", "--config", list_file(p), "--seed", "3"],
    "spectrum-no-sizes": lambda p: ["spectrum", *config_flag(p, drop=["sizes"])],
    "logpot-no-sizes": lambda p: ["logpot", *config_flag(p, drop=["sizes"])],
    "logpot-no-z-list": lambda p: ["logpot", *config_flag(p, drop=["z_grid"])],
    "replace-no-n-no-sizes": lambda p: ["replace", *config_flag(p, drop=["sizes"]), "--z", "1"],
    "outputs-number": lambda p: ["spectrum", *config_flag(p, outputs=5)],
    "gamma-bool": lambda p: ["spectrum", *config_flag(p, gamma=True)],
    "noise-p-bool": lambda p: [
        "spectrum", *config_flag(p, noise={"kind": "sparse_bernoulli_gaussian", "p": True})
    ],
    "gamma-star-bool": lambda p: [
        "logpot", *config_flag(p, sizes=[8], noise={**CORNER_NOISE, "gamma_star": True})
    ],
    "set-through-list": lambda p: ["spectrum", *config_flag(p), "--set", "sizes.0=5"],
    "noise-unread-p": lambda p: [
        "spectrum", *config_flag(p, noise={"kind": "gaussian_complex", "p": 0.5})
    ],
    "noise-b-unread-gamma-star": lambda p: [
        "replace", *config_flag(p), "--z", "1", "--noise-b", '{"kind": "rademacher", "gamma_star": 3}'
    ],
}

# The error of the cases above that leave a field out or give it the wrong
# type: it names the field, and the runner that needs a missing one.
ERROR_TEXT = {
    "expand-degree-collapse": "(d1 = 0 and z = a_0, where the degree collapses)",
    "logpot-degree-collapse": "(d1 = 0 and z = a_0, where the degree collapses)",
    "expand-size-fraction": "sizes entry must be an integer, got 10.9",
    "config-not-object": "config must be a JSON object",
    "spectrum-no-sizes": "spectrum needs config field(s) ['sizes']",
    "logpot-no-sizes": "logpot needs config field(s) ['sizes']",
    "logpot-no-z-list": "logpot needs a z list or a points z_grid",
    "replace-no-n-no-sizes": "replace needs --n or the config field sizes",
    "outputs-number": "outputs must be a string, got 5",
    "gamma-bool": "gamma must be a number, got True",
    "noise-p-bool": "noise p must be a number, got True",
    "gamma-star-bool": "noise gamma_star must be a number, got True",
    "set-through-list": "override 'sizes.0=5': 'sizes' is not an object",
    "noise-unread-p": "noise kind gaussian_complex does not read p",
    "noise-b-unread-gamma-star": "noise kind rademacher does not read gamma_star",
}

# One good input per run subcommand, small enough to run in a test.
GOOD_INPUTS = {
    "spectrum": lambda p: ["spectrum", *config_flag(p, sizes=[8], trials=1, mu_samples=100)],
    "regions": lambda p: ["regions", *quad_flags("--rect=-2.5,3.5,-3,3", "--resolution", "5")],
    "regions-config": lambda p: ["regions", *config_flag(p, z_grid=REGION_GRID)],
    "logpot": lambda p: ["logpot", *config_flag(p, trials=1), "--z=-0.1"],
    "replace": lambda p: ["replace", *config_flag(p, sizes=[16], trials=1), "--z", "1"],
    "expand": lambda p: ["expand", *quad_flags("--z", "1", "--sizes", "6", "--draws", "2")],
}


def assert_rejected_alike(argv, out, capsys):
    """The run and the dry run both exit 2 with the same stderr and write nothing."""
    errs = []
    for mode in ([], ["--dry-run"]):
        assert main(argv + ["--out", str(out), *mode]) == 2
        errs.append(capsys.readouterr().err)
        assert not out.exists()
    assert errs[0] == errs[1] != ""


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_dry_run_rejects_what_the_run_rejects(tmp_path, capsys, case):
    assert_rejected_alike(BAD_INPUTS[case](tmp_path), tmp_path / "out", capsys)


@pytest.mark.parametrize("case", list(ERROR_TEXT))
def test_rejection_names_the_field(tmp_path, capsys, case):
    assert main(BAD_INPUTS[case](tmp_path) + ["--dry-run"]) == 2
    assert ERROR_TEXT[case] in capsys.readouterr().err


def test_expand_past_double_range_exits_2(tmp_path, capsys):
    # |det T_700(3)| = 3^700 for lam + lam^2 exceeds the largest double.
    out = tmp_path / "out"
    argv = ["expand", *quad_flags("--z", "3", "--sizes", "700", "--draws", "1"), "--out", str(out)]
    assert main(argv) == 2
    assert "N = 700 leaves double range" in capsys.readouterr().err
    assert not out.exists()


# Per run subcommand: its argv after --config, its base z_grid (logpot needs
# points, regions a rect) and the config fields it reads.
POINTS = {"points": [[3.0, 0.0], [1.0, 0.0]]}
HASH_CASES = {
    "spectrum": ([], POINTS, {"symbol", "sizes", "gamma", "noise", "trials", "mu_samples", "seed"}),
    "logpot": ([], POINTS, {"symbol", "sizes", "gamma", "noise", "trials", "seed", "z_grid"}),
    "replace": (["--z", "1", "--n", "16"], POINTS, {"symbol", "gamma", "noise", "trials", "seed"}),
    "regions": ([], REGION_GRID, {"symbol", "z_grid"}),
}
# A second valid value for every config field but z_grid.
FIELD_CHANGES = {
    "symbol": {**QUAD_JSON, "coeffs": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]]},
    "sizes": [8, 16],
    "gamma": 0.8,
    "noise": {"kind": "rademacher"},
    "trials": 3,
    "mu_samples": 300,
    "seed": 8,
    "outputs": "runs/elsewhere",
}


@pytest.mark.parametrize("field", [*FIELD_CHANGES, "z_grid"])
@pytest.mark.parametrize("command", list(HASH_CASES))
def test_hash_changes_with_exactly_the_fields_read(tmp_path, capsys, command, field):
    extra, grid, reads = HASH_CASES[command]
    other_grid = {**grid, "resolution": 4} if "rect" in grid else {"points": [[3.0, 0.0]]}
    changes = {**FIELD_CHANGES, "z_grid": other_grid}
    hashes = []
    for edit in ({}, {field: changes[field]}):
        argv = [command, *config_flag(tmp_path, **{"z_grid": grid, **edit}), *extra]
        assert main(argv + ["--dry-run"]) == 0
        hashes.append(dry_run_plan(capsys)[0])
    assert (hashes[0] != hashes[1]) == (field in reads)


@pytest.mark.parametrize("command", list(GOOD_INPUTS))
def test_dry_run_prints_the_meta_hash_and_echo(tmp_path, capsys, command):
    argv = GOOD_INPUTS[command](tmp_path)
    assert main(argv + ["--dry-run"]) == 0
    plan_hash, echo = dry_run_plan(capsys)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    (meta,) = out.glob("*_meta.json")
    meta = json.loads(meta.read_text())
    assert (plan_hash, echo) == (meta["config_hash"], meta["config"])


def test_regions_resolution_0_reaches_the_resolution_check(tmp_path, capsys):
    # 0 used to read as a missing flag ("regions needs --config or ...").
    assert main(BAD_INPUTS["resolution-0"](tmp_path)) == 2
    assert "resolution >= 2" in capsys.readouterr().err
