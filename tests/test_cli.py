"""Command-line surface: exit codes, file outputs, overrides."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from toepspec import NoiseModel, RunArtifact, Symbol, ZGrid
from toepspec import cli
from toepspec.cli import main
from toepspec.harness import ExperimentConfig, _hash, _region_inputs

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


REGION_GRID = {"rect": [-1, 1, -1, 1], "resolution": 3}


def region_config(grid=REGION_GRID, symbol=QUAD_JSON):
    """An inline config holding only what the region map reads."""
    return json.dumps({"symbol": symbol, "z_grid": grid})


def z_points(*points):
    """The --set override that makes ``points`` logpot's z list."""
    return ["--set", "z_grid=" + json.dumps({"points": list(points)})]


def test_no_arguments_is_usage_error(tmp_path, capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["validate"]) == 2
    # Flags that duplicated a config field are gone: each argv below runs
    # without its last flag and is a usage error with it.
    cfg = str(write_config(tmp_path, z_grid=REGION_GRID))
    removed = [
        (["regions", "--config", cfg], ["--symbol", json.dumps(QUAD_JSON)]),
        (["logpot", "--config", cfg, *z_points([3, 0])], ["--z", "3"]),
        (["replace", "--config", cfg, "--z", "1"], ["--n", "16"]),
        (["spectrum", "--config", cfg], ["--seed", "3"]),
        (["expand", *quad_flags("--z", "3", "--sizes", "6", "--draws", "1")], ["--set", "seed=1"]),
    ]
    for argv, flag in removed:
        assert main(argv + ["--dry-run"]) == 0
        capsys.readouterr()
        assert main(argv + flag + ["--dry-run"]) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


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


def test_regions_from_inline_config(tmp_path):
    out = tmp_path / "maps"
    grid = {"rect": [-2.5, 3.5, -3, 3], "resolution": 9}
    rc = main(
        ["regions", "--config", region_config(grid), "--out", str(out), "--no-svg"]
    )
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert "regions_grid.csv" in names
    assert not any(n.endswith(".svg") for n in names)


def test_logpot_with_z_overrides(tmp_path):
    cfg = write_config(tmp_path, sizes=[10, 20], trials=2)
    out = tmp_path / "lp"
    rc = main(
        ["logpot", "--config", str(cfg), *z_points([3, 0], [-0.1, 0]), "--out", str(out)]
    )
    assert rc == 0
    assert (out / "logpot_summary.csv").exists()


def test_logpot_boundary_z_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["logpot", "--config", str(cfg), *z_points([2, 0])])
    assert rc == 2
    assert "boundary" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, z",
    [({"z_grid": {"rect": [-1, 1, -1, 1], "resolution": 3}}, []), ({}, z_points([2, 0]))],
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
    # main parses with one cached parser, so the last call checks that the
    # appended --set list starts empty on every call.
    cfg = write_config(tmp_path)
    argv = ["logpot", "--config", str(cfg), "--dry-run"]
    assert main(argv) == 0
    assert len(dry_run_plan(capsys)[1]["z_grid"]["points"]) == 2
    assert main(argv + [*z_points([3, 0]), "--set", "seed=8"]) == 0
    echo = dry_run_plan(capsys)[1]
    assert (echo["z_grid"]["points"], echo["seed"]) == ([[3.0, 0.0]], 8)
    assert main(argv) == 0
    echo = dry_run_plan(capsys)[1]
    assert (echo["z_grid"]["points"], echo["seed"]) == ([[3.0, 0.0], [1.0, 0.0]], 7)


def test_replace_runs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "rep"
    rc = main(
        [
            "replace",
            "--config",
            str(cfg),
            "--z",
            "1,0",
            "--set",
            "sizes=[16]",
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
    # replace's N is the last entry of sizes, which must be positive.
    cfg = write_config(tmp_path, sizes=[16])
    out = tmp_path / "rep"
    argv = ["replace", "--config", str(cfg), "--z", "1,0", "--set", f"sizes=[{n}]"]
    assert main(argv + ["--out", str(out), *dry_run]) == 2
    assert "sizes must be a nonempty list of positive ints" in capsys.readouterr().err
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
    argv = ["replace", "--config", str(cfg), "--z", "1,0", "--set", "sizes=[40]", "--out", str(out)]
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
    "argv, message",
    [
        (["regions"], "required: --config"),
        (
            ["expand", "--symbol", json.dumps(QUAD_JSON), "--z", "3,0", "--sizes", "6", "--draws", "1"],
            "unrecognized arguments: --set",
        ),
    ],
    ids=["regions", "expand"],
)
def test_set_without_config_is_usage_error(tmp_path, capsys, argv, message):
    # --set overrides a config field: regions cannot run without --config,
    # and expand, which has no config, takes no --set.
    out = tmp_path / "out"
    assert main(argv + ["--set", "x=1", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_regions_config_reads_only_symbol_and_grid(tmp_path, capsys):
    # The map uses symbol, z_grid and outputs; a config that carries only
    # those, or other fields no region map reads, must not fail on them.
    minimal = region_config()
    assert main(["regions", "--config", minimal, "--dry-run"]) == 0
    plan_hash, echo = dry_run_plan(capsys)
    inputs = _region_inputs(Symbol.from_json(QUAD_JSON), REGION_GRID["rect"], 3)
    assert (plan_hash, echo) == (_hash(inputs), inputs)
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
    grid = {**REGION_GRID, "resolution": 4}
    assert main(["regions", "--config", region_config(grid), "--dry-run"]) == 0
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
    "rect-reversed": lambda p: [
        "regions", "--config", region_config({"rect": [1, -1, -1, 1], "resolution": 3})
    ],
    "resolution-0": lambda p: ["regions", "--config", region_config({**REGION_GRID, "resolution": 0})],
    "resolution-1": lambda p: ["regions", "--config", region_config({**REGION_GRID, "resolution": 1})],
    "expand-gamma-star": lambda p: ["expand", *quad_flags("--z", "3", "--gamma-star", "1")],
    "expand-z-on-curve": lambda p: ["expand", *quad_flags("--z", "2")],
    "expand-degree-collapse": lambda p: ["expand", "--symbol", json.dumps(COLLAPSE_JSON), "--z", "0.5"],
    "logpot-degree-collapse": lambda p: [
        "logpot", *config_flag(p, symbol=COLLAPSE_JSON), *z_points([0.5, 0])
    ],
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
    "config-not-object": lambda p: ["spectrum", "--config", list_file(p), "--set", "seed=3"],
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
    # JSON text may spell Infinity and NaN; no field takes them.
    "gamma-inf": lambda p: ["spectrum", *config_flag(p, gamma=float("inf"))],
    "z-nan": lambda p: ["logpot", *config_flag(p), "--set", "z_grid.points=[[NaN, 0]]"],
    "rect-inf": lambda p: [
        "regions", "--config", region_config({**REGION_GRID, "rect": [float("-inf"), 1, -1, 1]})
    ],
    "symbol-coeff-inf": lambda p: [
        "spectrum", *config_flag(p, symbol={**QUAD_JSON, "coeffs": [[0, 0], [1, 0], [1, float("inf")]]})
    ],
    "noise-b-p-nan": lambda p: [
        "replace", *config_flag(p), "--z", "1", "--noise-b",
        '{"kind": "sparse_bernoulli_gaussian", "p": NaN}',
    ],
    "replace-z-nan": lambda p: ["replace", *config_flag(p), "--z", "nan"],
    # A JSON integer may have more digits than any double can hold.
    "gamma-past-double-range": lambda p: ["spectrum", *config_flag(p, gamma=10**400)],
    "symbol-coeff-past-double-range": lambda p: [
        "spectrum", *config_flag(p, symbol={**QUAD_JSON, "coeffs": [[0, 0], [1, 0], [-(10**400), 0]]})
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
    "logpot-no-z-list": "logpot needs config field(s) ['z_grid']",
    "replace-no-n-no-sizes": "replace needs config field(s) ['sizes']",
    "outputs-number": "outputs must be a string, got 5",
    "gamma-bool": "gamma must be a number, got True",
    "noise-p-bool": "noise p must be a number, got True",
    "gamma-star-bool": "noise gamma_star must be a number, got True",
    "set-through-list": "override 'sizes.0=5': 'sizes' is not an object",
    "noise-unread-p": "noise kind gaussian_complex does not read p",
    "noise-b-unread-gamma-star": "noise kind rademacher does not read gamma_star",
    "gamma-inf": "gamma must be finite, got inf",
    "z-nan": "z must be finite, got nan",
    "rect-inf": "rect entry must be finite, got -inf",
    "symbol-coeff-inf": "coeff must be finite, got inf",
    "noise-b-p-nan": "noise p must be finite, got nan",
    "replace-z-nan": "z must be finite, got (nan+0j)",
    "gamma-past-double-range": "gamma is past double range",
    "symbol-coeff-past-double-range": "coeff is past double range",
}

# One good input per run subcommand, small enough to run in a test.
GOOD_INPUTS = {
    "spectrum": lambda p: ["spectrum", *config_flag(p, sizes=[8], trials=1, mu_samples=100)],
    "regions": lambda p: [
        "regions", "--config", region_config({"rect": [-2.5, 3.5, -3, 3], "resolution": 5})
    ],
    "regions-config": lambda p: ["regions", *config_flag(p, z_grid=REGION_GRID)],
    "logpot": lambda p: ["logpot", *config_flag(p, trials=1), *z_points([-0.1, 0])],
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
    "replace": (["--z", "1", "--set", "sizes=[16]"], POINTS, {"symbol", "gamma", "noise", "trials", "seed"}),
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
    # A resolution of 0 must fail the resolution check, not read as missing.
    assert main(BAD_INPUTS["resolution-0"](tmp_path)) == 2
    assert "resolution >= 2" in capsys.readouterr().err


def readme_commands():
    """Every ``toepspec`` command in the README's sh blocks, as an argv
    after the program name: backslash continuations are joined, and a quote
    that opens on one line closes on a later one."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        pending = ""
        for line in block.replace("\\\n", " ").splitlines():
            pending += line + "\n"
            try:
                argv = shlex.split(pending, comments=True)
            except ValueError:  # an open quote
                continue
            pending = ""
            if argv[:1] == ["toepspec"]:
                yield argv[1:]


def test_readme_commands_parse(capsys):
    commands = list(readme_commands())
    assert {argv[0] for argv in commands} == {"spectrum", "regions", "logpot", "replace", "expand"}
    for argv in commands:
        try:
            cli._build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {argv}\n{capsys.readouterr().err}")
