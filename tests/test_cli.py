"""Command-line surface: exit codes, file outputs, overrides."""

import json

import pytest

from toepspec import NoiseModel, RunArtifact, ZGrid
from toepspec.cli import main
from toepspec.harness import ExperimentConfig

QUAD_JSON = {"coeffs": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]], "d1": 2, "d2": 0}


def write_config(tmp_path, **overrides):
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
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


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
