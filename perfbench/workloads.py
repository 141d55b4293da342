"""The four benchmark workloads: inputs made from a seed, and output checks.

Each workload is cut from an acceptance criterion. ``prepare`` writes the
config files and returns the toepspec argv of one pass; the runner appends
``--out <dir>`` to every call. ``check`` reads what one pass wrote, compares
a fixed sample of cells with an independent numpy oracle, and returns how
many cells were attempted and how many failed.

The configs leave ``noise.gamma`` unset and carry the scaling exponent in the
top-level ``gamma`` (0.75), so they keep their meaning when the noise model
loses its own exponent.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import toepspec as tp
from toepspec._rng import DOMAIN_LOGPOT, DOMAIN_NOISE, DOMAIN_REPLACE, seed_sequence

# a(lam) = lam + lam^2, the symbol of criteria 5-10.
QUAD = {"d1": 2, "d2": 0, "coeffs": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]}
GAMMA = 0.75
GAMMA_STAR = 3.0  # corner decay exponent d + 1
CORNER_ZS = (3.0, 1.0, -0.1)  # one point in each region order 0, 1, 2
REGION_RECT = (-2.5, 3.5, -3.0, 3.0)

# Problem sizes. "full" is the benchmark; "tiny" only exercises the code
# paths (smoke test).
SCALES = {
    "full": {
        "esd_sizes": [100, 200, 400],
        "esd_trials": 1,
        "mu_samples": 10000,
        "replace_n": 300,
        "replace_trials": 1,
        "logpot_n": 500,
        "logpot_trials": 2,
        "expand_sizes": [10, 20, 40],
        "expand_draws": 30,
        "regions_resolution": 400,
        "regions_sample": 500,
    },
    "tiny": {
        "esd_sizes": [16, 32, 64],
        "esd_trials": 1,
        "mu_samples": 2000,
        "replace_n": 40,
        "replace_trials": 1,
        "logpot_n": 120,
        "logpot_trials": 1,
        "expand_sizes": [10, 20],
        "expand_draws": 20,
        "regions_resolution": 60,
        "regions_sample": 200,
    },
}


@dataclass
class Tally:
    """Cells attempted and failed in one pass, with the reasons for failures."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


@dataclass
class Plan:
    """One workload at one seed: the argv of each CLI call of a pass."""

    name: str
    seed: int
    scale: dict
    calls: list[list[str]]


def _write_config(path: Path, seed: int, **fields) -> str:
    data = {"symbol": QUAD, "gamma": GAMMA, "seed": seed, **fields}
    path.write_text(json.dumps(data, sort_keys=True))
    return str(path)


def prepare(name: str, seed: int, scale_name: str, workdir: Path) -> Plan:
    sc = SCALES[scale_name]
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "esd":
        cfg = _write_config(
            workdir / "esd.json",
            seed,
            sizes=sc["esd_sizes"],
            noise={"kind": "gaussian_complex"},
            trials=sc["esd_trials"],
            z_grid={"points": [[0.0, 0.0]]},
            mu_samples=sc["mu_samples"],
        )
        calls = [["spectrum", "--config", cfg, "--format", "jsonl", "--svg"]]
        return Plan(name, seed, sc, calls)
    if name == "replace":
        cfg = _write_config(
            workdir / "replace.json",
            seed,
            sizes=[sc["replace_n"]],
            noise={"kind": "gaussian_complex"},
            trials=sc["replace_trials"],
            z_grid={"points": [[1.0, 0.0]]},
            mu_samples=1,
        )
        calls = [["replace", "--config", cfg, "--z", "1", "--noise-b", '{"kind": "rademacher"}']]
        return Plan(name, seed, sc, calls)
    if name == "corner":
        cfg = _write_config(
            workdir / "logpot.json",
            seed,
            sizes=[sc["logpot_n"]],
            noise={"kind": "corner_delta", "gamma_star": GAMMA_STAR},
            trials=sc["logpot_trials"],
            z_grid={"points": [[z, 0.0] for z in CORNER_ZS]},
            mu_samples=1,
        )
        sizes = ",".join(str(n) for n in sc["expand_sizes"])
        calls = [["logpot", "--config", cfg]]
        for z in CORNER_ZS:
            calls.append(
                ["expand", "--symbol", json.dumps(QUAD), "--z", repr(z), "--sizes", sizes,
                 "--draws", str(sc["expand_draws"]), "--gamma-star", repr(GAMMA_STAR),
                 "--seed", str(seed)]
            )
        return Plan(name, seed, sc, calls)
    if name == "regions":
        res = sc["regions_resolution"]
        # Shift the criterion-5 rectangle by a seeded fraction of one grid
        # step, so each seed gives other nodes at the same cost.
        re_lo, re_hi, im_lo, im_hi = REGION_RECT
        dx, dy = np.random.default_rng(seed).uniform(0.0, 1.0, 2)
        step_re, step_im = (re_hi - re_lo) / (res - 1), (im_hi - im_lo) / (res - 1)
        rect = [re_lo + dx * step_re, re_hi + dx * step_re, im_lo + dy * step_im, im_hi + dy * step_im]
        cfg = _write_config(
            workdir / "regions.json",
            seed,
            sizes=[1],
            noise={"kind": "gaussian_complex"},
            trials=1,
            z_grid={"rect": rect, "resolution": res},
            mu_samples=1,
        )
        return Plan(name, seed, sc, [["regions", "--config", cfg]])
    raise ValueError(f"unknown workload {name!r}")


def cells_per_pass(plan: Plan) -> int:
    sc = plan.scale
    if plan.name == "esd":
        return len(sc["esd_sizes"]) * sc["esd_trials"]
    if plan.name == "replace":
        return 2 * sc["replace_trials"]
    if plan.name == "corner":
        return len(CORNER_ZS) * (
            sc["logpot_trials"] + len(sc["expand_sizes"]) * sc["expand_draws"]
        )
    return sc["regions_resolution"] ** 2


# ---------------------------------------------------------------------------
# Output checks. Each reads the files one pass wrote (``outdirs[i]`` belongs
# to ``plan.calls[i]``); ``rcs[i]`` is that call's exit code, None when it
# raised.


def _jsonl(path: Path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f]


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _outer_root_count(c_ascending: np.ndarray) -> np.ndarray:
    """Roots of modulus >= 1 of each row's polynomial, from companion-matrix
    eigenvalues (np.linalg), independent of toepspec's Aberth iteration."""
    c = np.atleast_2d(c_ascending)
    d = c.shape[1] - 1
    comp = np.zeros((c.shape[0], d, d), dtype=complex)
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    comp[:, :, -1] = -c[:, :-1] / c[:, -1:]
    roots = np.linalg.eigvals(comp)
    return (np.abs(roots) >= 1.0).sum(axis=1)


def _quad_poly(z) -> np.ndarray:
    """Ascending coefficients of a(lam) - z for QUAD, one row per z."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    c = np.tile(np.array([complex(*p) for p in QUAD["coeffs"]]), (z.size, 1))
    c[:, QUAD["d2"]] -= z
    return c


def _jensen_limit(z: float) -> float:
    """Limiting log-potential: log|lead| + sum of log|root| over roots outside
    the unit circle, with roots from np.roots."""
    c = _quad_poly(z)[0]
    roots = np.roots(c[::-1])
    return math.log(abs(c[-1])) + sum(math.log(abs(r)) for r in roots if abs(r) > 1.0)


def _check_esd(plan: Plan, outdirs, rcs) -> Tally:
    t = Tally(cells_per_pass(plan))
    if rcs[0] != 0:
        t.fail(t.attempted, f"spectrum exited {rcs[0]}")
        return t
    records = _jsonl(outdirs[0] / "esd.jsonl")
    for rec in records:
        if not rec["converged"]:
            t.fail(1, f"n={rec['n']} trial={rec['trial']} did not converge")
    s = tp.Symbol.from_json(QUAD)
    root = seed_sequence(plan.seed)
    model = tp.NoiseModel("gaussian_complex")
    for rec in records:
        if rec["trial"] != 0:
            continue
        n = rec["n"]
        pert = tp.perturbation(s, model, GAMMA, n, seed_sequence(root, DOMAIN_NOISE, n, 0))
        want = np.linalg.eigvals(tp.build(s, n) + pert)
        got = np.array([complex(re, im) for re, im in rec["eigenvalues"]])
        # Symmetric nearest-neighbour distance between the two spectra.
        dist = np.abs(got[:, None] - want[None, :])
        gap = max(dist.min(axis=0).max(), dist.min(axis=1).max())
        if got.size != want.size or gap > 1e-6 * (1.0 + np.abs(want).max()):
            t.fail(1, f"n={n}: eigenvalues differ from np.linalg.eigvals by {gap:.3g}")
    meds = [float(r["median_energy_distance"]) for r in _csv_rows(outdirs[0] / "esd_summary.csv")]
    if not all(a > b for a, b in zip(meds, meds[1:])) or meds[-1] >= 0.08:
        t.fail(1, f"median energy distances {meds} do not fall below 0.08 as N grows")
    return t


def _check_replace(plan: Plan, outdirs, rcs) -> Tally:
    t = Tally(cells_per_pass(plan))
    if rcs[0] != 0:
        t.fail(t.attempted, f"replace exited {rcs[0]}")
        return t
    n = plan.scale["replace_n"]
    s = tp.Symbol.from_json(QUAD)
    tz = tp.build_z(s, 1.0, n)
    root = seed_sequence(plan.seed)
    models = {"smin_a": tp.NoiseModel("gaussian_complex"), "smin_b": tp.NoiseModel("rademacher")}
    for rec in _jsonl(outdirs[0] / "replace.jsonl"):
        sub = seed_sequence(root, DOMAIN_REPLACE, n, rec["trial"])
        for key, model in models.items():
            m = tz + tp.perturbation(s, model, GAMMA, n, sub)
            want = float(np.linalg.svd(m, compute_uv=False)[-1])
            if abs(rec[key] - want) > 1e-8 * max(1.0, want):
                t.fail(1, f"trial {rec['trial']} {key}={rec[key]!r} but np.linalg.svd gives {want!r}")
    row = _csv_rows(outdirs[0] / "replace_summary.csv")[0]
    if row["bounds_ok"] != "True":
        t.fail(1, "resolvent bound violated")
    if not float(row["ks_distance"]) < 0.1:
        t.fail(1, f"KS distance {row['ks_distance']} >= 0.1")
    return t


def _check_corner(plan: Plan, outdirs, rcs) -> Tally:
    sc = plan.scale
    t = Tally(cells_per_pass(plan))
    n_logpot = len(CORNER_ZS) * sc["logpot_trials"]
    n_expand = len(sc["expand_sizes"]) * sc["expand_draws"]
    # logpot: criterion 7, corner half.
    if rcs[0] != 0:
        t.fail(n_logpot, f"logpot exited {rcs[0]}")
    else:
        n = sc["logpot_n"]
        s = tp.Symbol.from_json(QUAD)
        model = tp.NoiseModel("corner_delta", gamma_star=GAMMA_STAR)
        root = seed_sequence(plan.seed)
        for rec in _jsonl(outdirs[0] / "logpot.jsonl"):
            z = complex(*rec["z"])
            if rec["singular"]:
                t.fail(1, f"z={z} trial {rec['trial']}: singular LU")
                continue
            if rec["trial"] != 0:
                continue
            pert = tp.perturbation(s, model, GAMMA, n, seed_sequence(root, DOMAIN_LOGPOT, n, 0))
            _, want = np.linalg.slogdet(tp.build_z(s, z, n) + pert)
            if abs(rec["log_pot"] - want / n) > 1e-9:
                t.fail(1, f"z={z}: log_pot {rec['log_pot']!r} but slogdet/N gives {want / n!r}")
        for row in _csv_rows(outdirs[0] / "logpot_summary.csv"):
            z = float(row["z_re"])
            lim = _jensen_limit(z)
            k = QUAD["d1"] - int(_outer_root_count(_quad_poly(z))[0])
            biased = lim - k * GAMMA_STAR * math.log(n) / n
            if abs(float(row["limit"]) - lim) > 1e-9:
                t.fail(1, f"z={z}: limit {row['limit']} but Jensen's formula gives {lim!r}")
            if not abs(float(row["median_log_pot"]) - biased) < 0.05:
                t.fail(1, f"z={z}: median {row['median_log_pot']} not within 0.05 of {biased:.6g}")
    # expand: criterion 8, one call per region.
    recs = {}
    for z, rc, out in zip(CORNER_ZS, rcs[1:], outdirs[1:]):
        if rc != 0:
            t.fail(n_expand, f"expand at z={z} exited {rc}")
        else:
            recs[z] = _jsonl(out / "expand.jsonl")
    sizes = sc["expand_sizes"]

    def median_by_size(z, value):
        return [float(np.median([value(r) for r in recs[z] if r["n"] == n])) for n in sizes]

    if 3.0 in recs:
        outer = median_by_size(3.0, lambda r: sum(r["p_abs"][1:]) / r["p_abs"][0])
        if not all(a > b for a, b in zip(outer, outer[1:])):
            t.fail(1, f"z=3: higher terms do not fade against P_0 as N grows: {outer}")
    if -0.1 in recs:
        inner = median_by_size(-0.1, lambda r: r["ratio_below"])
        if not np.polyfit(np.array(sizes, float), np.log(inner), 1)[0] < 0.0:
            t.fail(1, f"z=-0.1: lower terms do not decay with N: {inner}")
    if 1.0 in recs:
        for n in sizes:
            rows = [r for r in recs[1.0] if r["n"] == n]
            hits = sum(r["normalized_pd"] >= float(n) ** (-GAMMA_STAR - 1.0) for r in rows)
            if hits < math.ceil(0.95 * len(rows)):
                t.fail(1, f"z=1 n={n}: |P_1| clears N^-(gamma*+1) in only {hits}/{len(rows)} draws")
    return t


def _check_regions(plan: Plan, outdirs, rcs) -> Tally:
    t = Tally(cells_per_pass(plan))
    if rcs[0] != 0:
        t.fail(t.attempted, f"regions exited {rcs[0]}")
        return t
    # Rows are "re,im,label" under a header; parse only the sampled ones.
    rows = (outdirs[0] / "regions_grid.csv").read_text().splitlines()[1:]
    if len(rows) != t.attempted:
        t.fail(abs(t.attempted - len(rows)) or 1, f"grid has {len(rows)} rows, want {t.attempted}")
    rng = np.random.default_rng(plan.seed)
    pick = rng.choice(len(rows), size=min(plan.scale["regions_sample"], len(rows)), replace=False)
    sample = [rows[i].split(",") for i in pick]
    sample = [(re, im, label) for re, im, label in sample if label != "boundary"]
    if len(sample) < 0.9 * len(pick):
        t.fail(1, f"only {len(sample)} of {len(pick)} sampled nodes are off the boundary")
    zs = np.array([complex(float(re), float(im)) for re, im, _ in sample])
    want = QUAD["d1"] - _outer_root_count(_quad_poly(zs))
    got = np.array([int(label) for _, _, label in sample])
    bad = int((got != want).sum())
    if bad:
        t.fail(bad, f"{bad} sampled labels differ from companion-matrix root counts")
    frac = {r["label"]: float(r["fraction"]) for r in _csv_rows(outdirs[0] / "regions_summary.csv")}
    if any(frac.get(label, 0.0) <= 0.005 for label in ("0", "1", "2")) or frac.get("boundary", 0.0) >= 0.05:
        t.fail(1, f"region fractions {frac} miss an order or have a thick boundary")
    return t


CHECKS = {
    "esd": _check_esd,
    "replace": _check_replace,
    "corner": _check_corner,
    "regions": _check_regions,
}
WORKLOADS = tuple(CHECKS)


def check(plan: Plan, outdirs, rcs) -> Tally:
    """Check one pass's outputs."""
    return CHECKS[plan.name](plan, outdirs, rcs)
