"""Command-line interface.

Subcommands: spectrum (perturbed-spectrum experiment), regions (region-order
map), logpot (log-determinant vs. limit), replace (two-ensemble comparison),
expand (corner expansion dominance), validate (built-in oracle suite).

Exit codes: 0 success, 1 assertion-suite failure, 2 configuration error
(bad flags, malformed JSON, missing files).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    ExperimentConfig,
    RunArtifact,
    run_esd,
    run_expansion,
    run_logpot,
    run_region_map,
    run_replacement,
    thread_count,
)
from .noise import NoiseModel
from .symbol import Symbol
from . import validate as _validate

__all__ = ["main"]


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"cannot parse complex value {text!r} (want 're' or 're,im')")


def _parse_rect(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("rect must be 're_lo,re_hi,im_lo,im_hi'")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise ConfigError(f"bad rect: {exc}") from exc


def _load_json_arg(text: str) -> dict:
    """JSON object given inline or as a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            return json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid inline JSON: {exc}") from exc
    path = Path(text)
    if not path.exists():
        raise ConfigError(f"file not found: {text}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{text}: invalid JSON: {exc}") from exc


def _apply_overrides(data: dict, sets: list[str]) -> None:
    """Apply dotted-path overrides like noise.kind=rademacher in place."""
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like path=value")
        path, _, raw = item.partition("=")
        keys = [k for k in path.strip().split(".") if k]
        if not keys:
            raise ConfigError(f"empty override path in {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        for k in keys[:-1]:
            nxt = node.get(k)
            if not isinstance(nxt, dict):
                nxt = {}
                node[k] = nxt
            node = nxt
        node[keys[-1]] = value


def _load_config(args) -> ExperimentConfig:
    data = _load_json_arg(args.config)
    _apply_overrides(data, args.set or [])
    if args.seed is not None:
        data["seed"] = args.seed
    return ExperimentConfig.from_json(data)


def _emit(art: RunArtifact, config_outputs, args) -> None:
    outdir = args.out or config_outputs
    if outdir:
        paths = art.write(outdir, fmt=args.format, svg=args.svg)
        for p in paths:
            print(f"wrote {p}")


def _common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="random seed (overrides the config seed)")
    p.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="dotted-path config override (repeatable), e.g. noise.kind=rademacher",
    )
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    svg = p.add_mutually_exclusive_group()
    svg.add_argument("--svg", dest="svg", action="store_true", default=True)
    svg.add_argument("--no-svg", dest="svg", action="store_false")
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="validate inputs and print the execution plan without computing",
    )


def _cmd_spectrum(args) -> int:
    config = _load_config(args)
    if args.dry_run:
        cells = len(config.sizes) * config.trials
        print(
            f"plan: spectrum over sizes {list(config.sizes)} x {config.trials} trials "
            f"({cells} cells), noise {config.noise.kind}, gamma {config.gamma}, "
            f"seed {config.seed}, threads {thread_count()}, "
            f"config hash {config.config_hash()}"
        )
        return 0
    art = run_esd(config)
    for row in art.summary:
        print(
            f"n={row['n']} median_energy_distance={row['median_energy_distance']:.6g} "
            f"converged={row['converged_fraction']:.3g}"
        )
    _emit(art, config.outputs, args)
    return 0


def _cmd_regions(args) -> int:
    grid_flags = (args.symbol, args.rect, args.resolution)
    if args.config:
        if any(v is not None for v in grid_flags):
            raise ConfigError("regions takes --config or --symbol/--rect/--resolution, not both")
        config = _load_config(args)
        s = config.symbol
        grid = config.z_grid
        if grid.rect is None:
            raise ConfigError("regions needs a rect z_grid in the config")
        rect, res, outputs = grid.rect, grid.resolution, config.outputs
    else:
        if not all(grid_flags):
            raise ConfigError("regions needs --config or --symbol/--rect/--resolution")
        s = Symbol.from_json(_load_json_arg(args.symbol))
        rect = _parse_rect(args.rect)
        res, outputs = args.resolution, None
    if args.dry_run:
        print(f"plan: region map {res}x{res} on rect {rect}, symbol d1={s.d1} d2={s.d2}")
        return 0
    art = run_region_map(s, rect, res)
    for row in art.summary:
        print(f"label={row['label']} nodes={row['nodes']} fraction={row['fraction']:.4g}")
    _emit(art, outputs, args)
    return 0


def _cmd_logpot(args) -> int:
    config = _load_config(args)
    zs = None
    if args.z:
        zs = [_parse_complex(t) for t in args.z]
    if args.dry_run:
        n_z = len(zs) if zs else (len(config.z_grid.points or []))
        print(
            f"plan: logpot at {n_z} z values over sizes {list(config.sizes)} "
            f"x {config.trials} trials, noise {config.noise.kind}"
        )
        return 0
    art = run_logpot(config, zs)
    for row in art.summary:
        print(
            f"z={row['z_re']:g}{row['z_im']:+g}i n={row['n']} "
            f"median={row['median_log_pot']} limit={row['limit']:.6g} "
            f"gap={row['abs_gap']}"
        )
    _emit(art, config.outputs, args)
    return 0


def _cmd_replace(args) -> int:
    config = _load_config(args)
    z = _parse_complex(args.z)
    n = args.n or config.sizes[-1]
    model_b = (
        NoiseModel.from_json(_load_json_arg(args.noise_b)) if args.noise_b else config.noise
    )
    if args.dry_run:
        print(
            f"plan: replacement at z={z} n={n}, {config.trials} trials, "
            f"{config.noise.kind} vs {model_b.kind}"
        )
        return 0
    art = run_replacement(config, z, n, model_b)
    row = art.summary[0]
    print(
        f"ks_distance={row['ks_distance']:.6g} bounds_ok={row['bounds_ok']} "
        f"max_bound_ratio={row['max_bound_ratio']:.6g}"
    )
    _emit(art, config.outputs, args)
    return 0 if row["bounds_ok"] else 1


def _cmd_expand(args) -> int:
    s = Symbol.from_json(_load_json_arg(args.symbol))
    z = _parse_complex(args.z)
    sizes = [int(v) for v in args.sizes.split(",")]
    gamma_star = args.gamma_star if args.gamma_star is not None else s.d + 1.0
    if args.dry_run:
        print(
            f"plan: expansion dominance at z={z}, sizes {sizes}, "
            f"{args.draws} draws, gamma_star {gamma_star}"
        )
        return 0
    art = run_expansion(s, z, sizes, args.draws, gamma_star, args.seed or 0)
    for row in art.summary:
        print(
            f"n={row['n']} order={row['region_order']} "
            f"above={row['median_ratio_above']:.4g} below={row['median_ratio_below']:.4g} "
            f"pd={row['median_normalized_pd']:.4g}"
        )
    _emit(art, None, args)
    return 0


def _cmd_validate(args) -> int:
    checks = _validate.run_checks()
    failed = 0
    for name, ok, detail in checks:
        tag = "ok  " if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{tag} - {name}{suffix}")
        if not ok:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toepspec",
        description="Spectra of randomly perturbed banded Toeplitz matrices",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="perturbed-spectrum experiment (ESD)")
    p.add_argument("--config", required=True, help="experiment config JSON (path or inline)")
    _common_run_flags(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("regions", help="region-order map over a z rectangle")
    p.add_argument("--config", default=None)
    p.add_argument("--symbol", default=None, help="symbol JSON (path or inline)")
    p.add_argument("--rect", default=None, help="re_lo,re_hi,im_lo,im_hi")
    p.add_argument("--resolution", type=int, default=None)
    _common_run_flags(p)
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("logpot", help="log-determinant vs limiting log-potential")
    p.add_argument("--config", required=True)
    p.add_argument("--z", action="append", default=None, help="z value 're,im' (repeatable)")
    _common_run_flags(p)
    p.set_defaults(func=_cmd_logpot)

    p = sub.add_parser("replace", help="two-ensemble singular-value comparison")
    p.add_argument("--config", required=True)
    p.add_argument("--z", required=True, help="z value 're,im'")
    p.add_argument("--n", type=int, default=None, help="matrix size (default: largest config size)")
    p.add_argument("--noise-b", default=None, help="second noise model JSON (default: config noise)")
    _common_run_flags(p)
    p.set_defaults(func=_cmd_replace)

    p = sub.add_parser("expand", help="corner-expansion dominance report")
    p.add_argument("--symbol", required=True, help="symbol JSON (path or inline)")
    p.add_argument("--z", required=True, help="z value 're,im'")
    p.add_argument("--sizes", default="10,20,40")
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--gamma-star", type=float, default=None, help="default: d + 1")
    _common_run_flags(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("validate", help="run the built-in oracle suite")
    p.set_defaults(func=_cmd_validate)

    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "set", None) and not getattr(args, "config", None):
            raise ConfigError("--set overrides a config field and needs --config")
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
