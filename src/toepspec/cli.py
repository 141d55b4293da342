"""Command-line interface.

Subcommands: spectrum (perturbed-spectrum experiment), regions (region-order
map), logpot (log-determinant vs. limit), replace (two-ensemble comparison),
expand (corner expansion dominance), validate (built-in oracle suite).

Every run subcommand goes through ``_run``: its ``_cmd_*`` turns the flags
into the runner's arguments, the runner's input step checks them and gives
the inputs echo the artifact hashes, and ``--dry-run`` prints that echo
without computing.

Exit codes: 0 success, 1 assertion-suite failure, 2 configuration error
(bad flags, malformed JSON, missing files).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    ExperimentConfig,
    _dumps,
    _esd_inputs,
    _expansion_inputs,
    _hash,
    _logpot_inputs,
    _region_inputs,
    _replacement_inputs,
    run_esd,
    run_expansion,
    run_logpot,
    run_region_map,
    run_replacement,
)
from .noise import NoiseModel
from .symbol import ConfigError, Symbol

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
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r}: {k!r} is not an object")
        node[keys[-1]] = value


def _load_config(args) -> ExperimentConfig:
    """The ``--config`` JSON after ``--set`` and ``--seed``."""
    data = _load_json_arg(args.config)
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _apply_overrides(data, args.set or [])
    if args.seed is not None:
        data["seed"] = args.seed
    return ExperimentConfig.from_json(data)


# The line each run subcommand prints per summary row.
_SUMMARY = {
    "spectrum": "n={n} median_energy_distance={median_energy_distance:.6g} "
    "converged={converged_fraction:.3g}",
    "regions": "label={label} nodes={nodes} fraction={fraction:.4g}",
    "logpot": "z={z_re:g}{z_im:+g}i n={n} median={median_log_pot} limit={limit:.6g} "
    "gap={abs_gap}",
    "replace": "ks_distance={ks_distance:.6g} bounds_ok={bounds_ok} "
    "max_bound_ratio={max_bound_ratio:.6g}",
    "expand": "n={n} order={region_order} above={median_ratio_above:.4g} "
    "below={median_ratio_below:.4g} pd={median_normalized_pd:.4g}",
}


class _Null:
    """A null summary value: prints as ``None`` under any format spec."""

    def __format__(self, spec):
        return "None"


def _run(args) -> int:
    """Dry-run or run one subcommand.  ``args.cmd`` gives the input step, the
    runner, their shared arguments and the config's output directory; the
    dry run prints the hash and canonical JSON the run writes to its meta."""
    inputs_of, runner, run_args, outputs = args.cmd(args)
    if args.dry_run:
        inputs = inputs_of(*run_args)
        print(f"plan: {args.command} config hash {_hash(inputs)}")
        print(_dumps(inputs))
        return 0
    art = runner(*run_args)
    for row in art.summary:
        row = {k: _Null() if v is None else v for k, v in row.items()}
        print(_SUMMARY[args.command].format(**row))
    outdir = args.out or outputs
    if outdir:
        for p in art.write(outdir, fmt=args.format, svg=args.svg):
            print(f"wrote {p}")
    return 0 if all(row.get("bounds_ok", True) for row in art.summary) else 1


def _common_run_flags(p: argparse.ArgumentParser, cmd) -> None:
    p.set_defaults(func=_run, cmd=cmd)
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
        help="check the inputs and print the config hash and inputs echo without computing",
    )


def _cmd_spectrum(args):
    config = _load_config(args)
    return _esd_inputs, run_esd, (config,), config.outputs


def _cmd_regions(args):
    if args.seed is not None:
        raise ConfigError("regions draws no random numbers; --seed does not apply")
    grid_flags = (args.symbol, args.rect, args.resolution)
    if args.config:
        if any(v is not None for v in grid_flags):
            raise ConfigError("regions takes --config or --symbol/--rect/--resolution, not both")
        config = _load_config(args)
        grid = config.z_grid
        if grid is None or grid.rect is None:
            raise ConfigError("regions needs a rect z_grid in the config")
        run_args, outputs = (config.symbol, grid.rect, grid.resolution), config.outputs
    else:
        if any(v is None for v in grid_flags):
            raise ConfigError("regions needs --config or --symbol/--rect/--resolution")
        s = Symbol.from_json(_load_json_arg(args.symbol))
        run_args, outputs = (s, _parse_rect(args.rect), args.resolution), None
    return _region_inputs, run_region_map, run_args, outputs


def _cmd_logpot(args):
    config = _load_config(args)
    zs = [_parse_complex(t) for t in args.z] if args.z else None
    return _logpot_inputs, run_logpot, (config, zs), config.outputs


def _cmd_replace(args):
    config = _load_config(args)
    if args.n is None and config.sizes is None:
        raise ConfigError("replace needs --n or the config field sizes")
    n = args.n if args.n is not None else config.sizes[-1]
    model_b = (
        NoiseModel.from_json(_load_json_arg(args.noise_b)) if args.noise_b else config.noise
    )
    run_args = (config, _parse_complex(args.z), n, model_b)
    return _replacement_inputs, run_replacement, run_args, config.outputs


def _cmd_expand(args):
    s = Symbol.from_json(_load_json_arg(args.symbol))
    gamma_star = args.gamma_star if args.gamma_star is not None else s.d + 1.0
    sizes = [float(t) for t in args.sizes.split(",")]
    run_args = (s, _parse_complex(args.z), sizes, args.draws, gamma_star, args.seed or 0)
    return _expansion_inputs, run_expansion, run_args, None


def _cmd_validate(args) -> int:
    from . import validate

    checks = validate.run_checks()
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
    _common_run_flags(p, _cmd_spectrum)

    p = sub.add_parser("regions", help="region-order map over a z rectangle")
    p.add_argument("--config", default=None)
    p.add_argument("--symbol", default=None, help="symbol JSON (path or inline)")
    p.add_argument("--rect", default=None, help="re_lo,re_hi,im_lo,im_hi")
    p.add_argument("--resolution", type=int, default=None)
    _common_run_flags(p, _cmd_regions)

    p = sub.add_parser("logpot", help="log-determinant vs limiting log-potential")
    p.add_argument("--config", required=True)
    p.add_argument("--z", action="append", default=None, help="z value 're,im' (repeatable)")
    _common_run_flags(p, _cmd_logpot)

    p = sub.add_parser("replace", help="two-ensemble singular-value comparison")
    p.add_argument("--config", required=True)
    p.add_argument("--z", required=True, help="z value 're,im'")
    p.add_argument("--n", type=int, default=None, help="matrix size (default: largest config size)")
    p.add_argument("--noise-b", default=None, help="second noise model JSON (default: config noise)")
    _common_run_flags(p, _cmd_replace)

    p = sub.add_parser("expand", help="corner-expansion dominance report")
    p.add_argument("--symbol", required=True, help="symbol JSON (path or inline)")
    p.add_argument("--z", required=True, help="z value 're,im'")
    p.add_argument("--sizes", default="10,20,40")
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--gamma-star", type=float, default=None, help="default: d + 1")
    _common_run_flags(p, _cmd_expand)

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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
