"""toepspec benchmark: one workload, timed end to end or traced by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload esd --seed 1 --seconds 20 --trace 0

The program under test is the checkout's ``src/toepspec``, driven through
its real entry point ``toepspec.cli.main(argv)`` in this process. A run
repeats identical passes (every CLI call of the workload, inputs made from
``--seed``) until ``--seconds`` have passed, so the last pass may run over. Outputs of every pass are checked after the timed
loop. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics. The last line
of stdout is the JSON result; the lines before it are for people.
``--workload all`` runs the four workloads one after another.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
# Measured at the package defaults: these are cleared before numpy loads.
THREAD_VARS = (
    "TOEPSPEC_THREADS",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class Pass:
    wall: float
    cpu: float
    outdirs: list
    rcs: list
    log: str
    traced: bool


def blas_stamp() -> tuple[str, int | None]:
    """BLAS name from numpy's build config and its live thread count, read
    from the loaded OpenBLAS library (None when it cannot be read)."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name')} {info.get('version')}"
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return name, int(fn())
    return name, None


def env_stamp(cleared: dict) -> dict:
    import numpy as np
    import toepspec.harness

    blas, blas_threads = blas_stamp()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_count": toepspec.harness.thread_count(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "cleared_env": cleared,
    }


def run_pass(cli, plan, outdir: Path, tracer) -> Pass:
    """Every CLI call of one pass, with its stdout and stderr captured."""
    outdirs = [outdir / f"call{i}" for i in range(len(plan.calls))]
    rcs = []
    log = io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for argv, out in zip(plan.calls, outdirs):
                try:
                    rcs.append(cli.main([*argv, "--out", str(out)]))
                except Exception:  # a kernel error escaping the CLI fails the call
                    traceback.print_exc()
                    rcs.append(None)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(wall, cpu, outdirs, rcs, log.getvalue(), tracer is not None)


def setup_times(args) -> list[float]:
    """Seconds from starting a fresh interpreter on this script to the point
    where it would make its first CLI call, over SETUP_PROBES probes."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale, "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"setup probe failed (exit {rc})")
        times.append(t1 - t0)
    return times


def run_workload(args, cleared: dict) -> dict:
    import toepspec.cli as cli

    import spans
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        plan = workloads.prepare(args.workload, args.seed, args.scale, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return {}
        setups = [] if args.trace else setup_times(args)
        tracer = spans.Tracer() if args.trace else None
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            traced = args.trace and len(passes) % 2 == 1
            p = run_pass(cli, plan, workdir / f"pass{len(passes)}", tracer if traced else None)
            passes.append(p)
            if len(passes) == 1:
                # A user's process runs the workload once: its peak is the
                # first pass's, before allocator reuse across passes.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if time.perf_counter() - start >= args.seconds and len(passes) >= 1 + args.trace:
                break

        attempted = failed = 0
        problems = []
        for i, p in enumerate(passes):
            tally = workloads.check(plan, p.outdirs, p.rcs)
            attempted += tally.attempted
            failed += min(tally.failed, tally.attempted)
            problems += [f"pass {i}: {why}" for why in tally.problems]
            if any(rc != 0 for rc in p.rcs):
                print(p.log[-2000:], file=sys.stderr)
        correct = not problems

        print("env " + json.dumps(env_stamp(cleared), sort_keys=True))
        untraced = [p for p in passes if not p.traced]
        cells = workloads.cells_per_pass(plan)
        print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {cells} cells "
              f"({len(untraced)} untraced, {len(passes) - len(untraced)} traced)")
        for why in problems:
            print(f"  FAILED {why}")
        if args.trace:
            traced_walls = [p.wall for p in passes if p.traced]
            values, notes = spans.layer_metrics(
                tracer.spans, threading.main_thread().ident, traced_walls, spans.span_cost()
            )
            ratio = statistics.median(traced_walls) / statistics.median(p.wall for p in untraced)
            print(f"  traced/untraced median pass wall: {ratio:.4f} (machine noise included)")
            metrics = {}
            for name, unit, _ in spans.metric_table():
                metrics[name] = {"value": values[name], "unit": unit}
                note = notes.get(name, "per traced pass" if unit in ("s", "count", "bytes") else "")
                print(f"  {name:42s} {values[name]:14.6g} {unit:8s} {note}")
        else:
            values = {
                "wall_s": statistics.median(p.wall for p in passes),
                "cpu_s": statistics.median(p.cpu for p in passes),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
            }
            counts = {"wall_s": f"median of {len(passes)} passes", "cpu_s": f"median of {len(passes)} passes",
                      "setup_s": f"median of {len(setups)} probes", "peak_rss_mb": "process peak after the first pass"}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            for name, unit in END_TO_END:
                print(f"  {name:12s} {values[name]:12.6g} {unit:3s} {counts[name]}")
            print(f"  {'fail_frac':12s} {failed / attempted:12.6g} -   {failed} of {attempted} cells")
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("esd", "replace", "corner", "regions", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    cleared = {v: os.environ.pop(v) for v in THREAD_VARS if v in os.environ}
    if not (SRC / "toepspec" / "__init__.py").is_file():
        print(f"error: no toepspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import toepspec

    if Path(toepspec.__file__).resolve().parent != (SRC / "toepspec").resolve():
        print(f"error: imported toepspec from {toepspec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if cleared:
        print(f"note: cleared {cleared} to measure the package defaults", file=sys.stderr)

    names = ("esd", "replace", "corner", "regions") if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        result = run_workload(args, cleared)
        if result:
            print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
