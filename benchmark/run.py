#!/usr/bin/env python3
"""Run one somnoscore benchmark workload and print its metrics.

    python3 benchmark/run.py --workload full-train --seed 1 --seconds 25 --trace 0

Run from the root of a source tree: the program is imported from ``src/``.
Inputs are generated from ``--seed``; working files and run records go under
``.benchmark-work/`` beside ``src/``. With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric; with
``--trace 1`` the workload runs once untraced and once traced, the earlier
lines show the tracing overhead, and the JSON holds the per-layer metrics.
Each workload should run in a fresh process, so that ``peak_rss_mb`` is its own.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchmark-work"
WORKLOADS = ("full-train", "desk-crossval")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read from the library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_kb = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_kb / 1024) if mem_kb else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small networks and inputs; the benchmark's own tests use it")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "somnoscore" / "__init__.py").is_file():
        print(f"error: no somnoscore sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import somnoscore
    if Path(somnoscore.__file__).resolve().parent != (SRC / "somnoscore").resolve():
        print(f"error: imported somnoscore from {somnoscore.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracing import COUNT_NAMES, Tracer

    plan = (workloads.TINY_PLANS if args.tiny else workloads.PLANS)[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    work = WORK / f"tmp-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    description = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "tiny": args.tiny, "machine": machine(),
                   "net": plan.net.to_json_dict(), "learning_rate": plan.net.learning_rate,
                   "why": plan.why}
    print("# run " + json.dumps(description), flush=True)

    t_start = time.perf_counter()
    try:
        if args.trace:
            untraced = workloads.Pass(plan, args.seed, args.seconds, work, exact=True).run()
            tracer = Tracer()
            tracer.install()
            try:
                traced = workloads.Pass(plan, args.seed, args.seconds, work, exact=True,
                                        tracer=tracer).run()
            finally:
                tracer.uninstall()
            tracer.write(results / f"spans-{tag}.npz")
            passes = (untraced, traced)
            metrics = {}
            for name, (self_s, calls) in tracer.summary().items():
                metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
                metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
            for name in COUNT_NAMES:
                metrics[name] = {"value": tracer.counts[name], "unit": "count"}
        else:
            passes = (workloads.Pass(plan, args.seed, args.seconds, work, exact=False).run(),)
            metrics = {name: {"value": passes[0].metrics[name], "unit": unit}
                       for name, unit in workloads.END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for error in p.errors:
            print(f"# failed: {error}")
    label = ("untraced", "traced")
    for name, unit in workloads.END_TO_END_UNITS.items():
        values = [p.metrics[name] for p in passes]
        n = passes[0].samples[name]
        line = f"{name} = {values[0]:.6g} {unit} ({'median of ' if n > 1 else ''}" \
               f"{n} sample{'s' if n > 1 else ''}" + ("" if name == "peak_rss_mb" else
                                                       f"; unscaled {passes[0].unscaled[name]:.6g}") + ")"
        if args.trace:
            line = (f"{name}: untraced {values[0]:.6g}, traced {values[1]:.6g}, "
                    f"overhead {values[1] - values[0]:+.6g} {unit}")
        print(line)
    print(f"# host speed: reference_s median {passes[0].reference_s * 1e3:.3f} ms; timings "
          f"are scaled to {workloads.REFERENCE_S * 1e3:g} ms")
    print(f"error_rate = {failed / attempted if attempted else math.nan:.6g} "
          f"({failed} failed of {attempted} attempted)")
    print(f"# record {json.dumps({label[i]: p.record for i, p in enumerate(passes)})}")

    correct = failed == 0 and attempted > 0 and all(
        math.isfinite(p.metrics[name]) and p.metrics[name] > 0
        for p in passes for name in workloads.END_TO_END_UNITS)
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"run": description, "wall_s": time.perf_counter() - t_start,
              "passes": {label[i]: vars(p) for i, p in enumerate(passes)}, "result": summary}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
