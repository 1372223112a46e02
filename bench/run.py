"""Benchmark of the qbat command line: four workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload drive|sweep|scan|calls|all \
        --seed N --seconds S --trace 0|1

Each workload runs in fresh processes with BLAS pinned to one thread (see
``workloads.py``); one closed-loop client calls ``qbat.cli.main`` in-process
with the arguments a user would type and checks every output.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: set-up
time as the median over several fresh processes, then pass wall and CPU
time, per-op latency percentiles and peak RSS from one process that runs
passes for ``S`` seconds.  A pass's wall and CPU time are the sums over its
ops, so the client's output checks between ops are not counted.  ``--trace 1`` runs a separate process whose
traced passes give the per-layer metrics (``tracing.py``, ``spec.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Failed ops are those that exit
nonzero or whose output fails its check; their share is printed as
``error_rate``, and any failure makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".bench_build"
SETUP_PROBES = 5          # set-up-only processes per run, besides the measuring one
RUN_LIMIT_S = 170.0       # every process of a run ends within this


class BenchError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_session(workload: str, seed: int, seconds: float, mode: str, work: Path,
                deadline: float) -> dict:
    """Start one session process, wait for it, and return its result."""
    cmd = [sys.executable, str(ROOT / "bench" / "session.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--work", str(work)]
    env = workloads.environment(workload, os.environ)
    started = monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process of {workload} ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{mode} process of {workload} exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def tail_percentile(values, q: int = 99):
    """(q-th percentile, number of samples above it)."""
    value = statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]
    return value, sum(1 for v in values if v > value)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, units: dict,
                 deadline: float) -> dict:
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        if trace:
            result = run_session(workload, seed, seconds, "trace", work, deadline)
            metrics = result["layers"]
            notes = {"trace.overhead_frac": "traced / untraced pass wall - 1; "
                                            f"spans in {result['trace_file']}"}
        else:
            setups = [run_session(workload, seed, seconds, "setup", work, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            result = run_session(workload, seed, seconds, "measure", work, deadline)
            setups.append(result["setup_s"])
            latencies = [1e3 * lat for lat in result["latencies"]]
            p99, beyond = tail_percentile(latencies)
            n_passes = len(result["passes"])
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(p["wall"] for p in result["passes"]),
                "cpu_s": statistics.median(p["cpu"] for p in result["passes"]),
                "op_p50_ms": statistics.median(latencies),
                "op_p99_ms": p99,
                "peak_rss_mb": result["peak_rss_mb"],
            }
            notes = {
                "setup_s": f"median of {len(setups)} fresh processes",
                "wall_s": f"median of {n_passes} passes",
                "cpu_s": f"median of {n_passes} passes, user+sys of all threads",
                "op_p50_ms": f"n={len(latencies)} ops",
                "op_p99_ms": f"n={len(latencies)} ops, {beyond} beyond"
                             + ("" if beyond >= 10 else " (fewer than 10: tail unresolved)"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{workload:6} {name:38} {value:14.6g} {units[name]:10} {notes.get(name, '')}")
    print(f"{workload:6} {'error_rate':38} {result['failed'] / result['attempted']:14.6g} "
          f"{'1':10} {result['failed']} of {result['attempted']} ops failed")
    print(f"{workload:6} env {json.dumps(dict(result['env'], seed=seed))}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qbat benchmark")
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qbat" / "__init__.py").is_file():
        print(f"bench: no qbat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in config[kind]}
    seconds = config["run_seconds"] if args.seconds is None else args.seconds
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)

    results = {}
    for name in names:
        deadline = monotonic() + RUN_LIMIT_S
        try:
            results[name] = run_workload(name, args.seed, seconds, bool(args.trace), units,
                                         deadline)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        missing = set(units) - set(results[name]["metrics"])
        if missing:
            print(f"bench: {name} did not measure {sorted(missing)}", file=sys.stderr)
            return 1

    def labelled(name, workload):
        return name if len(names) == 1 else f"{workload}.{name}"

    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {labelled(m, w): {"value": r["metrics"][m], "unit": units[m]}
                    for w, r in results.items() for m in units},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
