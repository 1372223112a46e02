"""One benchmark process: set up qbat, then run passes of one workload.

``bench/run.py`` starts this file as a fresh process per measurement:

    python3 bench/session.py --workload W --seed N --seconds S \
        --mode setup|measure|trace --work DIR

Set-up is importing qbat from ``src/``, generating the workload's inputs and
one warm-up call; its end is reported as a CLOCK_MONOTONIC reading, which
the parent compares with the moment it started the process.  ``setup`` mode
stops there.  ``measure`` runs passes while one more still ends within ``S`` seconds;
``trace`` alternates untraced and traced passes for as long and writes the
traced spans to ``DIR/../trace-W.jsonl``.  The last line of standard
output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
MAX_REPORTED_FAILURES = 20


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment_record() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    record = {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
              "nproc": len(os.sched_getaffinity(0)),
              "QBAT_THREADS": os.environ.get("QBAT_THREADS")}
    record.update({var: os.environ.get(var) for var in workloads.BLAS_THREAD_VARS})
    return record


class Client:
    """Closed-loop client: runs ops one after another and checks each output."""

    def __init__(self, cli, workload: str, out: Path, expected):
        self.cli = cli
        self.workload = workload
        self.out = out
        self.expected = expected
        self.failures = []
        self.attempted = 0

    def op(self, argv):
        """Run one command line; returns (wall s, cpu s, failure reason or None)."""
        self.out.unlink(missing_ok=True)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        code = self.cli.main([*argv, "--output", str(self.out)])
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if code != 0:
            reason = f"exit code {code}"
        elif not self.out.exists():
            reason = "no output written"
        else:
            reason = workloads.check(self.workload, argv, self.out.read_text(encoding="utf-8"),
                                     self.expected)
        return wall, cpu, reason

    def run_pass(self, argvs) -> dict:
        latencies = []
        cpu = 0.0
        for argv in argvs:
            wall, op_cpu, reason = self.op(argv)
            self.attempted += 1
            latencies.append(wall)
            cpu += op_cpu
            if reason is not None:
                self.failures.append(f"{' '.join(argv)}: {reason}")
                if len(self.failures) <= MAX_REPORTED_FAILURES:
                    print(f"bench: {self.workload}: failed op {self.failures[-1]}",
                          file=sys.stderr)
        return {"wall": sum(latencies), "cpu": cpu, "latencies": latencies}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from qbat import cli

    argvs = workloads.pass_argvs(args.workload, args.seed)
    expected = (workloads.scan_expected(args.seed, workloads.SCAN_SAMPLES)
                if args.workload == "scan" else None)
    client = Client(cli, args.workload, args.work / "out.csv", expected)
    for warm in workloads.warmup_argvs(args.workload):
        code = cli.main([*warm, "--output", str(client.out)])
        if code != 0:
            print(f"bench: warm-up {' '.join(warm)} exited {code}", file=sys.stderr)
            return 1
    result = {"ready": monotonic(), "env": environment_record()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    passes = []
    start = time.perf_counter()

    def another_pass(minimum: int) -> bool:
        # Start a pass only if one as long as the last still ends in time.
        elapsed = time.perf_counter() - start
        return len(passes) < minimum or elapsed + elapsed / len(passes) <= args.seconds

    if args.mode == "measure":
        while another_pass(1):
            passes.append(client.run_pass(argvs))
    else:
        from tracing import Tracer, layer_metrics, median_metrics, write_jsonl

        trace_path = args.work.parent / f"trace-{args.workload}.jsonl"
        workers = int(os.environ.get("QBAT_THREADS", "1"))
        tracer = Tracer()
        layers = []
        spans = []
        while another_pass(2):
            traced = len(passes) % 2 == 1
            if traced:
                tracer.install()
            try:
                record = client.run_pass(argvs)
            finally:
                tracer.uninstall()
            record["traced"] = traced
            passes.append(record)
            if traced:
                pass_spans = tracer.take()
                layers.append(layer_metrics(pass_spans, workers))
                spans.extend(pass_spans)
        write_jsonl(spans, trace_path)
        untraced = statistics.median(p["wall"] for p in passes if not p["traced"])
        traced_wall = statistics.median(p["wall"] for p in passes if p["traced"])
        result["layers"] = median_metrics(layers)
        result["layers"]["trace.overhead_frac"] = traced_wall / untraced - 1.0
        result["trace_file"] = str(trace_path.relative_to(ROOT))
        passes = [p for p in passes if not p["traced"]]

    result.update(
        passes=[{"wall": p["wall"], "cpu": p["cpu"]} for p in passes],
        latencies=[lat for p in passes for lat in p["latencies"]],
        attempted=client.attempted,
        failed=len(client.failures),
        failures=client.failures[:MAX_REPORTED_FAILURES],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
