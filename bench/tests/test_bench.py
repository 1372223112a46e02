"""Tests of the benchmark itself: span arithmetic, output gates, failure counting.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import qbat.adiabatic
import qbat.model
import spec
import tracing
import workloads
from qbat import cli
from session import Client

ROOT = Path(__file__).resolve().parents[2]


def span(sid, name, start, end, parent=None, tid=1, extra=None):
    return (sid, name, start, end, parent, tid, extra)


# ----------------------------------------------------------------------
# Self time and layer metrics


def test_self_time_of_nested_spans():
    spans = [span(0, "a", 0.0, 10.0), span(1, "b", 1.0, 4.0, 0), span(2, "c", 5.0, 7.0, 0),
             span(3, "d", 2.0, 3.0, 1)]
    assert tracing.self_times(spans) == {0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0}


def test_self_time_is_per_thread():
    # A sweep on thread 1 with two concurrent jobs on threads 2 and 3.
    spans = [span(0, "adiabatic.sweep_tau", 0.0, 10.0, tid=1),
             span(1, "adiabatic.run_discharge", 1.0, 9.0, 0, tid=2),
             span(2, "adiabatic.run_discharge", 2.0, 8.0, 0, tid=3),
             span(3, "kernel.eigh", 3.0, 5.0, 1, tid=2, extra={"matrices": 4, "bytes": 64})]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 10.0, 1: 6.0, 2: 6.0, 3: 2.0}
    layers = tracing.layer_metrics(spans, workers=2)
    assert layers["adiabatic.run_discharge.count"] == 2
    assert layers["adiabatic.run_discharge.self_s"] == 12.0
    assert layers["adiabatic.sweep_tau.busy_frac"] == (8.0 + 6.0) / (2 * 10.0)
    assert layers["adiabatic.sweep_tau.job_wait_s"] == 1.0 + 2.0
    assert layers["kernel.eigh.matrices"] == 4
    assert layers["kernel.eigh.s"] == 2.0


def test_inclusive_time_counts_only_outermost_spans():
    spans = [span(0, "kernel.einsum", 0.0, 4.0), span(1, "kernel.einsum", 1.0, 2.0, 0),
             span(2, "kernel.einsum", 5.0, 6.0)]
    layers = tracing.layer_metrics(spans, workers=1)
    assert layers["kernel.einsum.calls"] == 3
    assert layers["kernel.einsum.s"] == 5.0


def test_tracer_links_worker_spans_and_restores_functions():
    original = qbat.model.hamiltonian_set
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qbat.adiabatic.hamiltonian_set is not original
        qbat.adiabatic.sweep_tau([1.0, 2.0], max_workers=2)
    finally:
        tracer.uninstall()
    assert qbat.model.hamiltonian_set is original
    assert qbat.adiabatic.hamiltonian_set is original
    spans = tracer.take()
    (sweep,) = [s for s in spans if s[1] == "adiabatic.sweep_tau"]
    runs = [s for s in spans if s[1] == "adiabatic.run_discharge"]
    assert len(runs) == 6
    assert all(run[4] == sweep[0] for run in runs)
    assert {run[5] for run in runs} != {threading.get_ident()}
    names = {s[1] for s in spans}
    assert {"kernel.eigh", "kernel.einsum", "qalg.operator_new", "qalg.state_new",
            "model.hamiltonian_set", "adiabatic.min_sector_gap"} <= names
    layers = tracing.layer_metrics(spans, workers=2)
    assert 0.0 < layers["adiabatic.sweep_tau.busy_frac"] <= 1.0


def test_tracer_patches_no_private_name():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        attrs = [attr for _, attr, _ in tracer._patches]
    finally:
        tracer.uninstall()
    assert attrs
    assert all(not a.startswith("_") or (a.startswith("__") and a.endswith("__")) for a in attrs)


# ----------------------------------------------------------------------
# Output gates


def drive_text(ref, change=None):
    """A drive output that matches the reference at every sampled row."""
    sampled = {int(k): v for k, v in ref["sampled_rows"].items()}
    lines = [",".join(ref["header"])]
    last = sampled[0]
    for k in range(ref["n_rows"]):
        row = list(sampled.get(k, last))
        last = sampled.get(k, last)
        if change:
            row = change(k, row)
        lines.append(",".join(f"{v:.15g}" for v in row))
    return "\n".join(lines) + "\n"


def test_drive_gate_accepts_reference_and_rejects_perturbed_charge():
    ref = workloads.reference("drive")
    assert workloads.check_drive(drive_text(ref)) is None
    final = ref["n_rows"] - 1

    def perturb(k, row):
        if k == final:
            row[1] -= 1e-3
        return row
    assert "charge" in workloads.check_drive(drive_text(ref, perturb))

    def drain(k, row):
        if k == final:
            row[1] = 0.99
        return row
    assert "< 0.999" in workloads.check_drive(drive_text(ref, drain))

    def leak(k, row):
        if k == 17:
            row[4] = 1e-9
        return row
    assert "leakage" in workloads.check_drive(drive_text(ref, leak))


def csv_text(header, rows):
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


def test_sweep_gate_checks_row_order_and_values():
    text = workloads.reference("sweep")["output"]
    assert workloads.check_sweep(text) is None
    header, rows = workloads.parse_csv(text)
    swapped = [rows[1], rows[0]] + rows[2:]
    assert workloads.check_sweep(csv_text(header, swapped)) is not None
    rows[-1][-1] = repr(float(rows[-1][-1]) - 1e-4)
    assert workloads.check_sweep(csv_text(header, rows)) is not None


def scan_text(counts):
    lines = ["metric,value", "constraint_trace_distance,1.11022302462516e-16"]
    lines += [f"{k},{v}" for k, v in counts.items()]
    return "\n".join(lines) + "\n"


def test_scan_gate_follows_the_seed(tmp_path):
    # Seed 1908 is a seed on which one restricted draw passes the
    # available-energy test, so the expected counts are not the same for all seeds.
    argv = ("trap-scan", "--samples", str(workloads.SCAN_SAMPLES), "--seed", "1908")
    expected = workloads.scan_expected(1908, workloads.SCAN_SAMPLES)
    assert expected["n_pass_available_energy"] == 1
    assert workloads.check("scan", argv, run_cli(argv, tmp_path), expected) is None
    assert workloads.scan_expected(3, workloads.SCAN_SAMPLES)["n_pass_available_energy"] == 0


def test_scan_gate_rejects_a_changed_count():
    expected = workloads.scan_expected(3, workloads.SCAN_SAMPLES)
    assert workloads.check_scan(scan_text(expected), expected) is None
    for name in ("n_pass_zero_ec", "n_samples", "n_unrestricted_counterexamples"):
        changed = dict(expected, **{name: expected[name] + 1})
        assert name in workloads.check_scan(scan_text(changed), expected)


def run_cli(argv, tmp_path):
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--output", str(out)]) == 0
    return out.read_text()


def test_calls_gate_compares_every_row(tmp_path):
    argv = ("discharge", "--bell", "11", "--gate", "half", "--gate-qubit", "2")
    text = run_cli(argv, tmp_path)
    assert workloads.check("calls", argv, text) is None
    header, rows = workloads.parse_csv(text)
    perturbed = [list(r) for r in rows]
    perturbed[30][1] = repr(float(rows[30][1]) + 1e-6)
    assert "row 30 charge_over_E0" in workloads.check("calls", argv, csv_text(header, perturbed))
    # Two interior rows swapped keep every column's extremes, sum and endpoints.
    swapped = rows[:100] + [rows[101], rows[100]] + rows[102:]
    assert "row 100" in workloads.check("calls", argv, csv_text(header, swapped))
    assert workloads.check("calls", argv, csv_text(header, rows[:-1])) is not None


def test_ncell_gate_uses_the_per_cell_law(tmp_path):
    argv = ("ncell", "--plan", "f,H,hold,half")
    text = run_cli(argv, tmp_path)
    assert workloads.check("calls", argv, text) is None
    header, rows = workloads.parse_csv(text)
    assert rows[-1][:2] == ["total", ""]
    rows[-1][2] = "5"
    assert "total" in workloads.check("calls", argv, csv_text(header, rows))


def test_every_reference_call_has_a_reference():
    calls = workloads.reference("calls")
    assert set(calls) == {" ".join(a) for a in workloads.catalogue()}
    mix = workloads.call_mix(5)
    assert len(mix) == workloads.CALLS_PER_PASS
    assert mix == workloads.call_mix(5) != workloads.call_mix(6)
    assert all(a[0] == "ncell" or " ".join(a) in calls for a in mix)


# ----------------------------------------------------------------------
# Failure counting


class ExitCode:
    """Stands in for qbat.cli: every call exits with ``code``."""

    def __init__(self, code):
        self.code = code

    def main(self, argv):
        return self.code


def test_nonzero_exit_counts_as_failed(tmp_path):
    client = Client(ExitCode(1), "calls", tmp_path / "out.csv", None)
    record = client.run_pass([("trap-check",), ("trap-check",)])
    assert client.attempted == 2
    assert len(client.failures) == 2
    assert "exit code 1" in client.failures[0]
    assert len(record["latencies"]) == 2


def test_rejected_input_counts_as_failed(tmp_path):
    client = Client(cli, "calls", tmp_path / "out.csv", None)
    client.run_pass([("trap-check",), ("adiabatic", "--jtau", "-1")])
    assert client.attempted == 2
    assert client.failures == ["adiabatic --jtau -1: exit code 2"]


# ----------------------------------------------------------------------
# The benchmark's declaration


def test_benchmark_json_matches_the_measured_metrics():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in config["per_layer"]]
    assert per_layer == list(spec.TARGETS)
    measured = set(tracing.layer_metrics([], workers=1)) | {"trace.overhead_frac"}
    assert set(per_layer) == measured
    end_to_end = {m["name"] for m in config["end_to_end"]}
    assert {"setup_s", "wall_s", "cpu_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb"} == end_to_end
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    for targets in spec.TARGETS.values():
        for metric, workload in targets:
            assert metric in end_to_end and workload in workloads.WORKLOADS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "drive", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
