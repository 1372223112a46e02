import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbat import adiabatic, cli, dynamics, model, protocols
from qbat.adiabatic import MAX_STEPS, SWEEP_SAMPLES, AdiabaticSpec, _drive_steps
from qbat.cli import MAX_ROWS, main
from qbat.dynamics import MAX_JT, STEPS_PER_UNIT_JT
from qbat.qalg import Operator, PureState


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def _assert_one_line_usage_error(args, capsys):
    # argparse's rejections print one error line and no usage block
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_missing_subcommand_is_usage_error(capsys):
    for args in ([], ["discharge", "--bell"]):
        _assert_one_line_usage_error(args, capsys)


def test_unknown_flag_is_usage_error(capsys):
    for args in (["discharge", "--bell", "10", "--bogus"],
                 ["discharge", "--bell", "10", "--tmax", "abc"],
                 ["discharge", "--bell", "10", "--tmax", "-inf"]):
        _assert_one_line_usage_error(args, capsys)


def test_bad_bell_label_is_usage_error(capsys):
    for label in ("1x", "2"):
        _assert_one_line_usage_error(["discharge", "--bell", label], capsys)


def test_invalid_parameter_names_field(capsys):
    code, _, err = run_cli(["discharge", "--bell", "10", "--omega", "-1"], capsys)
    assert code == 2
    assert "omega" in err


def test_discharge_full_release_peak(capsys):
    code, out, _ = run_cli(["discharge", "--bell", "10"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0].keys()) == ["t_J", "charge_over_E0", "ec_hbar_omega_J"]
    charges = np.array([float(r["charge_over_E0"]) for r in rows])
    times = np.array([float(r["t_J"]) for r in rows])
    peak = int(np.argmax(charges))
    assert charges[peak] == pytest.approx(1.0, abs=1e-12)
    assert times[peak] == pytest.approx(math.pi / (4 * math.sqrt(2)), abs=1e-12)


def test_discharge_stored_state_stays_flat(capsys):
    code, out, _ = run_cli(["discharge", "--bell", "11"], capsys)
    assert code == 0
    charges = [abs(float(r["charge_over_E0"])) for r in parse_csv(out)]
    assert max(charges) <= 1e-12


def test_discharge_gate_unblocks(capsys):
    code, out, _ = run_cli(["discharge", "--bell", "11", "--gate", "full"], capsys)
    assert code == 0
    charges = [float(r["charge_over_E0"]) for r in parse_csv(out)]
    assert max(charges) == pytest.approx(1.0, abs=1e-12)
    code, out, _ = run_cli(["discharge", "--bell", "11", "--gate", "half",
                            "--gate-qubit", "2"], capsys)
    charges = [float(r["charge_over_E0"]) for r in parse_csv(out)]
    assert max(charges) == pytest.approx(0.5, abs=1e-12)


def test_single_particle_columns(capsys):
    code, out, _ = run_cli(["single-particle"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert "closed_form_over_E0" in rows[0]
    gap = max(abs(float(r["charge_over_E0"]) - float(r["closed_form_over_E0"]))
              for r in rows)
    assert gap <= 1e-9
    peak = max(float(r["charge_over_E0"]) for r in rows)
    assert peak == pytest.approx(1.0, abs=1e-12)


def test_ncell_totals(capsys):
    code, out, _ = run_cli(["ncell", "--plan", "f,H,h"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [r["action"] for r in rows[:3]] == ["full", "half", "hold"]
    total = [r for r in rows if r["cell"] == "total"][0]
    assert float(total["energy_hbar_omega"]) == pytest.approx(3.0, abs=1e-9)


def test_ncell_rejects_bad_plan(capsys):
    code, _, err = run_cli(["ncell", "--plan", "f,q"], capsys)
    assert code == 2
    assert "action" in err


def test_trap_check_table(capsys):
    code, out, _ = run_cli(["trap-check"], capsys)
    assert code == 0
    rows = {r["state"]: r for r in parse_csv(out)}
    assert rows["bell_11"]["trapped"] == "true"
    assert rows["bell_10"]["trapped"] == "false"
    assert rows["empty_000"]["trapped"] == "true"


def test_trap_check_builds_the_current_once(capsys, monkeypatch):
    # the five checks of a call, and later calls, read the current kept on
    # the shared set; drop it first, so this call has to build it
    monkeypatch.delitem(vars(model.hamiltonian_set()), "current", raising=False)
    calls = []
    ec_operator = model.ec_operator

    def counted(*args):
        calls.append(args)
        return ec_operator(*args)

    monkeypatch.setattr(model, "ec_operator", counted)
    first = run_cli(["trap-check"], capsys)
    assert run_cli(["trap-check"], capsys) == first
    assert len(calls) == 1


def _count_values_built(monkeypatch) -> Counter:
    """Count every Operator and PureState constructed from now on."""
    built = Counter()
    for cls in (Operator, PureState):
        def counted(self, post_init=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


@pytest.mark.parametrize("argv, values", [
    (["trap-check"], Counter(PureState=1)),
    (["discharge", "--bell", "11"], Counter()),
    (["discharge", "--bell", "11", "--gate", "full"], Counter()),
    (["discharge", "--bell", "00", "--gate", "half", "--gate-qubit", "2"], Counter()),
], ids=["trap-check", "discharge", "discharge gated", "discharge gated qubit 2"])
def test_cell_states_are_built_once_per_process(capsys, monkeypatch, argv, values):
    # the Bell cells, gated or not, are cached, so a later call builds only
    # trap-check's |000>
    first = run_cli(argv, capsys)
    built = _count_values_built(monkeypatch)
    assert run_cli(argv, capsys) == first
    assert built == values


def test_ncell_after_the_first_call_builds_no_value(capsys, monkeypatch):
    # the cell set and the three cell states are built once per process,
    # so a later call only solves
    first = run_cli(["ncell", "--plan", "f,H,h"], capsys)
    built = _count_values_built(monkeypatch)
    assert run_cli(["ncell", "--plan", "f,H,h"], capsys) == first
    assert run_cli(["ncell", "--plan", "hold,full,F,H"], capsys)[0] == 0
    assert built == Counter()
    run_cli(["trap-check"], capsys)  # the counter does count: it builds |000>
    assert built["PureState"] > 0


@pytest.mark.parametrize("argv", [["discharge", "--bell", "10"],
                                  ["discharge", "--bell", "11", "--gate", "half"],
                                  ["single-particle"]])
def test_constant_coupling_calls_read_the_sets_current(capsys, monkeypatch, argv):
    # the current operator of the coupling is the one kept on its set
    monkeypatch.setattr(dynamics, "ec_operator", lambda *args: pytest.fail("ec_operator called"))
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert max(float(row["ec_hbar_omega_J"]) for row in parse_csv(out)) > 1.0


@pytest.mark.parametrize("rates", [
    ["--j", "1e8"],
    ["--j", "1e12"],
    ["--omega", "1e12", "--j", "1e12"],
    ["--omega", "1e-6", "--j", "1e-6"],
    ["--j", "1e-12"],
    ["--omega", "1e-12", "--j", "1e-12"],
])
def test_trap_check_verdict_is_scale_free(capsys, rates):
    # the residuals grow with J and omega*J; the verdict must not
    code, out, err = run_cli(["trap-check", *rates], capsys)
    assert code == 0 and err == ""
    trapped = {r["state"]: r["trapped"] for r in parse_csv(out)}
    assert trapped == {"bell_00": "false", "bell_01": "false", "bell_10": "false",
                       "bell_11": "true", "empty_000": "true"}


def test_trap_scan_summary(capsys):
    code, out, _ = run_cli(["trap-scan", "--samples", "200"], capsys)
    assert code == 0
    metrics = {r["metric"]: r["value"] for r in parse_csv(out)}
    assert metrics["n_counterexamples"] == "0"
    assert float(metrics["constraint_trace_distance"]) <= 1e-10


def test_separable_grid(capsys):
    code, out, _ = run_cli(["separable", "--grid", "5"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 25
    best = max(rows, key=lambda r: float(r["cmax_over_E0"]))
    assert (float(best["beta1"]), float(best["beta2"])) == (1.0, 1.0)
    assert float(best["cmax_over_E0"]) == pytest.approx(1.0, abs=1e-12)


def test_adiabatic_trajectory(capsys):
    code, out, _ = run_cli(["adiabatic", "--jtau", "5", "--samples", "33",
                            "--schedule", "sin2"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 33
    assert "fidelity_target" in rows[0] and "leakage_forbidden" in rows[0]
    assert max(abs(float(r["leakage_forbidden"])) for r in rows) <= 1e-10


def test_sweep_tau_rows(capsys):
    code, out, _ = run_cli(["sweep-tau", "--from", "0", "--to", "2", "--points", "2"],
                           capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 6  # points x schedules
    assert [r["schedule"] for r in rows[:3]] == ["linear", "sin2", "smoothstep"]
    zero = [r for r in rows if float(r["tau_J"]) == 0.0]
    assert all(abs(float(r["final_charge_over_E0"])) <= 1e-9 for r in zero)


def test_json_mirrors_csv(capsys, tmp_path):
    args = ["discharge", "--bell", "10", "--samples", "17"]
    code, out_csv, _ = run_cli(args + ["--format", "csv"], capsys)
    code_json, out_json, _ = run_cli(args + ["--format", "json"], capsys)
    assert code == 0 and code_json == 0
    rows_csv = parse_csv(out_csv)
    rows_json = json.loads(out_json)
    assert len(rows_csv) == len(rows_json)
    for rc, rj in zip(rows_csv, rows_json):
        for key in rj:
            assert float(rc[key]) == pytest.approx(rj[key], abs=1e-15)


@pytest.mark.parametrize("argv, first_read", [
    (["separable", "--grid", "256"], b"beta1,beta"),  # 3.5 MB: fails while writing
    (["trap-check"], b""),  # fits the pipe buffer: fails in the final flush
], ids=["large", "small"])
def test_a_closed_stdout_ends_the_run_quietly(argv, first_read):
    # the reader leaves after its first read, as `head` does: no error line,
    # and the exit code a shell gives a producer ended by SIGPIPE
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as in a plain shell
    with subprocess.Popen([sys.executable, "-m", "qbat.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.read(len(first_read)) == first_read
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 141 and err == b""


def test_a_run_started_with_stdout_closed_is_a_parameter_error():
    # descriptor 1 closed, as `qbat trap-check >&-` starts it: stdout is an
    # output that cannot be written, rejected with one line before any work
    # (test_a_run_without_stdout_still_writes_its_output_file covers --output)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "qbat.cli", "trap-check"], env=env,
                         stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=60)
    assert run.returncode == 2
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith(b"error: ")


@pytest.mark.parametrize("output, stream", [("/dev/stdout", "stdout"), ("log.txt", "stdout"),
                                            ("/dev/stderr", "stderr")],
                         ids=["dev-stdout", "the-file-itself", "dev-stderr"])
def test_an_output_to_stdout_appended_to_a_file_keeps_the_file(tmp_path, output, stream):
    # `qbat trap-check --output /dev/stdout >> FILE`, `--output FILE >> FILE`
    # or `--output /dev/stderr 2>> FILE`: a reopened /dev/stdout would
    # truncate FILE, and a replaced FILE would lose it, so the output goes
    # through the shell's descriptor
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    path = tmp_path / "log.txt"
    path.write_text("prior\n")
    with open(path, "a") as appended:
        run = subprocess.run([sys.executable, "-m", "qbat.cli", "trap-check", "--output",
                              output], env=env, cwd=tmp_path, timeout=60, **{stream: appended})
    table = subprocess.run([sys.executable, "-m", "qbat.cli", "trap-check"], env=env,
                           stdout=subprocess.PIPE, text=True, timeout=60).stdout
    assert run.returncode == 0 and table.startswith("state,")
    assert path.read_text() == "prior\n" + table


def test_a_selftest_appended_to_its_output_file_keeps_the_file(tmp_path):
    # `qbat selftest --output FILE >> FILE`: FILE's earlier bytes, then the
    # criterion lines printed as each runs, then the table
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    path = tmp_path / "log.txt"
    path.write_text("prior\n")
    with open(path, "a") as appended:
        run = subprocess.run([sys.executable, "-m", "qbat.cli", "selftest", "--output",
                              "log.txt"], env=env, cwd=tmp_path, stdout=appended, timeout=600)
    prior, *lines = path.read_text().splitlines()
    criteria = [f"AC-{i}" for i in range(1, 14)]
    assert run.returncode == 0 and prior == "prior" and len(lines) == 27
    assert [line.split(" ")[:2] for line in lines[:13]] == [[name, "PASS"] for name in criteria]
    assert lines[13] == "criterion,passed,description,details,elapsed_s"
    assert [row.split(",")[:2] for row in lines[14:]] == [[name, "true"] for name in criteria]


def test_a_read_only_output_file_is_kept(monkeypatch, tmp_path, capsys):
    # a rename would replace it whatever its mode; os.access answers as it
    # would for a user without write permission on it (root may write anything)
    path = tmp_path / "t.csv"
    path.write_text("old output\n")
    access = os.access
    monkeypatch.setattr(os, "access", lambda p, mode: access(p, mode) and str(p) != str(path))
    code, out, err = run_cli(["trap-check", "--output", str(path)], capsys)
    assert code == 2 and out == "" and err.startswith("error: cannot write")
    assert path.read_text() == "old output\n"


@pytest.mark.parametrize("kind", ["dangling-link", "link-loop", "name-of-256-bytes",
                                  "link-to-a-missing-descriptor"])
def test_an_output_path_the_writer_would_fail_on_is_rejected_before_any_work(
        monkeypatch, tmp_path, capsys, kind):
    # the path is judged as it will be written: a link by the file it names,
    # and a name longer than the file system takes (255 bytes) as unwritable;
    # /dev/stdout with descriptor 1 closed names a missing /proc/self/fd entry
    if kind == "link-to-a-missing-descriptor":
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs procfs")
        fd = os.open(os.devnull, os.O_RDONLY)
        os.close(fd)
        path = tmp_path / "link"
        path.symlink_to(f"/proc/self/fd/{fd}")
    elif kind == "dangling-link":
        path = tmp_path / "link"
        path.symlink_to(tmp_path / "missing" / "out.csv")
    elif kind == "link-loop":
        path = tmp_path / "one"
        path.symlink_to(tmp_path / "two")
        (tmp_path / "two").symlink_to(path)
    else:
        path = tmp_path / ("x" * 256)
    before = sorted(os.listdir(tmp_path))

    def unreached(*_args, **_kwargs):
        raise AssertionError("a rejected output reached the scan")

    monkeypatch.setattr(cli, "trapping_uniqueness_scan", unreached)
    code, out, err = run_cli(["trap-scan", "--samples", "200000", "--output", str(path)],
                             capsys)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write the output file {str(path)!r}\n"
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("length", [238, 255])
def test_an_output_name_of_any_legal_length_is_written_whole(tmp_path, capsys, length):
    # the file written beside the path has a name of its own fixed length, so
    # a name up to the file system's 255 bytes is written
    path = tmp_path / ("x" * length)
    _, table, _ = run_cli(["trap-check"], capsys)
    assert run_cli(["trap-check", "--output", str(path)], capsys) == (0, "", "")
    assert path.read_text() == table and os.listdir(tmp_path) == [path.name]


def test_a_run_without_stdout_still_writes_its_output_file(monkeypatch, tmp_path):
    # an interpreter started with descriptor 1 closed sets sys.stdout to None
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["trap-check", "--output", str(tmp_path / "t.csv")]) == 0
    assert (tmp_path / "t.csv").read_text().startswith("state,")


def test_an_interrupted_run_prints_one_line(monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "trapping_uniqueness_scan", interrupted)
    code, out, err = run_cli(["trap-scan", "--samples", "10"], capsys)
    assert (code, out, err) == (130, "", "error: interrupted\n")


def test_output_files_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code = main(["trap-scan", "--samples", "150", "--seed", "7",
                     "--output", str(path)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# Short calls that share one parser within a process: every command line of
# the benchmark's `calls` mix, then lines setting the flags those leave at
# their defaults, and one usage error.
_REUSE_LINES = [
    ["discharge", "--bell", "10"],
    ["discharge", "--bell", "11"],
    ["discharge", "--bell", "11", "--gate", "full"],
    ["discharge", "--bell", "11", "--gate", "half", "--gate-qubit", "2"],
    ["discharge", "--bell", "10", "--samples", "17"],
    ["trap-check"],
    ["single-particle"],
    ["separable", "--grid", "101"],
    ["separable", "--grid", "5"],
    ["ncell", "--plan", "f,H,h"],
    ["discharge", "--bell", "01", "--gate", "half", "--tmax", "0.5", "--samples", "9",
     "--format", "json"],
    ["single-particle", "--tmax", "1.5", "--samples", "17", "--format", "json"],
    ["trap-scan", "--samples", "40", "--seed", "9", "--tol", "0.5"],
    ["separable", "--grid", "4", "--seed", "3", "--format", "json"],
    ["discharge", "--bell", "12"],
]


@pytest.mark.parametrize("line", _REUSE_LINES, ids=" ".join)
def test_a_reused_parser_leaks_nothing_between_calls(capsys, line):
    # main parses every call with the process's one parser; after any other
    # line, this one writes the same bytes and exit code as on a fresh parser
    cli._parser.cache_clear()
    alone = run_cli(line, capsys)
    assert alone[0] == (2 if line[-1] == "12" else 0)
    for before in _REUSE_LINES:
        run_cli(before, capsys)
        assert run_cli(line, capsys) == alone, before


def test_config_file_and_flag_override(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "qbat.json").write_text(json.dumps({"format": "json", "seed": 9}))
    code, out, _ = run_cli(["trap-scan", "--samples", "50"], capsys)
    assert code == 0
    assert json.loads(out)[-1] == {"metric": "seed", "value": 9}
    # a flag beats the file
    code, out, _ = run_cli(["trap-scan", "--samples", "50", "--format", "csv"], capsys)
    assert code == 0
    assert out.startswith("metric,")


def test_config_file_unknown_key(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "qbat.json").write_text(json.dumps({"omgea": 1.0}))
    code, _, err = run_cli(["trap-check"], capsys)
    assert code == 2
    assert "omgea" in err


def test_missing_config_path_is_error(capsys):
    code, _, err = run_cli(["trap-check", "--config", "/nonexistent/qbat.json"], capsys)
    assert code == 2


def test_qbat_threads_validation(capsys, monkeypatch):
    monkeypatch.setenv("QBAT_THREADS", "zero")
    code, _, err = run_cli(["sweep-tau", "--from", "1", "--to", "2", "--points", "2"],
                           capsys)
    assert code == 2
    assert "QBAT_THREADS" in err


def test_qbat_threads_parallel_matches_serial(capsys, monkeypatch):
    # CSV and JSON are byte-identical for any worker count, over random sweeps
    rng = np.random.default_rng(8)
    for _ in range(3):
        low, high = np.sort(rng.uniform(0.0, 4.0, size=2))
        args = ["sweep-tau", "--from", f"{low:.4f}", "--to", f"{high:.4f}",
                "--points", str(rng.integers(1, 4)), "--j", f"{rng.uniform(0.2, 3.0):.4f}"]
        for fmt in ("csv", "json"):
            outputs = set()
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("QBAT_THREADS", threads)
                code, out, _ = run_cli(args + ["--format", fmt], capsys)
                assert code == 0
                outputs.add(out)
            assert len(outputs) == 1


def test_adiabatic_rejects_nonpositive_jtau(capsys):
    code, _, err = run_cli(["adiabatic", "--jtau", "0"], capsys)
    assert code == 2
    assert "jtau" in err


def test_readme_quickstart():
    from qbat import (hamiltonian_set, sample_trajectory,
                      BellLabel, bell_with_empty_hub, DISCHARGE_TIME)

    hs = hamiltonian_set()
    series = sample_trajectory(hs.h_charging, bell_with_empty_hub(BellLabel(1, 0)),
                               2 * DISCHARGE_TIME, 257, hs)
    assert series.charge.max() == pytest.approx(2.0, abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args", [
    ["adiabatic", "--jtau", "inf"],
    ["adiabatic", "--jtau", "nan"],
    ["discharge", "--bell", "10", "--omega", "inf"],
    ["discharge", "--bell", "10", "--tmax", "inf"],
    ["single-particle", "--tmax", "inf"],
    ["adiabatic", "--jtau", "5", "--j", "inf"],
    ["sweep-tau", "--from", "0", "--to", "inf", "--points", "2"],
    ["sweep-tau", "--from", "nan", "--to", "1", "--points", "2"],
    ["trap-check", "--tol", "nan"],
    ["trap-check", "--tol", "inf"],
    ["trap-scan", "--samples", "20", "--tol", "nan"],
    # sample spacings below the smallest normal float
    ["discharge", "--bell", "10", "--tmax", "1e-320", "--samples", "65536"],
    ["sweep-tau", "--from", "0", "--to", "1e-321", "--points", "2"],
    ["adiabatic", "--jtau", "1e-322", "--samples", "65536", "--j", "1e-6"],
    # runs longer than MAX_JT
    ["discharge", "--bell", "10", "--tmax", "1e308", "--samples", "3"],
    ["single-particle", "--tmax", "1e308"],
    ["adiabatic", "--jtau", "1e308"],
    ["sweep-tau", "--from", "0", "--to", "1e308", "--points", "2"],
])
def test_non_finite_values_are_parameter_errors(capsys, monkeypatch, args):
    # rejected before any propagation or stepping
    def unreached(*_args, **_kwargs):
        raise AssertionError("a rejected run reached the propagators")

    monkeypatch.setattr(adiabatic, "_stepped_states", unreached)
    monkeypatch.setattr(dynamics, "_spectral", unreached)
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


_AT_CEILING = [
    ["separable", "--grid", "5", "--omega", "1e12"],
    ["ncell", "--plan", "f,H,h", "--omega", "1e12"],
    ["discharge", "--bell", "10", "--j", "1e12"],
    ["discharge", "--bell", "10", "--omega", "1e12", "--j", "1e12"],
    ["trap-check", "--omega", "1e12", "--j", "1e12"],
    ["trap-scan", "--samples", "20", "--omega", "1e12", "--j", "1e12"],
    ["single-particle", "--omega", "1e12", "--j", "1e12"],
    ["adiabatic", "--jtau", "1", "--samples", "9", "--omega", "1e12", "--j", "1e12"],
    ["sweep-tau", "--from", "1", "--to", "2", "--points", "2", "--j", "1e12"],
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args", _AT_CEILING)
def test_rates_at_the_ceiling_run(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 0
    assert err == "" and out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args", [
    ["discharge", "--bell", "10", "--tmax", "1e9", "--samples", "3"],
    ["single-particle", "--tmax", "1e9", "--samples", "3"],
])
def test_runs_of_max_jt_run(capsys, args):
    assert float(args[args.index("--tmax") + 1]) == MAX_JT
    code, out, err = run_cli(args, capsys)
    assert code == 0 and err == ""
    assert len(parse_csv(out)) == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args", _AT_CEILING)
def test_rates_at_the_floor_run(capsys, args):
    # the floor is 1 / RATE_CEILING = 1e-12
    code, out, err = run_cli(["1e-12" if a == "1e12" else a for a in args], capsys)
    assert code == 0
    assert err == "" and out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", ["1.000001e12", "1e200", "1e308",
                                   "1e-13", "1e-170", "5e-324"])
@pytest.mark.parametrize("args", _AT_CEILING)
def test_rates_above_the_ceiling_are_parameter_errors(capsys, args, value):
    args = [value if a == "1e12" else a for a in args]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["discharge", "--bell", "10", "--samples", str(MAX_ROWS + 1)],
    ["single-particle", "--samples", str(MAX_ROWS + 1)],
    ["adiabatic", "--jtau", "1", "--samples", str(MAX_ROWS + 1)],
    ["separable", "--grid", "257"],
    ["sweep-tau", "--from", "1", "--to", "2", "--points", str(MAX_ROWS // 3 + 1)],
    ["ncell", "--plan", ",".join(["h"] * MAX_ROWS)],
], ids=["discharge", "single-particle", "adiabatic", "separable", "sweep-tau", "ncell"])
def test_row_counts_above_the_ceiling_are_parameter_errors(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"more than {MAX_ROWS}" in err


@pytest.mark.parametrize("grid", [-300, -257, -3, 0, 1])
def test_separable_grids_below_two_get_the_librarys_error(capsys, grid):
    # a negative grid squared is no row count: the row ceiling must not speak first
    code, out, err = run_cli(["separable", "--grid", str(grid)], capsys)
    assert (code, out, err) == (2, "", f"error: grid_n must be >= 2, got {grid}\n")


def test_separable_runs_at_the_row_ceiling(capsys):
    code, out, err = run_cli(["separable", "--grid", "256"], capsys)
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1 + MAX_ROWS


@pytest.mark.parametrize("args", [
    ["trap-check", "--output", "{dir}"],
    ["trap-check", "--config", "{dir}"],
    ["trap-check", "--output", "{dir}/missing/out.csv"],
    ["trap-scan", "--samples", "1000000", "--output", "{dir}/missing/out.csv"],
    ["selftest", "--output", "{dir}"],
    ["trap-check", "--output", "{dir}/plain.txt/out.csv"],
], ids=["output-is-a-directory", "config-is-a-directory", "output-in-a-missing-directory",
        "scan-output-in-a-missing-directory", "selftest-output-is-a-directory",
        "output-under-a-file"])
def test_unusable_paths_are_parameter_errors(tmp_path, capsys, args):
    # the paths are checked before any work: a million-sample scan and the
    # whole acceptance suite would take seconds
    (tmp_path / "plain.txt").write_text("")
    start = time.perf_counter()
    code, out, err = run_cli([a.format(dir=tmp_path) for a in args], capsys)
    assert time.perf_counter() - start < 0.3
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("config", [
    {"output": 2}, {"output": ""}, {"omega": True}, {"omega": "2.5"}, {"j_coupling": None},
], ids=["output-int", "output-empty", "omega-bool", "omega-str", "j_coupling-null"])
def test_config_values_of_the_wrong_type_are_parameter_errors(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(["ncell", "--plan", "f", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {next(iter(config))} ")


def test_config_rates_may_be_json_integers(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"omega": 2, "j_coupling": 3}))
    code, out, err = run_cli(["ncell", "--plan", "f,H", "--config", str(path)], capsys)
    assert code == 0 and err == ""
    assert parse_csv(out)[-1]["energy_hbar_omega"] == "3"


@pytest.mark.parametrize("args, over", [
    (["adiabatic", "--jtau", "96", "--samples", "2"], False),
    (["adiabatic", "--jtau", "96.01", "--samples", "2"], True),
    (["sweep-tau", "--from", "0", "--to", "32", "--points", "2"], False),
    (["sweep-tau", "--from", "0", "--to", "32.01", "--points", "2"], True),
], ids=["adiabatic-at", "adiabatic-above", "sweep-tau-at", "sweep-tau-above"])
def test_drive_steps_at_and_above_the_ceiling(capsys, monkeypatch, args, over):
    # a ceiling of 3 * 32 units of Jtau stands in for MAX_STEPS to keep the
    # runs at it short: one drive at Jtau = 96, or a sweep's three drives at
    # 32, each 256 steps over its 257 samples (at 32.01, 512 each)
    ceiling = 3 * STEPS_PER_UNIT_JT * 32
    monkeypatch.setattr(adiabatic, "MAX_STEPS", ceiling)
    code, out, err = run_cli(args, capsys)
    if over:
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"more than {ceiling}" in err
    else:
        assert code == 0 and err == "" and out


@pytest.mark.parametrize("samples, over", [("64", False), ("65", True)])
def test_trap_scan_samples_at_and_above_the_ceiling(capsys, monkeypatch, samples, over):
    # a ceiling of 64 stands in for protocols.MAX_SCAN_SAMPLES = 2**20
    monkeypatch.setattr(protocols, "MAX_SCAN_SAMPLES", 64)
    code, out, err = run_cli(["trap-scan", "--samples", samples], capsys)
    if over:
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "[1, 64], got 65" in err
    else:
        assert code == 0 and err == "" and out


def test_max_scan_samples_rejects_long_scans_up_front(capsys):
    # 2**20 is the smallest power of two that admits a scan of 10**6 samples
    assert protocols.MAX_SCAN_SAMPLES == 2**20 > 10**6 > 2**19
    start = time.perf_counter()
    code, out, err = run_cli(["trap-scan", "--samples", str(2**20 + 1)], capsys)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert time.perf_counter() - start < 1.0


def test_max_steps_rejects_long_drives_up_front(capsys):
    # adiabatic --jtau 16384 --samples 2 takes exactly MAX_STEPS steps, and a
    # sweep to 5440 takes no more, 3 * 43,520 steps over its runs' 257
    # samples; at 5440.01 each run rounds up to 43,776.  A longer run, a sweep
    # of many short runs (each takes at least 256 steps) and a run time whose
    # step count overflows (also longer than MAX_JT, which the step count
    # checks only after MAX_STEPS) are rejected before any stepping
    assert _drive_steps(AdiabaticSpec(16384.0), 2) == MAX_STEPS == 2**17
    sweep_steps = [len(adiabatic.Schedule) * _drive_steps(AdiabaticSpec(jtau), SWEEP_SAMPLES)
                   for jtau in (5440.0, 5440.01)]
    assert sweep_steps[0] <= MAX_STEPS < sweep_steps[1]
    for args in (["adiabatic", "--jtau", "16385", "--samples", "2"],
                 ["sweep-tau", "--from", "0", "--to", "5440.01", "--points", "2"],
                 ["sweep-tau", "--from", "0", "--to", "1e-3", "--points", "200"]):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and f"more than {MAX_STEPS}" in err
    for run in (lambda: adiabatic.run_discharge(AdiabaticSpec(1e308), n_samples=2),
                lambda: adiabatic.sweep_tau([0.0, 1e308])):
        with pytest.raises(ValueError, match=f"more than {MAX_STEPS}"):
            run()


def test_config_seed_must_be_integer(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1.7}))
    code, _, err = run_cli(["trap-scan", "--samples", "50", "--config", str(path)], capsys)
    assert code == 2
    assert "seed" in err


def test_selftest_json_rows_carry_elapsed(tmp_path, capsys, monkeypatch):
    from qbat import acceptance
    monkeypatch.setattr(acceptance, "CRITERIA", (acceptance.ac12_dephasing_fixpoint,))
    path = tmp_path / "report.json"
    code, _, _ = run_cli(["selftest", "--format", "json", "--output", str(path)], capsys)
    assert code == 0
    (row,) = json.loads(path.read_text())
    assert row["criterion"] == "AC-12"
    assert 0.0 <= row["elapsed_s"] < 60.0


@pytest.mark.parametrize("flags, config", [(["--omega", "5"], None), ([], {"j_coupling": 2})])
def test_selftest_rejects_rates(tmp_path, capsys, monkeypatch, flags, config):
    # selftest sets its own omega and J, so a given rate, by flag or by
    # qbat.json, is a parameter error raised before any criterion runs
    from qbat import acceptance
    monkeypatch.setattr(acceptance, "run_all", lambda seed: pytest.fail("criteria ran"))
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "qbat.json").write_text(json.dumps(config))
    code, out, err = run_cli(["selftest", *flags], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# One short command line per subcommand except selftest.
_EVERY_COMMAND = [
    ["discharge", "--bell", "10", "--samples", "33"],
    ["discharge", "--bell", "11", "--gate", "half", "--tmax", "2.5", "--samples", "9"],
    ["trap-check"],
    ["trap-scan", "--samples", "200"],
    ["separable", "--grid", "5"],
    ["single-particle", "--samples", "33"],
    ["ncell", "--plan", "f,H,h"],
    ["adiabatic", "--jtau", "20", "--samples", "65", "--schedule", "smoothstep"],
    ["sweep-tau", "--from", "0", "--to", "8", "--points", "3"],
]


@pytest.mark.parametrize("rates", [["--omega", "3", "--j", "7"],
                                   ["--omega", "1e12", "--j", "1e-12"],
                                   ["--omega", "1e-12", "--j", "1e12"]],
                         ids=["3-7", "omega-ceiling", "j-ceiling"])
@pytest.mark.parametrize("args", _EVERY_COMMAND, ids=lambda args: args[0])
def test_rates_change_no_output(capsys, args, rates):
    # every output column is in units of omega and J, and the library computes
    # at omega = J = 1, so a rate anywhere in the band changes no byte
    for fmt in ("csv", "json"):
        default = run_cli([*args, "--format", fmt], capsys)
        assert default[0] == 0 and default[2] == ""
        assert run_cli([*args, *rates, "--format", fmt], capsys) == default


# The CLI contract: any command line either runs, writing at most MAX_ROWS
# rows of finite numbers and no warning, or is rejected up front with exit 2,
# one "error:" line and no output.  MAX_ROWS and MAX_STEPS are patched small
# so that runs at and just over the ceilings stay short; 257 rows admit the
# default sample count of discharge and single-particle, and 768 steps a
# sweep of one positive point, three runs of at least 256 steps.
_ROWS, _STEPS = 257, 768
_SPECIAL = ["0", "-1.5", "-3", "5e-324", "1e-320", "1e300", "1e308", "inf", "-inf", "Infinity",
            "-Infinity", "nan", "abc",
            str(_ROWS - 1), str(_ROWS + 1), str(_STEPS - 1), str(_STEPS + 1)]


_PLANS = st.lists(st.sampled_from(["h", "H", "f", "F", "hold", "half", "full"]),
                  min_size=1, max_size=5).map(",".join)
_COMMON = {"--omega": st.floats(1e-12, 1e12), "--j": st.floats(1e-12, 1e12),
           "--seed": st.integers(0, 2**32), "--format": st.sampled_from(["csv", "json"])}
# Typical values of each subcommand's flags; REQUIRED flags are never left out.
_COMMANDS = {
    "discharge": {"--bell": st.sampled_from(["00", "01", "10", "11"]),
                  "--gate": st.sampled_from(["half", "full"]),
                  "--gate-qubit": st.sampled_from([1, 2]),
                  "--tmax": st.floats(0.01, 10.0), "--samples": st.integers(2, _ROWS)},
    "trap-check": {"--tol": st.sampled_from([1e-10, 1e-3])},
    "trap-scan": {"--samples": st.integers(1, 50), "--tol": st.sampled_from([1e-3, 0.5])},
    "separable": {"--grid": st.integers(2, 8)},
    "single-particle": {"--tmax": st.floats(0.01, 10.0), "--samples": st.integers(2, _ROWS)},
    "ncell": {"--plan": _PLANS},
    "adiabatic": {"--jtau": st.floats(0.5, 20.0),
                  "--schedule": st.sampled_from(["linear", "sin2", "smoothstep"]),
                  "--samples": st.integers(2, _ROWS)},
    "sweep-tau": {"--from": st.floats(0.0, 5.0), "--to": st.floats(0.0, 10.0),
                  "--points": st.integers(1, 4)},
}
_REQUIRED = {"--bell", "--plan", "--jtau", "--from", "--to", "--points"}


@st.composite
def _command_lines(draw):
    # up to two flags take an extreme or malformed value; the others a typical
    # one, or none where the flag is optional
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    flags = {**_COMMANDS[command], **_COMMON}
    odd = draw(st.one_of(st.just(set()), st.sets(st.sampled_from(sorted(flags)), max_size=2)))
    argv = [command]
    for flag, typical in flags.items():
        if flag in odd:
            special = _SPECIAL + [",".join(["f"] * (_ROWS - 1)), ",".join(["f"] * _ROWS)]
            value = draw(st.sampled_from(special if flag == "--plan" else _SPECIAL))
        elif flag in _REQUIRED or draw(st.booleans()):
            value = draw(typical)
        else:
            continue
        argv.append(f"{flag}={value}")  # one token, so "-inf" is a value
    return argv


def _at_and_over(argv, *values):
    return [[*argv, value] for value in values]


# Command lines exactly at and one unit over each patched ceiling.
_CEILING_LINES = [
    *_at_and_over(["discharge", "--bell=10"], f"--samples={_ROWS}", f"--samples={_ROWS + 1}"),
    *_at_and_over(["single-particle"], f"--samples={_ROWS}", f"--samples={_ROWS + 1}"),
    *_at_and_over(["adiabatic", "--samples=2"], f"--jtau={_STEPS // 8}",
                  f"--jtau={_STEPS // 8 + 0.01}"),
    *_at_and_over(["adiabatic", "--jtau=1"], f"--samples={_ROWS}", f"--samples={_ROWS + 1}"),
    *_at_and_over(["separable"], "--grid=16", "--grid=17"),
    *_at_and_over(["ncell"], "--plan=" + ",".join(["f"] * (_ROWS - 1)),
                  "--plan=" + ",".join(["f"] * _ROWS)),
    *_at_and_over(["sweep-tau", "--from=0", "--to=0"], f"--points={_ROWS // 3}",
                  f"--points={_ROWS // 3 + 1}"),
    # three runs at Jtau = 32 take 3 * 256 = 768 steps, at 32.01 3 * 512
    *_at_and_over(["sweep-tau", "--from=0", "--points=2"], "--to=32", "--to=32.01"),
]


def _table(text, fmt):
    if fmt == "json":
        return [list(row.values()) for row in json.loads(text)]
    return list(csv.reader(io.StringIO(text)))[1:]


def _with_ceiling_lines(test):
    for argv in _CEILING_LINES:
        test = example(argv)(test)
    return test


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None)
@_with_ceiling_lines
@given(_command_lines())
def test_cli_contract_property(argv):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "MAX_ROWS", _ROWS)
        patch.setattr(adiabatic, "MAX_STEPS", _STEPS)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), err
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        return
    assert err == ""
    rows = _table(out, "json" if "--format=json" in argv else "csv")
    assert 1 <= len(rows) <= _ROWS
    for row in rows:
        for cell in row:
            try:
                number = float(cell)
            except ValueError:  # a label such as "bell_00", "linear" or "true"
                continue
            assert math.isfinite(number), row
