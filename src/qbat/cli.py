"""Command line front end.

Every subcommand emits either a sampled trajectory or a report as CSV or
JSON with reproducible formatting; physical parameters come from flags, an
optional ``qbat.json`` config file, or their defaults (flags win).  Exit
codes: 0 success, 2 parameter/usage error (an output that cannot be written,
stdout's descriptor closed included), 1 internal failure, 130 interrupted
(Ctrl-C), 141 the reader of the output closed it early (as ``head`` does).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from functools import cache

import numpy as np

from . import adiabatic, dynamics, protocols
from ._io import replaced_whole, write_rows
from .adiabatic import AdiabaticSpec, Schedule
from .model import E0, hamiltonian_set
from .protocols import (
    DISCHARGE_TIME,
    SINGLE_PARTICLE_TRANSFER_TIME,
    BellLabel,
    NCellPlan,
    SwitchGate,
    bell_with_empty_hub,
    separable_sweep,
    single_particle_trajectory,
    trapping_check,
    trapping_uniqueness_scan,
)
from .qalg import ket

CONFIG_FILE = "qbat.json"
# Most output rows any command may produce; checked before any work is done.
MAX_ROWS = 2**16
# Largest accepted --omega and --j; its inverse is the smallest.  The library
# computes at omega = J = 1 and every output column is in units of omega and
# J, so a rate in this band is checked but changes no output.
RATE_CEILING = 1e12


@dataclass(frozen=True)
class RunConfig:
    """Run-wide rates, seed and output selection; the rates set the units the
    output is in, not its numbers."""

    omega: float = 1.0
    j_coupling: float = 1.0
    seed: int = 42
    format: str = "csv"
    output: str = "-"

    def __post_init__(self):
        for rate in ("omega", "j_coupling"):
            value = getattr(self, rate)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{rate} must be a number, got {value!r}")
            if not 1 / RATE_CEILING <= value <= RATE_CEILING:  # NaN included
                raise ValueError(f"{rate} must lie in [{1 / RATE_CEILING:g}, "
                                 f"{RATE_CEILING:g}], got {value}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if not isinstance(self.output, str) or not self.output:
            raise ValueError(f"output must be a non-empty path or '-', got {self.output!r}")


_CONFIG_FIELDS = tuple(f.name for f in fields(RunConfig))


def _load_config_file(path: str | None) -> dict:
    chosen = path or CONFIG_FILE
    if path is None and not os.path.exists(chosen):
        return {}
    with open(chosen, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"config file {chosen} must hold a JSON object")
    for key in data:
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"unknown config field {key!r} in {chosen}")
    return data


def _resolve_config(args) -> RunConfig:
    values = _load_config_file(args.config)
    for name in _CONFIG_FIELDS:
        given = getattr(args, name)
        if given is not None:
            values[name] = given
    return RunConfig(**values)


def _check_writable(path: str) -> None:
    """Reject an output that cannot be written, before any work is done.

    Nothing is opened or created: a run that fails later leaves no empty
    file, and short calls pay no extra open and close of their output.  A
    new or regular file is replaced from a file written beside it, so its
    directory must be writable (and a read-only file is kept); any other
    path is written in place.
    """
    if path == "-":
        if sys.stdout is None:  # started with descriptor 1 closed
            raise OSError("cannot write the output to stdout: its descriptor is closed")
        return
    usable = not os.path.exists(path) or (not os.path.isdir(path) and os.access(path, os.W_OK))
    if replaced_whole(path):
        parent = os.path.dirname(path) or "."
        usable = usable and os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)
    if not usable:
        raise OSError(f"cannot write the output file {path!r}")


def _max_workers() -> int:
    raw = os.environ.get("QBAT_THREADS")
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"QBAT_THREADS must be a positive integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"QBAT_THREADS must be a positive integer, got {workers}")
    return workers


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one line and exit 2 on any usage error, in subparsers too
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--omega", type=float, default=None,
                        help="qubit splitting, the unit of the output's energies (default 1.0)")
    common.add_argument("--j", type=float, default=None, dest="j_coupling", metavar="J",
                        help="XY coupling, the unit of the output's rates (default 1.0)")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized scans (default 42)")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default csv)")
    common.add_argument("--output", default=None,
                        help="output path, '-' for stdout (default '-')")
    common.add_argument("--config", default=None,
                        help=f"config file path (default ./{CONFIG_FILE} when present)")

    parser = _Parser(
        prog="qbat", description="Bell-pair quantum battery simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discharge", parents=[common],
                       help="discharge of one cell prepared in a Bell state")
    p.add_argument("--bell", required=True, choices=("00", "01", "10", "11"),
                   help="Bell label nm of the initial battery state")
    p.add_argument("--gate", choices=("half", "full"), default=None,
                   help="switch gate applied before the evolution")
    p.add_argument("--gate-qubit", type=int, choices=(1, 2), default=1,
                   help="battery qubit the gate acts on (default 1)")
    p.add_argument("--tmax", type=float, default=2 * DISCHARGE_TIME,
                   help="final time in units of 1/J (default two transfer times)")
    p.add_argument("--samples", type=int, default=257)

    p = sub.add_parser("trap-check", parents=[common],
                       help="trapping report for the Bell states and the empty cell")
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("trap-scan", parents=[common],
                       help="scan density matrices for further blocking states")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-3,
                   help="trace-distance tolerance for counterexamples")

    p = sub.add_parser("separable", parents=[common],
                       help="peak charge surface for product battery states")
    p.add_argument("--grid", type=int, default=101)

    p = sub.add_parser("single-particle", parents=[common],
                       help="one-qubit battery baseline")
    p.add_argument("--tmax", type=float, default=2 * SINGLE_PARTICLE_TRANSFER_TIME,
                   help="final time in units of 1/J (default two transfer times)")
    p.add_argument("--samples", type=int, default=257)

    p = sub.add_parser("ncell", parents=[common],
                       help="independent-cell battery bank")
    p.add_argument("--plan", required=True,
                   help="comma list of cell actions: hold/half/full or h/H/f")

    p = sub.add_parser("adiabatic", parents=[common],
                       help="one adiabatic discharge run")
    p.add_argument("--jtau", type=float, required=True,
                   help="dimensionless run time J*tau")
    p.add_argument("--schedule", choices=[s.value for s in Schedule], default="linear")
    p.add_argument("--samples", type=int, default=513)

    p = sub.add_parser("sweep-tau", parents=[common],
                       help="final charge against J*tau for all schedules")
    p.add_argument("--from", dest="jtau_from", type=float, required=True)
    p.add_argument("--to", dest="jtau_to", type=float, required=True)
    p.add_argument("--points", type=int, required=True)

    sub.add_parser("selftest", parents=[common],
                   help="run the acceptance suite and print one line per criterion")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()`` once per process: parse_args keeps no state in the parser."""
    return build_parser()


# ----------------------------------------------------------------------
# Subcommand handlers; each returns the table to emit, {name: column}.


def _check_rows(request: str, rows: int) -> None:
    """Reject a request whose output would exceed MAX_ROWS rows."""
    if rows > MAX_ROWS:
        raise ValueError(f"{request} gives {rows} output rows, more than {MAX_ROWS}")


def _series_table(series, **extra) -> dict:
    """One row per sample: time in 1/J, charge in E0 = 2 hbar*omega, current in
    hbar*omega*J, then the ``extra`` columns in the order given."""
    return {"t_J": series.times, "charge_over_E0": series.charge / E0,
            "ec_hbar_omega_J": series.ec, **extra}


def _cmd_discharge(cfg: RunConfig, args) -> dict:
    hs = hamiltonian_set()
    gate = None if args.gate is None else SwitchGate.from_kind(args.gate, args.gate_qubit)
    psi0 = bell_with_empty_hub(BellLabel(*map(int, args.bell)), gate)
    _check_rows(f"samples {args.samples}", args.samples)
    return _series_table(dynamics.sample_trajectory(hs.h_charging, psi0, args.tmax,
                                                    args.samples, hs))


def _cmd_trap_check(cfg: RunConfig, args) -> dict:
    hs = hamiltonian_set()
    states = [(f"bell_{n}{m}", bell_with_empty_hub(BellLabel(n, m)))
              for n in (0, 1) for m in (0, 1)] + [("empty_000", ket("000"))]
    names = ("state", "is_h_eigenstate", "h_eigenvalue_hbar_J", "ec_value_hbar_omega_J",
             "residual_h_hbar_J", "residual_p_hbar_omega_J", "trapped")
    rows = []
    for label, psi in states:
        r = trapping_check(psi, hs, tol=args.tol)
        rows.append((label, r.is_h_eigenstate, r.h_eigenvalue, r.ec_value,
                     r.residual_h, r.residual_p, r.trapped))
    return dict(zip(names, zip(*rows)))


def _cmd_trap_scan(cfg: RunConfig, args) -> dict:
    report = trapping_uniqueness_scan(args.samples, tol=args.tol, seed=cfg.seed)
    metrics = {"constraint_trace_distance": report.constraint_trace_distance,
               "n_samples": args.samples, "n_pass_available_energy": report.n_pass_available,
               "n_pass_zero_ec": report.n_pass_zero_ec, "n_pass_both": report.n_pass_both,
               "n_counterexamples": report.n_counterexamples, "n_unrestricted": args.samples,
               "n_unrestricted_pass_both": report.n_unrestricted_pass_both,
               "n_unrestricted_counterexamples": report.n_unrestricted_counterexamples,
               "seed": cfg.seed}
    return {"metric": list(metrics), "value": list(metrics.values())}


def _cmd_separable(cfg: RunConfig, args) -> dict:
    # a grid below 2 gives no rows here: separable_sweep rejects it
    _check_rows(f"grid {args.grid}", max(args.grid, 0) ** 2)
    surface = separable_sweep(args.grid)
    betas = np.linspace(0.0, 1.0, args.grid)
    return {"beta1": np.repeat(betas, args.grid),
            "beta2": np.tile(betas, args.grid),
            "cmax_over_E0": surface.ravel()}


def _cmd_single_particle(cfg: RunConfig, args) -> dict:
    _check_rows(f"samples {args.samples}", args.samples)
    series = single_particle_trajectory(args.tmax, args.samples)
    closed = np.array([protocols.single_particle_baseline(t) / E0 for t in series.times])
    return _series_table(series, closed_form_over_E0=closed)


def _cmd_ncell(cfg: RunConfig, args) -> dict:
    plan = NCellPlan.parse(args.plan)
    _check_rows(f"a plan of {len(plan.actions)} cells", len(plan.actions) + 1)
    total, per_cell = protocols.ncell_plan_energy(plan)
    return {"cell": [*map(str, range(len(per_cell))), "total"],
            "action": [*(action.value for action in plan.actions), ""],
            "energy_hbar_omega": np.array([*per_cell, total])}


def _cmd_adiabatic(cfg: RunConfig, args) -> dict:
    _check_rows(f"samples {args.samples}", args.samples)
    spec = AdiabaticSpec(args.jtau, Schedule(args.schedule))
    series = adiabatic.run_discharge(spec, n_samples=args.samples).series
    return _series_table(series, fidelity_target=series.extra["fidelity_target"],
                         leakage_forbidden=np.zeros(args.samples),
                         parity=series.extra["parity"])


def _cmd_sweep_tau(cfg: RunConfig, args) -> dict:
    if args.points < 1:
        raise ValueError(f"points must be >= 1, got {args.points}")
    _check_rows(f"points {args.points}", args.points * len(Schedule))
    if not 0 <= args.jtau_from <= args.jtau_to < np.inf:
        raise ValueError("sweep range requires finite 0 <= from <= to, "
                         f"got {args.jtau_from} and {args.jtau_to}")
    jtaus = np.linspace(args.jtau_from, args.jtau_to, args.points)
    points = adiabatic.sweep_tau(jtaus, max_workers=_max_workers())
    return {"tau_J": [pt.jtau for pt in points],
            "schedule": [pt.schedule.value for pt in points],
            "leakage_forbidden": np.zeros(len(points)),
            "ec_tail_hbar_omega_J": [pt.ec_tail for pt in points],
            "final_charge_over_E0": [pt.ratio_to_cmax for pt in points]}


def _cmd_selftest(cfg: RunConfig, args) -> int:
    if (cfg.omega, cfg.j_coupling) != (1.0, 1.0):
        raise ValueError("selftest runs at omega = J = 1; give no other rate by flag or config")
    from . import acceptance  # imported here, as no other command runs it
    results = acceptance.run_all(seed=cfg.seed)
    for result in results:
        print(result.line)
    if cfg.output != "-":
        names = ("criterion", "passed", "description", "details", "elapsed_s")
        rows = ((r.name, r.passed, r.description, r.details, r.elapsed) for r in results)
        write_rows(dict(zip(names, zip(*rows))), cfg.format, cfg.output)
    return 0 if all(r.passed for r in results) else 1


_HANDLERS = {
    "discharge": _cmd_discharge,
    "trap-check": _cmd_trap_check,
    "trap-scan": _cmd_trap_scan,
    "separable": _cmd_separable,
    "single-particle": _cmd_single_particle,
    "ncell": _cmd_ncell,
    "adiabatic": _cmd_adiabatic,
    "sweep-tau": _cmd_sweep_tau,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exit_code:
        return int(exit_code.code or 0)
    try:
        cfg = _resolve_config(args)
        _check_writable(cfg.output)
        if args.command == "selftest":
            code = _cmd_selftest(cfg, args)
        else:
            write_rows(_HANDLERS[args.command](cfg, args), cfg.format, cfg.output)
            code = 0
        if sys.stdout is not None:  # None when started with its descriptor closed
            sys.stdout.flush()  # a reader that left raises here, not in the exit-time flush
        return code
    except BrokenPipeError:  # the reader of the output left early, as `head` does
        # print nothing, and send the rest of stdout to devnull so that the
        # exit-time flush does not fail again (Python docs, "Note on SIGPIPE")
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a producer the signal ended
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
