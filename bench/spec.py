"""What each per-layer metric is expected to move.

Each per-layer metric of ``BENCHMARK.json`` maps to the end-to-end metrics
and workloads a change to that layer should show up in.  A change that
claims a gain names one of these pairs; the other workloads are where it
should change nothing.  Counts and bytes are per pass and repeat exactly for
a given seed; times are seconds per pass, summed over threads.
"""

TARGETS = {
    "qalg.operator_new.count": [("op_p50_ms", "calls"), ("op_p99_ms", "calls")],
    "qalg.operator_new.s": [("op_p50_ms", "calls"), ("op_p99_ms", "calls")],
    "qalg.state_new.count": [("op_p50_ms", "calls"), ("op_p99_ms", "calls")],
    "qalg.state_new.s": [("op_p50_ms", "calls"), ("op_p99_ms", "calls")],
    "model.hamiltonian_set.count": [("op_p50_ms", "calls"), ("setup_s", "calls")],
    "model.hamiltonian_set.s": [("op_p50_ms", "calls"), ("setup_s", "calls")],
    "dynamics.evolve_static.count": [("op_p50_ms", "calls")],
    "dynamics.evolve_static.s": [("op_p50_ms", "calls")],
    "dynamics.sample_trajectory.s": [("op_p50_ms", "calls")],
    "cli.build_parser.s": [("op_p50_ms", "calls")],
    "io.write_rows.s": [("op_p50_ms", "calls"), ("wall_s", "drive")],
    "io.bytes": [("op_p50_ms", "calls"), ("wall_s", "drive")],
    "adiabatic.run_discharge.count": [("wall_s", "drive"), ("wall_s", "sweep")],
    "adiabatic.run_discharge.self_s": [("wall_s", "drive"), ("wall_s", "sweep")],
    "adiabatic.min_sector_gap.s": [("wall_s", "sweep")],
    "adiabatic.sweep_tau.busy_frac": [("wall_s", "sweep"), ("cpu_s", "sweep")],
    "adiabatic.sweep_tau.job_wait_s": [("wall_s", "sweep"), ("cpu_s", "sweep")],
    "kernel.eigh.calls": [("wall_s", "drive"), ("wall_s", "sweep")],
    "kernel.eigh.matrices": [("wall_s", "drive"), ("wall_s", "sweep")],
    "kernel.eigh.s": [("wall_s", "drive"), ("wall_s", "sweep")],
    "kernel.eigh.bytes": [("wall_s", "drive"), ("wall_s", "sweep")],
    "kernel.einsum.calls": [("wall_s", "scan"), ("wall_s", "drive")],
    "kernel.einsum.s": [("wall_s", "scan"), ("wall_s", "drive")],
    "protocols.trapping_uniqueness_scan.s": [("wall_s", "scan"), ("peak_rss_mb", "scan")],
    "protocols.separable_sweep.s": [("op_p50_ms", "calls")],
    "protocols.ncell_plan_energy.s": [("op_p50_ms", "calls")],
    "protocols.trapping_check.s": [("op_p50_ms", "calls")],
    "trace.overhead_frac": [],
}
