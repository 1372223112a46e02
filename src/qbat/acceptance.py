"""Self-test suite: one callable check per advertised guarantee of the package.

Each criterion is an independent check, declared with its name and
description, that returns ``(passed, details)``; ``run_criterion`` makes a
CriterionResult of it and ``run_all`` runs the lot.  Where a check needs an
oracle, the oracle is built here from raw numpy (explicit Kronecker products,
direct diagonalization) so that it does not share code with the library path
it is checking.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import adiabatic, dynamics, model, protocols
from .adiabatic import AdiabaticSpec, Schedule
from .dynamics import evolve_static, evolve_timedep, sample_trajectory
from .model import E0, charge, ergotropy, hamiltonian_set
from .protocols import (
    DISCHARGE_TIME,
    SINGLE_PARTICLE_TRANSFER_TIME,
    BellLabel,
    CellAction,
    NCellPlan,
    SwitchGate,
    bell_charge_closed_form,
    bell_with_empty_hub,
    ncell_plan_energy,
    separable_sweep,
    single_particle_system,
    storage_state,
    switch_gate,
    trapping_uniqueness_scan,
)
from .qalg import PureState, embed, ket, trace_distance


@dataclass(frozen=True)
class CriterionResult:
    name: str
    description: str
    passed: bool
    details: str
    elapsed: float = 0.0

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name} {status} [{self.elapsed:5.2f}s] {self.description}: {self.details}"


CRITERIA = []  # every check, in the order declared


def _criterion(name: str, description: str):
    """Declare a check as the criterion ``name`` and add it to CRITERIA."""
    def declare(check):
        check.name, check.description = name, description
        CRITERIA.append(check)
        return check
    return declare


# ----------------------------------------------------------------------
# Raw-numpy oracle pieces (kept independent of the qalg construction path).

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def _kron(*mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def _oracle_cell():
    """Coupling Hamiltonian, hub bare Hamiltonian and empty energy, raw kron."""
    h_c = (_kron(_X, _I2, _X) + _kron(_Y, _I2, _Y)
           + _kron(_I2, _X, _X) + _kron(_I2, _Y, _Y))
    h0a = _kron(_I2, _I2, np.diag([-1.0, 1.0]).astype(complex))
    return h_c, h0a, -1.0


def _oracle_bell(n, m):
    amp = np.zeros(4, dtype=complex)
    amp[n] = 1 / math.sqrt(2)
    amp[2 + (1 - n)] = (-1.0) ** m / math.sqrt(2)
    return np.kron(amp, np.array([1.0, 0.0]))


# ----------------------------------------------------------------------
# Criteria.


@_criterion("AC-1", "Bell discharge law at 64 sample times")
def ac1_bell_discharge_law(seed: int = 42) -> tuple:
    """Simulated hub charge matches E0 * g * sin^2(2*sqrt(2)*J*t) per Bell state."""
    hs = hamiltonian_set()
    worst = 0.0
    for n in (0, 1):
        for m in (0, 1):
            label = BellLabel(n, m)
            series = sample_trajectory(hs.h_charging, bell_with_empty_hub(label),
                                       2 * DISCHARGE_TIME, 64, hs)
            closed = np.array([bell_charge_closed_form(label, t) for t in series.times])
            worst = max(worst, float(np.abs(series.charge - closed).max()))
    return worst <= 1e-9, f"max |C_sim - C_closed| = {worst:.3e} (tol 1e-9)"


@_criterion("AC-2", "peak transfer normalization fixed by exact diagonalization")
def ac2_normalization_oracle(seed: int = 42) -> tuple:
    """Raw exact diagonalization pins the full-release peak at 2*hbar*omega."""
    h_c, h0a, e_emp = _oracle_cell()
    w, v = np.linalg.eigh(h_c)
    psi0 = _oracle_bell(1, 0)
    taud = math.pi / (4 * math.sqrt(2))  # computed here, not taken from the library

    def oracle_charge(t):
        psi = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0))
        return float(np.vdot(psi, h0a @ psi).real) - e_emp

    at_taud = oracle_charge(taud)
    grid_peak = max(oracle_charge(t) for t in np.linspace(0.0, 2 * taud, 2048))
    closed_peak = bell_charge_closed_form(BellLabel(1, 0), taud)
    ok = (abs(at_taud - E0) <= 1e-10
          and grid_peak <= at_taud + 1e-10
          and abs(closed_peak - at_taud) <= 1e-10)
    return ok, f"oracle C(tau_d) = {at_taud:.12f} (expected {E0}, tol 1e-10)"


@_criterion("AC-3", "energy trapping over 256 sampled times")
def ac3_trapping(seed: int = 42) -> tuple:
    """The stored singlet keeps zero current and unit fidelity while coupled."""
    hs = hamiltonian_set()
    series = sample_trajectory(hs.h_charging, storage_state(), 2 * DISCHARGE_TIME, 256, hs)
    max_ec = float(np.abs(series.ec).max())
    min_fid = float(series.extra["fidelity_initial"].min())
    ok = max_ec <= 1e-12 and min_fid >= 1.0 - 1e-12
    return ok, f"max |ec| = {max_ec:.2e} (tol 1e-12), min fidelity = {min_fid:.15f}"


@_criterion("AC-4", "blocking-state uniqueness scan")
def ac4_uniqueness_scan(seed: int = 42) -> tuple:
    """Constraint solve lands on the singlet; 10^4 family samples, no counterexamples."""
    n_samples = 10_000
    report = trapping_uniqueness_scan(n_samples, tol=1e-3, seed=seed)
    ok = (report.constraint_trace_distance <= 1e-10
          and report.n_counterexamples == 0)
    return ok, (f"constraint distance = {report.constraint_trace_distance:.2e} (tol 1e-10), "
                f"{n_samples} samples, {report.n_pass_both} passed both, "
                f"{report.n_counterexamples} counterexamples; unrestricted scan: "
                f"{report.n_unrestricted_pass_both} passed of {n_samples}")


@_criterion("AC-5", "switch-gate release levels and qubit independence")
def ac5_switch_gates(seed: int = 42) -> tuple:
    """Phase gate releases the full charge, bit flip half, either qubit alike."""
    stored = storage_state()
    gates = (SwitchGate.FULL_ON_QUBIT1, SwitchGate.FULL_ON_QUBIT2,
             SwitchGate.HALF_ON_QUBIT1, SwitchGate.HALF_ON_QUBIT2)
    cells = np.stack([switch_gate(kind, stored).amplitudes for kind in gates], axis=1)
    # the four cells' curves at 64 times, then their charge at tau_d, in one solve
    times = np.append(np.linspace(0.0, 2 * DISCHARGE_TIME, 64), DISCHARGE_TIME)
    charges = protocols.cell_charges(cells, times)
    full_peak, half_peak = charges[-1, 0], charges[-1, 3]
    worst_pair = float(np.abs(charges[:-1, 0::2] - charges[:-1, 1::2]).max())
    ok = (abs(full_peak - E0) <= 1e-9 and abs(half_peak - E0 / 2) <= 1e-9
          and worst_pair <= 1e-12)
    return ok, (f"full = {full_peak:.12f}, half = {half_peak:.12f}, "
                f"qubit-1 vs qubit-2 curves differ by {worst_pair:.2e} (tol 1e-12)")


@_criterion("AC-6", "single-particle and separable baselines")
def ac6_baselines(seed: int = 42) -> tuple:
    """Single-particle timing, sqrt(2) speedup, and the separable-state bound."""
    sp_hs = single_particle_system()
    t_sp = SINGLE_PARTICLE_TRANSFER_TIME
    sp_charge = charge(evolve_static(sp_hs.h_charging, ket("10"), t_sp), sp_hs)
    ratio = t_sp / DISCHARGE_TIME

    surface = separable_sweep(101)
    peak = np.unravel_index(np.argmax(surface), surface.shape)
    argmax = tuple(np.linspace(0.0, 1.0, 101)[list(peak)].tolist())
    at_corner = surface[-1, -1]
    surface[-1, -1] = -np.inf
    runner_up = float(surface.max())

    battery_h = embed(model.qubit_energy_term(), [0], 2) + embed(model.qubit_energy_term(), [1], 2)
    full_battery = ergotropy(ket("11").density(), battery_h)

    ok = (abs(sp_charge - E0) <= 1e-10
          and abs(ratio - math.sqrt(2)) <= 1e-12
          and argmax == (1.0, 1.0)
          and abs(at_corner - 1.0) <= 1e-12
          and runner_up <= 1.0 - 1e-4
          and abs(full_battery - 2 * E0) <= 1e-10)
    return ok, (f"single-particle C = {sp_charge:.12f}, timing ratio = {ratio:.15f}, "
                f"separable max {at_corner:.12f} at {argmax} "
                f"(runner-up {runner_up:.6f}), full battery stores {full_battery:.12f}")


@_criterion("AC-7", "frame invariance of the transferred charge")
def ac7_frame_invariance(seed: int = 42) -> tuple:
    """Charge curves agree between the lab frame and the co-moving frame."""
    hs = hamiltonian_set()
    psi0 = bell_with_empty_hub(BellLabel(1, 0))
    t_final = 2 * DISCHARGE_TIME
    lab = sample_trajectory(hs.h0_total + hs.h_charging, psi0, t_final, 129, hs)
    rotating = sample_trajectory(hs.h_charging, psi0, t_final, 129, hs)
    worst = float(np.abs(lab.charge - rotating.charge).max())
    return worst <= 1e-9, f"max |C_lab - C_int| = {worst:.3e} (tol 1e-9)"


@_criterion("AC-8", "dC/dt equals the energy current (1024 samples)")
def ac8_ec_identity(seed: int = 42) -> tuple:
    """Central differences of the charge reproduce the energy-current channel."""
    hs = hamiltonian_set()
    series = sample_trajectory(hs.h_charging, bell_with_empty_hub(BellLabel(1, 0)),
                               2 * DISCHARGE_TIME, 1024, hs)
    c = series.charge
    dt = series.times[1] - series.times[0]
    deriv = (-c[4:] + 8 * c[3:-1] - 8 * c[1:-3] + c[:-4]) / (12 * dt)
    err = float(np.abs(deriv - series.ec[2:-2]).max())
    scale = float(np.abs(series.ec).max())
    rel = err / scale
    return rel <= 1e-6, f"relative residual = {rel:.3e} (tol 1e-6)"


@_criterion("AC-9", "adiabatic stability threshold")
def ac9_adiabatic_stability(seed: int = 42) -> tuple:
    """Above a computed threshold every schedule discharges fully and calmly.

    Phase one scans all schedules for the charge saturation threshold; phase
    two continues along the linear schedule until its current tail also
    settles, then all schedules are confirmed at that joint threshold.  Those
    runs step the stored cell's excitation sector, which holds no component of
    the unreachable ground state, so parity leakage into it is measured on
    full 8-dim runs of every schedule at the charge threshold and must stay at
    numerical zero.
    """
    charge_floor = 0.999 * E0
    tail_ceiling = 1e-3
    candidates = [10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0]

    def samples(jtau):
        # ~8 samples per unit Jt keep the oscillating current tail from
        # being undersampled (its peaks converge by ~4 samples/period)
        return max(513, int(math.ceil(8.0 * jtau)) | 1)

    @cache
    def run(jtau, schedule):
        return adiabatic.run_discharge(AdiabaticSpec(jtau, schedule), samples(jtau))

    t_charge = None
    for jtau in candidates:
        reports = [run(jtau, s) for s in Schedule]
        if all(r.final_charge >= charge_floor for r in reports):
            t_charge = jtau
            break
    if t_charge is None:
        return False, "charge never saturated on the scanned grid"

    stored = storage_state().amplitudes
    forbidden = adiabatic.forbidden_state().amplitudes
    full_runs = [adiabatic._drive_states(AdiabaticSpec(t_charge, s), stored,
                                         samples(t_charge)) for s in Schedule]
    worst_leakage = float(np.max(np.abs(np.stack(full_runs) @ forbidden.conj()) ** 2))

    t_joint = None
    for jtau in [c for c in candidates if c >= t_charge]:
        report = run(jtau, Schedule.LINEAR)
        if report.final_charge >= charge_floor and report.ec_tail <= tail_ceiling:
            t_joint = jtau
            break
    if t_joint is None:
        return False, f"current tail of the linear schedule never fell below {tail_ceiling}"

    final = [run(t_joint, s) for s in Schedule]
    charges_ok = all(r.final_charge >= charge_floor for r in final)
    tails_ok = all(r.ec_tail <= tail_ceiling for r in final)

    parity = adiabatic.parity_check(Schedule.LINEAR)
    ok = charges_ok and tails_ok and worst_leakage <= 1e-10 and parity.passed
    return ok, (f"charge threshold Jtau = {t_charge:g}, joint threshold T* = {t_joint:g}; "
                f"at T*: min charge = {min(r.final_charge for r in final):.6f} "
                f"(floor {charge_floor}), max tail = {max(r.ec_tail for r in final):.6e} "
                f"(ceiling {tail_ceiling}); max leakage in full 8-dim runs at "
                f"Jtau = {t_charge:g} = {worst_leakage:.2e} (tol 1e-10); "
                f"max |[H(s), parity]| = {parity.max_commutator_norm:.2e} (tol 1e-12)")


@_criterion("AC-10", "adiabatic-limit current formula")
def ac10_adiabatic_rate_formula(seed: int = 42) -> tuple:
    """Single-eigenspace data predicts exactly zero; two branches oscillate."""
    spec = AdiabaticSpec(8.0, Schedule.SIN_SQUARED)
    single_pred = adiabatic.adiabatic_rate_prediction(
        adiabatic.adiabatic_decomposition(spec, storage_state()))
    exactly_zero = bool(np.all(single_pred == 0.0))

    sector = adiabatic._EXCITATION_SECTORS[1]
    _, v = adiabatic._sector_branches(spec.schedule, np.zeros(1), sector)
    amplitudes = np.zeros(8, dtype=complex)
    amplitudes[sector] = (v[0][:, 0] + v[0][:, -1]) / math.sqrt(2)  # sector ground + top
    psi_two = PureState(3, amplitudes)

    decomp = adiabatic.adiabatic_decomposition(spec, psi_two)
    prediction = adiabatic.adiabatic_rate_prediction(decomp)
    occ = np.nonzero(decomp.occupied)[0]
    if len(occ) != 2:
        return False, f"expected two occupied branches, found {len(occ)}"
    m, n = int(occ[0]), int(occ[1])
    w_term = (np.conj(decomp.coefficients[m]) * decomp.coefficients[n]
              * np.exp(1j * (decomp.phases[n] - decomp.phases[m]))
              * (decomp.energies[n] - decomp.energies[m])
              * decomp.hub_elements[m, n])
    two_level = 2.0 * np.imag(w_term)
    mismatch = float(np.abs(prediction - two_level).max())
    amplitude = float(np.abs(prediction).max())
    ok = exactly_zero and mismatch <= 1e-9 and amplitude > 1e-4
    return ok, (f"single-eigenspace prediction identically zero: {exactly_zero}; "
                f"two-branch amplitude = {amplitude:.3e}, "
                f"two-level assembly mismatch = {mismatch:.2e} (tol 1e-9)")


@_criterion("AC-11", "integrator order and unitarity")
def ac11_integrator(seed: int = 42) -> tuple:
    """The stepper self-converges (at fourth order; the floor is 1.9), and the
    8x8 propagator it builds in 256 steps, one basis state per column, is
    unitary."""
    spec = AdiabaticSpec(4.0, Schedule.SIN_SQUARED)

    def h_stack(s):
        return adiabatic._ht_stack(spec.schedule, s)

    psi0 = storage_state()
    reference = evolve_timedep(h_stack, psi0, spec.jtau, n_steps=4096).amplitudes
    errors = []
    for n_steps in (128, 256):
        approx = evolve_timedep(h_stack, psi0, spec.jtau, n_steps=n_steps).amplitudes
        errors.append(float(np.linalg.norm(approx - reference)))
    order = math.log2(errors[0] / errors[1])

    u = np.stack([evolve_timedep(h_stack, ket(f"{k:03b}"), spec.jtau, 256).amplitudes
                  for k in range(8)], axis=1)
    worst_defect = float(np.abs(u.conj().T @ u - np.eye(8)).max())
    ok = order >= 1.9 and worst_defect <= 1e-10
    return ok, (f"self-convergence order = {order:.3f} (floor 1.9), "
                f"max |U+U - 1| = {worst_defect:.2e} (tol 1e-10)")


@_criterion("AC-12", "collective-dephasing fixed point")
def ac12_dephasing_fixpoint(seed: int = 42) -> tuple:
    """The stored singlet is a fixed point of collective dephasing."""
    singlet = protocols.bell_state(BellLabel(1, 1)).density()
    worst = 0.0
    for gamma_t in (0.1, 1.0, 10.0):
        out = dynamics.collective_dephasing_fixpoint(singlet, 1.0, gamma_t)
        worst = max(worst, trace_distance(out, singlet))
    return worst <= 1e-12, (f"max trace distance = {worst:.2e} (tol 1e-12) "
                            "for gamma*t in 0.1, 1, 10")


@_criterion("AC-13", "independent-cell scaling")
def ac13_ncell(seed: int = 42) -> tuple:
    """Plans add per cell; a raw-numpy two-cell block evolves as the product of
    the library's per-cell evolutions, as ``ncell`` assumes, and its charge adds."""
    total, per_cell = ncell_plan_energy(NCellPlan.parse("f,H,h"))
    plan_ok = (abs(total - 3.0) <= 1e-9
               and abs(per_cell[0] - 2.0) <= 1e-9
               and abs(per_cell[1] - 1.0) <= 1e-9
               and abs(per_cell[2]) <= 1e-9)

    cell_a = protocols.cell_state_after_action(CellAction.FULL)
    cell_b = protocols.cell_state_after_action(CellAction.HALF)
    h_c, h0a, e_emp = _oracle_cell()
    one = np.eye(8)
    w, v = np.linalg.eigh(np.kron(h_c, one) + np.kron(one, h_c))
    joint = v @ (np.exp(-1j * w * DISCHARGE_TIME)
                 * (v.conj().T @ np.kron(cell_a.amplitudes, cell_b.amplitudes)))
    hub = np.kron(h0a, one) + np.kron(one, h0a)
    joint_charge = float(np.vdot(joint, hub @ joint).real) - 2 * e_emp

    hs = hamiltonian_set()
    final_a = evolve_static(hs.h_charging, cell_a, DISCHARGE_TIME)
    final_b = evolve_static(hs.h_charging, cell_b, DISCHARGE_TIME)
    product = np.kron(final_a.amplitudes, final_b.amplitudes)
    state_gap = float(np.abs(joint - product).max())
    sum_charge = charge(final_a, hs) + charge(final_b, hs)
    ok = plan_ok and state_gap <= 1e-9 and abs(joint_charge - sum_charge) <= 1e-9
    return ok, (f"plan f,H,h total = {total:.12f} (expected 3), "
                f"joint vs product state gap = {state_gap:.2e} (tol 1e-9), "
                f"charge additivity gap = {abs(joint_charge - sum_charge):.2e}")


def run_criterion(check, seed: int = 42) -> CriterionResult:
    start = time.perf_counter()
    try:
        passed, details = check(seed)
    except Exception as exc:  # surface as a failed criterion, not a crash
        passed, details = False, f"criterion raised {type(exc).__name__}: {exc}"
    return CriterionResult(check.name, check.description, bool(passed), details,
                           time.perf_counter() - start)


def run_all(seed: int = 42) -> list:
    return [run_criterion(func, seed) for func in CRITERIA]
