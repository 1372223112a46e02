"""Adiabatic stable-discharge model for a single cell.

The drive interpolates between a battery-only XY coupling (whose ground
space holds the stored singlet), an intermediate Hamiltonian that opens a
path to the hub, and a final Ising-type Hamiltonian whose ground space is
spanned by the discharged state |00>|1> and the unreachable |11>|0>.  The
three-qubit parity (product of z on all qubits) commutes with the drive at
every instant, which forbids transitions into the unreachable ground state;
slow driving therefore empties the cell into the hub with no energy backflow.
The drive also conserves the excitation number, so the stored singlet is
stepped in its one-excitation block alone, a 3x3 real problem.
The instantaneous eigen-branches are taken in the same sectors, where no two
levels cross before the end of the drive.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .dynamics import STEPS_PER_UNIT_JT, TimeSeries, _check_sampling, _stepped_states
from .model import E0, _observable_rows, _xy_exchange, charge, ec_operator, hamiltonian_set
from .protocols import storage_state
from .qalg import Operator, PureState, embed, expectation, ket, max_abs, pauli, tensor

# Most drive steps one drive, or one sweep over all its jobs, may demand:
# adiabatic --jtau 16384 --samples 2 exactly, under 1 s of stepping on a
# 2-core machine.  Checked before any stepping.
MAX_STEPS = 2**17
SWEEP_SAMPLES = 257  # uniform sample times of each sweep run
_DECOMPOSITION_SAMPLES = 512  # uniform sample times of each adiabatic decomposition


class Schedule(Enum):
    """Interpolation schedules; all satisfy f(0) = 0 and f(1) = 1 exactly."""

    LINEAR = "linear"
    SIN_SQUARED = "sin2"
    SMOOTHSTEP = "smoothstep"


def schedule_value(schedule: Schedule, s):
    s = np.asarray(s, dtype=float)
    if schedule is Schedule.LINEAR:
        return s + 0.0
    if schedule is Schedule.SIN_SQUARED:
        return np.sin(np.pi * s / 2.0) ** 2
    if schedule is Schedule.SMOOTHSTEP:
        return 3.0 * s**2 - 2.0 * s**3
    raise ValueError(f"unknown schedule {schedule!r}")


@dataclass(frozen=True)
class AdiabaticSpec:
    """One adiabatic discharge run: its dimensionless length J*tau (the drive
    runs over times t in [0, jtau], in units of 1/J) and its schedule."""

    jtau: float
    schedule: Schedule = Schedule.LINEAR

    def __post_init__(self):
        if not 0 < self.jtau < math.inf:
            raise ValueError(f"jtau must be finite and > 0, got {self.jtau}")


@cache
def interpolation_parts():
    """The three interpolation Hamiltonians on (battery1, battery2, hub), in
    units of hbar*J."""
    zz = tensor(pauli("z"), pauli("z"))
    h_initial = _xy_exchange(0, 1, 3)
    h_middle = h_initial + _xy_exchange(1, 2, 3)
    h_final = embed(zz, [0, 2], 3) + embed(zz, [1, 2], 3)
    return h_initial, h_middle, h_final


def _part_weights(schedule: Schedule, s_values: np.ndarray):
    """Weights 1-f, (1-f)f and f of the three interpolation parts at each s."""
    f = schedule_value(schedule, s_values)
    return 1.0 - f, (1.0 - f) * f, f


# Computational-basis indices with k excitations, k = 0..3.  The drive's XX+YY
# and ZZ terms have exactly zero elements between these sectors.
_EXCITATION_SECTORS = tuple([i for i in range(8) if bin(i).count("1") == k] for k in range(4))


def _ht_stack(schedule: Schedule, s_values: np.ndarray, sector=tuple(range(8))) -> np.ndarray:
    """Real drive Hamiltonians [1-f]H_i + [1-f]f H_m + f H_f, one per s in
    ``s_values``, on the computational states ``sector`` (all eight by default)."""
    block = np.ix_(sector, sector)
    return sum(w[:, None, None] * h.matrix.real[block]
               for w, h in zip(_part_weights(schedule, s_values), interpolation_parts()))


def parity_operator() -> Operator:
    """Three-qubit parity, the product of z on every qubit."""
    return tensor(pauli("z"), pauli("z"), pauli("z"))


def target_state() -> PureState:
    """Fully discharged cell |00>|1>."""
    return ket("001")


def forbidden_state() -> PureState:
    """The other final-Hamiltonian ground state |11>|0>, parity-blocked."""
    return ket("110")


@dataclass(frozen=True)
class ParityCheckReport:
    """Commutation of the drive with the parity operator.

    ``passed`` also requires the stored and target states to share a parity
    sector and the forbidden state to sit in the other one; only relative
    parities are physically meaningful.
    """

    max_commutator_norm: float
    passed: bool


def parity_check(schedule: Schedule) -> ParityCheckReport:
    """Largest |[H(s), parity]| over 33 uniform s (passes at <= 1e-12), and
    the parity sectors of the stored, target and forbidden states."""
    parity = parity_operator()
    stack = _ht_stack(schedule, np.linspace(0.0, 1.0, 33))
    worst = max_abs(stack @ parity.matrix - parity.matrix @ stack)
    p_init, p_target, p_forbidden = (expectation(parity, psi) for psi in
                                     (storage_state(), target_state(), forbidden_state()))
    same = abs(p_init - p_target) <= 1e-9
    opposite = abs(p_init + p_forbidden) <= 1e-9
    return ParityCheckReport(
        max_commutator_norm=worst,
        passed=worst <= 1e-12 and same and opposite,
    )


def min_sector_gap(schedule: Schedule) -> float:
    """Minimum gap between the stored cell's branch, the ground branch of the
    one-excitation sector, and the rest of that sector, on 257 uniform s."""
    energies, _ = _sector_branches(schedule, np.linspace(0.0, 1.0, 257), _EXCITATION_SECTORS[1])
    return float(np.min(energies[:, 1] - energies[:, 0]))


@dataclass(frozen=True, eq=False)
class DischargeReport:
    """Summary of one adiabatic discharge run.

    ``final_charge`` is in hbar*omega, ``min_gap_sector`` in hbar*J and
    ``ec_tail`` (the largest |energy current| over the last tenth of the run)
    in hbar*omega*J; ``series`` adds the channels ``fidelity_target`` and
    ``parity``.  No leakage into |110> is recorded: the cell is stepped in
    its one-excitation block, which |110> lies outside, so it is exactly 0;
    AC-9's full 8-dim runs measure it.
    """

    final_charge: float
    min_gap_sector: float
    ec_tail: float
    series: TimeSeries


def _drive_steps(spec: AdiabaticSpec, n_samples: int) -> int:
    """Steps taken by one drive recorded at ``n_samples`` uniform times.

    Every segment between samples takes the same whole number of steps, at
    least STEPS_PER_UNIT_JT * Jtau in total.  More than MAX_STEPS steps, or a
    sample grid that ``_check_sampling`` rejects, raise ValueError.
    """
    segments = max(n_samples - 1, 1)  # fewer than two samples are rejected below
    demand = math.ceil(min(STEPS_PER_UNIT_JT * spec.jtau, MAX_STEPS + 1))  # capped: no ceil(inf)
    n_steps = math.ceil(demand / segments) * segments
    if n_steps > MAX_STEPS:
        raise ValueError(f"Jtau = {spec.jtau:g} needs more than {MAX_STEPS} drive steps")
    _check_sampling("jtau", spec.jtau, n_samples)
    return n_steps


def _drive_states(spec: AdiabaticSpec, amplitudes: np.ndarray, n_samples: int,
                  sector=tuple(range(8))) -> np.ndarray:
    """Step ``amplitudes`` on the computational states ``sector`` under the
    drive, returning the (n_samples, len(sector)) states at uniform times,
    after ``_drive_steps`` steps whatever the sector."""
    n_steps = _drive_steps(spec, n_samples)
    return _stepped_states(lambda s: _ht_stack(spec.schedule, s, sector), amplitudes, spec.jtau,
                           n_steps, n_steps // (n_samples - 1))


def run_discharge(spec: AdiabaticSpec, n_samples: int = 513) -> DischargeReport:
    """Drive the stored cell through the interpolation and report the outcome.

    Only its one-excitation block {|001>, |010>, |100>} is stepped, and every
    channel is evaluated on those (n_samples, 3) states.  The current is
    <(1/i)[H0_hub, H(t)]>, summed part by part since it is linear in the
    weights of the interpolation parts.  A drive over MAX_STEPS or a bad
    sample grid (see ``_drive_steps``) raises ValueError before any stepping.
    """
    sector = _EXCITATION_SECTORS[1]
    hs = hamiltonian_set()
    states = _drive_states(spec, storage_state().amplitudes[sector], n_samples, sector)
    times = np.linspace(0.0, spec.jtau, n_samples)
    charge_channel = charge(states, hs, sector)
    currents = [_observable_rows(states, ec_operator(hs.h0_hub, h).matrix, sector)
                for h in interpolation_parts()]
    ec_channel = sum(map(np.multiply, _part_weights(spec.schedule, times / spec.jtau), currents))
    parity_channel = _observable_rows(states, parity_operator().matrix, sector)
    fidelity_channel = np.abs(states @ target_state().amplitudes[sector].conj()) ** 2

    tail = np.abs(ec_channel[times >= 0.9 * spec.jtau])
    series = TimeSeries(times, charge_channel, ec_channel, extra={
        "fidelity_target": fidelity_channel,
        "parity": parity_channel,
    })
    return DischargeReport(
        final_charge=float(charge_channel[-1]),
        min_gap_sector=min_sector_gap(spec.schedule),
        ec_tail=float(tail.max()),
        series=series,
    )


@dataclass(frozen=True)
class SweepPoint:
    """Final-state summary for one (Jtau, schedule) pair: the final charge
    over 2*hbar*omega and DischargeReport's ``ec_tail``."""

    jtau: float
    schedule: Schedule
    ratio_to_cmax: float
    ec_tail: float


def sweep_tau(jtau_values, *, max_workers: int = 1) -> list:
    """Final transferred charge against total run time, for every schedule.

    Returns one SweepPoint per (Jtau, schedule) pair, ordered by the input
    Jtau list and then ``Schedule``'s order, whatever order the ``max_workers``
    threads finish in.  Each run is recorded at SWEEP_SAMPLES uniform times.
    Jtau = 0 is the sudden limit: nothing evolves and nothing is transferred,
    so it is answered without a job.  A sweep whose runs take more than
    MAX_STEPS drive steps in total, or one of whose runs ``_drive_steps``
    rejects, raises ValueError before the first job starts.
    """
    if len(jtau_values) == 0:
        raise ValueError("jtau_values must not be empty")
    jtaus = [float(jtau) for jtau in jtau_values]
    # the steps of a run do not depend on its schedule: each positive Jtau is
    # checked, then counted, once, and no job is built for a rejected sweep
    checked = [AdiabaticSpec(jtau) for jtau in jtaus if jtau != 0.0]
    if len(Schedule) * sum(_drive_steps(spec, SWEEP_SAMPLES) for spec in checked) > MAX_STEPS:
        raise ValueError(f"the sweep needs more than {MAX_STEPS} drive steps in total")
    points = [(jtau, schedule) for jtau in jtaus for schedule in Schedule]
    specs = [AdiabaticSpec(*point) for point in points if point[0] != 0.0]

    def _one(spec):
        report = run_discharge(spec, n_samples=SWEEP_SAMPLES)
        return SweepPoint(spec.jtau, spec.schedule, report.final_charge / E0, report.ec_tail)

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        runs = iter(list(pool.map(_one, specs)))
    return [next(runs) if jtau != 0.0 else SweepPoint(0.0, schedule, 0.0, 0.0)
            for jtau, schedule in points]


@dataclass(frozen=True, eq=False)
class AdiabaticDecomposition:
    """Tracked instantaneous eigensystem along one drive.

    Branches are taken per occupied excitation sector in ascending energy order,
    which no level crossing disturbs (see ``_sector_branches``).  ``phases``
    accumulate the dynamic phase (trapezoid integral of the energies) plus the
    discrete geometric phase obtained from the overlap product along the path,
    so any per-sample eigenvector gauge is consistent with the stored vectors.
    """

    times: np.ndarray              # (n_samples,)
    coefficients: np.ndarray       # (n_branches,) overlaps <E_n(0)|psi0>
    energies: np.ndarray           # (n_branches, n_samples)
    phases: np.ndarray             # (n_branches, n_samples)
    hub_elements: np.ndarray       # (n_branches, n_branches, n_samples), hbar*omega
    occupied: np.ndarray           # (n_branches,) bool
    min_tracking_overlap: np.ndarray  # (n_branches,)

    def __post_init__(self):
        total = float(np.sum(np.abs(self.coefficients) ** 2))
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"branch coefficients are not complete: sum |c|^2 = {total}")


def _align_group(target: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Unitary rotation of degenerate ``columns`` closest to ``target``."""
    u_l, _, u_r = np.linalg.svd(columns.conj().T @ target)
    return columns @ (u_l @ u_r)


def _sector_branches(schedule: Schedule, s_values: np.ndarray, sector):
    """Eigen-branches of the drive on the computational states ``sector``:
    energies (nt, d) and real eigenvectors (nt, d, d), in ascending order.

    H(s) = M(f(s)) with f monotone and f < 1 for s < 1, and on f in [0, 1)
    both gaps of each three-state sector stay >= 1.5 (1 - f) hbar*J, so
    ascending order is branch order for every schedule.  The upper two levels
    meet at s = 1: each run of neighbours within 1e-12 max|w| is a degenerate
    group, whose solver mixture is rotated onto the previous sample.
    """
    w, v = np.linalg.eigh(_ht_stack(schedule, s_values, sector))
    touching = np.diff(w, axis=1) <= 1e-12 * np.abs(w).max(axis=1, keepdims=True)
    for k in np.nonzero(touching[1:].any(axis=1))[0] + 1:
        for group in np.split(np.arange(w.shape[1]), np.flatnonzero(~touching[k]) + 1):
            if len(group) > 1:
                v[k][:, group] = _align_group(v[k - 1][:, group], v[k][:, group])
    return w, v


def adiabatic_decomposition(spec: AdiabaticSpec, psi0: PureState) -> AdiabaticDecomposition:
    """Eigen-branches of the drive at _DECOMPOSITION_SAMPLES uniform times in
    the excitation sectors where ``psi0`` has weight above 1e-12, joined sector
    by sector, and the initial-state coefficients."""
    if psi0.dim != 8:
        raise ValueError(f"dimension mismatch: drive 8, state {psi0.dim}")
    times = np.linspace(0.0, spec.jtau, _DECOMPOSITION_SAMPLES)
    energies, vectors = [], []
    for sector in _EXCITATION_SECTORS:
        if np.sum(np.abs(psi0.amplitudes[sector]) ** 2) > 1e-12:
            w, v = _sector_branches(spec.schedule, times / spec.jtau, sector)
            energies.append(w.T)
            vectors.append(np.eye(8)[:, sector] @ v)  # exact zeros off the sector
    energies = np.concatenate(energies)          # (n_branches, nt)
    vectors = np.concatenate(vectors, axis=2)    # (nt, 8, n_branches)
    overlaps = np.einsum("kin,kin->kn", vectors[:-1], vectors[1:])

    coefficients = vectors[0].T @ psi0.amplitudes

    # Dynamic phase: minus the running trapezoid integral of each energy.
    dt = np.diff(times)
    dyn = np.zeros_like(energies)
    dyn[:, 1:] = -np.cumsum((energies[:, :-1] + energies[:, 1:]) / 2.0 * dt, axis=1)
    # Geometric phase from overlap products; compensates per-sample gauges.
    geo = np.zeros_like(energies)
    geo[:, 1:] = -np.cumsum(np.angle(overlaps).T, axis=1)
    phases = dyn + geo

    h0a = hamiltonian_set().h0_hub.matrix
    hub_elements = np.einsum("kin,ij,kjm->nmk", vectors, h0a, vectors)

    occupied = np.abs(coefficients) ** 2 > 1e-12
    return AdiabaticDecomposition(
        times=times,
        coefficients=coefficients,
        energies=energies,
        phases=phases,
        hub_elements=hub_elements,
        occupied=occupied,
        min_tracking_overlap=np.abs(overlaps).min(axis=0),
    )


def adiabatic_rate_prediction(decomp: AdiabaticDecomposition) -> np.ndarray:
    """Energy current predicted by the adiabatic-limit formula.

    Sums c_n c_m* exp(i(phase_n - phase_m)) (E_n - E_m) <E_m|H0_hub|E_n> / i
    over pairs of occupied branches.  H0_hub conserves the excitation number,
    so a pair from two sectors adds an exact zero, as does a branch paired
    with itself; with a single occupied branch the result is exactly zero.
    """
    occ = np.nonzero(decomp.occupied)[0]
    if len(occ) <= 1:
        return np.zeros_like(decomp.times)
    weak = occ[decomp.min_tracking_overlap[occ] < 0.7]
    if len(weak):
        raise ValueError(
            f"eigenbranch tracking unreliable for occupied branches {weak.tolist()}")
    prediction = np.zeros_like(decomp.times)
    for m in occ:
        for n in occ:
            term = (np.conj(decomp.coefficients[m]) * decomp.coefficients[n]
                    * np.exp(1j * (decomp.phases[n] - decomp.phases[m]))
                    * (decomp.energies[n] - decomp.energies[m])
                    * decomp.hub_elements[m, n]) / 1j
            prediction += term.real
    return prediction
