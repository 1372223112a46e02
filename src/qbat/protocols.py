"""Discharge protocols and baselines for the Bell-pair battery cell.

The four Bell states of the battery pair map onto four discharge behaviors:
the singlet keeps its energy locked while coupled to the hub, the triplet
|01>+|10> releases all of it, and the remaining two release half.  Local
Pauli gates on a single battery qubit switch between these regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .dynamics import TimeSeries, _spectral, sample_trajectory
from .model import E0, HamiltonianSet, _xy_cell, charge, hamiltonian_set
from .qalg import (
    DensityMatrix,
    PureState,
    embed,
    ket,
    max_abs,
    pauli,
    trace_distance,
)

# States the uniqueness scan draws and tests at a time: (2048, 4, 4) real
# Ginibre parts, so its memory does not grow with the sample count.
_SCAN_CHUNK = 2**11
# Most states the uniqueness scan draws per family (about 0.7 s on a 2-core machine).
MAX_SCAN_SAMPLES = 2**20

# Releasing projector Q = |T><T| + |11><11| of the empty-hub discharge law,
# T = (|01> + |10>)/sqrt(2); see transfer_fraction.
_RELEASING = np.diag([0.0, 0.5, 0.5, 1.0])
_RELEASING[1, 2] = _RELEASING[2, 1] = 0.5

# Blocking conditions: rho11 == rho44 within _BLOCKING_TOL, and a current
# below _BLOCKING_TOL * hbar*omega*J at all times.
_BLOCKING_TOL = 1e-9

# First time of full transfer: pi/(4*sqrt(2)*J) for the fully releasing Bell
# state, and pi/(4J) for a one-qubit battery, slower by a factor sqrt(2).
DISCHARGE_TIME = math.pi / (4.0 * math.sqrt(2.0))
SINGLE_PARTICLE_TRANSFER_TIME = math.pi / 4.0


@dataclass(frozen=True)
class BellLabel:
    """Label (n, m) of the Bell state (|0 n> + (-1)^m |1 nbar>)/sqrt(2)."""

    n: int
    m: int

    def __post_init__(self):
        if self.n not in (0, 1) or self.m not in (0, 1):
            raise ValueError(f"Bell label bits must be 0 or 1, got ({self.n}, {self.m})")


def bell_state(label: BellLabel) -> PureState:
    """The two-qubit Bell state for ``label``; (1, 1) is the singlet."""
    amp = np.zeros(4, dtype=complex)
    amp[label.n] = 1.0 / math.sqrt(2)
    amp[2 + (1 - label.n)] = (-1.0) ** label.m / math.sqrt(2)
    return PureState(2, amp)


@cache
def bell_with_empty_hub(label: BellLabel, gate: SwitchGate | None = None) -> PureState:
    """Battery in a Bell state, hub in its empty state |0>, then ``gate`` if one
    is given; built once per (label, gate), read-only."""
    psi = bell_state(label).tensor(ket("0"))
    return psi if gate is None else switch_gate(gate, psi)


def transfer_fraction(rho) -> np.ndarray:
    """g(rho) = <T|rho|T> + <11|rho|11> for (..., 4, 4) battery density
    matrices, with T = (|01> + |10>)/sqrt(2).

    Coupled to an empty hub, any battery state rho charges the hub as
    C(t) = 2*hbar*omega * g * sin^2(2*sqrt(2)*J*t), with energy current
    <P_hat(t)> = 4*sqrt(2)*hbar*omega*J * g * sin(4*sqrt(2)*J*t).
    """
    return np.einsum("ab,...ba->...", _RELEASING, rho).real


def bell_charge_closed_form(label: BellLabel, t: float) -> float:
    """Closed-form hub charge of a Bell battery; g is 1/2 for the (0, m)
    states, 1 for (1, 0) and 0 for the singlet."""
    g = float(transfer_fraction(bell_state(label).density().entries))
    return E0 * g * math.sin(2.0 * math.sqrt(2.0) * t) ** 2


@dataclass(frozen=True)
class TrapReport:
    """Outcome of the energy-trapping check for one candidate state.

    A state is trapped when it is simultaneously an eigenstate of the coupling
    Hamiltonian and of the energy-current operator with eigenvalue zero; the
    Hamiltonians need not commute for this to hold.
    """

    is_h_eigenstate: bool
    h_eigenvalue: float
    ec_value: float
    trapped: bool
    residual_h: float
    residual_p: float


def trapping_check(psi: PureState, hs: HamiltonianSet, tol: float = 1e-10) -> TrapReport:
    """Test whether ``psi`` keeps the battery energy locked under the coupling
    ``hs.h_charging``, whose energy current is ``hs.current``.

    ``tol`` is relative to the operators' scale: the eigen-residual of the
    coupling is compared with tol * max|H|, the current and its residual
    with tol * max|P_hat|.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    h_int, p_hat = hs.h_charging, hs.current
    if h_int.dim != psi.dim:
        raise ValueError(f"dimension mismatch: operator {h_int.dim}, state {psi.dim}")
    amps = psi.amplitudes
    h_psi = h_int.matrix @ amps
    h_value = float(np.vdot(amps, h_psi).real)
    residual_h = float(np.linalg.norm(h_psi - h_value * amps))
    p_psi = p_hat.matrix @ amps
    ec_value = float(np.vdot(amps, p_psi).real)
    residual_p = float(np.linalg.norm(p_psi))
    is_eig = residual_h <= tol * max_abs(h_int.matrix)
    tol_p = tol * max_abs(p_hat.matrix)
    return TrapReport(
        is_h_eigenstate=is_eig,
        h_eigenvalue=h_value,
        ec_value=ec_value,
        trapped=is_eig and abs(ec_value) <= tol_p and residual_p <= tol_p,
        residual_h=residual_h,
        residual_p=residual_p,
    )


def blocking_state_from_constraints() -> DensityMatrix:
    """Battery state solved from the energy-blocking constraints.

    In the basis 1 <-> |00>, 2 <-> |01>, 3 <-> |10>, 4 <-> |11>, a battery
    density matrix blocks all transfer to an empty hub iff

      (1) rho11 == rho44                                (full energy available)
      (2) 2g = rho22 + rho33 + 2 Re rho23 + 2 rho44 == 0  (zero current),

    with g = transfer_fraction(rho); only under (1) does (2) equal the form
    2 rho11 + rho22 + rho33 + 2 Re rho23 == 0.  The solution is unique among
    all density matrices: a positive rho with <v|rho|v> == 0 has rho v == 0,
    so g == 0 removes all weight on T and on |11>, and (1) then removes
    |00>.  Only the singlet is left, and unit trace gives its projector.
    """
    mat = np.zeros((4, 4), dtype=complex)
    mat[1:3, 1:3] = [[0.5, -0.5], [-0.5, 0.5]]
    return DensityMatrix(2, mat)


def _blocking(diag: np.ndarray, re23: np.ndarray):
    """blocking_conditions from the only entries it reads: diagonals and Re rho23."""
    max_ec = 4.0 * math.sqrt(2.0) * np.abs((diag[..., 1] + diag[..., 2]) / 2 + re23 + diag[..., 3])
    return np.abs(diag[..., 0] - diag[..., 3]) <= _BLOCKING_TOL, max_ec <= _BLOCKING_TOL, max_ec


def blocking_conditions(rho: np.ndarray):
    """Both blocking conditions for (..., 4, 4) battery density matrices,
    with an empty hub: (passes_available_energy, passes_zero_ec, max_abs_ec).

    The available-energy condition is the explicit trace formula
    hbar*omega*(2 + rho11 - rho44) == 2*hbar*omega, i.e. rho11 == rho44; the
    zero-current condition compares the current's peak over all times,
    max_abs_ec = 4*sqrt(2) * |transfer_fraction(rho)| in units of
    hbar*omega*J, with 1e-9.
    """
    return _blocking(np.einsum("...aa->...a", rho).real, rho[..., 1, 2].real)


def _wishart_entries(re: np.ndarray, im: np.ndarray) -> tuple:
    """diag W and Re W23 of W = G G^dag / tr W, G = re + i*im, forming neither."""
    diag = np.einsum("nak,nak->na", re, re) + np.einsum("nak,nak->na", im, im)
    re23 = np.einsum("nk,nk->n", re[:, 1], re[:, 2]) + np.einsum("nk,nk->n", im[:, 1], im[:, 2])
    return diag / (trace := diag.sum(axis=1))[:, None], re23 / trace


@dataclass(frozen=True)
class UniquenessScanReport:
    """Result of scanning density matrices for further energy-blocking states;
    each family draws ``n_random`` states (see trapping_uniqueness_scan)."""

    constraint_trace_distance: float
    n_pass_available: int
    n_pass_zero_ec: int
    n_pass_both: int
    n_counterexamples: int
    n_unrestricted_pass_both: int
    n_unrestricted_counterexamples: int


def trapping_uniqueness_scan(n_random: int, tol: float = 1e-3, *,
                             seed: int = 42) -> UniquenessScanReport:
    """Search the battery-state space for energy-blocking states.

    Samples ``n_random`` states, at most MAX_SCAN_SAMPLES, from the
    restricted family (diagonal plus a real rho23 coherence), tests the
    available-energy and zero-current conditions, and counts any state
    passing both that is farther than ``tol`` in trace distance from the
    singlet projector.  An additional unrestricted random-density-matrix
    scan is run and reported rather than asserted empty; it draws as many
    states as the restricted one.  The family's Dirichlet diagonals come
    from ``default_rng(seed)``; its rho23 factors and the Ginibre matrices'
    real and imaginary parts come from three streams spawned from
    ``SeedSequence(seed)``, drawn in chunks of ``_SCAN_CHUNK`` that bound the
    memory and leave the report unchanged.  The tests read a state's diagonal
    and Re rho23 alone; only a state passing both is built in full.
    """
    if not 1 <= n_random <= MAX_SCAN_SAMPLES:
        raise ValueError(f"n_random must lie in [1, {MAX_SCAN_SAMPLES}], got {n_random}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    singlet = bell_state(BellLabel(1, 1)).density()
    solved_distance = trace_distance(blocking_state_from_constraints(), singlet)
    diagonal_rng = np.random.default_rng(seed)
    coherence_rng, re_rng, im_rng = map(np.random.default_rng,
                                        np.random.SeedSequence(seed).spawn(3))

    def _scan(diag: np.ndarray, re23: np.ndarray, full) -> np.ndarray:
        pass_ca, pass_cb, _ = _blocking(diag, re23)
        both = pass_ca & pass_cb
        far = sum(trace_distance(DensityMatrix(2, rho), singlet) > tol
                  for rho in (full(both) if both.any() else ()))
        return np.array([pass_ca.sum(), pass_cb.sum(), both.sum(), far])

    # per family: passes available, zero ec, both, and counterexamples
    tally = np.zeros((2, 4), dtype=int)
    for start in range(0, n_random, _SCAN_CHUNK):
        m = min(_SCAN_CHUNK, n_random - start)
        # Restricted family: Dirichlet diagonal, real rho23 bounded by positivity.
        diags = diagonal_rng.dirichlet(np.ones(4), size=m)
        coh = coherence_rng.uniform(-1.0, 1.0, size=m) * np.sqrt(diags[:, 1] * diags[:, 2])
        tally[0] += _scan(diags, coh, lambda rows: (
            [[d1, 0, 0, 0], [0, d2, c, 0], [0, c, d3, 0], [0, 0, 0, d4]]
            for (d1, d2, d3, d4), c in zip(diags[rows], coh[rows])))
        # Unrestricted scan: Ginibre-random density matrices.
        re, im = re_rng.normal(size=(m, 4, 4)), im_rng.normal(size=(m, 4, 4))
        tally[1] += _scan(*_wishart_entries(re, im), lambda rows: (
            g @ g.conj().T / np.vdot(g, g).real for g in re[rows] + 1j * im[rows]))

    (n_ca, n_cb, n_both, n_far), (_, _, n_unres_both, n_unres_far) = tally.tolist()
    return UniquenessScanReport(
        constraint_trace_distance=float(solved_distance),
        n_pass_available=n_ca,
        n_pass_zero_ec=n_cb,
        n_pass_both=n_both,
        n_counterexamples=n_far,
        n_unrestricted_pass_both=n_unres_both,
        n_unrestricted_counterexamples=n_unres_far,
    )


class SwitchGate(Enum):
    """Local Pauli gates that unblock a stored cell.

    A bit flip on either battery qubit converts the singlet into a
    half-release Bell state; a phase flip converts it into the full-release
    one.  Neither changes the energy stored in the battery.
    """

    HALF_ON_QUBIT1 = ("x", 0)
    HALF_ON_QUBIT2 = ("x", 1)
    FULL_ON_QUBIT1 = ("z", 0)
    FULL_ON_QUBIT2 = ("z", 1)

    @classmethod
    def from_kind(cls, kind: str, qubit: int) -> "SwitchGate":
        try:
            return cls(({"half": "x", "full": "z"}[kind], qubit - 1))
        except (KeyError, ValueError):
            raise ValueError(f"unknown switch gate kind={kind!r} qubit={qubit}") from None


def switch_gate(kind: SwitchGate, psi: PureState) -> PureState:
    """Apply the chosen gate to one battery qubit of a cell + hub state."""
    if psi.n_qubits != 3:
        raise ValueError(f"switch gates act on a 3-qubit cell + hub state, got {psi.n_qubits}")
    axis, site = kind.value
    gate = embed(pauli(axis), [site], 3)
    return PureState(3, gate.matrix @ psi.amplitudes)


def separable_sweep(grid_n: int) -> np.ndarray:
    """Phase-optimized peak charge over E0 on the (grid_n, grid_n) grid
    beta1, beta2 = linspace(0, 1, grid_n).

    The peak charge at the transfer time is E0 * transfer_fraction of the
    product state, E0 * [b1 b2 a1 a2 cos(t1 - t2) + (b1^2 + b2^2)/2] with
    E0 = 2*hbar*omega, so the optimum over the relative phase is at
    theta1 == theta2, and it reaches E0 only at b1 = b2 = 1.  Up to 24 grid
    points, evenly spread over the flat grid and both corners among them, are
    cross-checked against direct three-qubit simulation in one solve;
    disagreement beyond 1e-9 * 2*hbar*omega raises.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    betas = np.linspace(0.0, 1.0, grid_n)
    qubits = np.stack([np.sqrt(1.0 - betas**2), betas], axis=1)  # a|0> + b|1> per beta
    pairs = np.einsum("ia,jb->ijab", qubits, qubits).reshape(grid_n, grid_n, 4)
    surface = transfer_fraction(pairs[..., :, None] * pairs[..., None, :])

    sampled = np.linspace(0, grid_n**2 - 1, min(24, grid_n**2)).astype(int)
    cells = np.zeros((8, sampled.size), dtype=complex)
    cells[0::2] = pairs.reshape(-1, 4)[sampled].T  # each pair on B1 B2, hub in |0>
    simulated = cell_charges(cells, [DISCHARGE_TIME])[0]
    off = np.flatnonzero(np.abs(simulated - surface.ravel()[sampled] * E0) > 1e-9 * E0)
    if off.size:
        i, j = divmod(int(sampled[off[0]]), grid_n)
        raise RuntimeError(
            f"separable closed form disagrees with simulation at beta=({betas[i]}, {betas[j]})")
    return surface


def cell_charges(cells: np.ndarray, times) -> np.ndarray:
    """Hub charge of each cell of an (8, k) block at each of ``times``, all
    evolved under the cell's coupling in one solve: a (len(times), k) array."""
    hs = hamiltonian_set()
    return charge(_spectral(hs.h_charging, cells, times).swapaxes(1, 2), hs)


def single_particle_baseline(t: float) -> float:
    """Hub charge 2*hbar*omega*sin^2(2Jt) for a one-qubit battery in |1>
    coupled to the hub by one XY term."""
    return E0 * math.sin(2.0 * t) ** 2


def single_particle_system() -> HamiltonianSet:
    """Two-qubit model (battery, hub) for the single-particle baseline.

    The battery qubit is site 0, the hub site 1.
    """
    return _xy_cell(1)


def single_particle_trajectory(t_final: float, n_samples: int) -> TimeSeries:
    """Simulated charge/current channels for the one-qubit battery."""
    hs = single_particle_system()
    return sample_trajectory(hs.h_charging, ket("10"), t_final, n_samples, hs)


class CellAction(Enum):
    """What one cell of a multi-cell battery does during a transfer window."""

    HOLD = "hold"
    HALF = "half"
    FULL = "full"

    @classmethod
    def parse(cls, token: str) -> "CellAction":
        # single letters are case sensitive: h = hold, H = half, f/F = full
        short = {"h": cls.HOLD, "H": cls.HALF, "f": cls.FULL, "F": cls.FULL}
        if token in short:
            return short[token]
        try:
            return cls(token.lower())
        except ValueError:
            raise ValueError(
                f"unknown cell action {token!r}; use hold/half/full or h/H/f") from None


@dataclass(frozen=True)
class NCellPlan:
    """Per-cell actions for an independent-cell battery bank.

    Cells are uncoupled, so each cell evolves as its own three-qubit block;
    the transferable quantum is half a cell, hbar*omega.
    """

    actions: tuple

    def __post_init__(self):
        actions = tuple(self.actions)
        object.__setattr__(self, "actions", actions)
        if not actions:
            raise ValueError("plan must contain at least one cell")
        if not all(isinstance(a, CellAction) for a in actions):
            raise ValueError("plan entries must be CellAction values")

    @classmethod
    def parse(cls, text: str) -> "NCellPlan":
        return cls(tuple(CellAction.parse(tok.strip()) for tok in text.split(",") if tok.strip()))


def cell_state_after_action(action: CellAction) -> PureState:
    """Stored cell with the action's gate applied, built once and shared (read-only)."""
    gate = None if action is CellAction.HOLD else SwitchGate.from_kind(action.value, 1)
    return bell_with_empty_hub(BellLabel(1, 1), gate)


def storage_state() -> PureState:
    """Stored cell: singlet battery, empty hub."""
    return cell_state_after_action(CellAction.HOLD)


def ncell_plan_energy(plan: NCellPlan):
    """Energy delivered by each cell at the transfer time, plus the total.

    Cells are uncoupled and identical, so each distinct action is simulated
    once as a three-qubit block, all of them in one solve.  Holds deliver
    nothing, half actions one quantum (hbar*omega), full actions two.
    """
    actions = list(dict.fromkeys(plan.actions))
    cells = np.stack([cell_state_after_action(action).amplitudes for action in actions], axis=1)
    charges = cell_charges(cells, [DISCHARGE_TIME])[0]
    delivered = dict(zip(actions, charges.tolist()))
    per_cell = tuple(delivered[action] for action in plan.actions)
    return float(sum(per_cell)), per_cell
