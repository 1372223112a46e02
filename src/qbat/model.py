"""Physical model of one or more battery cells coupled to a consumption hub.

A cell is a pair of non-interacting battery qubits; each cell feeds one hub
qubit through an XY exchange coupling.  Everything here is expressed with
hbar = 1; energies are in units of hbar*omega (bare splittings) or hbar*J
(couplings).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .qalg import (
    MAX_QUBITS,
    DensityMatrix,
    Operator,
    PureState,
    State,
    embed,
    eigh,
    expectation,
    max_abs,
    pauli,
    tensor,
)

# Largest accepted omega and J.  Every command runs without a numpy warning
# up to it (tests/test_cli.py runs each at the ceiling); far beyond it the
# products the package forms, such as omega*J or squared charges, overflow.
RATE_CEILING = 1e12


@dataclass(frozen=True)
class SystemSpec:
    """Physical parameters of the battery/hub block.

    omega
        Qubit splitting; the bare per-qubit Hamiltonian is
        omega * (|1><1| - |0><0|), so |1> is the excited ("full") state.
    j_coupling
        XY exchange strength between each battery qubit and its hub qubit.
        Both rates must lie in (0, RATE_CEILING].
    n_cells
        Number of independent cells, an integer in [1, MAX_QUBITS // 3].
        Cell c owns qubits 3c and 3c+1 (its batteries) and 3c+2 (its hub),
        in the package's big-endian order, so a single cell is (B1, B2, hub).
    """

    omega: float = 1.0
    j_coupling: float = 1.0
    n_cells: int = 1

    def __post_init__(self):
        for name, rate in (("omega", self.omega), ("j_coupling", self.j_coupling)):
            if not 0 < rate <= RATE_CEILING:
                raise ValueError(f"{name} must be > 0 and <= {RATE_CEILING:g}, got {rate}")
        cells, most = self.n_cells, MAX_QUBITS // 3
        if isinstance(cells, bool) or not isinstance(cells, int) or not 1 <= cells <= most:
            raise ValueError(f"n_cells must be an integer in [1, {most}], got {cells!r}")

    @property
    def full_cell_energy(self) -> float:
        """Maximum energy one cell can hand to its hub qubit (2 hbar*omega)."""
        return 2.0 * self.omega


@dataclass(frozen=True, eq=False)
class HamiltonianSet:
    """Bare Hamiltonian pieces (plus, optionally, the coupling) on the full space."""

    h0_battery: Operator
    h0_hub: Operator
    h0_total: Operator
    h_charging: Operator | None
    e_empty: float

    def __post_init__(self):
        total = self.h0_battery.matrix + self.h0_hub.matrix
        if max_abs(self.h0_total.matrix - total) > 1e-12:
            raise ValueError("h0_total must equal h0_battery + h0_hub entrywise")
        ground = float(np.linalg.eigvalsh(self.h0_hub.matrix).min())
        if abs(ground - self.e_empty) > 1e-9 * max(1.0, abs(self.e_empty)):
            raise ValueError(
                f"e_empty {self.e_empty} does not match hub ground energy {ground}")


def qubit_energy_term(omega: float) -> Operator:
    """Single-qubit bare Hamiltonian omega * (|1><1| - |0><0|).

    Built from projectors rather than pauli("z") so the excited state is
    unambiguously |1> regardless of z-sign conventions.
    """
    return Operator(1, np.diag([-omega, omega]).astype(complex), hermitian=True)


def bare_hamiltonian(spec: SystemSpec) -> HamiltonianSet:
    """Bare Hamiltonians of the battery and hub qubits (no coupling term).

    ``e_empty`` is the hub ground energy, -hbar*omega per hub qubit.
    """
    n = 3 * spec.n_cells
    term = qubit_energy_term(spec.omega)
    zero = Operator(n, np.zeros((2**n, 2**n)), hermitian=True)
    h_b = sum((embed(term, [q], n) for q in range(n) if q % 3 != 2), start=zero)
    h_a = sum((embed(term, [q], n) for q in range(2, n, 3)), start=zero)
    return HamiltonianSet(
        h0_battery=h_b,
        h0_hub=h_a,
        h0_total=h_b + h_a,
        h_charging=None,
        e_empty=-spec.omega * spec.n_cells,
    )


def charging_hamiltonian(spec: SystemSpec) -> Operator:
    """XY coupling of both battery qubits of every cell to that cell's hub:

        J * sum_cells sum_{n=1,2} (x_Bn x_A + y_Bn y_A)

    This conserves the total excitation number, which underpins the
    closed-form discharge laws.
    """
    n = 3 * spec.n_cells
    xx = tensor(pauli("x"), pauli("x"))
    yy = tensor(pauli("y"), pauli("y"))
    h = Operator(n, np.zeros((2**n, 2**n)), hermitian=True)
    for hub in range(2, n, 3):
        for b in (hub - 2, hub - 1):
            h = h + spec.j_coupling * (embed(xx, [b, hub], n) + embed(yy, [b, hub], n))
    return h


def hamiltonian_set(spec: SystemSpec) -> HamiltonianSet:
    """Bare pieces plus the charging Hamiltonian, all on the full space."""
    return replace(bare_hamiltonian(spec), h_charging=charging_hamiltonian(spec))


def _ec_matrix(h0_hub: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(1/i)[h0_hub, h] for one Hamiltonian matrix or a stack of them."""
    return (h0_hub @ h - h @ h0_hub) / 1j


def ec_operator(h0_hub: Operator, h_int: Operator) -> Operator:
    """Energy-current operator (1/i)[h0_hub, h_int] (hbar = 1).

    Its expectation value is the instantaneous rate of energy transfer into
    the hub.  For hermitian inputs the result is hermitian; a failed check
    signals malformed inputs.
    """
    h0_hub._check_same_dim(h_int)
    m = _ec_matrix(h0_hub.matrix, h_int.matrix)
    if max_abs(m - m.conj().T) > 1e-12:
        raise ValueError("energy-current operator failed its hermiticity check")
    return Operator(h0_hub.n_qubits, m, hermitian=True)


def charge(state: State, hs: HamiltonianSet) -> float:
    """Energy currently held by the hub relative to its empty (ground) state."""
    return expectation(hs.h0_hub, state) - hs.e_empty


def _descending_populations(rho: State, h: Operator, context: str):
    """``rho`` as a density matrix, checked against ``h``, and its eigenvalues
    in descending order."""
    if not h.hermitian:
        raise ValueError(f"{context} requires a hermitian reference Hamiltonian")
    rho = rho.density() if isinstance(rho, PureState) else rho
    if rho.dim != h.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, hamiltonian {h.dim}")
    return rho, np.sort(np.linalg.eigvalsh(rho.entries))[::-1]


def passive_state(rho: State, h: Operator) -> DensityMatrix:
    """State reached by sorting rho's populations descending against h's
    levels ascending; no work is unitarily extractable from it.

    Ties among energy levels are broken in index order; the resulting energy
    (hence the ergotropy) is unaffected by that choice.
    """
    rho, populations = _descending_populations(rho, h, "passive_state")
    populations = np.clip(populations, 0.0, None)
    populations = populations / populations.sum()
    _, levels = eigh(h)
    return DensityMatrix(rho.n_qubits, (levels * populations) @ levels.conj().T)


def ergotropy(rho: State, h: Operator) -> float:
    """Maximum work extractable from ``rho`` by unitaries, for reference ``h``.

    Computed as tr(h rho) minus the passive-state energy (descending
    populations paired with ascending levels).  For a pure state this equals
    the energy above the ground state of ``h``.
    """
    rho, populations = _descending_populations(rho, h, "ergotropy")
    levels = np.linalg.eigvalsh(h.matrix)
    return float(np.trace(h.matrix @ rho.entries).real - populations @ levels)
