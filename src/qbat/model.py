"""Physical model of one battery cell coupled to its consumption hub.

A cell is a pair of non-interacting battery qubits B1, B2 that feed one hub
qubit through an XY exchange coupling; the qubits are ordered (B1, B2, hub)
in the package's big-endian basis.  Everything here is expressed with
hbar = 1; energies are in units of hbar*omega (bare splittings) or hbar*J
(couplings).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qalg import (
    Operator,
    PureState,
    State,
    embed,
    expectation,
    max_abs,
    pauli,
    tensor,
)

# Largest accepted omega and J; its inverse is the smallest.  Every command
# runs without a numpy warning across that band (tests/test_cli.py runs each
# at both ends); far beyond it the products the package forms, such as
# omega*J or squared charges, overflow or underflow.
RATE_CEILING = 1e12


def check_rate(name: str, rate: float) -> None:
    """Reject a rate outside [1/RATE_CEILING, RATE_CEILING], NaN included."""
    if not 1 / RATE_CEILING <= rate <= RATE_CEILING:
        raise ValueError(f"{name} must lie in [{1 / RATE_CEILING:g}, {RATE_CEILING:g}], "
                         f"got {rate}")


@dataclass(frozen=True)
class SystemSpec:
    """Physical parameters of the cell.

    omega
        Qubit splitting; the bare per-qubit Hamiltonian is
        omega * (|1><1| - |0><0|), so |1> is the excited ("full") state.
    j_coupling
        XY exchange strength between each battery qubit and its hub qubit.
        Both rates must lie in [1/RATE_CEILING, RATE_CEILING].
    """

    omega: float = 1.0
    j_coupling: float = 1.0

    def __post_init__(self):
        check_rate("omega", self.omega)
        check_rate("j_coupling", self.j_coupling)

    @property
    def full_cell_energy(self) -> float:
        """Maximum energy the cell can hand to its hub qubit (2 hbar*omega)."""
        return 2.0 * self.omega


@dataclass(frozen=True, eq=False)
class HamiltonianSet:
    """Bare Hamiltonian pieces and the coupling on the cell's space."""

    h0_battery: Operator
    h0_hub: Operator
    h0_total: Operator
    h_charging: Operator
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


def charging_hamiltonian(spec: SystemSpec) -> Operator:
    """XY coupling of both battery qubits to the hub:

        J * sum_{n=1,2} (x_Bn x_A + y_Bn y_A)

    This conserves the total excitation number, which underpins the
    closed-form discharge laws.
    """
    xx = tensor(pauli("x"), pauli("x"))
    yy = tensor(pauli("y"), pauli("y"))
    j = spec.j_coupling
    return (j * (embed(xx, [0, 2], 3) + embed(yy, [0, 2], 3))
            + j * (embed(xx, [1, 2], 3) + embed(yy, [1, 2], 3)))


def hamiltonian_set(spec: SystemSpec) -> HamiltonianSet:
    """Bare battery and hub Hamiltonians plus the charging Hamiltonian, all on
    the cell's space; ``e_empty`` is the hub ground energy, -hbar*omega."""
    term = qubit_energy_term(spec.omega)
    h_b = embed(term, [0], 3) + embed(term, [1], 3)
    h_a = embed(term, [2], 3)
    return HamiltonianSet(h0_battery=h_b, h0_hub=h_a, h0_total=h_b + h_a,
                          h_charging=charging_hamiltonian(spec), e_empty=-spec.omega)


def ec_operator(h0_hub: Operator, h_int: Operator) -> Operator:
    """Energy-current operator (1/i)[h0_hub, h_int] (hbar = 1).

    Its expectation value is the instantaneous rate of energy transfer into
    the hub.  For hermitian inputs the result is hermitian; a failed check
    signals malformed inputs.
    """
    h0_hub._check_same_dim(h_int)
    m = (h0_hub.matrix @ h_int.matrix - h_int.matrix @ h0_hub.matrix) / 1j
    if max_abs(m - m.conj().T) > 1e-12:
        raise ValueError("energy-current operator failed its hermiticity check")
    return Operator(h0_hub.n_qubits, m, hermitian=True)


def charge(state: State, hs: HamiltonianSet) -> float:
    """Energy currently held by the hub relative to its empty (ground) state."""
    return expectation(hs.h0_hub, state) - hs.e_empty


def ergotropy(rho: State, h: Operator) -> float:
    """Maximum work extractable from ``rho`` by unitaries, for reference ``h``.

    Computed as tr(h rho) minus the passive-state energy (descending
    populations paired with ascending levels).  For a pure state this equals
    the energy above the ground state of ``h``.
    """
    if not h.hermitian:
        raise ValueError("ergotropy requires a hermitian reference Hamiltonian")
    rho = rho.density() if isinstance(rho, PureState) else rho
    if rho.dim != h.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, hamiltonian {h.dim}")
    populations = np.sort(np.linalg.eigvalsh(rho.entries))[::-1]
    levels = np.linalg.eigvalsh(h.matrix)
    return float(np.trace(h.matrix @ rho.entries).real - populations @ levels)
