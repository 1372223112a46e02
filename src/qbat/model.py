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
    """Bare Hamiltonian pieces and the coupling on the cell's space;
    ``h0_total`` and ``e_empty`` are derived from the diagonal bare terms."""

    h0_battery: Operator
    h0_hub: Operator
    h_charging: Operator

    @property
    def h0_total(self) -> Operator:
        return self.h0_battery + self.h0_hub

    @property
    def e_empty(self) -> float:
        """Hub ground energy, the smallest diagonal entry of ``h0_hub``."""
        return float(self.h0_hub.matrix.diagonal().real.min())


def qubit_energy_term(omega: float) -> Operator:
    """Single-qubit bare Hamiltonian omega * (|1><1| - |0><0|).

    Built from projectors rather than pauli("z") so the excited state is
    unambiguously |1> regardless of z-sign conventions.
    """
    return Operator(1, np.diag([-omega, omega]).astype(complex))


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
    return HamiltonianSet(h0_battery=embed(term, [0], 3) + embed(term, [1], 3),
                          h0_hub=embed(term, [2], 3), h_charging=charging_hamiltonian(spec))


def ec_operator(h0_hub: Operator, h_int: Operator) -> Operator:
    """Energy-current operator (1/i)[h0_hub, h_int] (hbar = 1).

    Its expectation value is the instantaneous rate of energy transfer into
    the hub.  For exactly hermitian inputs it is exactly hermitian: (AB)^dagger
    and BA sum the same products in the same order.
    """
    h0_hub._check_same_dim(h_int)
    m = (h0_hub.matrix @ h_int.matrix - h_int.matrix @ h0_hub.matrix) / 1j
    return Operator(h0_hub.n_qubits, m)


def charge(state: State, hs: HamiltonianSet) -> float:
    """Energy currently held by the hub relative to its empty (ground) state."""
    return expectation(hs.h0_hub, state) - hs.e_empty


def ergotropy(rho: State, h: Operator) -> float:
    """Maximum work extractable from ``rho`` by unitaries, for reference ``h``.

    Computed as tr(h rho) minus the passive-state energy (descending
    populations paired with ascending levels).  For a pure state this equals
    the energy above the ground state of ``h``.
    """
    rho = rho.density() if isinstance(rho, PureState) else rho
    if rho.dim != h.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, hamiltonian {h.dim}")
    populations = np.sort(np.linalg.eigvalsh(rho.entries))[::-1]
    levels = np.linalg.eigvalsh(h.matrix)
    return float(np.trace(h.matrix @ rho.entries).real - populations @ levels)
