"""Physical model of one battery cell coupled to its consumption hub.

A cell is a pair of non-interacting battery qubits B1, B2 that feed one hub
qubit through an XY exchange coupling; the qubits are ordered (B1, B2, hub)
in the package's big-endian basis.  Everything here is computed at
hbar = omega = J = 1 (omega the qubit splitting, J the XY coupling): every
result is a unit-rate result times a fixed power of omega and J, so
energies are in hbar*omega, couplings in hbar*J, currents in hbar*omega*J
and times in 1/J.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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

# Full cell energy 2*hbar*omega: the most one cell can hand its hub qubit.
E0 = 2.0


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


def qubit_energy_term() -> Operator:
    """Single-qubit bare Hamiltonian |1><1| - |0><0| (units of hbar*omega).

    Built from projectors rather than pauli("z") so the excited state is
    unambiguously |1> regardless of z-sign conventions.
    """
    return Operator(1, np.diag([-1.0, 1.0]).astype(complex))


def charging_hamiltonian() -> Operator:
    """XY coupling of both battery qubits to the hub, in units of hbar*J:

        sum_{n=1,2} (x_Bn x_A + y_Bn y_A)

    This conserves the total excitation number, which underpins the
    closed-form discharge laws.
    """
    xx = tensor(pauli("x"), pauli("x"))
    yy = tensor(pauli("y"), pauli("y"))
    return (embed(xx, [0, 2], 3) + embed(yy, [0, 2], 3)
            + (embed(xx, [1, 2], 3) + embed(yy, [1, 2], 3)))


def hamiltonian_set() -> HamiltonianSet:
    """Bare battery and hub Hamiltonians plus the charging Hamiltonian, all on
    the cell's space; ``e_empty`` is the hub ground energy, -hbar*omega.  Built
    once per process and shared, as the set is frozen and its arrays read-only;
    a plain function, so that the benchmark's tracer can wrap it."""
    return _cell_hamiltonians()


@cache
def _cell_hamiltonians() -> HamiltonianSet:
    term = qubit_energy_term()
    return HamiltonianSet(h0_battery=embed(term, [0], 3) + embed(term, [1], 3),
                          h0_hub=embed(term, [2], 3), h_charging=charging_hamiltonian())


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
