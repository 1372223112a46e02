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
from functools import cache, cached_property, reduce
from operator import add

import numpy as np

from .qalg import (
    Operator,
    _frozen_array,
    PureState,
    State,
    embed,
    pauli,
    tensor,
)

# Full cell energy 2*hbar*omega: the most one cell can hand its hub qubit.
E0 = 2.0
_ROWS = 2**10  # states per matmul of _observable_rows: 0.23 MiB for the drive's 5 blocks


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

    @cached_property
    def hub_charge(self) -> np.ndarray:
        """H0_hub - e_empty I, whose expectation is the charge: entries exactly 0 and 2."""
        return _frozen_array(self.h0_hub.matrix - self.e_empty * np.eye(self.h0_hub.dim))

    @cached_property
    def current(self) -> Operator:
        """Energy-current operator (1/i)[h0_hub, h_charging], built on first
        use and kept: the set is frozen, so it cannot go stale."""
        return ec_operator(self.h0_hub, self.h_charging)


def qubit_energy_term() -> Operator:
    """Single-qubit bare Hamiltonian |1><1| - |0><0| (units of hbar*omega).

    Built from projectors rather than pauli("z") so the excited state is
    unambiguously |1> regardless of z-sign conventions.
    """
    return Operator(1, np.diag([-1.0, 1.0]).astype(complex))


def hamiltonian_set() -> HamiltonianSet:
    """Bare battery and hub Hamiltonians plus the charging Hamiltonian, all on
    the cell's space; ``e_empty`` is the hub ground energy, -hbar*omega.  Built
    once per process and shared, as the set is frozen and its arrays read-only;
    a plain function, so that the benchmark's tracer can wrap it."""
    return _xy_cell(2)


@cache
def _xy_cell(n_battery: int) -> HamiltonianSet:
    """Battery qubits 0 .. n_battery-1, each coupled to the hub (the last
    qubit) by the XY exchange sum_n (x_Bn x_A + y_Bn y_A) in units of hbar*J,
    which conserves the total excitation number and so underpins the
    closed-form discharge laws.  ``_xy_cell(1)`` is the single-particle model."""
    n, hub = n_battery + 1, n_battery
    term = qubit_energy_term()
    return HamiltonianSet(
        h0_battery=reduce(add, [embed(term, [b], n) for b in range(n_battery)]),
        h0_hub=embed(term, [hub], n),
        h_charging=reduce(add, [_xy_exchange(b, hub, n) for b in range(n_battery)]))


def _xy_exchange(i: int, j: int, n: int) -> Operator:
    """XY exchange x_i x_j + y_i y_j of sites i, j of n qubits (hbar*J units)."""
    return (embed(tensor(pauli("x"), pauli("x")), [i, j], n)
            + embed(tensor(pauli("y"), pauli("y")), [i, j], n))


def ec_operator(h0_hub: Operator, h_int: Operator) -> Operator:
    """Energy-current operator (1/i)[h0_hub, h_int] (hbar = 1).

    Its expectation value is the instantaneous rate of energy transfer into
    the hub.  For exactly hermitian inputs it is exactly hermitian: (AB)^dagger
    and BA sum the same products in the same order.
    """
    h0_hub._check_same_dim(h_int)
    m = (h0_hub.matrix @ h_int.matrix - h_int.matrix @ h0_hub.matrix) / 1j
    return Operator(h0_hub.n_qubits, m)


def _observable_rows(states: np.ndarray, ops: np.ndarray, sector=slice(None)) -> np.ndarray:
    """Real expectations of the hermitian ``ops``, (D, D) or (k, D, D), over a (...,
    len(sector)) state stack on the computational states ``sector`` (all by default):
    shaped (...) or (k, ...), from the ops' blocks side by side, one matmul per _ROWS."""
    blocks = ops[..., sector, :][..., sector]
    d = blocks.shape[-1]
    if states.shape[-1] != d:
        raise ValueError(f"dimension mismatch: operator {d}, state {states.shape[-1]}")
    flat, side = states.reshape(-1, d), blocks.reshape(-1, d, d).transpose(2, 0, 1).reshape(d, -1)
    rows = np.empty((side.shape[1] // d, len(flat)))
    for i in range(0, len(flat), _ROWS):
        applied = (flat[i:i + _ROWS] @ side).reshape(-1, len(rows), d)
        rows[:, i:i + _ROWS] = np.einsum("nki,ni->kn", applied, flat[i:i + _ROWS].conj()).real
    return rows.reshape(blocks.shape[:-2] + states.shape[:-1])[()]


def charge(state: PureState | np.ndarray, hs: HamiltonianSet):
    """Energy held by the hub above its empty (ground) energy: a float for a
    ``PureState``, an array for a (..., D) stack of amplitudes."""
    if not isinstance(state, (PureState, np.ndarray)):
        raise TypeError(f"charge takes a PureState or an ndarray, got {type(state).__name__}")
    rows = state.amplitudes if isinstance(state, PureState) else state
    return _observable_rows(rows, hs.hub_charge)


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
