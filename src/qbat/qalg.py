"""Dense hermitian-operator and state algebra on small multi-qubit spaces.

Conventions used throughout the package:

* hbar = omega = J = 1 (see ``model``); energies carry their unit
  (hbar*omega or hbar*J) in the docs of whatever constructed them.
* Basis ordering is big-endian: qubit 0 is the most significant bit, so the
  computational basis index of |b0 b1 ... b_{n-1}> is sum_k b_k * 2**(n-1-k).
* ``pauli("z")`` is the standard diag(+1, -1) in the (|0>, |1>) basis.  The
  bare qubit Hamiltonian is built from projectors instead (see ``model``),
  which makes |1> the excited state without relying on a sign convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

MAX_QUBITS = 12

HERMITIAN_ATOL = 1e-12
NORM_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIG_FLOOR = -1e-10


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=complex, copy=True)
    if not np.isfinite(arr).all():
        raise ValueError("array entries must be finite")
    arr.setflags(write=False)
    return arr


def _check_n_qubits(n_qubits: int, dim: int) -> None:
    if n_qubits < 1 or n_qubits > MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    if dim != 2**n_qubits:
        raise ValueError(f"dimension {dim} does not match 2**{n_qubits}")


def max_abs(matrix: np.ndarray) -> float:
    """Entrywise max-norm, the norm used by the package's tolerances."""
    return float(np.max(np.abs(matrix))) if matrix.size else 0.0


def _hermitian_matrix(values, n_qubits: int, noun: str) -> np.ndarray:
    """``values`` as a read-only hermitian matrix on ``n_qubits`` qubits, or ValueError."""
    mat = _frozen_array(values)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{noun} must be square, got {mat.shape}")
    _check_n_qubits(n_qubits, mat.shape[0])
    if max_abs(mat - mat.conj().T) > HERMITIAN_ATOL:
        raise ValueError(f"{noun} is not hermitian within 1e-12")
    return mat


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense hermitian matrix acting on ``n_qubits`` qubits.

    The constructor rejects a matrix with max|A - A^dagger| > 1e-12.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = _hermitian_matrix(self.matrix, self.n_qubits, "operator matrix")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __add__(self, other: "Operator") -> "Operator":
        self._check_same_dim(other)
        return Operator(self.n_qubits, self.matrix + other.matrix)

    def __mul__(self, scalar: float) -> "Operator":
        return Operator(self.n_qubits, self.matrix * scalar)

    __rmul__ = __mul__

    def _check_same_dim(self, other: "Operator") -> None:
        if not isinstance(other, Operator):
            raise TypeError(f"expected Operator, got {type(other).__name__}")
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized state vector on ``n_qubits`` qubits (norm within 1e-12 of 1)."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = _frozen_array(self.amplitudes)
        if amp.ndim != 1:
            raise ValueError(f"state vector must be 1-d, got shape {amp.shape}")
        _check_n_qubits(self.n_qubits, amp.shape[0])
        object.__setattr__(self, "amplitudes", amp)
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state vector norm {norm} deviates from 1 by more than {NORM_ATOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def tensor(self, other: "PureState") -> "PureState":
        return PureState(self.n_qubits + other.n_qubits,
                         np.kron(self.amplitudes, other.amplitudes))

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace Hermitian PSD matrix on ``n_qubits`` qubits."""

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        mat = _hermitian_matrix(self.entries, self.n_qubits, "density matrix")
        object.__setattr__(self, "entries", mat)
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        if float(np.linalg.eigvalsh(mat).min()) < EIG_FLOOR:
            raise ValueError("density matrix has an eigenvalue below -1e-10")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


State = Union[PureState, DensityMatrix]


_PAULI_MATRICES = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(axis: str) -> Operator:
    """Single-qubit Pauli operator; ``axis`` is one of "i", "x", "y", "z"."""
    key = str(axis).lower()
    if key not in _PAULI_MATRICES:
        raise ValueError(f"unknown Pauli axis {axis!r}; expected one of i, x, y, z")
    return Operator(1, _PAULI_MATRICES[key])


def tensor(*ops: Operator) -> Operator:
    """Tensor product of operators, first factor most significant."""
    if not ops:
        raise ValueError("tensor() requires at least one operator")
    mat = np.array([[1.0 + 0j]])
    n = 0
    for op in ops:
        mat = np.kron(mat, op.matrix)
        n += op.n_qubits
    return Operator(n, mat)


def ket(bits: str) -> PureState:
    """Computational basis state from a bit string, e.g. ket("010")."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"invalid bit string {bits!r}")
    n = len(bits)
    amp = np.zeros(2**n, dtype=complex)
    amp[int(bits, 2)] = 1.0
    return PureState(n, amp)


def embed(op: Operator, target_sites: Sequence[int], n_total: int) -> Operator:
    """Embed ``op`` so that its k-th tensor factor acts on ``target_sites[k]``.

    The remaining sites carry the identity; the result is expressed in the
    package's big-endian basis order.
    """
    sites = [int(s) for s in target_sites]
    if len(sites) != op.n_qubits:
        raise ValueError(f"operator acts on {op.n_qubits} qubits but {len(sites)} sites given")
    if len(set(sites)) != len(sites):
        raise ValueError(f"duplicate site index in {sites}")
    if any(s < 0 or s >= n_total for s in sites):
        raise ValueError(f"site index out of range for {n_total} qubits: {sites}")
    rest = [q for q in range(n_total) if q not in sites]
    order = sites + rest  # tensor factor j of the kron below acts on qubit order[j]
    big = np.kron(op.matrix, np.eye(2 ** len(rest)))
    tensor_form = big.reshape((2,) * (2 * n_total))
    inv = np.argsort(order)
    axes = list(inv) + [n_total + int(i) for i in inv]
    mat = np.transpose(tensor_form, axes).reshape(2**n_total, 2**n_total)
    return Operator(n_total, mat)


def expectation(op: Operator, state: State) -> float:
    """<psi|A|psi> or tr(A rho) of the hermitian ``op``.

    The value is real; its real part is returned, and the imaginary part
    left by rounding (which grows with the operator's scale) is dropped.
    """
    if not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")
    if state.dim != op.dim:
        raise ValueError(f"dimension mismatch: operator {op.dim}, state {state.dim}")
    if isinstance(state, PureState):
        return float(np.vdot(state.amplitudes, op.matrix @ state.amplitudes).real)
    return float(np.trace(op.matrix @ state.entries).real)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """T(a, b) = (1/2) ||a - b||_1."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    diff = a.entries - b.entries
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
