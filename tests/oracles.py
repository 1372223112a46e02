"""Raw Kronecker building blocks used by test oracles, independent of qbat.qalg."""

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kron(*mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def raw_cell_coupling():
    """Coupling Hamiltonian of one cell built by hand: sum (x x + y y)."""
    return kron(X, I2, X) + kron(Y, I2, Y) + kron(I2, X, X) + kron(I2, Y, Y)


def raw_transfer_fraction(rho):
    """<T|rho|T> + rho44 of (..., 4, 4) battery states, T = (|01> + |10>)/sqrt(2)."""
    t = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    return np.einsum("a,...ab,b->...", t, rho, t).real + rho[..., 3, 3].real


def raw_bare():
    """Per-qubit bare term |1><1| - |0><0|."""
    return np.diag([-1.0, 1.0]).astype(complex)
