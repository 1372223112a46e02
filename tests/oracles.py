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


def raw_cell_coupling(j=1.0):
    """Coupling Hamiltonian of one cell built by hand: J sum (x x + y y)."""
    return j * (kron(X, I2, X) + kron(Y, I2, Y) + kron(I2, X, X) + kron(I2, Y, Y))


def raw_bare(omega=1.0):
    """Per-qubit bare term omega*(|1><1| - |0><0|)."""
    return omega * np.diag([-1.0, 1.0]).astype(complex)
