import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from qbat.qalg import (
    DensityMatrix,
    Operator,
    PureState,
    embed,
    expectation,
    ket,
    pauli,
    tensor,
    trace_distance,
)

from oracles import X, Y, Z, kron


def test_pauli_definitions():
    assert_allclose(pauli("x").matrix, X)
    assert_allclose(pauli("y").matrix, Y)
    assert_allclose(pauli("z").matrix, Z)
    assert_allclose(pauli("x").matrix @ pauli("y").matrix, 1j * Z)
    w, _ = np.linalg.eigh(pauli("z").matrix)
    assert_allclose(w, [-1.0, 1.0])


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError):
        pauli("w")


def test_embed_examples():
    assert_allclose(embed(pauli("z"), [0], 2).matrix, np.diag([1, 1, -1, -1]).astype(complex))
    flipped = embed(pauli("x"), [1], 2).matrix @ ket("00").amplitudes
    assert_allclose(flipped, ket("01").amplitudes)
    xx = tensor(pauli("x"), pauli("x"))
    assert_allclose(embed(xx, [0, 2], 3).matrix @ ket("000").amplitudes,
                    ket("101").amplitudes)


def test_embed_respects_site_order():
    # z (x) x embedded with swapped sites puts its z factor on qubit 1
    zx = tensor(pauli("z"), pauli("x"))
    assert_allclose(embed(zx, [0, 1], 2).matrix, kron(Z, X))
    assert_allclose(embed(zx, [1, 0], 2).matrix, kron(X, Z))


def test_embed_validates_sites():
    with pytest.raises(ValueError):
        embed(pauli("x"), [0, 0], 3)
    with pytest.raises(ValueError):
        embed(pauli("x"), [3], 3)


def test_bare_hamiltonian_commutes_with_coupling(hs):
    # equal splittings make the coupling commute with the total bare part
    a, b = hs.h0_total.matrix, hs.h_charging.matrix
    comm = a @ b - b @ a
    assert np.abs(comm).max() <= 1e-12


def test_expectation_examples(hs):
    assert expectation(pauli("z"), ket("0")) == pytest.approx(1.0)
    singlet_hub = PureState(3, np.array([0, 0, 1, 0, -1, 0, 0, 0]) / np.sqrt(2))
    assert expectation(hs.h_charging, singlet_hub) == pytest.approx(0.0, abs=1e-12)


def test_eigh_battery_pair_ground():
    # XY pair: hand-built matrix has spectrum {-2J, 0, 0, +2J}; the singlet
    # combination spans the ground level
    pair = kron(X, X) + kron(Y, Y)
    w_ref = np.linalg.eigvalsh(pair)
    op = tensor(pauli("x"), pauli("x")) + tensor(pauli("y"), pauli("y"))
    w, v = np.linalg.eigh(op.matrix)
    assert_allclose(w, w_ref, atol=1e-12)
    assert w[0] == pytest.approx(-2.0)
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert abs(np.vdot(v[:, 0], singlet)) == pytest.approx(1.0, abs=1e-10)


def test_operator_rejects_non_hermitian():
    with pytest.raises(ValueError, match="^operator matrix is not hermitian within 1e-12$"):
        Operator(1, np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("build, message", [
    (lambda: Operator(1, np.zeros((2, 3))), r"^operator matrix must be square, got \(2, 3\)$"),
    (lambda: DensityMatrix(1, np.zeros((2, 3))), r"^density matrix must be square, got \(2, 3\)$"),
    (lambda: DensityMatrix(1, [[0.5, 0.5], [0, 0.5]]),
     "^density matrix is not hermitian within 1e-12$"),
], ids=["Operator square", "DensityMatrix square", "DensityMatrix hermitian"])
def test_matrix_checks_name_the_matrix(build, message):
    # the Operator's hermitian message is pinned above
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.nan * 1j])
@pytest.mark.parametrize("build", [
    lambda bad: PureState(1, [bad, 0]),
    lambda bad: Operator(1, [[bad, 0], [0, 1]]),
    lambda bad: DensityMatrix(1, [[bad, 0], [0, 1]]),
], ids=["PureState", "Operator", "DensityMatrix"])
def test_value_types_reject_non_finite_entries(build, bad):
    # the tolerance checks would pass nan and warn on inf, so this comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            build(bad)


def test_pure_state_norm_validated():
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.0], [0.0, 0.6]]))
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))


def test_trace_distance():
    a = ket("0").density()
    b = ket("1").density()
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-15)


# ----------------------------------------------------------------------
# Properties.

def _hermitian_ops(n_qubits):
    dim = 2**n_qubits
    reals = st.floats(-2.0, 2.0, allow_nan=False)
    return st.lists(reals, min_size=2 * dim * dim, max_size=2 * dim * dim).map(
        lambda vals: _as_hermitian(np.array(vals), dim, n_qubits))


def _as_hermitian(vals, dim, n_qubits):
    raw = vals[:dim * dim].reshape(dim, dim) + 1j * vals[dim * dim:].reshape(dim, dim)
    return Operator(n_qubits, (raw + raw.conj().T) / 2)


def _states(n_qubits):
    dim = 2**n_qubits
    reals = st.floats(-1.0, 1.0, allow_nan=False)
    return st.lists(reals, min_size=2 * dim, max_size=2 * dim).map(
        lambda vals: _as_state(np.array(vals), dim, n_qubits))


def _as_state(vals, dim, n_qubits):
    amp = vals[:dim] + 1j * vals[dim:]
    norm = np.linalg.norm(amp)
    if norm < 1e-3:
        amp = np.zeros(dim, dtype=complex)
        amp[0] = 1.0
        norm = 1.0
    return PureState(n_qubits, amp / norm)


@settings(max_examples=30, deadline=None)
@given(_hermitian_ops(1), _hermitian_ops(1))
def test_embed_is_multiplicative(a, b):
    # on the anticommutator, since the plain product ab is not hermitian
    ea, eb = embed(a, [1], 3).matrix, embed(b, [1], 3).matrix
    right = embed(Operator(1, a.matrix @ b.matrix + b.matrix @ a.matrix), [1], 3)
    assert np.abs(ea @ eb + eb @ ea - right.matrix).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(_hermitian_ops(2), _hermitian_ops(2), _states(2),
       st.floats(-3.0, 3.0, allow_nan=False))
def test_expectation_linearity(a, b, psi, alpha):
    combined = expectation(alpha * a + b, psi)
    split = alpha * expectation(a, psi) + expectation(b, psi)
    assert abs(combined - split) <= 1e-12 * max(1.0, abs(split))


def test_expectation_on_density_matrix():
    mixed = DensityMatrix(1, np.diag([0.25, 0.75]).astype(complex))
    assert expectation(pauli("z"), mixed) == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        expectation(pauli("z"), ket("00"))
