import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from qbat.dynamics import evolve_static
from qbat.model import (
    charge,
    ec_operator,
    ergotropy,
    hamiltonian_set,
    qubit_energy_term,
)
from qbat.protocols import BellLabel, bell_state, bell_with_empty_hub
from qbat.qalg import (
    DensityMatrix,
    PureState,
    embed,
    expectation,
    ket,
)

from oracles import I2, X, Y, kron, raw_bare, raw_cell_coupling


def test_qubit_energy_term_excited_state():
    term = qubit_energy_term()
    w = np.linalg.eigvalsh(term.matrix)
    assert_allclose(w, [-1.0, 1.0])
    assert expectation(term, ket("1")) == pytest.approx(1.0)


def test_bare_hamiltonian_structure(hs):
    assert hs.e_empty == pytest.approx(-1.0)
    ground = np.linalg.eigvalsh(hs.h0_total.matrix).min()
    assert ground == pytest.approx(-3.0)
    assert expectation(hs.h0_total, ket("000")) == pytest.approx(-3.0)


def test_charging_hamiltonian_matches_hand_built(hs):
    assert_allclose(hs.h_charging.matrix, raw_cell_coupling(), atol=1e-15)
    assert hs.h_charging.matrix[int("000", 2), :] @ ket("000").amplitudes == 0
    # flipped-pair matrix element between hub and battery excitations
    assert hs.h_charging.matrix[int("001", 2), int("010", 2)] == pytest.approx(2.0)
    zero = hs.h_charging.matrix @ ket("000").amplitudes
    assert np.abs(zero).max() == 0.0


def test_hamiltonian_set_is_shared_and_read_only():
    # every caller in a process gets the same set, which is safe because
    # nothing in it can be changed
    hs = hamiltonian_set()
    assert hs is hamiltonian_set()
    for op in (hs.h0_battery, hs.h0_hub, hs.h_charging, hs.h0_total):
        assert op.matrix.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            op.matrix[0, 0] = 1.0
    with pytest.raises(AttributeError):
        hs.h_charging = hs.h0_hub


def test_ec_operator_closed_form(hs, p_hat):
    # (1/i)[H0_hub, H_C] = 2 J omega sum_n (y_Bn x_A - x_Bn y_A) for the
    # projector-built bare term (z eigenvalue +1 on the excited state)
    expected = 2.0 * (kron(Y, I2, X) - kron(X, I2, Y) + kron(I2, Y, X) - kron(I2, X, Y))
    assert_allclose(p_hat.matrix, expected, atol=1e-12)


def test_ec_operator_self_commutator_is_zero(hs):
    zero = ec_operator(hs.h0_hub, hs.h0_hub)
    assert np.abs(zero.matrix).max() == 0.0


def test_ec_operator_annihilates_stored_state(p_hat):
    stored = bell_with_empty_hub(BellLabel(1, 1))
    assert np.abs(p_hat.matrix @ stored.amplitudes).max() <= 1e-12
    assert expectation(p_hat, stored) == pytest.approx(0.0, abs=1e-12)


def test_charge_reference_points(hs):
    assert charge(ket("000"), hs) == pytest.approx(0.0, abs=1e-12)
    assert charge(ket("101"), hs) == pytest.approx(2.0)
    mixed_battery = bell_with_empty_hub(BellLabel(0, 0))
    assert charge(mixed_battery, hs) == pytest.approx(0.0, abs=1e-12)


def test_charge_frame_invariance(hs):
    psi0 = bell_with_empty_hub(BellLabel(1, 0))
    full = hs.h0_total + hs.h_charging
    for t in np.linspace(0.0, 1.2, 9):
        lab = evolve_static(full, psi0, t)
        rotating = evolve_static(hs.h_charging, psi0, t)
        assert charge(lab, hs) == pytest.approx(charge(rotating, hs), abs=1e-9)
        # rotating back by exp(+i H0_total t) maps one trajectory onto the other
        back = evolve_static(hs.h0_total, lab, -t)
        assert abs(np.vdot(back.amplitudes, rotating.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-9)


def _battery_pair_h():
    term = qubit_energy_term()
    return embed(term, [0], 2) + embed(term, [1], 2)


def test_ergotropy_bell_and_full_battery():
    h = _battery_pair_h()
    for n, m in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert ergotropy(bell_state(BellLabel(n, m)).density(), h) == pytest.approx(2.0)
    assert ergotropy(ket("11").density(), h) == pytest.approx(4.0)
    assert ergotropy(ket("00").density(), h) == pytest.approx(0.0, abs=1e-12)


def test_ergotropy_of_pure_state_is_energy_above_ground():
    # a pure state's passive state is the ground state of h, at -2
    h = _battery_pair_h()
    rng = np.random.default_rng(4)
    for _ in range(8):
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = PureState(2, amp / np.linalg.norm(amp))
        assert ergotropy(psi, h) == pytest.approx(expectation(h, psi) + 2.0, abs=1e-12)


def test_charge_additivity_over_cells(hs):
    # the energy of both hubs of a two-cell bank, built by hand, above their
    # empty energy -omega each, is the sum of the per-cell charges
    hub = kron(I2, I2, raw_bare())
    one = np.eye(8)
    two_hubs = np.kron(hub, one) + np.kron(one, hub)
    rng = np.random.default_rng(7)
    for _ in range(5):
        amps = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        cells = [PureState(3, a / np.linalg.norm(a)) for a in amps]
        joint = np.kron(cells[0].amplitudes, cells[1].amplitudes)
        total = np.vdot(joint, two_hubs @ joint).real + 2.0
        parts = sum(charge(c, hs) for c in cells)
        assert total == pytest.approx(parts, abs=1e-10)


# ----------------------------------------------------------------------
# Properties.

def _density_matrices(n_qubits):
    dim = 2**n_qubits
    reals = st.floats(-1.0, 1.0, allow_nan=False)
    return st.lists(reals, min_size=2 * dim * dim, max_size=2 * dim * dim).map(
        lambda vals: _as_density(np.array(vals), dim, n_qubits))


def _as_density(vals, dim, n_qubits):
    g = vals[:dim * dim].reshape(dim, dim) + 1j * vals[dim * dim:].reshape(dim, dim)
    rho = g @ g.conj().T + 1e-6 * np.eye(dim)
    return DensityMatrix(n_qubits, rho / np.trace(rho).real)


@settings(max_examples=25, deadline=None)
@given(_density_matrices(2))
def test_passive_state_has_zero_ergotropy(rho):
    h = _battery_pair_h()
    # h is diag(-2, 0, 0, 2), so rho's passive state holds its eigenvalues in
    # descending order on the diagonal
    sigma = DensityMatrix(2, np.diag(np.sort(np.linalg.eigvalsh(rho.entries))[::-1]))
    assert ergotropy(sigma, h) <= 1e-10
    assert ergotropy(rho, h) >= -1e-10


@settings(max_examples=25, deadline=None)
@given(_density_matrices(2), st.integers(0, 2**31 - 1))
def test_ergotropy_bounds_unitary_extraction(rho, seed):
    h = _battery_pair_h()
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(g)
    rotated = DensityMatrix(2, q @ rho.entries @ q.conj().T)
    extracted = expectation(h, rho) - expectation(h, rotated)
    assert extracted <= ergotropy(rho, h) + 1e-9
