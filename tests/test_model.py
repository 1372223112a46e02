import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from qbat import model
from qbat.dynamics import evolve_static
from qbat.model import (
    _observable_rows,
    charge,
    ec_operator,
    ergotropy,
    hamiltonian_set,
    qubit_energy_term,
)
from qbat.protocols import BellLabel, bell_state, bell_with_empty_hub, single_particle_system
from qbat.qalg import (
    DensityMatrix,
    Operator,
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


_RAW_CELLS = {
    # battery qubits 0 .. n-1, hub last: (h0_battery, h0_hub, h_charging)
    1: (kron(raw_bare(), I2), kron(I2, raw_bare()), kron(X, X) + kron(Y, Y)),
    2: (kron(raw_bare(), I2, I2) + kron(I2, raw_bare(), I2), kron(I2, I2, raw_bare()),
        raw_cell_coupling()),
}


@pytest.mark.parametrize("cell", [single_particle_system, hamiltonian_set])
def test_xy_cells_equal_the_raw_kron_oracles(cell):
    hs = cell()
    h0_battery, h0_hub, h_charging = _RAW_CELLS[hs.h0_hub.n_qubits - 1]
    assert np.array_equal(hs.h0_battery.matrix, h0_battery)
    assert np.array_equal(hs.h0_hub.matrix, h0_hub)
    assert np.array_equal(hs.h_charging.matrix, h_charging)
    assert hs.e_empty == -1.0


def test_current_is_kept_on_the_set():
    hs = hamiltonian_set()
    assert hs.current is hamiltonian_set().current
    assert hs.current.matrix.tobytes() == ec_operator(hs.h0_hub, hs.h_charging).matrix.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        hs.current.matrix[0, 0] = 1.0
    with pytest.raises(AttributeError):
        hs.current = hs.h0_hub


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


def test_charge_rejects_a_density_matrix(hs):
    message = "^charge takes a PureState or an ndarray, got DensityMatrix$"
    with pytest.raises(TypeError, match=message):
        charge(ket("101").density(), hs)


@pytest.mark.parametrize("state", [ket("01"), np.zeros((5, 4), dtype=complex)],
                         ids=["state", "stack"])
def test_charge_rejects_a_state_of_the_wrong_size(hs, state):
    # in expectation's words, not numpy's broadcast error
    with pytest.raises(ValueError, match="^dimension mismatch: operator 8, state 4$"):
        charge(state, hs)


# ----------------------------------------------------------------------
# Properties.

def _state_stacks(n_rows, dim):
    reals = st.floats(-1.0, 1.0, allow_nan=False)
    stacks = st.lists(reals, min_size=2 * n_rows * dim, max_size=2 * n_rows * dim).map(
        lambda vals: _as_unit_rows(np.array(vals), n_rows, dim))
    return stacks.filter(lambda rows: rows is not None)


def _as_unit_rows(vals, n_rows, dim):
    rows = (vals[:n_rows * dim] + 1j * vals[n_rows * dim:]).reshape(n_rows, dim)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / norms if norms.min() > 1e-3 else None


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: _state_stacks(n, 8)))
def test_charge_of_a_stack_is_the_charge_of_each_row(hs, rows):
    expected = [expectation(hs.h0_hub, PureState(3, row)) - hs.e_empty for row in rows]
    assert np.abs(charge(rows, hs) - expected).max() <= 1e-14
    assert abs(charge(PureState(3, rows[0]), hs) - expected[0]) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: _state_stacks(n, 3)))
def test_charge_on_a_sector_is_the_charge_of_the_padded_rows(hs, rows):
    sector = [0b001, 0b010, 0b100]
    padded = np.zeros((len(rows), 8), dtype=complex)
    padded[:, sector] = rows
    on_sector = _observable_rows(rows, hs.hub_charge, sector)
    assert np.abs(on_sector - charge(padded, hs)).max() <= 1e-14
    # a tuple names the same states as the list
    assert np.array_equal(_observable_rows(rows, hs.hub_charge, tuple(sector)), on_sector)


def test_an_empty_hub_holds_exactly_no_charge(hs):
    # H0_hub - e_empty is diagonal with entries 0 and 2, so a state with no
    # amplitude on an excited hub reads 0 exactly, not the 1e-16 to 7e-16
    # left when e_empty is subtracted from <H0_hub> afterwards
    empty = [ket("000")] + [bell_with_empty_hub(BellLabel(n, m)) for n in (0, 1) for m in (0, 1)]
    for state in empty:
        assert charge(state, hs) == 0.0
    assert np.array_equal(charge(np.stack([s.amplitudes for s in empty]), hs), np.zeros(5))
    assert np.array_equal(np.diag(hs.hub_charge), [0.0, 2.0] * 4)
    assert hs.hub_charge.flags.writeable is False


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: _state_stacks(n, 8)), st.integers(0, 2**32 - 1))
def test_stacked_observable_rows_are_the_one_operator_rows(hs, rows, seed):
    # one row per operator of a stack, equal to each operator's own call
    # within 1e-15 (on all eight states and on a sector), and to the
    # expectation of each row within 1e-14, for any leading shape of states and
    # however many states each matmul takes
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 8, 8)) + 1j * rng.normal(size=(4, 8, 8))
    ops = np.concatenate([g + g.conj().swapaxes(1, 2), [hs.hub_charge]])
    sector = [0b001, 0b010, 0b100]
    for states, where in ((rows, slice(None)), (rows[:, sector], sector)):
        stacked = _observable_rows(states, ops, where)
        assert stacked.shape == (len(ops), len(rows))
        for op, row in zip(ops, stacked):
            assert np.abs(row - _observable_rows(states, op, where)).max() <= 1e-15
    expected = [[expectation(Operator(3, op), PureState(3, r)) for r in rows] for op in ops]
    whole = _observable_rows(rows, ops)
    assert np.abs(whole - expected).max() <= 1e-14
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_ROWS", 2)  # two states per matmul
        assert np.abs(_observable_rows(rows, ops) - whole).max() <= 1e-15
    pairs = _observable_rows(np.stack([rows, rows]), ops)
    assert pairs.shape == (len(ops), 2, len(rows))
    assert np.array_equal(pairs[:, 0], pairs[:, 1])


def test_stacked_observable_rows_reject_a_state_of_the_wrong_size(hs):
    ops = np.stack([hs.hub_charge, hs.current.matrix])
    with pytest.raises(ValueError, match="^dimension mismatch: operator 8, state 4$"):
        _observable_rows(np.zeros((5, 4), dtype=complex), ops)
    with pytest.raises(ValueError, match="^dimension mismatch: operator 3, state 8$"):
        _observable_rows(np.zeros((5, 8), dtype=complex), ops, [0b001, 0b010, 0b100])


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
