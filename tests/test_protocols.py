import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from qbat.dynamics import evolve_static, sample_trajectory
from qbat.model import SystemSpec, charge, ergotropy, hamiltonian_set, qubit_energy_term
from qbat.protocols import (
    BellLabel,
    CellAction,
    NCellPlan,
    SeparableParams,
    SwitchGate,
    bell_charge_closed_form,
    bell_state,
    bell_with_empty_hub,
    blocking_conditions,
    blocking_state_from_constraints,
    cell_state_after_action,
    discharge_time,
    ncell_plan_energy,
    separable_max_charge,
    separable_state,
    separable_sweep,
    single_particle_baseline,
    single_particle_transfer_time,
    single_particle_trajectory,
    switch_gate,
    trapping_check,
    trapping_uniqueness_scan,
)
from qbat.qalg import DensityMatrix, embed, ket, partial_trace

from conftest import I2, kron, raw_bare, raw_cell_coupling

TAUD = math.pi / (4 * math.sqrt(2))


def test_bell_states():
    assert_allclose(bell_state(BellLabel(1, 1)).amplitudes,
                    np.array([0, 1, -1, 0]) / math.sqrt(2))
    assert_allclose(bell_state(BellLabel(0, 0)).amplitudes,
                    np.array([1, 0, 0, 1]) / math.sqrt(2))
    with pytest.raises(ValueError):
        BellLabel(2, 0)
    assert BellLabel.parse("10") == BellLabel(1, 0)


def test_closed_form_g_table(spec):
    taud = discharge_time(spec)
    assert bell_charge_closed_form(BellLabel(1, 1), 0.77, spec) == 0.0
    assert bell_charge_closed_form(BellLabel(1, 0), taud, spec) == pytest.approx(2.0)
    assert bell_charge_closed_form(BellLabel(0, 0), taud, spec) == pytest.approx(1.0)
    assert bell_charge_closed_form(BellLabel(0, 1), taud, spec) == pytest.approx(1.0)


def test_closed_form_matches_simulation_all_labels(spec, hs):
    taud = discharge_time(spec)
    for n in (0, 1):
        for m in (0, 1):
            label = BellLabel(n, m)
            series = sample_trajectory(hs.h_charging, bell_with_empty_hub(label),
                                       2 * taud, 64, hs)
            closed = [bell_charge_closed_form(label, t, spec) for t in series.times]
            assert np.abs(series.charge - np.array(closed)).max() <= 1e-9


def test_trapping_check_candidates(spec, hs):
    stored = trapping_check(hs.h_charging, hs, bell_with_empty_hub(BellLabel(1, 1)))
    assert stored.trapped and stored.is_h_eigenstate
    assert stored.h_eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert stored.ec_value == pytest.approx(0.0, abs=1e-12)

    releasing = trapping_check(hs.h_charging, hs, bell_with_empty_hub(BellLabel(1, 0)))
    assert not releasing.trapped and not releasing.is_h_eigenstate

    empty = trapping_check(hs.h_charging, hs, ket("000"))
    assert empty.trapped and empty.h_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_trapping_persistence(spec, hs):
    series = sample_trajectory(hs.h_charging, bell_with_empty_hub(BellLabel(1, 1)),
                               2 * discharge_time(spec), 256, hs)
    assert np.abs(series.ec).max() <= 1e-12
    assert series.extra["fidelity_initial"].min() >= 1.0 - 1e-12


def test_blocking_constraint_state_is_singlet():
    solved = blocking_state_from_constraints()
    singlet = bell_state(BellLabel(1, 1)).density()
    assert np.abs(solved.entries - singlet.entries).max() <= 1e-15


def test_blocking_conditions_probes(spec):
    singlet = bell_state(BellLabel(1, 1)).density()
    ca, cb, max_ec = blocking_conditions(singlet, spec)
    assert ca and cb and max_ec <= 1e-12

    # the maximally mixed battery keeps only half the transferable energy
    # moving (ergotropy zero) and fails the zero-current condition
    mixed = DensityMatrix(2, np.eye(4) / 4)
    ca, cb, _ = blocking_conditions(mixed, spec)
    assert not (ca and cb)
    assert not cb
    pair_h = embed(qubit_energy_term(1.0), [0], 2) + embed(qubit_energy_term(1.0), [1], 2)
    assert ergotropy(mixed, pair_h) == pytest.approx(0.0, abs=1e-12)

    releasing = bell_state(BellLabel(1, 0)).density()
    ca, cb, max_ec = blocking_conditions(releasing, spec)
    assert ca and not cb
    assert max_ec > 1.0  # full-release current amplitude is order omega*J


def test_blocking_conditions_rejects_multi_cell_spec():
    singlet = bell_state(BellLabel(1, 1)).density()
    with pytest.raises(ValueError, match=r"^blocking_conditions .* n_cells = 2$"):
        blocking_conditions(singlet, SystemSpec(n_cells=2))


def test_uniqueness_scan_clean(spec):
    report = trapping_uniqueness_scan(2000, tol=1e-3, seed=11, spec=spec)
    assert report.constraint_trace_distance <= 1e-10
    assert report.n_counterexamples == 0
    assert report.n_samples == 2000
    assert report.n_unrestricted == 2000


def test_uniqueness_scan_rejects_multi_cell_spec():
    with pytest.raises(ValueError, match=r"^trapping_uniqueness_scan .* n_cells = 2$"):
        trapping_uniqueness_scan(10, spec=SystemSpec(n_cells=2))


def test_switch_gate_maps_between_bell_states():
    stored = bell_with_empty_hub(BellLabel(1, 1))
    half = switch_gate(SwitchGate.HALF_ON_QUBIT2, stored)
    assert half.fidelity(bell_with_empty_hub(BellLabel(0, 1))) == pytest.approx(1.0)
    half1 = switch_gate(SwitchGate.HALF_ON_QUBIT1, stored)
    assert half1.fidelity(bell_with_empty_hub(BellLabel(0, 1))) == pytest.approx(1.0)
    full = switch_gate(SwitchGate.FULL_ON_QUBIT1, stored)
    assert full.fidelity(bell_with_empty_hub(BellLabel(1, 0))) == pytest.approx(1.0)
    full2 = switch_gate(SwitchGate.FULL_ON_QUBIT2, stored)
    assert full2.fidelity(bell_with_empty_hub(BellLabel(1, 0))) == pytest.approx(1.0)


def test_switch_gate_release_levels(spec, hs):
    taud = discharge_time(spec)
    stored = bell_with_empty_hub(BellLabel(1, 1))
    full = evolve_static(hs.h_charging, switch_gate(SwitchGate.FULL_ON_QUBIT1, stored), taud)
    assert charge(full, hs) == pytest.approx(2.0, abs=1e-9)
    half = evolve_static(hs.h_charging, switch_gate(SwitchGate.HALF_ON_QUBIT2, stored), taud)
    assert charge(half, hs) == pytest.approx(1.0, abs=1e-9)


def test_switch_gate_qubit_independence(spec, hs):
    stored = bell_with_empty_hub(BellLabel(1, 1))
    a = switch_gate(SwitchGate.FULL_ON_QUBIT1, stored)
    b = switch_gate(SwitchGate.FULL_ON_QUBIT2, stored)
    for t in np.linspace(0.0, 2 * discharge_time(spec), 64):
        ca = charge(evolve_static(hs.h_charging, a, t), hs)
        cb = charge(evolve_static(hs.h_charging, b, t), hs)
        assert abs(ca - cb) <= 1e-12


def test_switch_gate_leaves_battery_energy_alone(hs):
    # gates commute with the hub bare term and preserve battery ergotropy
    stored = bell_with_empty_hub(BellLabel(1, 1))
    pair_h = embed(qubit_energy_term(1.0), [0], 2) + embed(qubit_energy_term(1.0), [1], 2)
    before = ergotropy(partial_trace(stored, [0, 1]), pair_h)
    for kind in SwitchGate:
        after = ergotropy(partial_trace(switch_gate(kind, stored), [0, 1]), pair_h)
        assert abs(after - before) <= 1e-10


def test_switch_gate_dimension_check():
    with pytest.raises(ValueError):
        switch_gate(SwitchGate.FULL_ON_QUBIT1, ket("01"))


def test_separable_closed_form_values(spec):
    assert separable_max_charge(SeparableParams(1.0, 1.0), spec) == pytest.approx(2.0)
    assert separable_max_charge(SeparableParams(0.0, 0.0), spec) == pytest.approx(0.0)
    even = SeparableParams(1 / math.sqrt(2), 1 / math.sqrt(2))
    assert separable_max_charge(even, spec) == pytest.approx(1.5)  # 0.75 * E0


def test_separable_closed_form_matches_simulation(spec, hs):
    rng = np.random.default_rng(5)
    taud = discharge_time(spec)
    for _ in range(6):
        params = SeparableParams(rng.uniform(0, 1), rng.uniform(0, 1),
                                 rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        psi0 = separable_state(params).tensor(ket("0"))
        simulated = charge(evolve_static(hs.h_charging, psi0, taud), hs)
        assert simulated == pytest.approx(separable_max_charge(params, spec), abs=1e-9)


def test_separable_sweep_bound(spec):
    sweep = separable_sweep(41, spec, seed=9)
    assert sweep.argmax == (1.0, 1.0)
    assert sweep.max_over_e0 == pytest.approx(1.0)
    interior = sweep.surface_over_e0.copy()
    interior[-1, -1] = -np.inf
    assert interior.max() <= 1.0 - 1e-4


def test_separable_sweep_rejects_multi_cell_spec():
    with pytest.raises(ValueError, match=r"^separable_sweep .* n_cells = 3$"):
        separable_sweep(5, SystemSpec(n_cells=3))


def test_single_particle_baseline(spec):
    t_sp = single_particle_transfer_time(spec)
    assert single_particle_baseline(t_sp, spec) == pytest.approx(2.0)
    assert single_particle_baseline(0.0, spec) == 0.0
    assert t_sp / discharge_time(spec) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_single_particle_trajectory_matches_baseline(spec):
    t_sp = single_particle_transfer_time(spec)
    series = single_particle_trajectory(spec, 2 * t_sp, 65)
    closed = [single_particle_baseline(t, spec) for t in series.times]
    assert np.abs(series.charge - np.array(closed)).max() <= 1e-10


def test_ncell_plan_parsing_and_energy(spec):
    plan = NCellPlan.parse("f,H,h")
    assert plan.actions == (CellAction.FULL, CellAction.HALF, CellAction.HOLD)
    total, per_cell = ncell_plan_energy(plan, spec)
    assert total == pytest.approx(3.0, abs=1e-9)
    assert per_cell[0] == pytest.approx(2.0, abs=1e-9)
    assert per_cell[1] == pytest.approx(1.0, abs=1e-9)
    assert per_cell[2] == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        NCellPlan.parse("f,x")


def test_ncell_all_full_and_all_hold(spec, hs):
    total, _ = ncell_plan_energy(NCellPlan.parse("f,f,f,f"), spec)
    assert total == pytest.approx(8.0, abs=1e-9)
    total, per_cell = ncell_plan_energy(NCellPlan.parse("h,h"), spec)
    assert total == pytest.approx(0.0, abs=1e-9)
    # held cells carry no current at any sampled time
    series = sample_trajectory(hs.h_charging, cell_state_after_action(CellAction.HOLD),
                               2 * discharge_time(spec), 32, hs)
    assert np.abs(series.ec).max() <= 1e-12


def test_two_cells_factorize(spec):
    two = SystemSpec(n_cells=2)
    hs2 = hamiltonian_set(two)
    one = hamiltonian_set(spec)
    taud = discharge_time(spec)
    cell_a = cell_state_after_action(CellAction.FULL)
    cell_b = cell_state_after_action(CellAction.HALF)
    joint = evolve_static(hs2.h_charging, cell_a.tensor(cell_b), taud)
    product = (evolve_static(one.h_charging, cell_a, taud)
               .tensor(evolve_static(one.h_charging, cell_b, taud)))
    assert np.abs(joint.amplitudes - product.amplitudes).max() <= 1e-9
    assert charge(joint, hs2) == pytest.approx(3.0, abs=1e-9)


def test_switch_gates_commute_with_hub_term(hs):
    from qbat.qalg import commutator, embed, pauli
    for axis, site in (("x", 0), ("x", 1), ("z", 0), ("z", 1)):
        gate = embed(pauli(axis), [site], 3)
        assert np.abs(commutator(gate, hs.h0_hub).matrix).max() == 0.0


def test_trapping_check_requires_positive_tol(hs):
    with pytest.raises(ValueError):
        trapping_check(hs.h_charging, hs, ket("000"), tol=0.0)


def test_separable_params_range():
    with pytest.raises(ValueError):
        SeparableParams(1.2, 0.5)
    with pytest.raises(ValueError):
        SeparableParams(0.5, -0.1)


def test_uniqueness_scan_requires_samples():
    with pytest.raises(ValueError):
        trapping_uniqueness_scan(0)


def test_commutator_dimension_mismatch(hs):
    from qbat.qalg import commutator, pauli
    with pytest.raises(ValueError):
        commutator(hs.h_charging, pauli("x"))


def test_family_current_amplitude_is_analytic(spec):
    # for diagonal-plus-real-coherence battery states the simulated current
    # maximum equals 4*sqrt(2)*omega*J * ((rho22+rho33+2*rho23)/2 + rho44)
    # times the largest sampled |sin(4*sqrt(2) J t)|
    from qbat.protocols import _ec_samples
    rng = np.random.default_rng(0)
    times = np.linspace(0.0, 2 * discharge_time(spec), 64)
    smax = np.abs(np.sin(4 * math.sqrt(2) * times)).max()
    for _ in range(5):
        diag = rng.dirichlet(np.ones(4))
        rho23 = rng.uniform(-1, 1) * math.sqrt(diag[1] * diag[2])
        rho = np.diag(diag).astype(complex)
        rho[1, 2] = rho[2, 1] = rho23
        simulated = np.abs(_ec_samples(rho[None], spec, 64)).max()
        amplitude = (diag[1] + diag[2] + 2 * rho23) / 2 + diag[3]
        assert simulated == pytest.approx(4 * math.sqrt(2) * amplitude * smax, abs=1e-12)


def test_scan_current_matches_the_lifted_trace():
    # oracle: the explicit trace over rho x |0><0| with the 8x8 Heisenberg-
    # picture current, built by hand, for Ginibre states with complex coherences
    from qbat.protocols import _ec_samples
    omega, j = 1.3, 0.7
    spec = SystemSpec(omega, j)
    h = raw_cell_coupling(j)
    h0_hub = kron(I2, I2, raw_bare(omega))
    p_hat = (h0_hub @ h - h @ h0_hub) / 1j
    times = np.linspace(0.0, 2 * discharge_time(spec), 32)
    rng = np.random.default_rng(11)
    g = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    rhos = g @ g.conj().transpose(0, 2, 1)
    rhos /= np.einsum("naa->n", rhos).real[:, None, None]
    empty_hub = np.diag([1.0, 0.0]).astype(complex)
    oracle = np.empty((len(rhos), len(times)))
    for k, t in enumerate(times):
        u = scipy.linalg.expm(-1j * h * t)
        heis = u.conj().T @ p_hat @ u
        for n, rho in enumerate(rhos):
            oracle[n, k] = np.trace(heis @ np.kron(rho, empty_hub)).real
    assert np.abs(_ec_samples(rhos, spec) - oracle).max() <= 1e-12
