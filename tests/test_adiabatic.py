import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from qbat import adiabatic, dynamics, model
from qbat.adiabatic import (
    _EXCITATION_SECTORS,
    AdiabaticSpec,
    Schedule,
    _align_group,
    _drive_states,
    _ht_stack,
    _sector_branches,
    adiabatic_decomposition,
    adiabatic_rate_prediction,
    forbidden_state,
    interpolation_parts,
    min_sector_gap,
    parity_check,
    parity_operator,
    run_discharge,
    schedule_value,
    storage_state,
    sweep_tau,
    target_state,
)
from qbat.dynamics import STEPS_PER_UNIT_JT, evolve_timedep
from qbat.model import E0, charge, ec_operator, hamiltonian_set
from qbat.qalg import Operator, PureState, ket

from oracles import I2, X, Y, Z, kron


def test_schedule_endpoints_exact():
    for schedule in Schedule:
        assert schedule_value(schedule, 0.0) == 0.0
        assert schedule_value(schedule, 1.0) == 1.0


def _ht(schedule, s):
    """Drive Hamiltonian matrix at progress s."""
    return _ht_stack(schedule, np.array([s]))[0]


def test_ht_stack_endpoints():
    h_i, h_m, h_f = interpolation_parts()
    for schedule in Schedule:
        assert np.abs(_ht(schedule, 0.0) - h_i.matrix).max() == 0.0
        assert np.abs(_ht(schedule, 1.0) - h_f.matrix).max() == 0.0


def test_interpolation_parts_match_hand_built():
    # exactly: the drive's XY terms are the cells' XY exchange
    h_i, h_m, h_f = interpolation_parts()
    assert np.array_equal(h_i.matrix, kron(X, X, I2) + kron(Y, Y, I2))
    assert np.array_equal(h_m.matrix, kron(X, X, I2) + kron(Y, Y, I2)
                          + kron(I2, X, X) + kron(I2, Y, Y))
    assert np.array_equal(h_f.matrix, kron(Z, I2, Z) + kron(I2, Z, Z))


def test_final_ground_space_is_two_fold():
    _, _, h_f = interpolation_parts()
    w, v = np.linalg.eigh(h_f.matrix)
    assert w[0] == pytest.approx(-2.0)
    assert w[1] == pytest.approx(-2.0)
    assert w[2] > -2.0 + 1e-9
    ground = v[:, :2] @ v[:, :2].conj().T
    expected = (target_state().density().entries
                + forbidden_state().density().entries)
    assert_allclose(ground, expected, atol=1e-12)


def test_initial_ground_state_is_stored_cell():
    h_i, _, _ = interpolation_parts()
    w, v = np.linalg.eigh(h_i.matrix)
    assert w[0] == pytest.approx(-2.0)
    stored = storage_state()
    projector = v[:, np.abs(w + 2.0) <= 1e-9]
    overlap = np.linalg.norm(projector.conj().T @ stored.amplitudes)
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_parity_check():
    for schedule in Schedule:
        report = parity_check(schedule)
        assert report.passed
        assert report.max_commutator_norm <= 1e-12
    pi_z = parity_operator()
    assert np.abs(pi_z.matrix @ pi_z.matrix - np.eye(8)).max() <= 1e-15
    p_init, p_target, p_forbidden = (np.vdot(psi.amplitudes, pi_z.matrix @ psi.amplitudes).real
                                     for psi in (storage_state(), target_state(), forbidden_state()))
    assert p_init == pytest.approx(p_target, abs=1e-9)
    assert p_forbidden == pytest.approx(-p_init, abs=1e-9)


def test_parity_commutes_at_spot_values():
    pi_z = parity_operator().matrix
    for s in (0.0, 0.31, 0.5, 0.77, 1.0):
        h = _ht(Schedule.SMOOTHSTEP, s)
        assert np.abs(h @ pi_z - pi_z @ h).max() <= 1e-12


def test_min_sector_gap_positive():
    gap = min_sector_gap(Schedule.LINEAR)
    assert gap > 0.5  # measured ~0.66 hbar*J


def test_run_discharge_adiabatic_limit():
    report = run_discharge(AdiabaticSpec(100.0, Schedule.LINEAR))
    assert report.final_charge >= 0.999 * 2.0
    assert report.series.extra["fidelity_target"][-1] >= 0.999
    assert report.min_gap_sector > 0.5


def test_run_discharge_sudden_limit():
    report = run_discharge(AdiabaticSpec(1e-4), n_samples=4)
    assert report.final_charge == pytest.approx(0.0, abs=1e-6)
    assert report.series.extra["fidelity_target"][-1] == pytest.approx(0.0, abs=1e-6)


def test_parity_conserved_along_trajectory():
    report = run_discharge(AdiabaticSpec(7.0, Schedule.SIN_SQUARED),
                           n_samples=129)
    parity = report.series.extra["parity"]
    assert np.abs(parity - parity[0]).max() <= 1e-10


def test_sweep_rows_and_zero_time():
    points = sweep_tau([0.0, 2.0])
    assert len(points) == 2 * len(Schedule)
    zero_rows = [p for p in points if p.jtau == 0.0]
    assert len(zero_rows) == len(Schedule)
    assert all(p.ratio_to_cmax == pytest.approx(0.0, abs=1e-9) for p in zero_rows)
    # ordering follows the input tau list then the schedule list
    assert [p.jtau for p in points[:3]] == [0.0, 0.0, 0.0]


def test_sweep_counts_the_steps_of_each_jtau_once(monkeypatch):
    # a run's step count does not depend on its schedule, so the ceiling
    # check counts each positive Jtau once, times its three runs
    calls = []

    def spy(spec, n_samples):
        calls.append(spec.jtau)
        return 1

    monkeypatch.setattr(adiabatic, "_drive_steps", spy)
    monkeypatch.setattr(adiabatic, "MAX_STEPS", 3 * 5 - 1)  # 5 positive points, 3 runs each
    with pytest.raises(ValueError, match="more than 14 drive steps"):
        sweep_tau([2.0, 0.0, 1.0, 2.0, 3.0, 1.0])
    assert calls == [2.0, 1.0, 2.0, 3.0, 1.0]


@pytest.mark.parametrize("jtau_values, message", [
    ([1e308, -1.0], "jtau must be finite and > 0, got -1.0"),  # every Jtau before any count
    ([2.0, 1e308, 5e308], "jtau must be finite and > 0, got inf"),
    ([1.0, 1e308, 1e-322], "needs more than"),  # counted in input order
    ([1.0, 1e-322, 1e308], "below the smallest normal float"),
])
def test_sweep_rejections_keep_their_order(jtau_values, message):
    with pytest.raises(ValueError, match=message):
        sweep_tau(jtau_values)


def test_sweep_saturates_for_all_schedules():
    points = sweep_tau([100.0])
    for point in points:
        assert point.ratio_to_cmax == pytest.approx(1.0, abs=1e-3)
        assert point.ec_tail <= 0.01  # measured at most 0.005, for linear


def test_decomposition_coefficients_complete():
    spec = AdiabaticSpec(4.0)
    decomp = adiabatic_decomposition(spec, storage_state())
    assert abs(np.sum(np.abs(decomp.coefficients) ** 2) - 1.0) <= 1e-10
    assert decomp.min_tracking_overlap.min() >= 0.99


def test_rate_prediction_zero_for_single_eigenspace():
    spec = AdiabaticSpec(6.0, Schedule.SIN_SQUARED)
    prediction = adiabatic_rate_prediction(adiabatic_decomposition(spec, storage_state()))
    assert np.all(prediction == 0.0)
    # exact current still fluctuates at finite speed but stays modest
    assert np.abs(run_discharge(spec, n_samples=256).series.ec).max() < 1.0


def _two_branch_state(spec):
    h0 = _ht(spec.schedule, 0.0)
    odd = [0b001, 0b010, 0b100, 0b111]
    w, v = np.linalg.eigh(h0[np.ix_(odd, odd)])
    amps = np.zeros(8, dtype=complex)
    mix = (v[:, 0] + v[:, -1]) / math.sqrt(2)
    for row, idx in enumerate(odd):
        amps[idx] = mix[row]
    return PureState(3, amps)


def test_rate_prediction_two_branch_oscillates():
    spec = AdiabaticSpec(8.0, Schedule.SIN_SQUARED)
    psi0 = _two_branch_state(spec)
    decomp = adiabatic_decomposition(spec, psi0)
    prediction = adiabatic_rate_prediction(decomp)
    assert np.abs(prediction).max() > 1e-3
    # oscillation frequency tracks the branch gap: count sign changes
    occupied = np.nonzero(decomp.occupied)[0]
    assert len(occupied) == 2
    gap = np.abs(decomp.energies[occupied[1]] - decomp.energies[occupied[0]])
    changes = np.count_nonzero(np.diff(np.sign(prediction)))
    expected = spec.jtau * float(np.mean(gap)) / math.pi
    assert changes == pytest.approx(expected, rel=0.35)


def test_rate_prediction_matches_manual_two_level_sum():
    spec = AdiabaticSpec(8.0, Schedule.SIN_SQUARED)
    psi0 = _two_branch_state(spec)
    decomp = adiabatic_decomposition(spec, psi0)
    prediction = adiabatic_rate_prediction(decomp)
    m, n = (int(i) for i in np.nonzero(decomp.occupied)[0])
    w_term = (np.conj(decomp.coefficients[m]) * decomp.coefficients[n]
              * np.exp(1j * (decomp.phases[n] - decomp.phases[m]))
              * (decomp.energies[n] - decomp.energies[m])
              * decomp.hub_elements[m, n])
    assert np.abs(prediction - 2.0 * np.imag(w_term)).max() <= 1e-9


def _pairwise_prediction(decomp):
    """The adiabatic-limit current summed pair by pair over the occupied branches."""
    prediction = np.zeros_like(decomp.times)
    for m in np.nonzero(decomp.occupied)[0]:
        for n in np.nonzero(decomp.occupied)[0]:
            term = (np.conj(decomp.coefficients[m]) * decomp.coefficients[n]
                    * np.exp(1j * (decomp.phases[n] - decomp.phases[m]))
                    * (decomp.energies[n] - decomp.energies[m])
                    * decomp.hub_elements[m, n]) / 1j
            prediction += term.real
    return prediction


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(list(Schedule)), st.floats(0.5, 40.0), st.integers(0, 2**31 - 1))
def test_rate_prediction_is_the_sum_over_branch_pairs(schedule, jtau, seed):
    # random weight on all six branches of the one- and two-excitation sectors
    rng = np.random.default_rng(seed)
    amps = np.zeros(8, dtype=complex)
    sectors = adiabatic._EXCITATION_SECTORS[1] + adiabatic._EXCITATION_SECTORS[2]
    amps[sectors] = rng.normal(size=6) + 1j * rng.normal(size=6)
    decomp = adiabatic_decomposition(AdiabaticSpec(jtau, schedule),
                                     PureState(3, amps / np.linalg.norm(amps)))
    assert decomp.energies.shape[0] == 6 and np.count_nonzero(decomp.occupied) >= 3
    prediction = adiabatic_rate_prediction(decomp)
    assert np.abs(prediction - _pairwise_prediction(decomp)).max() <= 1e-12


@pytest.mark.parametrize("bits", ["10", "1000"])
def test_decomposition_rejects_a_state_of_another_size(bits):
    with pytest.raises(ValueError, match=f"^dimension mismatch: drive 8, state {2**len(bits)}$"):
        adiabatic_decomposition(AdiabaticSpec(1.0), ket(bits))


def test_decomposition_takes_only_the_occupied_sectors():
    # the stored cell lies in the one-excitation sector alone: 3 branches of
    # which one is occupied; (|000> + |111>)/sqrt(2) occupies the one branch
    # of each one-level sector, and H0_hub joins no two sectors, so its
    # prediction is exactly zero
    spec = AdiabaticSpec(8.0, Schedule.SIN_SQUARED)
    stored = adiabatic_decomposition(spec, storage_state())
    assert stored.energies.shape[0] == 3
    assert np.count_nonzero(stored.occupied) == 1
    amps = np.zeros(8, dtype=complex)
    amps[[0b000, 0b111]] = 1.0 / math.sqrt(2)
    decomp = adiabatic_decomposition(spec, PureState(3, amps))
    assert decomp.energies.shape[0] == 2
    assert np.all(decomp.occupied)
    assert np.all(adiabatic_rate_prediction(decomp) == 0.0)


def _schedule_slope(schedule, s):
    """df/ds of ``schedule_value``."""
    if schedule is Schedule.LINEAR:
        return np.ones_like(s)
    if schedule is Schedule.SIN_SQUARED:
        return np.pi / 2.0 * np.sin(np.pi * s)
    return 6.0 * s * (1.0 - s)


def _first_order_current(spec, s):
    # P1 = (1/tau) d<E0|H0_hub|E0>/ds on the ground branch of the
    # one-excitation sector, by first-order perturbation theory:
    # 2 sum_{n != 0} <E0|H0_hub|En><En|dH/ds|E0> / (E0 - En), with
    # dH/ds = f'(s) (-H_i + (1 - 2f) H_m + H_f)
    sector = _EXCITATION_SECTORS[1]
    block = np.ix_(sector, sector)
    w, v = _sector_branches(spec.schedule, s, sector)
    f = schedule_value(spec.schedule, s)[:, None, None]
    h_i, h_m, h_f = (h.matrix.real[block] for h in interpolation_parts())
    dh = _schedule_slope(spec.schedule, s)[:, None, None] * (-h_i + (1.0 - 2.0 * f) * h_m + h_f)
    h0 = hamiltonian_set().h0_hub.matrix.real[block]
    hub = np.einsum("kia,ij,kjb->kab", v, h0, v)[:, 0, 1:]
    drive = np.einsum("kia,kij,kjb->kab", v, dh, v)[:, 1:, 0]
    return 2.0 * np.sum(hub * drive / (w[:, :1] - w[:, 1:]), axis=1) / spec.jtau


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(list(Schedule)), st.floats(320.0, 1280.0))
def test_current_follows_the_first_order_adiabatic_law(schedule, jtau):
    # the exact current is the first-order adiabatic current P1 plus
    # O(1/tau^2) where f'(0) = f'(1) = 0, and plus an O(1/tau) oscillation
    # for the linear schedule (Rigolin, Ortiz & Ponce, PRA 78, 052508 (2008);
    # Rezakhani, Pimachev & Lidar, PRA 82, 052305 (2010)).  Measured:
    # max |ec - P1| (Jtau)^2 <= 17.0 (sin2) and 14.9 (smoothstep),
    # max |ec - P1| Jtau <= 0.491 (linear)
    spec = AdiabaticSpec(jtau, schedule)
    series = run_discharge(spec, n_samples=2049).series
    error = np.abs(series.ec - _first_order_current(spec, series.times / spec.jtau)).max()
    if schedule is Schedule.LINEAR:
        assert error <= 0.8 / jtau
    else:
        assert error <= 20.0 / jtau**2


def _shortfall(schedule, jtau):
    """delta = 1 - C/E0 after one drive: the charge the hub has not received."""
    return 1.0 - run_discharge(AdiabaticSpec(jtau, schedule), n_samples=2).final_charge / E0


def test_the_linear_drive_falls_short_by_its_boundary_terms():
    # first-order adiabatic perturbation theory (Rigolin, Ortiz & Ponce, PRA
    # 78, 052508 (2008)) leaves c_n = (i/Jtau)[M_n(1) e^{i Theta_n} - M_n(0)]
    # in branch n, M_n = <n|dH/ds|0>/(E_n - E_0)^2 and Theta_n = Jtau
    # int_0^1 (E_n - E_0) ds, on real vectors carried along s without a sign
    # flip (no geometric phase).  Sum |M_n(0)|^2 = 1/8, all in the middle
    # branch, and sum |M_n(1)|^2 = 1/4, so delta (Jtau)^2 = 1/8 + (1 - cos
    # Theta_1)/4.  Measured: |delta (Jtau)^2 - prediction| Jtau <= 0.874
    sector = _EXCITATION_SECTORS[1]
    s = np.linspace(0.0, 1.0, 4097)
    w, v = _sector_branches(Schedule.LINEAR, s, sector)
    v[1:] *= np.cumprod(np.sign(np.einsum("kia,kia->ka", v[1:], v[:-1])), axis=0)[:, None]
    gaps = w[:, 1:] - w[:, :1]
    phases = (gaps[1:] + gaps[:-1]).sum(axis=0) / 2.0 * (s[1] - s[0])
    assert abs(phases[0] - 1.2369604) < 1e-6  # a 200,001-point trapezoid's integral
    h_i, h_m, h_f = (h.matrix.real[np.ix_(sector, sector)] for h in interpolation_parts())
    ends = [0, -1]
    dh = -h_i + (1.0 - 2.0 * s[ends, None, None]) * h_m + h_f  # dH/ds, with f = s
    m = np.einsum("kia,kij,kj->ka", v[ends], dh, v[ends, :, 0])[:, 1:] / gaps[ends] ** 2
    assert_allclose([m[0, 1], *(m**2).sum(axis=1)], [0.0, 0.125, 0.25], atol=1e-12)
    for jtau in (300.0, 333.0, 377.0, 450.0, 600.0, 700.0, 1000.0, 1100.0):
        predicted = np.sum(np.abs(m[1] * np.exp(1j * jtau * phases) - m[0]) ** 2)
        assert abs(_shortfall(Schedule.LINEAR, jtau) * jtau**2 - predicted) <= 1.0 / jtau


@pytest.mark.parametrize("schedule", [Schedule.SIN_SQUARED, Schedule.SMOOTHSTEP])
def test_a_smooth_drive_has_no_first_order_boundary_term(schedule):
    # f'(0) = f'(1) = 0 makes every M_n vanish (see the linear drive's test),
    # so delta falls as (Jtau)^-4, not (Jtau)^-2.  Measured: log2 of
    # delta(640)/delta(320) is -4.07 (sin2) and -4.38 (smoothstep)
    assert math.log2(_shortfall(schedule, 640.0) / _shortfall(schedule, 320.0)) < -3.5


def test_spec_validation():
    for jtau in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            AdiabaticSpec(jtau)


def test_ec_operator_at_closed_form():
    # only the battery-2/hub XY piece fails to commute with the hub term:
    # P(s) = (1-f) f * 2 omega J (y_B2 x_A - x_B2 y_A)
    spec = AdiabaticSpec(3.0, Schedule.SMOOTHSTEP)
    hs = hamiltonian_set()
    for s in (0.0, 0.3, 0.5, 0.9, 1.0):
        f = float(schedule_value(spec.schedule, s))
        expected = (1 - f) * f * 2.0 * (kron(I2, Y, X) - kron(I2, X, Y))
        p_hat = ec_operator(hs.h0_hub, Operator(3, _ht(spec.schedule, s)))
        assert np.abs(p_hat.matrix - expected).max() <= 1e-12


def test_driven_charge_rate_matches_current_channel():
    # dC/dt = <P(t)> also holds under the time-dependent drive
    report = run_discharge(AdiabaticSpec(8.0, Schedule.SIN_SQUARED),
                           n_samples=2049)
    t = report.series.times
    dt = t[1] - t[0]
    deriv = (report.series.charge[2:] - report.series.charge[:-2]) / (2 * dt)
    rel = np.abs(deriv - report.series.ec[1:-1]).max() / np.abs(report.series.ec).max()
    assert rel <= max(1e-6, 10 * dt**2)


def test_drive_recording_across_chunk_boundaries():
    # 41 and 81 samples share one 5,120-step grid, which crosses four
    # 1,024-step chunk boundaries; rows at shared times must come from the
    # same states
    spec = AdiabaticSpec(640.0)
    coarse = run_discharge(spec, n_samples=41).series
    fine = run_discharge(spec, n_samples=81).series
    for name in ("charge", "ec"):
        assert np.abs(getattr(fine, name)[::2] - getattr(coarse, name)).max() <= 1e-12
    for name, channel in coarse.extra.items():
        assert np.abs(fine.extra[name][::2] - channel).max() <= 1e-12


def test_run_discharge_uses_the_dynamics_stepper():
    # the drive and evolve_timedep step the same states
    spec = AdiabaticSpec(6.0, Schedule.SIN_SQUARED)
    report = run_discharge(spec, n_samples=2)
    psi = evolve_timedep(lambda s: _ht_stack(spec.schedule, s), storage_state(), spec.jtau,
                         n_steps=math.ceil(STEPS_PER_UNIT_JT * spec.jtau))
    fidelity = abs(np.vdot(target_state().amplitudes, psi.amplitudes)) ** 2
    assert report.final_charge == pytest.approx(charge(psi, hamiltonian_set()),
                                                abs=1e-12)
    assert report.series.extra["fidelity_target"][-1] == pytest.approx(fidelity, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.5, 20.0), st.sampled_from(list(Schedule)), st.integers(8, 64))
def test_discharge_invariants_property(jtau, schedule, samples_per_jt):
    n_samples = math.ceil(samples_per_jt * jtau) + 1
    spec = AdiabaticSpec(jtau, schedule)
    series = run_discharge(spec, n_samples=n_samples).series
    # the drive conserves excitation number: stepped over all eight states,
    # the stored singlet never leaves the one-excitation block
    # {|001>, |010>, |100>}
    full = _drive_states(spec, storage_state().amplitudes, n_samples)
    outside = np.abs(np.delete(full, [0b001, 0b010, 0b100], axis=1)) ** 2
    assert outside.sum(axis=1).max() <= 1e-20
    # every step is unitary (norm drift measured <= 6.0e-14)
    assert np.abs(np.linalg.norm(full, axis=1) - 1.0).max() <= 1e-12
    # oracle: the channels of the block drive equal those of the 8x8
    # operators on the full run, with the current's operator (1/i)[H0_hub, H(t)]
    # formed at each sample time
    hs = hamiltonian_set()
    h0 = hs.h0_hub.matrix
    h = _ht_stack(spec.schedule, series.times / spec.jtau)
    oracle = {
        "charge": model._observable_rows(full, h0) - hs.e_empty,
        "ec": np.einsum("ki,kij,kj->k", full.conj(), (h0 @ h - h @ h0) / 1j, full).real,
        "parity": model._observable_rows(full, parity_operator().matrix),
        "fidelity_target": np.abs(full @ target_state().amplitudes.conj()) ** 2,
    }
    channels = {"charge": series.charge, "ec": series.ec, **series.extra}
    for name, expected in oracle.items():
        assert np.abs(channels[name] - expected).max() <= 1e-12, name
    assert set(series.extra) == {"fidelity_target", "parity"}
    parity = series.extra["parity"]
    assert np.abs(parity - parity[0]).max() <= 1e-12
    assert np.all(series.extra["fidelity_target"] <= 1.0 + 1e-12)
    # dC/dt = <P>: the trapezoid integral of the current reproduces the charge
    # (its error, O(dt^2), measured at most 0.11 dt^2 over these ranges)
    dt = series.times[1] - series.times[0]
    integral = np.concatenate(([0.0], np.cumsum((series.ec[1:] + series.ec[:-1]) * dt / 2)))
    assert np.abs(integral - (series.charge - series.charge[0])).max() <= 0.5 * dt**2


@pytest.mark.parametrize("schedule", [Schedule.SIN_SQUARED, Schedule.SMOOTHSTEP],
                         ids=lambda schedule: schedule.value)
def test_long_drive_keeps_norm_and_fidelity(schedule):
    # at Jtau = 1280 and 257 samples the full 8-dim drive keeps |psi| = 1 and
    # the block drive's target fidelity stays <= 1, each within 1e-12 (norm
    # drift measured <= 4.1e-13, top fidelity 6.6e-13 and 8.0e-14 below 1)
    spec = AdiabaticSpec(1280.0, schedule)
    full = _drive_states(spec, storage_state().amplitudes, 257)
    assert np.abs(np.linalg.norm(full, axis=1) - 1.0).max() <= 1e-12
    fidelity = run_discharge(spec, n_samples=257).series.extra["fidelity_target"]
    assert fidelity.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("schedule", list(Schedule), ids=lambda schedule: schedule.value)
def test_drive_starts_from_an_empty_hub_and_never_reads_a_negative_charge(schedule):
    # the stored singlet has no amplitude on |001>, so row 0 reads 0 exactly,
    # and the charge H0_hub - e_empty has entries 0 and 2, so no row is negative
    series = run_discharge(AdiabaticSpec(20.0, schedule), n_samples=161).series
    assert series.charge[0] == 0.0
    assert series.charge.min() >= 0.0


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(list(Schedule)), st.floats(0.5, 40.0), st.integers(2, 200),
       st.integers(1, 600))
def test_drive_series_across_chunk_sizes(schedule, jtau, n_samples, chunk):
    # chunks that hold whole recording segments leave every series bit-identical;
    # chunks that split a segment regroup its product (measured <= 2.1e-14
    # at a 7-step chunk and Jtau = 1280)
    spec = AdiabaticSpec(jtau, schedule)
    default = run_discharge(spec, n_samples=n_samples).series
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_CHUNK", chunk)
        chunked = run_discharge(spec, n_samples=n_samples).series
    per_segment = math.ceil(math.ceil(STEPS_PER_UNIT_JT * jtau) / (n_samples - 1))
    tol = 0.0 if chunk >= per_segment else 1e-12
    pairs = [(default.charge, chunked.charge), (default.ec, chunked.ec)]
    pairs += [(channel, chunked.extra[name]) for name, channel in default.extra.items()]
    for before, after in pairs:
        assert np.abs(after - before).max() <= tol


def test_sector_gaps_on_the_f_grid():
    # H(s) = M(f(s)): on f in [0, 1) both gaps of each three-state sector
    # stay >= 1.5 (1 - f) (measured >= 1.636 (1 - f)), so ascending order
    # is branch order for every schedule; the lower gap bottoms out at
    # 0.6606 near f = 0.63
    f = np.linspace(0.0, 1.0, 100_000, endpoint=False)
    for sector in _EXCITATION_SECTORS[1:3]:  # linear schedule: f = s
        gaps = np.diff(np.linalg.eigvalsh(_ht_stack(Schedule.LINEAR, f, sector)), axis=1)
        assert np.all(gaps >= 1.5 * (1.0 - f)[:, None])
        assert gaps[:, 0].min() == pytest.approx(0.6606, rel=1e-4)
        assert f[np.argmin(gaps[:, 0])] == pytest.approx(0.63, abs=0.01)


# The parity-block tracker that the excitation-sector branches replaced: the
# 4-dim parity blocks of the full drive, continued by greedy maximum-overlap
# assignment at every sample.  Kept as the oracle for those branches.
def _parity_basis(odd: bool) -> np.ndarray:
    return np.eye(8)[:, [i for k, sector in enumerate(_EXCITATION_SECTORS)
                         if k % 2 == odd for i in sector]]


def _degenerate_groups(values, rtol=1e-12):
    # index groups of (unsorted) values equal within rtol * max|value|
    scale = float(np.abs(values).max())
    order = np.argsort(values, kind="stable")
    groups = [[int(order[0])]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= rtol * scale:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return groups


def _track_parity_block(stack, basis):
    blocks = np.einsum("ia,kij,jb->kab", basis, stack, basis)
    w, v = np.linalg.eigh(blocks)
    nt, dim, _ = v.shape
    if nt > 1:
        for group in _degenerate_groups(w[0], rtol=1e-9):
            if len(group) > 1:
                span = v[0][:, group]
                scores = np.linalg.norm(span.conj().T @ v[1], axis=0)
                chosen = np.sort(np.argsort(scores)[-len(group):])
                v[0][:, group] = _align_group(v[1][:, chosen], span)
    quality = np.ones(dim)
    for k in range(1, nt):
        weight = np.abs(v[k - 1].conj().T @ v[k])
        assignment = np.full(dim, -1)
        for _ in range(dim):
            i, j = np.unravel_index(int(np.argmax(weight)), weight.shape)
            assignment[i] = j
            weight[i, :] = -1.0
            weight[:, j] = -1.0
        v[k] = v[k][:, assignment]
        w[k] = w[k][assignment]
        for group in _degenerate_groups(w[k]):
            if len(group) > 1:
                v[k][:, group] = _align_group(v[k - 1][:, group], v[k][:, group])
        quality = np.minimum(quality, np.abs(np.einsum("in,in->n", v[k - 1].conj(), v[k])))
    return w.T, np.einsum("ia,kab->kib", basis, v), quality


def _parity_block_gap(schedule):
    stack = _ht_stack(schedule, np.linspace(0.0, 1.0, 257))
    energies, vectors, _ = _track_parity_block(stack, _parity_basis(True))
    n = int(np.argmax(np.abs(vectors[0].conj().T @ storage_state().amplitudes)))
    return float(np.min(np.abs(np.delete(energies, n, axis=0) - energies[n])))


def _parity_block_prediction(spec, psi0, n_samples):
    # the adiabatic-limit current over the occupied parity-block branches; a
    # 4-dim block can mix |001> and |111> at s = 0, so pairs within one
    # degenerate eigenspace of H(0) are left out
    times = np.linspace(0.0, spec.jtau, n_samples)
    stack = _ht_stack(spec.schedule, times / spec.jtau)
    odd, even = (_track_parity_block(stack, _parity_basis(odd)) for odd in (True, False))
    energies = np.concatenate([odd[0], even[0]], axis=0)
    vectors = np.concatenate([odd[1], even[1]], axis=2)
    coefficients = vectors[0].conj().T @ psi0.amplitudes
    dyn = np.zeros_like(energies)
    dyn[:, 1:] = -np.cumsum((energies[:, :-1] + energies[:, 1:]) / 2.0 * np.diff(times), axis=1)
    geo = np.zeros_like(energies)
    steps = np.angle(np.einsum("kin,kin->kn", vectors[:-1].conj(), vectors[1:]))
    geo[:, 1:] = -np.cumsum(steps.T, axis=1)
    phases = dyn + geo
    h0a = hamiltonian_set().h0_hub.matrix
    hub = np.einsum("kin,ij,kjm->nmk", vectors.conj(), h0a, vectors)
    labels = np.empty(8, dtype=int)
    for label, group in enumerate(_degenerate_groups(energies[:, 0], rtol=1e-9)):
        labels[group] = label
    occ = np.nonzero(np.abs(coefficients) ** 2 > 1e-12)[0]
    prediction = np.zeros_like(times)
    for m in occ:
        for n in occ:
            if labels[n] != labels[m]:
                prediction += (np.conj(coefficients[m]) * coefficients[n]
                               * np.exp(1j * (phases[n] - phases[m]))
                               * (energies[n] - energies[m]) * hub[m, n] / 1j).real
    return prediction


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(list(Schedule)), st.floats(0.5, 80.0), st.integers(32, 256),
       st.integers(0, 2**31 - 1))
def test_sector_branches_match_the_parity_block_tracker(schedule, jtau, n_samples, seed):
    # measured: gaps bit-identical, predictions within 5e-15
    spec = AdiabaticSpec(jtau, schedule)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi0 = PureState(3, amps / np.linalg.norm(amps))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adiabatic, "_DECOMPOSITION_SAMPLES", n_samples)
        prediction = adiabatic_rate_prediction(adiabatic_decomposition(spec, psi0))
    oracle = _parity_block_prediction(spec, psi0, n_samples)
    assert np.abs(prediction - oracle).max() <= 1e-12
    assert abs(min_sector_gap(schedule) - _parity_block_gap(schedule)) <= 1e-12
