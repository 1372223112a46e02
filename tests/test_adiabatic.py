import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from qbat import dynamics
from qbat.adiabatic import (
    _EXCITATION_SECTORS,
    AdiabaticDecomposition,
    AdiabaticSpec,
    Schedule,
    _align_group,
    _degenerate_groups,
    _drive_channels,
    _drive_states,
    _ht_stack,
    _sector_branches,
    adiabatic_decomposition,
    adiabatic_ec,
    adiabatic_rate_prediction,
    build_ht,
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
from qbat.model import SystemSpec, charge, ec_operator, hamiltonian_set
from qbat.qalg import PureState

from conftest import I2, X, Y, Z, kron


def test_schedule_endpoints_exact():
    for schedule in Schedule:
        assert schedule_value(schedule, 0.0) == 0.0
        assert schedule_value(schedule, 1.0) == 1.0


def test_build_ht_endpoints():
    spec = AdiabaticSpec(tau=5.0)
    h_i, h_m, h_f = interpolation_parts(spec)
    assert np.abs(build_ht(spec, 0.0).matrix - h_i.matrix).max() == 0.0
    assert np.abs(build_ht(spec, 1.0).matrix - h_f.matrix).max() == 0.0
    with pytest.raises(ValueError):
        build_ht(spec, 1.5)


def test_interpolation_parts_match_hand_built():
    spec = AdiabaticSpec(tau=1.0, j_coupling=1.0)
    h_i, h_m, h_f = interpolation_parts(spec)
    assert_allclose(h_i.matrix, kron(X, X, I2) + kron(Y, Y, I2), atol=1e-15)
    assert_allclose(h_m.matrix, kron(X, X, I2) + kron(Y, Y, I2)
                    + kron(I2, X, X) + kron(I2, Y, Y), atol=1e-15)
    assert_allclose(h_f.matrix, kron(Z, I2, Z) + kron(I2, Z, Z), atol=1e-15)


def test_final_ground_space_is_two_fold():
    spec = AdiabaticSpec(tau=1.0)
    _, _, h_f = interpolation_parts(spec)
    w, v = np.linalg.eigh(h_f.matrix)
    assert w[0] == pytest.approx(-2.0)
    assert w[1] == pytest.approx(-2.0)
    assert w[2] > -2.0 + 1e-9
    ground = v[:, :2] @ v[:, :2].conj().T
    expected = (target_state().density().entries
                + forbidden_state().density().entries)
    assert_allclose(ground, expected, atol=1e-12)


def test_initial_ground_state_is_stored_cell():
    spec = AdiabaticSpec(tau=1.0)
    h_i, _, _ = interpolation_parts(spec)
    w, v = np.linalg.eigh(h_i.matrix)
    assert w[0] == pytest.approx(-2.0)
    stored = storage_state()
    projector = v[:, np.abs(w + 2.0) <= 1e-9]
    overlap = np.linalg.norm(projector.conj().T @ stored.amplitudes)
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_parity_check():
    report = parity_check(AdiabaticSpec(tau=3.0))
    assert report.passed
    assert report.max_commutator_norm <= 1e-12
    assert report.parity_initial == pytest.approx(report.parity_target, abs=1e-9)
    assert report.parity_forbidden == pytest.approx(-report.parity_initial, abs=1e-9)
    pi_z = parity_operator()
    assert np.abs(pi_z.matrix @ pi_z.matrix - np.eye(8)).max() <= 1e-15


def test_parity_commutes_at_spot_values():
    spec = AdiabaticSpec(tau=2.0, schedule=Schedule.SMOOTHSTEP)
    pi_z = parity_operator().matrix
    for s in (0.0, 0.31, 0.5, 0.77, 1.0):
        h = build_ht(spec, s).matrix
        assert np.abs(h @ pi_z - pi_z @ h).max() <= 1e-12


def test_min_sector_gap_positive():
    gap = min_sector_gap(AdiabaticSpec(tau=1.0))
    assert gap > 0.5  # measured ~0.66 hbar*J for the default coupling


def test_run_discharge_adiabatic_limit():
    report = run_discharge(AdiabaticSpec(tau=100.0, schedule=Schedule.LINEAR))
    assert report.final_charge >= 0.999 * 2.0
    assert report.fidelity_target >= 0.999
    assert report.leakage_forbidden <= 1e-10
    assert report.parity_drift <= 1e-10
    assert report.min_gap_sector > 0.5


def test_run_discharge_sudden_limit():
    report = run_discharge(AdiabaticSpec(tau=1e-4), n_samples=4)
    assert report.final_charge == pytest.approx(0.0, abs=1e-6)
    assert report.fidelity_target == pytest.approx(0.0, abs=1e-6)
    assert report.leakage_forbidden <= 1e-10


def test_parity_conserved_along_trajectory():
    report = run_discharge(AdiabaticSpec(tau=7.0, schedule=Schedule.SIN_SQUARED),
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


def test_sweep_saturates_for_all_schedules():
    points = sweep_tau([100.0])
    for point in points:
        assert point.ratio_to_cmax == pytest.approx(1.0, abs=1e-3)
        assert point.leakage_forbidden <= 1e-10


def test_decomposition_coefficients_complete():
    spec = AdiabaticSpec(tau=4.0)
    decomp = adiabatic_decomposition(spec, storage_state(), n_samples=128)
    assert abs(np.sum(np.abs(decomp.coefficients) ** 2) - 1.0) <= 1e-10
    assert decomp.min_tracking_overlap.min() >= 0.99


def test_rate_prediction_zero_for_single_eigenspace():
    spec = AdiabaticSpec(tau=6.0, schedule=Schedule.SIN_SQUARED)
    series = adiabatic_ec(spec, storage_state(), n_samples=256)
    prediction = np.asarray(series.extra["ec_adiabatic"])
    assert np.all(prediction == 0.0)
    # exact current still fluctuates at finite speed but stays modest
    assert np.abs(series.ec).max() < 1.0


def _two_branch_state(spec):
    h0 = build_ht(spec, 0.0).matrix
    odd = [0b001, 0b010, 0b100, 0b111]
    w, v = np.linalg.eigh(h0[np.ix_(odd, odd)])
    amps = np.zeros(8, dtype=complex)
    mix = (v[:, 0] + v[:, -1]) / math.sqrt(2)
    for row, idx in enumerate(odd):
        amps[idx] = mix[row]
    return PureState(3, amps)


def test_rate_prediction_two_branch_oscillates():
    spec = AdiabaticSpec(tau=8.0, schedule=Schedule.SIN_SQUARED)
    psi0 = _two_branch_state(spec)
    decomp = adiabatic_decomposition(spec, psi0, n_samples=512)
    prediction = adiabatic_rate_prediction(decomp)
    assert np.abs(prediction).max() > 1e-3
    # oscillation frequency tracks the branch gap: count sign changes
    occupied = np.nonzero(decomp.occupied)[0]
    assert len(occupied) == 2
    gap = np.abs(decomp.energies[occupied[1]] - decomp.energies[occupied[0]])
    changes = np.count_nonzero(np.diff(np.sign(prediction)))
    expected = spec.tau * float(np.mean(gap)) / math.pi
    assert changes == pytest.approx(expected, rel=0.35)


def test_rate_prediction_matches_manual_two_level_sum():
    spec = AdiabaticSpec(tau=8.0, schedule=Schedule.SIN_SQUARED)
    psi0 = _two_branch_state(spec)
    decomp = adiabatic_decomposition(spec, psi0, n_samples=512)
    prediction = adiabatic_rate_prediction(decomp)
    m, n = (int(i) for i in np.nonzero(decomp.occupied)[0])
    w_term = (np.conj(decomp.coefficients[m]) * decomp.coefficients[n]
              * np.exp(1j * (decomp.phases[n] - decomp.phases[m]))
              * (decomp.energies[n] - decomp.energies[m])
              * decomp.hub_elements[m, n])
    assert np.abs(prediction - 2.0 * np.imag(w_term)).max() <= 1e-9


def test_exact_current_tail_shrinks_with_slower_driving():
    tails = []
    for jtau in (50.0, 200.0):
        series = adiabatic_ec(AdiabaticSpec(tau=jtau, schedule=Schedule.SIN_SQUARED),
                              storage_state(), n_samples=512)
        tail = np.abs(series.ec[series.times >= 0.9 * jtau]).max()
        tails.append(tail)
    assert tails[1] < tails[0]


def test_spec_validation():
    with pytest.raises(ValueError):
        AdiabaticSpec(tau=0.0)
    with pytest.raises(ValueError):
        AdiabaticSpec(tau=1.0, j_coupling=0.0)


def test_ec_operator_at_closed_form():
    # only the battery-2/hub XY piece fails to commute with the hub term:
    # P(s) = (1-f) f * 2 omega J (y_B2 x_A - x_B2 y_A)
    spec = AdiabaticSpec(tau=3.0, schedule=Schedule.SMOOTHSTEP)
    hs = hamiltonian_set(SystemSpec())
    for s in (0.0, 0.3, 0.5, 0.9, 1.0):
        f = float(schedule_value(spec.schedule, s))
        expected = (1 - f) * f * 2.0 * (kron(I2, Y, X) - kron(I2, X, Y))
        p_hat = ec_operator(hs.h0_hub, build_ht(spec, s))
        assert np.abs(p_hat.matrix - expected).max() <= 1e-12


def test_driven_charge_rate_matches_current_channel():
    # dC/dt = <P(t)> also holds under the time-dependent drive
    report = run_discharge(AdiabaticSpec(tau=8.0, schedule=Schedule.SIN_SQUARED),
                           n_samples=2049)
    t = report.series.times
    dt = t[1] - t[0]
    deriv = (report.series.charge[2:] - report.series.charge[:-2]) / (2 * dt)
    rel = np.abs(deriv - report.series.ec[1:-1]).max() / np.abs(report.series.ec).max()
    assert rel <= max(1e-6, 10 * dt**2)


def test_drive_recording_across_chunk_boundaries():
    # 41 and 81 samples share one 10,240-step grid, which crosses four
    # 2,048-step chunk boundaries; rows at shared times must come from the
    # same states
    spec = AdiabaticSpec(tau=40.0)
    coarse = run_discharge(spec, n_samples=41).series
    fine = run_discharge(spec, n_samples=81).series
    for name in ("charge", "ec"):
        assert np.abs(getattr(fine, name)[::2] - getattr(coarse, name)).max() <= 1e-12
    for name, channel in coarse.extra.items():
        assert np.abs(fine.extra[name][::2] - channel).max() <= 1e-12


def test_run_discharge_uses_the_dynamics_stepper():
    # the drive and evolve_timedep step the same midpoint states
    spec = AdiabaticSpec(tau=6.0, schedule=Schedule.SIN_SQUARED)
    report = run_discharge(spec, n_samples=2)
    psi = evolve_timedep(lambda s: _ht_stack(spec, s), storage_state(), spec.tau,
                         n_steps=math.ceil(STEPS_PER_UNIT_JT * spec.jtau))
    leakage = abs(np.vdot(forbidden_state().amplitudes, psi.amplitudes)) ** 2
    assert report.final_charge == pytest.approx(charge(psi, hamiltonian_set(SystemSpec())),
                                                abs=1e-12)
    assert report.leakage_forbidden == pytest.approx(leakage, abs=1e-12)


def test_drive_channels_step_every_excitation_sector():
    # a random state occupies all four excitation sectors; stepping each
    # sector on its own matches the drive over all eight states
    rng = np.random.default_rng(3)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi0 = PureState(3, amps / np.linalg.norm(amps))
    spec = AdiabaticSpec(tau=12.0, schedule=Schedule.SMOOTHSTEP)
    _, states, _, _ = _drive_channels(spec, psi0, 1.0, 97)
    full = _drive_states(spec, psi0.amplitudes, 97)
    assert np.abs(states - full).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(0.5, 20.0), st.sampled_from(list(Schedule)), st.integers(8, 64))
def test_discharge_invariants_property(jtau, schedule, samples_per_jt):
    n_samples = math.ceil(samples_per_jt * jtau) + 1
    spec = AdiabaticSpec(tau=jtau, schedule=schedule)
    report = run_discharge(spec, n_samples=n_samples)
    series = report.series
    # the drive conserves excitation number: stepped over all eight states,
    # the stored singlet never leaves the one-excitation block
    # {|001>, |010>, |100>}, and the reduced drive, which steps only that
    # block, gives the same states (measured <= 1.2e-13)
    _, states, _, _ = _drive_channels(spec, storage_state(), 1.0, n_samples)
    full = _drive_states(spec, storage_state().amplitudes, n_samples)
    outside = np.abs(np.delete(full, [0b001, 0b010, 0b100], axis=1)) ** 2
    assert outside.sum(axis=1).max() <= 1e-20
    assert np.abs(full - states).max() <= 1e-11
    # every midpoint step is unitary (norm drift measured <= 1.1e-13)
    assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() <= 1e-12
    assert report.parity_drift <= 1e-12
    assert np.max(series.extra["leakage_forbidden"]) <= 1e-10
    assert np.all(series.extra["fidelity_target"] + series.extra["leakage_forbidden"]
                  <= 1.0 + 1e-12)
    # dC/dt = <P>: the trapezoid integral of the current reproduces the charge
    # (its error, O(dt^2), measured at most 0.11 dt^2 over these ranges)
    dt = series.times[1] - series.times[0]
    integral = np.concatenate(([0.0], np.cumsum((series.ec[1:] + series.ec[:-1]) * dt / 2)))
    assert np.abs(integral - (series.charge - series.charge[0])).max() <= 0.5 * dt**2


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(list(Schedule)), st.floats(0.5, 40.0), st.integers(2, 200),
       st.integers(1, 600))
def test_drive_series_across_chunk_sizes(schedule, jtau, n_samples, chunk):
    # chunks that hold whole recording segments leave every series bit-identical;
    # chunks that split a segment regroup its product (measured <= 2.7e-13
    # at a 7-step chunk and Jtau = 1280)
    spec = AdiabaticSpec(tau=jtau, schedule=schedule)
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
    # H(s) = J M(f(s)): on f in [0, 1) both gaps of each three-state sector
    # stay >= 1.5 J (1 - f) (measured >= 1.636 J (1 - f)), so ascending order
    # is branch order for every schedule and J; the lower gap bottoms out at
    # 0.6606 J near f = 0.63
    f = np.linspace(0.0, 1.0, 100_000, endpoint=False)
    for j in (1.0, 2.5):
        spec = AdiabaticSpec(tau=1.0, j_coupling=j)  # linear schedule: f = s
        for sector in _EXCITATION_SECTORS[1:3]:
            gaps = np.diff(np.linalg.eigvalsh(_ht_stack(spec, f, sector)), axis=1)
            assert np.all(gaps >= 1.5 * j * (1.0 - f)[:, None])
            assert gaps[:, 0].min() == pytest.approx(0.6606 * j, rel=1e-4)
            assert f[np.argmin(gaps[:, 0])] == pytest.approx(0.63, abs=0.01)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(list(Schedule)), st.floats(-12.0, 12.0), st.integers(2, 128))
def test_sector_branches_scale_with_j(schedule, log_j, n_samples):
    # H(s) = J M(f(s)), so at any J the branches are those at J = 1 and the
    # energies J times theirs; a degeneracy test absolute in J would rotate
    # the branches of a small J onto each other (overlap 0.57 at J = 1e-12).
    # Measured: energies within 3.3e-15 J, overlaps >= 1 - 1.2e-15
    j = 10.0**log_j
    s = np.linspace(0.0, 1.0, n_samples)
    for sector in _EXCITATION_SECTORS:
        w_one, v_one = _sector_branches(AdiabaticSpec(1.0, 1.0, schedule), s, sector)
        w_j, v_j = _sector_branches(AdiabaticSpec(1.0, j, schedule), s, sector)
        assert np.abs(w_j - j * w_one).max() <= 1e-12 * j
        assert np.abs(np.einsum("kin,kin->kn", v_one, v_j)).min() >= 1.0 - 1e-9


# The parity-block tracker that the excitation-sector branches replaced: the
# 4-dim parity blocks of the full drive, continued by greedy maximum-overlap
# assignment at every sample.  Kept as the oracle for those branches.
def _parity_basis(odd: bool) -> np.ndarray:
    return np.eye(8)[:, [i for k, sector in enumerate(_EXCITATION_SECTORS)
                         if k % 2 == odd for i in sector]]


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


def _parity_block_gap(spec):
    stack = _ht_stack(spec, np.linspace(0.0, 1.0, 257))
    energies, vectors, _ = _track_parity_block(stack, _parity_basis(True))
    n = int(np.argmax(np.abs(vectors[0].conj().T @ storage_state().amplitudes)))
    return float(np.min(np.abs(np.delete(energies, n, axis=0) - energies[n])))


def _parity_block_decomposition(spec, psi0, n_samples):
    times = np.linspace(0.0, spec.tau, n_samples)
    stack = _ht_stack(spec, times / spec.tau)
    odd, even = (_track_parity_block(stack, _parity_basis(odd)) for odd in (True, False))
    energies = np.concatenate([odd[0], even[0]], axis=0)
    vectors = np.concatenate([odd[1], even[1]], axis=2)
    coefficients = vectors[0].conj().T @ psi0.amplitudes
    dyn = np.zeros_like(energies)
    dyn[:, 1:] = -np.cumsum((energies[:, :-1] + energies[:, 1:]) / 2.0 * np.diff(times), axis=1)
    geo = np.zeros_like(energies)
    steps = np.angle(np.einsum("kin,kin->kn", vectors[:-1].conj(), vectors[1:]))
    geo[:, 1:] = -np.cumsum(steps.T, axis=1)
    h0a = hamiltonian_set(SystemSpec(1.0, spec.j_coupling)).h0_hub.matrix
    labels = np.empty(8, dtype=int)
    for label, group in enumerate(_degenerate_groups(energies[:, 0], rtol=1e-9)):
        labels[group] = label
    return AdiabaticDecomposition(
        times=times, coefficients=coefficients, energies=energies, phases=dyn + geo,
        hub_elements=np.einsum("kin,ij,kjm->nmk", vectors.conj(), h0a, vectors),
        eigenspace_labels=labels, occupied=np.abs(coefficients) ** 2 > 1e-12,
        min_tracking_overlap=np.concatenate([odd[2], even[2]]))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(list(Schedule)), st.floats(0.5, 80.0), st.floats(-12.0, 12.0),
       st.integers(32, 256), st.integers(0, 2**31 - 1))
def test_sector_branches_match_the_parity_block_tracker(schedule, jtau, log_j, n_samples,
                                                        seed):
    # measured: gaps bit-identical, predictions within 5e-15 J
    j = 10.0**log_j
    spec = AdiabaticSpec(tau=jtau / j, j_coupling=j, schedule=schedule)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi0 = PureState(3, amps / np.linalg.norm(amps))
    prediction = adiabatic_rate_prediction(adiabatic_decomposition(spec, psi0,
                                                                   n_samples=n_samples))
    oracle = adiabatic_rate_prediction(_parity_block_decomposition(spec, psi0, n_samples))
    assert np.abs(prediction - oracle).max() <= 1e-12 * j
    assert abs(min_sector_gap(spec) - _parity_block_gap(spec)) <= 1e-12 * j
