import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from qbat.dynamics import (
    TimeSeries,
    collective_dephasing_fixpoint,
    evolve_static,
    evolve_timedep,
    propagator,
    sample_trajectory,
    to_interaction_picture,
)
from qbat.protocols import BellLabel, bell_state, bell_with_empty_hub
from qbat.qalg import DensityMatrix, Operator, PureState, embed, expectation, ket, pauli

from conftest import I2, X, Y, Z, kron


TAUD = math.pi / (4 * math.sqrt(2))


def test_evolve_static_identity_at_zero(hs):
    psi0 = bell_with_empty_hub(BellLabel(1, 0))
    assert_allclose(evolve_static(hs.h_charging, psi0, 0.0).amplitudes, psi0.amplitudes)


def test_evolve_static_matches_expm_oracle(hs):
    psi0 = bell_with_empty_hub(BellLabel(0, 0))
    t = 0.37
    oracle = scipy.linalg.expm(-1j * hs.h_charging.matrix * t) @ psi0.amplitudes
    assert_allclose(evolve_static(hs.h_charging, psi0, t).amplitudes, oracle, atol=1e-12)


def test_full_transfer_at_discharge_time(hs):
    psi = evolve_static(hs.h_charging, bell_with_empty_hub(BellLabel(1, 0)), TAUD)
    hub_excited = embed(Operator(1, np.diag([0.0, 1.0]).astype(complex), hermitian=True),
                        [2], 3)
    assert expectation(hub_excited, psi) == pytest.approx(1.0, abs=1e-10)


def test_eigenstate_picks_up_global_phase_only(hs):
    stored = bell_with_empty_hub(BellLabel(1, 1))  # eigenvalue zero
    out = evolve_static(hs.h_charging, stored, 1.7)
    assert_allclose(out.amplitudes, stored.amplitudes, atol=1e-12)
    # generic bare eigenstate: phase exp(-i E t)
    psi = ket("101")
    e = expectation(hs.h0_total, psi)
    out = evolve_static(hs.h0_total, psi, 0.9)
    assert_allclose(out.amplitudes, np.exp(-1j * e * 0.9) * psi.amplitudes, atol=1e-12)


def test_evolve_static_requires_hermitian():
    bad = Operator(1, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        evolve_static(bad, ket("0"), 1.0)


def test_propagator_unitary(hs):
    u = propagator(hs.h_charging, 0.83)
    assert u.unitary
    defect = u.matrix.conj().T @ u.matrix - np.eye(8)
    assert np.abs(defect).max() <= 1e-10


def test_evolve_timedep_constant_matches_static(hs):
    psi0 = bell_with_empty_hub(BellLabel(1, 0))
    tau = 0.9

    def h_of(_s):
        return hs.h_charging

    stepped = evolve_timedep(h_of, psi0, tau, n_steps=math.ceil(16 * tau))
    exact = evolve_static(hs.h_charging, psi0, tau)
    assert np.abs(stepped.amplitudes - exact.amplitudes).max() <= 1e-12


def test_evolve_timedep_second_order_convergence(hs):
    # time-dependent blend of the coupling and the bare term
    x1 = embed(pauli("x"), [0], 3)

    def h_of(s):
        return hs.h_charging + (2.0 * s * (1 - s)) * x1

    psi0 = bell_with_empty_hub(BellLabel(1, 0))
    tau = 2.0
    reference = evolve_timedep(h_of, psi0, tau, n_steps=4096).amplitudes
    err = [np.linalg.norm(evolve_timedep(h_of, psi0, tau, n_steps=n).amplitudes - reference)
           for n in (64, 128)]
    order = math.log2(err[0] / err[1])
    assert order >= 1.9


def test_interaction_picture_roundtrip_and_identity(hs):
    psi = bell_with_empty_hub(BellLabel(0, 1))
    assert to_interaction_picture(hs.h0_total, psi, 0.0).fidelity(psi) == pytest.approx(1.0)
    t = 0.61
    there = to_interaction_picture(hs.h0_total, psi, t)
    back = to_interaction_picture(hs.h0_total, there, -t)
    assert np.abs(back.amplitudes - psi.amplitudes).max() <= 1e-12
    # equal splittings: the coupling is static in the co-moving frame
    rotated = to_interaction_picture(hs.h0_total, hs.h_charging, t)
    assert np.abs(rotated.matrix - hs.h_charging.matrix).max() <= 1e-12


def test_sample_trajectory_trapped_state(hs):
    series = sample_trajectory(hs.h_charging, bell_with_empty_hub(BellLabel(1, 1)),
                               2 * TAUD, 64, hs)
    assert np.abs(series.ec).max() <= 1e-12
    assert np.abs(series.charge).max() <= 1e-12
    assert series.extra["fidelity_initial"].min() >= 1.0 - 1e-12


def test_sample_trajectory_matches_closed_form(hs):
    series = sample_trajectory(hs.h_charging, bell_with_empty_hub(BellLabel(1, 0)),
                               2 * TAUD, 128, hs)
    closed = 2.0 * np.sin(2 * math.sqrt(2) * series.times) ** 2
    assert np.abs(series.charge - closed).max() <= 1e-9


def test_sample_trajectory_endpoints_only(hs):
    series = sample_trajectory(hs.h_charging, bell_with_empty_hub(BellLabel(1, 0)),
                               TAUD, 2, hs)
    assert series.n_samples == 2
    assert series.charge[0] == pytest.approx(0.0, abs=1e-12)


def test_lab_frame_current_matches_rotating_frame(hs):
    # the current is formed from the H it is given: in the lab frame that is
    # (1/i)[H0_hub, H0_total + H_c], which must give the co-moving frame's
    psi0 = bell_with_empty_hub(BellLabel(1, 0))
    lab = sample_trajectory(hs.h0_total + hs.h_charging, psi0, 2 * TAUD, 129, hs)
    rotating = sample_trajectory(hs.h_charging, psi0, 2 * TAUD, 129, hs)
    assert np.abs(rotating.ec).max() > 1.0
    assert np.abs(lab.ec - rotating.ec).max() <= 1e-9


def test_finite_difference_matches_ec_channel(hs):
    n = 1024
    series = sample_trajectory(hs.h_charging, bell_with_empty_hub(BellLabel(1, 0)),
                               2 * TAUD, n, hs)
    dt = series.times[1] - series.times[0]
    deriv = (series.charge[2:] - series.charge[:-2]) / (2 * dt)
    err = np.abs(deriv - series.ec[1:-1]).max()
    rel = err / np.abs(series.ec).max()
    assert rel <= max(1e-6, 10 * dt**2)


def test_energy_and_excitation_conserved(hs):
    psi0 = bell_with_empty_hub(BellLabel(1, 0))
    number = sum((embed(Operator(1, np.diag([0.0, 1.0]).astype(complex), hermitian=True),
                        [q], 3) for q in range(3)),
                 start=Operator(3, np.zeros((8, 8)), hermitian=True))
    e0 = expectation(hs.h_charging, psi0)
    n0 = expectation(number, psi0)
    for t in np.linspace(0.1, 2.0, 7):
        psi = evolve_static(hs.h_charging, psi0, t)
        assert expectation(hs.h_charging, psi) == pytest.approx(e0, abs=1e-10)
        assert expectation(number, psi) == pytest.approx(n0, abs=1e-10)


def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0]), np.zeros(3), np.zeros(2))


# ----------------------------------------------------------------------
# Collective dephasing.

def _dephasing_generator(gamma):
    lop = math.sqrt(gamma) * (kron(Z, I2) + kron(I2, Z))

    def apply(rho):
        return lop @ rho @ lop.conj().T - 0.5 * (lop.conj().T @ lop @ rho
                                                 + rho @ lop.conj().T @ lop)
    return apply


def test_dephasing_leaves_singlet_invariant():
    singlet = bell_state(BellLabel(1, 1)).density()
    for gamma_t in (0.1, 1.0, 10.0):
        out = collective_dephasing_fixpoint(singlet, 1.0, gamma_t)
        assert np.abs(out.entries - singlet.entries).max() <= 1e-14


def test_dephasing_identity_at_zero_rate():
    rho = bell_state(BellLabel(0, 0)).density()
    out = collective_dephasing_fixpoint(rho, 0.0, 5.0)
    assert_allclose(out.entries, rho.entries)


def test_dephasing_rejects_negative_rate():
    with pytest.raises(ValueError):
        collective_dephasing_fixpoint(bell_state(BellLabel(0, 0)).density(), -0.1, 1.0)


def test_dephasing_kills_full_coherence():
    rho = bell_state(BellLabel(0, 0)).density()
    out = collective_dephasing_fixpoint(rho, 1.0, 50.0)
    assert abs(out.entries[0, 3]) <= 1e-15
    # decay of the |00><11| coherence follows exp(-8 gamma t) for this jump operator
    gamma, t = 0.3, 0.7
    out = collective_dephasing_fixpoint(rho, gamma, t)
    assert out.entries[0, 3].real == pytest.approx(0.5 * math.exp(-8 * gamma * t), abs=1e-12)


def test_dephasing_matches_lindblad_generator():
    rho = bell_state(BellLabel(0, 0)).density()
    gamma, t0, h = 0.7, 0.05, 1e-6
    at_t0 = collective_dephasing_fixpoint(rho, gamma, t0)
    forward = collective_dephasing_fixpoint(rho, gamma, t0 + h).entries
    backward = collective_dephasing_fixpoint(rho, gamma, t0 - h).entries
    derivative = (forward - backward) / (2 * h)
    assert np.abs(derivative - _dephasing_generator(gamma)(at_t0.entries)).max() <= 1e-6


def test_dephasing_matches_superoperator_expm():
    gamma, t = 0.4, 0.9
    lop = math.sqrt(gamma) * (kron(Z, I2) + kron(I2, Z))
    eye = np.eye(4)
    ll = lop.conj().T @ lop
    liouville = (np.kron(lop, lop.conj())
                 - 0.5 * np.kron(ll, eye) - 0.5 * np.kron(eye, ll.T))
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho = DensityMatrix(2, rho / np.trace(rho).real)
    oracle = scipy.linalg.expm(liouville * t) @ rho.entries.reshape(-1)
    ours = collective_dephasing_fixpoint(rho, gamma, t).entries.reshape(-1)
    assert np.abs(ours - oracle).max() <= 1e-12


def test_default_stepping_is_converged(hs):
    # doubling the default step density changes the final state fidelity by
    # less than 1e-8 on a representative driven run
    from qbat.adiabatic import AdiabaticSpec, Schedule, build_ht
    spec = AdiabaticSpec(tau=20.0, schedule=Schedule.SMOOTHSTEP)

    def h_of(s):
        return build_ht(spec, s)

    psi0 = bell_with_empty_hub(BellLabel(1, 1))
    base = evolve_timedep(h_of, psi0, spec.tau)
    fine = evolve_timedep(h_of, psi0, spec.tau, n_steps=math.ceil(512 * spec.tau))
    assert abs(base.fidelity(fine) - 1.0) <= 1e-8


def test_dephasing_requires_two_qubits():
    with pytest.raises(ValueError):
        collective_dephasing_fixpoint(ket("0").density(), 1.0, 1.0)


def test_sample_trajectory_validation(hs):
    psi0 = bell_with_empty_hub(BellLabel(1, 0))
    with pytest.raises(ValueError):
        sample_trajectory(hs.h_charging, psi0, TAUD, 1, hs)
    with pytest.raises(ValueError):
        sample_trajectory(hs.h_charging, psi0, 0.0, 8, hs)


def test_dephasing_preserves_whole_dfs():
    # any battery state supported on span{|01>, |10>} is untouched, not just
    # the singlet
    rng = np.random.default_rng(11)
    for _ in range(5):
        amp = np.zeros(4, dtype=complex)
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp[1:3] = raw / np.linalg.norm(raw)
        rho = PureState(2, amp).density()
        out = collective_dephasing_fixpoint(rho, 1.3, 4.0)
        assert np.abs(out.entries - rho.entries).max() <= 1e-15
