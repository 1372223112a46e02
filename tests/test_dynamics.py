import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from qbat import adiabatic, dynamics
from qbat.dynamics import (
    STEPS_PER_UNIT_JT,
    TimeSeries,
    _expm_sym3,
    _stepped_states,
    _tree_product,
    collective_dephasing_fixpoint,
    evolve_static,
    evolve_timedep,
    sample_trajectory,
)
from qbat.protocols import BellLabel, bell_state, bell_with_empty_hub, single_particle_trajectory
from qbat.qalg import DensityMatrix, Operator, PureState, embed, expectation, ket, pauli

from oracles import I2, X, Y, Z, kron


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
    hub_excited = embed(Operator(1, np.diag([0.0, 1.0]).astype(complex)), [2], 3)
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


def test_evolve_timedep_constant_matches_static(hs):
    psi0 = bell_with_empty_hub(BellLabel(1, 0))
    tau = 0.9

    def h_stack(s):
        return np.broadcast_to(hs.h_charging.matrix, (s.size, 8, 8))

    stepped = evolve_timedep(h_stack, psi0, tau, n_steps=math.ceil(16 * tau))
    exact = evolve_static(hs.h_charging, psi0, tau)
    assert np.abs(stepped.amplitudes - exact.amplitudes).max() <= 1e-12


def test_evolve_timedep_second_order_convergence(hs):
    # time-dependent blend of the coupling and the bare term
    x1 = embed(pauli("x"), [0], 3).matrix

    def h_stack(s):
        return hs.h_charging.matrix + (2.0 * s * (1 - s))[:, None, None] * x1

    psi0 = bell_with_empty_hub(BellLabel(1, 0))
    tau = 2.0
    reference = evolve_timedep(h_stack, psi0, tau, n_steps=4096).amplitudes
    err = [np.linalg.norm(evolve_timedep(h_stack, psi0, tau, n_steps=n).amplitudes - reference)
           for n in (64, 128)]
    order = math.log2(err[0] / err[1])
    assert order >= 1.9


def test_evolve_timedep_rejects_non_hermitian_stack(hs):
    # eigh would read one triangle of it and step a different Hamiltonian
    upper = np.triu(hs.h_charging.matrix)
    with pytest.raises(ValueError, match="^time-dependent Hamiltonian stack is not hermitian$"):
        evolve_timedep(lambda s: np.broadcast_to(upper, (s.size, 8, 8)),
                       bell_with_empty_hub(BellLabel(1, 0)), 1.0, n_steps=16)


def test_evolve_timedep_rejects_a_state_of_another_size(hs):
    with pytest.raises(ValueError, match="^dimension mismatch: Hamiltonian 8, state 4$"):
        evolve_timedep(lambda s: np.broadcast_to(hs.h_charging.matrix, (s.size, 8, 8)),
                       ket("01"), 1.0, n_steps=4)


def test_evolve_timedep_checks_its_arguments_at_tau_zero(hs):
    # tau = 0 takes the same checks as any other tau
    constant = lambda s: np.broadcast_to(hs.h_charging.matrix, (s.size, 8, 8))
    with pytest.raises(ValueError, match="^dimension mismatch: Hamiltonian 8, state 4$"):
        evolve_timedep(constant, ket("01"), 0.0, n_steps=4)
    with pytest.raises(ValueError, match="^n_steps must be >= 1, got 0$"):
        evolve_timedep(constant, bell_with_empty_hub(BellLabel(1, 0)), 0.0, n_steps=0)


def test_evolve_timedep_returns_psi0_at_tau_zero(hs):
    psi0 = bell_with_empty_hub(BellLabel(1, 0))
    out = evolve_timedep(lambda s: np.broadcast_to(hs.h_charging.matrix, (s.size, 8, 8)),
                         psi0, 0.0, n_steps=4)
    assert np.abs(out.amplitudes - psi0.amplitudes).max() <= 1e-14


def _random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


@pytest.mark.parametrize("p", [1, 2, 3, 5, 7, 32])
def test_tree_product_is_the_ordered_product(p):
    rng = np.random.default_rng(p)
    u = np.stack([[scipy.linalg.expm(-1j * _random_hermitian(rng, 4)) for _ in range(p)]
                  for _ in range(3)])
    tree = _tree_product(u)
    for batch, factors in enumerate(u):
        ordered = np.eye(4)
        reversed_order = np.eye(4)
        for factor in factors:
            ordered = factor @ ordered
            reversed_order = reversed_order @ factor
        assert np.abs(tree[batch] - ordered).max() <= 1e-12
        # random unitaries do not commute, so the order is tested
        if p > 1:
            assert np.abs(reversed_order - ordered).max() > 1e-3


def _per_step_oracle(h_stack, psi0, tau, n_steps, every):
    """The fourth-order commutator-free stepper as a plain loop that updates
    the state (d,), or the d x k matrix of states, by one exponential at a
    time."""
    dt = tau / n_steps
    alpha, beta = 0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0
    psi = psi0.astype(complex)
    states = np.empty((n_steps // every + 1,) + psi.shape, dtype=complex)
    states[0] = psi
    for k in range(n_steps):
        h1, h2 = h_stack((k + 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0) / n_steps)
        for exponent in (alpha * h1 + beta * h2, beta * h1 + alpha * h2):
            w, v = np.linalg.eigh(exponent)
            psi = (v * np.exp(-1j * w * dt)) @ (v.conj().T @ psi)
        if (k + 1) % every == 0:
            states[(k + 1) // every] = psi
    return states


def _midpoint_oracle(h_stack, psi0, tau, n_steps):
    """The second-order exponential-midpoint rule as a plain loop, an
    independent fine-step reference for the stepper: exp(-i dt H(t_mid)) per
    step of size dt."""
    dt = tau / n_steps
    psi = psi0.astype(complex)
    w, v = np.linalg.eigh(h_stack((np.arange(n_steps) + 0.5) / n_steps))
    for wk, vk in zip(w, v):
        psi = (vk * np.exp(-1j * wk * dt)) @ (vk.conj().T @ psi)
    return psi


@pytest.mark.parametrize("n_steps, every", [
    (5000, 5000),  # a segment longer than a chunk, not a multiple of it
    (4200, 300),   # several segments per chunk, not dividing it
    (17, 1),       # a record after every step
])
def test_stepped_states_match_per_step_loop(n_steps, every):
    rng = np.random.default_rng(n_steps)
    a, b, c = (_random_hermitian(rng, 4) for _ in range(3))

    def h_stack(s):
        return (a + np.sin(3.0 * s)[:, None, None] * b
                + (s**2)[:, None, None] * c)

    psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi0 /= np.linalg.norm(psi0)
    ours = _stepped_states(h_stack, psi0, 3.0, n_steps, every)
    oracle = _per_step_oracle(h_stack, psi0, 3.0, n_steps, every)
    assert ours.shape == (n_steps // every + 1, 4)
    assert np.abs(ours - oracle).max() <= 1e-12


@pytest.mark.parametrize("case", ["random", "drive"])
def test_stepper_converges_at_fourth_order(case):
    # self-convergence order of the final state from 32 to 64 steps, against
    # 1024 steps, on a random complex h(s) and on the drive (measured 4.007
    # and 4.003); a rule with alpha and beta swapped runs without error at
    # order 2.000, which AC-11's floor of 1.9 lets through
    from qbat.adiabatic import AdiabaticSpec, Schedule, _ht_stack, storage_state
    if case == "random":
        rng = np.random.default_rng(7)
        a, b, c = (_random_hermitian(rng, 4) for _ in range(3))

        def h_stack(s):
            return a + np.sin(3.0 * s)[:, None, None] * b + (s**2)[:, None, None] * c

        psi0, tau = rng.normal(size=4) + 1j * rng.normal(size=4), 3.0
        psi0 /= np.linalg.norm(psi0)
    else:
        spec = AdiabaticSpec(4.0, Schedule.SIN_SQUARED)

        def h_stack(s):
            return _ht_stack(spec.schedule, s)

        psi0, tau = storage_state().amplitudes, spec.jtau
    final = {n: _stepped_states(h_stack, psi0, tau, n, n)[-1] for n in (32, 64, 1024)}
    errors = [np.linalg.norm(final[n] - final[1024]) for n in (32, 64)]
    assert math.log2(errors[0] / errors[1]) >= 3.9


def _steps_and_divisor(n_steps):
    return st.tuples(st.just(n_steps),
                     st.sampled_from([k for k in range(1, n_steps + 1) if n_steps % k == 0]))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 8]), st.integers(1, 500).flatmap(_steps_and_divisor),
       st.integers(1, 64), st.floats(0.01, 10.0), st.integers(0, 2**32 - 1))
def test_stepped_states_are_unitary_property(d, steps, chunk, tau, seed):
    # the stepper propagates the d basis vectors to the columns of a unitary
    # at every record, so norms are kept too, for any chunk size, hermitian
    # h(s) = A + s B, step count and recording interval (measured defect
    # <= 7.9e-14).  Steps V D V^T, which drop the conjugate, are unitary as
    # well; the per-step oracle tells them apart (measured gap <= 8.2e-15)
    n_steps, every = steps
    rng = np.random.default_rng(seed)
    a, b = _random_hermitian(rng, d), _random_hermitian(rng, d)

    def h_stack(s):
        return a + s[:, None, None] * b

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_CHUNK", chunk)
        columns = [_stepped_states(h_stack, e, tau, n_steps, every) for e in np.eye(d)]
    u = np.stack(columns, axis=-1)  # (n_steps // every + 1, d, d)
    defect = u.conj().swapaxes(1, 2) @ u - np.eye(d)
    assert u.shape == (n_steps // every + 1, d, d)
    assert np.abs(defect).max() <= 1e-12
    oracle = _per_step_oracle(h_stack, np.eye(d), tau, n_steps, every)
    assert np.abs(u - oracle).max() <= 1e-12


def _per_segment_carry(h_stack, psi0, tau, n_steps, every, chunk):
    """The stepper on the same chunks, kernels and segment products, but with
    the state carried by one ``ndarray.dot`` per segment: the plain loop the
    blocked scan replaced."""
    dt = tau / n_steps
    psi = psi0.astype(complex)
    d = psi.size
    states = np.empty((n_steps // every + 1, d), dtype=complex)
    states[0] = psi
    done = 0
    while done < n_steps:
        piece = min(every - done % every, chunk)
        m = piece * max(1, min(chunk // every, (n_steps - done) // every))
        h = h_stack(((done + np.arange(m))[:, None] + dynamics._NODES).ravel() / n_steps)
        h1, h2 = h[0::2], h[1::2]
        alpha, beta = dynamics._ALPHA, dynamics._BETA
        exponents = np.stack([alpha * h1 + beta * h2, beta * h1 + alpha * h2], axis=1)
        factors = (_expm_sym3(exponents, dt) if d == 3 and exponents.dtype.kind == "f"
                   else _eigh_factors(exponents, dt))
        for segment in _tree_product(factors.reshape(m // piece, 2 * piece, d, d)):
            psi = segment.dot(psi)
            done += piece
            if done % every == 0:
                states[done // every] = psi
    return states


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 8]), st.integers(1, 40), st.integers(1, 60), st.integers(1, 80),
       st.integers(1, 600), st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
def test_blocked_scan_matches_the_per_segment_carry(d, every, records, chunk, other_chunk,
                                                    tau, seed):
    # the scan regroups the products of whole segments, so it follows the
    # per-segment carry on every chunking (measured <= 3.7e-15): on the real
    # 3x3 closed form and the complex 8x8 eigh path, where chunks end inside a
    # block of _BLOCK segments, and where a recording segment spans several
    # chunks (every > chunk).  Its blocks sit on segment indices, so chunks
    # that hold whole recording segments give the same bits at any size
    n_steps = every * records
    rng = np.random.default_rng(seed)
    a, b = ((rng.normal(size=(3, 3)) for _ in range(2)) if d == 3
            else (_random_hermitian(rng, d) for _ in range(2)))

    def h_stack(s):
        return (a + a.T.conj()) / 2 + np.sin(2.0 * s)[:, None, None] * (b + b.T.conj()) / 2

    psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi0 /= np.linalg.norm(psi0)
    runs = {}
    for size in (chunk, other_chunk):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_CHUNK", size)
            runs[size] = _stepped_states(h_stack, psi0, tau, n_steps, every)
    oracle = _per_segment_carry(h_stack, psi0, tau, n_steps, every, chunk)
    assert np.abs(runs[chunk] - oracle).max() <= 1e-13
    if min(chunk, other_chunk) >= every:
        assert np.array_equal(runs[chunk], runs[other_chunk])


def _eigh_factors(a, dt):
    # exp(-i dt A) through the eigendecomposition, as the stepper forms it
    # for every stack the closed form does not take
    w, v = np.linalg.eigh(a)
    return (v * np.exp(-1j * dt * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _unitarity_defect(u):
    return np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max()


def _random_symmetric(rng, m, dt_norm):
    # m real symmetric 3x3 matrices with dt |A|_2 = dt_norm for dt = 1
    a = rng.normal(size=(m, 3, 3)) + rng.normal(size=(m, 1, 1)) * np.eye(3)
    a = a + a.swapaxes(1, 2)
    return a * (dt_norm / np.abs(np.linalg.eigvalsh(a)).max(axis=1))[:, None, None]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(adiabatic.Schedule)), st.integers(1, adiabatic.MAX_STEPS),
       st.one_of(st.just(1.0), st.floats(0.0, 1.0)), st.floats(1e-6, 1.0 / STEPS_PER_UNIT_JT))
def test_sector_exponentials_match_eigh_on_the_drive(schedule, n_steps, s, dt):
    # the drive's two exponents of the step at s, s = 1 taking the last step,
    # whose nodes lie within one step of the level crossing at s = 1
    # (measured <= 1.7e-15 from eigh, unitarity defect <= 5.6e-16)
    step = min(int(s * n_steps), n_steps - 1)
    h1, h2 = adiabatic._ht_stack(schedule, (step + dynamics._NODES) / n_steps,
                                 adiabatic._EXCITATION_SECTORS[1])
    a = np.stack([dynamics._ALPHA * h1 + dynamics._BETA * h2,
                  dynamics._BETA * h1 + dynamics._ALPHA * h2])
    u = _expm_sym3(a, dt)
    assert np.abs(u - _eigh_factors(a, dt)).max() <= 1e-14
    assert _unitarity_defect(u) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(1e-3, 1e3))
def test_sector_exponentials_match_eigh_on_random_stacks(seed, dt_norm, dt):
    # any real symmetric stack with dt |A|_2 <= 1 (measured <= 2.3e-15 from
    # eigh, unitarity defect <= 1.1e-15)
    a = _random_symmetric(np.random.default_rng(seed), 16, dt_norm) / dt
    u = _expm_sym3(a, dt)
    assert np.abs(u - _eigh_factors(a, dt)).max() <= 1e-14
    assert _unitarity_defect(u) <= 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sector_exponentials_at_large_phases():
    # the error grows with dt |A|_2 (measured <= 1.8e-14 from eigh and a
    # unitarity defect <= 2.1e-14 at 10)
    a = _random_symmetric(np.random.default_rng(28), 4096, 10.0)
    u = _expm_sym3(a, 1.0)
    assert np.abs(u - _eigh_factors(a, 1.0)).max() <= 1e-13
    assert _unitarity_defect(u) <= 1e-13


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e155, 1e300])
def test_sector_exponentials_at_extreme_entries(scale):
    # the stack is scaled exactly before any square is formed, so entries
    # whose squares overflow or underflow agree with eigh as at order 1, as do
    # the stack's smaller matrices beside them; so does a constant-H run
    a = _random_symmetric(np.random.default_rng(155), 4, 1.0) * scale
    a[1:] *= np.array([1e-100, 1e-200, 0.0])[:, None, None]
    u = _expm_sym3(a, 1.0 / scale)
    assert np.abs(u - _eigh_factors(a, 1.0 / scale)).max() <= 1e-14
    assert _unitarity_defect(u) <= 1e-14
    psi = _stepped_states(lambda s: np.broadcast_to(a[0], (s.size, 3, 3)), np.eye(3)[0],
                          8.0 / scale, 16, 16)
    assert np.abs(psi[-1] - _eigh_factors(a[0], 8.0 / scale)[:, 0]).max() <= 1e-13


_ROTATION = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("levels, rotated", [
    ([0.0, 0.0, 0.0], False),            # zero matrix
    ([0.1, 0.1, 0.1], False),            # scalar: l1 = l3, no division
    ([-7.3, -7.3, -7.3], True),
    ([1.0, 1.0, 3.0], False),            # exact double eigenvalues
    ([-2.0, 0.0, 0.0], False),           # the drive's block at s = 1
    ([-2.0, 0.0, 0.0], True),
    ([1.0, 1.0 + 1e-12, 3.0], True),     # pairs 1e-12 apart
    ([-2.0, 0.0, 1e-12], True),
    ([1.0, 1.0 + 1e-12, 1.0 + 2e-12], True),
    ([1e-200, 2e-200, 3e-200], True),    # (A - tr A / 3)^3 underflows
])
def test_sector_exponentials_at_degenerate_levels(levels, rotated):
    q = _ROTATION if rotated else np.eye(3)
    a = (q * levels) @ q.T
    a = (a + a.T) / 2
    for dt in (1.0 / STEPS_PER_UNIT_JT, 1.0, 3.0):
        u = _expm_sym3(a, dt)
        assert np.all(np.isfinite(u))
        assert np.abs(u - _eigh_factors(a, dt)).max() <= 1e-14
        assert _unitarity_defect(u) <= 1e-14
    if not rotated and levels[0] == levels[2]:
        assert np.array_equal(_expm_sym3(a, 1.0), np.exp(-1j * levels[0]) * np.eye(3))


def test_only_real_3x3_stacks_skip_eigh(monkeypatch):
    # the drive's real 3x3 blocks take the closed form; the full 8-dim space,
    # and complex 3x3 hermitian stacks, keep the batched eigh
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape[-1]) or eigh(a))
    sector = adiabatic._EXCITATION_SECTORS[1]
    for block in (sector, range(8)):
        _stepped_states(lambda s: adiabatic._ht_stack(adiabatic.Schedule.LINEAR, s, block),
                        np.eye(len(block))[0], 2.0, 16, 4)
    b = _random_hermitian(np.random.default_rng(5), 3)
    _stepped_states(lambda s: np.broadcast_to(b, (s.size, 3, 3)), np.eye(3)[0], 2.0, 16, 4)
    assert calls == [8, 3]


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 3.0), st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16))
def test_frame_invariance_property(hs, t, parts):
    # the lab frame (H0_total + H_c) and the frame co-moving with H0_total
    # (H_c alone) agree on charge and current, and exp(+i H0_total t) maps
    # the lab state onto the co-moving one
    amp = np.array(parts[:8]) + 1j * np.array(parts[8:])
    assume(np.linalg.norm(amp) > 1e-3)
    psi0 = PureState(3, amp / np.linalg.norm(amp))
    lab = sample_trajectory(hs.h0_total + hs.h_charging, psi0, t, 9, hs)
    rotating = sample_trajectory(hs.h_charging, psi0, t, 9, hs)
    assert np.abs(lab.charge - rotating.charge).max() <= 1e-9
    assert np.abs(lab.ec - rotating.ec).max() <= 1e-9
    lab_state = evolve_static(hs.h0_total + hs.h_charging, psi0, t)
    back = evolve_static(hs.h0_total, lab_state, -t)
    assert np.abs(back.amplitudes - evolve_static(hs.h_charging, psi0, t).amplitudes).max() <= 1e-9


def test_sample_trajectory_trapped_state(hs):
    series = sample_trajectory(hs.h_charging, bell_with_empty_hub(BellLabel(1, 1)),
                               2 * TAUD, 64, hs)
    assert np.abs(series.ec).max() <= 1e-12
    assert np.abs(series.charge).max() <= 1e-12
    assert series.extra["fidelity_initial"].min() >= 1.0 - 1e-12


def test_trapped_state_reads_no_charge_over_the_whole_run(hs):
    # the singlet never excites the hub: only the eigenbasis round trip puts
    # amplitudes of 1e-16 on it, so the charge stays at or below 1e-30, and
    # it is exactly 0 at t = 0 (it read 3.3e-16 on every row when e_empty was
    # subtracted from <H0_hub>)
    series = sample_trajectory(hs.h_charging, bell_with_empty_hub(BellLabel(1, 1)),
                               10 * TAUD, 1025, hs)
    assert series.charge[0] == 0.0
    assert np.all((series.charge >= 0.0) & (series.charge <= 1e-30))


def test_sample_trajectory_matches_closed_form(hs):
    series = sample_trajectory(hs.h_charging, bell_with_empty_hub(BellLabel(1, 0)),
                               2 * TAUD, 128, hs)
    closed = 2.0 * np.sin(2 * math.sqrt(2) * series.times) ** 2
    assert np.abs(series.charge - closed).max() <= 1e-9


def test_sample_trajectory_endpoints_only(hs):
    series = sample_trajectory(hs.h_charging, bell_with_empty_hub(BellLabel(1, 0)),
                               TAUD, 2, hs)
    assert series.times.size == 2
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
    number = sum((embed(Operator(1, np.diag([0.0, 1.0]).astype(complex)), [q], 3)
                  for q in range(3)),
                 start=Operator(3, np.zeros((8, 8))))
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
    # the stepper at the drive's step density, STEPS_PER_UNIT_JT per unit Jt,
    # agrees with an independent exponential-midpoint run at 512 steps per
    # unit Jt to within 1e-8 in final state fidelity on a representative
    # driven run (measured 2.3e-13)
    from qbat.adiabatic import AdiabaticSpec, Schedule, _ht_stack
    spec = AdiabaticSpec(20.0, Schedule.SMOOTHSTEP)

    def h_stack(s):
        return _ht_stack(spec.schedule, s)

    psi0 = bell_with_empty_hub(BellLabel(1, 1))
    base = evolve_timedep(h_stack, psi0, spec.jtau,
                          n_steps=math.ceil(STEPS_PER_UNIT_JT * spec.jtau))
    fine = _midpoint_oracle(h_stack, psi0.amplitudes, spec.jtau, math.ceil(512 * spec.jtau))
    assert abs(abs(np.vdot(base.amplitudes, fine)) ** 2 - 1.0) <= 1e-8


def test_dephasing_requires_two_qubits():
    with pytest.raises(ValueError):
        collective_dephasing_fixpoint(ket("0").density(), 1.0, 1.0)


def test_sample_trajectory_validation(hs):
    psi0 = bell_with_empty_hub(BellLabel(1, 0))
    with pytest.raises(ValueError):
        sample_trajectory(hs.h_charging, psi0, TAUD, 1, hs)
    with pytest.raises(ValueError):
        sample_trajectory(hs.h_charging, psi0, 0.0, 8, hs)


def _time_calls():
    bell = bell_with_empty_hub(BellLabel(1, 0))
    coherent = bell_state(BellLabel(0, 0)).density()

    def constant(hs):
        return lambda s: np.broadcast_to(hs.h_charging.matrix, (len(s), 8, 8))

    return {
        "t_final": lambda hs, x: sample_trajectory(hs.h_charging, bell, x, 5, hs),
        "t_final (single particle)": lambda hs, x: single_particle_trajectory(x, 5),
        "t": lambda hs, x: evolve_static(hs.h_charging, bell, x),
        "tau": lambda hs, x: evolve_timedep(constant(hs), bell, x, 8),
        "t (dephasing)": lambda hs, x: collective_dephasing_fixpoint(coherent, 1.0, x),
        "gamma": lambda hs, x: collective_dephasing_fixpoint(coherent, x, 1.0),
    }


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", list(_time_calls()))
def test_time_arguments_must_be_finite(hs, name, value):
    # rejected up front, naming the argument, instead of warning, raising
    # LinAlgError or returning a state of nans
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name.split()[0]} must be finite"):
            _time_calls()[name](hs, value)


_RUN_LENGTH_CALLS = ("t_final", "t_final (single particle)", "t", "tau")


@pytest.mark.parametrize("value", [1e308, -1e308, math.nextafter(dynamics.MAX_JT, math.inf)])
@pytest.mark.parametrize("name", _RUN_LENGTH_CALLS)
def test_runs_longer_than_max_jt_are_rejected(hs, name, value):
    # at 1e308 the phases used to overflow: three RuntimeWarnings, then a
    # series ending in nan or an opaque "array entries must be finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name.split()[0]} must be finite.*MAX_JT"):
            _time_calls()[name](hs, value)


@pytest.mark.parametrize("name, value", [(name, dynamics.MAX_JT) for name in _RUN_LENGTH_CALLS]
                         + [("t", -dynamics.MAX_JT)])
def test_a_run_of_max_jt_is_accepted(hs, name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _time_calls()[name](hs, value)


class _Propagated(Exception):
    pass


_GRID_CALLS = {
    "sample_trajectory": lambda hs, t, n: sample_trajectory(
        hs.h_charging, bell_with_empty_hub(BellLabel(1, 0)), t, n, hs),
    "single_particle_trajectory": lambda hs, t, n: single_particle_trajectory(t, n),
    "run_discharge": lambda hs, t, n: adiabatic.run_discharge(adiabatic.AdiabaticSpec(t), n),
    "sweep_tau": lambda hs, t, n: adiabatic.sweep_tau([t]),  # at SWEEP_SAMPLES = n
}


@pytest.mark.parametrize("n_samples", [1, 2, 65536])
@pytest.mark.parametrize("duration", [0.0, -1.0, 5e-324, 1e-320, 1e308, math.inf, math.nan, 1.0])
@pytest.mark.parametrize("call", list(_GRID_CALLS))
def test_bad_sample_grids_are_rejected_before_propagation(hs, monkeypatch, call, duration,
                                                          n_samples):
    # a grid of fewer than 2 samples, a run length outside (0, MAX_JT] or a
    # spacing below the smallest normal float raises ValueError up front;
    # only a good grid may reach the propagators (Jt = 1 is the control)
    def propagated(*_args, **_kwargs):
        raise _Propagated

    monkeypatch.setattr(dynamics, "_spectral", propagated)
    monkeypatch.setattr(adiabatic, "_stepped_states", propagated)
    monkeypatch.setattr(adiabatic, "SWEEP_SAMPLES", n_samples)
    try:
        _GRID_CALLS[call](hs, duration, n_samples)
    except ValueError:
        return
    except _Propagated:
        assert n_samples >= 2 and 0 < duration <= dynamics.MAX_JT
        assert duration / (n_samples - 1) >= np.finfo(float).tiny
        return
    assert (call, duration) == ("sweep_tau", 0.0)  # the sudden limit evolves nothing


_COLLECTIVE_Z = np.array([2.0, 0.0, 0.0, -2.0])


def _random_battery_state(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return DensityMatrix(2, g @ g.conj().T / np.trace(g @ g.conj().T).real)


@pytest.mark.parametrize("gamma, t", [(1.0, 1e308), (1e200, 1e200), (1e3, 1.0), (2.0, 1e300)])
def test_dephasing_reaches_its_full_dephasing_limit(gamma, t):
    # gamma * t used to overflow here, warning and then raising "array
    # entries must be finite"; the limit keeps only the coherences between
    # equal collective-z values
    rho = _random_battery_state(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = collective_dephasing_fixpoint(rho, gamma, t)
    same = np.equal.outer(_COLLECTIVE_Z, _COLLECTIVE_Z)
    assert np.array_equal(out.entries, np.where(same, rho.entries, 0.0))


@pytest.mark.parametrize("gamma_t", [0.0, 1e-300, 0.1, 372.0, 373.0, 999.9, 1e3, 1e5, 1e300])
def test_dephasing_results_are_the_exact_exponentials(gamma_t):
    # the full-dephasing limit changes no result the plain formula gives
    rho = _random_battery_state(6)
    decay = np.exp(-gamma_t * np.subtract.outer(_COLLECTIVE_Z, _COLLECTIVE_Z) ** 2 / 2.0)
    out = collective_dephasing_fixpoint(rho, 1.0, gamma_t)
    assert out.entries.tobytes() == (rho.entries * decay).tobytes()


@pytest.mark.parametrize("label", [BellLabel(0, 0), BellLabel(1, 1)])
def test_dephasing_rejects_negative_time(label):
    # a negative t used to raise "eigenvalue below -1e-10" for |00> + |11>,
    # and pass silently for the singlet, which the channel leaves untouched
    rho = bell_state(label).density()
    with pytest.raises(ValueError, match="^t must be finite and >= 0"):
        collective_dephasing_fixpoint(rho, 1.0, -1.0)


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
