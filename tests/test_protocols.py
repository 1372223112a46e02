import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from qbat import protocols
from qbat.dynamics import evolve_static, sample_trajectory
from qbat.model import E0, charge, ergotropy, qubit_energy_term
from qbat.protocols import (
    DISCHARGE_TIME,
    SINGLE_PARTICLE_TRANSFER_TIME,
    BellLabel,
    CellAction,
    NCellPlan,
    SwitchGate,
    bell_charge_closed_form,
    bell_state,
    bell_with_empty_hub,
    blocking_conditions,
    blocking_state_from_constraints,
    cell_state_after_action,
    ncell_plan_energy,
    separable_sweep,
    single_particle_baseline,
    single_particle_trajectory,
    storage_state,
    switch_gate,
    transfer_fraction,
    trapping_check,
    trapping_uniqueness_scan,
)
from qbat.qalg import DensityMatrix, PureState, embed, expectation, ket, trace_distance

from oracles import I2, kron, raw_bare, raw_cell_coupling, raw_transfer_fraction

TAUD = math.pi / (4 * math.sqrt(2))


def test_bell_states():
    assert_allclose(bell_state(BellLabel(1, 1)).amplitudes,
                    np.array([0, 1, -1, 0]) / math.sqrt(2))
    assert_allclose(bell_state(BellLabel(0, 0)).amplitudes,
                    np.array([1, 0, 0, 1]) / math.sqrt(2))
    with pytest.raises(ValueError):
        BellLabel(2, 0)


def test_closed_form_g_table():
    assert DISCHARGE_TIME == TAUD
    assert bell_charge_closed_form(BellLabel(1, 1), 0.77) == 0.0
    assert bell_charge_closed_form(BellLabel(1, 0), TAUD) == pytest.approx(2.0)
    assert bell_charge_closed_form(BellLabel(0, 0), TAUD) == pytest.approx(1.0)
    assert bell_charge_closed_form(BellLabel(0, 1), TAUD) == pytest.approx(1.0)
    bells = np.stack([bell_state(BellLabel(n, m)).density().entries
                      for n in (0, 1) for m in (0, 1)])
    assert_allclose(transfer_fraction(bells), [0.5, 0.5, 1.0, 0.0], atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_transfer_fraction_is_the_overlap_with_the_releasing_states(seed):
    # g = <T|rho|T> + rho44 from an explicit T, on Wishart states with complex
    # coherences and on restricted-family states (diagonal plus a real rho23)
    rng = np.random.default_rng(seed)
    ginibre = rng.normal(size=(32, 4, 4)) + 1j * rng.normal(size=(32, 4, 4))
    wishart = ginibre @ ginibre.conj().transpose(0, 2, 1)
    wishart /= np.trace(wishart, axis1=1, axis2=2).real[:, None, None]
    diags = rng.dirichlet(np.ones(4), size=32)
    restricted = np.zeros((32, 4, 4))
    restricted[:, range(4), range(4)] = diags
    restricted[:, 1, 2] = restricted[:, 2, 1] = (
        rng.uniform(-1.0, 1.0, size=32) * np.sqrt(diags[:, 1] * diags[:, 2]))
    for rho in (wishart, restricted):
        assert_allclose(transfer_fraction(rho), raw_transfer_fraction(rho), rtol=0, atol=1e-15)


def test_closed_forms_on_an_array_are_their_scalar_calls():
    times = np.linspace(-3.0, 40.0, 1001)
    bell_laws = [lambda t, label=BellLabel(n, m): bell_charge_closed_form(label, t)
                 for n in (0, 1) for m in (0, 1)]
    for law in [single_particle_baseline, *bell_laws]:
        batch = law(times)
        assert batch.shape == times.shape
        assert np.array_equal(batch, [law(t) for t in times.tolist()])


def test_closed_form_matches_simulation_all_labels(hs):
    for n in (0, 1):
        for m in (0, 1):
            label = BellLabel(n, m)
            series = sample_trajectory(hs.h_charging, bell_with_empty_hub(label),
                                       2 * TAUD, 64, hs)
            closed = [bell_charge_closed_form(label, t) for t in series.times]
            assert np.abs(series.charge - np.array(closed)).max() <= 1e-9


def test_trapping_check_candidates(hs):
    stored = trapping_check(bell_with_empty_hub(BellLabel(1, 1)), hs)
    assert stored.trapped and stored.is_h_eigenstate
    assert stored.h_eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert stored.ec_value == pytest.approx(0.0, abs=1e-12)

    releasing = trapping_check(bell_with_empty_hub(BellLabel(1, 0)), hs)
    assert not releasing.trapped and not releasing.is_h_eigenstate

    empty = trapping_check(ket("000"), hs)
    assert empty.trapped and empty.h_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_trapping_persistence(hs):
    series = sample_trajectory(hs.h_charging, bell_with_empty_hub(BellLabel(1, 1)),
                               2 * TAUD, 256, hs)
    assert np.abs(series.ec).max() <= 1e-12
    assert series.extra["fidelity_initial"].min() >= 1.0 - 1e-12


def test_blocking_constraint_state_is_singlet():
    solved = blocking_state_from_constraints()
    singlet = bell_state(BellLabel(1, 1)).density()
    assert np.abs(solved.entries - singlet.entries).max() <= 1e-15


def test_blocking_conditions_probes():
    singlet = bell_state(BellLabel(1, 1)).density()
    ca, cb, max_ec = blocking_conditions(singlet.entries)
    assert ca and cb and max_ec <= 1e-12

    # the maximally mixed battery keeps only half the transferable energy
    # moving (ergotropy zero) and fails the zero-current condition
    mixed = DensityMatrix(2, np.eye(4) / 4)
    ca, cb, _ = blocking_conditions(mixed.entries)
    assert not (ca and cb)
    assert not cb
    pair_h = embed(qubit_energy_term(), [0], 2) + embed(qubit_energy_term(), [1], 2)
    assert ergotropy(mixed, pair_h) == pytest.approx(0.0, abs=1e-12)

    releasing = bell_state(BellLabel(1, 0)).density()
    ca, cb, max_ec = blocking_conditions(releasing.entries)
    assert ca and not cb
    assert max_ec == pytest.approx(4 * math.sqrt(2))  # full-release peak, in hbar*omega*J

    # one call tests a whole (..., 4, 4) stack, element by element
    stack = np.stack([singlet.entries, mixed.entries, releasing.entries]).reshape(3, 1, 4, 4)
    ca, cb, max_ec = blocking_conditions(stack)
    assert ca.shape == cb.shape == max_ec.shape == (3, 1)
    assert ca.ravel().tolist() == [True, True, True]
    assert cb.ravel().tolist() == [True, False, False]


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))
def test_blocking_conditions_on_vacuum_singlet_span(p, size, phase):
    # g vanishes on span{|00>, singlet}, so every state there carries no
    # current; only condition (1), rho11 == rho44 = 0, removes the |00> weight p
    basis = np.stack([ket("00").amplitudes, bell_state(BellLabel(1, 1)).amplitudes], axis=1)
    coherence = size * math.sqrt(p * (1.0 - p)) * np.exp(1j * phase)
    rho = basis @ np.array([[p, coherence], [np.conj(coherence), 1.0 - p]]) @ basis.conj().T
    ca, cb, max_ec = blocking_conditions(DensityMatrix(2, rho).entries)
    assert cb and max_ec <= 1e-14
    assert ca == (p <= 1e-9)


def test_uniqueness_scan_clean():
    report = trapping_uniqueness_scan(2000, tol=1e-3, seed=11)
    assert report.constraint_trace_distance <= 1e-10
    assert report.n_counterexamples == 0
    assert report.n_unrestricted_counterexamples == 0


@pytest.mark.parametrize("tol", [0.7, 0.85])
def test_uniqueness_scan_counts_counterexamples(monkeypatch, tol):
    # with every state passing both conditions, each family's counterexamples
    # are exactly its states farther than tol from the singlet, counted here
    # from the eigenvalues of rho - singlet over chunks of 128 states; the
    # full matrices the scan builds for them hold the entries the conditions read
    entries, states = [], []

    def everything_passes(diag, re23):
        entries.append((diag.copy(), re23.copy()))
        ones = np.ones(re23.shape, dtype=bool)
        return ones, ones, np.zeros(re23.shape)

    def recorded(a, b):
        states.append(a.entries)
        return trace_distance(a, b)

    monkeypatch.setattr(protocols, "_SCAN_CHUNK", 128)
    monkeypatch.setattr(protocols, "_blocking", everything_passes)
    monkeypatch.setattr(protocols, "trace_distance", recorded)
    report = trapping_uniqueness_scan(300, tol=tol, seed=5)
    # the first distance is the solved constraint state's, then each chunk's
    # restricted states and its Ginibre states, in the order they were tested
    assert_allclose(states[0], blocking_state_from_constraints().entries, atol=0)
    sizes = [re23.size for _, re23 in entries]
    batches = np.split(np.stack(states[1:]), np.cumsum(sizes)[:-1])
    for (diag, re23), rho in zip(entries, batches):
        assert_allclose(np.einsum("naa->na", rho).real, diag, rtol=0, atol=1e-15)
        assert_allclose(rho[:, 1, 2].real, re23, rtol=0, atol=1e-15)
    singlet = bell_state(BellLabel(1, 1)).density().entries
    counts = []
    for family in (batches[0::2], batches[1::2]):
        rho = np.concatenate(family)
        assert rho.shape == (300, 4, 4)
        distance = 0.5 * np.abs(np.linalg.eigvalsh(rho - singlet)).sum(axis=1)
        counts.append(int(np.sum(distance > tol)))
    assert report.n_pass_both == report.n_unrestricted_pass_both == 300
    assert (report.n_counterexamples, report.n_unrestricted_counterexamples) == tuple(counts)
    assert all(0 < c < 300 for c in counts)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-6, 1e-3, 1.0]))
def test_scan_entries_agree_with_the_full_matrices(seed, mix):
    # Ginibre parts whose rows 2 and 3 (1-based) cancel up to `mix` and whose
    # rows 1 and 4 are `mix` small: 0 gives the singlet, 1e-6 states passing
    # both conditions, 1e-3 and 1 states carrying a current; the scan's
    # entries give the flags and g of blocking_conditions on W = G G^dag / tr W
    rng = np.random.default_rng(seed)
    re, im = rng.normal(size=(2, 64, 4, 4))
    for part in (re, im):
        part[:, 2] = mix * part[:, 2] - part[:, 1]
        part[:, [0, 3]] *= mix
    ginibre = re + 1j * im
    wishart = ginibre @ ginibre.conj().transpose(0, 2, 1)
    wishart /= np.trace(wishart, axis1=1, axis2=2).real[:, None, None]
    diag, re23 = protocols._wishart_entries(re, im)
    assert_allclose(diag, np.einsum("naa->na", wishart).real, rtol=0, atol=1e-15)
    assert_allclose(re23, wishart[:, 1, 2].real, rtol=0, atol=1e-15)
    # restricted-family states, the singlet among them
    diags = rng.dirichlet(np.ones(4), size=64)
    coh = rng.uniform(-1.0, 1.0, size=64) * np.sqrt(diags[:, 1] * diags[:, 2])
    diags[0], coh[0] = [0.0, 0.5, 0.5, 0.0], -0.5
    restricted = np.zeros((64, 4, 4))
    restricted[:, range(4), range(4)] = diags
    restricted[:, 1, 2] = restricted[:, 2, 1] = coh
    for args, full in (((diag, re23), wishart), ((diags, coh), restricted)):
        pass_ca, pass_cb, max_ec = protocols._blocking(*args)
        want_ca, want_cb, _ = blocking_conditions(full)
        assert (pass_ca == want_ca).all() and (pass_cb == want_cb).all()
        assert_allclose(max_ec / (4 * math.sqrt(2)), np.abs(raw_transfer_fraction(full)),
                        rtol=0, atol=1e-15)
    assert pass_ca[0] and pass_cb[0]  # the singlet
    pass_ca, pass_cb, _ = protocols._blocking(diag, re23)
    assert (pass_ca & pass_cb).all() if mix <= 1e-6 else not pass_cb.any()


def test_uniqueness_scan_memory_is_bounded(monkeypatch):
    monkeypatch.setattr(protocols, "_SCAN_CHUNK", 512)
    trapping_uniqueness_scan(2000, seed=3)  # warm up: first-call allocations
    peaks = []
    for n in (2000, 20_000):
        tracemalloc.start()
        try:
            trapping_uniqueness_scan(n, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("n_random", [0, 65])
def test_uniqueness_scan_rejects_sample_counts_outside_its_range(monkeypatch, n_random):
    monkeypatch.setattr(protocols, "MAX_SCAN_SAMPLES", 64)
    trapping_uniqueness_scan(64)
    with pytest.raises(ValueError, match=re.escape(f"n_random must lie in [1, 64], got {n_random}")):
        trapping_uniqueness_scan(n_random)


def test_uniqueness_scan_is_independent_of_chunk_size(monkeypatch):
    # seed 1908 has the one restricted draw passing the available-energy test
    default = trapping_uniqueness_scan(100_000, seed=1908)
    monkeypatch.setattr(protocols, "_SCAN_CHUNK", 4099)  # does not divide the sample count
    assert trapping_uniqueness_scan(100_000, seed=1908) == default
    assert default.n_pass_available == 1


def _fidelity(a, b):
    return abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2


def test_switch_gate_maps_between_bell_states():
    stored = bell_with_empty_hub(BellLabel(1, 1))
    half = switch_gate(SwitchGate.HALF_ON_QUBIT2, stored)
    assert _fidelity(half, bell_with_empty_hub(BellLabel(0, 1))) == pytest.approx(1.0)
    half1 = switch_gate(SwitchGate.HALF_ON_QUBIT1, stored)
    assert _fidelity(half1, bell_with_empty_hub(BellLabel(0, 1))) == pytest.approx(1.0)
    full = switch_gate(SwitchGate.FULL_ON_QUBIT1, stored)
    assert _fidelity(full, bell_with_empty_hub(BellLabel(1, 0))) == pytest.approx(1.0)
    full2 = switch_gate(SwitchGate.FULL_ON_QUBIT2, stored)
    assert _fidelity(full2, bell_with_empty_hub(BellLabel(1, 0))) == pytest.approx(1.0)


def test_switch_gate_release_levels(hs):
    stored = bell_with_empty_hub(BellLabel(1, 1))
    full = evolve_static(hs.h_charging, switch_gate(SwitchGate.FULL_ON_QUBIT1, stored), TAUD)
    assert charge(full, hs) == pytest.approx(2.0, abs=1e-9)
    half = evolve_static(hs.h_charging, switch_gate(SwitchGate.HALF_ON_QUBIT2, stored), TAUD)
    assert charge(half, hs) == pytest.approx(1.0, abs=1e-9)


def test_switch_gate_qubit_independence(hs):
    stored = bell_with_empty_hub(BellLabel(1, 1))
    a = switch_gate(SwitchGate.FULL_ON_QUBIT1, stored)
    b = switch_gate(SwitchGate.FULL_ON_QUBIT2, stored)
    for t in np.linspace(0.0, 2 * TAUD, 64):
        ca = charge(evolve_static(hs.h_charging, a, t), hs)
        cb = charge(evolve_static(hs.h_charging, b, t), hs)
        assert abs(ca - cb) <= 1e-12


def test_switch_gate_leaves_battery_energy_alone(hs):
    # no gate changes the energy stored in the battery, <H0_battery>
    stored = bell_with_empty_hub(BellLabel(1, 1))
    before = expectation(hs.h0_battery, stored)
    for kind in SwitchGate:
        after = expectation(hs.h0_battery, switch_gate(kind, stored))
        assert abs(after - before) <= 1e-10


def test_switch_gate_from_kind():
    assert {(kind, qubit): SwitchGate.from_kind(kind, qubit)
            for kind in ("half", "full") for qubit in (1, 2)} == {
        ("half", 1): SwitchGate.HALF_ON_QUBIT1, ("half", 2): SwitchGate.HALF_ON_QUBIT2,
        ("full", 1): SwitchGate.FULL_ON_QUBIT1, ("full", 2): SwitchGate.FULL_ON_QUBIT2}
    for kind, qubit in (("half", 3), ("x", 1), ("full", 0)):
        message = f"unknown switch gate kind={kind!r} qubit={qubit}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SwitchGate.from_kind(kind, qubit)


def test_switch_gate_dimension_check():
    with pytest.raises(ValueError):
        switch_gate(SwitchGate.FULL_ON_QUBIT1, ket("01"))


def _product_battery(b1, b2, t1=0.0, t2=0.0):
    """(a1|0> + b1 e^{i t1}|1>) x (a2|0> + b2 e^{i t2}|1>), a_n = sqrt(1 - b_n^2)."""
    return np.kron([math.sqrt(1 - b1**2), b1 * np.exp(1j * t1)],
                   [math.sqrt(1 - b2**2), b2 * np.exp(1j * t2)])


def _separable_law(amps):
    """Peak hub charge 2*hbar*omega * g of a product battery state."""
    return E0 * float(transfer_fraction(np.outer(amps, amps.conj())))


def test_separable_closed_form_values():
    assert _separable_law(_product_battery(1.0, 1.0)) == pytest.approx(2.0)
    assert _separable_law(_product_battery(0.0, 0.0)) == pytest.approx(0.0)
    even = _product_battery(1 / math.sqrt(2), 1 / math.sqrt(2))
    assert _separable_law(even) == pytest.approx(1.5)  # 0.75 * E0
    rng = np.random.default_rng(3)
    for _ in range(6):
        (b1, b2), (t1, t2) = rng.uniform(0, 1, size=2), rng.uniform(0, 2 * math.pi, size=2)
        cross = b1 * b2 * math.sqrt((1 - b1**2) * (1 - b2**2))
        populations = (b1**2 + b2**2) / 2
        law = _separable_law(_product_battery(b1, b2, t1, t2))
        assert law == pytest.approx(2.0 * (cross * math.cos(t1 - t2) + populations), abs=1e-14)
        # the phases enter only through cos(t1 - t2), so the optimum is at t1 == t2
        at_equal = _separable_law(_product_battery(b1, b2, t1, t1))
        assert at_equal == pytest.approx(2.0 * (cross + populations), abs=1e-14)
        assert at_equal >= law - 1e-14


def test_separable_closed_form_matches_simulation(hs):
    rng = np.random.default_rng(5)
    for _ in range(6):
        (b1, b2), (t1, t2) = rng.uniform(0, 1, size=2), rng.uniform(0, 2 * math.pi, size=2)
        amps = _product_battery(b1, b2, t1, t2)
        psi0 = PureState(2, amps).tensor(ket("0"))
        simulated = charge(evolve_static(hs.h_charging, psi0, TAUD), hs)
        assert simulated == pytest.approx(_separable_law(amps), abs=1e-9)


def test_separable_sweep_bound():
    surface = separable_sweep(41)
    assert surface.shape == (41, 41)
    assert np.unravel_index(np.argmax(surface), surface.shape) == (40, 40)
    assert surface[-1, -1] == pytest.approx(1.0)
    surface[-1, -1] = -np.inf
    assert surface.max() <= 1.0 - 1e-4


def test_separable_cross_check_raises_on_a_wrong_law(monkeypatch):
    separable_sweep(5)  # law and simulation agree
    # a law off by 1e-8 in g is off by 2e-8 E0 everywhere; the error names the
    # first of the 24 sampled grid points, the corner beta = (0, 0)
    fraction = protocols._fraction
    monkeypatch.setattr(protocols, "_fraction", lambda diag, re23: fraction(diag, re23) + 1e-8)
    with pytest.raises(RuntimeError, match=re.escape("beta=(0.0, 0.0)")):
        separable_sweep(5)


def test_separable_cross_check_simulates_the_full_charge_corner(monkeypatch):
    # a law wrong only at beta = (1, 1), the one grid point reaching E0, is
    # caught on the default grid of 101 x 101
    fraction = protocols._fraction

    def wrong_at_the_corner(diag, re23):
        g = fraction(diag, re23)
        return np.where(np.isclose(diag[..., 3], 1.0), g - 1e-3, g)

    monkeypatch.setattr(protocols, "_fraction", wrong_at_the_corner)
    with pytest.raises(RuntimeError, match=re.escape("beta=(1.0, 1.0)")):
        separable_sweep(101)


def test_separable_cross_check_diagonalises_once(monkeypatch):
    calls = Counter()
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for grid_n in (2, 5, 101):
        separable_sweep(grid_n)
    assert calls["eigh"] == 3


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5))
def test_cell_charges_are_the_charges_of_each_evolved_cell(hs, times):
    cells = [cell_state_after_action(action) for action in CellAction]
    cells.append(bell_with_empty_hub(BellLabel(0, 1)))
    charges = protocols.cell_charges(np.stack([c.amplitudes for c in cells], axis=1), times)
    assert charges.shape == (len(times), len(cells))
    for i, t in enumerate(times):
        for k, cell in enumerate(cells):
            expected = charge(evolve_static(hs.h_charging, cell, t), hs)
            assert abs(charges[i, k] - expected) <= 1e-12


def test_single_particle_baseline():
    t_sp = SINGLE_PARTICLE_TRANSFER_TIME
    assert single_particle_baseline(t_sp) == pytest.approx(2.0)
    assert single_particle_baseline(0.0) == 0.0
    assert t_sp / DISCHARGE_TIME == pytest.approx(math.sqrt(2), abs=1e-12)


def test_single_particle_trajectory_matches_baseline():
    series = single_particle_trajectory(2 * SINGLE_PARTICLE_TRANSFER_TIME, 65)
    closed = [single_particle_baseline(t) for t in series.times]
    assert np.abs(series.charge - np.array(closed)).max() <= 1e-10


def test_ncell_plan_parsing_and_energy():
    plan = NCellPlan.parse("f,H,h")
    assert plan.actions == (CellAction.FULL, CellAction.HALF, CellAction.HOLD)
    total, per_cell = ncell_plan_energy(plan)
    assert total == pytest.approx(3.0, abs=1e-9)
    assert per_cell[0] == pytest.approx(2.0, abs=1e-9)
    assert per_cell[1] == pytest.approx(1.0, abs=1e-9)
    assert per_cell[2] == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        NCellPlan.parse("f,x")


def test_ncell_all_full_and_all_hold(hs):
    total, _ = ncell_plan_energy(NCellPlan.parse("f,f,f,f"))
    assert total == pytest.approx(8.0, abs=1e-9)
    total, per_cell = ncell_plan_energy(NCellPlan.parse("h,h"))
    assert total == pytest.approx(0.0, abs=1e-9)
    # held cells carry no current at any sampled time
    series = sample_trajectory(hs.h_charging, cell_state_after_action(CellAction.HOLD),
                               2 * TAUD, 32, hs)
    assert np.abs(series.ec).max() <= 1e-12


def test_ncell_simulates_each_distinct_action_once(monkeypatch):
    reference = dict(zip((CellAction.FULL, CellAction.HALF, CellAction.HOLD),
                         ncell_plan_energy(NCellPlan.parse("f,H,h"))[1]))
    calls = Counter()
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    plan = NCellPlan.parse(",".join((["hold", "half", "full", "h", "H", "f", "F"] * 429)[:3000]))
    assert len(plan.actions) == 3000
    total, per_cell = ncell_plan_energy(plan)
    # the distinct cells go through one solve
    assert calls["eigh"] == 1
    assert per_cell == tuple(reference[action] for action in plan.actions)
    assert total == pytest.approx(sum(per_cell), abs=1e-9)


@pytest.mark.parametrize("action", list(CellAction))
def test_cell_states_are_built_once_and_read_only(action):
    psi = cell_state_after_action(action)
    assert cell_state_after_action(action) is psi
    assert psi.amplitudes.flags.writeable is False
    with pytest.raises(ValueError, match="read-only"):
        psi.amplitudes[0] = 1.0


def test_storage_state_is_the_held_cell():
    from qbat import adiabatic
    assert adiabatic.storage_state is storage_state
    assert storage_state() is cell_state_after_action(CellAction.HOLD)
    assert np.array_equal(storage_state().amplitudes,
                          bell_with_empty_hub(BellLabel(1, 1)).amplitudes)
    gated = switch_gate(SwitchGate.HALF_ON_QUBIT1, storage_state())
    assert np.array_equal(cell_state_after_action(CellAction.HALF).amplitudes, gated.amplitudes)


def test_two_cells_factorize(hs):
    # a two-cell block built by hand evolves as the product of the library's
    # per-cell evolutions, which is what ncell relies on
    cell_a = cell_state_after_action(CellAction.FULL)
    cell_b = cell_state_after_action(CellAction.HALF)
    one = np.eye(8)
    block = np.kron(raw_cell_coupling(), one) + np.kron(one, raw_cell_coupling())
    joint = (scipy.linalg.expm(-1j * block * TAUD)
             @ np.kron(cell_a.amplitudes, cell_b.amplitudes))
    product = np.kron(evolve_static(hs.h_charging, cell_a, TAUD).amplitudes,
                      evolve_static(hs.h_charging, cell_b, TAUD).amplitudes)
    assert np.abs(joint - product).max() <= 1e-9
    hub = kron(I2, I2, raw_bare())
    two_hubs = np.kron(hub, one) + np.kron(one, hub)
    assert np.vdot(joint, two_hubs @ joint).real + 2.0 == pytest.approx(3.0, abs=1e-9)


def test_switch_gates_commute_with_hub_term(hs):
    from qbat.qalg import embed, pauli
    hub = hs.h0_hub.matrix
    for axis, site in (("x", 0), ("x", 1), ("z", 0), ("z", 1)):
        gate = embed(pauli(axis), [site], 3).matrix
        assert np.abs(gate @ hub - hub @ gate).max() == 0.0


def test_trapping_check_requires_positive_tol(hs):
    with pytest.raises(ValueError):
        trapping_check(ket("000"), hs, tol=0.0)


def test_uniqueness_scan_requires_samples():
    with pytest.raises(ValueError):
        trapping_uniqueness_scan(0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_scan_current_matches_the_lifted_trace(seed):
    # the empty-hub law C(t) = 2 g sin^2(2 sqrt(2) t) and
    # <P_hat(t)> = 4 sqrt(2) g sin(4 sqrt(2) t), against the explicit
    # trace over rho x |0><0| evolved by a hand-built propagator, for a
    # Ginibre battery state with complex coherences
    h = raw_cell_coupling()
    h0_hub = kron(I2, I2, raw_bare())
    p_hat = (h0_hub @ h - h @ h0_hub) / 1j
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    lifted = np.kron(rho, np.diag([1.0, 0.0]))
    fraction = float(transfer_fraction(rho))
    rate = 2 * math.sqrt(2)
    for t in np.linspace(0.0, math.pi / rate, 9):  # two transfer times
        u = scipy.linalg.expm(-1j * h * t)
        rho_t = u @ lifted @ u.conj().T
        charge_t = np.trace(h0_hub @ rho_t).real + 1.0
        current_t = np.trace(p_hat @ rho_t).real
        law_charge = 2 * fraction * math.sin(rate * t) ** 2
        law_current = 2 * rate * fraction * math.sin(2 * rate * t)
        assert abs(charge_t - law_charge) <= 1e-12
        assert abs(current_t - law_current) <= 1e-12
