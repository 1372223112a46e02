"""Time evolution engines.

Constant Hamiltonians are propagated exactly through their eigendecomposition.
Time-dependent ones use exponential-midpoint stepping: each step applies the
exact exponential of the Hamiltonian sampled at the interval midpoint, so
every step is exactly unitary and the global error is second order in the
step size (exact for constant Hamiltonians).  The steps of each recording
segment are formed as matrices in batches and multiplied pairwise into one
segment propagator, so a state is touched once per segment, not per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .model import HamiltonianSet, ec_operator
from .qalg import HERMITIAN_ATOL, DensityMatrix, Operator, PureState, max_abs

HStack = Callable[[np.ndarray], np.ndarray]  # s values (m,) -> Hamiltonians (m, d, d)

# Batched-eigh chunk size for long stepped evolutions.  A chunk's 8x8 complex
# stacks are 2 MiB each, below numpy's 4 MiB huge-page threshold, so a
# full-space run holds a few MiB at a time (the drive's sector blocks far
# less) and the peak memory of a threaded sweep hardly depends on how its
# workers' chunks overlap.
_CHUNK = 2**11
STEPS_PER_UNIT_JT = 256  # least midpoint steps of the drive per unit of dimensionless Jt


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled trajectory data.

    ``times`` are in units 1/J, ``charge`` in hbar*omega, ``ec`` in
    hbar*omega*J.  ``extra`` holds further channels (fidelities, populations)
    keyed by label; every channel has the length of ``times``.
    """

    times: np.ndarray
    charge: np.ndarray
    ec: np.ndarray
    extra: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "charge", np.asarray(self.charge, dtype=float))
        object.__setattr__(self, "ec", np.asarray(self.ec, dtype=float))
        if times.ndim != 1 or times.size < 1:
            raise ValueError("times must be a non-empty 1-d array")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        for name, channel in [("charge", self.charge), ("ec", self.ec)] + list(self.extra.items()):
            if np.asarray(channel).shape != times.shape:
                raise ValueError(f"channel {name!r} does not match the length of times")


def _spectral(h: Operator, x: np.ndarray, times) -> np.ndarray:
    """exp(-i H t) x for every t in ``times``, from one eigendecomposition of H.

    ``x`` is a state (d,) or a matrix (d, k); the result stacks one such array
    per time along a leading axis.  The phases act on x's eigenbasis
    coefficients rather than on a formed unitary, so t = 0 returns x to
    within the eigenbasis round trip.
    """
    if not h.hermitian:
        raise ValueError("exact propagation requires a hermitian-flagged Hamiltonian")
    if x.shape[0] != h.dim:
        raise ValueError(f"dimension mismatch: operator {h.dim}, state {x.shape[0]}")
    w, v = np.linalg.eigh(h.matrix)
    coeffs = v.conj().T @ x.reshape(h.dim, -1)
    phases = np.exp(-1j * np.outer(w, times))
    out = v @ (phases[:, :, None] * coeffs[:, None, :]).reshape(h.dim, -1)
    return out.reshape((h.dim, -1) + x.shape[1:]).swapaxes(0, 1)


def propagator(h: Operator, t: float) -> Operator:
    """exp(-i H t) computed through the eigendecomposition of H."""
    return Operator(h.n_qubits, _spectral(h, np.eye(h.dim), [t])[0], unitary=True)


def evolve_static(h: Operator, psi0: PureState, t: float) -> PureState:
    """exp(-i H t)|psi0> for constant H, exact to machine precision."""
    return PureState(psi0.n_qubits, _spectral(h, psi0.amplitudes, [t])[0])


def _tree_product(u: np.ndarray) -> np.ndarray:
    """Ordered products U[p-1] ... U[1] U[0] of (..., p, d, d) stacks.

    Neighbouring pairs are multiplied in one batched matmul per level, so a
    product of p factors takes ceil(log2 p) levels instead of p - 1 steps.
    """
    while u.shape[-3] > 1:
        even = u.shape[-3] // 2 * 2
        pairs = u[..., 1:even:2, :, :] @ u[..., 0:even:2, :, :]
        u = np.concatenate([pairs, u[..., even:, :, :]], axis=-3)
    return u[..., 0, :, :]


def _midpoint_states(h_stack: HStack, psi0: np.ndarray, tau: float, n_steps: int,
                     every: int) -> np.ndarray:
    """Run the midpoint stepper, returning the state every ``every`` steps.

    ``h_stack`` maps an array of s = t/tau values to the (m, d, d) stack of
    Hamiltonian matrices; ``every`` divides ``n_steps``.  Row 0 is ``psi0``.
    Hamiltonians are diagonalised in chunks of at most ``_CHUNK`` steps that
    end on recording boundaries; a chunk whose stack is not hermitian within
    1e-12 raises ValueError, as ``eigh`` would read only one triangle of it.
    Each chunk's step unitaries V diag(exp(-i w dt)) V^dagger are folded by
    ``_tree_product`` into one propagator per segment (or per ``_CHUNK``-step
    piece of a longer segment), which is applied to the state with a single
    matvec.
    """
    dt = tau / n_steps
    psi = np.asarray(psi0, dtype=complex)
    states = np.empty((n_steps // every + 1, psi.size), dtype=complex)
    states[0] = psi
    done = 0
    while done < n_steps:
        piece = min(every - done % every, _CHUNK)
        m = piece * max(1, min(_CHUNK // every, (n_steps - done) // every))
        h = h_stack((done + np.arange(m) + 0.5) / n_steps)
        if max_abs(h - h.conj().swapaxes(1, 2)) > HERMITIAN_ATOL:
            raise ValueError("time-dependent Hamiltonian stack is not hermitian")
        w, v = np.linalg.eigh(h)
        steps = (v * np.exp(-1j * dt * w)[:, None, :]) @ v.conj().swapaxes(1, 2)
        for segment in _tree_product(steps.reshape(m // piece, piece, psi.size, psi.size)):
            psi = segment @ psi
            done += piece
            if done % every == 0:
                states[done // every] = psi
    return states


def evolve_timedep(h_stack: HStack, psi0: PureState, tau: float, n_steps: int) -> PureState:
    """Propagate under a time-dependent Hamiltonian with ``n_steps`` midpoint steps.

    ``h_stack`` maps an array of s = t/tau values in [0, 1] to the (m, d, d)
    stack of Hamiltonian matrices at those s, as ``adiabatic._ht_stack`` does.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if tau == 0:
        return psi0
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    states = _midpoint_states(h_stack, psi0.amplitudes, tau, n_steps, n_steps)
    return PureState(psi0.n_qubits, states[-1])


def _observable_rows(states: np.ndarray, op: Operator) -> np.ndarray:
    """Real expectation of a hermitian op over a (n_samples, dim) state stack."""
    vals = np.einsum("ki,ij,kj->k", states.conj(), op.matrix, states)
    return vals.real


def sample_trajectory(h: Operator, psi0: PureState, t_final: float, n_samples: int,
                      hs: HamiltonianSet) -> TimeSeries:
    """Uniformly sampled charge and energy-current channels under a constant H.

    The current is the expectation of (1/i)[H0_hub, H], so ``ec`` is dC/dt
    in either frame.  The extra channel ``fidelity_initial`` records
    |<psi0|psi(t)>|^2.  Driven runs go through ``qbat.adiabatic``.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if not t_final > 0:
        raise ValueError(f"t_final must be > 0, got {t_final}")
    times = np.linspace(0.0, t_final, n_samples)
    states = _spectral(h, psi0.amplitudes, times)
    charge_channel = _observable_rows(states, hs.h0_hub) - hs.e_empty
    ec_channel = _observable_rows(states, ec_operator(hs.h0_hub, h))
    fidelity = np.abs(states @ psi0.amplitudes.conj()) ** 2
    return TimeSeries(times, charge_channel, ec_channel,
                      extra={"fidelity_initial": fidelity})


def collective_dephasing_fixpoint(rho: DensityMatrix, gamma: float, t: float) -> DensityMatrix:
    """Collective pure dephasing of a two-qubit battery state.

    The channel is the Lindblad evolution generated by the single collective
    jump operator L = sqrt(gamma) * (z_B1 + z_B2), integrated exactly in the
    collective-z eigenbasis: a coherence between collective-z eigenvalues
    m and m' decays as exp(-gamma * t * (m - m')**2 / 2).  States supported on
    the zero-eigenvalue subspace span{|01>, |10>} are left untouched.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if rho.n_qubits != 2:
        raise ValueError(f"expected a two-qubit battery state, got {rho.n_qubits} qubits")
    m = np.array([2.0, 0.0, 0.0, -2.0])  # collective z of |00>, |01>, |10>, |11>
    decay = np.exp(-gamma * t * np.subtract.outer(m, m) ** 2 / 2.0)
    return DensityMatrix(2, rho.entries * decay)
