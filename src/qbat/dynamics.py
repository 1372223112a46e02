"""Time evolution engines.

Constant Hamiltonians are propagated exactly through their eigendecomposition.
Time-dependent ones use exponential-midpoint stepping: each step applies the
exact exponential of the Hamiltonian sampled at the interval midpoint, so
every step is exactly unitary and the global error is second order in the
step size (exact for constant Hamiltonians).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .model import HamiltonianSet, ec_operator
from .qalg import DensityMatrix, Operator, PureState

HofS = Callable[[float], Operator]
HStack = Callable[[np.ndarray], np.ndarray]  # s values (m,) -> Hamiltonians (m, d, d)

# Batched-eigh chunk size for long stepped evolutions.  A chunk's 8x8 complex
# stacks are 2 MiB each, below numpy's 4 MiB huge-page threshold, so a
# drive holds a few MiB at a time and the peak memory of a threaded sweep
# hardly depends on how its workers' chunks overlap.
_CHUNK = 2**11
STEPS_PER_UNIT_JT = 256  # midpoint steps per unit of dimensionless Jt, by default


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

    @property
    def n_samples(self) -> int:
        return self.times.size


def _require_hermitian(h: Operator, context: str) -> None:
    if not h.hermitian:
        raise ValueError(f"{context} requires a hermitian-flagged Hamiltonian")


def _spectral(h: Operator, x: np.ndarray, times) -> np.ndarray:
    """exp(-i H t) x for every t in ``times``, from one eigendecomposition of H.

    ``x`` is a state (d,) or a matrix (d, k); the result stacks one such array
    per time along a leading axis.  The phases act on x's eigenbasis
    coefficients rather than on a formed unitary, so t = 0 returns x to
    within the eigenbasis round trip.
    """
    _require_hermitian(h, "exact propagation")
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


def _midpoint_states(h_stack: HStack, psi0: PureState, tau: float, n_steps: int,
                     every: int) -> np.ndarray:
    """Run the midpoint stepper, returning the state every ``every`` steps.

    ``h_stack`` maps an array of s = t/tau values to the (m, d, d) stack of
    Hamiltonian matrices; ``every`` divides ``n_steps``.  Row 0 is ``psi0``.
    """
    dt = tau / n_steps
    psi = psi0.amplitudes.copy()
    states = np.empty((n_steps // every + 1, psi.size), dtype=complex)
    states[0] = psi
    recorded = 1
    done = 0
    while done < n_steps:
        m = min(_CHUNK, n_steps - done)
        w, v = np.linalg.eigh(h_stack((done + np.arange(m) + 0.5) / n_steps))
        phases = np.exp(-1j * w * dt)
        for k in range(m):
            psi = v[k] @ (phases[k] * (v[k].conj().T @ psi))
            if (done + k + 1) % every == 0:
                states[recorded] = psi
                recorded += 1
        done += m
    return states


def _stack_of(h_of: HofS, dim: int) -> HStack:
    """Stack builder sampling a per-s callable, validating every sample."""
    def h_stack(s_values: np.ndarray) -> np.ndarray:
        stack = np.empty((s_values.size, dim, dim), dtype=complex)
        for k, s in enumerate(s_values):
            h = h_of(float(s))
            _require_hermitian(h, "evolve_timedep sample")
            stack[k] = h.matrix
        return stack
    return h_stack


def evolve_timedep(h_of: HofS, psi0: PureState, tau: float,
                   n_steps: int | None = None) -> PureState:
    """Propagate under a Hamiltonian given as a function of s = t/tau in [0, 1].

    By default ``tau`` is taken in the unit system in which the Hamiltonian
    entries are O(1) (Jt for couplings carrying J) and stepped at
    STEPS_PER_UNIT_JT steps per unit; callers with other scales pass
    ``n_steps`` explicitly.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if tau == 0:
        return psi0
    n = n_steps if n_steps is not None else math.ceil(STEPS_PER_UNIT_JT * tau)
    if n < 1:
        raise ValueError(f"n_steps must be >= 1, got {n}")
    states = _midpoint_states(_stack_of(h_of, psi0.dim), psi0, tau, n, n)
    return PureState(psi0.n_qubits, states[-1])


def to_interaction_picture(h0: Operator, obj, t: float):
    """Rotate a state or conjugate an operator into the frame co-moving with h0.

    States map as exp(+i h0 t)|psi>, operators as exp(+i h0 t) A exp(-i h0 t).
    Calling again with ``-t`` undoes the transform.
    """
    if isinstance(obj, PureState):
        return PureState(obj.n_qubits, _spectral(h0, obj.amplitudes, [-t])[0])
    zdag = _spectral(h0, np.eye(h0.dim), [-t])[0]
    if isinstance(obj, DensityMatrix):
        return DensityMatrix(obj.n_qubits, zdag @ obj.entries @ zdag.conj().T)
    if isinstance(obj, Operator):
        return Operator(obj.n_qubits, zdag @ obj.matrix @ zdag.conj().T,
                        hermitian=obj.hermitian, unitary=obj.unitary)
    raise TypeError(f"cannot transform object of type {type(obj).__name__}")


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
