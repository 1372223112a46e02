"""Time evolution engines.

Constant Hamiltonians are propagated exactly through their eigendecomposition.
Time-dependent ones use the fourth-order commutator-free Magnus stepper
(Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006); Alvermann & Fehske,
J. Comput. Phys. 230, 5930 (2011), "CFET 4:2"): each step of size dt
samples the Hamiltonian at its two Gauss-Legendre nodes, H1 and H2, and
applies exp(-i dt (alpha H1 + beta H2)) and then exp(-i dt (beta H1 + alpha
H2)), with alpha = 1/4 + sqrt(3)/6 and beta = 1/4 - sqrt(3)/6.  Both
exponents are hermitian (real symmetric for the drive), so every step is
exactly unitary; the global error is fourth order in the step size, and the
rule is exact for constant Hamiltonians.  Each segment's factors (closed-form
for the drive's real 3x3 blocks) are batched and multiplied pairwise into one
propagator, so a state is touched once per recording segment, not per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .model import HamiltonianSet, _observable_rows, charge, ec_operator
from .qalg import HERMITIAN_ATOL, DensityMatrix, Operator, PureState, max_abs

HStack = Callable[[np.ndarray], np.ndarray]  # s values (m,) -> Hamiltonians (m, d, d)

# Steps per batch of factors of a long stepped evolution.  A chunk's two
# exponentials per step make 8x8 complex stacks of 2 MiB each, below numpy's
# 4 MiB huge-page threshold, so a full-space run holds a few MiB at a time (the
# drive's sector blocks far less) and the peak memory of a threaded sweep
# hardly depends on how its workers' chunks overlap.
_CHUNK = 2**10
STEPS_PER_UNIT_JT = 8  # least steps of the drive per unit of dimensionless Jt
_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0  # Gauss-Legendre, in units of a step
_ALPHA, _BETA = 0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0
# Longest run in units of 1/J, whose largest phase 2*sqrt(2)*Jt keeps an ulp below 1e-6 rad.
MAX_JT = 1e9
_MIN_SPACING = np.finfo(float).tiny  # least sample spacing, the smallest normal float


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
    if x.shape[0] != h.dim:
        raise ValueError(f"dimension mismatch: operator {h.dim}, state {x.shape[0]}")
    w, v = np.linalg.eigh(h.matrix)
    coeffs = v.conj().T @ x.reshape(h.dim, -1)
    phases = np.exp(-1j * np.outer(w, times))
    out = v @ (phases[:, :, None] * coeffs[:, None, :]).reshape(h.dim, -1)
    return out.reshape((h.dim, -1) + x.shape[1:]).swapaxes(0, 1)


def _check_sampling(name: str, duration: float, n_samples: int) -> None:
    """Reject, before any propagation, fewer than 2 samples, a duration outside
    (0, MAX_JT] (in 1/J) or a sample spacing below the smallest normal float."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if not 0 < duration <= MAX_JT:
        raise ValueError(f"{name} must be finite, > 0 and at most MAX_JT = {MAX_JT:g}, "
                         f"got {duration}")
    if duration / (n_samples - 1) < _MIN_SPACING:
        raise ValueError(f"{name}: a run of Jt = {duration:g} spaces its {n_samples} "
                         "samples below the smallest normal float")


def evolve_static(h: Operator, psi0: PureState, t: float) -> PureState:
    """exp(-i H t)|psi0> for constant H, exact to machine precision."""
    if not abs(t) <= MAX_JT:
        raise ValueError(f"t must be finite, with |t| at most MAX_JT = {MAX_JT:g}, got {t}")
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


def _expm_sym3(a: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt A) for a (..., 3, 3) stack of real symmetric A, in closed form:
    f[l1] + f[l1,l2](A - l1) + f[l1,l2,l3](A - l1)(A - l2) in divided differences
    of exp(-i dt x) at the roots l1 <= l2 <= l3 of the characteristic cubic
    (Kopp, Int. J. Mod. Phys. C 19, 523 (2008)), the first ones in a sinc form
    exact for meeting levels (McCurdy, Ng & Parlett, Math. Comp. 43, 501 (1984)).
    Error and unitarity defect grow with dt |A|_2: <= 2.1e-14 at 10, 9.5e-13 at 100.
    """
    s = math.ldexp(0.5, math.frexp(np.abs(a).max())[1])  # a power of two: the entries
    a, dt, eye = a / s, dt * s, np.eye(3)  # scale exactly to |a| < 2, and no square overflows
    q = np.trace(a, axis1=-2, axis2=-1)[..., None, None] / 3.0
    b = a - q * eye
    p = np.sqrt(np.sum(b * b, axis=(-2, -1), keepdims=True) / 6.0)
    b = np.moveaxis(np.divide(b, p, out=b, where=p > 0), (-2, -1), (0, 1))  # (A - q) / p by rows
    det = (b[0, 0] * b[1, 1] * b[2, 2] + 2.0 * b[0, 1] * b[0, 2] * b[1, 2]
           - b[0, 0] * b[1, 2]**2 - b[1, 1] * b[0, 2]**2 - b[2, 2] * b[0, 1]**2)
    phi = np.arccos(np.clip(det / 2.0, -1.0, 1.0))[..., None, None] / 3.0
    l1, l2, l3 = (q + 2.0 * p * np.cos(phi + k * 2.0 * np.pi / 3.0) for k in (1, 2, 0))
    f1 = np.exp(-1j * dt * l1)
    f12, f23 = (-1j * dt * np.exp(-0.5j * dt * (x + y)) * np.sinc(dt * (y - x) / (2.0 * np.pi))
                for x, y in ((l1, l2), (l2, l3)))
    f123 = np.divide(f23 - f12, l3 - l1, out=-0.5 * dt**2 * f1, where=l3 > l1)
    b = a - l1 * eye
    u = f123 * (b @ (a - l2 * eye))  # summed in place: a drive's peak memory stays level
    u += f12 * b
    return np.add(u, f1 * eye, out=u)


def _stepped_states(h_stack: HStack, psi0: np.ndarray, tau: float, n_steps: int,
                    every: int) -> np.ndarray:
    """Run the stepper, returning the state every ``every`` steps.

    ``h_stack`` maps an array of s = t/tau values to the (m, d, d) stack of
    Hamiltonian matrices; ``every`` divides ``n_steps``.  Row 0 is ``psi0``.
    Steps are taken in chunks of at most ``_CHUNK`` that end on recording
    boundaries; a chunk whose sampled stack does not match the state's
    dimension, or is not hermitian within 1e-12 (both kernels assume it),
    raises ValueError.  A chunk's two factors exp(-i dt A) per step come from
    ``_expm_sym3`` for real 3x3 exponents, and otherwise as V diag(exp(-i w
    dt)) V^dagger from one batched eigh; ``_tree_product`` folds them into
    one propagator per segment (or per ``_CHUNK``-step piece of a longer
    segment), applied with a single matvec.
    """
    dt = tau / n_steps
    psi = np.asarray(psi0, dtype=complex)
    d = psi.size
    states = np.empty((n_steps // every + 1, d), dtype=complex)
    states[0] = psi
    done = 0
    while done < n_steps:
        piece = min(every - done % every, _CHUNK)
        m = piece * max(1, min(_CHUNK // every, (n_steps - done) // every))
        h = h_stack(((done + np.arange(m))[:, None] + _NODES).ravel() / n_steps)
        if h.shape[-1] != d:
            raise ValueError(f"dimension mismatch: Hamiltonian {h.shape[-1]}, state {d}")
        if max_abs(h - h.conj().swapaxes(1, 2)) > HERMITIAN_ATOL:
            raise ValueError("time-dependent Hamiltonian stack is not hermitian")
        h1, h2 = h[0::2], h[1::2]
        exponents = np.stack([_ALPHA * h1 + _BETA * h2, _BETA * h1 + _ALPHA * h2], axis=1)
        if d == 3 and exponents.dtype.kind == "f":
            factors = _expm_sym3(exponents, dt)
        else:
            w, v = np.linalg.eigh(exponents)
            factors = (v * np.exp(-1j * dt * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        for segment in _tree_product(factors.reshape(m // piece, 2 * piece, d, d)):
            psi = segment @ psi
            done += piece
            if done % every == 0:
                states[done // every] = psi
    return states


def evolve_timedep(h_stack: HStack, psi0: PureState, tau: float, n_steps: int) -> PureState:
    """Propagate under a time-dependent Hamiltonian with ``n_steps`` steps.

    ``h_stack`` maps an array of s = t/tau values in [0, 1] to the (m, d, d)
    stack of Hamiltonian matrices at those s, as ``adiabatic._ht_stack`` does.
    """
    if not 0 <= tau <= MAX_JT:
        raise ValueError(f"tau must be finite, >= 0 and at most MAX_JT = {MAX_JT:g}, got {tau}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    states = _stepped_states(h_stack, psi0.amplitudes, tau, n_steps, n_steps)
    return PureState(psi0.n_qubits, states[-1])


def sample_trajectory(h: Operator, psi0: PureState, t_final: float, n_samples: int,
                      hs: HamiltonianSet) -> TimeSeries:
    """Uniformly sampled charge and energy-current channels under a constant H.

    The current is the expectation of (1/i)[H0_hub, H], so ``ec`` is dC/dt
    in either frame.  The extra channel ``fidelity_initial`` records
    |<psi0|psi(t)>|^2.  Driven runs go through ``qbat.adiabatic``.
    """
    _check_sampling("t_final", t_final, n_samples)
    times = np.linspace(0.0, t_final, n_samples)
    states = _spectral(h, psi0.amplitudes, times)
    charge_channel = charge(states, hs)
    p_hat = hs.current if h is hs.h_charging else ec_operator(hs.h0_hub, h)
    ec_channel = _observable_rows(states, p_hat.matrix)
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
    if not 0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if rho.n_qubits != 2:
        raise ValueError(f"expected a two-qubit battery state, got {rho.n_qubits} qubits")
    m = np.array([2.0, 0.0, 0.0, -2.0])  # collective z of |00>, |01>, |10>, |11>
    # Past gamma t = 373 even the slowest decay, exp(-2 gamma t), is exactly 0, so capping
    # gamma t at 1e3 changes no result and returns the full-dephasing limit without overflow.
    decay = np.exp(-min(gamma * t, 1e3) * np.subtract.outer(m, m) ** 2 / 2.0)
    return DensityMatrix(2, rho.entries * decay)
