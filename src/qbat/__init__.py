"""qbat: energy-current simulations of Bell-pair quantum batteries.

A battery cell is a pair of qubits whose singlet state keeps its energy
locked even while XY-coupled to a consumption hub; local Pauli gates release
half or all of it, and a parity-protected adiabatic drive empties the cell
with no energy backflow.  The package builds the operators, integrates the
dynamics, and ships its guarantees as a runnable acceptance suite
(``qbat selftest``).  It computes at hbar = omega = J = 1 (see ``qbat.model``).
"""

from .adiabatic import (
    AdiabaticDecomposition,
    AdiabaticSpec,
    DischargeReport,
    ParityCheckReport,
    Schedule,
    SweepPoint,
    adiabatic_decomposition,
    adiabatic_rate_prediction,
    min_sector_gap,
    parity_check,
    parity_operator,
    run_discharge,
    sweep_tau,
)
from .dynamics import (
    TimeSeries,
    collective_dephasing_fixpoint,
    evolve_static,
    evolve_timedep,
    sample_trajectory,
)
from .model import (
    E0,
    HamiltonianSet,
    charge,
    ec_operator,
    ergotropy,
    hamiltonian_set,
    qubit_energy_term,
)
from .protocols import (
    DISCHARGE_TIME,
    SINGLE_PARTICLE_TRANSFER_TIME,
    BellLabel,
    CellAction,
    NCellPlan,
    SwitchGate,
    TrapReport,
    UniquenessScanReport,
    bell_charge_closed_form,
    bell_state,
    bell_with_empty_hub,
    ncell_plan_energy,
    separable_sweep,
    single_particle_baseline,
    single_particle_trajectory,
    switch_gate,
    transfer_fraction,
    trapping_check,
    trapping_uniqueness_scan,
)
from .qalg import (
    DensityMatrix,
    Operator,
    PureState,
    embed,
    expectation,
    ket,
    pauli,
    tensor,
    trace_distance,
)

__version__ = "0.1.0"
