"""Flexible-coupler array multiuser MIMO simulation library.

Each antenna couples one fixed active dipole to N movable passive dipoles;
repositioning the passive elements reshapes the mutual-impedance-induced
currents (mechanical beamforming).  The package models that electromagnetic
chain, optimizes coupler positions for the MMSE sum rate with a distributed
SCA loop, and estimates the position-dependent effective channels from
structured pilots, centrally (OMP) or distributively (proxy fusion plus
sufficient statistics).
"""

from .geometry import (
    ArrayLayout,
    CouplerPlacement,
    is_feasible,
    linearize_spacing,
    load_placement,
    project_onto_set,
    random_feasible_placement,
    save_placement,
    uniform_placement,
)
from .impedance import (
    DipoleModel,
    ImpedanceBlock,
    build_block,
    mutual_impedance,
    sine_cosine_integrals,
)
from .channel import (
    MultipathSpec,
    sample_channels,
    steering_active,
    steering_coupler_block,
)
from .precoding import (
    PrecodingState,
    active_only_state,
    antenna_chain,
    effective_channel,
    fc_state,
    fully_active_state,
    mech_weights,
    mmse_precoder,
    transmit_power,
)
from .optimizer import (
    OptimizeResult,
    SCAConfig,
    SCATrace,
    communication_count,
    gradient,
    optimize,
    screened_initial_placement,
)
from .chanest import (
    AngularGrid,
    EstimationResult,
    PilotSession,
    build_dictionary,
    centralized_estimate,
    distributed_estimate,
    exhaustive_baseline,
    fuse_and_select,
    local_proxy,
    make_pilots,
    make_session,
    nmse,
    omp,
    pilot_correlate,
    run_pilot_phase,
    simulate_rx,
)
from .runtime import CostLedger, Message, run_algorithm1, run_algorithm3
from .scenario import PACKAGE_VERSION as __version__, Scenario
