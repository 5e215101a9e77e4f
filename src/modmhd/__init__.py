"""Numerical laboratory for vector-potential ("modified") MHD.

The modified system evolves the vector potential directly,
dA/dt = v x curl A in the gauge phi = 0, div A = 0, and drives the
fluid with the advective current force -(1/c)(j . grad)A instead of the
Lorentz force.  The traditional ideal-MHD system lives alongside it on
the same grid, operators, and time stepper, so the two force laws and
induction laws can be compared like for like: linear waves, dispersion
relations, conservation behavior, and the tension between the two gauge
conditions are all measurable rather than assumed.

Layout: `grid`/`operators`/`projection` hold the periodic finite
difference toolbox, `electromagnetics` the A-based constitutive chain,
`state`/`dynamics` the two systems and the RK4 driver, `scenarios` the
initial conditions, `analysis`/`dispersion` the identity, convergence,
and eigenvalue instruments, and `config`/`snapshot`/`cli` the batch
front end.
"""

from .analysis import (
    ConvergenceResult,
    IdentityReport,
    IdentityResult,
    convergence_study,
    fit_order,
    format_identity_report,
    identity_suite,
    state_error,
)
from .config import ConfigError, RunConfig, parse_config, serialize_config
from .diagnostics import CSV_COLUMNS, DiagnosticsRecord, diagnostics
from .dispersion import (
    DispersionResult,
    UniformBackground,
    dispersion,
    modified_wavenumber,
    oracle_matrix,
    oracle_omegas,
    wavevector_from_modes,
)
from .dynamics import (
    Rhs,
    SimulationError,
    cfl_dt,
    compute_rhs,
    enforce_gauge,
    rhs_modified,
    rhs_traditional,
    run,
    step_rk4,
)
from .electromagnetics import (
    BackgroundPotential,
    TwoFluidState,
    current_from_a,
    e_from_a_dot,
    e_ideal_ohm,
    force_lorentz,
    force_modified,
    force_modified_from_a,
    force_two_fluid,
    gauge_shift_sensitivity,
    h_from_a,
)
from .grid import GridSpec
from .params import Formulation, GaugePolicy, PhysParams
from .projection import helmholtz_project, poisson_solve
from .scenarios import (
    SCENARIO_DEFAULTS,
    CaseSetup,
    alfven_wave,
    build_scenario,
    manufactured,
    orszag_tang_like,
    random_solenoidal,
    sound_wave,
    uniform_rest,
)
from .snapshot import SnapshotError, read_snapshot, write_snapshot
from .state import SimState, StateInvalidError, validate_state

__version__ = "0.1.0"

__all__ = [
    "BackgroundPotential",
    "CSV_COLUMNS",
    "CaseSetup",
    "ConfigError",
    "ConvergenceResult",
    "DiagnosticsRecord",
    "DispersionResult",
    "Formulation",
    "GaugePolicy",
    "GridSpec",
    "IdentityReport",
    "IdentityResult",
    "PhysParams",
    "Rhs",
    "RunConfig",
    "SCENARIO_DEFAULTS",
    "SimState",
    "SimulationError",
    "SnapshotError",
    "StateInvalidError",
    "TwoFluidState",
    "UniformBackground",
    "alfven_wave",
    "build_scenario",
    "cfl_dt",
    "compute_rhs",
    "convergence_study",
    "current_from_a",
    "diagnostics",
    "dispersion",
    "e_from_a_dot",
    "e_ideal_ohm",
    "enforce_gauge",
    "fit_order",
    "force_lorentz",
    "force_modified",
    "force_modified_from_a",
    "force_two_fluid",
    "format_identity_report",
    "gauge_shift_sensitivity",
    "h_from_a",
    "helmholtz_project",
    "identity_suite",
    "manufactured",
    "modified_wavenumber",
    "oracle_matrix",
    "oracle_omegas",
    "orszag_tang_like",
    "parse_config",
    "poisson_solve",
    "random_solenoidal",
    "read_snapshot",
    "rhs_modified",
    "rhs_traditional",
    "run",
    "serialize_config",
    "sound_wave",
    "state_error",
    "step_rk4",
    "uniform_rest",
    "validate_state",
    "wavevector_from_modes",
    "write_snapshot",
]
