"""Scalar diagnostics recorded along a run."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import electromagnetics as em
from . import operators as ops
from .grid import GridSpec
from .params import Formulation, PhysParams
from .projection import helmholtz_project
from .state import SimState

FOUR_PI = em.FOUR_PI

#: Column order of diagnostics.csv, fixed for downstream tooling.
CSV_COLUMNS = (
    "t", "dt", "mass", "momx", "momy", "momz",
    "e_kin", "e_mag", "e_int", "e_tot",
    "divA_l2", "divA_max", "divH_l2",
    "ohm_resid", "gauge_drift", "entropy",
)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of run diagnostics.

    ohm_resid is the L2 gap between the gauge-consistent electric field
    -(1/c) P[v x H] (P = solenoidal projection of the induction RHS) and
    the ideal-Ohm field -(1/c) v x H, i.e. (1/c)||grad phi||_2 of the
    projection potential.  It measures the tension between the phi = 0,
    div A = 0 gauge pair for the modified system; traditional runs report
    0.  entropy is the raw integral of rho*ln(P rho^-gamma); run() shifts
    it so the t = 0 record is zero (only drift is meaningful).
    """

    t: float
    dt: float
    mass: float
    momx: float
    momy: float
    momz: float
    e_kin: float
    e_mag: float
    e_int: float
    e_tot: float
    divA_l2: float
    divA_max: float
    divH_l2: float
    ohm_resid: float
    gauge_drift: float
    entropy: float

    def as_row(self) -> tuple[float, ...]:
        return tuple(getattr(self, c) for c in CSV_COLUMNS)


def diagnostics(
    state: SimState,
    params: PhysParams,
    dt: float = 0.0,
    gauge_drift: float | None = None,
) -> DiagnosticsRecord:
    """Compute the full diagnostics record for a state.

    ``dt`` and ``gauge_drift`` are context from the time stepper (the last
    step size and the pre-projection ||div A||_2); when absent the drift
    defaults to the current ||div A||_2.
    """
    g = state.grid
    order = params.stencil_order
    h_tot = state.h_total(order)

    mass = ops.integrate(state.rho, g)
    momx = ops.integrate(state.rho * state.v[0], g)
    momy = ops.integrate(state.rho * state.v[1], g)
    momz = ops.integrate(state.rho * state.v[2], g)
    e_kin = 0.5 * ops.integrate(state.rho * ops.dot(state.v, state.v), g)
    e_mag = ops.integrate(ops.dot(h_tot, h_tot), g) / (2.0 * FOUR_PI)
    e_int = ops.integrate(state.p, g) / (params.gamma - 1.0)
    entropy = ops.integrate(
        state.rho * (np.log(state.p) - params.gamma * np.log(state.rho)), g
    )

    divh = ops.div(h_tot, g, order)
    divh_l2 = ops.l2_norm(divh, g)

    if state.formulation is Formulation.MODIFIED:
        diva = ops.div(state.a, g, order)
        diva_l2 = ops.l2_norm(diva, g)
        diva_max = ops.max_norm(diva)
        w = ops.cross(state.v, h_tot)
        w_proj, _ = helmholtz_project(w, g, order)
        ohm = ops.l2_norm(w - w_proj, g) / params.c
    else:
        diva_l2 = 0.0
        diva_max = 0.0
        ohm = 0.0

    if gauge_drift is None:
        gauge_drift = diva_l2

    return DiagnosticsRecord(
        t=state.t,
        dt=dt,
        mass=mass,
        momx=momx,
        momy=momy,
        momz=momz,
        e_kin=e_kin,
        e_mag=e_mag,
        e_int=e_int,
        e_tot=e_kin + e_mag + e_int,
        divA_l2=diva_l2,
        divA_max=diva_max,
        divH_l2=divh_l2,
        ohm_resid=ohm,
        gauge_drift=gauge_drift,
        entropy=entropy,
    )
