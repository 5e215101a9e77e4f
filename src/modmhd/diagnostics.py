"""Scalar diagnostics recorded along a run; one record serves both formulations."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import electromagnetics as em
from . import operators as ops
from .params import PhysParams
from .projection import _gradient_part_norm
from .state import SimState

FOUR_PI = em.FOUR_PI

@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of run diagnostics.

    Both formulations evolve A, so every row reports div A and ohm_resid.
    ohm_resid is the L2 gap between the gauge-consistent electric field
    -(1/c) P[v x H] (P = solenoidal projection of the induction RHS) and
    the ideal-Ohm field -(1/c) v x H, i.e. (1/c)||grad phi||_2 of the
    projection potential, summed from the projection's Fourier form
    without forming phi.  It measures the tension between the phi = 0,
    div A = 0 gauge pair: the rate at which dA/dt = v x H grows A's
    gradient part, which ``run`` projects away in modified runs only.
    entropy is the raw integral of rho*ln(P rho^-gamma); run() shifts
    it so the record of its initial state reads zero, whatever that
    state's t (only drift is meaningful).  The field order is the column
    order of diagnostics.csv.
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


#: Column order of diagnostics.csv, fixed for downstream tooling.
CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


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
    momx, momy, momz = (ops.integrate(state.rho * vc, g) for vc in state.v)
    e_kin = 0.5 * ops.integrate(state.rho * ops.dot(state.v, state.v), g)
    e_mag = ops.integrate(ops.dot(h_tot, h_tot), g) / (2.0 * FOUR_PI)
    e_int = ops.integrate(state.p, g) / (params.gamma - 1.0)
    entropy = ops.integrate(
        state.rho * (np.log(state.p) - params.gamma * np.log(state.rho)), g
    )
    diva = ops.div(state.mag, g, order)
    diva_l2 = ops.l2_norm(diva, g)
    if gauge_drift is None:
        gauge_drift = diva_l2

    return DiagnosticsRecord(
        t=state.t, dt=dt, mass=mass, momx=momx, momy=momy, momz=momz,
        e_kin=e_kin, e_mag=e_mag, e_int=e_int, e_tot=e_kin + e_mag + e_int,
        divA_l2=diva_l2, divA_max=ops.max_norm(diva),
        divH_l2=ops.l2_norm(ops.div(h_tot, g, order), g),
        ohm_resid=_gradient_part_norm(ops.cross(state.v, h_tot), g, order),
        gauge_drift=gauge_drift, entropy=entropy,
    )
