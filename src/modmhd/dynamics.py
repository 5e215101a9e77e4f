"""Time integration of the two formulations.

Modified system (state carries A, background M):

    dA/dt   = v x H,                H = curl A + H0
    dv/dt   = -(v.grad)v - grad(P)/rho + f/rho,
              f = -(1/c) (j.grad)(A + A0),   j = (c/4pi) curl curl A
    drho/dt = -div(rho v)
    dP/dt   = -v.grad(P) - gamma P div(v)

Traditional system (state carries H, uniform background h0):

    dH/dt   = curl(v x H_total)
    dv/dt   = -(v.grad)v - grad(P)/rho + (curl H x H_total)/(4pi rho)

with the same continuity and adiabatic pressure equations.  Both are
marched with classical RK4 (method of lines); the solenoidal gauge of A
is re-imposed after completed steps according to the gauge policy, never
inside RK stages, and the pre-projection drift is recorded.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import replace

import numpy as np

from . import electromagnetics as em
from . import operators as ops
from .diagnostics import DiagnosticsRecord, diagnostics
from .params import Formulation, PhysParams
from .projection import helmholtz_project
from .state import SimState, StateInvalidError, validate_state

FOUR_PI = em.FOUR_PI

#: Time derivative of the evolved fields; mag is dA/dt or dH/dt.
Rhs = namedtuple("Rhs", ["mag", "v", "rho", "p"])


class SimulationError(RuntimeError):
    """A run aborted; carries the diagnostics collected before the failure."""

    def __init__(self, message: str, records: list[DiagnosticsRecord]):
        super().__init__(message)
        self.records = records


def rhs_modified(state: SimState, params: PhysParams) -> Rhs:
    """Semidiscrete right-hand side of the modified (potential) system."""
    validate_state(state)
    g = state.grid
    o = params.stencil_order
    h_tot = em.h_from_a(state.a, state.bg, g, o)
    da = ops.cross(state.v, h_tot)
    j = em.current_from_a(state.a, g, o, params.c)
    force = em.force_modified(j, state.a, state.bg, g, o, params.c)
    gradp = ops.grad(state.p, g, o)
    dv = -ops.advect(state.v, state.v, g, o)
    dv -= gradp / state.rho
    dv += force / state.rho
    drho = -ops.div(state.rho * state.v, g, o)
    dp = -ops.dot(state.v, gradp) - params.gamma * state.p * ops.div(state.v, g, o)
    return Rhs(da, dv, drho, dp)


def rhs_traditional(state: SimState, params: PhysParams) -> Rhs:
    """Semidiscrete right-hand side of traditional ideal MHD."""
    validate_state(state)
    g = state.grid
    o = params.stencil_order
    h_tot = state.h + state.h0[:, None, None, None]
    dh = ops.curl(ops.cross(state.v, h_tot), g, o)
    force = ops.cross(ops.curl(state.h, g, o), h_tot) / FOUR_PI
    gradp = ops.grad(state.p, g, o)
    dv = -ops.advect(state.v, state.v, g, o)
    dv -= gradp / state.rho
    dv += force / state.rho
    drho = -ops.div(state.rho * state.v, g, o)
    dp = -ops.dot(state.v, gradp) - params.gamma * state.p * ops.div(state.v, g, o)
    return Rhs(dh, dv, drho, dp)


def compute_rhs(state: SimState, params: PhysParams) -> Rhs:
    if state.formulation is Formulation.MODIFIED:
        return rhs_modified(state, params)
    return rhs_traditional(state, params)


def cfl_dt(state: SimState, params: PhysParams) -> float:
    """dt = courant * h_min / max(|v| + v_alfven + c_sound) over the grid."""
    h_tot = state.h_total(params.stencil_order)
    speed = np.sqrt(ops.dot(state.v, state.v))
    speed += np.sqrt(ops.dot(h_tot, h_tot) / (FOUR_PI * state.rho))
    speed += np.sqrt(params.gamma * state.p / state.rho)
    return params.courant * state.grid.min_spacing / float(speed.max())


def enforce_gauge(state: SimState, params: PhysParams) -> tuple[SimState, float]:
    """Project A back onto div A = 0; returns (state, pre-projection drift).

    curl A (hence H and the physics) is unchanged to roundoff; only the
    gradient part of A moves.
    """
    if state.formulation is not Formulation.MODIFIED:
        raise ValueError("gauge enforcement applies to the modified formulation only")
    g = state.grid
    drift = ops.l2_norm(ops.div(state.a, g, params.stencil_order), g)
    a_proj, _ = helmholtz_project(state.a, g, params.stencil_order)
    return replace(state, a=a_proj), drift


def step_rk4(
    state: SimState,
    dt: float,
    params: PhysParams,
    source=None,
    step_index: int = 0,
) -> tuple[SimState, float | None]:
    """One classical RK4 step; returns (new state, gauge drift or None).

    ``source(grid, t)`` may supply externally prescribed derivatives (a
    4-tuple matching Rhs) added to the RHS at each stage time -- used by
    the manufactured-solution scenario.  Gauge projection, when the policy
    says it is due after this completed step, is applied to the full
    update; the returned drift is ||div A||_2 measured just before it.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")

    def deriv(s: SimState, t_stage: float) -> Rhs:
        d = compute_rhs(s, params)
        if source is not None:
            sa, sv, srho, sp = source(s.grid, t_stage)
            d = Rhs(d.mag + sa, d.v + sv, d.rho + srho, d.p + sp)
        return d

    def shift(s: SimState, c: float, k: Rhs) -> SimState:
        return s.with_fields(
            s.mag + c * k.mag, s.v + c * k.v, s.rho + c * k.rho, s.p + c * k.p, s.t
        )

    t0 = state.t
    k1 = deriv(state, t0)
    k2 = deriv(shift(state, 0.5 * dt, k1), t0 + 0.5 * dt)
    k3 = deriv(shift(state, 0.5 * dt, k2), t0 + 0.5 * dt)
    k4 = deriv(shift(state, dt, k3), t0 + dt)

    w = dt / 6.0
    new = state.with_fields(
        state.mag + w * (k1.mag + 2.0 * k2.mag + 2.0 * k3.mag + k4.mag),
        state.v + w * (k1.v + 2.0 * k2.v + 2.0 * k3.v + k4.v),
        state.rho + w * (k1.rho + 2.0 * k2.rho + 2.0 * k3.rho + k4.rho),
        state.p + w * (k1.p + 2.0 * k2.p + 2.0 * k3.p + k4.p),
        t0 + dt,
    )

    drift = None
    if new.formulation is Formulation.MODIFIED and params.gauge.due(step_index + 1):
        new, drift = enforce_gauge(new, params)
    return new, drift


def run(
    initial: SimState,
    params: PhysParams,
    t_end: float,
    out_every: int = 1,
    source=None,
    on_record=None,
    on_step=None,
) -> tuple[SimState, list[DiagnosticsRecord]]:
    """March from initial.t to t_end with CFL-limited RK4 steps.

    The step size is recomputed every step; the final step is clipped to
    land on t_end exactly.  A diagnostics record is emitted at the start,
    after every ``out_every``-th step, and at t_end.  Entropy is reported
    as drift from the initial record, also to ``on_record``.  If the state
    goes invalid, a SimulationError carrying all records collected so far
    is raised (nothing is silently dropped).  A grid too small for the
    stencil order raises ValueError before anything runs.
    """
    if t_end < initial.t:
        raise ValueError("t_end must not precede the initial time")
    if out_every < 1:
        raise ValueError("out_every must be >= 1")
    initial.grid.require_order(params.stencil_order)

    state = initial
    records: list[DiagnosticsRecord] = []
    entropy0 = None

    def record(dt: float, drift: float | None):
        nonlocal entropy0
        rec = diagnostics(state, params, dt=dt, gauge_drift=drift)
        if entropy0 is None:
            entropy0 = rec.entropy
        rec = replace(rec, entropy=rec.entropy - entropy0)
        records.append(rec)
        if on_record is not None:
            on_record(state, rec)

    try:
        validate_state(state)
        record(cfl_dt(state, params), None)
        if on_step is not None:
            on_step(state, 0)
        step = 0
        while state.t < t_end:
            dt = cfl_dt(state, params)
            remaining = t_end - state.t
            final = remaining <= 1.01 * dt
            if final:
                dt = remaining
            state, drift = step_rk4(state, dt, params, source=source, step_index=step)
            step += 1
            if final:
                state = replace(state, t=t_end)
            if on_step is not None:
                on_step(state, step)
            if final or step % out_every == 0:
                record(dt, drift)
    except StateInvalidError as exc:
        raise SimulationError(f"run aborted at t={state.t:.6g}: {exc}", records) from exc
    return state, records
