"""Time integration of the two formulations.

Modified system (state carries A, background M):

    dA/dt   = v x H,                H = curl A + H0
    dv/dt   = -(v.grad)v - grad(P)/rho + f/rho,
              f = -(1/c) (j.grad)(A + A0),   j = (c/4pi) curl curl A
    drho/dt = -div(rho v)
    dP/dt   = -v.grad(P) - gamma P div(v)

Traditional system (state carries H; of the background it reads only H0):

    dH/dt   = curl(v x H_total)
    dv/dt   = -(v.grad)v - grad(P)/rho + (curl H x H_total)/(4pi rho)

with the same continuity and adiabatic pressure equations.  One
``compute_rhs`` serves both: only the induction and force laws branch on
the formulation, and the fluid lines are written once.  Each field is
differentiated once per RHS (30 stencil derivatives modified, 27
traditional): one Jacobian of A gives curl A and (j.grad)A through the
curl and contraction code of ``operators``, and div v is summed from the
diagonal that (v.grad)v already takes.  Both are
marched with classical RK4 (method of lines).  div A = 0 is not one of
the evolved equations: ``run`` re-imposes it by projection after the
completed steps its gauge policy names, never inside RK stages, and
records the pre-projection drift.  ``step_rk4`` never projects, so a
hand-written loop calls ``enforce_gauge`` itself.  The split is first
order in time (see ``tests/test_dynamics.py``).

The induction/force half and the fluid half of the RHS are independent
until the force joins dv/dt.  On grids of more than 32^3 points, when the
process may use more than one CPU, ``compute_rhs`` runs the first half on
a helper thread beside the second (numpy releases the GIL inside its
array loops); otherwise it runs both in turn on the calling thread.  Both
paths perform the same operations on the same arrays, so the results are
bitwise the serial ones.  The thread is started and joined inside each
call.  ``OPENBLAS_NUM_THREADS`` does not govern it; the CPU affinity does,
so running under ``taskset -c 0`` keeps every RHS on one thread.  Do so
when the host steals CPU: on a 2-vCPU VM under host steal, two threads took
483-1009 ms/step on ``traditional_64`` against 393-640 on one, as each
hand-off halts a vCPU that a loaded host is slow to wake.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
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

#: Time derivative of the evolved fields, in ``SimState.fields`` order;
#: mag is dA/dt or dH/dt.
Rhs = namedtuple("Rhs", ["mag", "v", "rho", "p"])


class SimulationError(RuntimeError):
    """A run aborted; carries the diagnostics collected before the failure."""

    def __init__(self, message: str, records: list[DiagnosticsRecord]):
        super().__init__(message)
        self.records = records


#: Grids with more points than this overlap the two halves of the RHS on
#: two threads; on smaller ones the thread hand-offs cost more than they save.
_OVERLAP_MIN_POINTS = 32 ** 3


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _keep_freed_heap() -> None:
    """Stop glibc from handing freed field arrays back to the kernel.

    Every RK4 stage allocates and frees the same few-megabyte arrays.
    glibc's dynamic thresholds follow the largest block freed so far; on
    a 32^3 run they settle near 2 MiB (mmap) and 4 MiB (trim), so the heap
    top is handed back as a stage's temporaries are freed and the next
    stage faults those pages in again: about 1400 minor faults a step,
    and steps that slow down and spread when the host is loaded.  ``run``
    pins both thresholds for the process at the ceilings that the dynamic
    rule can reach (32 and 64 MiB).  A libc without ``mallopt`` is left
    alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


def _induction_and_force(state: SimState, params: PhysParams):
    """The formulation's own half of the RHS: (d mag/dt, force density)."""
    g = state.grid
    o = params.stencil_order
    if state.formulation is Formulation.MODIFIED:
        # one Jacobian of A gives curl A and the force; j is taken from curl A
        # before H0 joins it, as (x + H0) - (y + H0) is not bitwise x - y
        da = ops._jacobian(state.mag, g, o)
        curl_a = ops._curl(da, np.empty(state.mag.shape))
        j = (1.0 / FOUR_PI) * ops.curl(curl_a, g, o)
        force = em._force(j, da, state.bg)
        del da
        h_tot = curl_a
        h_tot += state.bg.uniform_field[:, None, None, None]
        dmag = ops.cross(state.v, h_tot)
    else:
        h_tot = state.mag + state.bg.uniform_field[:, None, None, None]
        dmag = ops.curl(ops.cross(state.v, h_tot), g, o)
        force = ops.cross(ops.curl(state.mag, g, o), h_tot) / FOUR_PI
    return dmag, force


def compute_rhs(state: SimState, params: PhysParams) -> Rhs:
    """Semidiscrete right-hand side of either formulation.

    Only the induction and force laws branch on the formulation; the
    fluid lines are shared, so the two systems differ in nothing else.
    On large grids the two halves run on two threads (see the module
    docstring), with bitwise the same result.
    """
    validate_state(state)
    g = state.grid
    o = params.stencil_order
    outcome = []
    helper = None
    if g.npoints > _OVERLAP_MIN_POINTS and _usable_cpus() > 1:
        def half():
            try:
                outcome.append(_induction_and_force(state, params))
            except BaseException as exc:
                outcome.append(exc)

        helper = threading.Thread(target=half, name="modmhd-rhs")
        helper.start()
    else:
        outcome.append(_induction_and_force(state, params))
    try:
        gradp = ops.grad(state.p, g, o)
        div_v = np.empty(g.shape)
        dv = -ops._contract(state.v, ops._stencil(state.v, g, o), trace=div_v)
        dv -= gradp / state.rho
        drho = -ops.div(state.rho * state.v, g, o)
        dp = -ops.dot(state.v, gradp) - params.gamma * state.p * div_v
    finally:
        if helper is not None:
            helper.join()
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    dmag, force = outcome[0]
    dv += force / state.rho
    return Rhs(dmag, dv, drho, dp)


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
    drift = ops.l2_norm(ops.div(state.mag, g, params.stencil_order), g)
    a_proj, _ = helmholtz_project(state.mag, g, params.stencil_order)
    return replace(state, mag=a_proj), drift


def step_rk4(state: SimState, dt: float, params: PhysParams, source=None) -> SimState:
    """One classical RK4 step of the eight evolved equations.

    ``source(grid, t)`` may supply externally prescribed derivatives (a
    4-tuple matching Rhs) added to the RHS at each stage time -- used by
    the manufactured-solution scenario.  It never projects A: the gauge
    split belongs to the caller (``run``, or ``enforce_gauge`` by hand).
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")

    def deriv(s: SimState, t_stage: float) -> Rhs:
        d = compute_rhs(s, params)
        if source is not None:
            for f, g in zip(d, source(s.grid, t_stage)):
                f += g
        return d

    # stage states share one buffer set: each is dead once its k is taken
    buffers = tuple(np.empty(f.shape) for f in state.fields)

    def shift(c: float, k: Rhs) -> SimState:
        for buf, f, g in zip(buffers, state.fields, k):
            np.multiply(c, g, out=buf)
            np.add(f, buf, out=buf)
        return state.with_fields(*buffers, state.t)

    # a running sum in the order of f + w*(k1 + 2 k2 + 2 k3 + k4); k2 and
    # k3 join it once their stage state is built and are freed before the
    # next RHS, so at most one k is held beside the sum
    t0 = state.t
    acc = deriv(state, t0)
    k = deriv(shift(0.5 * dt, acc), t0 + 0.5 * dt)
    for c in (0.5 * dt, dt):
        stage = shift(c, k)
        for a, b in zip(acc, k):
            b *= 2.0
            a += b
        del k, b
        k = deriv(stage, t0 + c)
    w = dt / 6.0
    for a, b, f in zip(acc, k, state.fields):
        a += b
        a *= w
        a += f
    return state.with_fields(*acc, t0 + dt)


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
    is raised (nothing is silently dropped).  A non-finite t_end or
    initial time, or a grid too small for the stencil order, raises
    ValueError before anything runs.  It pins glibc's heap thresholds for
    the process (``_keep_freed_heap``).  After each completed step that
    the gauge policy names, a modified state is projected onto div A = 0
    (``enforce_gauge``) and the step's record carries the drift measured
    before it; ``step_rk4`` itself never projects.
    """
    if not (math.isfinite(initial.t) and math.isfinite(t_end)):
        raise ValueError(f"times must be finite, got t = {initial.t}, t_end = {t_end}")
    if t_end < initial.t:
        raise ValueError("t_end must not precede the initial time")
    if out_every < 1:
        raise ValueError("out_every must be >= 1")
    initial.grid.require_order(params.stencil_order)
    _keep_freed_heap()

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
        dt = cfl_dt(state, params)
        record(dt, None)
        if on_step is not None:
            on_step(state, 0)
        step = 0
        while state.t < t_end:
            if step > 0:
                dt = cfl_dt(state, params)
            remaining = t_end - state.t
            final = remaining <= 1.01 * dt
            if final:
                dt = remaining
            state = step_rk4(state, dt, params, source=source)
            step += 1
            drift = None
            if state.formulation is Formulation.MODIFIED and params.gauge.due(step):
                state, drift = enforce_gauge(state, params)
            if final:
                state = replace(state, t=t_end)
            if on_step is not None:
                on_step(state, step)
            if final or step % out_every == 0:
                record(dt, drift)
    except StateInvalidError as exc:
        raise SimulationError(f"run aborted at t={state.t:.6g}: {exc}", records) from exc
    return state, records
