"""Time integration of the two formulations.

Both systems evolve the periodic vector potential A (background M) with
the same induction law and fluid lines:

    dA/dt   = v x H,                H = curl A + H0
    dv/dt   = -(v.grad)v - grad(P)/rho + f/rho,   j = (c/4pi) curl curl A
    drho/dt = -div(rho v)
    dP/dt   = -v.grad(P) - gamma P div(v)

They differ in the force law alone:

    modified:     f = -(1/c) (j.grad)(A + A0)
    traditional:  f = (1/c) j x H

With the Lorentz force H = curl A obeys dH/dt = curl(v x H): the
traditional system is ideal MHD written in A.  One ``compute_rhs`` serves
both, and only its force line branches.  Each field is differentiated
once per RHS (30 stencil derivatives modified, 27 traditional): curl A
is taken from A's six off-diagonal derivatives, which the modified
(j.grad)A reuses beside the three diagonal ones, and div v from the
diagonal that (v.grad)v takes.  Both are marched with classical RK4
(method of lines).  div A = 0 is not one of the evolved equations:
``run`` re-imposes it on a modified state by projection after the
completed steps its gauge policy names, never inside RK stages, and
records the pre-projection drift.  ``step_rk4`` never projects, so a
hand-written loop calls ``enforce_gauge`` itself.
The split is first order in time (see ``tests/test_dynamics.py``).

Every per-point operation of a stage runs on slabs of x-planes.  On grids
of more than 32^3 points, when the process may use more than one CPU,
there are two: the lower half of the planes on the calling thread and the
upper half on a helper thread, started and joined for each pass (numpy
releases the GIL inside its array loops).  Otherwise the one slab is the
whole grid, on the calling thread.  A slab computes the whole RHS on its
planes.  Derivatives along y and z act on its own planes; along x they
read the k neighbouring planes beyond it (k the stencil's half-width),
periodically.  Of the intermediates only H_y, H_z (for j) and rho v_x
(for div(rho v)) are differentiated again, so curl A and rho v_x are
formed on k extra planes on either side, and no slab waits for the other
inside an RHS.  The state is validated on the calling thread before any
slab starts, so an invalid state computes nothing.  ``cfl_dt`` takes
each slab's maximum.  In ``step_rk4`` a slab then adds the source to its
planes of k, sums them and forms the next stage state on them in the
same pass; stage states alternate between two buffer sets, so no slab
writes planes that the other's stencils can still read.  Each value is
formed by the same operations on one slab or two, so the results are
bitwise the serial ones.  ``OPENBLAS_NUM_THREADS`` does not govern the
helper; the CPU affinity does, so running under ``taskset -c 0`` keeps
every pass on one thread.  Do so when the host steals CPU: each hand-off
halts a vCPU that a loaded host is slow to wake, and a step makes five
(four stages, ``cfl_dt``).

While a stage's RHS runs, an RK4 step holds the state, the running sum
of the k's and two buffer sets, the stage state that the RHS reads and
the k that it writes: four sets of the eight scalar fields (five with a
source).  The RHS's scratch beyond its k sets the high-water mark.  With
its k the RHS peaks at 64^3 at 12.05 scalar fields on one slab for the
traditional system and 18.0 for the modified one, and at 12.3 and 18.1
on two slabs, whose scratch adds up to one slab's and the halo planes
(``tests/test_dynamics.py`` pins them and the step's peak on 16^3).  It
keeps that scratch low by working in the k's planes first: j fills
dA/dt's until v x H does, the force fills dv/dt's until the fluid lines
join it, and dP/dt's serve the curls and the contraction.  The fluid
lines are formed one component at a time, every other intermediate is
updated in place and dropped after its last reader.  It never writes
into a state's arrays, which states share (``with_fields`` and a no-op
projection hand them on).
"""

from __future__ import annotations

import ctypes
import functools
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
#: mag is dA/dt.
Rhs = namedtuple("Rhs", ["mag", "v", "rho", "p"])


class SimulationError(RuntimeError):
    """A run aborted; carries the diagnostics collected before the failure."""

    def __init__(self, message: str, records: list[DiagnosticsRecord]):
        super().__init__(message)
        self.records = records


#: Grids with more points than this split each stage's per-point work into
#: two slabs on two threads; on smaller ones the hand-offs cost more than
#: they save.
_OVERLAP_MIN_POINTS = 32 ** 3

#: A block of planes lo..hi-1 along x, and the half-width of the stencil
#: that reads beyond it (0 when the block is the whole periodic grid).
_Slab = namedtuple("_Slab", ["lo", "hi", "halo"])


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _slabs(grid, order: int) -> tuple[_Slab, ...]:
    """The slabs that a stage's per-point work is split into.

    Two halves of the x-planes, each with the stencil's half-width as its
    halo, on grids of more than ``_OVERLAP_MIN_POINTS`` points when the
    process may use more than one CPU; otherwise the whole grid.
    """
    n = grid.nx
    if grid.npoints > _OVERLAP_MIN_POINTS and _usable_cpus() > 1:
        return (_Slab(0, n // 2, order // 2), _Slab(n // 2, n, order // 2))
    return (_Slab(0, n, 0),)


def _planes(fields, slab: _Slab) -> tuple[np.ndarray, ...]:
    """Views of the slab's planes of each field (vector or scalar)."""
    return tuple(f[..., slab.lo:slab.hi, :, :] for f in fields)


def _on_slabs(slabs, work) -> list:
    """[work(slab) for slab in slabs], each slab on its own thread.

    The first slab runs on the calling thread and the second, if any, on a
    thread started and joined here.  An error raised on either is raised
    once both are done, the calling thread's first.  The first pass pins
    glibc's allocator for the process (``_keep_freed_heap``).
    """
    _keep_freed_heap()
    if len(slabs) == 1:
        return [work(slabs[0])]
    outcome = []

    def second():
        try:
            outcome.append((True, work(slabs[1])))
        except BaseException as exc:
            outcome.append((False, exc))

    helper = threading.Thread(target=second, name="modmhd-slab")
    helper.start()
    try:
        first = work(slabs[0])
    finally:
        helper.join()
    done, value = outcome[0]
    if not done:
        raise value
    return [first, value]


@functools.cache
def _keep_freed_heap() -> None:
    """Stop glibc from handing freed field arrays back to the kernel.

    Every RK4 stage allocates and frees the same few-megabyte arrays.
    With glibc's dynamic thresholds the heap top is handed back as a
    stage's temporaries are freed and the next stage faults those pages
    in again, so steps slow down and spread when the host is loaded.
    Blocks below 32 MiB stay on the heap and trimming is off for the
    process; a fixed trim threshold is not enough at 64^3 (README gives
    the fault counts).  Threads started after this allocate from the main
    arena, so the slab helper reuses the blocks that the calling thread
    frees; its own arena's size varied from run to run.  A libc without
    ``mallopt`` is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, -1)         # M_TRIM_THRESHOLD: never trim
    mallopt(-8, 1)          # M_ARENA_MAX: one arena for every thread


def _rhs_planes(state: SimState, params: PhysParams, slab: _Slab, k: Rhs) -> None:
    """Write the RHS on the slab's planes into k's."""
    lo, hi, halo = slab
    g = state.grid
    o = params.stencil_order
    ext = (lo - halo, hi + halo)            # the planes and a halo either side
    inner = (halo, halo + hi - lo)          # the slab's own planes within ext
    own = slice(*inner)
    shape = (hi - lo,) + g.shape[1:]
    ext_shape = (hi - lo + 2 * halo,) + g.shape[1:]
    modified = state.formulation is Formulation.MODIFIED
    v, rho, p = _planes(state.fields[1:], slab)
    dmag, dv, drho, dp = _planes(k, slab)

    def d(f, ax, out=None, rows=(lo, hi)):
        return ops._d1(f, ax, g.spacings[ax], o, out, rows)

    # curl A on the extended planes, as j takes x-derivatives of H_y and
    # H_z; the modified contraction reuses its six derivatives of A
    if modified:
        da_ext = {(c, ax): d(state.mag[c], ax, rows=ext)
                  for c in range(3) for ax in range(3) if c != ax}
        da = lambda c, ax, buf: da_ext[c, ax]
    else:
        da = lambda c, ax, buf: d(state.mag[c], ax, buf, ext)
    h_tot = ops._curl(da, np.empty((3,) + ext_shape))
    # j fills dA/dt's planes until v x H does, and dP/dt's planes serve as
    # scratch until the fluid lines; j is taken from curl A before H0
    # joins it, as (x + H0) - (y + H0) is not bitwise x - y
    j = ops._curl(ops._stencil(h_tot, g, o, inner), dmag, tmp=dp)
    j *= 1.0 / FOUR_PI
    h_tot = h_tot[:, own]
    h0 = state.bg.uniform_field
    for c in range(3):      # not broadcast: that would take a ufunc buffer
        h_tot[c] += h0[c]
    # the force fills dv's planes until the fluid lines join it
    if modified:
        # -(j.grad)(A + A0); only this contraction takes A's diagonal
        # derivatives, and the rest are freed before A0's term
        force = ops._contract(j, lambda c, ax, buf: (da_ext[c, ax][own] if c != ax
                                                      else d(state.mag[c], ax, buf)),
                              out=dv, tmp=dp)
        del da_ext, da
        force += state.bg.advected_by(j)
        np.negative(force, out=force)
    else:
        force = ops.cross(j, h_tot, out=dv)
    ops.cross(v, h_tot, out=dmag)
    del j, h_tot

    # the fluid lines, one component of dv at a time:
    # dv_i = (-(v.grad)v_i - d_i P / rho) + f_i / rho, while div v (the
    # diagonal of grad v) and v.grad P are summed in the whole-field order
    adv, tmp, dp_dx, div_v = (np.empty(shape) for _ in range(4))
    for i in range(3):
        for c in range(3):
            dvi = d(state.v[i], c, tmp)
            if c == i:
                if i == 0:
                    np.copyto(div_v, dvi)
                else:
                    div_v += dvi
            if c == 0:
                np.multiply(v[0], dvi, out=adv)
            else:
                adv += np.multiply(dvi, v[c], out=tmp)
        np.negative(adv, out=adv)
        d(state.p, i, dp_dx)
        if i == 0:
            np.multiply(v[0], dp_dx, out=dp)
        else:
            dp += np.multiply(v[i], dp_dx, out=tmp)
        dp_dx /= rho
        adv -= dp_dx
        force[i] /= rho
        np.add(adv, force[i], out=dv[i])
    del adv, dp_dx
    # dP/dt = -v.grad(P) - (gamma P) div v
    np.negative(dp, out=dp)
    div_v *= params.gamma * p
    dp -= div_v
    del div_v
    # drho/dt = -div(rho v), with rho v_x formed on the extended planes
    rho_v = np.empty(ext_shape)
    for at, m, (a,) in ops._plane_runs(*ext, g.nx):
        np.multiply(state.rho[a:a + m], state.v[0, a:a + m], out=rho_v[at:at + m])
    d(rho_v, 0, drho, inner)
    for c in (1, 2):
        drho += d(np.multiply(rho, v[c], out=rho_v[own]), c, tmp, None)
    np.negative(drho, out=drho)


def _rhs_pass(state: SimState, params: PhysParams, k: Rhs, then=None) -> None:
    """Write the RHS of a validated state into k slab by slab; each slab
    runs then(slab), if given, after its planes."""

    def work(slab):
        _rhs_planes(state, params, slab, k)
        if then is not None:
            then(slab)

    _on_slabs(_slabs(state.grid, params.stencil_order), work)


def compute_rhs(state: SimState, params: PhysParams) -> Rhs:
    """Semidiscrete right-hand side of either formulation.

    Only the induction and force laws branch on the formulation; the
    fluid lines are shared, so the two systems differ in nothing else.
    On large grids the x-planes are split into two slabs on two threads
    (see the module docstring), with bitwise the same result.  It
    validates the state on the calling thread before any slab starts, so
    an invalid state raises StateInvalidError and computes nothing, and it
    only reads the state's arrays.
    """
    validate_state(state)
    k = Rhs(*(np.empty(f.shape) for f in state.fields))
    _rhs_pass(state, params, k)
    return k


def cfl_dt(state: SimState, params: PhysParams) -> float:
    """dt = courant * h_min / max(|v| + v_alfven + c_sound) over the grid.

    Each slab forms H on its planes and takes its own maximum; H is
    dropped once |H|^2 is formed, and the speeds are summed in place.
    """
    g = state.grid
    o = params.stencil_order

    def fastest(slab):
        v, rho, p = _planes(state.fields[1:], slab)
        h_tot = ops._curl(ops._stencil(state.mag, g, o, slab[:2]), np.empty(v.shape))
        h_tot += state.bg.uniform_field[:, None, None, None]
        h2 = ops.dot(h_tot, h_tot)
        del h_tot
        speed = ops.dot(v, v)
        np.sqrt(speed, out=speed)
        term = np.multiply(FOUR_PI, rho)
        h2 /= term
        speed += np.sqrt(h2, out=h2)
        del h2
        np.multiply(params.gamma, p, out=term)
        term /= rho
        speed += np.sqrt(term, out=term)
        return speed.max()

    # np.max, not max: a NaN on either slab carries through as it did on one
    top = np.max(_on_slabs(_slabs(g, o), fastest))
    return params.courant * g.min_spacing / float(top)


def enforce_gauge(state: SimState, params: PhysParams) -> tuple[SimState, float]:
    """Project A back onto div A = 0; returns (state, pre-projection drift).

    curl A (hence H and the physics of either formulation) is unchanged to
    roundoff; only the gradient part of A moves.
    """
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
    Each stage is one slab pass, which also adds the source, sums the k's
    and forms the next stage state (see the module docstring).  It returns
    a valid state or raises StateInvalidError: it validates its input, and
    each pass the state it forms, as the final combination can be invalid
    when no stage state is.
    """
    validate_state(state)
    return _step_rk4(state, dt, params, source)


def _step_rk4(state: SimState, dt: float, params: PhysParams, source) -> SimState:
    """``step_rk4`` of a state that has been validated."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    t0, w = state.t, dt / 6.0
    acc, one, two = (Rhs(*(np.empty(f.shape) for f in state.fields)) for _ in range(3))

    def stage_pass(stage: SimState, t_stage: float, k: Rhs, b: float, c: float | None):
        """k = RHS(stage) + source(t_stage); then, on each slab's planes,
        acc += b k (k1 is acc itself) and the next stage state f + c k goes
        into k's set (``one`` after k1) as (c/b)(b k), bitwise c k since
        doubling and halving are exact.  After k4 (c None), acc = f + w acc."""
        extra = () if source is None else (source(state.grid, t_stage),)
        nxt = acc if c is None else (one if k is acc else k)

        def then(slab):
            parts = (state.fields, k, acc, nxt) + extra
            for f, kf, a, nf, *e in zip(*(_planes(x, slab) for x in parts)):
                if e:
                    kf += e[0]
                if b != 1.0:
                    kf *= b
                if k is not acc:
                    a += kf
                if c is None:
                    a *= w
                    a += f
                else:
                    np.multiply(c / b, kf, out=nf)
                    nf += f

        _rhs_pass(stage, params, k, then)
        formed = state.with_fields(*nxt, t0 + dt if c is None else t0)
        validate_state(formed)
        return formed

    stage = stage_pass(state, t0, acc, 1.0, 0.5 * dt)
    stage = stage_pass(stage, t0 + 0.5 * dt, two, 2.0, 0.5 * dt)
    stage = stage_pass(stage, t0 + 0.5 * dt, one, 2.0, dt)
    return stage_pass(stage, t0 + dt, two, 1.0, None)


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
    is raised (nothing is silently dropped).  It validates the initial
    state; a step validates the states it forms, not the last step's
    result or its projection (finite where A is), so ``on_step`` and
    ``on_record`` must only read the state.  A non-finite t_end or initial
    time, or a grid too small for the stencil order, raises ValueError
    before anything runs.  After each completed step that the gauge policy
    names, a modified state is projected onto div A = 0 (``enforce_gauge``)
    and the step's record carries the drift measured before it;
    ``step_rk4`` itself never projects.
    """
    if not (math.isfinite(initial.t) and math.isfinite(t_end)):
        raise ValueError(f"times must be finite, got t = {initial.t}, t_end = {t_end}")
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
            state = _step_rk4(state, dt, params, source)
            step += 1
            drift = None
            # the Lorentz force does not see A's gradient part, which grows
            # in a traditional run; projecting it would only cost time
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
