"""State validation, the shared RHS, RK4, gauge policy, and run()."""

import os
import platform
import resource
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import modmhd.dynamics as dynamics
import modmhd.operators as ops
from modmhd import (
    BackgroundPotential,
    Formulation,
    GaugePolicy,
    GridSpec,
    PhysParams,
    Rhs,
    SimState,
    SimulationError,
    StateInvalidError,
    cfl_dt,
    compute_rhs,
    current_from_a,
    enforce_gauge,
    force_modified,
    h_from_a,
    manufactured,
    oracle_matrix,
    random_solenoidal,
    run,
    sound_wave,
    step_rk4,
    uniform_rest,
    validate_state,
)
from modmhd.dispersion import mode_coefficients
from modmhd.grid import full_vector

from conftest import copied, cube, pressure_sink_at, slab


def _rest_state(g, formulation=Formulation.MODIFIED, rho0=1.0, p0=1.0):
    return uniform_rest(g, formulation, rho0=rho0, p0=p0).state


# -- SimState and validation ---------------------------------------------------

def _rest_fields(g):
    return dict(mag=np.zeros(g.vshape), v=np.zeros(g.vshape),
                rho=np.ones(g.shape), p=np.ones(g.shape))


@pytest.mark.parametrize("formulation", list(Formulation))
def test_state_defaults_to_zero_background(formulation):
    st = SimState(cube(8), formulation, **_rest_fields(cube(8)))
    assert st.bg == BackgroundPotential.zero()
    assert st.t == 0.0


@pytest.mark.parametrize("formulation", list(Formulation))
@pytest.mark.parametrize("extra", [
    dict(a=np.zeros((3, 8, 8, 8))),
    dict(h=np.zeros((3, 8, 8, 8))),
    dict(h0=(1.0, 0.0, 0.0)),
    dict(bg=(1.0, 0.0, 0.0)),
], ids=["a", "h", "h0", "bg_tuple"])
def test_state_refuses_contradictory_input(formulation, extra):
    # a state holds one magnetic unknown and one BackgroundPotential; the
    # old per-formulation slots, or a bare H0 vector as the background,
    # would otherwise be dropped or read as H0 = 0 without a word
    with pytest.raises(TypeError):
        SimState(cube(8), formulation, **_rest_fields(cube(8)), **extra)


@pytest.mark.parametrize("h0", [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0)],
                         ids=["nan", "inf"])
def test_state_refuses_non_finite_background_field(h0):
    g = cube(8)
    with pytest.raises(ValueError, match="background matrix must be a finite"):
        SimState(g, Formulation.TRADITIONAL, **_rest_fields(g),
                 bg=BackgroundPotential.from_uniform_field(h0))


@pytest.mark.parametrize("formulation,name", [
    (f, name) for f in Formulation for name in ("mag", "v", "rho", "p")
])
def test_state_shape_checks(formulation, name):
    g = cube(8)
    fields = _rest_fields(g)
    # a vector where a scalar belongs, or the other way round
    fields[name] = np.ones(g.shape if fields[name].ndim == 4 else g.vshape)
    shown = {"mag": "A", "p": "P"}
    with pytest.raises(ValueError, match=f"^{shown.get(name, name)}: expected shape"):
        SimState(grid=g, formulation=formulation, **fields)


def test_validate_names_offender():
    g = cube(8)
    st = _rest_state(g)
    st.rho[0, 0, 0] = -1.0
    with pytest.raises(StateInvalidError) as info:
        validate_state(st)
    assert info.value.quantity == "rho"

    st = _rest_state(g)
    st.v[1, 2, 3, 0] = np.nan
    with pytest.raises(StateInvalidError) as info:
        validate_state(st)
    assert info.value.quantity == "v"

    st = _rest_state(g)
    st.p[0, 0, 0] = 0.0   # strict positivity
    with pytest.raises(StateInvalidError) as info:
        validate_state(st)
    assert info.value.quantity == "P"


@pytest.mark.parametrize("formulation", list(Formulation))
def test_state_fields_order(formulation):
    st = random_solenoidal(cube(8), formulation).state
    assert all(f is g for f, g in zip(st.fields, (st.mag, st.v, st.rho, st.p)))
    rhs = compute_rhs(st, PhysParams())
    assert [f.shape for f in st.fields] == [d.shape for d in rhs]
    same = st.with_fields(*st.fields, st.t)
    assert all(a is b for a, b in zip(same.fields, st.fields))
    assert same.t == st.t
    dup = copied(st)
    for f, g in zip(dup.fields, st.fields):
        assert not np.shares_memory(f, g)
        assert np.array_equal(f, g)


# -- RHS oracles ---------------------------------------------------------------

@pytest.mark.parametrize("formulation", list(Formulation))
def test_uniform_rest_rhs_is_exactly_zero(formulation):
    g = cube(16)
    st = uniform_rest(g, formulation, rho0=2.0, p0=0.5, b0x=0.4, b0y=-0.2, b0z=0.9).state
    rhs = compute_rhs(st, PhysParams())
    for part in rhs:
        assert np.all(part == 0.0)


def test_modified_rhs_zero_velocity_force_free_potential():
    # v=0, A=(0, sin x, 0): j is along y but A varies only in x, so the
    # advective force vanishes and every derivative is exactly zero
    g = cube(16)
    x, _, _ = g.meshes()
    st = SimState(grid=g, formulation=Formulation.MODIFIED,
                  mag=full_vector(g, (0.0, np.sin(x), 0.0)),
                  v=np.zeros(g.vshape), rho=np.ones(g.shape), p=np.ones(g.shape))
    rhs = compute_rhs(st, PhysParams())
    assert ops.max_norm(rhs.mag) == 0.0
    assert ops.max_norm(rhs.v) < 1e-13
    assert np.all(rhs.rho == 0.0)
    assert np.all(rhs.p == 0.0)


@pytest.mark.parametrize("order", [2, 4])
def test_rhs_modified_matches_public_assembly_bitwise(order):
    # the modified RHS takes one curl A for both j and H = curl A + H0; j must
    # be formed before H0 joins, or roundoff makes the force differ
    g = cube(8)
    st = random_solenoidal(g, Formulation.MODIFIED, b0=0.7, amplitude=0.3,
                           seed=4, order=order).state
    params = PhysParams(stencil_order=order)
    h_tot = h_from_a(st.mag, st.bg, g, order)
    j = current_from_a(st.mag, g, order)
    force = force_modified(j, st.mag, st.bg, g, order)
    dv = -ops.advect(st.v, st.v, g, order)
    dv -= ops.grad(st.p, g, order) / st.rho
    dv += force / st.rho
    rhs = compute_rhs(st, params)
    assert np.array_equal(rhs.v, dv)
    assert np.array_equal(rhs.mag, ops.cross(st.v, h_tot))


@pytest.mark.parametrize("order", [2, 4])
def test_fluid_rhs_is_shared_without_magnetic_field(order):
    # with A = 0 and a zero background, the two systems
    # reduce to the same compressible Euler equations, bitwise
    g = GridSpec(12, 10, 9, 1.0, 2.5, 7.0)
    rng = np.random.default_rng(11)
    v = 0.5 * rng.standard_normal(g.vshape)
    rho = 1.0 + 0.3 * rng.random(g.shape)
    p = 1.0 + 0.3 * rng.random(g.shape)
    params = PhysParams(stencil_order=order)
    mod = compute_rhs(SimState(g, Formulation.MODIFIED, np.zeros(g.vshape),
                               v, rho, p), params)
    trad = compute_rhs(SimState(g, Formulation.TRADITIONAL, np.zeros(g.vshape),
                                v, rho, p), params)
    assert ops.max_norm(mod.v) > 0.0
    for name in ("v", "rho", "p"):
        assert np.array_equal(getattr(mod, name), getattr(trad, name)), name


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("formulation, calls", [(Formulation.MODIFIED, 30),
                                                (Formulation.TRADITIONAL, 27)])
def test_rhs_takes_each_first_derivative_once(formulation, calls, order, monkeypatch):
    # modified: 9 for the Jacobian of A, 6 for j = curl curl A; both: 3 for
    # grad P, 9 for (v.grad)v, which also gives div v, and 3 for div(rho v);
    # traditional: 6 for curl A and 6 for j
    st = random_solenoidal(GridSpec(12, 10, 9, 1.0, 2.5, 7.0), formulation,
                           b0=0.5, amplitude=0.3, seed=1, order=order).state
    seen = []
    inner = ops._d1

    def spy(*args, **kwargs):
        seen.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(ops, "_d1", spy)
    compute_rhs(st, PhysParams(stencil_order=order))
    assert len(seen) == calls


def test_continuity_against_analytic_gradient():
    # uniform v = (u0,0,0), rho = 1 + eps sin x => drho/dt = -u0 eps cos x
    g = cube(32)
    x, _, _ = g.meshes()
    u0, eps = 0.7, 0.01
    st = SimState(grid=g, formulation=Formulation.MODIFIED, mag=np.zeros(g.vshape),
                  v=full_vector(g, (u0, 0.0, 0.0)),
                  rho=1.0 + eps * np.sin(x) + np.zeros(g.shape),
                  p=np.ones(g.shape))
    rhs = compute_rhs(st, PhysParams())
    assert ops.max_norm(rhs.rho + u0 * eps * np.cos(x)) < 1e-4
    assert ops.max_norm(rhs.v) < 1e-14
    assert np.all(rhs.p == 0.0)


#: Peak of one inline RHS above its entry, in scalar fields of the grid.  The
#: traditional peak is the fluid half (dv, div v, dP and one component of
#: grad P with its scratch) beside the induction half's two results; the
#: modified one is the force contraction beside the Jacobian of A, curl A and
#: j.  On 16^3 a ufunc's 64 KB broadcast buffer (force / rho) adds two fields.
_RHS_PEAK_FIELDS = {(Formulation.TRADITIONAL, 2): 14.5, (Formulation.TRADITIONAL, 4): 14.9,
                    (Formulation.MODIFIED, 2): 19.5, (Formulation.MODIFIED, 4): 19.5}

#: Peak of ``cfl_dt`` above its entry, in scalar fields: H (3 fields) and the
#: two arrays of |H|^2, plus the order-4 stencil's scratch while curl A is
#: taken.
_CFL_PEAK_FIELDS = {2: 5.5, 4: 5.9}


def _peak_fields(fn, st, params):
    """(result, peak of fn(st, params) above its entry in scalar fields), warmed up."""
    fn(st, params)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        out = fn(st, params)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        if started:
            tracemalloc.stop()
    return out, peak / (8 * st.grid.npoints)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("formulation", list(Formulation))
def test_rhs_scratch_footprint(formulation, order):
    g = cube(16)
    assert g.npoints <= dynamics._OVERLAP_MIN_POINTS
    st = random_solenoidal(g, formulation, amplitude=0.3, order=order).state
    params = PhysParams(stencil_order=order)
    before = copied(st)
    rhs, peak = _peak_fields(compute_rhs, st, params)
    assert ops.max_norm(rhs.v) > 0.0
    assert peak < _RHS_PEAK_FIELDS[formulation, order]
    # the in-place updates never reach the state's own arrays
    assert all(np.array_equal(a, b) for a, b in zip(st.fields, before.fields))


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("formulation", list(Formulation))
def test_cfl_dt_scratch_footprint(formulation, order):
    st = random_solenoidal(cube(16), formulation, amplitude=0.3, order=order).state
    before = copied(st)
    dt, peak = _peak_fields(cfl_dt, st, PhysParams(stencil_order=order))
    assert dt > 0.0
    assert peak < _CFL_PEAK_FIELDS[order]
    assert all(np.array_equal(a, b) for a, b in zip(st.fields, before.fields))


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("formulation", list(Formulation))
def test_step_rk4_scratch_footprint(formulation, order):
    # the running sum and two buffer sets (24 fields), and an RHS's
    # scratch beyond the k that it writes into one of them
    st = random_solenoidal(cube(16), formulation, amplitude=0.3, order=order).state
    params = PhysParams(stencil_order=order)
    dt = cfl_dt(st, params)
    before = copied(st)
    out, peak = _peak_fields(lambda s, p: step_rk4(s, dt, p), st, params)
    assert out.t == dt
    assert peak < 24 + _RHS_PEAK_FIELDS[formulation, order] - 8
    assert all(np.array_equal(a, b) for a, b in zip(st.fields, before.fields))


# -- two slabs on two threads ----------------------------------------------------

def _overlap_case(formulation, order, shape=(40, 36, 24)):
    """A state on a grid above the two-slab threshold, with a background."""
    g = GridSpec(*shape, 1.0, 2.5, 7.0)
    assert g.npoints > dynamics._OVERLAP_MIN_POINTS
    return random_solenoidal(g, formulation, b0=0.5, amplitude=0.3,
                             seed=2, order=order).state


def _record_slab_threads(monkeypatch):
    """Spy on the thread and the planes of every slab of the RHS."""
    ran = []
    inner = dynamics._rhs_planes

    def spy(state, params, slab, k):
        ran.append((threading.current_thread(), slab.lo, slab.hi))
        return inner(state, params, slab, k)

    monkeypatch.setattr(dynamics, "_rhs_planes", spy)
    return ran


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("formulation", list(Formulation))
def test_threaded_rhs_matches_inline_bitwise(formulation, order, monkeypatch):
    st = _overlap_case(formulation, order)
    params = PhysParams(stencil_order=order)
    ran = _record_slab_threads(monkeypatch)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    threaded = compute_rhs(st, params)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 1)
    inline = compute_rhs(st, params)
    main = threading.main_thread()
    two = sorted(ran[:2], key=lambda r: r[1])
    assert [(lo, hi) for _, lo, hi in two] == [(0, 20), (20, 40)]
    assert two[0][0] is main and two[1][0] is not main
    assert ran[2:] == [(main, 0, 40)]
    assert ops.max_norm(inline.mag) > 0.0 and ops.max_norm(inline.v) > 0.0
    for got, want in zip(threaded, inline):
        assert np.array_equal(got, want)


def test_rhs_helper_failure_propagates_and_leaves_no_thread(monkeypatch):
    st = _overlap_case(Formulation.TRADITIONAL, 2)
    params = PhysParams()
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    ran = _record_slab_threads(monkeypatch)
    before = threading.active_count()
    compute_rhs(st, params)
    assert threading.active_count() == before

    raised_in = []
    cross = ops.cross

    def broken_on(main):
        def broken_cross(u, v, out=None):
            if (threading.current_thread() is threading.main_thread()) == main:
                raised_in.append(threading.current_thread())
                raise RuntimeError("cross failed")
            return cross(u, v, out)
        return broken_cross

    # the helper's error is raised once the calling thread's slab is done,
    # and so is an error on the calling thread, after the join
    for on_main in (False, True):
        ran.clear()
        raised_in.clear()
        monkeypatch.setattr(ops, "cross", broken_on(on_main))
        with pytest.raises(RuntimeError, match="cross failed"):
            compute_rhs(st, params)
        assert len(raised_in) == 1
        assert (raised_in[0] is threading.main_thread()) == on_main
        assert threading.active_count() == before
        assert len(ran) == 2


def _refuse_thread_start(monkeypatch):
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)


def test_step_rk4_makes_one_slab_pass_per_stage(monkeypatch):
    # each stage adds the source, sums its k and forms the next stage state
    # in its RHS's pass: one helper thread per stage, and the source is
    # taken on the calling thread at the four stage times
    st = _overlap_case(Formulation.MODIFIED, 2)
    st = st.with_fields(*st.fields, 0.25)
    params = PhysParams()
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    dt = cfl_dt(st, params)
    started, calls = [], []
    start = threading.Thread.start

    def count(self):
        started.append(self.name)
        return start(self)

    def source(grid, t):
        calls.append((threading.current_thread(), t))
        return np.zeros(grid.vshape), np.zeros(grid.vshape), *np.zeros((2,) + grid.shape)

    monkeypatch.setattr(threading.Thread, "start", count)
    step_rk4(st, dt, params, source=source)
    assert started == ["modmhd-slab"] * 4
    me = threading.current_thread()
    assert calls == [(me, st.t), (me, st.t + 0.5 * dt), (me, st.t + 0.5 * dt),
                     (me, st.t + dt)]


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    # the CPU affinity, not a setting, keeps a run on one thread (README:
    # ``taskset -c 0``); under it every slab pass runs on the calling thread
    st = _overlap_case(Formulation.MODIFIED, 2)
    params = PhysParams(gauge=GaugePolicy.every_step())
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 1)
    _refuse_thread_start(monkeypatch)
    final, records = run(st, params, t_end=1.5 * cfl_dt(st, params))
    assert len(records) == 3 and final.t > st.t


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_one_cpu_affinity_means_one_usable_cpu():
    code = ("import os, modmhd.dynamics as d\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "print(d._usable_cpus())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


#: Arrays a slab holds on its extended planes (its own and a halo on either
#: side) when its scratch peaks: curl A and the curl's scratch, the order-4
#: stencil's second scratch while the traditional curl A is taken, and the
#: modified RHS's six stored derivatives of A.
_EXTENDED_ARRAYS = {(Formulation.TRADITIONAL, 2): 4, (Formulation.TRADITIONAL, 4): 5,
                    (Formulation.MODIFIED, 2): 10, (Formulation.MODIFIED, 4): 10}


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("formulation", list(Formulation))
def test_two_slab_rhs_peak_is_one_slab_plus_halo_planes(formulation, order, monkeypatch):
    # the two slabs' scratch adds up to one whole-grid scratch and the
    # halo planes, plus the second thread's ufunc buffer (8192 doubles),
    # however the threads interleave
    st = _overlap_case(formulation, order)
    g = st.grid
    params = PhysParams(stencil_order=order)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 1)
    _, one = _peak_fields(compute_rhs, st, params)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    slabs = dynamics._slabs(g, order)
    assert len(slabs) == 2
    halo_planes = sum(2 * s.halo for s in slabs) * _EXTENDED_ARRAYS[formulation, order]
    for _ in range(3):
        _, two = _peak_fields(compute_rhs, st, params)
        assert two <= one + halo_planes / g.nx + 8192 / g.npoints


def test_invalid_state_computes_nothing(monkeypatch):
    # the state is validated on the calling thread before any slab starts
    st = _overlap_case(Formulation.TRADITIONAL, 2)
    st.mag[1, 30, 5, 6] = np.nan
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    ran = _record_slab_threads(monkeypatch)
    _refuse_thread_start(monkeypatch)
    with pytest.raises(StateInvalidError) as info:
        compute_rhs(st, PhysParams())
    assert info.value.quantity == "A"
    assert ran == []


def test_validate_names_the_first_check_over_the_whole_grid(monkeypatch):
    # the error is the first failing check in the whole-grid order, on
    # whichever slab's planes each fault lies, and the RHS makes one
    # validate_state call
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    calls = []
    inner = dynamics.validate_state

    def spy(state, *args):
        calls.append(state)
        return inner(state, *args)

    monkeypatch.setattr(dynamics, "validate_state", spy)
    st = _overlap_case(Formulation.TRADITIONAL, 2)
    compute_rhs(st, PhysParams())
    assert len(calls) == 1
    # nx = 40: the first slab owns planes 0-19, the second 20-39
    cases = [
        ({"rho": (3, 0.0), "mag": (30, np.nan)}, "A"),
        ({"mag": (3, np.nan), "rho": (30, 0.0)}, "A"),
        ({"p": (3, -1.0), "v": (30, np.inf)}, "v"),
        ({"rho": (30, 0.0), "p": (3, 0.0)}, "rho"),
        ({"p": (30, 0.0)}, "P"),
    ]
    for broken, quantity in cases:
        bad = copied(st)
        for name, (plane, value) in broken.items():
            getattr(bad, name)[..., plane, 5, 6] = value
        with pytest.raises(StateInvalidError) as info:
            compute_rhs(bad, PhysParams())
        assert info.value.quantity == quantity
        with pytest.raises(StateInvalidError) as whole:
            validate_state(bad)
        assert (whole.value.quantity, str(whole.value)) == (quantity, str(info.value))
    assert len(calls) == 1 + len(cases)


def _two_slab_cases():
    """(grid shape, order): even and odd nx, and thin x, where a slab is
    no thicker than its halo."""
    return [((40, 36, 24), 2), ((40, 36, 24), 4), ((41, 36, 24), 2),
            ((41, 36, 24), 4), ((4, 96, 96), 2), ((8, 72, 64), 4)]


@pytest.mark.parametrize("shape, order", _two_slab_cases())
@pytest.mark.parametrize("formulation", list(Formulation))
def test_two_slabs_match_one_bitwise(formulation, shape, order, monkeypatch):
    # the RHS, dt and RK4 steps with the manufactured source, repeated with
    # frequent thread switches so that a slab writing the stage state while
    # the other still reads it would show
    st = _overlap_case(formulation, order, shape)
    g = st.grid
    params = PhysParams(stencil_order=order)
    source = manufactured(g, formulation).source
    dt = 0.5 * cfl_dt(st, params)

    def outputs():
        s = st
        for _ in range(2):
            s = step_rk4(s, dt, params, source=source)
        return [*compute_rhs(st, params), np.array(cfl_dt(st, params)), *s.fields]

    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 1)
    want = outputs()
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    assert dynamics._slabs(g, order)[0].hi == g.nx // 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            for got, ref in zip(outputs(), want):
                assert np.array_equal(got, ref)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("formulation", list(Formulation))
def test_two_slab_run_matches_one_bitwise(formulation, order, monkeypatch):
    # a 5-step run with its gauge projections and records, on odd nx
    st = _overlap_case(formulation, order, (41, 36, 24))
    params = PhysParams(stencil_order=order, gauge=GaugePolicy.every_step())
    t_end = 4.5 * cfl_dt(st, params)

    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 1)
    want, want_records = run(st, params, t_end)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    got, records = run(st, params, t_end)
    assert len(records) == 6
    assert records == want_records
    for f, g in zip(got.fields, want.fields):
        assert np.array_equal(f, g)


@pytest.mark.parametrize("formulation, calls", [(Formulation.MODIFIED, 30),
                                                (Formulation.TRADITIONAL, 27)])
def test_each_slab_takes_each_first_derivative_once(formulation, calls, monkeypatch):
    # halos are formed from planes, not from a second derivative pass
    st = _overlap_case(formulation, 2)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    seen = []
    inner = ops._d1

    def spy(*args, **kwargs):
        seen.append(threading.current_thread())
        return inner(*args, **kwargs)

    monkeypatch.setattr(ops, "_d1", spy)
    compute_rhs(st, PhysParams())
    assert len(seen) == 2 * calls
    assert seen.count(threading.main_thread()) == calls


# -- CFL ------------------------------------------------------------------------

def test_cfl_rest_state_formula():
    g = cube(16)
    p = PhysParams(courant=0.4)
    st = _rest_state(g, rho0=1.0, p0=1.0)
    cs = np.sqrt(p.gamma)
    assert cfl_dt(st, p) == pytest.approx(0.4 * g.hx / cs, rel=1e-13)


def test_cfl_halves_with_resolution():
    p = PhysParams()
    coarse = cfl_dt(_rest_state(cube(16)), p)
    fine = cfl_dt(_rest_state(cube(32)), p)
    assert fine == pytest.approx(coarse / 2.0, rel=1e-13)


def test_cfl_positive_even_at_rest():
    assert cfl_dt(_rest_state(cube(8), Formulation.TRADITIONAL), PhysParams()) > 0.0


# -- RK4 ------------------------------------------------------------------------

def test_step_rejects_nonpositive_dt():
    st = _rest_state(cube(8))
    with pytest.raises(ValueError):
        step_rk4(st, 0.0, PhysParams())
    with pytest.raises(ValueError):
        step_rk4(st, -0.1, PhysParams())


@pytest.mark.parametrize("formulation", list(Formulation))
def test_fixed_point_bitwise(formulation):
    g = cube(8)
    st0 = uniform_rest(g, formulation, b0x=0.3, b0z=0.1).state
    st = copied(st0)
    for _ in range(20):
        st = step_rk4(st, 0.05, PhysParams())
    assert np.array_equal(st.mag, st0.mag)
    assert np.array_equal(st.v, st0.v)
    assert np.array_equal(st.rho, st0.rho)
    assert np.array_equal(st.p, st0.p)
    assert st.t == pytest.approx(1.0)


def test_rk4_matches_matrix_exponential_to_dt5():
    # single sound-mode perturbation: step the PDE and compare against the
    # exact exponential of the 16x16 linear mode operator; the defect must
    # shrink by ~2^5 when dt halves
    la = np.linalg
    g = slab(32)
    p = PhysParams()
    base = uniform_rest(g, Formulation.MODIFIED, 1.0, 1.0).state
    L = oracle_matrix(base, (1, 0, 0), p)
    # fields f = c cos(kx) + s sin(kx) with complex amplitude c - i s:
    # d/dt (c; s) = [[Re L, Im L], [-Im L, Re L]] (c; s), permuted so that
    # each component's (c, s) pair is adjacent, as mode_coefficients orders it
    big = np.kron(L.real, np.eye(2)) + np.kron(L.imag, [[0.0, 1.0], [-1.0, 0.0]])
    lam, vecs = la.eig(big)
    assert la.cond(vecs) < 1e8   # diagonalizable for this background

    eps = 1e-7
    x = g.meshes()[0]
    basis = (np.cos(x) * np.ones(g.shape), np.sin(x) * np.ones(g.shape))

    def perturbed():
        st = copied(base)
        st.v[0] += eps * basis[0]
        st.p += eps * 0.5 * basis[1]
        return st

    def deviation(st):
        return [f - f0 for f, f0 in zip(st.fields, base.fields)]

    coef0 = mode_coefficients(deviation(perturbed()), basis)
    defects = []
    for dt in (0.2, 0.1):
        st = step_rk4(perturbed(), dt, p)
        got = mode_coefficients(deviation(st), basis)
        expm = (vecs @ np.diag(np.exp(lam * dt)) @ la.inv(vecs)).real
        defects.append(la.norm(got - expm @ coef0))
    ratio = defects[0] / defects[1]
    assert 20.0 < ratio < 45.0          # dt^5 scaling of the one-step defect
    assert defects[0] < 1e-3 * eps      # and it is tiny to begin with


# -- gauge handling --------------------------------------------------------------

def _rk4_field_by_field(state, dt, params, source=None):
    """Classical RK4 with every field written out by name."""
    def deriv(s, t):
        d = compute_rhs(s, params)
        if source is not None:
            sa, sv, srho, sp = source(s.grid, t)
            d = Rhs(d.mag + sa, d.v + sv, d.rho + srho, d.p + sp)
        return d

    def shift(s, c, k):
        return s.with_fields(s.mag + c * k.mag, s.v + c * k.v,
                             s.rho + c * k.rho, s.p + c * k.p, s.t)

    t0 = state.t
    k1 = deriv(state, t0)
    k2 = deriv(shift(state, 0.5 * dt, k1), t0 + 0.5 * dt)
    k3 = deriv(shift(state, 0.5 * dt, k2), t0 + 0.5 * dt)
    k4 = deriv(shift(state, dt, k3), t0 + dt)
    w = dt / 6.0
    return state.with_fields(
        state.mag + w * (k1.mag + 2.0 * k2.mag + 2.0 * k3.mag + k4.mag),
        state.v + w * (k1.v + 2.0 * k2.v + 2.0 * k3.v + k4.v),
        state.rho + w * (k1.rho + 2.0 * k2.rho + 2.0 * k3.rho + k4.rho),
        state.p + w * (k1.p + 2.0 * k2.p + 2.0 * k3.p + k4.p),
        t0 + dt,
    )


@pytest.mark.parametrize("scenario,formulation", [
    ("random_solenoidal", Formulation.MODIFIED),
    ("random_solenoidal", Formulation.TRADITIONAL),
    ("manufactured", Formulation.MODIFIED),
    ("manufactured", Formulation.TRADITIONAL),
])
def test_step_rk4_matches_written_out_combination_bitwise(scenario, formulation):
    if scenario == "random_solenoidal":
        case = random_solenoidal(cube(16), formulation, seed=3)
    else:
        case = manufactured(cube(8), formulation)
    params = PhysParams(gauge=GaugePolicy.off())
    got = want = case.state
    for _ in range(2):
        dt = cfl_dt(got, params)
        got = step_rk4(got, dt, params, source=case.source)
        want = _rk4_field_by_field(want, dt, params, source=case.source)
        assert got.t == want.t
        for f, g in zip(got.fields, want.fields):
            assert np.array_equal(f, g)


def _h_form_rhs(fields, h0, g, params):
    """Traditional ideal MHD in H: dH/dt = curl(v x H_tot), force curl H x H_tot / 4 pi."""
    h, v, rho, p = fields
    o = params.stencil_order
    h_tot = h + h0[:, None, None, None]
    dh = ops.curl(ops.cross(v, h_tot), g, o)
    force = ops.cross(ops.curl(h, g, o), h_tot) / (4.0 * np.pi)
    grad_p = ops.grad(p, g, o)
    dv = -ops.advect(v, v, g, o) - grad_p / rho + force / rho
    drho = -ops.div(rho * v, g, o)
    dp = -ops.dot(v, grad_p) - params.gamma * p * ops.div(v, g, o)
    return dh, dv, drho, dp


@pytest.mark.parametrize("order", [2, 4])
def test_traditional_run_in_a_matches_the_h_form(order):
    # the traditional system evolves A with dA/dt = v x H and the force
    # j x H; its H = curl A follows ideal MHD written in H
    params = PhysParams(stencil_order=order, gauge=GaugePolicy.off())
    g = cube(16)
    st = random_solenoidal(g, Formulation.TRADITIONAL, amplitude=0.1,
                           seed=3, order=order).state
    h0 = st.bg.uniform_field
    ref = (ops.curl(st.mag, g, order), st.v, st.rho, st.p)
    h_start = ref[0]
    dt = 0.5 * cfl_dt(st, params)

    def shift(c, k):
        return tuple(f + c * d for f, d in zip(ref, k))

    for _ in range(40):
        st = step_rk4(st, dt, params)
        k1 = _h_form_rhs(ref, h0, g, params)
        k2 = _h_form_rhs(shift(0.5 * dt, k1), h0, g, params)
        k3 = _h_form_rhs(shift(0.5 * dt, k2), h0, g, params)
        k4 = _h_form_rhs(shift(dt, k3), h0, g, params)
        ref = tuple(f + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                    for f, a, b, c, d in zip(ref, k1, k2, k3, k4))
    got = (ops.curl(st.mag, g, order), st.v, st.rho, st.p)
    for name, f, r in zip(("H", "v", "rho", "P"), got, ref):
        assert ops.max_norm(f - r) <= 1e-13 * ops.max_norm(r), name
    # the run moved H by far more than the tolerance
    assert ops.max_norm(got[0] - h_start) > 1e-3 * ops.max_norm(h_start)


def test_enforce_gauge_removes_injected_gradient():
    g = cube(16)
    x, _, _ = g.meshes()
    st = _rest_state(g)
    a = full_vector(g, (0.0, np.sin(x), 0.3 * np.sin(x)))
    st = st.with_fields(a, st.v, st.rho, st.p, 0.0)
    h_before = h_from_a(st.mag, st.bg, g)
    dirty = st.with_fields(a + ops.grad(np.sin(x) + np.zeros(g.shape), g),
                           st.v, st.rho, st.p, 0.0)
    clean, drift = enforce_gauge(dirty, PhysParams())
    assert drift > 0.1   # the injected gradient is macroscopic
    assert ops.l2_norm(ops.div(clean.mag, g), g) < 1e-9
    h_after = h_from_a(clean.mag, clean.bg, g)
    assert ops.max_norm(h_after - h_before) < 1e-12


def test_enforce_gauge_noop_on_solenoidal():
    g = cube(16)
    x, _, _ = g.meshes()
    st = _rest_state(g)
    a = full_vector(g, (0.0, np.sin(x), 0.0))
    st = st.with_fields(a, st.v, st.rho, st.p, 0.0)
    out, drift = enforce_gauge(st, PhysParams())
    assert drift < 1e-12
    assert np.array_equal(out.mag, a)


def test_enforce_gauge_keeps_traditional_h():
    # a traditional state carries A too; projecting it moves H by roundoff only
    g = cube(16)
    st = random_solenoidal(g, Formulation.TRADITIONAL, amplitude=0.3).state
    x, y, _ = g.meshes()
    dirty = st.with_fields(st.mag + ops.grad(np.sin(x) * np.cos(y) + np.zeros(g.shape), g),
                           st.v, st.rho, st.p, 0.0)
    clean, drift = enforce_gauge(dirty, PhysParams())
    assert clean.formulation is Formulation.TRADITIONAL
    assert drift > 0.1
    assert ops.l2_norm(ops.div(clean.mag, g), g) < 1e-9
    h_clean, h_st = (h_from_a(s.mag, s.bg, g) for s in (clean, st))
    assert ops.max_norm(h_clean - h_st) < 1e-12


@pytest.mark.parametrize("policy", [
    GaugePolicy.every_step(), GaugePolicy.off(), GaugePolicy.every_n(3),
], ids=["every_step", "off", "every_n_3"])
def test_run_projects_after_the_steps_its_policy_names(policy):
    st = random_solenoidal(cube(8), Formulation.MODIFIED, amplitude=0.05).state
    params = PhysParams(gauge=policy)
    scale = ops.l2_norm(st.mag, st.grid)
    dt = cfl_dt(st, params)
    _, records = run(st, params, 6.5 * dt, out_every=1)
    assert len(records) == 8   # the start and seven completed steps
    for step, rec in enumerate(records):
        if step > 0 and policy.due(step):
            assert rec.divA_l2 <= 1e-10 * scale
            assert rec.gauge_drift > rec.divA_l2
        else:
            assert rec.gauge_drift == rec.divA_l2
    # the projection is run's: step_rk4 alone never reads the policy
    p_off = PhysParams(gauge=GaugePolicy.off())
    for f, g in zip(step_rk4(st, dt, params).fields, step_rk4(st, dt, p_off).fields):
        assert np.array_equal(f, g)


def test_gauge_split_is_first_order_in_time():
    # RK4 alone converges at order 4; a projection after every step is an
    # operator splitting (the modified force reads the gauge of A), which
    # brings the scheme down to order 1
    st0 = random_solenoidal(cube(8), Formulation.MODIFIED, amplitude=0.5).state
    params = PhysParams(gauge=GaugePolicy.off())
    t_end = 0.2

    def velocity(n_steps, project):
        st = st0
        for _ in range(n_steps):
            st = step_rk4(st, t_end / n_steps, params)
            if project:
                st, _ = enforce_gauge(st, params)
        return st.v

    for project, order in ((False, 4.0), (True, 1.0)):
        v = [velocity(n, project) for n in (5, 10, 20, 40)]
        diffs = [ops.l2_norm(a - b, st0.grid) for a, b in zip(v, v[1:])]
        for coarse, fine in zip(diffs, diffs[1:]):
            assert np.log2(coarse / fine) == pytest.approx(order, abs=0.3)


def test_gauge_policy_is_one_interval():
    assert GaugePolicy.every_step() == GaugePolicy.every_n(1) == GaugePolicy()
    assert not any(GaugePolicy.off().due(k) for k in range(6))
    with pytest.raises(ValueError):
        GaugePolicy.every_n(0)
    with pytest.raises(ValueError):
        GaugePolicy(-1)


# -- run() ------------------------------------------------------------------------

def test_run_zero_duration():
    g = cube(8)
    st = _rest_state(g)
    final, recs = run(st, PhysParams(), t_end=0.0)
    assert len(recs) == 1
    assert final.t == 0.0
    assert recs[0].entropy == 0.0


def test_run_rejects_bad_arguments():
    st = _rest_state(cube(8))
    with pytest.raises(ValueError):
        run(st, PhysParams(), t_end=-1.0)
    with pytest.raises(ValueError):
        run(st, PhysParams(), t_end=1.0, out_every=0)
    with pytest.raises(ValueError, match="at least 8 points"):
        run(_rest_state(cube(6)), PhysParams(stencil_order=4), t_end=1.0)


@pytest.mark.parametrize("t0,t_end", [(0.0, np.nan), (0.0, np.inf), (np.nan, 1.0)],
                         ids=["t_end_nan", "t_end_inf", "t0_nan"])
def test_run_refuses_non_finite_times(t0, t_end):
    # a nan time ended the run at once with one record; inf never clips
    st = _rest_state(cube(8))
    st = st.with_fields(*st.fields, t=t0)

    def started(*args):
        raise AssertionError("the run started")

    with pytest.raises(ValueError, match="times must be finite"):
        run(st, PhysParams(), t_end=t_end, on_record=started, on_step=started)


def test_run_record_cadence():
    g = cube(8)
    st = _rest_state(g)
    p = PhysParams()
    dt = cfl_dt(st, p)
    final, recs = run(st, p, t_end=9.5 * dt)
    assert len(recs) == 11   # initial + one per step, 10 steps
    assert final.t == pytest.approx(9.5 * dt)
    assert recs[-1].t == final.t

    _, sparse = run(st, p, t_end=9.5 * dt, out_every=4)
    # records at t=0, steps 4 and 8, and the clipped final step
    assert len(sparse) == 4


def test_run_fixed_point_conservation():
    g = cube(8)
    st = uniform_rest(g, Formulation.TRADITIONAL, rho0=1.3, p0=0.9,
                      b0x=0.5).state
    p = PhysParams()
    dt = cfl_dt(st, p)
    _, recs = run(st, p, t_end=99.5 * dt)
    mass = np.array([r.mass for r in recs])
    etot = np.array([r.e_tot for r in recs])
    assert np.abs(mass / mass[0] - 1.0).max() <= 1e-12
    assert np.abs(etot / etot[0] - 1.0).max() <= 1e-12


def test_run_callbacks_and_final_time():
    g = cube(8)
    case = sound_wave(g, Formulation.MODIFIED, delta=1e-4)
    seen_steps, seen_records = [], []
    final, recs = run(case.state, PhysParams(), t_end=0.21,
                      on_step=lambda s, i: seen_steps.append((i, s.t)),
                      on_record=lambda s, r: seen_records.append(r.t))
    assert final.t == 0.21   # clipped exactly
    assert seen_steps[0] == (0, 0.0)
    assert seen_steps[-1][1] == 0.21
    assert seen_records == [r.t for r in recs]


def test_run_flushes_records_on_failure():
    # a strongly nonlinear sound wave steepens until P goes negative
    g = slab(32)
    case = sound_wave(g, Formulation.TRADITIONAL, delta=0.5)
    with pytest.raises(SimulationError) as info:
        run(case.state, PhysParams(), t_end=6.0)
    assert len(info.value.records) > 5
    assert "P" in str(info.value)


def test_step_rk4_refuses_an_invalid_result():
    # the stage states are valid; only the final combination is not
    st = sound_wave(cube(8), Formulation.MODIFIED).state
    p = PhysParams()
    with pytest.raises(StateInvalidError) as info:
        step_rk4(st, cfl_dt(st, p), p, source=pressure_sink_at(4))
    assert info.value.quantity == "P"


@pytest.mark.parametrize("steps", [5.5, 1.9])
def test_run_refuses_an_invalid_final_rk4_combination(steps):
    # step 2's last source term drives P negative in its final combination
    # only: the run stops there, on the records of the steps before it,
    # whether more steps would follow (5.5) or step 2 is the last (1.9)
    case = sound_wave(cube(8), Formulation.MODIFIED)
    p = PhysParams()
    t_end = steps * cfl_dt(case.state, p)
    with pytest.raises(SimulationError, match="P must be strictly positive") as info:
        run(case.state, p, t_end=t_end, source=pressure_sink_at(8))
    _, ok = run(case.state, p, t_end=t_end)
    assert info.value.records == ok[:2]


def test_run_entropy_shifted_to_zero_start():
    g = cube(8)
    case = sound_wave(g, Formulation.MODIFIED, delta=1e-3)
    _, recs = run(case.state, PhysParams(), t_end=0.1)
    assert recs[0].entropy == 0.0


def test_run_failure_reports_entropy_drift():
    # the source poisons the pressure in the first stage of step 3
    g = cube(8)
    case = sound_wave(g, Formulation.MODIFIED, delta=1e-3)
    p = PhysParams()
    t_end = 5.5 * cfl_dt(case.state, p)
    calls = []

    def source(grid, t):
        calls.append(t)
        zero = np.zeros(grid.shape)
        dp = np.full(grid.shape, np.nan) if len(calls) > 8 else zero
        return np.zeros(grid.vshape), np.zeros(grid.vshape), zero, dp

    seen = []
    with pytest.raises(SimulationError) as info:
        run(case.state, p, t_end=t_end, source=source,
            on_record=lambda s, r: seen.append(r.entropy))
    recs = info.value.records
    assert len(recs) == 3
    assert recs[0].entropy == 0.0
    assert seen == [r.entropy for r in recs]
    # same meaning as on the success path
    _, ok = run(case.state, p, t_end=t_end)
    assert [r.entropy for r in recs] == [r.entropy for r in ok[:3]]


# -- the allocator pin ------------------------------------------------------------

@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mallopt")
def test_pinned_allocator_keeps_freed_field_memory():
    # six 1 MiB fields freed together and allocated again reuse the same
    # pages; with glibc's default thresholds they are unmapped or trimmed
    # and faulted back in (256 pages each, every round)
    def churn(rounds):
        for _ in range(rounds):
            fields = [np.ones(1 << 17) for _ in range(6)]
            del fields

    dynamics._keep_freed_heap()
    churn(2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    churn(10)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 256


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mallopt")
def test_pinned_allocator_keeps_a_freed_heap_top_above_64_mib():
    # ten 8 MiB fields freed together and allocated again: 80 MiB at the
    # heap top outgrows a 64 MiB trim threshold, as 64^3 runs do, which
    # trims them and faults them back in (40880 faults over 10 rounds)
    def churn(rounds):
        for _ in range(rounds):
            fields = [np.ones(1 << 20) for _ in range(10)]
            del fields

    dynamics._keep_freed_heap()
    churn(2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    churn(10)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2048


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mallopt")
def test_library_run_pins_the_allocator():
    # both churns above, after a tiny run in a fresh interpreter, so that
    # no earlier test has pinned the allocator already
    code = (
        "import resource\n"
        "import modmhd\n"
        "import numpy as np\n"
        "g = modmhd.GridSpec(8, 8, 8, 1.0, 1.0, 1.0)\n"
        "st = modmhd.uniform_rest(g, modmhd.Formulation.MODIFIED).state\n"
        "modmhd.run(st, modmhd.PhysParams(), t_end=0.01)\n"
        "def churn(rounds, count, size):\n"
        "    for _ in range(rounds):\n"
        "        fields = [np.ones(size) for _ in range(count)]\n"
        "        del fields\n"
        "for count, size in ((6, 1 << 17), (10, 1 << 20)):\n"
        "    churn(2, count, size)\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    churn(10, count, size)\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    small, large = map(int, proc.stdout.split())
    assert small < 256, proc.stdout
    assert large < 2048, proc.stdout
