"""State validation, the shared RHS, RK4, gauge policy, and run()."""

import os
import platform
import resource
import subprocess
import sys
import threading
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

from conftest import cube, slab


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
    shown = {"mag": "A" if formulation is Formulation.MODIFIED else "H", "p": "P"}
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
    dup = st.copy()
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
    # with A = 0 or H = 0 and a zero background, the two systems
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
    # traditional: 6 + 6 for its two curls
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


# -- the two-thread RHS ----------------------------------------------------------

def _overlap_case(formulation, order):
    """A state on a grid above the two-thread threshold, with a background."""
    g = GridSpec(40, 36, 24, 1.0, 2.5, 7.0)
    assert g.npoints > dynamics._OVERLAP_MIN_POINTS
    return random_solenoidal(g, formulation, b0=0.5, amplitude=0.3,
                             seed=2, order=order).state


def _record_half_threads(monkeypatch):
    """Spy on the thread that computes the induction/force half."""
    threads = []
    inner = dynamics._induction_and_force

    def spy(state, params):
        threads.append(threading.current_thread())
        return inner(state, params)

    monkeypatch.setattr(dynamics, "_induction_and_force", spy)
    return threads


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("formulation", list(Formulation))
def test_threaded_rhs_matches_inline_bitwise(formulation, order, monkeypatch):
    st = _overlap_case(formulation, order)
    params = PhysParams(stencil_order=order)
    threads = _record_half_threads(monkeypatch)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    threaded = compute_rhs(st, params)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 1)
    inline = compute_rhs(st, params)
    main = threading.main_thread()
    assert threads[0] is not main and threads[1] is main
    assert ops.max_norm(inline.mag) > 0.0 and ops.max_norm(inline.v) > 0.0
    for got, want in zip(threaded, inline):
        assert np.array_equal(got, want)


def test_rhs_helper_failure_propagates_and_leaves_no_thread(monkeypatch):
    st = _overlap_case(Formulation.TRADITIONAL, 2)
    params = PhysParams()
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    compute_rhs(st, params)
    assert threading.active_count() == before

    raised_in = []

    def broken_cross(u, v):
        raised_in.append(threading.current_thread())
        raise RuntimeError("cross failed")

    monkeypatch.setattr(ops, "cross", broken_cross)
    with pytest.raises(RuntimeError, match="cross failed"):
        compute_rhs(st, params)
    assert raised_in and raised_in[0] is not threading.main_thread()
    assert threading.active_count() == before


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
    st = st0.copy()
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
        st = base.copy()
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


def test_enforce_gauge_removes_injected_gradient():
    g = cube(16)
    x, _, _ = g.meshes()
    st = _rest_state(g)
    a = full_vector(g, (0.0, np.sin(x), 0.3 * np.sin(x)))
    st = st.with_fields(a, st.v, st.rho, st.p, 0.0)
    h_before = st.h_total()
    dirty = st.with_fields(a + ops.grad(np.sin(x) + np.zeros(g.shape), g),
                           st.v, st.rho, st.p, 0.0)
    clean, drift = enforce_gauge(dirty, PhysParams())
    assert drift > 0.1   # the injected gradient is macroscopic
    assert ops.l2_norm(ops.div(clean.mag, g), g) < 1e-9
    h_after = clean.h_total()
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


def test_enforce_gauge_traditional_rejected():
    st = _rest_state(cube(8), Formulation.TRADITIONAL)
    with pytest.raises(ValueError):
        enforce_gauge(st, PhysParams())


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
def test_library_run_pins_the_allocator():
    # the churn above, after a tiny run in a fresh interpreter, so that no
    # earlier test has pinned the allocator already
    code = (
        "import resource\n"
        "import modmhd\n"
        "import numpy as np\n"
        "g = modmhd.GridSpec(8, 8, 8, 1.0, 1.0, 1.0)\n"
        "st = modmhd.uniform_rest(g, modmhd.Formulation.MODIFIED).state\n"
        "modmhd.run(st, modmhd.PhysParams(), t_end=0.01)\n"
        "def churn(rounds):\n"
        "    for _ in range(rounds):\n"
        "        fields = [np.ones(1 << 17) for _ in range(6)]\n"
        "        del fields\n"
        "churn(2)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "churn(10)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 256, proc.stdout
