"""Initial-condition builders and the manufactured-solution machinery."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import modmhd.operators as ops
import modmhd.scenarios as scenarios
from modmhd import (
    Formulation,
    GridSpec,
    PhysParams,
    SCENARIO_DEFAULTS,
    alfven_wave,
    build_scenario,
    compute_rhs,
    diagnostics,
    fit_order,
    h_from_a,
    manufactured,
    orszag_tang_like,
    random_solenoidal,
    run,
    sound_wave,
    uniform_rest,
)
from modmhd.grid import full_vector
from modmhd.projection import helmholtz_project

from conftest import TWO_PI, cube, slab


def test_uniform_rest_is_fixed_point_both_ways():
    g = cube(8)
    for form in Formulation:
        case = uniform_rest(g, form, rho0=2.0, p0=3.0, b0x=0.1, b0y=0.2, b0z=0.3)
        rhs = compute_rhs(case.state, PhysParams())
        assert all(np.all(part == 0.0) for part in rhs)
        # exact callback reproduces the state at any time
        again = case.exact(g, 7.0)
        assert np.array_equal(again.mag, case.state.mag)


def test_uniform_rest_validates_positivity():
    g = cube(8)
    with pytest.raises(ValueError):
        uniform_rest(g, rho0=0.0)
    with pytest.raises(ValueError):
        uniform_rest(g, p0=-1.0)


def test_uniform_rest_magnetic_energy():
    g = cube(8)
    b0 = 0.6
    case = uniform_rest(g, Formulation.TRADITIONAL, b0x=b0)
    rec = diagnostics(case.state, PhysParams())
    vol = TWO_PI ** 3
    assert rec.e_mag == pytest.approx(vol * b0 ** 2 / (8.0 * np.pi), rel=1e-12)
    zero = uniform_rest(g, Formulation.TRADITIONAL)
    assert diagnostics(zero.state, PhysParams()).e_mag == 0.0


# -- Alfven wave ---------------------------------------------------------------

def test_alfven_rejects_zero_mode():
    for builder in (alfven_wave, sound_wave):
        with pytest.raises(ValueError, match="mode must be a nonzero integer"):
            builder(cube(8), mode=0)


def test_alfven_warns_on_nonlinear_amplitude():
    for builder in (alfven_wave, sound_wave):
        with pytest.warns(UserWarning, match="strongly nonlinear"):
            builder(cube(8), delta=1.5)


def test_alfven_zero_amplitude_is_uniform_rest():
    g = cube(8)
    case = alfven_wave(g, Formulation.TRADITIONAL, delta=0.0)
    rest = uniform_rest(g, Formulation.TRADITIONAL, p0=0.6, b0x=1.0)
    assert np.array_equal(case.state.h_total(), rest.state.h_total())
    assert np.all(case.state.v == 0.0)


def test_alfven_potential_encodes_target_field():
    # curl(A) + H0 must reproduce the continuum wave's H at the stencil's
    # order, in both twins, which carry the same A
    errs, spacings = [], []
    for n in (16, 32, 64):
        g = slab(n)
        case = alfven_wave(g, Formulation.MODIFIED, delta=1e-3)
        twin = alfven_wave(g, Formulation.TRADITIONAL, delta=1e-3).state
        assert np.array_equal(twin.mag, case.state.mag)
        x = g.meshes()[0]
        h_want = full_vector(g, (1.0, 1e-3 * np.cos(x), 1e-3 * np.sin(x)))
        h = h_from_a(case.state.mag, case.state.bg, g)
        errs.append(ops.max_norm(h - h_want))
        spacings.append(g.hx)
    assert fit_order(spacings, errs) == pytest.approx(2.0, abs=0.2)


def test_alfven_exact_callback_only_for_traditional():
    g = slab(16)
    assert alfven_wave(g, Formulation.TRADITIONAL).exact is not None
    assert alfven_wave(g, Formulation.MODIFIED).exact is None


def test_alfven_exact_solution_translates():
    g = slab(16)
    case = alfven_wave(g, Formulation.TRADITIONAL, delta=1e-3)
    va = 1.0 / np.sqrt(4.0 * np.pi)
    later = case.exact(g, TWO_PI / va)   # one period
    assert ops.max_norm(later.mag - case.state.mag) < 1e-12
    assert np.array_equal(later.rho, case.state.rho)


# -- sound wave ------------------------------------------------------------------

def test_sound_wave_zero_amplitude_fixed_point():
    g = cube(8)
    case = sound_wave(g, delta=0.0)
    rhs = compute_rhs(case.state, PhysParams())
    assert all(np.all(part == 0.0) for part in rhs)


def test_sound_wave_formulations_agree_exactly():
    # with A = 0 the magnetic terms vanish identically, so modified and
    # traditional trajectories coincide bitwise
    g = slab(32)
    p = PhysParams()
    fin_m, _ = run(sound_wave(g, Formulation.MODIFIED, delta=1e-4).state,
                   p, t_end=0.5)
    fin_t, _ = run(sound_wave(g, Formulation.TRADITIONAL, delta=1e-4).state,
                   p, t_end=0.5)
    assert np.array_equal(fin_m.v, fin_t.v)
    assert np.array_equal(fin_m.rho, fin_t.rho)
    assert np.array_equal(fin_m.p, fin_t.p)


def test_sound_wave_phase_speed():
    g = slab(64)
    delta = 1e-4
    case = sound_wave(g, Formulation.MODIFIED, delta=delta)
    cs = np.sqrt(5.0 / 3.0)
    x = g.meshes()[0][:, 0, 0]
    phases, times = [], []

    def grab(state, step):
        prof = (state.rho - 1.0).mean(axis=(1, 2))
        coef = (prof * np.exp(-1j * x)).mean()
        phases.append(np.angle(coef))
        times.append(state.t)

    run(case.state, PhysParams(), t_end=1.5, on_step=grab)
    slope = np.polyfit(times, np.unwrap(phases), 1)[0]
    # rho ~ sin(k(x - cs t)): phase of the e^{ikx} coefficient is -pi/2 - cs t
    assert abs(-slope - cs) / cs < 0.01


def test_sound_wave_exact_callback():
    g = slab(16)
    case = sound_wave(g, delta=1e-3)
    assert case.exact is not None
    t0 = case.exact(g, 0.0)
    assert np.array_equal(t0.rho, case.state.rho)


# -- random solenoidal -------------------------------------------------------------

def test_random_solenoidal_deterministic():
    g = cube(16)
    a = random_solenoidal(g, seed=123).state
    b = random_solenoidal(g, seed=123).state
    assert np.array_equal(a.mag, b.mag)
    assert np.array_equal(a.v, b.v)
    c = random_solenoidal(g, seed=124).state
    assert not np.array_equal(a.mag, c.mag)


def test_random_solenoidal_divergence_free():
    g = cube(16)
    st = random_solenoidal(g, amplitude=0.1).state
    scale = ops.l2_norm(st.mag, g)
    assert ops.l2_norm(ops.div(st.mag, g), g) <= 1e-10 * scale


def test_random_solenoidal_negative_amplitude_is_projected():
    # the sign flips every coefficient; A must still be divergence-free
    g = cube(16)
    st = random_solenoidal(g, amplitude=-0.05).state
    scale = ops.l2_norm(st.mag, g)
    assert ops.l2_norm(ops.div(st.mag, g), g) <= 1e-10 * scale


def test_random_solenoidal_zero_amplitude():
    g = cube(8)
    st = random_solenoidal(g, amplitude=0.0, b0=0.25).state
    rest = uniform_rest(g, Formulation.MODIFIED, b0x=0.25).state
    assert np.array_equal(st.mag, rest.mag)
    assert np.array_equal(st.v, rest.v)


def test_random_solenoidal_validation():
    with pytest.raises(ValueError):
        random_solenoidal(cube(8), k_max=0)


def _reference_random_fields(grid, amplitude, k_max, seed):
    """A and v as explicit cos/sin sums over the modes, one full grid per mode."""
    rng = np.random.default_rng(seed)
    x, y, z = grid.meshes()
    kset = [(i, j, l)
            for i in range(-k_max, k_max + 1)
            for j in range(-k_max, k_max + 1)
            for l in range(-k_max, k_max + 1)
            if (i, j, l) != (0, 0, 0)]

    def draw_field():
        field = np.zeros(grid.vshape)
        for i, j, l in kset:
            phase = (2.0 * np.pi * i / grid.lx * x + 2.0 * np.pi * j / grid.ly * y
                     + 2.0 * np.pi * l / grid.lz * z)
            coef = rng.standard_normal((2, 3)) * (amplitude / (1.0 + (i * i + j * j + l * l)))
            for c in range(3):
                field[c] += coef[0, c] * np.cos(phase) + coef[1, c] * np.sin(phase)
        return field

    return draw_field(), draw_field()      # A first, then v


NON_2PI_GRID = GridSpec(12, 10, 9, 1.0, 2.5, 7.0)


# on the 4-point axes the |m| = 2 modes alias onto each other
@pytest.mark.parametrize("grid", [cube(8), NON_2PI_GRID, cube(4)])
def test_random_solenoidal_matches_mode_loop(grid):
    a_ref, v_ref = _reference_random_fields(grid, 0.05, 2, seed=11)
    st = random_solenoidal(grid, amplitude=0.05, k_max=2, seed=11).state
    a_want, _ = helmholtz_project(a_ref, grid, 2)
    for got, want in ((st.v, v_ref), (st.mag, a_want)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _energy_outside_band(field, k_max):
    # share of the spectral energy at integer mode numbers |m_i| > k_max
    spec = np.abs(np.fft.fftn(field, axes=(-3, -2, -1))) ** 2
    m = [np.abs(np.fft.fftfreq(n, 1.0 / n)) for n in field.shape[-3:]]
    inside = ((m[0][:, None, None] <= k_max) & (m[1][None, :, None] <= k_max)
              & (m[2][None, None, :] <= k_max))
    return spec[..., ~inside].sum() / spec.sum()


def test_scenarios_are_band_limited_on_any_box():
    g = NON_2PI_GRID
    for form in Formulation:
        rs = random_solenoidal(g, form, k_max=2).state
        ot = orszag_tang_like(g, form).state
        mm = manufactured(g, form).state
        for field in (rs.mag, rs.v, ot.mag, ot.v, *mm.fields):
            assert _energy_outside_band(field, 2) <= 1e-28


def test_random_solenoidal_traditional_variant():
    # the traditional twin carries the modified twin's projected potential
    g = cube(16)
    st = random_solenoidal(g, Formulation.TRADITIONAL).state
    assert np.array_equal(st.mag, random_solenoidal(g, Formulation.MODIFIED).state.mag)
    assert ops.max_norm(ops.div(st.mag, g)) < 1e-12


# -- Orszag-Tang-like vortex ---------------------------------------------------------

def test_orszag_tang_two_dimensional():
    g = cube(16)
    st = orszag_tang_like(g).state
    for arr in (st.mag, st.v):
        assert np.all(arr == arr[..., :1])   # constant along z
    assert np.all(st.rho == st.rho[..., :1])


def test_orszag_tang_field_matches_potential():
    # the stencil curl of A_z approaches the hand-derived H = (dAz/dy, -dAz/dx, 0)
    errs, spacings = [], []
    for n in (16, 32):
        g = cube(n)
        x, y, _ = g.meshes()
        a = orszag_tang_like(g, formulation=Formulation.TRADITIONAL).state.mag
        h = full_vector(g, (-0.2 * np.sin(2.0 * y), 0.2 * np.sin(x), 0.0))
        errs.append(ops.max_norm(ops.curl(a, g) - h))
        spacings.append(g.hx)
    assert fit_order(spacings, errs) == pytest.approx(2.0, abs=0.3)


@pytest.mark.parametrize("order", [2, 4])
def test_orszag_tang_modified_force_is_zero(order):
    # A = A_z(x, y) z: j is along z and A + A0 does not vary along z, so
    # -(j.grad)(A + A0) vanishes; the Lorentz force of the twin does not
    g = GridSpec(32, 32, 4, TWO_PI, TWO_PI, TWO_PI)
    params = PhysParams(stencil_order=order)

    def force(state):
        """The force density: rho times what A adds to dv/dt.

        v is set to zero and P is uniform, so the fluid lines of dv/dt are
        exactly zero and a force of any size, however small, shows.
        """
        assert np.all(state.bg.matrix == 0.0) and np.all(state.p == state.p.flat[0])
        state = replace(state, v=np.zeros(g.vshape))
        bare = replace(state, mag=np.zeros(g.vshape))
        return (compute_rhs(state, params).v - compute_rhs(bare, params).v) * state.rho

    forces = {form: force(orszag_tang_like(g, form).state) for form in Formulation}
    assert np.all(forces[Formulation.MODIFIED] == 0.0)
    assert ops.max_norm(forces[Formulation.TRADITIONAL]) > 5e-3


def test_orszag_tang_on_2pi_box_is_unchanged():
    # on a 2 pi box the wavenumbers are exactly 1, so the fields keep the
    # bits of the plain cos x / cos 2y formulas
    g = cube(16)
    x, y, _ = g.meshes()
    a0, v0 = 0.2, 0.3
    a = orszag_tang_like(g, Formulation.MODIFIED, a0=a0, v0=v0).state
    twin = orszag_tang_like(g, Formulation.TRADITIONAL, a0=a0, v0=v0).state
    assert np.array_equal(a.mag[2], np.broadcast_to(
        a0 * (np.cos(2.0 * y) / 2.0 + np.cos(x)), g.shape))
    assert np.array_equal(a.v[0], np.broadcast_to(-v0 * np.sin(y), g.shape))
    assert np.array_equal(a.v[1], np.broadcast_to(v0 * np.sin(x), g.shape))
    assert not a.mag[:2].any() and not a.v[2].any()
    for got, want in zip(twin.fields, a.fields):
        assert np.array_equal(got, want)


def test_orszag_tang_mass():
    g = cube(16)
    rho0 = 1.4
    rec = diagnostics(orszag_tang_like(g, rho0=rho0).state, PhysParams())
    assert rec.mass == pytest.approx(rho0 * TWO_PI ** 3, rel=1e-12)


# -- manufactured solution ------------------------------------------------------------

@pytest.mark.parametrize("formulation", list(Formulation))
def test_manufactured_state_matches_exact_at_t0(formulation):
    g = cube(16)
    case = manufactured(g, formulation)
    ref = case.exact(g, 0.0)
    assert np.array_equal(case.state.mag, ref.mag)
    assert np.array_equal(case.state.v, ref.v)
    assert case.source is not None


# the 2 pi cube at order 2 keeps the plain formulation id
@pytest.mark.parametrize("formulation,grid,order", [
    pytest.param(form, grid, order,
                 id=f"{form}{tag}" + ("" if order == 2 else f"-order{order}"))
    for form in Formulation
    for grid, tag in ((cube(12), ""), (NON_2PI_GRID, "-box"))
    for order in (2, 4)
])
def test_manufactured_residual_converges(formulation, grid, order):
    # d/dt exact - [RHS(exact) + source] should vanish at the stencil order;
    # the time derivative is approximated spectrally accurately in time by a
    # tiny centered difference of the closed form
    p = PhysParams(stencil_order=order)
    tau = 1e-5
    errs, spacings = [], []
    for g in (grid, replace(grid, nx=2 * grid.nx, ny=2 * grid.ny, nz=2 * grid.nz)):
        case = manufactured(g, formulation)
        t0 = 0.3
        st = case.exact(g, t0)
        rhs = compute_rhs(st, p)
        src = case.source(g, t0)
        fwd, bwd = case.exact(g, t0 + tau), case.exact(g, t0 - tau)
        resid = 0.0
        for got_d, s, f, b in zip(rhs, src,
                                  (fwd.mag, fwd.v, fwd.rho, fwd.p),
                                  (bwd.mag, bwd.v, bwd.rho, bwd.p)):
            ddt = (f - b) / (2.0 * tau)
            resid = max(resid, ops.max_norm(got_d + s - ddt))
        errs.append(resid)
        spacings.append(g.hx)
    assert fit_order(spacings, errs) == pytest.approx(order, abs=0.35)


@pytest.mark.parametrize("formulation", list(Formulation))
def test_manufactured_rejects_a_foreign_grid(formulation):
    g = cube(8)
    case = manufactured(g, formulation)
    for other in (cube(16), cube(8, length=1.0)):
        for call in (case.exact, case.source):
            with pytest.raises(ValueError) as info:
                call(other, 0.3)
            assert repr(g) in str(info.value) and repr(other) in str(info.value)


def test_no_sympy_at_run_time():
    # numpy is the only runtime dependency: importing the package and the
    # CLI and building every scenario must not pull in sympy
    code = (
        "import math, sys\n"
        "import modmhd, modmhd.cli\n"
        "g = modmhd.GridSpec(8, 8, 8, 2 * math.pi, 2 * math.pi, 2 * math.pi)\n"
        "for name in modmhd.SCENARIO_DEFAULTS:\n"
        "    for form in modmhd.Formulation:\n"
        "        modmhd.build_scenario(name, g, form)\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_manufactured_fields_are_positive():
    g = cube(16)
    for t in (0.0, 0.7, 2.0):
        st = manufactured(g, Formulation.MODIFIED).exact(g, t)
        assert st.rho.min() > 0.5
        assert st.p.min() > 0.5


# -- registry ---------------------------------------------------------------------------

def test_build_scenario_dispatch():
    g = cube(8)
    case = build_scenario("sound_wave", g, Formulation.MODIFIED,
                          {"delta": 1e-3, "mode": 2})
    assert case.exact is not None

    with pytest.raises(ValueError, match="unknown scenario"):
        build_scenario("vortex_sheet", g, Formulation.MODIFIED, {})
    with pytest.raises(ValueError, match="delta"):
        build_scenario("uniform_rest", g, Formulation.MODIFIED, {"delta": 0.1})


def test_scenario_defaults_cover_all_builders():
    g = cube(8)
    for name in SCENARIO_DEFAULTS:
        case = build_scenario(name, g, Formulation.MODIFIED,
                              dict(SCENARIO_DEFAULTS[name]))
        assert case.state.grid == g


@pytest.mark.parametrize("name", sorted(SCENARIO_DEFAULTS))
def test_both_formulations_share_one_background(name):
    # paired runs compare the two systems about one background; the b0 keys
    # are set off zero so that a dropped field would show
    params = {key: 0.7 for key in SCENARIO_DEFAULTS[name] if key.startswith("b0")}
    mod, trad = (build_scenario(name, cube(8), form, params).state
                 for form in (Formulation.MODIFIED, Formulation.TRADITIONAL))
    assert mod.bg == trad.bg


def test_build_scenario_coerces_parameter_types():
    g = cube(8)
    case = build_scenario("alfven_wave", g, Formulation.TRADITIONAL,
                          {"mode": 2.0, "b0": 1})   # float->int, int->float
    assert case.state is not None


@pytest.mark.parametrize("name,key,value", [
    ("alfven_wave", "mode", 2.7),
    ("sound_wave", "mode", -1.5),
    ("random_solenoidal", "k_max", True),
    ("alfven_wave", "mode", float("inf")),
], ids=["fraction", "negative-fraction", "bool", "inf"])
def test_build_scenario_rejects_non_integers_for_integer_parameters(name, key, value):
    # int(2.7) would silently build the mode-2 state
    with pytest.raises(ValueError, match=f"scenario.{key}: expected an integer"):
        build_scenario(name, cube(8), Formulation.MODIFIED, {key: value})


@pytest.mark.parametrize("name,key,value", [
    ("alfven_wave", "b0", True),
    ("sound_wave", "delta", None),
    ("random_solenoidal", "amplitude", "0.3"),
    ("orszag_tang_like", "v0", [1.0]),
], ids=["bool", "none", "string", "list"])
def test_build_scenario_rejects_non_numbers_for_float_parameters(name, key, value):
    # float(True) would silently build b0 = 1.0, which parse_config refuses
    with pytest.raises(ValueError, match=f"scenario.{key}: expected a number"):
        build_scenario(name, cube(8), Formulation.MODIFIED, {key: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_build_scenario_rejects_non_finite_float_parameters(value):
    with pytest.raises(ValueError, match="scenario.delta: expected a finite number"):
        build_scenario("alfven_wave", cube(8), Formulation.MODIFIED, {"delta": value})


def test_build_scenario_passes_the_run_settings_its_builder_takes():
    g = cube(8)
    built = build_scenario("sound_wave", g, Formulation.MODIFIED, {}, gamma=1.4).state
    assert np.array_equal(built.p, sound_wave(g, gamma=1.4).state.p)
    built = build_scenario("random_solenoidal", g, Formulation.MODIFIED, {},
                           seed=3, order=4).state
    direct = random_solenoidal(g, seed=3, order=4).state
    assert np.array_equal(built.mag, direct.mag)


# -- registry -------------------------------------------------------------------

@pytest.mark.parametrize("formulation", list(Formulation))
@pytest.mark.parametrize("name", sorted(SCENARIO_DEFAULTS))
def test_config_defaults_are_the_builders_defaults(name, formulation):
    # a config that sets no scenario.* key builds the builder's own defaults
    builder = getattr(scenarios, name)
    g = cube(8)
    built = build_scenario(name, g, formulation, {}).state
    direct = builder(g, formulation).state
    for a, b in zip(built.fields + (built.h_total(),),
                    direct.fields + (direct.h_total(),)):
        assert np.array_equal(a, b)
