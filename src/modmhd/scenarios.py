"""Initial-condition library for both formulations.

Each builder returns a CaseSetup: the initial SimState plus, where they
exist, a closed-form solution callback (for convergence studies) and a
manufactured source callback (added to the RHS each stage).

Amplitude conventions: perturbations are parameterized relative to their
background so linear-regime studies can use delta ~ 1e-4 while the
nonlinear workloads (orszag_tang_like, random_solenoidal) use O(1)
fields.  Everything lives on the periodic box.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import operators as ops
from .electromagnetics import FOUR_PI, BackgroundPotential
from .grid import GridSpec
from .params import Formulation
from .projection import helmholtz_project
from .state import SimState


@dataclass(frozen=True)
class CaseSetup:
    """A runnable scenario: initial state, optional exact solution/source."""

    state: SimState
    exact: Callable[[GridSpec, float], SimState] | None = None
    source: Callable[[GridSpec, float], tuple] | None = None


def _check_positive(**kw):
    for name, value in kw.items():
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")


def _mag_state(grid, formulation, v, rho, p, a, h, h0vec, t=0.0) -> SimState:
    if formulation is Formulation.MODIFIED:
        return SimState(grid, formulation, v, rho, p, t=t,
                        a=a, bg=BackgroundPotential.from_uniform_field(h0vec))
    return SimState(grid, formulation, v, rho, p, t=t,
                    h=h, h0=np.asarray(h0vec, dtype=float))


def uniform_rest(
    grid: GridSpec,
    formulation: Formulation = Formulation.MODIFIED,
    rho0: float = 1.0,
    p0: float = 1.0,
    b0: tuple = (0.0, 0.0, 0.0),
) -> CaseSetup:
    """Rest state with a uniform field: the fixed point of both systems."""
    _check_positive(rho0=rho0, p0=p0)

    def make(g: GridSpec, t: float) -> SimState:
        return _mag_state(
            g, formulation, np.zeros(g.vshape),
            np.full(g.shape, rho0), np.full(g.shape, p0),
            np.zeros(g.vshape), np.zeros(g.vshape), b0, t=t,
        )

    return CaseSetup(state=make(grid, 0.0), exact=make)


def alfven_wave(
    grid: GridSpec,
    formulation: Formulation = Formulation.TRADITIONAL,
    rho0: float = 1.0,
    p0: float = 0.6,
    b0: float = 1.0,
    delta: float = 1e-3,
    mode: int = 1,
) -> CaseSetup:
    """Circularly polarized wave along a mean field B0 x-hat.

    H = B0 x + delta*B0 (cos(kx) y + sin(kx) z), v = -H_perp/sqrt(4 pi rho0):
    the exact traveling-wave solution of traditional ideal MHD moving at
    +v_A (an exact nonlinear solution -- |H_perp| is constant, so there is
    no magnetic-pressure gradient).  The potential twin encodes the same
    physical H via A_perp = -(delta*B0/k)(cos(kx) y + sin(kx) z), which is
    exactly solenoidal (it varies along x only).  No exact solution is
    attached for the modified formulation: whether this wave form survives
    under the advective force is precisely what runs are meant to measure
    (linear theory says it will not -- transverse modes travel at
    v_A/sqrt(2) there).
    """
    _check_positive(rho0=rho0, p0=p0)
    if mode == 0:
        raise ValueError("mode must be a nonzero integer")
    if abs(delta) >= 1.0:
        warnings.warn("delta >= 1: strongly nonlinear regime", stacklevel=2)
    k = 2.0 * math.pi * mode / grid.lx
    v_a = b0 / math.sqrt(FOUR_PI * rho0)

    def make(g: GridSpec, t: float) -> SimState:
        x = g.meshes()[0]
        theta = k * (x - v_a * t)
        hp = np.zeros(g.vshape)
        hp[1] = delta * b0 * np.cos(theta)
        hp[2] = delta * b0 * np.sin(theta)
        ap = np.zeros(g.vshape)
        ap[1] = -(delta * b0 / k) * np.cos(theta)
        ap[2] = -(delta * b0 / k) * np.sin(theta)
        v = -hp / math.sqrt(FOUR_PI * rho0)
        return _mag_state(
            g, formulation, v, np.full(g.shape, rho0), np.full(g.shape, p0),
            ap, hp, (b0, 0.0, 0.0), t=t,
        )

    exact = make if formulation is Formulation.TRADITIONAL else None
    return CaseSetup(state=make(grid, 0.0), exact=exact)


def sound_wave(
    grid: GridSpec,
    formulation: Formulation = Formulation.MODIFIED,
    rho0: float = 1.0,
    p0: float = 1.0,
    gamma: float = 5.0 / 3.0,
    delta: float = 1e-4,
    mode: int = 1,
) -> CaseSetup:
    """Plane acoustic eigenmode along x with H = 0 (formulations coincide).

    The attached exact solution is the linear traveling wave, good to
    O(delta^2) -- keep delta small when using it as a reference.
    """
    _check_positive(rho0=rho0, p0=p0)
    if mode == 0:
        raise ValueError("mode must be a nonzero integer")
    if abs(delta) >= 1.0:
        warnings.warn("delta >= 1: strongly nonlinear regime", stacklevel=2)
    k = 2.0 * math.pi * mode / grid.lx
    c_s = math.sqrt(gamma * p0 / rho0)

    def make(g: GridSpec, t: float) -> SimState:
        x = g.meshes()[0]
        s = np.sin(k * (x - c_s * t)) + np.zeros(g.shape)
        v = np.zeros(g.vshape)
        v[0] = c_s * delta * s
        return _mag_state(
            g, formulation, v, rho0 * (1.0 + delta * s), p0 * (1.0 + gamma * delta * s),
            np.zeros(g.vshape), np.zeros(g.vshape), (0.0, 0.0, 0.0), t=t,
        )

    return CaseSetup(state=make(grid, 0.0), exact=make)


def random_solenoidal(
    grid: GridSpec,
    formulation: Formulation = Formulation.MODIFIED,
    rho0: float = 1.0,
    p0: float = 1.0,
    b0: float = 0.5,
    amplitude: float = 0.05,
    k_max: int = 2,
    seed: int = 7,
    order: int = 2,
) -> CaseSetup:
    """Seeded band-limited random potential and velocity on a mean field.

    A and v are explicit sums of cos/sin modes with |k_i| <= k_max drawn
    from one generator in a fixed lexicographic mode order (A coefficients
    first, then v), so states are bitwise reproducible.  A is then
    Helmholtz-projected; the traditional twin takes H = discrete curl(A),
    making its divergence a roundoff quantity by construction.
    """
    _check_positive(rho0=rho0, p0=p0)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    rng = np.random.default_rng(seed)
    x, y, z = grid.meshes()

    kset = [
        (i, j, l)
        for i in range(-k_max, k_max + 1)
        for j in range(-k_max, k_max + 1)
        for l in range(-k_max, k_max + 1)
        if (i, j, l) != (0, 0, 0)
    ]

    def draw_field() -> np.ndarray:
        field = np.zeros(grid.vshape)
        for kv in kset:
            phase = kv[0] * x + kv[1] * y + kv[2] * z
            weight = amplitude / (1.0 + float(np.dot(kv, kv)))
            coef = rng.standard_normal((2, 3)) * weight
            cosp, sinp = np.cos(phase), np.sin(phase)
            for c in range(3):
                field[c] += coef[0, c] * cosp + coef[1, c] * sinp
        return field

    a = draw_field()
    v = draw_field()
    if amplitude > 0.0:
        a, _ = helmholtz_project(a, grid, order)

    state = _mag_state(
        grid, formulation, v, np.full(grid.shape, rho0), np.full(grid.shape, p0),
        a, ops.curl(a, grid, order), (b0, 0.0, 0.0),
    )
    return CaseSetup(state=state)


def orszag_tang_like(
    grid: GridSpec,
    formulation: Formulation = Formulation.MODIFIED,
    rho0: float = 1.0,
    p0: float = 1.0,
    a0: float = 0.2,
    v0: float = 0.2,
) -> CaseSetup:
    """2D-in-3D vortex: A_z = a0 (cos 2y / 2 + cos x), v = v0 (-sin y, sin x, 0).

    The standard nonlinear comparison workload between the two force laws;
    z-derivatives vanish identically at t = 0.
    """
    _check_positive(rho0=rho0, p0=p0)
    x, y, _ = grid.meshes()
    a = np.zeros(grid.vshape)
    a[2] = a0 * (np.cos(2.0 * y) / 2.0 + np.cos(x))
    # hand-derived curl: H = (dAz/dy, -dAz/dx, 0)
    h = np.zeros(grid.vshape)
    h[0] = -a0 * np.sin(2.0 * y)
    h[1] = a0 * np.sin(x)
    v = np.zeros(grid.vshape)
    v[0] = -v0 * np.sin(y)
    v[1] = v0 * np.sin(x)

    state = _mag_state(
        grid, formulation, v, np.full(grid.shape, rho0), np.full(grid.shape, p0),
        a, h, (0.0, 0.0, 0.0),
    )
    return CaseSetup(state=state)


# --- manufactured solution --------------------------------------------------

_MMS_CACHE: dict = {}


def _mms_functions(formulation: Formulation, gamma: float, c: float):
    """Closed-form state and source expressions, built symbolically once.

    The chosen fields exercise every RHS term: nonzero advection,
    compression, pressure gradient, induction, and the potential force
    (through both the periodic A and the mean-field matrix M):

        A   = 0.15 cos(t) (sin y cos z, sin z cos x, sin x cos y)
        v   = 0.2 (1 + sin(t)/2) (sin x cos y, sin y cos z, sin z cos x)
        rho = 1 + 0.2 cos(t) sin x cos y
        P   = 1 + 0.15 cos(t + 1/2) cos x sin y
        H0  = (0.3, 0, 0)

    A is exactly solenoidal (each component is independent of its own
    coordinate), so the manufactured run is a legitimate Coulomb-gauge
    trajectory.  Sources are S_q = d(q)/dt - RHS(q) evaluated exactly.
    """
    key = (formulation, float(gamma), float(c))
    if key in _MMS_CACHE:
        return _MMS_CACHE[key]
    import sympy as sp

    x, y, z, t = sp.symbols("x y z t", real=True)
    xyz = (x, y, z)

    def s_grad(f):
        return sp.Matrix([sp.diff(f, q) for q in xyz])

    def s_div(F):
        return sum(sp.diff(F[i], xyz[i]) for i in range(3))

    def s_curl(F):
        return sp.Matrix([
            sp.diff(F[2], y) - sp.diff(F[1], z),
            sp.diff(F[0], z) - sp.diff(F[2], x),
            sp.diff(F[1], x) - sp.diff(F[0], y),
        ])

    def s_advect(V, W):
        return sp.Matrix([
            sum(V[k] * sp.diff(W[i], xyz[k]) for k in range(3)) for i in range(3)
        ])

    h0x = sp.Rational(3, 10)
    h0 = sp.Matrix([h0x, 0, 0])
    m_bg = sp.Matrix([[0, 0, 0], [0, 0, -h0x / 2], [0, h0x / 2, 0]])

    a_ex = sp.Rational(3, 20) * sp.cos(t) * sp.Matrix(
        [sp.sin(y) * sp.cos(z), sp.sin(z) * sp.cos(x), sp.sin(x) * sp.cos(y)])
    v_ex = sp.Rational(1, 5) * (1 + sp.sin(t) / 2) * sp.Matrix(
        [sp.sin(x) * sp.cos(y), sp.sin(y) * sp.cos(z), sp.sin(z) * sp.cos(x)])
    rho_ex = 1 + sp.Rational(1, 5) * sp.cos(t) * sp.sin(x) * sp.cos(y)
    p_ex = 1 + sp.Rational(3, 20) * sp.cos(t + sp.Rational(1, 2)) * sp.cos(x) * sp.sin(y)

    gam = sp.Float(gamma, 17)
    c_sym = sp.Float(c, 17)
    h_tot = s_curl(a_ex) + h0
    grad_p = s_grad(p_ex)

    if formulation is Formulation.MODIFIED:
        mag_ex = a_ex
        d_mag = v_ex.cross(h_tot)
        j = (c_sym / (4 * sp.pi)) * s_curl(s_curl(a_ex))
        force = -(s_advect(j, a_ex) + m_bg * j) / c_sym
    else:
        mag_ex = s_curl(a_ex)          # fluctuation; h0 is carried separately
        d_mag = s_curl(v_ex.cross(h_tot))
        force = s_curl(mag_ex).cross(h_tot) / (4 * sp.pi)

    d_v = -s_advect(v_ex, v_ex) - grad_p / rho_ex + force / rho_ex
    d_rho = -s_div(rho_ex * v_ex)
    d_p = -sum(v_ex[i] * grad_p[i] for i in range(3)) - gam * p_ex * s_div(v_ex)

    src_mag = sp.diff(mag_ex, t) - d_mag
    src_v = sp.diff(v_ex, t) - d_v
    src_rho = sp.diff(rho_ex, t) - d_rho
    src_p = sp.diff(p_ex, t) - d_p

    exprs = {
        "state": list(mag_ex) + list(v_ex) + [rho_ex, p_ex],
        "source": list(src_mag) + list(src_v) + [src_rho, src_p],
    }
    funcs = {
        name: [sp.lambdify((x, y, z, t), sp.expand(e), modules="numpy")
               for e in items]
        for name, items in exprs.items()
    }
    _MMS_CACHE[key] = funcs
    return funcs


def _mms_eval(funcs, grid: GridSpec, t: float):
    """Evaluate a lambdified 8-pack on the grid -> (mag, v, rho, p) arrays."""
    xm, ym, zm = np.broadcast_arrays(*grid.meshes())
    vals = []
    for f in funcs:
        r = np.asarray(f(xm, ym, zm, t), dtype=float)
        if r.shape != grid.shape:
            r = np.broadcast_to(r, grid.shape).copy()
        vals.append(r)
    mag = np.stack(vals[0:3])
    v = np.stack(vals[3:6])
    return mag, v, vals[6], vals[7]


def manufactured(
    grid: GridSpec,
    formulation: Formulation = Formulation.MODIFIED,
    gamma: float = 5.0 / 3.0,
    c: float = 1.0,
) -> CaseSetup:
    """Manufactured-solution case: exact fields plus the matching sources.

    ``gamma`` and ``c`` must equal the run's physics parameters -- the
    sources bake them in.
    """
    funcs = _mms_functions(formulation, gamma, c)

    def exact(g: GridSpec, t: float) -> SimState:
        mag, v, rho, p = _mms_eval(funcs["state"], g, t)
        return _mag_state(g, formulation, v, rho, p, mag, mag, (0.3, 0.0, 0.0), t=t)

    def source(g: GridSpec, t: float):
        return _mms_eval(funcs["source"], g, t)

    return CaseSetup(state=exact(grid, 0.0), exact=exact, source=source)


# --- registry (the config-file vocabulary) ----------------------------------

SCENARIO_DEFAULTS = {
    "uniform_rest": {"rho0": 1.0, "p0": 1.0, "b0x": 0.0, "b0y": 0.0, "b0z": 0.0},
    "alfven_wave": {"rho0": 1.0, "p0": 0.6, "b0": 1.0, "delta": 1e-3, "mode": 1},
    "sound_wave": {"rho0": 1.0, "p0": 1.0, "delta": 1e-4, "mode": 1},
    "random_solenoidal": {"rho0": 1.0, "p0": 1.0, "b0": 0.5, "amplitude": 0.05,
                          "k_max": 2},
    "orszag_tang_like": {"rho0": 1.0, "p0": 1.0, "a0": 0.2, "v0": 0.2},
    "manufactured": {},
}


def build_scenario(
    name: str,
    grid: GridSpec,
    formulation: Formulation,
    scenario_params: dict | None = None,
    gamma: float = 5.0 / 3.0,
    c: float = 1.0,
    seed: int = 7,
    order: int = 2,
) -> CaseSetup:
    """Dispatch on scenario name with per-scenario parameter validation."""
    if name not in SCENARIO_DEFAULTS:
        known = ", ".join(sorted(SCENARIO_DEFAULTS))
        raise ValueError(f"unknown scenario {name!r} (known: {known})")
    defaults = SCENARIO_DEFAULTS[name]
    params = dict(defaults)
    for key, value in (scenario_params or {}).items():
        if key not in defaults:
            allowed = ", ".join(sorted(defaults)) or "(none)"
            raise ValueError(
                f"scenario {name!r} does not take parameter {key!r} "
                f"(allowed: {allowed})"
            )
        params[key] = type(defaults[key])(value)

    if name == "uniform_rest":
        b0 = (params["b0x"], params["b0y"], params["b0z"])
        return uniform_rest(grid, formulation, params["rho0"], params["p0"], b0)
    if name == "alfven_wave":
        return alfven_wave(grid, formulation, params["rho0"], params["p0"],
                           params["b0"], params["delta"], params["mode"])
    if name == "sound_wave":
        return sound_wave(grid, formulation, params["rho0"], params["p0"],
                          gamma, params["delta"], params["mode"])
    if name == "random_solenoidal":
        return random_solenoidal(grid, formulation, params["rho0"], params["p0"],
                                 params["b0"], params["amplitude"],
                                 params["k_max"], seed, order)
    if name == "orszag_tang_like":
        return orszag_tang_like(grid, formulation, params["rho0"], params["p0"],
                                params["a0"], params["v0"])
    return manufactured(grid, formulation, gamma, c)
