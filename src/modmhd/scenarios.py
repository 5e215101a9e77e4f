"""Initial-condition library for both formulations.

Both formulations evolve the vector potential A, and every builder gives
them the same A; the twins differ only in the force law the run applies.
Each builder returns a CaseSetup: the initial SimState plus, where they
exist, a closed-form solution callback (for convergence studies) and a
manufactured source callback (added to the RHS each stage).

Amplitude conventions: perturbations are parameterized relative to their
background so linear-regime studies can use delta ~ 1e-4 while the
nonlinear workloads (orszag_tang_like, random_solenoidal) use O(1)
fields.  Everything lives on the periodic box.
"""

from __future__ import annotations

import inspect
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .electromagnetics import FOUR_PI, BackgroundPotential
from .grid import GridSpec, full_vector, wavevector_from_modes
from .params import Formulation, PhysParams
from .projection import helmholtz_project
from .state import SimState


#: Seed of ``random_solenoidal``'s coefficients when a run does not set one.
DEFAULT_SEED = 7


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


def _mag_state(grid, formulation, mag, v, rho, p, h0vec, t=0.0) -> SimState:
    return SimState(grid, formulation, mag, v, rho, p,
                    BackgroundPotential.from_uniform_field(h0vec), t)


def _plane_wave_k(grid: GridSpec, rho0: float, p0: float, delta: float,
                  mode: int) -> float:
    """Wavenumber of a plane wave along x with ``mode`` waves per box edge,
    after the checks ``alfven_wave`` and ``sound_wave`` share: mode must be
    nonzero and resolved by ``wavevector_from_modes``."""
    _check_positive(rho0=rho0, p0=p0)
    if mode == 0:
        raise ValueError("mode must be a nonzero integer")
    k = float(wavevector_from_modes((mode, 0, 0), grid)[0])
    if abs(delta) >= 1.0:
        warnings.warn("delta >= 1: strongly nonlinear regime", stacklevel=3)
    return k


def uniform_rest(
    grid: GridSpec,
    formulation: Formulation = Formulation.MODIFIED,
    rho0: float = 1.0,
    p0: float = 1.0,
    b0x: float = 0.0,
    b0y: float = 0.0,
    b0z: float = 0.0,
) -> CaseSetup:
    """Rest state in the uniform field (b0x, b0y, b0z): both systems' fixed point."""
    _check_positive(rho0=rho0, p0=p0)

    def make(g: GridSpec, t: float) -> SimState:
        return _mag_state(
            g, formulation, np.zeros(g.vshape), np.zeros(g.vshape),
            np.full(g.shape, rho0), np.full(g.shape, p0), (b0x, b0y, b0z), t=t,
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

    A_perp = -(delta*B0/k)(cos(kx) y + sin(kx) z), exactly solenoidal (it
    varies along x only), carries H = B0 x + delta*B0 (cos(kx) y + sin(kx) z),
    and v = -H_perp/sqrt(4 pi rho0): the exact traveling-wave solution of
    traditional ideal MHD moving at +v_A (an exact nonlinear solution --
    |H_perp| is constant, so there is no magnetic-pressure gradient).  On
    the grid the discrete curl of A is H_perp times sin(kh)/(kh), so the
    traditional twin starts off the continuum wave by that truncation
    factor.  The modified twin starts from the same A and v, which are not
    a single traveling wave of the modified system: its own wave of this
    form moves at v_A/sqrt(2) and carries v divided by sqrt(2).  No exact
    solution is attached for the modified formulation.
    """
    k = _plane_wave_k(grid, rho0, p0, delta, mode)
    v_a = b0 / math.sqrt(FOUR_PI * rho0)

    def make(g: GridSpec, t: float) -> SimState:
        x = g.meshes()[0]
        theta = k * (x - v_a * t)
        hp = np.zeros(g.vshape)
        hp[1] = delta * b0 * np.cos(theta)
        hp[2] = delta * b0 * np.sin(theta)
        v = -hp / math.sqrt(FOUR_PI * rho0)
        mag = np.zeros(g.vshape)
        mag[1] = -(delta * b0 / k) * np.cos(theta)
        mag[2] = -(delta * b0 / k) * np.sin(theta)
        return _mag_state(
            g, formulation, mag, v, np.full(g.shape, rho0), np.full(g.shape, p0),
            (b0, 0.0, 0.0), t=t,
        )

    exact = make if formulation is Formulation.TRADITIONAL else None
    return CaseSetup(state=make(grid, 0.0), exact=exact)


def sound_wave(
    grid: GridSpec,
    formulation: Formulation = Formulation.MODIFIED,
    rho0: float = 1.0,
    p0: float = 1.0,
    gamma: float = PhysParams.gamma,
    delta: float = 1e-4,
    mode: int = 1,
) -> CaseSetup:
    """Plane acoustic eigenmode along x with H = 0 (formulations coincide).

    The attached exact solution is the linear traveling wave, good to
    O(delta^2) -- keep delta small when using it as a reference.
    """
    k = _plane_wave_k(grid, rho0, p0, delta, mode)
    c_s = math.sqrt(gamma * p0 / rho0)

    def make(g: GridSpec, t: float) -> SimState:
        x = g.meshes()[0]
        s = np.sin(k * (x - c_s * t)) + np.zeros(g.shape)
        v = np.zeros(g.vshape)
        v[0] = c_s * delta * s
        return _mag_state(
            g, formulation, np.zeros(g.vshape), v, rho0 * (1.0 + delta * s),
            p0 * (1.0 + gamma * delta * s), (0.0, 0.0, 0.0), t=t,
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
    seed: int = DEFAULT_SEED,
    order: int = PhysParams.stencil_order,
) -> CaseSetup:
    """Seeded band-limited random potential and velocity on a mean field.

    A and v are sums of cos/sin modes over the integer mode numbers
    |m_i| <= k_max at wavenumbers k_i = 2 pi m_i / L_i, so both fields are
    periodic on any box.  They are band-limited only on axes of more than
    2 k_max points: on a shorter axis the modes alias onto each other.
    The coefficients come from one generator in a fixed lexicographic mode
    order (A first, then v), with weight amplitude / (1 + |m|^2), so a
    seed always gives the same state.
    The sum is evaluated one axis at a time, as
    Re sum_m (c0 - i c1) e^{i kx x} e^{i ky y} e^{i kz z}; its bits differ
    by roundoff from versions that summed full-grid cos/sin per mode (on
    2 pi boxes, where the modes are the same).  A is then
    Helmholtz-projected, so both twins start in the Coulomb gauge.
    """
    _check_positive(rho0=rho0, p0=p0)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    rng = np.random.default_rng(seed)

    kset = [
        (i, j, l)
        for i in range(-k_max, k_max + 1)
        for j in range(-k_max, k_max + 1)
        for l in range(-k_max, k_max + 1)
        if (i, j, l) != (0, 0, 0)
    ]
    # one table e^{i k_m x_n} per axis, rows m = -k_max..k_max
    modes = np.arange(-k_max, k_max + 1)
    tx, ty, tz = (
        np.exp(1j * np.multiply.outer((2.0 * math.pi / length) * modes, xs))
        for length, xs in zip((grid.lx, grid.ly, grid.lz), grid.coords())
    )

    def draw_field() -> np.ndarray:
        coef = np.zeros((3,) + (2 * k_max + 1,) * 3, dtype=complex)
        for i, j, l in kset:
            weight = amplitude / (1.0 + float(i * i + j * j + l * l))
            c0, c1 = rng.standard_normal((2, 3)) * weight
            coef[:, i + k_max, j + k_max, l + k_max] = c0 - 1j * c1
        # sum z, then y, on (m, ., .) arrays; the x sum keeps only the real
        # part, so no full-grid complex array is made.  einsum rather than
        # tensordot: BLAS's first matrix product grows peak RSS by ~0.7 MB.
        field = np.empty(grid.vshape)
        for c in range(3):
            t = np.einsum("ijz,jy->iyz", np.einsum("ijl,lz->ijz", coef[c], tz), ty)
            np.einsum("ix,iyz->xyz", tx.real, t.real, out=field[c])
            field[c] -= np.einsum("ix,iyz->xyz", tx.imag, t.imag)
        return field

    a = draw_field()
    v = draw_field()
    a, _ = helmholtz_project(a, grid, order)

    state = _mag_state(
        grid, formulation, a, v, np.full(grid.shape, rho0), np.full(grid.shape, p0),
        (b0, 0.0, 0.0),
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
    """2D-in-3D vortex on the box's fundamental wavenumbers kx, ky = 2 pi / L.

    A_z = a0 (cos(2 ky y) / 2 + cos(kx x)), v = v0 (-sin(ky y), sin(kx x), 0),
    periodic on any box; on a 2 pi box this is cos 2y / 2 + cos x and so
    on.  z-derivatives vanish identically at t = 0.  Its modes (1, 2, 0)
    go through ``wavevector_from_modes``, so ny must be at least 5.

    The modified force of this planar state is identically zero: A is
    along z and varies in x and y only, so j is along z and
    -(j.grad)(A + A0) = -j_z d_z(A + A0) = 0 with A0 = 0, and v x H stays
    along z, so A does.  The modified twin is hydrodynamics carrying a
    passive A_z; only the traditional twin feels a magnetic force.
    """
    _check_positive(rho0=rho0, p0=p0)
    x, y, _ = grid.meshes()
    kx, ky2, _ = wavevector_from_modes((1, 2, 0), grid)   # ky2 = 2 ky
    mag = np.zeros(grid.vshape)
    mag[2] = a0 * (np.cos(ky2 * y) / 2.0 + np.cos(kx * x))
    v = np.zeros(grid.vshape)
    v[0] = -v0 * np.sin(0.5 * ky2 * y)
    v[1] = v0 * np.sin(kx * x)

    state = _mag_state(
        grid, formulation, mag, v, np.full(grid.shape, rho0), np.full(grid.shape, p0),
        (0.0, 0.0, 0.0),
    )
    return CaseSetup(state=state)


# --- manufactured solution --------------------------------------------------

def _d_exact(f: np.ndarray, axis: int, length: float) -> np.ndarray:
    """Periodic d/dx along one axis by FFT, exact for mode numbers |m| < n/2.

    The even-n Nyquist mode is zeroed; a length-1 (broadcast) axis gives 0.
    """
    n = f.shape[axis]
    ik = (2j * math.pi / length) * np.arange(n // 2 + 1)
    if n % 2 == 0:
        ik[-1] = 0.0
    ik = ik.reshape([-1 if i == axis else 1 for i in range(f.ndim)])
    return np.fft.irfft(np.fft.rfft(f, axis=axis) * ik, n, axis)


def manufactured(
    grid: GridSpec,
    formulation: Formulation = Formulation.MODIFIED,
    gamma: float = PhysParams.gamma,
) -> CaseSetup:
    """Manufactured-solution case: exact fields plus the matching sources.

    With s_x = sin(2 pi x / Lx), c_x = cos(2 pi x / Lx) and likewise in y
    and z, the fields are periodic on any box and exercise every RHS term
    (advection, compression, pressure, induction, and the potential force
    through both the periodic A and the mean-field matrix M):

        A   = 0.15 cos(t) (s_y c_z, s_z c_x, s_x c_y)
        v   = 0.2 (1 + sin(t)/2) (s_x c_y, s_y c_z, s_z c_x)
        rho = 1 + 0.2 cos(t) s_x c_y
        P   = 1 + 0.15 cos(t + 1/2) c_x s_y
        H0  = (0.3, 0, 0)

    A is exactly solenoidal, so the run is a Coulomb-gauge trajectory; the
    two formulations' sources differ in the force only.  The source
    S_q = dq/dt - RHS(q) is the continuum RHS in product-rule form,
    independent of ``dynamics`` and the stencils: each field is a time
    factor times a spatial shape, whose derivatives are exact FFT
    derivatives taken once per case.  ``gamma`` must equal the run's
    physics parameter; ``exact`` and ``source`` accept only ``grid``.
    """
    lengths = (grid.lx, grid.ly, grid.lz)
    phase = [(2.0 * math.pi / L) * x for L, x in zip(lengths, grid.meshes())]
    s, co = [np.sin(a) for a in phase], [np.cos(a) for a in phase]

    def grad(f):
        return [_d_exact(f, i, L) for i, L in enumerate(lengths)]

    def curl(u):
        d = [grad(ui) for ui in u]         # d[i][k] = d_k u_i
        return [d[2][1] - d[1][2], d[0][2] - d[2][0], d[1][0] - d[0][1]]

    def dot(u, w):
        return sum(ui * wi for ui, wi in zip(u, w))

    def along(u, w):                       # (u . grad) w
        return [dot(u, grad(wi)) for wi in w]

    def cross(u, w):
        return [u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2],
                u[0] * w[1] - u[1] * w[0]]

    h0 = (0.3, 0.0, 0.0)
    a_hat = [s[1] * co[2], s[2] * co[0], s[0] * co[1]]
    v_hat = [s[0] * co[1], s[1] * co[2], s[2] * co[0]]
    rho_hat, p_hat = s[0] * co[1], co[0] * s[1]
    h_hat = curl(a_hat)
    curl_h = curl(h_hat)
    div_v = sum(grad(vi)[i] for i, vi in enumerate(v_hat))
    grad_p = grad(p_hat)
    v_grad_rho, v_grad_p = dot(v_hat, grad(rho_hat)), dot(v_hat, grad_p)
    # with A = alpha a_hat and v = beta v_hat, dA/dt - RHS_A is
    # alpha' a_hat - alpha beta x1 - beta x0; the force is alpha^2 f2 + alpha f1
    x1, x0 = cross(v_hat, h_hat), cross(v_hat, h0)
    if formulation is Formulation.MODIFIED:
        # f = -[(j.grad)A + M j]/c with j = (c/4pi) curl H and M j = (H0 x j)/2;
        # c cancels, so j and f are taken at c = 1
        j_hat = [(1.0 / FOUR_PI) * g for g in curl_h]
        f2 = [-g for g in along(j_hat, a_hat)]
        f1 = [-0.5 * g for g in cross(h0, j_hat)]
    else:
        f2 = [g / FOUR_PI for g in cross(curl_h, h_hat)]
        f1 = [g / FOUR_PI for g in cross(curl_h, h0)]
    adv_v, a_hat, v_hat, x1, x0, f2, f1, grad_p = (
        full_vector(grid, u)
        for u in (along(v_hat, v_hat), a_hat, v_hat, x1, x0, f2, f1, grad_p))
    rho_hat, p_hat = (np.broadcast_to(f, grid.shape) for f in (rho_hat, p_hat))

    def factors(g: GridSpec, t: float):
        """Time factors (alpha, beta, r, q) of A, v, rho - 1, P - 1, then their
        t-derivatives; ``g`` must be the case's own grid."""
        if g != grid:
            raise ValueError(f"manufactured case is built for {grid}, got {g}")
        return (0.15 * math.cos(t), 0.2 * (1.0 + 0.5 * math.sin(t)),
                0.2 * math.cos(t), 0.15 * math.cos(t + 0.5),
                -0.15 * math.sin(t), 0.1 * math.cos(t),
                -0.2 * math.sin(t), -0.15 * math.sin(t + 0.5))

    def exact(g: GridSpec, t: float) -> SimState:
        al, be, r, q = factors(g, t)[:4]
        return _mag_state(g, formulation, al * a_hat, be * v_hat, 1.0 + r * rho_hat,
                          1.0 + q * p_hat, h0, t=t)

    def source(g: GridSpec, t: float):
        al, be, r, q, dal, dbe, dr, dq = factors(g, t)
        rho = 1.0 + r * rho_hat
        s_mag = dal * a_hat - (al * be) * x1 - be * x0
        s_v = dbe * v_hat + (be * be) * adv_v
        s_v += (q * grad_p - (al * al) * f2 - al * f1) / rho
        s_rho = dr * rho_hat + be * (r * v_grad_rho + rho * div_v)
        s_p = dq * p_hat + be * (q * v_grad_p + gamma * (1.0 + q * p_hat) * div_v)
        return s_mag, s_v, s_rho, s_p

    return CaseSetup(state=exact(grid, 0.0), exact=exact, source=source)


# --- registry (the config-file vocabulary) ----------------------------------

#: Builder arguments set by the run, not by ``scenario.*`` keys: the grid,
#: the formulation, ``physics.gamma``, ``seed`` and ``numerics.stencil_order``.
_RUN_SETTINGS = ("grid", "formulation", "gamma", "seed", "order")

#: Scenario name -> {scenario.* key: default}, read off each builder's
#: keyword arguments: a builder's signature is its config vocabulary.
SCENARIO_DEFAULTS = {
    builder.__name__: {key: p.default for key, p in inspect.signature(builder).parameters.items()
                       if key not in _RUN_SETTINGS}
    for builder in (uniform_rest, alfven_wave, sound_wave, random_solenoidal,
                    orszag_tang_like, manufactured)
}


def check_scenario_param(name: str, key: str, value):
    """``value`` typed as the default of scenario ``name``'s keyword ``key``.

    It must be a number and not a bool; a float must be finite and an
    integer refuses fractions.  Anything else raises ValueError.
    """
    defaults = SCENARIO_DEFAULTS[name]
    if key not in defaults:
        allowed = ", ".join(sorted(defaults)) or "(none)"
        raise ValueError(f"scenario {name!r} does not take {key!r} (allowed: {allowed})")
    integer = isinstance(defaults[key], int)
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        if real and integer and int(value) == float(value):
            return int(value)
        if real and not integer and math.isfinite(value):
            return float(value)
    except (ValueError, OverflowError):   # nan, inf, or beyond float range
        pass
    kind = "an integer" if integer else "a finite number" if real else "a number"
    raise ValueError(f"scenario.{key}: expected {kind}, got {value!r}")


def build_scenario(
    name: str,
    grid: GridSpec,
    formulation: Formulation,
    scenario_params: dict | None = None,
    gamma: float = PhysParams.gamma,
    seed: int = DEFAULT_SEED,
    order: int = PhysParams.stencil_order,
) -> CaseSetup:
    """Build scenario ``name`` from its checked ``scenario_params``, plus the
    run settings (gamma, seed, order) its builder's signature takes."""
    if name not in SCENARIO_DEFAULTS:
        known = ", ".join(sorted(SCENARIO_DEFAULTS))
        raise ValueError(f"unknown scenario {name!r} (known: {known})")
    kwargs = {key: check_scenario_param(name, key, value)
              for key, value in (scenario_params or {}).items()}
    # looked up at call time, so a rebound module attribute is the one called
    builder = globals()[name]
    takes = inspect.signature(builder).parameters
    settings = {"gamma": gamma, "seed": seed, "order": order}
    kwargs.update((key, value) for key, value in settings.items() if key in takes)
    return builder(grid, formulation, **kwargs)
