"""Structural identity checks and grid-convergence studies.

The identity suite exercises relations the discretization is supposed to
honor, split into two kinds:

* algebraically exact on the grid (stencil algebra, no Taylor remainder)
  -- these must hold to roundoff at every resolution;
* continuum identities with a truncation gap -- the measured residual
  must shrink at the stencil order.

Each item is deliberately phrased through the public operators and RHS
functions so that a sign or index slip anywhere in the chain surfaces
here before it surfaces in a wave speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from dataclasses import field as dataclasses_field

import numpy as np

from . import electromagnetics as em
from . import operators as ops
from .dynamics import SimulationError, run
from .electromagnetics import BackgroundPotential, TwoFluidState
from .grid import GridSpec
from .params import PhysParams
from .projection import helmholtz_project
from .state import SimState

#: Ceiling for relations that are exact up to floating-point roundoff.
EXACT_TOL = 1e-10

#: Measured order may undershoot the stencil order by this much and pass.
ORDER_SLACK = 0.3


def fit_order(spacings, errors) -> float:
    """Least-squares slope of log(error) against log(h); nan if degenerate
    (fewer than two distinct spacings keep an error above roundoff)."""
    h = np.asarray(spacings, dtype=float)
    e = np.asarray(errors, dtype=float)
    keep = e > 1e-15 * e.max(initial=0.0)
    if len(set(h[keep].tolist())) < 2:
        return float("nan")
    slope = np.polyfit(np.log(h[keep]), np.log(e[keep]), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class IdentityResult:
    key: str
    description: str
    kind: str                     #: "exact", "order", or "positive"
    spacings: tuple
    values: tuple                 #: residual (exact/order) or magnitude (positive)
    order: float | None
    expected_order: float | None
    passed: bool
    detail: str = ""
    extras: dict = dataclasses_field(default_factory=dict)


@dataclass(frozen=True)
class IdentityReport:
    resolutions: tuple
    stencil_order: int
    results: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def __getitem__(self, key: str) -> IdentityResult:
        for r in self.results:
            if r.key == key:
                return r
        raise KeyError(key)


def format_identity_report(report: IdentityReport) -> str:
    lines = [
        f"identity suite  (order-{report.stencil_order} stencils, "
        f"n = {', '.join(str(n) for n in report.resolutions)})",
    ]
    for r in report.results:
        mark = "pass" if r.passed else "FAIL"
        vals = "  ".join(f"{v:.3e}" for v in r.values)
        if r.kind == "order":
            shown = "n/a" if r.order is None else f"{r.order:.2f}"
            tail = f"order {shown} (expect >= {r.expected_order - ORDER_SLACK:.2f})"
        elif r.kind == "exact":
            tail = f"exact to {EXACT_TOL:.0e}"
        else:
            tail = "must stay positive"
        lines.append(f"  [{mark}] {r.key}: {vals}   {tail}")
        if r.detail:
            lines.append(f"         {r.detail}")
    return "\n".join(lines)


# --- test fields -----------------------------------------------------------

def _test_background() -> BackgroundPotential:
    # Deliberately non-antisymmetric: exercises M != M^T and a nonzero H0.
    m = np.array([[0.10, 0.40, -0.20],
                  [0.00, -0.30, 0.25],
                  [0.15, -0.05, 0.20]])
    return BackgroundPotential(m)


def _test_fields(grid: GridSpec):
    x, y, z = grid.meshes()
    a = np.empty(grid.vshape)
    a[0] = np.sin(y) * np.cos(z) + 0.3 * np.sin(z)
    a[1] = np.sin(z) * np.cos(x) + 0.2 * np.sin(x)
    a[2] = np.sin(x) * np.cos(y) + 0.4 * np.sin(y)
    v = np.empty(grid.vshape)
    v[0] = 0.4 * (np.cos(y) + 0.5 * np.sin(z))
    v[1] = 0.4 * (np.cos(z) + 0.5 * np.sin(x))
    v[2] = 0.4 * (np.cos(x) + 0.5 * np.sin(y))
    rho = np.empty(grid.shape)
    rho[...] = 1.0 + 0.2 * np.cos(x) * np.cos(y)
    p = np.empty(grid.shape)
    p[...] = 1.0 + 0.15 * np.sin(y) * np.cos(z)
    return a, v, rho, p


def _solenoidal_family(grid: GridSpec):
    """Closed-form A_dot fields for the electric-field divergence item.

    S = curl(sin y sin z, sin 2x sin z, sin x sin y) evaluated analytically,
    so div S = 0 in the continuum while the centered-difference divergence
    leaves an O(h^order) residual (for order 2 on a cubic grid it is exactly
    (2 sin h - sin 2h)/h * cos 2x cos z).  W adds a gradient part -- the
    unprojected evolution -- whose discrete divergence is O(1).
    """
    x, y, z = grid.meshes()
    s = np.empty(grid.vshape)
    s[0] = np.sin(x) * np.cos(y) - np.sin(2 * x) * np.cos(z)
    s[1] = np.sin(y) * np.cos(z) - np.cos(x) * np.sin(y)
    s[2] = 2.0 * np.cos(2 * x) * np.sin(z) - np.cos(y) * np.sin(z)
    gphi = np.empty(grid.vshape)
    gphi[0] = -np.sin(x) * np.cos(y) * np.cos(z)
    gphi[1] = -np.cos(x) * np.sin(y) * np.cos(z)
    gphi[2] = -np.cos(x) * np.cos(y) * np.sin(z)
    return s, s + gphi


def _decomposition_witness(grid: GridSpec, bg: BackgroundPotential):
    """Potential with a closed-form advective force.

    For A = (sin y cos z, sin z cos x, sin x cos y): div A = 0 and
    curl curl A = 2A, so j = (c/2 pi) A and the continuum force
    -(1/c)[(j.grad)A + M j] collapses to -(1/2 pi)[(A.grad)A + M A],
    with (A.grad)A worked out by hand below.
    """
    x, y, z = grid.meshes()
    a = np.empty(grid.vshape)
    a[0] = np.sin(y) * np.cos(z)
    a[1] = np.sin(z) * np.cos(x)
    a[2] = np.sin(x) * np.cos(y)
    adv = np.empty(grid.vshape)
    adv[0] = np.cos(y) * np.sin(z) * (np.cos(x) * np.cos(z) - np.sin(x) * np.sin(y))
    adv[1] = np.sin(x) * np.cos(z) * (np.cos(x) * np.cos(y) - np.sin(y) * np.sin(z))
    adv[2] = np.cos(x) * np.sin(y) * (np.cos(y) * np.cos(z) - np.sin(x) * np.sin(z))
    f_exact = -(adv + bg.advected_by(a)) / (2.0 * np.pi)
    return a, f_exact


def _force_split_residual(a: np.ndarray, bg: BackgroundPotential, grid: GridSpec,
                          order: int = 2) -> float:
    """max |f_mod - ((1/2) j x H - S j)| / max |f_mod|, S j taken from the same
    stencil derivatives: (1/2)[(j.grad)A + grad_contract(j, A) + (M + M^T) j]."""
    j = em.current_from_a(a, grid, order)
    s_j = ops.advect(j, a, grid, order)
    s_j += ops.grad_contract(j, a, grid, order)
    s_j += bg.advected_by(j)
    s_j += bg.contracted_with(j)
    split = ops.cross(j, em.h_from_a(a, bg, grid, order))
    split -= s_j
    split *= 0.5
    f_mod = em.force_modified(j, a, bg, grid, order)
    return ops.max_norm(f_mod - split) / ops.max_norm(f_mod)


# --- the suite -------------------------------------------------------------

def identity_suite(
    resolutions=(16, 32),
    params: PhysParams | None = None,
) -> IdentityReport:
    """Run all structural checks over a sweep of cubic grids."""
    if len(resolutions) == 0:
        raise ValueError("need at least one resolution")
    params = params or PhysParams()
    order = params.stencil_order
    bg = _test_background()
    two_pi = 2.0 * math.pi

    reduction, split, div_e, decomp, stencil_res, curlcurl, gauge = \
        [], [], [], [], [], [], []
    spacings = []
    side = {}

    for n in resolutions:
        grid = GridSpec(n, n, n, two_pi, two_pi, two_pi)
        grid.require_order(order)
        spacings.append(grid.hx)
        a, v, rho, p = _test_fields(grid)
        x, y, z = grid.meshes()

        # (a) two-fluid force collapses to the single-fluid advective force
        # when the species charge densities cancel.
        rho_c = np.empty(grid.shape)
        rho_c[...] = 0.8 + 0.3 * np.sin(x) * np.cos(y)
        v_plus = v
        v_minus = np.empty(grid.vshape)
        v_minus[0] = 0.3 * np.sin(z)
        v_minus[1] = 0.3 * np.cos(x)
        v_minus[2] = -0.3 * np.sin(y)
        tf = TwoFluidState(rho_plus=rho_c, rho_minus=-rho_c, v_plus=v_plus, v_minus=v_minus)
        a_dot = ops.cross(v_plus, em.h_from_a(a, bg, grid, order))
        f_pair = em.force_two_fluid(tf, a_dot, a, bg, grid, order)
        f_one = em.force_modified(tf.current(), a, bg, grid, order)
        reduction.append(ops.l2_norm(f_pair - f_one, grid) / ops.l2_norm(f_one, grid))

        # (b) the modified force is half the Lorentz force minus S j: all
        # that separates the two systems, which share dA/dt = v x H.
        split.append(_force_split_residual(a, bg, grid, order))

        # (c) div E vanishes at the stencil order when dA/dt carries no
        # gradient part.  S is the continuum-projected closed form; the
        # polluted field W stands in for the raw, unprojected evolution.
        s_field, w_field = _solenoidal_family(grid)
        div_e.append(ops.l2_norm(ops.div(-s_field, grid, order), grid))
        if n == max(resolutions):
            side["div_e_raw"] = ops.l2_norm(ops.div(-w_field, grid, order), grid)
            w_proj, _ = helmholtz_project(w_field, grid, order)
            side["div_e_discrete"] = ops.l2_norm(ops.div(-w_proj, grid, order), grid)

        # (d) force decomposition f = j x H - grad-contraction.
        # Measured two ways: the discrete force against the hand-derived
        # continuum value of the decomposed form (truncation-limited, so it
        # carries the order), and the pure stencil algebra linking the three
        # discrete expressions (exact -- the sharpest sign canary here).
        a_d, f_exact = _decomposition_witness(grid, bg)
        f_mod = em.force_modified_from_a(a_d, bg, grid, order)
        decomp.append(ops.l2_norm(f_mod - f_exact, grid) / ops.l2_norm(f_exact, grid))
        j = em.current_from_a(a_d, grid, order)
        remainder = ops.grad_contract(j, a_d, grid, order) + bg.contracted_with(j)
        f_equiv = ops.cross(j, em.h_from_a(a_d, bg, grid, order))
        f_equiv -= remainder
        stencil_res.append(
            ops.l2_norm(f_mod - f_equiv, grid) / ops.l2_norm(f_mod, grid)
        )

        # (e) curl curl = grad div - laplacian; the composed first-derivative
        # stencils and the compact laplacian differ at the stencil order.
        cc = ops.curl_curl(a, grid, order)
        gd = ops.grad(ops.div(a, grid, order), grid, order)
        lap = ops.vector_laplacian(a, grid, order)
        curlcurl.append(ops.l2_norm(cc - (gd - lap), grid) / ops.l2_norm(cc, grid))

        # (f) the advective force is not gauge invariant: shifting A by a
        # gradient moves it by a definite amount (-> 1/sqrt(2) here).
        a_w = np.zeros(grid.vshape)
        a_w[0] = np.sin(y) + 0.0 * z
        a_w[1] = np.sin(x) + 0.0 * y
        chi = np.empty(grid.shape)
        chi[...] = np.sin(x) + 0.0 * (y + z)
        gauge.append(
            em.gauge_shift_sensitivity(a_w, BackgroundPotential.zero(), chi, grid, order)
        )

    spacings = tuple(spacings)
    expect = float(order)
    single = len(resolutions) < 2

    def exact_item(key, desc, vals, detail="", extras=None):
        return IdentityResult(
            key, desc, "exact", spacings, tuple(vals), None, None,
            max(vals) <= EXACT_TOL, detail, extras or {},
        )

    def order_item(key, desc, vals, detail="", extras=None, also_pass=True):
        p_fit = fit_order(spacings, vals)
        # A single resolution cannot carry an order; exactness-style items
        # still run, order items report not-applicable and do not fail.
        ok = single or ((not math.isnan(p_fit)) and p_fit >= expect - ORDER_SLACK)
        return IdentityResult(
            key, desc, "order", spacings, tuple(vals),
            None if single else p_fit, expect, ok and also_pass, detail,
            extras or {},
        )

    results = (
        exact_item("two_fluid_reduction",
                   "summed species force equals -(1/c)(j.grad)A_total", reduction),
        exact_item("force_split",
                   "f_mod equals (1/2) j x H/c - S j/c, S = sym grad(A + A0)", split),
        order_item("div_e_projected",
                   "div E for a gradient-free dA/dt", div_e,
                   detail=(f"unprojected dA/dt: div E {side['div_e_raw']:.3e}; "
                           f"after discrete projection {side['div_e_discrete']:.3e}"),
                   extras=dict(side)),
        order_item("force_decomposition",
                   "f_mod vs j x H/c minus gradient-contraction", decomp,
                   detail=(f"discrete stencil identity residual "
                           f"{max(stencil_res):.3e} (must be exact)"),
                   extras={"stencil_identity": tuple(stencil_res)},
                   also_pass=max(stencil_res) <= EXACT_TOL),
        order_item("curl_curl_decomposition",
                   "curl curl A vs grad div A - laplacian A", curlcurl),
        IdentityResult(
            "gauge_dependence",
            "force response to A -> A + grad(chi)",
            "positive", spacings, tuple(gauge), None, None,
            min(gauge) > 1e-3,
            detail="continuum value for this witness is 1/sqrt(2) ~= 0.7071",
        ),
    )
    return IdentityReport(tuple(resolutions), order, results)


# --- convergence -----------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceResult:
    resolutions: tuple
    spacings: tuple
    errors: tuple
    order: float
    mode: str        #: "exact" (against a closed-form solution) or "richardson"

    def rows(self):
        return list(zip(self.resolutions, self.spacings, self.errors))


def state_error(state: SimState, reference: SimState) -> float:
    """Volume-weighted L2 distance between two states, all fields pooled."""
    parts = [ops.l2_norm(f - r, state.grid)
             for f, r in zip(state.fields, reference.fields)]
    return float(np.sqrt(sum(e * e for e in parts)))


def convergence_study(
    case_factory,
    resolutions,
    t_end: float,
    params: PhysParams | None = None,
) -> ConvergenceResult:
    """Error-versus-spacing sweep for a scenario.

    ``case_factory(n)`` builds the initial setup at resolution n; every
    case is built before any is run.  When the setup carries a closed-form
    solution the error is measured against it; otherwise consecutive
    resolutions are compared after injecting the finer solution onto the
    coarser grid.  The grids must then nest on every axis (each of the
    finer grid's nx, ny, nz an integer multiple, possibly 1, of the
    coarser's), which is checked before the first run.  A run that fails
    raises ``SimulationError`` naming its resolution.
    """
    params = params or PhysParams()
    resolutions = tuple(resolutions)
    if len(resolutions) < 2:
        raise ValueError("need at least two resolutions")

    cases = [case_factory(n) for n in resolutions]
    richardson = cases[0].exact is None
    strides = []
    if richardson:
        for coarse, fine in zip(cases[:-1], cases[1:]):
            cshape, fshape = coarse.state.grid.shape, fine.state.grid.shape
            if any(f % c for c, f in zip(cshape, fshape)):
                raise ValueError("resolutions must nest for the two-grid "
                                 f"comparison: {cshape} -> {fshape}")
            strides.append(tuple(f // c for c, f in zip(cshape, fshape)))

    finals = []
    for n, case in zip(resolutions, cases):
        try:
            final, _ = run(case.state, params, t_end,
                           out_every=10 ** 9, source=case.source)
        except SimulationError as exc:
            raise SimulationError(f"resolution {n}: {exc}", exc.records) from exc
        finals.append(final)

    errors, spacings = [], []
    if not richardson:
        for case, final in zip(cases, finals):
            ref = case.exact(final.grid, t_end)
            errors.append(state_error(final, ref))
            spacings.append(final.grid.min_spacing)
        mode = "exact"
    else:
        for coarse, fine, (kx, ky, kz) in zip(finals[:-1], finals[1:], strides):
            ref = coarse.with_fields(
                *(f[..., ::kx, ::ky, ::kz] for f in fine.fields), coarse.t
            )
            errors.append(state_error(coarse, ref))
            spacings.append(coarse.grid.min_spacing)
        mode = "richardson"
        resolutions = resolutions[:-1]

    emax = max(errors)
    order = float("nan") if emax == 0.0 else fit_order(spacings, errors)
    return ConvergenceResult(resolutions, tuple(spacings), tuple(errors), order, mode)
