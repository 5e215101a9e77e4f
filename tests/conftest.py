"""Shared helpers: grids, analytic fields, and the operator error sweep."""

import numpy as np

from modmhd import GridSpec
import modmhd.operators as ops

TWO_PI = 2.0 * np.pi


def cube(n, length=TWO_PI):
    return GridSpec(n, n, n, length, length, length)


def slab(nx):
    """x-resolved grid for 1D-in-x physics (operators act axis by axis)."""
    return GridSpec(nx, 4, 4, TWO_PI, TWO_PI, TWO_PI)


def pressure_sink_at(call, rate=-1e6):
    """An RK4 source that adds dP/dt = rate at its call-th call (counted
    from 1; ``step_rk4`` calls it once per stage) and nothing otherwise.
    At a step's fourth call it reaches only the final combination, so
    every stage state stays valid."""
    calls = []

    def source(grid, t):
        calls.append(t)
        zero = np.zeros(grid.shape)
        dp = np.full(grid.shape, rate) if len(calls) == call else zero
        return np.zeros(grid.vshape), np.zeros(grid.vshape), zero, dp

    return source


def smooth_scalar(grid):
    x, y, z = grid.meshes()
    s = np.sin(x) * np.cos(y) + 0.5 * np.cos(2.0 * z)
    grad = np.empty(grid.vshape)
    grad[0] = np.cos(x) * np.cos(y)
    grad[1] = -np.sin(x) * np.sin(y)
    grad[2] = -np.sin(2.0 * z) + 0.0 * (x + y)
    lap = -2.0 * np.sin(x) * np.cos(y) - 2.0 * np.cos(2.0 * z)
    return s, grad, lap


def smooth_vector(grid):
    # unit wavenumbers only: every centered first derivative then equals
    # (sin h / h) times the analytic one, so error ratios between grids
    # sit right on the stencil-symbol value for every operator below
    x, y, z = grid.meshes()
    v = np.empty(grid.vshape)
    v[0] = np.sin(x) * np.cos(y)
    v[1] = np.cos(y) * np.sin(z)
    v[2] = np.sin(z) * np.cos(x)
    return v


def _vector_exacts(grid):
    """Hand-derived derivatives of the smooth_vector family."""
    x, y, z = grid.meshes()
    sx, cx = np.sin(x), np.cos(x)
    sy, cy = np.sin(y), np.cos(y)
    sz, cz = np.sin(z), np.cos(z)

    div = cx * cy - sy * sz + cz * cx

    curl = np.empty(grid.vshape)
    curl[0] = -cy * cz
    curl[1] = sx * sz
    curl[2] = sx * sy

    lap = np.empty(grid.vshape)
    lap[0] = -2.0 * sx * cy
    lap[1] = -2.0 * cy * sz
    lap[2] = -2.0 * sz * cx

    grad_div = np.empty(grid.vshape)
    grad_div[0] = -sx * cy - sx * cz
    grad_div[1] = -cx * sy - cy * sz
    grad_div[2] = -sy * cz - cx * sz

    adv = np.empty(grid.vshape)
    adv[0] = sx * cx * cy ** 2 - sx * sy * cy * sz
    adv[1] = -sy * cy * sz ** 2 + cx * cy * sz * cz
    adv[2] = -sx ** 2 * cy * sz + cx ** 2 * sz * cz

    gc = np.empty(grid.vshape)
    gc[0] = sx * cx * (cy ** 2 - sz ** 2)
    gc[1] = -sy * cy * (sx ** 2 + sz ** 2)
    gc[2] = sz * cz * (cy ** 2 + cx ** 2)

    return div, curl, lap, grad_div, adv, gc


def operator_errors(n, order=2):
    """Max-norm error of every differential operator on the smooth family."""
    g = cube(n)
    s, grad_exact, lap_s = smooth_scalar(g)
    v = smooth_vector(g)
    div, curl, lap_v, grad_div, adv, gc = _vector_exacts(g)
    pairs = {
        "grad": (ops.grad(s, g, order), grad_exact),
        "div": (ops.div(v, g, order), div),
        "curl": (ops.curl(v, g, order), curl),
        "curl_curl": (ops.curl_curl(v, g, order), grad_div - lap_v),
        "advect": (ops.advect(v, v, g, order), adv),
        "grad_contract": (ops.grad_contract(v, v, g, order), gc),
        "laplacian": (ops.laplacian(s, g, order), lap_s),
        "vector_laplacian": (ops.vector_laplacian(v, g, order), lap_v),
    }
    return {name: ops.max_norm(got - want) for name, (got, want) in pairs.items()}
