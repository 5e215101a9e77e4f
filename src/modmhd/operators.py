"""Central-difference operators on periodic grids.

All derivative operators are built from the same first-derivative stencil
(order 2 or 4), applied via ``np.roll`` so periodicity is exact.  Composed
operators (``curl_curl``) are literal compositions, which keeps discrete
identities like curl(grad f) = 0 and div(curl V) = 0 exact to roundoff:
the stencils commute as linear operators.

``laplacian``/``vector_laplacian`` use the *compact* second-derivative
stencil.  This is deliberately a different discretization from the wide
div(grad(.)) composition that the Poisson solver uses; the O(h^2) gap
between the two is what the curl-curl identity check measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec


def _d1(f: np.ndarray, axis: int, h: float, order: int) -> np.ndarray:
    """First derivative along one axis (periodic central difference)."""
    if order == 2:
        return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)
    if order == 4:
        return (
            8.0 * (np.roll(f, -1, axis) - np.roll(f, 1, axis))
            - (np.roll(f, -2, axis) - np.roll(f, 2, axis))
        ) / (12.0 * h)
    raise ValueError(f"stencil order must be 2 or 4, got {order}")


def modified_wavenumber(k, spacing: float, order: int = 2):
    """Symbol ktilde of the centered first-derivative stencil at wavenumber k.

    ``_d1`` maps exp(i k x) to i * ktilde * exp(i k x).  k may be an array.
    """
    kh = k * spacing
    if order == 2:
        return np.sin(kh) / spacing
    if order == 4:
        return (8.0 * np.sin(kh) - np.sin(2.0 * kh)) / (6.0 * spacing)
    raise ValueError(f"unsupported stencil order {order}")


def _d2(f: np.ndarray, axis: int, h: float, order: int) -> np.ndarray:
    """Compact second derivative along one axis."""
    if order == 2:
        return (np.roll(f, -1, axis) + np.roll(f, 1, axis) - 2.0 * f) / (h * h)
    if order == 4:
        return (
            -(np.roll(f, -2, axis) + np.roll(f, 2, axis))
            + 16.0 * (np.roll(f, -1, axis) + np.roll(f, 1, axis))
            - 30.0 * f
        ) / (12.0 * h * h)
    raise ValueError(f"stencil order must be 2 or 4, got {order}")


def grad(s: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Gradient of a scalar field: (d/dx, d/dy, d/dz) s."""
    h = grid.spacings
    return np.stack([_d1(s, ax, h[ax], order) for ax in range(3)])


def div(v: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Divergence of a vector field."""
    h = grid.spacings
    out = _d1(v[0], 0, h[0], order)
    out += _d1(v[1], 1, h[1], order)
    out += _d1(v[2], 2, h[2], order)
    return out


def curl(v: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Curl of a vector field."""
    hx, hy, hz = grid.spacings
    return np.stack(
        [
            _d1(v[2], 1, hy, order) - _d1(v[1], 2, hz, order),
            _d1(v[0], 2, hz, order) - _d1(v[2], 0, hx, order),
            _d1(v[1], 0, hx, order) - _d1(v[0], 1, hy, order),
        ]
    )


def curl_curl(v: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """curl(curl V) as the literal composition of two curls."""
    return curl(curl(v, grid, order), grid, order)


def advect(v: np.ndarray, w: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Advective derivative (V . grad) W, component i: sum_k V_k d_k W_i."""
    h = grid.spacings
    out = np.empty_like(w)
    for i in range(3):
        acc = v[0] * _d1(w[i], 0, h[0], order)
        acc += v[1] * _d1(w[i], 1, h[1], order)
        acc += v[2] * _d1(w[i], 2, h[2], order)
        out[i] = acc
    return out


def grad_contract(v: np.ndarray, w: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Contraction G_i = sum_k V_k d_i W_k (the gradient acts on W only).

    Together with the Lorentz force this splits the advective force:
    (V.grad)W = grad_contract(V, W) - V x curl(W).
    """
    h = grid.spacings
    out = np.empty_like(w)
    for i in range(3):
        acc = v[0] * _d1(w[0], i, h[i], order)
        acc += v[1] * _d1(w[1], i, h[i], order)
        acc += v[2] * _d1(w[2], i, h[i], order)
        out[i] = acc
    return out


def laplacian(s: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Compact-stencil Laplacian of a scalar field."""
    h = grid.spacings
    out = _d2(s, 0, h[0], order)
    out += _d2(s, 1, h[1], order)
    out += _d2(s, 2, h[2], order)
    return out


def vector_laplacian(v: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Compact-stencil Laplacian applied to each vector component."""
    return np.stack([laplacian(v[i], grid, order) for i in range(3)])


def cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise cross product of two vector fields."""
    return np.cross(u, v, axis=0)


def dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise dot product of two vector fields (a scalar field)."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


@dataclass(frozen=True)
class Norms:
    l2: float
    max: float


def l2_norm(arr: np.ndarray, grid: GridSpec) -> float:
    """Volume-weighted L2 norm; vectors are summed over components."""
    return float(np.sqrt(np.vdot(arr, arr).real * grid.cell_volume))


def max_norm(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr)))


def norms(arr: np.ndarray, grid: GridSpec) -> Norms:
    return Norms(l2=l2_norm(arr, grid), max=max_norm(arr))


def integrate(s: np.ndarray, grid: GridSpec) -> float:
    """Volume integral of a scalar field over the periodic box."""
    return float(np.sum(s) * grid.cell_volume)
