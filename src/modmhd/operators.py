"""Central-difference operators on periodic grids.

All derivative operators are built from the same first-derivative stencil
(order 2 or 4).  The periodic stencil is applied by slicing: the
difference f[i+k] - f[i-k] along an axis is written into one output array
as an interior slice subtraction plus the k wrap-around planes at each
end, so no shifted copy of the field is made and periodicity is exact.
The arithmetic is the textbook one, operation for operation (subtract,
scale by 8, subtract, divide by 2h or 12h), so the result is bitwise the
same as the shift-and-subtract formula with ``np.roll``; the operator
tests hold the kernels to that.  Composed operators (``curl_curl``) are
literal compositions, which keeps discrete identities like
curl(grad f) = 0 and div(curl V) = 0 exact to roundoff: the stencils
commute as linear operators.

``laplacian``/``vector_laplacian`` use the *compact* second-derivative
stencil.  This is deliberately a different discretization from the wide
div(grad(.)) composition that the Poisson solver uses; the O(h^2) gap
between the two is what the curl-curl identity check measures.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec

#: Cyclic index triples (i, j, k): component i of a curl or cross product
#: pairs j with k.
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _pair(op, f: np.ndarray, axis: int, k: int, out: np.ndarray) -> np.ndarray:
    """out[i] = op(f[i+k], f[i-k]) along ``axis``, indices taken mod n."""
    n = f.shape[axis]
    if n < 2 * k:
        raise ValueError(f"a stencil of half-width {k} needs at least {2 * k} "
                         f"points along axis {axis}, got {n}")

    def cut(a, lo, hi):
        index = [slice(None)] * a.ndim
        index[axis] = slice(lo, hi)
        return a[tuple(index)]

    op(cut(f, 2 * k, n), cut(f, 0, n - 2 * k), out=cut(out, k, n - k))
    op(cut(f, k, 2 * k), cut(f, n - k, n), out=cut(out, 0, k))
    op(cut(f, 0, k), cut(f, n - 2 * k, n - k), out=cut(out, n - k, n))
    return out


def _d1(f: np.ndarray, axis: int, h: float, order: int,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None) -> np.ndarray:
    """First derivative along one axis (periodic central difference).

    Written into ``out`` when given (it must not overlap ``f``).  Order 4
    holds its k=2 difference in ``scratch`` when given, so an operator
    that differentiates several times allocates it once (see ``_scratch``).
    """
    if order not in (2, 4):
        raise ValueError(f"stencil order must be 2 or 4, got {order}")
    if out is None:
        out = np.empty(f.shape)
    _pair(np.subtract, f, axis, 1, out)
    if order == 2:
        out /= 2.0 * h
        return out
    if scratch is None:
        scratch = np.empty(f.shape)
    out *= 8.0
    out -= _pair(np.subtract, f, axis, 2, scratch)
    out /= 12.0 * h
    return out


def _scratch(shape: tuple[int, ...], order: int) -> np.ndarray | None:
    """One per-call buffer for ``_d1``'s order-4 k=2 difference.

    Allocated per operator call, not cached, so concurrent callers never
    share it; order 2 needs none.
    """
    return np.empty(shape) if order == 4 else None


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
    if order not in (2, 4):
        raise ValueError(f"stencil order must be 2 or 4, got {order}")
    out = _pair(np.add, f, axis, 1, np.empty(f.shape))
    if order == 2:
        out -= 2.0 * f
        out /= h * h
        return out
    # 16 s1 - s2 rounds exactly as the textbook -s2 + 16 s1
    out *= 16.0
    out -= _pair(np.add, f, axis, 2, np.empty(f.shape))
    out -= 30.0 * f
    out /= 12.0 * h * h
    return out


def grad(s: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Gradient of a scalar field: (d/dx, d/dy, d/dz) s."""
    h = grid.spacings
    out = np.empty((3,) + s.shape)
    scratch = _scratch(s.shape, order)
    for ax in range(3):
        _d1(s, ax, h[ax], order, out[ax], scratch)
    return out


def div(v: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Divergence of a vector field."""
    h = grid.spacings
    scratch = _scratch(v.shape[1:], order)
    out = _d1(v[0], 0, h[0], order, scratch=scratch)
    d = _d1(v[1], 1, h[1], order, scratch=scratch)
    out += d
    out += _d1(v[2], 2, h[2], order, d, scratch)
    return out


def curl(v: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Curl of a vector field: component i is d_j V_k - d_k V_j, (i, j, k) cyclic."""
    h = grid.spacings
    out = np.empty(v.shape)
    d = np.empty(v.shape[1:])
    scratch = _scratch(d.shape, order)
    for i, j, k in _CYCLIC:
        _d1(v[k], j, h[j], order, out[i], scratch)
        out[i] -= _d1(v[j], k, h[k], order, d, scratch)
    return out


def curl_curl(v: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """curl(curl V) as the literal composition of two curls."""
    return curl(curl(v, grid, order), grid, order)


def advect(v: np.ndarray, w: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Advective derivative (V . grad) W, component i: sum_k V_k d_k W_i."""
    h = grid.spacings
    out = np.empty(w.shape)
    d = np.empty(w.shape[1:])
    scratch = _scratch(d.shape, order)
    for i in range(3):
        np.multiply(v[0], _d1(w[i], 0, h[0], order, d, scratch), out=out[i])
        for k in (1, 2):
            _d1(w[i], k, h[k], order, d, scratch)
            d *= v[k]
            out[i] += d
    return out


def grad_contract(v: np.ndarray, w: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Contraction G_i = sum_k V_k d_i W_k (the gradient acts on W only).

    Together with the Lorentz force this splits the advective force:
    (V.grad)W = grad_contract(V, W) - V x curl(W).
    """
    h = grid.spacings
    out = np.empty(w.shape)
    d = np.empty(w.shape[1:])
    scratch = _scratch(d.shape, order)
    for i in range(3):
        np.multiply(v[0], _d1(w[0], i, h[i], order, d, scratch), out=out[i])
        for k in (1, 2):
            _d1(w[k], i, h[i], order, d, scratch)
            d *= v[k]
            out[i] += d
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
    """Pointwise cross product of two vector fields: U_j V_k - U_k V_j."""
    out = np.empty(np.broadcast_shapes(u.shape, v.shape))
    tmp = np.empty(out.shape[1:])
    for i, j, k in _CYCLIC:
        np.multiply(u[j], v[k], out=out[i])
        np.multiply(u[k], v[j], out=tmp)
        out[i] -= tmp
    return out


def dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise dot product of two vector fields (a scalar field)."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def l2_norm(arr: np.ndarray, grid: GridSpec) -> float:
    """Volume-weighted L2 norm; vectors are summed over components."""
    return float(np.sqrt(np.vdot(arr, arr).real * grid.cell_volume))


def max_norm(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr)))


def integrate(s: np.ndarray, grid: GridSpec) -> float:
    """Volume integral of a scalar field over the periodic box."""
    return float(np.sum(s) * grid.cell_volume)
