"""Central-difference operators on periodic grids.

All derivative operators are built from the same first-derivative stencil
(order 2 or 4, the orders of ``grid.STENCIL_POINTS``).  The periodic
stencil is applied by slicing: the difference f[i+k] - f[i-k] along an
axis is written into one output array, with no shifted copy of the field,
as one flat pass over the C-ordered buffers (the partners of every point lie
k*stride elements away) and then the k wrap-around planes at each end, which
overwrite exactly the rows the flat pass gets wrong, so periodicity is exact.
An output that is not C-ordered receives the result through a scratch array.
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

from .grid import STENCIL_ORDERS_TEXT, STENCIL_POINTS, GridSpec

#: Cyclic index triples (i, j, k): component i of a curl or cross product
#: pairs j with k.
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _plane_runs(lo: int, hi: int, n: int, shifts=(0,)):
    """Split planes lo..hi-1 along axis 0 (taken mod n) into runs.

    Within a run, plane i + s (mod n) is contiguous for every shift s.
    Yields (offset, length, starts): the run's first plane counted from
    lo, its length, and the first plane i + s mod n for each shift.
    """
    i = lo
    while i < hi:
        starts = [(i + s) % n for s in shifts]
        length = min([hi - i] + [n - a for a in starts])
        yield i - lo, length, starts
        i += length


def _pair(op, f: np.ndarray, axis: int, k: int, out: np.ndarray,
          rows: tuple[int, int] | None = None) -> np.ndarray:
    """out[i] = op(f[i+k], f[i-k]) along ``axis``, indices taken mod n.

    ``rows`` = (lo, hi) fills only planes lo..hi-1 along axis 0 (see ``_d1``).
    """
    n = f.shape[axis]
    if n < 2 * k:
        raise ValueError(f"a stencil of half-width {k} needs at least {2 * k} "
                         f"points along axis {axis}, got {n}")
    if rows is not None and rows != (0, f.shape[0]):
        shifts = (k, -k) if axis == 0 else (0,)
        for at, m, starts in _plane_runs(*rows, f.shape[0], shifts):
            if axis == 0:
                p, q = starts
                op(f[p:p + m], f[q:q + m], out=out[at:at + m])
            else:
                _pair(op, f[starts[0]:starts[0] + m], axis, k, out[at:at + m])
        return out
    if not out.flags.c_contiguous:
        out[...] = _pair(op, f, axis, k, np.empty(out.shape))
        return out

    def cut(a, lo, hi):
        index = [slice(None)] * a.ndim
        index[axis] = slice(lo, hi)
        return a[tuple(index)]

    # reshape(-1) orders f like out, copying f only if its layout needs it
    s = k * out.strides[axis] // out.itemsize
    flat = f.reshape(-1)
    op(flat[2 * s:], flat[:flat.size - 2 * s], out=out.reshape(-1)[s:flat.size - s])
    op(cut(f, k, 2 * k), cut(f, n - k, n), out=cut(out, 0, k))
    op(cut(f, 0, k), cut(f, n - 2 * k, n - k), out=cut(out, n - k, n))
    return out


def _d1(f: np.ndarray, axis: int, h: float, order: int,
        out: np.ndarray | None = None,
        rows: tuple[int, int] | None = None) -> np.ndarray:
    """First derivative along one axis (periodic central difference).

    Written into ``out`` when given (it must not overlap ``f``).  ``rows``
    = (lo, hi) takes it on planes lo..hi-1 along axis 0 only, numbered mod
    f.shape[0] so that the range may run past either end, and ``out``
    holds just those planes.  Along axis 0 their partners are read from
    f's neighbouring planes, periodically; every value is bitwise the one
    the whole-array derivative has on that plane.
    """
    if order not in STENCIL_POINTS:
        raise ValueError(f"stencil order must be {STENCIL_ORDERS_TEXT}, got {order}")
    shape = f.shape if rows is None else (rows[1] - rows[0],) + f.shape[1:]
    if out is None:
        out = np.empty(shape)
    _pair(np.subtract, f, axis, 1, out, rows)
    if order == 2:
        out /= 2.0 * h
        return out
    out *= 8.0
    out -= _pair(np.subtract, f, axis, 2, np.empty(shape), rows)
    out /= 12.0 * h
    return out


def modified_wavenumber(k, spacing: float, order: int = 2):
    """Symbol ktilde of the centered first-derivative stencil at wavenumber k.

    ``_d1`` maps exp(i k x) to i * ktilde * exp(i k x).  k may be an array.
    """
    kh = k * spacing
    if order == 2:
        return np.sin(kh) / spacing
    if order == 4:
        return (8.0 * np.sin(kh) - np.sin(2.0 * kh)) / (6.0 * spacing)
    raise ValueError(f"stencil order must be {STENCIL_ORDERS_TEXT}, got {order}")


def _d2(f: np.ndarray, axis: int, h: float, order: int) -> np.ndarray:
    """Compact second derivative along one axis."""
    if order not in STENCIL_POINTS:
        raise ValueError(f"stencil order must be {STENCIL_ORDERS_TEXT}, got {order}")
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
    for ax in range(3):
        _d1(s, ax, h[ax], order, out[ax])
    return out


def div(v: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Divergence of a vector field."""
    h = grid.spacings
    out = _d1(v[0], 0, h[0], order)
    d = _d1(v[1], 1, h[1], order)
    out += d
    out += _d1(v[2], 2, h[2], order, d)
    return out


def _stencil(w: np.ndarray, grid: GridSpec, order: int,
             rows: tuple[int, int] | None = None):
    """First derivatives of W by stencil: d(c, ax, buf) is d_ax W_c, written into buf.

    ``rows`` restricts them to planes along x as ``_d1`` does.
    """
    h = grid.spacings
    return lambda c, ax, buf: _d1(w[c], ax, h[ax], order, buf, rows)


def _curl(d, out: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """out_i = d_j V_k - d_k V_j, (i, j, k) cyclic, from V's derivatives d.

    ``tmp``, when given, is scratch shaped like one component.
    """
    if tmp is None:
        tmp = np.empty(out.shape[1:])
    for i, j, k in _CYCLIC:
        np.subtract(d(k, j, out[i]), d(j, k, tmp), out=out[i])
    return out


def curl(v: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Curl of a vector field: component i is d_j V_k - d_k V_j, (i, j, k) cyclic."""
    return _curl(_stencil(v, grid, order), np.empty(v.shape))


def curl_curl(v: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """curl(curl V) as the literal composition of two curls."""
    return curl(curl(v, grid, order), grid, order)


def _contract(v: np.ndarray, d, on_i: bool = False, out: np.ndarray | None = None,
              tmp: np.ndarray | None = None) -> np.ndarray:
    """G_i = sum_k V_k d_k W_i, or sum_k V_k d_i W_k when ``on_i``, from W's derivatives d.

    ``tmp``, when given, is scratch shaped like one component.
    """
    if out is None:
        out = np.empty(v.shape)
    if tmp is None:
        tmp = np.empty(v.shape[1:])
    for i in range(3):
        for k in range(3):
            dk = d(k, i, tmp) if on_i else d(i, k, tmp)
            if k == 0:
                np.multiply(v[0], dk, out=out[i])
            else:
                out[i] += np.multiply(dk, v[k], out=tmp)
    return out


def advect(v: np.ndarray, w: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Advective derivative (V . grad) W, component i: sum_k V_k d_k W_i."""
    return _contract(v, _stencil(w, grid, order))


def grad_contract(v: np.ndarray, w: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Contraction G_i = sum_k V_k d_i W_k (the gradient acts on W only).

    Together with the Lorentz force this splits the advective force:
    (V.grad)W = grad_contract(V, W) - V x curl(W).
    """
    return _contract(v, _stencil(w, grid, order), on_i=True)


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


def cross(u: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise cross product of two vector fields: U_j V_k - U_k V_j.

    Written into ``out`` when given (it must not overlap U or V).
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(u.shape, v.shape))
    tmp = np.empty(out.shape[1:])
    for i, j, k in _CYCLIC:
        np.multiply(u[j], v[k], out=out[i])
        np.multiply(u[k], v[j], out=tmp)
        out[i] -= tmp
    return out


def dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise dot product of two vector fields (a scalar field).

    Summed as (u0 v0 + u1 v1) + u2 v2 in two arrays.
    """
    out = np.multiply(u[0], v[0])
    tmp = np.multiply(u[1], v[1])
    out += tmp
    out += np.multiply(u[2], v[2], out=tmp)
    return out


def l2_norm(arr: np.ndarray, grid: GridSpec) -> float:
    """Volume-weighted L2 norm; vectors are summed over components."""
    return float(np.sqrt(np.vdot(arr, arr).real * grid.cell_volume))


def max_norm(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr)))


def integrate(s: np.ndarray, grid: GridSpec) -> float:
    """Volume integral of a scalar field over the periodic box."""
    return float(np.sum(s) * grid.cell_volume)
