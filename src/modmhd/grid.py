"""Uniform periodic grids and the array conventions for fields.

Everything in this package lives on a uniform, fully periodic 3D grid with
sample points ``x_i = i * hx`` (i = 0..nx-1), and likewise in y and z.  The
right endpoint is the periodic image of the left one and is not stored.

Field conventions
-----------------
scalar field : float64 ndarray of shape ``(nx, ny, nz)``
vector field : float64 ndarray of shape ``(3, nx, ny, nz)``, components
               stacked on the leading axis

All operators in :mod:`modmhd.operators` take these bare arrays plus a
:class:`GridSpec`.  On disk (see :mod:`modmhd.snapshot`) values are stored
x-index fastest, which corresponds to ``arr.ravel(order="F")`` for arrays
shaped ``(nx, ny, nz)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Stencil orders and the points per axis each needs.
STENCIL_POINTS = {2: 4, 4: 8}
#: The allowed orders as every rejection of another order names them.
STENCIL_ORDERS_TEXT = " or ".join(map(str, STENCIL_POINTS))


@dataclass(frozen=True)
class GridSpec:
    """Shape and extent of a periodic box.

    Invariants: nx, ny, nz are integers >= 4 (order-2 stencils need four
    points of support per axis; order-4 stencils need >= 8, which callers
    check via :meth:`require_order`), and lx, ly, lz are positive.
    """

    nx: int
    ny: int
    nz: int
    lx: float
    ly: float
    lz: float

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
                raise ValueError(f"{name} must be an integer, got {n!r}")
            if n < 4:
                raise ValueError(f"{name} must be >= 4, got {n}")
        for name in ("lx", "ly", "lz"):
            l = getattr(self, name)
            if not np.isfinite(l) or l <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {l}")

    # -- spacings -----------------------------------------------------------

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def hz(self) -> float:
        return self.lz / self.nz

    @property
    def spacings(self) -> tuple[float, float, float]:
        return (self.hx, self.hy, self.hz)

    @property
    def min_spacing(self) -> float:
        return min(self.spacings)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def vshape(self) -> tuple[int, int, int, int]:
        return (3, self.nx, self.ny, self.nz)

    @property
    def npoints(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def cell_volume(self) -> float:
        return self.hx * self.hy * self.hz

    def require_order(self, order: int) -> None:
        """Raise if the grid cannot support the requested stencil order."""
        if order not in STENCIL_POINTS:
            raise ValueError(f"stencil order must be {STENCIL_ORDERS_TEXT}, got {order}")
        need = STENCIL_POINTS[order]
        if min(self.nx, self.ny, self.nz) < need:
            raise ValueError(
                f"order-{order} stencils need at least {need} points per axis, "
                f"grid is {self.shape}"
            )

    # -- coordinates --------------------------------------------------------

    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """1D coordinate arrays (xs, ys, zs) with xs[i] = i*hx."""
        xs = np.arange(self.nx) * self.hx
        ys = np.arange(self.ny) * self.hy
        zs = np.arange(self.nz) * self.hz
        return xs, ys, zs

    def meshes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable coordinate meshes X (nx,1,1), Y (1,ny,1), Z (1,1,nz)."""
        xs, ys, zs = self.coords()
        return xs[:, None, None], ys[None, :, None], zs[None, None, :]


def wavevector_from_modes(modes, grid: GridSpec) -> np.ndarray:
    """Physical wavevector for integer mode numbers (waves per box edge),
    each resolved by its axis: |m_i| < n_i/2 (no alias, no Nyquist mode)."""
    m = np.asarray(modes)
    if m.shape != (3,) or not np.all(m == np.round(m)):
        raise ValueError("modes must be three integers")
    if np.all(m == 0):
        raise ValueError("at least one mode number must be nonzero")
    for axis, mi, n in zip("xyz", m, grid.shape):
        if not 2 * abs(mi) < n:
            raise ValueError(f"mode number m{axis} = {int(mi)} is not resolved by "
                             f"n{axis} = {n} points: need |m{axis}| < {n / 2:g}")
    lengths = np.array([grid.lx, grid.ly, grid.lz])
    return 2.0 * np.pi * m.astype(float) / lengths


def full_vector(grid: GridSpec, comps) -> np.ndarray:
    """Stack three broadcastable component expressions into a vector field."""
    out = np.zeros(grid.vshape)
    for c in range(3):
        out[c] += comps[c]
    return out
