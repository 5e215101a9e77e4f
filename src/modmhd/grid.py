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

    @property
    def volume(self) -> float:
        return self.lx * self.ly * self.lz

    def require_order(self, order: int) -> None:
        """Raise if the grid cannot support the requested stencil order."""
        if order not in (2, 4):
            raise ValueError(f"stencil order must be 2 or 4, got {order}")
        need = 4 if order == 2 else 8
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


def zeros_vector(grid: GridSpec) -> np.ndarray:
    return np.zeros(grid.vshape)


def full_scalar(grid: GridSpec, expr) -> np.ndarray:
    """Materialize a (possibly broadcast) expression as a full scalar field."""
    out = np.zeros(grid.shape)
    out += expr
    return out


def full_vector(grid: GridSpec, comps) -> np.ndarray:
    """Stack three broadcastable component expressions into a vector field."""
    out = np.zeros(grid.vshape)
    for c in range(3):
        out[c] += comps[c]
    return out


def validate_scalar(grid: GridSpec, arr: np.ndarray, name: str = "field") -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.shape != grid.shape:
        raise ValueError(f"{name}: expected shape {grid.shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: contains non-finite values")
    return arr


def validate_vector(grid: GridSpec, arr: np.ndarray, name: str = "field") -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.shape != grid.vshape:
        raise ValueError(f"{name}: expected shape {grid.vshape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: contains non-finite values")
    return arr
