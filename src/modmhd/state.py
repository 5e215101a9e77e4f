"""Simulation state for both formulations.

Both formulations evolve the same eight unknowns: the periodic vector
potential A, v, rho and P.  They differ only in the force law.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import electromagnetics as em
from . import operators as ops
from .grid import GridSpec
from .params import Formulation


class StateInvalidError(RuntimeError):
    """A state field is non-finite or violates positivity.

    ``quantity`` names the first offending field ("A", "v", "rho", "P").
    """

    def __init__(self, quantity: str, message: str):
        super().__init__(message)
        self.quantity = quantity


#: Names of the evolved fields in ``SimState.fields`` order.
_FIELD_NAMES = ("A", "v", "rho", "P")


@dataclass
class SimState:
    """Fluid + magnetic state on one grid at one time.

    ``mag`` is the evolved magnetic unknown of both formulations: the
    periodic vector potential A, with H = curl A + H0.  ``bg`` is the
    frozen affine background A0 = M x; the traditional system reads only
    its uniform field H0.  rho and P must be strictly positive everywhere.

    ``fields`` is the evolved tuple ``(mag, v, rho, p)``; ``with_fields``
    and ``dynamics.Rhs`` take the same order, so code that acts on every
    field alike zips over it instead of naming the fields.
    """

    grid: GridSpec
    formulation: Formulation
    mag: np.ndarray
    v: np.ndarray
    rho: np.ndarray
    p: np.ndarray
    bg: em.BackgroundPotential = field(default_factory=em.BackgroundPotential.zero)
    t: float = 0.0

    def __post_init__(self):
        if not isinstance(self.bg, em.BackgroundPotential):
            raise TypeError("bg must be a BackgroundPotential, "
                            f"got {type(self.bg).__name__}")
        g = self.grid
        for name, arr, shape in zip(_FIELD_NAMES, self.fields,
                                    (g.vshape, g.vshape, g.shape, g.shape)):
            if arr.shape != shape:
                raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")

    @property
    def fields(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The evolved fields (mag, v, rho, p), in ``with_fields`` order."""
        return (self.mag, self.v, self.rho, self.p)

    def h_total(self, order: int = 2) -> np.ndarray:
        """Total magnetic field curl A + H0."""
        return em.h_from_a(self.mag, self.bg, self.grid, order)

    def with_fields(self, mag: np.ndarray, v: np.ndarray, rho: np.ndarray,
                    p: np.ndarray, t: float) -> "SimState":
        return replace(self, mag=mag, v=v, rho=rho, p=p, t=t)

    def copy(self) -> "SimState":
        return self.with_fields(*(f.copy() for f in self.fields), self.t)


def scalar_components(fields) -> list[np.ndarray]:
    """Views of the eight scalar components (mag x y z, v x y z, rho, P) of a
    tuple in ``SimState.fields`` order: a state's, an ``Rhs``, a difference."""
    mag, v, rho, p = fields
    return [*mag, *v, rho, p]


#: The checks of ``validate_state`` in the order it makes them:
#: (quantity, message, index of the field in ``SimState.fields``, test).
_CHECKS = (
    *((name, f"{name} contains non-finite values", i, lambda a: np.isfinite(a).all())
      for i, name in enumerate(_FIELD_NAMES)),
    ("rho", "rho must be strictly positive everywhere", 2, lambda a: (a > 0.0).all()),
    ("P", "P must be strictly positive everywhere", 3, lambda a: (a > 0.0).all()),
)


def first_failed_check(state: SimState, lo: int = 0, hi: int | None = None) -> int | None:
    """Index in ``_CHECKS`` of the first check that planes lo..hi-1 along x
    fail (numbered mod nx, so the range may run past either end), or None.
    The default is the whole grid."""
    n = state.grid.nx
    runs = list(ops._plane_runs(lo, n if hi is None else hi, n))
    for index, (_, _, field_index, passes) in enumerate(_CHECKS):
        arr = state.fields[field_index]
        if not all(passes(arr[..., a:a + m, :, :]) for _, m, (a,) in runs):
            return index
    return None


def validate_state(state: SimState, checked=None) -> None:
    """Raise StateInvalidError naming the first offending quantity.

    ``checked``, when given, holds ``first_failed_check`` of blocks of
    planes that cover the grid, from a caller that checked the blocks
    itself (``dynamics`` does, one block per thread); otherwise the whole
    grid is checked here.  Either way the error is the first failing
    check in ``_CHECKS`` order over the whole grid.
    """
    failed = [first_failed_check(state)] if checked is None else checked
    failed = [index for index in failed if index is not None]
    if failed:
        name, message = _CHECKS[min(failed)][:2]
        raise StateInvalidError(name, message)
