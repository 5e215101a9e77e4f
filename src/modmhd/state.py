"""Simulation state for both formulations.

Both formulations evolve the same eight unknowns: the periodic vector
potential A, v, rho and P.  They differ only in the force law.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import electromagnetics as em
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

    def with_fields(self, mag: np.ndarray, v: np.ndarray, rho: np.ndarray,
                    p: np.ndarray, t: float) -> "SimState":
        return replace(self, mag=mag, v=v, rho=rho, p=p, t=t)


def scalar_components(fields) -> list[np.ndarray]:
    """Views of the eight scalar components (mag x y z, v x y z, rho, P) of a
    tuple in ``SimState.fields`` order: a state's, an ``Rhs``, a difference."""
    mag, v, rho, p = fields
    return [*mag, *v, rho, p]


def validate_state(state: SimState) -> None:
    """Raise StateInvalidError naming the first offending quantity."""
    for name, arr in zip(_FIELD_NAMES, state.fields):
        if not np.isfinite(arr).all():
            raise StateInvalidError(name, f"{name} contains non-finite values")
    if not (state.rho > 0.0).all():
        raise StateInvalidError("rho", "rho must be strictly positive everywhere")
    if not (state.p > 0.0).all():
        raise StateInvalidError("P", "P must be strictly positive everywhere")
