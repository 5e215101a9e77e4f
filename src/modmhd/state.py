"""Simulation state for both formulations."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import electromagnetics as em
from .grid import GridSpec
from .params import Formulation


class StateInvalidError(RuntimeError):
    """A state field is non-finite or violates positivity.

    ``quantity`` names the first offending field ("A", "H", "v", "rho", "P").
    """

    def __init__(self, quantity: str, message: str):
        super().__init__(message)
        self.quantity = quantity


def finite_h0(h0) -> np.ndarray:
    """``h0`` as a float 3-vector; ValueError unless it is finite."""
    h0 = np.asarray(h0, dtype=float).reshape(3)
    if not np.isfinite(h0).all():
        raise ValueError(f"h0 must be finite, got {h0}")
    return h0


@dataclass
class SimState:
    """Fluid + magnetic state on one grid at one time.

    Modified formulation: ``a`` holds the periodic vector potential and
    ``bg`` the affine background A0 = M x.  Traditional formulation: ``h``
    holds the periodic magnetic field and ``h0`` a finite uniform
    background vector.  rho and P must be strictly positive everywhere.

    ``fields`` is the evolved tuple ``(mag, v, rho, p)``; ``with_fields``
    and ``dynamics.Rhs`` take the same order, so code that acts on every
    field alike zips over it instead of naming the fields.
    """

    grid: GridSpec
    formulation: Formulation
    v: np.ndarray
    rho: np.ndarray
    p: np.ndarray
    t: float = 0.0
    a: np.ndarray | None = None
    bg: em.BackgroundPotential | None = None
    h: np.ndarray | None = None
    h0: np.ndarray | None = None

    def __post_init__(self):
        g = self.grid
        if self.formulation is Formulation.MODIFIED:
            if self.a is None:
                raise ValueError("modified state needs the periodic potential a")
            if self.bg is None:
                self.bg = em.BackgroundPotential.zero()
            mag_name = "a"
        else:
            if self.h is None:
                raise ValueError("traditional state needs the periodic field h")
            self.h0 = finite_h0(np.zeros(3) if self.h0 is None else self.h0)
            mag_name = "h"
        for name, arr, shape in zip((mag_name, "v", "rho", "p"), self.fields,
                                    (g.vshape, g.vshape, g.shape, g.shape)):
            if arr.shape != shape:
                raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")

    @property
    def mag(self) -> np.ndarray:
        """The evolved magnetic degree of freedom (a or h)."""
        return self.a if self.formulation is Formulation.MODIFIED else self.h

    @property
    def fields(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The evolved fields (mag, v, rho, p), in ``with_fields`` order."""
        return (self.mag, self.v, self.rho, self.p)

    def h_total(self, order: int = 2) -> np.ndarray:
        """Total magnetic field including the uniform background."""
        if self.formulation is Formulation.MODIFIED:
            return em.h_from_a(self.a, self.bg, self.grid, order)
        return self.h + self.h0[:, None, None, None]

    def with_fields(self, mag: np.ndarray, v: np.ndarray, rho: np.ndarray,
                    p: np.ndarray, t: float) -> "SimState":
        if self.formulation is Formulation.MODIFIED:
            return replace(self, a=mag, v=v, rho=rho, p=p, t=t)
        return replace(self, h=mag, v=v, rho=rho, p=p, t=t)

    def copy(self) -> "SimState":
        return self.with_fields(*(f.copy() for f in self.fields), self.t)


def validate_state(state: SimState) -> None:
    """Raise StateInvalidError naming the first offending quantity."""
    mag_name = "A" if state.formulation is Formulation.MODIFIED else "H"
    for name, arr in zip((mag_name, "v", "rho", "P"), state.fields):
        if not np.isfinite(arr).all():
            raise StateInvalidError(name, f"{name} contains non-finite values")
    if not (state.rho > 0.0).all():
        raise StateInvalidError("rho", "rho must be strictly positive everywhere")
    if not (state.p > 0.0).all():
        raise StateInvalidError("P", "P must be strictly positive everywhere")
