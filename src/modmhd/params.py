"""Run-level parameters: physics constants, stencil order, gauge policy."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Formulation(enum.Enum):
    """Which induction/force pairing a state evolves under.

    MODIFIED evolves the vector potential A (gauge phi = 0, div A = 0) with
    the advective current force -(1/c)(j.grad)A.  TRADITIONAL evolves the
    magnetic field H directly with the Lorentz force (1/c) j x H.
    """

    MODIFIED = "modified"
    TRADITIONAL = "traditional"


@dataclass(frozen=True)
class GaugePolicy:
    """When to re-project A onto div A = 0 during time stepping.

    mode is one of "off", "every_step", "every_n"; projection happens after
    a completed RK4 step, never inside stages. The drift ||div A||_2 is
    measured before each projection and reported through diagnostics either
    way -- with mode "off" it simply accumulates.
    """

    mode: str = "every_step"
    every: int = 1

    def __post_init__(self):
        if self.mode not in ("off", "every_step", "every_n"):
            raise ValueError(f"unknown gauge mode {self.mode!r}")
        if self.every < 1:
            raise ValueError("gauge interval must be >= 1")

    def due(self, completed_steps: int) -> bool:
        if self.mode == "off":
            return False
        if self.mode == "every_step":
            return True
        return completed_steps % self.every == 0

    @classmethod
    def off(cls) -> "GaugePolicy":
        return cls(mode="off")

    @classmethod
    def every_step(cls) -> "GaugePolicy":
        return cls(mode="every_step")

    @classmethod
    def every_n(cls, n: int) -> "GaugePolicy":
        return cls(mode="every_n", every=n)


@dataclass(frozen=True)
class PhysParams:
    """Physical constants and numerical knobs shared across a run.

    Gaussian units with the 4*pi factors explicit; c enters only the
    current density and the electric-field diagnostics (the dynamics is
    c-free once j and the force are composed).
    """

    c: float = 1.0
    gamma: float = 5.0 / 3.0
    courant: float = 0.4
    stencil_order: int = 2
    gauge: GaugePolicy = field(default_factory=GaugePolicy)

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError("c must be positive")
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")
        if not 0.0 < self.courant <= 1.0:
            raise ValueError("courant number must lie in (0, 1]")
        if self.stencil_order not in (2, 4):
            raise ValueError("stencil_order must be 2 or 4")
