"""Run-level parameters: physics constants, stencil order, gauge policy."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .grid import STENCIL_ORDERS_TEXT, STENCIL_POINTS


class Formulation(enum.Enum):
    """Which force law a state evolves under.

    Both evolve the vector potential A (gauge phi = 0) by dA/dt = v x H.
    MODIFIED applies the advective current force -(1/c)(j.grad)A and keeps
    div A = 0; TRADITIONAL applies the Lorentz force (1/c) j x H.
    """

    MODIFIED = "modified"
    TRADITIONAL = "traditional"


@dataclass(frozen=True)
class GaugePolicy:
    """When ``run`` re-projects a modified state's A onto div A = 0.

    ``run`` projects after every ``every``-th completed RK4 step (never
    inside stages; ``step_rk4`` never projects); ``every = 0`` turns it
    off.  The drift ||div A||_2 is measured before each projection and
    reported through diagnostics either way -- with projection off it
    simply accumulates.
    """

    every: int = 1

    def __post_init__(self):
        if self.every < 0:
            raise ValueError("gauge interval must be >= 0 (0 turns projection off)")

    def due(self, completed_steps: int) -> bool:
        return self.every > 0 and completed_steps % self.every == 0

    @classmethod
    def off(cls) -> "GaugePolicy":
        return cls(0)

    @classmethod
    def every_step(cls) -> "GaugePolicy":
        return cls(1)

    @classmethod
    def every_n(cls, n: int) -> "GaugePolicy":
        if n < 1:
            raise ValueError("gauge interval must be >= 1")
        return cls(n)


#: ``numerics.gauge_policy`` name -> its policy, given the ``every_n`` interval.
GAUGE_POLICIES = {"off": lambda n: GaugePolicy.off(),
                  "every_step": lambda n: GaugePolicy.every_step(),
                  "every_n": GaugePolicy.every_n}


@dataclass(frozen=True)
class PhysParams:
    """Physical constants and numerical knobs shared across a run.

    Gaussian units with the 4*pi factors explicit and c = 1: c cancels
    from the dynamics once j and the force are composed.
    """

    gamma: float = 5.0 / 3.0
    courant: float = 0.4
    stencil_order: int = 2
    gauge: GaugePolicy = field(default_factory=GaugePolicy)

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")
        if not 0.0 < self.courant <= 1.0:
            raise ValueError("courant number must lie in (0, 1]")
        if self.stencil_order not in STENCIL_POINTS:
            raise ValueError(f"stencil_order must be {STENCIL_ORDERS_TEXT}")
