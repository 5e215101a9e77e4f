"""Flat `key = value` run configuration.

Format: one pair per line, `#` starts a comment, dotted namespaces
(`grid.nx = 64`, `scenario.name = "alfven_wave"`).  Strings may be
quoted.  Every key has a documented default except the six grid.* keys
and scenario.name.  Unknown keys are hard errors, as are scenario
parameters the named scenario does not take -- typos never pass
silently.  All errors carry the key, the line number, and the violated
constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .grid import STENCIL_ORDERS_TEXT, STENCIL_POINTS, GridSpec
from .params import Formulation, GaugePolicy, PhysParams
from .scenarios import SCENARIO_DEFAULTS, build_scenario, check_scenario_param


class ConfigError(ValueError):
    """Invalid configuration text or values."""


@dataclass(frozen=True)
class RunConfig:
    nx: int
    ny: int
    nz: int
    lx: float
    ly: float
    lz: float
    scenario: str
    formulation: str = "modified"
    scenario_params: dict = field(default_factory=dict)
    gamma: float = 5.0 / 3.0
    courant: float = 0.4
    stencil_order: int = 2
    gauge_policy: str = "every_step"
    gauge_n: int = 10
    t_end: float = 1.0
    out_every: int = 1
    snapshot_every: int = 0
    out_dir: str = "out"
    seed: int = 7
    identities_resolutions: tuple = (16, 32)
    dispersion_k: tuple = ((1, 0, 0),)
    convergence_resolutions: tuple = (16, 32, 64)
    convergence_t_end: float = 0.5
    convergence_expect_order: float = 0.0   # 0 = use the stencil order
    convergence_order_slack: float = 0.3

    def grid(self) -> GridSpec:
        return GridSpec(self.nx, self.ny, self.nz, self.lx, self.ly, self.lz)

    def formulation_enum(self) -> Formulation:
        return Formulation(self.formulation)

    def gauge(self) -> GaugePolicy:
        if self.gauge_policy == "off":
            return GaugePolicy.off()
        if self.gauge_policy == "every_step":
            return GaugePolicy.every_step()
        return GaugePolicy.every_n(self.gauge_n)

    def phys(self) -> PhysParams:
        return PhysParams(gamma=self.gamma, courant=self.courant,
                          stencil_order=self.stencil_order, gauge=self.gauge())

    def build_case(self):
        return build_scenario(
            self.scenario, self.grid(), self.formulation_enum(),
            self.scenario_params, gamma=self.gamma,
            seed=self.seed, order=self.stencil_order,
        )


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"value must be finite, got {raw!r}")
    return value


def _parse_number(raw: str):
    """Text as an int or a float; other text is returned as is, for the
    scenario's check to refuse."""
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            pass
    return raw


def _parse_int_list(raw: str) -> tuple:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_parse_int(p.strip()) for p in raw.split(","))


def _parse_k_list(raw: str) -> tuple:
    triples = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"expected integer triples 'i,j,k; ...', got {raw!r}")
        triple = tuple(_parse_int(p) for p in parts)
        if triple == (0, 0, 0):
            raise ConfigError("wavevector (0,0,0) is not allowed")
        triples.append(triple)
    if not triples:
        raise ConfigError("dispersion.k must list at least one wavevector")
    return tuple(triples)


# constraint text and check of both resolution lists
_RESOLUTIONS = ("each >= 4, none repeated",
                lambda v: all(n >= 4 for n in v) and len(set(v)) == len(v))

# key -> (attribute, parser, constraint text or None, validator or None)
_KEYS = {
    "grid.nx": ("nx", _parse_int, ">= 4", lambda v: v >= 4),
    "grid.ny": ("ny", _parse_int, ">= 4", lambda v: v >= 4),
    "grid.nz": ("nz", _parse_int, ">= 4", lambda v: v >= 4),
    "grid.lx": ("lx", _parse_float, "> 0", lambda v: v > 0),
    "grid.ly": ("ly", _parse_float, "> 0", lambda v: v > 0),
    "grid.lz": ("lz", _parse_float, "> 0", lambda v: v > 0),
    "scenario.name": ("scenario", str, "a known scenario name",
                      lambda v: v in SCENARIO_DEFAULTS),
    "formulation": ("formulation", str, "modified or traditional",
                    lambda v: v in ("modified", "traditional")),
    "physics.gamma": ("gamma", _parse_float, "> 1", lambda v: v > 1),
    "numerics.courant": ("courant", _parse_float, "in (0, 1]",
                         lambda v: 0 < v <= 1),
    "numerics.stencil_order": ("stencil_order", _parse_int, STENCIL_ORDERS_TEXT,
                               lambda v: v in STENCIL_POINTS),
    "numerics.gauge_policy": ("gauge_policy", str, "off, every_step or every_n",
                              lambda v: v in ("off", "every_step", "every_n")),
    "numerics.gauge_n": ("gauge_n", _parse_int, ">= 1", lambda v: v >= 1),
    "numerics.t_end": ("t_end", _parse_float, ">= 0", lambda v: v >= 0),
    "numerics.out_every": ("out_every", _parse_int, ">= 1", lambda v: v >= 1),
    "numerics.snapshot_every": ("snapshot_every", _parse_int, ">= 0",
                                lambda v: v >= 0),
    "output.dir": ("out_dir", str, None, None),
    "seed": ("seed", _parse_int, ">= 0", lambda v: v >= 0),
    "identities.resolutions": ("identities_resolutions", _parse_int_list,
                               *_RESOLUTIONS),
    "dispersion.k": ("dispersion_k", _parse_k_list, None, None),
    "convergence.resolutions": ("convergence_resolutions", _parse_int_list,
                                *_RESOLUTIONS),
    "convergence.t_end": ("convergence_t_end", _parse_float, "> 0",
                          lambda v: v > 0),
    "convergence.expect_order": ("convergence_expect_order", _parse_float,
                                 ">= 0", lambda v: v >= 0),
    "convergence.order_slack": ("convergence_order_slack", _parse_float, "> 0",
                                lambda v: v > 0),
}

_REQUIRED = ("grid.nx", "grid.ny", "grid.nz", "grid.lx", "grid.ly", "grid.lz",
             "scenario.name")

_ATTR_TO_KEY = {attr: key for key, (attr, *_rest) in _KEYS.items()}


def _strip_comment(line: str) -> str:
    out = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


def _unquote(raw: str) -> str:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"':
        return raw[1:-1]
    return raw


def parse_config(text: str, overrides=()) -> RunConfig:
    """Parse config text, then apply `key=value` override strings in order."""
    pairs = []  # (key, raw value, location)
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = _strip_comment(line).strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, _, raw = body.partition("=")
        pairs.append((key.strip(), _unquote(raw), f"line {lineno}"))
    for i, item in enumerate(overrides, start=1):
        if "=" not in item:
            raise ConfigError(f"--set #{i}: expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        pairs.append((key.strip(), _unquote(raw), f"--set #{i}"))

    values: dict = {}
    scen_params: dict = {}   # key -> (raw value, location)
    for key, raw, loc in pairs:
        if key in _KEYS:
            attr, parser, constraint, check = _KEYS[key]
            try:
                value = parser(raw)
            except ConfigError as exc:
                raise ConfigError(f"{loc}: {key}: {exc}") from None
            if check is not None and not check(value):
                raise ConfigError(f"{loc}: {key} = {raw!r} violates: {constraint}")
            values[attr] = value
        elif key.startswith("scenario."):
            scen_params[key.removeprefix("scenario.")] = (raw, loc)
        else:
            raise ConfigError(f"{loc}: unknown key {key!r}")

    missing = [k for k in _REQUIRED if _KEYS[k][0] not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    typed: dict = {}
    for pkey, (raw, loc) in scen_params.items():
        try:
            typed[pkey] = check_scenario_param(values["scenario"], pkey,
                                               _parse_number(raw))
        except ValueError as exc:
            raise ConfigError(f"{loc}: {exc}") from None
    values["scenario_params"] = typed

    cfg = RunConfig(**values)
    try:
        cfg.grid()
        cfg.phys()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _fmt(value) -> str:
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Full canonical text; parse_config(serialize_config(c)) == c."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "scenario_params":
            for pkey in sorted(value):
                lines.append(f"scenario.{pkey} = {_fmt(value[pkey])}")
            continue
        key = _ATTR_TO_KEY[f.name]
        if f.name == "identities_resolutions" or f.name == "convergence_resolutions":
            lines.append(f"{key} = \"{','.join(str(n) for n in value)}\"")
        elif f.name == "dispersion_k":
            body = "; ".join(",".join(str(i) for i in t) for t in value)
            lines.append(f'{key} = "{body}"')
        else:
            lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines) + "\n"
