"""Flat `key = value` run configuration.

Format: one pair per line, `#` starts a comment, dotted namespaces
(`grid.nx = 64`, `scenario.name = "alfven_wave"`).  Strings may be
quoted.  Every key has a documented default except the six grid.* keys
and scenario.name.  Unknown keys are hard errors, as are scenario
parameters the named scenario does not take -- typos never pass
silently.  All errors carry the key, the line number, and the violated
constraint.

Each setting is one `RunConfig` field whose metadata holds its key,
parser, constraint and written form, so a setting is added by adding one
field.  A key is required when its field has no default.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

from .grid import STENCIL_ORDERS_TEXT, STENCIL_POINTS, GridSpec
from .params import GAUGE_POLICIES, Formulation, GaugePolicy, PhysParams
from .scenarios import (DEFAULT_SEED, SCENARIO_DEFAULTS, build_scenario,
                        check_scenario_param)


class ConfigError(ValueError):
    """Invalid configuration text or values."""


def format_value(value) -> str:
    """A value as output-file text: floats as `.17g`, which reads back
    exactly, anything else through `str`."""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write(value) -> str:
    if isinstance(value, str):
        return f'"{value}"'
    return format_value(value)


def _write_int_list(value: tuple) -> str:
    return _write(",".join(str(n) for n in value))


def _write_k_list(value: tuple) -> str:
    return _write("; ".join(",".join(str(i) for i in t) for t in value))


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
    if not math.isfinite(value):
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
    if not raw.strip():
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


# constraints: (text, check) pairs
def _at_least(bound):
    return f">= {bound}", lambda v: v >= bound


def _above(bound):
    return f"> {bound}", lambda v: v > bound


def _one_of(names):
    names = tuple(names)
    return (", ".join(names[:-1]) + " or " + names[-1]), lambda v: v in names


_RESOLUTIONS = ("each >= 4, none repeated",
                lambda v: all(n >= 4 for n in v) and len(set(v)) == len(v))


def _setting(key, parse, constraint=None, default=MISSING, write=_write):
    """A `RunConfig` field: its config key, parser, constraint and writer."""
    return field(default=default, metadata={"key": key, "parse": parse,
                                            "constraint": constraint, "write": write})


@dataclass(frozen=True)
class RunConfig:
    nx: int = _setting("grid.nx", _parse_int, _at_least(4))
    ny: int = _setting("grid.ny", _parse_int, _at_least(4))
    nz: int = _setting("grid.nz", _parse_int, _at_least(4))
    lx: float = _setting("grid.lx", _parse_float, _above(0))
    ly: float = _setting("grid.ly", _parse_float, _above(0))
    lz: float = _setting("grid.lz", _parse_float, _above(0))
    scenario: str = _setting("scenario.name", str,
                             ("a known scenario name", SCENARIO_DEFAULTS.__contains__))
    formulation: str = _setting("formulation", str, _one_of(f.value for f in Formulation),
                                Formulation.MODIFIED.value)
    scenario_params: dict = field(default_factory=dict)   # the scenario.* keys
    gamma: float = _setting("physics.gamma", _parse_float, _above(1), PhysParams.gamma)
    courant: float = _setting("numerics.courant", _parse_float,
                              ("in (0, 1]", lambda v: 0 < v <= 1), PhysParams.courant)
    stencil_order: int = _setting("numerics.stencil_order", _parse_int,
                                  (STENCIL_ORDERS_TEXT, STENCIL_POINTS.__contains__),
                                  PhysParams.stencil_order)
    gauge_policy: str = _setting("numerics.gauge_policy", str, _one_of(GAUGE_POLICIES),
                                 "every_step")
    gauge_n: int = _setting("numerics.gauge_n", _parse_int, _at_least(1), 10)
    t_end: float = _setting("numerics.t_end", _parse_float, _at_least(0), 1.0)
    out_every: int = _setting("numerics.out_every", _parse_int, _at_least(1), 1)
    snapshot_every: int = _setting("numerics.snapshot_every", _parse_int, _at_least(0), 0)
    out_dir: str = _setting("output.dir", str, None, "out")
    seed: int = _setting("seed", _parse_int, _at_least(0), DEFAULT_SEED)
    identities_resolutions: tuple = _setting("identities.resolutions", _parse_int_list,
                                             _RESOLUTIONS, (16, 32), _write_int_list)
    dispersion_k: tuple = _setting("dispersion.k", _parse_k_list, None, ((1, 0, 0),),
                                   _write_k_list)
    convergence_resolutions: tuple = _setting("convergence.resolutions", _parse_int_list,
                                              _RESOLUTIONS, (16, 32, 64), _write_int_list)
    convergence_t_end: float = _setting("convergence.t_end", _parse_float, _above(0), 0.5)
    convergence_expect_order: float = _setting(   # 0 = use the stencil order
        "convergence.expect_order", _parse_float, _at_least(0), 0.0)
    convergence_order_slack: float = _setting("convergence.order_slack", _parse_float,
                                              _above(0), 0.3)

    def grid(self) -> GridSpec:
        return GridSpec(self.nx, self.ny, self.nz, self.lx, self.ly, self.lz)

    def formulation_enum(self) -> Formulation:
        return Formulation(self.formulation)

    def gauge(self) -> GaugePolicy:
        return GAUGE_POLICIES[self.gauge_policy](self.gauge_n)

    def phys(self) -> PhysParams:
        return PhysParams(gamma=self.gamma, courant=self.courant,
                          stencil_order=self.stencil_order, gauge=self.gauge())

    def build_case(self):
        return build_scenario(
            self.scenario, self.grid(), self.formulation_enum(),
            self.scenario_params, gamma=self.gamma,
            seed=self.seed, order=self.stencil_order,
        )


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

    settings = {f.metadata["key"]: f for f in fields(RunConfig) if f.metadata}
    values: dict = {}
    scen_params: dict = {}   # key -> (raw value, location)
    for key, raw, loc in pairs:
        if key in settings:
            meta = settings[key].metadata
            try:
                value = meta["parse"](raw)
            except ConfigError as exc:
                raise ConfigError(f"{loc}: {key}: {exc}") from None
            if meta["constraint"] is not None:
                constraint, check = meta["constraint"]
                if not check(value):
                    raise ConfigError(f"{loc}: {key} = {raw!r} violates: {constraint}")
            values[settings[key].name] = value
        elif key.startswith("scenario."):
            scen_params[key.removeprefix("scenario.")] = (raw, loc)
        else:
            raise ConfigError(f"{loc}: unknown key {key!r}")

    missing = [key for key, f in settings.items()
               if f.default is MISSING and f.name not in values]
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


def serialize_config(cfg: RunConfig) -> str:
    """Full canonical text; parse_config(serialize_config(c)) == c."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.metadata:
            lines.append(f"{f.metadata['key']} = {f.metadata['write'](value)}")
        else:   # scenario_params
            lines.extend(f"scenario.{pkey} = {_write(value[pkey])}"
                         for pkey in sorted(value))
    return "\n".join(lines) + "\n"
