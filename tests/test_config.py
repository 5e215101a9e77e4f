"""key = value config parsing, validation and round-tripping."""

import dataclasses
import re

import numpy as np
import pytest

from modmhd import (ConfigError, GridSpec, PhysParams, build_scenario, parse_config,
                    serialize_config)
from modmhd.config import RunConfig
from modmhd.params import GAUGE_POLICIES, Formulation, GaugePolicy

MINIMAL = """\
grid.nx = 16
grid.ny = 16
grid.nz = 16
grid.lx = 6.283185307179586
grid.ly = 6.283185307179586
grid.lz = 6.283185307179586
scenario.name = "alfven_wave"
"""


def test_minimal_config_applies_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.nx == cfg.ny == cfg.nz == 16
    assert cfg.scenario == "alfven_wave"
    assert cfg.formulation == "modified"
    assert cfg.gamma == pytest.approx(5.0 / 3.0)
    assert cfg.courant == 0.4
    assert cfg.stencil_order == 2
    assert cfg.gauge_policy == "every_step"
    assert cfg.scenario_params == {}
    assert cfg.out_dir == "out"


def test_comments_and_blank_lines():
    text = (
        "# run setup\n\n"
        "grid.nx = 16  # inline comment\n"
        + MINIMAL.split("\n", 1)[1]
        + 'output.dir = "runs # not a comment"  # trailing\n'
    )
    cfg = parse_config(text)
    assert cfg.nx == 16
    assert cfg.out_dir == "runs # not a comment"


def test_missing_required_keys_are_named():
    with pytest.raises(ConfigError, match="grid.lz"):
        parse_config("grid.nx = 16\n")
    with pytest.raises(ConfigError, match="scenario.name"):
        parse_config("\n".join(MINIMAL.splitlines()[:-1]))


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match=r"line 8: unknown key 'grid.nw'"):
        parse_config(MINIMAL + "grid.nw = 3\n")


def test_removed_gauge_tol_key_is_unknown():
    with pytest.raises(ConfigError, match="unknown key 'numerics.gauge_tol'"):
        parse_config(MINIMAL + "numerics.gauge_tol = 1e-10\n")


def test_removed_speed_of_light_key_is_unknown():
    # c = 1 is fixed; config.txt files that still carry physics.c are refused
    with pytest.raises(ConfigError, match="^line 8: unknown key 'physics.c'"):
        parse_config(MINIMAL + "physics.c = 1\n")
    assert not hasattr(parse_config(MINIMAL), "c")
    assert not hasattr(PhysParams(), "c")


def test_malformed_line():
    with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
        parse_config("just words\n")


def test_constraint_violation_names_the_constraint():
    with pytest.raises(ConfigError, match=r"grid.nx = '-4' violates: >= 4"):
        parse_config(MINIMAL.replace("grid.nx = 16", "grid.nx = -4"))
    with pytest.raises(ConfigError, match="in \\(0, 1\\]"):
        parse_config(MINIMAL + "numerics.courant = 1.5\n")
    with pytest.raises(ConfigError, match="2 or 4"):
        parse_config(MINIMAL + "numerics.stencil_order = 3\n")


def test_type_errors_name_key_and_value():
    with pytest.raises(ConfigError, match=r"grid.nx: expected an integer, got 'abc'"):
        parse_config(MINIMAL.replace("grid.nx = 16", "grid.nx = abc"))
    with pytest.raises(ConfigError, match="must be finite"):
        parse_config(MINIMAL + "physics.gamma = inf\n")


@pytest.mark.parametrize("line,message", [
    ("physics.gamma = abc", "physics.gamma: expected a number, got 'abc'"),
    ('dispersion.k = "1,0"', "dispersion.k: expected integer triples"),
], ids=["gamma", "k"])
def test_malformed_values_report_line_number(line, message):
    with pytest.raises(ConfigError, match="^line 8: " + re.escape(message)):
        parse_config(MINIMAL + line + "\n")


@pytest.mark.parametrize("kwargs,message", [
    ({"gamma": 1.0}, "gamma must exceed 1"),
    ({"courant": 0.0}, "courant"),
    ({"courant": 1.5}, "courant"),
    ({"stencil_order": 3}, "stencil_order must be 2 or 4"),
], ids=["gamma", "courant0", "courant1.5", "order3"])
def test_phys_params_reject_out_of_range(kwargs, message):
    with pytest.raises(ValueError, match=message):
        PhysParams(**kwargs)


def test_unknown_scenario_name():
    with pytest.raises(ConfigError, match="a known scenario name"):
        parse_config(MINIMAL.replace("alfven_wave", "zalfven"))


def test_scenario_param_vocabulary_enforced():
    with pytest.raises(ConfigError, match=r"does not take 'delta'.*allowed: b0x"):
        parse_config(
            MINIMAL.replace("alfven_wave", "uniform_rest") + "scenario.delta = 0.1\n"
        )


def test_scenario_params_typed_by_default_table():
    cfg = parse_config(MINIMAL + "scenario.mode = 2\nscenario.delta = 0.01\n")
    assert cfg.scenario_params == {"mode": 2, "delta": 0.01}
    assert isinstance(cfg.scenario_params["mode"], int)
    with pytest.raises(ConfigError, match="scenario.mode: expected an integer"):
        parse_config(MINIMAL + "scenario.mode = 1.5\n")


def test_scenario_params_are_checked_by_the_scenario():
    # the library's rules: an integral float is an integer, and a float
    # must be finite
    cfg = parse_config(MINIMAL + "scenario.mode = 2.0\nscenario.b0 = 2\n")
    assert cfg.scenario_params == {"mode": 2, "b0": 2.0}
    assert isinstance(cfg.scenario_params["mode"], int)
    assert isinstance(cfg.scenario_params["b0"], float)
    with pytest.raises(ConfigError,
                       match="line 8: scenario.delta: expected a finite number, got nan"):
        parse_config(MINIMAL + "scenario.delta = nan\n")
    with pytest.raises(ConfigError,
                       match=r"--set #1: scenario.mode: expected an integer, got 'two'"):
        parse_config(MINIMAL, overrides=("scenario.mode=two",))


def test_overrides_win_over_file():
    cfg = parse_config(MINIMAL + "numerics.t_end = 1.0\n",
                       overrides=("numerics.t_end=2.5", "seed=11"))
    assert cfg.t_end == 2.5
    assert cfg.seed == 11


def test_override_errors_name_the_override():
    with pytest.raises(ConfigError, match=r"--set #1: expected key=value"):
        parse_config(MINIMAL, overrides=("oops",))
    with pytest.raises(ConfigError, match=r"--set #2: unknown key"):
        parse_config(MINIMAL, overrides=("seed=3", "nope=1"))


def test_k_list_parsing():
    cfg = parse_config(MINIMAL + 'dispersion.k = "1,0,0; 0,2,0"\n')
    assert cfg.dispersion_k == ((1, 0, 0), (0, 2, 0))
    with pytest.raises(ConfigError, match=r"\(0,0,0\) is not allowed"):
        parse_config(MINIMAL + 'dispersion.k = "0,0,0"\n')
    with pytest.raises(ConfigError, match="at least one wavevector"):
        parse_config(MINIMAL + 'dispersion.k = ";"\n')


def test_resolution_lists():
    cfg = parse_config(MINIMAL + 'identities.resolutions = "8,16"\n')
    assert cfg.identities_resolutions == (8, 16)
    cfg = parse_config(MINIMAL + 'convergence.resolutions = ""\n')
    assert cfg.convergence_resolutions == ()
    with pytest.raises(ConfigError, match="each >= 4"):
        parse_config(MINIMAL + 'identities.resolutions = "2,16"\n')


def test_gauge_policy_mapping():
    assert parse_config(MINIMAL).gauge() == GaugePolicy.every_step()
    cfg = parse_config(
        MINIMAL + "numerics.gauge_policy = every_n\nnumerics.gauge_n = 5\n"
    )
    assert cfg.gauge() == GaugePolicy.every_n(5)
    off = parse_config(MINIMAL + "numerics.gauge_policy = off\n").gauge()
    assert not off.due(1)
    for name, policy in GAUGE_POLICIES.items():
        cfg = parse_config(MINIMAL, overrides=(f"numerics.gauge_policy={name}",
                                               "numerics.gauge_n=4"))
        assert cfg.gauge() == policy(4)


def test_grid_and_phys_accessors():
    cfg = parse_config(MINIMAL + "physics.gamma = 1.4\nnumerics.courant = 0.3\n")
    g = cfg.grid()
    assert (g.nx, g.ny, g.nz) == (16, 16, 16)
    p = cfg.phys()
    assert p.gamma == 1.4
    assert p.courant == 0.3


def test_round_trip_equality():
    text = MINIMAL + (
        "formulation = traditional\n"
        "scenario.delta = 0.002\n"
        "scenario.mode = 2\n"
        "numerics.t_end = 0.75\n"
        'dispersion.k = "1,0,0; 1,1,0"\n'
        "scenario.b0 = 2.5\n"
        'output.dir = "runs/a b"\n'
        "convergence.expect_order = 2\n"
    )
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg
    # serialization is a fixed point
    assert serialize_config(parse_config(serialize_config(cfg))) == serialize_config(cfg)


def test_round_trip_of_defaults():
    cfg = parse_config(MINIMAL)
    assert parse_config(serialize_config(cfg)) == cfg


def test_build_case_from_config():
    cfg = parse_config(MINIMAL + "scenario.delta = 0.01\n")
    case = cfg.build_case()
    assert case.state.grid.nx == 16
    assert case.state.formulation.value == "modified"


def test_config_is_frozen():
    cfg = parse_config(MINIMAL)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 3


# --- generated from the RunConfig fields -------------------------------------

SETTINGS = [f for f in dataclasses.fields(RunConfig) if f.metadata]

#: key -> a raw value other than its default (or MINIMAL's value)
NON_DEFAULT = {
    "grid.nx": "12", "grid.ny": "8", "grid.nz": "4",
    "grid.lx": "1.5", "grid.ly": "0.1", "grid.lz": "3",
    "scenario.name": "random_solenoidal", "formulation": "traditional",
    "physics.gamma": "1.4", "numerics.courant": "0.3",
    "numerics.stencil_order": "4", "numerics.gauge_policy": "every_n",
    "numerics.gauge_n": "3", "numerics.t_end": "0.1",
    "numerics.out_every": "2", "numerics.snapshot_every": "5",
    "output.dir": '"runs/a b # c"', "seed": "11",
    "identities.resolutions": '"8, 24"', "dispersion.k": '"1,0,0; 0,-2,1"',
    "convergence.resolutions": "8,12", "convergence.t_end": "0.25",
    "convergence.expect_order": "3.5", "convergence.order_slack": "0.125",
}

#: constrained key -> (a raw value that violates it, the constraint text)
VIOLATIONS = {
    "grid.nx": ("3", ">= 4"), "grid.ny": ("-4", ">= 4"), "grid.nz": ("0", ">= 4"),
    "grid.lx": ("0", "> 0"), "grid.ly": ("-1.5", "> 0"), "grid.lz": ("-0.0", "> 0"),
    "scenario.name": ("zalfven", "a known scenario name"),
    "formulation": ("Modified", "modified or traditional"),
    "physics.gamma": ("1", "> 1"),
    "numerics.courant": ("1.5", "in (0, 1]"),
    "numerics.stencil_order": ("3", "2 or 4"),
    "numerics.gauge_policy": ("coulomb", "off, every_step or every_n"),
    "numerics.gauge_n": ("0", ">= 1"),
    "numerics.t_end": ("-1", ">= 0"),
    "numerics.out_every": ("0", ">= 1"),
    "numerics.snapshot_every": ("-1", ">= 0"),
    "seed": ("-7", ">= 0"),
    "identities.resolutions": ("2,16", "each >= 4, none repeated"),
    "convergence.resolutions": ("16,32,16", "each >= 4, none repeated"),
    "convergence.t_end": ("0", "> 0"),
    "convergence.expect_order": ("-2", ">= 0"),
    "convergence.order_slack": ("0", "> 0"),
}


def test_tables_cover_every_key():
    assert set(NON_DEFAULT) == {f.metadata["key"] for f in SETTINGS}
    assert set(VIOLATIONS) == {f.metadata["key"] for f in SETTINGS
                               if f.metadata["constraint"] is not None}


def test_every_key_set_off_its_default_round_trips():
    text = "".join(f"{key} = {raw}\n" for key, raw in NON_DEFAULT.items())
    cfg = parse_config(text + "scenario.b0 = 0.25\nscenario.k_max = 3\n")
    minimal = parse_config(MINIMAL)
    for f in SETTINGS:
        assert getattr(cfg, f.name) != getattr(minimal, f.name), f.metadata["key"]
    assert cfg.scenario_params == {"b0": 0.25, "k_max": 3}
    assert parse_config(serialize_config(cfg)) == cfg
    assert serialize_config(parse_config(serialize_config(cfg))) == serialize_config(cfg)


@pytest.mark.parametrize("key", sorted(VIOLATIONS))
@pytest.mark.parametrize("where", ["file", "override"])
def test_every_constraint_is_checked(key, where):
    raw, constraint = VIOLATIONS[key]
    if where == "file":
        text, overrides, loc = MINIMAL + f"{key} = {raw}\n", (), "line 8"
    else:
        text, overrides, loc = MINIMAL, (f"{key}={raw}",), "--set #1"
    with pytest.raises(ConfigError) as info:
        parse_config(text, overrides=overrides)
    assert str(info.value) == f"{loc}: {key} = {raw!r} violates: {constraint}"


def test_run_defaults_are_the_library_defaults():
    cfg = parse_config(MINIMAL.replace("alfven_wave", "random_solenoidal"))
    assert cfg.phys() == PhysParams()
    grid = GridSpec(16, 16, 16, *(6.283185307179586,) * 3)
    state = build_scenario("random_solenoidal", grid, Formulation.MODIFIED).state
    assert np.array_equal(cfg.build_case().state.mag, state.mag)
