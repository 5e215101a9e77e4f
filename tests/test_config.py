"""key = value config parsing, validation and round-tripping."""

import dataclasses

import pytest

from modmhd import ConfigError, RunConfig, parse_config, serialize_config
from modmhd.params import GaugePolicy

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
    assert cfg.c == 1.0
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
        parse_config(MINIMAL + "physics.c = inf\n")


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
        'dispersion.h0 = "0.5,0,0.25"\n'
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
