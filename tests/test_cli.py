"""End-to-end command line behavior, exercised in-process."""

import csv
import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from modmhd import RunConfig, cfl_dt, cli, parse_config, read_snapshot
from modmhd.diagnostics import CSV_COLUMNS
from modmhd.operators import modified_wavenumber

from conftest import pressure_sink_at

TWO_PI = 6.283185307179586

BASE = f"""\
grid.nx = 16
grid.ny = 16
grid.nz = 16
grid.lx = {TWO_PI}
grid.ly = {TWO_PI}
grid.lz = {TWO_PI}
"""


def _cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(BASE + body)
    return str(path)


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_info_exits_zero(capsys):
    assert cli.main(["info"]) == 0
    out = capsys.readouterr().out
    assert "modmhd" in out
    assert "diagnostics columns" in out
    assert "alfven_wave" in out


def test_info_lists_each_scenario_key_with_its_default(capsys):
    # the scenario.* vocabulary, read off the builders' keyword arguments
    assert cli.main(["info"]) == 0
    assert """\
scenarios and their parameters:
  alfven_wave: b0=1.0, delta=0.001, mode=1, p0=0.6, rho0=1.0
  manufactured: (no parameters)
  orszag_tang_like: a0=0.2, p0=1.0, rho0=1.0, v0=0.2
  random_solenoidal: amplitude=0.05, b0=0.5, k_max=2, p0=1.0, rho0=1.0
  sound_wave: delta=0.0001, mode=1, p0=1.0, rho0=1.0
  uniform_rest: b0x=0.0, b0y=0.0, b0z=0.0, p0=1.0, rho0=1.0
config defaults""" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["run", "--help"]) == 0


def test_unknown_command_is_config_error(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_run_without_config_is_config_error(capsys):
    assert cli.main(["run"]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_with_missing_file_is_config_error(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_run_config_with_speed_of_light_is_config_error(tmp_path, capsys):
    # config.txt files written before c was fixed at 1 carry physics.c
    cfg = _cfg(tmp_path, 'scenario.name = "uniform_rest"\nphysics.c = 1\n')
    assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    assert "line 8: unknown key 'physics.c'" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["alfven_wave", "sound_wave"])
def test_run_mode_the_grid_cannot_hold_is_config_error(tmp_path, capsys, name):
    # mode 8 is the Nyquist mode of BASE's 16 x-points
    cfg = _cfg(tmp_path, f'scenario.name = "{name}"\nscenario.mode = 8\n')
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    assert "mx = 8 is not resolved by nx = 16 points" in capsys.readouterr().err
    assert not out.exists()


def test_run_grid_too_small_for_stencil_order_is_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, 'scenario.name = "uniform_rest"\nnumerics.stencil_order = 4\n')
    out = tmp_path / "out"
    argv = ["run", "--config", cfg, "--out-dir", str(out),
            "--set", "grid.nx=6", "--set", "grid.ny=6", "--set", "grid.nz=6"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "at least 8 points" in capsys.readouterr().err
    assert not out.exists()


def test_run_unwritable_out_dir_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    cfg = _cfg(tmp_path, 'scenario.name = "uniform_rest"\nnumerics.t_end = 0\n')
    argv = ["run", "--config", cfg, "--out-dir", str(blocker / "sub")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("output error:")
    assert "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


def test_run_failed_rename_leaves_no_temporary_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    cfg = _cfg(tmp_path, 'scenario.name = "uniform_rest"\nnumerics.t_end = 0\n')
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out-dir", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("output error:")
    assert list(out.iterdir()) == []


def test_run_fixed_point_row_count_and_mass(tmp_path, capsys):
    # ten CFL steps: nine whole ones plus a clipped final step
    dt = 0.4 * (TWO_PI / 16) / np.sqrt(5.0 / 3.0)
    cfg = _cfg(tmp_path, f'scenario.name = "uniform_rest"\nnumerics.t_end = {9.5 * dt:.17g}\n')
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
    assert "run complete" in capsys.readouterr().out

    rows = _read_rows(out / "diagnostics.csv")
    assert len(rows) == 11
    with open(out / "diagnostics.csv") as handle:
        assert handle.readline().strip() == ",".join(CSV_COLUMNS)
    mass = np.array([float(r["mass"]) for r in rows])
    assert np.abs(mass - mass[0]).max() <= 1e-12 * mass[0]
    assert float(rows[-1]["t"]) == pytest.approx(9.5 * dt, rel=1e-12)


def test_run_zero_duration_writes_single_row(tmp_path):
    cfg = _cfg(tmp_path, 'scenario.name = "uniform_rest"\nnumerics.t_end = 0\n')
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
    rows = _read_rows(out / "diagnostics.csv")
    assert len(rows) == 1
    assert float(rows[0]["t"]) == 0.0


def test_run_is_bitwise_deterministic(tmp_path, capsys):
    body = (
        'scenario.name = "random_solenoidal"\n'
        "numerics.t_end = 0.3\n"
        "numerics.snapshot_every = 2\n"
    )
    cfg = _cfg(tmp_path, body)
    for sub in ("out1", "out2"):
        assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path / sub)]) == 0
    d1 = (tmp_path / "out1" / "diagnostics.csv").read_bytes()
    d2 = (tmp_path / "out2" / "diagnostics.csv").read_bytes()
    assert d1 == d2
    f1 = (tmp_path / "out1" / "final.bin").read_bytes()
    f2 = (tmp_path / "out2" / "final.bin").read_bytes()
    assert f1 == f2


def test_run_config_txt_reproduces_the_run(tmp_path, capsys):
    body = (
        'scenario.name = "random_solenoidal"\n'
        "seed = 5\n"
        "numerics.t_end = 0.2\n"
        "numerics.snapshot_every = 2\n"
    )
    cfg = _cfg(tmp_path, body)
    first, again = tmp_path / "first", tmp_path / "again"
    assert cli.main(["run", "--config", cfg, "--out-dir", str(first)]) == 0
    resolved = dataclasses.replace(parse_config(Path(cfg).read_text()),
                                   out_dir=str(first))
    assert parse_config((first / "config.txt").read_text()) == resolved
    assert cli.main(["run", "--config", str(first / "config.txt"),
                     "--out-dir", str(again)]) == 0
    for name in ("final.bin", "diagnostics.csv"):
        assert (first / name).read_bytes() == (again / name).read_bytes()


def test_run_snapshot_cadence(tmp_path):
    dt = 0.4 * (TWO_PI / 16) / np.sqrt(5.0 / 3.0)
    body = (
        'scenario.name = "uniform_rest"\n'
        f"numerics.t_end = {9.5 * dt:.17g}\n"
        "numerics.snapshot_every = 4\n"
    )
    cfg = _cfg(tmp_path, body)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
    snaps = sorted(p.name for p in out.glob("snapshot_*.bin"))
    assert snaps == ["snapshot_000000.bin", "snapshot_000004.bin", "snapshot_000008.bin"]
    final = read_snapshot(out / "final.bin")
    assert final.t == pytest.approx(9.5 * dt, rel=1e-12)


def test_run_numerical_failure_flushes_partial_rows(tmp_path, capsys):
    body = (
        "grid.nx = 32\ngrid.ny = 4\ngrid.nz = 4\n"
        'scenario.name = "sound_wave"\n'
        "formulation = traditional\n"
        "scenario.delta = 0.5\n"
        "numerics.t_end = 6.0\n"
    )
    path = tmp_path / "blowup.cfg"
    path.write_text(BASE.replace("grid.nx = 16\ngrid.ny = 16\ngrid.nz = 16\n", "") + body)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out-dir", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    rows = _read_rows(out / "diagnostics.csv")
    assert len(rows) > 2          # partial history survived the abort
    assert 0.0 < float(rows[-1]["t"]) < 6.0


def test_run_numerical_failure_keeps_config_txt(tmp_path, capsys):
    body = ('scenario.name = "sound_wave"\nformulation = traditional\n'
            "scenario.delta = 0.5\nnumerics.t_end = 6.0\n")
    cfg = _cfg(tmp_path, body)
    out = tmp_path / "out"
    argv = ["run", "--config", cfg, "--out-dir", str(out),
            "--set", "grid.nx=32", "--set", "grid.ny=4", "--set", "grid.nz=4"]
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    written = parse_config((out / "config.txt").read_text())
    assert (written.nx, written.scenario, written.t_end) == (32, "sound_wave", 6.0)


@pytest.mark.parametrize("steps", [5.5, 1.9])
def test_run_invalid_final_rk4_combination_exits_3(tmp_path, capsys, monkeypatch, steps):
    # step 2's last source term drives P negative in its final combination
    # only; the run stops there and flushes the finite rows before it
    text = BASE.replace("= 16", "= 8") + 'scenario.name = "sound_wave"\n'
    cfg = parse_config(text)
    t_end = steps * cfl_dt(cfg.build_case().state, cfg.phys())
    path = tmp_path / "run.cfg"
    path.write_text(text + f"numerics.t_end = {t_end!r}\n")
    build = RunConfig.build_case
    monkeypatch.setattr(RunConfig, "build_case", lambda self: dataclasses.replace(
        build(self), source=pressure_sink_at(8)))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out-dir", str(out)]) == cli.EXIT_NUMERICAL
    assert "P must be strictly positive" in capsys.readouterr().err
    rows = _read_rows(out / "diagnostics.csv")
    assert len(rows) == 2
    assert np.isfinite([[float(x) for x in row.values()] for row in rows]).all()


def test_identities_pass_and_write_csv(tmp_path, capsys):
    cfg = _cfg(tmp_path, 'scenario.name = "uniform_rest"\n')
    out = tmp_path / "out"
    assert cli.main(["identities", "--config", cfg, "--out-dir", str(out)]) == 0
    assert "identity suite" in capsys.readouterr().out
    rows = _read_rows(out / "identities.csv")
    keys = {r["identity"] for r in rows}
    assert {"force_decomposition", "force_split"} <= keys
    assert all(r["passed"] == "1" for r in rows)


def test_identities_empty_resolutions_is_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, 'scenario.name = "uniform_rest"\n')
    rc = cli.main(["identities", "--config", cfg, "--out-dir", str(tmp_path / "o"),
                   "--set", "identities.resolutions="])
    assert rc == 2


def test_broken_curl_is_caught_by_identities(tmp_path, capsys, monkeypatch):
    # a deliberate sign fault in one stencil must trip the checks, and the
    # report must finger the two force identities whose algebra sees the flip
    import modmhd.operators as ops_mod

    orig = ops_mod.curl
    monkeypatch.setattr(ops_mod, "curl", lambda *a, **kw: -orig(*a, **kw))
    cfg = _cfg(tmp_path, 'scenario.name = "uniform_rest"\n')
    rc = cli.main(["identities", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "FAILED identities:" in err
    assert "force_decomposition" in err and "force_split" in err


def test_dispersion_writes_both_formulations(tmp_path, capsys):
    cfg = _cfg(tmp_path, 'scenario.name = "uniform_rest"\n'
                         "scenario.b0x = 1.0\nscenario.p0 = 0.6\n")
    out = tmp_path / "out"
    assert cli.main(["dispersion", "--config", cfg, "--out-dir", str(out)]) == 0
    assert "phase speeds" in capsys.readouterr().out
    rows = _read_rows(out / "dispersion.csv")
    forms = {r["formulation"] for r in rows}
    assert forms == {"modified", "traditional"}
    assert all(r["warning"] == "0" for r in rows)
    # numerical spectrum tracks the analytic one (as sets: the sort can
    # swap the two halves of a +/- pair between the columns)
    for form in forms:
        block = [r for r in rows if r["formulation"] == form]
        got = np.sort_complex(
            [complex(float(r["omega_re"]), float(r["omega_im"])) for r in block]
        )
        want = np.sort_complex(
            [complex(float(r["oracle_re"]), float(r["oracle_im"])) for r in block]
        )
        assert np.abs(got - want).max() < 1e-6


def test_dispersion_grid_too_small_for_stencil_order_is_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, 'scenario.name = "uniform_rest"\nnumerics.stencil_order = 4\n')
    out = tmp_path / "out"
    argv = ["dispersion", "--config", cfg, "--out-dir", str(out),
            "--set", "grid.ny=4", "--set", "grid.nz=4"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "at least 8 points" in capsys.readouterr().err
    assert not out.exists()


def test_dispersion_formulations_agree_without_field(tmp_path):
    cfg = _cfg(tmp_path, 'scenario.name = "uniform_rest"\n')
    out = tmp_path / "out"
    assert cli.main(["dispersion", "--config", cfg, "--out-dir", str(out)]) == 0
    rows = _read_rows(out / "dispersion.csv")
    by_form = {"modified": [], "traditional": []}
    for r in rows:
        by_form[r["formulation"]].append(
            complex(float(r["omega_re"]), float(r["omega_im"]))
        )
    wm = np.sort_complex(by_form["modified"])
    wt = np.sort_complex(by_form["traditional"])
    assert np.abs(wm - wt).max() <= 1e-6


def test_dispersion_measures_the_config_scenario(tmp_path):
    # the transverse branch along H0 = b0x x-hat moves at v_A (traditional)
    # and v_A / sqrt(2) (modified), with v_A = b0x / sqrt(4 pi rho0)
    cfg = _cfg(tmp_path, 'scenario.name = "uniform_rest"\n'
                         "scenario.b0x = 2.0\nscenario.rho0 = 1.7\n")
    out = tmp_path / "out"
    assert cli.main(["dispersion", "--config", cfg, "--out-dir", str(out)]) == 0
    kt = modified_wavenumber(1.0, TWO_PI / 16, 2)
    va = 2.0 / np.sqrt(4.0 * np.pi * 1.7)
    rows = _read_rows(out / "dispersion.csv")
    for form, want in (("traditional", va), ("modified", va / np.sqrt(2.0))):
        speeds = [abs(float(r["omega_re"])) / kt
                  for r in rows if r["formulation"] == form]
        slowest = min(s for s in speeds if s > 1e-10)
        assert slowest == pytest.approx(want, rel=1e-6)


def test_dispersion_of_a_state_not_at_rest_is_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, 'scenario.name = "alfven_wave"\n'
                         "scenario.b0 = 3\nscenario.p0 = 2\n")
    out = tmp_path / "out"
    assert cli.main(["dispersion", "--config", cfg, "--out-dir", str(out)]) == 2
    assert "uniform rest state" in capsys.readouterr().err
    assert not (out / "dispersion.csv").exists()


@pytest.mark.parametrize("line", [
    'dispersion.formulation = "both"', "dispersion.rho0 = 1",
    "dispersion.p0 = 0.6", 'dispersion.h0 = "1,0,0"',
], ids=["formulation", "rho0", "p0", "h0"])
def test_removed_dispersion_keys_are_unknown(tmp_path, capsys, line):
    # config.txt files of earlier versions carry these lines; they are refused
    cfg = _cfg(tmp_path, f'scenario.name = "uniform_rest"\n{line}\n')
    out = tmp_path / "out"
    assert cli.main(["dispersion", "--config", cfg, "--out-dir", str(out)]) == 2
    key = line.split(" =")[0]
    assert f"line 8: unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("modes", ["17,0,0", "-15,0,0", "8,1,0"])
def test_dispersion_unresolved_mode_is_config_error(tmp_path, capsys, modes):
    # on 16 x-points 17 and -15 alias to mode 1 and 8 is the Nyquist mode
    cfg = _cfg(tmp_path, 'scenario.name = "uniform_rest"\n')
    out = tmp_path / "out"
    rc = cli.main(["dispersion", "--config", cfg, "--out-dir", str(out),
                   "--set", "grid.ny=8", "--set", "grid.nz=8",
                   "--set", f"dispersion.k={modes}"])
    assert rc == cli.EXIT_CONFIG
    mx = modes.split(",")[0]
    assert (f"mode number mx = {mx} is not resolved by nx = 16 points: "
            "need |mx| < 8") in capsys.readouterr().err
    assert not (out / "dispersion.csv").exists()


def test_dispersion_zero_mode_is_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, 'scenario.name = "uniform_rest"\n')
    rc = cli.main(["dispersion", "--config", cfg, "--out-dir", str(tmp_path / "o"),
                   "--set", "dispersion.k=0,0,0"])
    assert rc == 2
    assert "not allowed" in capsys.readouterr().err


ALFVEN_SLAB = (
    "grid.nx = 16\ngrid.ny = 4\ngrid.nz = 4\n"
    f"grid.lx = {TWO_PI}\ngrid.ly = {TWO_PI}\ngrid.lz = {TWO_PI}\n"
    'scenario.name = "alfven_wave"\n'
    "formulation = traditional\n"
)


def test_convergence_passes_at_stencil_order(tmp_path, capsys):
    path = tmp_path / "conv.cfg"
    path.write_text(ALFVEN_SLAB + 'convergence.resolutions = "16,32,64"\n')
    out = tmp_path / "out"
    assert cli.main(["convergence", "--config", str(path), "--out-dir", str(out)]) == 0
    assert "fitted order" in capsys.readouterr().out
    rows = _read_rows(out / "convergence.csv")
    assert [int(r["resolution"]) for r in rows] == [16, 32, 64]
    errs = [float(r["error"]) for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_convergence_wrong_expected_order_fails(tmp_path, capsys):
    path = tmp_path / "conv.cfg"
    path.write_text(ALFVEN_SLAB + 'convergence.resolutions = "16,32"\n'
                    "convergence.expect_order = 4\n")
    rc = cli.main(["convergence", "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "out of band" in capsys.readouterr().err


def test_convergence_numerical_failure_exits_3(tmp_path, capsys):
    # a large-amplitude sound wave steepens until the pressure goes negative
    path = tmp_path / "conv.cfg"
    path.write_text(
        BASE.replace("grid.nx = 16\ngrid.ny = 16\ngrid.nz = 16\n",
                     "grid.nx = 32\ngrid.ny = 4\ngrid.nz = 4\n")
        + 'scenario.name = "sound_wave"\nformulation = traditional\n'
        "scenario.delta = 0.5\n"
        'convergence.resolutions = "16,32"\nconvergence.t_end = 6.0\n'
    )
    out = tmp_path / "out"
    rc = cli.main(["convergence", "--config", str(path), "--out-dir", str(out)])
    assert rc == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "resolution 16:" in err
    assert not (out / "convergence.csv").exists()


class _Stop(Exception):
    pass


def test_convergence_keeps_thin_axis_and_scales_the_rest(tmp_path, monkeypatch):
    shapes = []

    def record(factory, resolutions, t_end, params=None):
        shapes.extend(factory(n).state.grid.shape for n in resolutions)
        raise _Stop

    monkeypatch.setattr(cli, "convergence_study", record)
    path = tmp_path / "conv.cfg"
    path.write_text(
        BASE.replace("grid.nx = 16\ngrid.ny = 16\ngrid.nz = 16\n",
                     "grid.nx = 32\ngrid.ny = 32\ngrid.nz = 4\n")
        + 'scenario.name = "orszag_tang_like"\n'
        'convergence.resolutions = "16,32,64"\n'
    )
    with pytest.raises(_Stop):
        cli.main(["convergence", "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert shapes == [(16, 16, 4), (32, 32, 4), (64, 64, 4)]


def test_convergence_axis_that_does_not_scale_is_config_error(tmp_path, capsys,
                                                               monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("no case may be built for a bad grid")

    monkeypatch.setattr(cli, "convergence_study", never)
    path = tmp_path / "conv.cfg"
    path.write_text(
        BASE.replace("grid.nx = 16\ngrid.ny = 16\ngrid.nz = 16\n",
                     "grid.nx = 48\ngrid.ny = 20\ngrid.nz = 4\n")
        + 'scenario.name = "orszag_tang_like"\n'
        'convergence.resolutions = "16,32"\n'
    )
    rc = cli.main(["convergence", "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "ny" in err and "resolution 16" in err


@pytest.mark.parametrize("command", ["convergence", "identities"])
def test_repeated_resolutions_are_config_error(tmp_path, capsys, monkeypatch,
                                               command):
    def never(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "convergence_study", never)
    monkeypatch.setattr(cli, "identity_suite", never)
    path = tmp_path / "conv.cfg"
    path.write_text(ALFVEN_SLAB + f'{command}.resolutions = "16,32,16"\n')
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(path), "--out-dir", str(out)]) == 2
    assert (f"line 9: {command}.resolutions = '16,32,16' violates: "
            "each >= 4, none repeated") in capsys.readouterr().err
    assert not out.exists()


def test_convergence_single_resolution_is_config_error(tmp_path, capsys):
    path = tmp_path / "conv.cfg"
    path.write_text(ALFVEN_SLAB + 'convergence.resolutions = "16"\n')
    rc = cli.main(["convergence", "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "at least two" in capsys.readouterr().err
