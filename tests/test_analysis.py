"""Identity suite, diagnostics, and convergence machinery."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import modmhd.analysis as analysis
import modmhd.operators as ops
from modmhd import (
    Formulation,
    GridSpec,
    PhysParams,
    SimulationError,
    alfven_wave,
    convergence_study,
    diagnostics,
    fit_order,
    format_identity_report,
    h_from_a,
    helmholtz_project,
    identity_suite,
    orszag_tang_like,
    random_solenoidal,
    sound_wave,
    state_error,
    uniform_rest,
)
from modmhd.grid import full_vector

from conftest import TWO_PI, copied, cube, slab

VOL = TWO_PI ** 3


def test_fit_order_recovers_synthetic_slope():
    h = np.array([0.4, 0.2, 0.1])
    assert fit_order(h, 3.0 * h ** 2) == pytest.approx(2.0, abs=1e-12)
    assert fit_order(h, 0.7 * h ** 1.5) == pytest.approx(1.5, abs=1e-12)


def test_fit_order_degenerate_cases():
    assert math.isnan(fit_order([0.1], [1.0]))
    assert math.isnan(fit_order([0.4, 0.2], [0.0, 0.0]))
    # one error at the roundoff floor is dropped from the fit
    h = np.array([0.4, 0.2, 0.1])
    e = np.array([1e-2, 2.5e-3, 1e-19])
    assert fit_order(h, e) == pytest.approx(2.0, abs=1e-12)


def test_fit_order_of_one_repeated_spacing_is_nan():
    # a single distinct spacing gives no slope; polyfit would warn and guess
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(fit_order([0.1, 0.1], [1e-3, 2e-3]))
        assert math.isnan(fit_order([0.2, 0.1, 0.1], [1e-30, 1e-3, 2e-3]))


def test_state_error_zero_on_identical_states():
    st = uniform_rest(cube(8)).state
    assert state_error(st, copied(st)) == 0.0
    bumped = st.with_fields(st.mag, st.v, st.rho + 0.1, st.p, st.t)
    assert state_error(st, bumped) == pytest.approx(0.1 * np.sqrt(VOL), rel=1e-12)


# --- identity suite ----------------------------------------------------------

@pytest.fixture(scope="module")
def report():
    return identity_suite((16, 32))


def test_identity_suite_all_pass(report):
    assert report.all_passed
    assert report.resolutions == (16, 32)
    assert report.stencil_order == 2


def test_identity_exact_items_are_roundoff(report):
    assert max(report["two_fluid_reduction"].values) <= 1e-10
    assert max(report["force_split"].values) <= 1e-10


@pytest.mark.parametrize("order", [2, 4])
def test_force_split_is_exact_on_a_non_cubic_box(order):
    # f_mod = (1/2) j x H - S j on a box with three spacings, with the
    # suite's non-antisymmetric background, whose S j is a large share of f
    g = GridSpec(16, 12, 8, TWO_PI, 3.0, 2.0)
    a = random_solenoidal(g, Formulation.MODIFIED, amplitude=0.3, order=order).state.mag
    assert analysis._force_split_residual(a, analysis._test_background(), g, order) <= 1e-13


def test_identity_order_items_converge(report):
    for key in ("div_e_projected", "force_decomposition", "curl_curl_decomposition"):
        item = report[key]
        assert item.kind == "order"
        assert item.order >= 1.7
        assert item.values[0] > item.values[1]


def test_identity_decomposition_stencil_residual_is_exact(report):
    assert max(report["force_decomposition"].extras["stencil_identity"]) <= 1e-10


def test_identity_gauge_dependence_is_macroscopic(report):
    item = report["gauge_dependence"]
    assert item.kind == "positive"
    # continuum value for the witness pair is 1/sqrt(2)
    assert min(item.values) > 0.5


def test_identity_unprojected_divergence_is_order_one(report):
    extras = report["div_e_projected"].extras
    assert extras["div_e_raw"] > 0.1
    assert extras["div_e_discrete"] < 1e-8


def test_identity_suite_single_resolution():
    rep = identity_suite((16,))
    assert rep.all_passed
    for r in rep.results:
        if r.kind == "order":
            assert r.order is None


def test_identity_suite_rejects_empty():
    with pytest.raises(ValueError):
        identity_suite(())


def test_identity_report_lookup_and_format(report):
    with pytest.raises(KeyError):
        report["no_such_item"]
    text = format_identity_report(report)
    assert "identity suite" in text
    for r in report.results:
        assert r.key in text
    assert "FAIL" not in text


# --- diagnostics -------------------------------------------------------------

def test_diagnostics_uniform_rest_frozen_values():
    st = uniform_rest(cube(16), rho0=1.0, p0=1.0).state
    rec = diagnostics(st, PhysParams())
    assert rec.mass == pytest.approx(VOL, rel=1e-13)
    assert rec.e_kin == 0.0
    assert rec.e_mag == 0.0
    assert rec.e_int == pytest.approx(1.5 * VOL, rel=1e-13)
    assert rec.e_tot == rec.e_int
    assert (rec.momx, rec.momy, rec.momz) == (0.0, 0.0, 0.0)
    assert rec.divA_l2 == 0.0
    assert rec.divH_l2 == 0.0
    assert rec.ohm_resid == 0.0
    assert rec.entropy == pytest.approx(0.0, abs=1e-12)


def test_diagnostics_uniform_field_energy():
    b0 = 0.7
    st = uniform_rest(cube(16), b0x=b0).state
    rec = diagnostics(st, PhysParams())
    assert rec.e_mag == pytest.approx(VOL * b0 ** 2 / (8.0 * np.pi), rel=1e-13)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("shape", [(24, 16, 12), (9, 10, 11), (16, 8, 9)])
def test_ohm_resid_matches_the_projection_route(shape, order):
    # the record sums ||grad phi|| from the spectrum; the long way projects
    # v x H and differences (odd and even last axes weight the rfftn twins)
    g = GridSpec(*shape, 1.0, 2.5, 7.0)
    st = random_solenoidal(g, Formulation.MODIFIED, b0=0.5, amplitude=0.3,
                           seed=3, order=order).state
    w = ops.cross(st.v, h_from_a(st.mag, st.bg, g, order))
    want = ops.l2_norm(w - helmholtz_project(w, g, order)[0], g)
    got = diagnostics(st, PhysParams(stencil_order=order)).ohm_resid
    assert want > 0.0
    assert abs(got - want) <= 1e-12 * ops.l2_norm(w, g)


def test_ohm_resid_of_a_solenoidal_field_is_exactly_zero():
    # uniform v and H make v x H uniform and nonzero: helmholtz_project's
    # no-op floor
    g = cube(8)
    st = uniform_rest(g, b0z=0.5).state
    st = dataclasses.replace(st, v=full_vector(g, (0.3, 0.1, 0.0)))
    assert ops.max_norm(ops.cross(st.v, h_from_a(st.mag, st.bg, g))) > 0.0
    assert diagnostics(st, PhysParams()).ohm_resid == 0.0


def test_diagnostics_row_matches_columns():
    from modmhd.diagnostics import CSV_COLUMNS

    rec = diagnostics(uniform_rest(cube(8)).state, PhysParams(), dt=0.01)
    row = rec.as_row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[CSV_COLUMNS.index("dt")] == 0.01
    assert row[CSV_COLUMNS.index("mass")] == rec.mass


def test_diagnostics_csv_column_contract():
    # downstream tooling reads diagnostics.csv by these names in this order
    from dataclasses import fields

    from modmhd.diagnostics import CSV_COLUMNS, DiagnosticsRecord

    assert CSV_COLUMNS == (
        "t", "dt", "mass", "momx", "momy", "momz",
        "e_kin", "e_mag", "e_int", "e_tot",
        "divA_l2", "divA_max", "divH_l2",
        "ohm_resid", "gauge_drift", "entropy",
    )
    assert tuple(f.name for f in fields(DiagnosticsRecord)) == CSV_COLUMNS


# --- convergence studies -----------------------------------------------------

def test_convergence_exact_mode_alfven():
    res = convergence_study(
        lambda n: alfven_wave(slab(n)), (16, 32, 64), t_end=0.5
    )
    assert res.mode == "exact"
    assert res.order == pytest.approx(2.0, abs=0.3)
    assert res.errors[0] > res.errors[1] > res.errors[2]
    assert len(res.rows()) == 3
    assert res.rows()[0][0] == 16


def test_convergence_fixed_point_gives_nan_order():
    res = convergence_study(
        lambda n: uniform_rest(cube(n)), (8, 16), t_end=0.2
    )
    assert max(res.errors) == 0.0
    assert math.isnan(res.order)


def test_convergence_requires_two_resolutions():
    with pytest.raises(ValueError):
        convergence_study(lambda n: uniform_rest(cube(n)), (16,), t_end=0.1)


def test_convergence_richardson_mode_without_exact():
    res = convergence_study(
        lambda n: random_solenoidal(cube(n), amplitude=0.02),
        (16, 32), t_end=0.05,
    )
    assert res.mode == "richardson"
    assert res.resolutions == (16,)
    assert len(res.errors) == 1
    assert res.errors[0] > 0.0


@pytest.mark.parametrize("formulation", list(Formulation))
def test_convergence_richardson_nests_per_axis(formulation):
    # the thin-z vortex refines x and y but keeps nz = 4 (a stride of 1)
    res = convergence_study(
        lambda n: orszag_tang_like(GridSpec(n, n, 4, TWO_PI, TWO_PI, TWO_PI),
                                   formulation),
        (16, 32, 64), t_end=0.1,
    )
    assert res.mode == "richardson"
    assert res.order == pytest.approx(2.0, abs=0.3)


def test_convergence_nesting_is_checked_before_any_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run called before the nesting check")

    monkeypatch.setattr(analysis, "run", no_run)
    with pytest.raises(ValueError, match="must nest"):
        convergence_study(lambda n: random_solenoidal(cube(n)), (8, 12), t_end=0.1)


def test_convergence_failure_names_the_resolution():
    # a large-amplitude sound wave steepens until the pressure goes negative
    with pytest.raises(SimulationError, match=r"^resolution 16: run aborted") as info:
        convergence_study(
            lambda n: sound_wave(slab(n), Formulation.TRADITIONAL, delta=0.5),
            (16, 32), t_end=6.0,
        )
    assert len(info.value.records) > 0
