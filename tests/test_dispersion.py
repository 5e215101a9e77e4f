"""Numerical mode analysis against the hand-derived linearization."""

import re

import numpy as np
import pytest

from modmhd import (
    BackgroundPotential,
    Formulation,
    GridSpec,
    PhysParams,
    SimState,
    dispersion,
    modified_wavenumber,
    oracle_matrix,
    oracle_omegas,
    uniform_rest,
    wavevector_from_modes,
)

from modmhd.dispersion import mode_coefficients
from modmhd.state import scalar_components

from conftest import TWO_PI, cube, slab

VA = 1.0 / np.sqrt(4.0 * np.pi)


def _trad(g, h0=(1.0, 0.0, 0.0), rho0=1.0, p0=0.6):
    return uniform_rest(g, Formulation.TRADITIONAL, rho0, p0, *h0).state


def _mod(g, h0=(1.0, 0.0, 0.0), rho0=1.0, p0=0.6):
    return uniform_rest(g, Formulation.MODIFIED, rho0, p0, *h0).state


def test_wavevector_from_modes():
    g = cube(16, length=TWO_PI)
    assert np.allclose(wavevector_from_modes((1, 0, 0), g), (1.0, 0.0, 0.0))
    g2 = cube(16, length=np.pi)
    assert np.allclose(wavevector_from_modes((0, 2, 0), g2), (0.0, 4.0, 0.0))
    with pytest.raises(ValueError):
        wavevector_from_modes((0, 0, 0), g)


# 16x8x8: |m| < 8 along x, |m| < 4 along y and z
RESOLVE_GRID = GridSpec(16, 8, 8, TWO_PI, 3.0, 2.0)


@pytest.mark.parametrize("modes, message", [
    ((17, 0, 0), "mx = 17 is not resolved by nx = 16 points: need |mx| < 8"),
    ((-15, 0, 0), "mx = -15 is not resolved by nx = 16 points: need |mx| < 8"),
    ((8, 1, 0), "mx = 8 is not resolved by nx = 16 points: need |mx| < 8"),
    ((1, 0, -4), "mz = -4 is not resolved by nz = 8 points: need |mz| < 4"),
], ids=["alias_17", "alias_-15", "nyquist", "nyquist_z"])
def test_unresolved_mode_numbers_are_refused(modes, message):
    # 17 and -15 alias to mode 1 on 16 points; 8 is the Nyquist mode, which
    # the centered stencils see as k = 0
    background = _trad(RESOLVE_GRID)
    for measure in (lambda: wavevector_from_modes(modes, RESOLVE_GRID),
                    lambda: oracle_omegas(background, modes, PhysParams()),
                    lambda: dispersion(background, modes, PhysParams())):
        with pytest.raises(ValueError, match=re.escape(message)):
            measure()


@pytest.mark.parametrize("formulation", list(Formulation))
def test_highest_resolved_mode_matches_oracle(formulation):
    background = uniform_rest(RESOLVE_GRID, formulation, 1.0, 0.6, 0.6, -0.3, 0.8).state
    p = PhysParams()
    res = dispersion(background, (7, -3, 3), p)
    want = oracle_omegas(background, (7, -3, 3), p)
    err = np.abs(np.sort_complex(res.omega) - np.sort_complex(want)).max()
    assert err <= 1e-8 * np.abs(want).max()


def test_mode_coefficients_recover_each_component_in_order():
    # component c = 1 + a_c cos(k.x) + b_c sin(k.x): entry 2c is a_c, 2c + 1 is b_c
    g = RESOLVE_GRID
    st = _mod(g)
    x, y, z = g.meshes()
    phase = (2 * np.pi * 2 / g.lx) * x - (2 * np.pi / g.ly) * y + (2 * np.pi / g.lz) * z
    basis = (np.cos(phase), np.sin(phase))
    want = np.arange(1.0, 17.0) / 16.0
    fields = [f.copy() for f in st.fields]
    components = scalar_components(fields)
    for c, f in enumerate(components):
        f[...] = 1.0 + want[2 * c] * basis[0] + want[2 * c + 1] * basis[1]
    assert np.shares_memory(components[0], fields[0])    # views, not copies
    assert np.shares_memory(components[7], fields[3])
    assert np.abs(mode_coefficients(fields, basis) - want).max() < 1e-14


def test_modified_wavenumber():
    h = 0.1
    assert modified_wavenumber(0.0, h, 2) == 0.0
    assert modified_wavenumber(2.0, h, 2) == pytest.approx(np.sin(0.2) / 0.1)
    k4 = (8.0 * np.sin(0.2) - np.sin(0.4)) / (6.0 * 0.1)
    assert modified_wavenumber(2.0, h, 4) == pytest.approx(k4)
    # order 4 is closer to the true wavenumber
    assert abs(modified_wavenumber(2.0, h, 4) - 2.0) < abs(
        modified_wavenumber(2.0, h, 2) - 2.0)


@pytest.mark.parametrize("background", [_trad(slab(64)), _mod(slab(64))])
def test_jacobian_matches_analytic_oracle(background):
    p = PhysParams()
    res = dispersion(background, (1, 0, 0), p)
    want = oracle_omegas(background, (1, 0, 0), p)
    scale = np.abs(want).max()
    err = np.abs(np.sort_complex(res.omega) - np.sort_complex(want)).max()
    assert err <= 1e-8 * scale
    assert not res.warning


def test_traditional_parallel_speeds():
    g = slab(64)
    res = dispersion(_trad(g), (1, 0, 0), PhysParams())
    cs = 1.0   # sqrt(gamma p0 / rho0) with gamma=5/3, p0=0.6
    speeds = res.speeds()
    nonzero = sorted(s for s in speeds if s > 1e-10)
    assert len(nonzero) == 2
    assert nonzero[0] == pytest.approx(VA, rel=5e-3)
    assert nonzero[1] == pytest.approx(cs, rel=5e-3)
    # Alfven speed appears twice (two polarizations): four +/- pairs at VA
    kt = modified_wavenumber(1.0, g.hx, 2)
    n_alfven = np.sum(np.abs(np.abs(res.omega.real) - VA * kt) < 1e-8 * kt)
    assert n_alfven == 8   # 2 polarizations x +/- x cos/sin doubling


def test_modified_transverse_speed_is_va_over_sqrt2():
    # headline contrast with the traditional system: in the symmetric
    # background gauge the transverse branch propagates at v_A/sqrt(2)
    g = slab(64)
    res = dispersion(_mod(g), (1, 0, 0), PhysParams())
    nonzero = sorted(s for s in res.speeds() if s > 1e-10)
    assert nonzero[0] == pytest.approx(VA / np.sqrt(2.0), rel=5e-3)
    assert nonzero[1] == pytest.approx(1.0, rel=5e-3)


def test_formulations_agree_without_background_field():
    g = slab(32)
    p = PhysParams()
    wm = np.sort_complex(dispersion(_mod(g, h0=(0, 0, 0)), (1, 0, 0), p).omega)
    wt = np.sort_complex(dispersion(_trad(g, h0=(0, 0, 0)), (1, 0, 0), p).omega)
    scale = max(np.abs(wt).max(), 1e-30)
    assert np.abs(wm - wt).max() <= 1e-6 * scale


def test_eigenvalues_come_in_conjugate_pairs():
    g = slab(32)
    for background in (_trad(g), _mod(g), _trad(g, h0=(0.3, 0.4, 0.0))):
        res = dispersion(background, (1, 0, 0), PhysParams())
        assert res.pairing_error <= 1e-8


def test_oblique_mode_against_oracle():
    g = cube(24)
    p = PhysParams()
    background = _trad(g, h0=(0.8, 0.0, 0.3), p0=0.4)
    res = dispersion(background, (1, 2, 0), p)
    want = oracle_omegas(background, (1, 2, 0), p)
    err = np.abs(np.sort_complex(res.omega) - np.sort_complex(want)).max()
    assert err <= 1e-7 * np.abs(want).max()


def test_oracle_matrix_structure():
    g = slab(16)
    p = PhysParams()
    L = oracle_matrix(_trad(g), (1, 0, 0), p)
    assert L.shape == (8, 8)
    # no growth or decay in ideal linear theory: eigenvalues purely imaginary
    lam = np.linalg.eigvals(L)
    assert np.abs(lam.real).max() < 1e-12


def test_modified_wavevector_componentwise():
    g = cube(16)
    kv = modified_wavenumber(np.array([1.0, 2.0, 0.0]), np.array(g.spacings), 2)
    assert kv[0] == pytest.approx(np.sin(g.hx) / g.hx)
    assert kv[1] == pytest.approx(np.sin(2 * g.hy) / g.hy)
    assert kv[2] == 0.0


def test_dispersion_rejects_zero_mode():
    with pytest.raises(ValueError):
        dispersion(_trad(slab(16)), (0, 0, 0), PhysParams())


def test_speeds_are_omega_over_ktilde():
    g = slab(32)
    res = dispersion(_trad(g), (2, 0, 0), PhysParams())
    kt = modified_wavenumber(2.0, g.hx, 2)
    best = max(res.speeds())
    # speeds() rounds to 10 decimals before deduplicating
    assert best == pytest.approx(np.abs(res.omega.real).max() / kt, abs=1e-9)


def _rest_modified(g, matrix, rho0=1.0, p0=0.6):
    """Hand-built modified rest state with an arbitrary background matrix."""
    return SimState(g, Formulation.MODIFIED, np.zeros(g.vshape), np.zeros(g.vshape),
                    np.full(g.shape, rho0), np.full(g.shape, p0),
                    BackgroundPotential(matrix))


def test_modified_spectrum_depends_on_background_gauge():
    # the same H0 = x-hat in two gauges: symmetric (1/2) H0 x r and
    # Landau A0 = (0, -z, 0); the advective force sees the full M
    g = slab(64)
    p = PhysParams()
    landau = np.zeros((3, 3))
    landau[1, 2] = -1.0
    symmetric = BackgroundPotential.from_uniform_field((1.0, 0.0, 0.0)).matrix
    speeds = {}
    for name, matrix in (("symmetric", symmetric), ("landau", landau)):
        background = _rest_modified(g, matrix)
        assert np.allclose(background.bg.uniform_field, (1.0, 0.0, 0.0))
        res = dispersion(background, (1, 0, 0), p)
        want = oracle_omegas(background, (1, 0, 0), p)
        err = np.abs(np.sort_complex(res.omega) - np.sort_complex(want)).max()
        assert err <= 1e-8 * np.abs(want).max()
        speeds[name] = [s for s in res.speeds() if s > 1e-10]
    assert min(speeds["symmetric"]) == pytest.approx(VA / np.sqrt(2.0), rel=5e-3)
    assert any(s == pytest.approx(VA, rel=5e-3) for s in speeds["landau"])
    assert not any(s == pytest.approx(VA / np.sqrt(2.0), rel=5e-2)
                   for s in speeds["landau"])


@pytest.mark.parametrize("field", ["v", "mag", "rho"])
@pytest.mark.parametrize("formulation", list(Formulation))
def test_dispersion_rejects_a_state_not_at_uniform_rest(formulation, field):
    g = slab(16)
    background = uniform_rest(g, formulation, 1.0, 0.6, b0x=1.0).state
    getattr(background, field)[0, 3, 1] += 1e-3
    with pytest.raises(ValueError, match="uniform rest state"):
        dispersion(background, (1, 0, 0), PhysParams())
    with pytest.raises(ValueError, match="uniform rest state"):
        oracle_omegas(background, (1, 0, 0), PhysParams())


@pytest.mark.parametrize("formulation", list(Formulation))
def test_dispersion_leaves_its_background_unchanged(formulation):
    g = slab(16)
    background = uniform_rest(g, formulation, 1.0, 0.6, b0x=0.3, b0y=0.4).state
    before = [f.copy() for f in background.fields]
    dispersion(background, (1, 0, 0), PhysParams())
    for f, f0 in zip(background.fields, before):
        assert np.array_equal(f, f0)


@pytest.mark.parametrize("formulation", list(Formulation))
def test_dispersion_rejects_a_grid_too_small_for_stencil_order(formulation):
    # slab(16) is 16x4x4: an order-4 stencil needs 8 points per axis
    background = uniform_rest(slab(16), formulation, 1.0, 0.6, b0x=1.0).state
    params = PhysParams(stencil_order=4)
    with pytest.raises(ValueError, match="at least 8 points"):
        dispersion(background, (1, 0, 0), params)
    with pytest.raises(ValueError, match="at least 8 points"):
        oracle_matrix(background, (1, 0, 0), params)
