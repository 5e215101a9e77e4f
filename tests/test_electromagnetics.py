"""Constitutive chain from the vector potential: H, j, E, and the forces."""

import numpy as np
import pytest

import modmhd.operators as ops
from modmhd import (
    BackgroundPotential,
    TwoFluidState,
    current_from_a,
    force_modified,
    force_modified_from_a,
    force_two_fluid,
    gauge_shift_sensitivity,
    h_from_a,
)
from modmhd.electromagnetics import FOUR_PI
from modmhd.grid import full_vector

from conftest import cube


ZERO = BackgroundPotential.zero()


def test_background_uniform_field():
    m = np.array([[0.0, 2.0, -1.0],
                  [3.0, 0.0, 0.5],
                  [1.5, -4.0, 0.0]])
    bg = BackgroundPotential(m)
    # H0 = (M32 - M23, M13 - M31, M21 - M12)
    assert np.allclose(bg.uniform_field, [-4.0 - 0.5, -1.0 - 1.5, 3.0 - 2.0])


def test_background_from_uniform_field_roundtrip():
    h0 = np.array([0.7, -1.2, 0.35])
    bg = BackgroundPotential.from_uniform_field(h0)
    assert np.allclose(bg.uniform_field, h0, atol=1e-15)
    # symmetric gauge: M is antisymmetric
    assert np.allclose(bg.matrix, -bg.matrix.T)


def test_background_contractions():
    # bitwise the einsum form, also where M has zero entries (the symmetric
    # gauge of H0 along x has a zero row) and V has signed zeros
    rng = np.random.default_rng(0)
    random = rng.standard_normal((3, 3))
    v = rng.standard_normal((3, 4, 4, 4))
    v[:, 0] = 0.0
    v[:, 1] = -0.0
    for m in (random, BackgroundPotential.from_uniform_field((0.7, 0.0, 0.0)).matrix):
        bg = BackgroundPotential(m)
        adv = bg.advected_by(v)       # (v . grad) A0 = M v
        con = bg.contracted_with(v)   # sum_k v_k grad A0_k = M^T v
        assert adv.tobytes() == np.einsum("ik,kxyz->ixyz", m, v).tobytes()
        assert con.tobytes() == np.einsum("ki,kxyz->ixyz", m, v).tobytes()


def test_background_validation():
    with pytest.raises(ValueError):
        BackgroundPotential(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        BackgroundPotential(np.full((3, 3), np.nan))


def test_h_from_a_uniform_background():
    g = cube(16)
    b0 = 0.8
    m = np.zeros((3, 3))
    m[2, 1] = b0
    h = h_from_a(np.zeros(g.vshape), BackgroundPotential(m), g)
    assert np.allclose(h[0], b0)
    assert np.all(h[1] == 0.0)
    assert np.all(h[2] == 0.0)


def test_h_from_a_periodic_part():
    g = cube(32)
    x, _, _ = g.meshes()
    a = full_vector(g, (0.0, np.sin(x), 0.0))
    h = h_from_a(a, ZERO, g)
    assert ops.max_norm(h[2] - np.cos(x)) < 1e-2
    assert np.all(h_from_a(np.zeros(g.vshape), ZERO, g) == 0.0)


def test_current_from_a():
    g = cube(32)
    x, _, _ = g.meshes()
    a = full_vector(g, (0.0, np.sin(x), 0.0))
    j = current_from_a(a, g)
    # discrete value is (sin h / h)^2 sin(x)/4pi: symbol defect ~1.0e-3 at n=32
    assert ops.max_norm(j[1] - np.sin(x) / FOUR_PI) < 2e-3
    # pure gauge carries no current
    s = np.sin(x) + np.zeros(g.shape)
    assert ops.max_norm(current_from_a(ops.grad(s, g), g)) < 1e-13
    assert np.all(current_from_a(np.zeros(g.vshape), g) == 0.0)


def test_force_modified_periodic_example():
    g = cube(32)
    x, _, _ = g.meshes()
    j = full_vector(g, (1.0, 0.0, 0.0))
    a = full_vector(g, (0.0, np.sin(x), 0.0))
    f = force_modified(j, a, ZERO, g)
    assert ops.max_norm(f[1] + np.cos(x)) < 1e-2
    # constant A: zero gradient, zero force, exactly
    assert np.all(force_modified(j, full_vector(g, (0.2, 0.4, 0.0)), ZERO, g) == 0.0)


def test_force_modified_background_contraction():
    g = cube(8)
    b0 = 1.7
    m = np.zeros((3, 3))
    m[2, 1] = b0
    bg = BackgroundPotential(m)
    a = np.zeros(g.vshape)
    # (j.grad)A0 = M j: picks out the j-th column of M
    f = force_modified(full_vector(g, (1.0, 0.0, 0.0)), a, bg, g)
    assert np.all(f == 0.0)
    f = force_modified(full_vector(g, (0.0, 1.0, 0.0)), a, bg, g)
    assert np.allclose(f, full_vector(g, (0.0, 0.0, -b0)))


def test_force_modified_from_a_self_consistent():
    g = cube(32)
    x, _, _ = g.meshes()
    a = full_vector(g, (0.0, np.sin(x), 0.0))
    # j lies along y, A varies only in x: (j.grad)A = 0
    assert ops.max_norm(force_modified_from_a(a, ZERO, g)) < 1e-13
    assert np.all(force_modified_from_a(np.zeros(g.vshape), ZERO, g) == 0.0)
    s = np.sin(x) + np.zeros(g.shape)
    assert ops.max_norm(force_modified_from_a(ops.grad(s, g), ZERO, g)) < 1e-13


def test_two_fluid_example():
    g = cube(32)
    x, _, _ = g.meshes()
    tf = TwoFluidState(
        rho_plus=np.full(g.shape, 2.0),
        rho_minus=np.full(g.shape, -2.0),
        v_plus=full_vector(g, (1.0, 0.0, 0.0)),
        v_minus=np.zeros(g.vshape),
    )
    a = full_vector(g, (0.0, np.sin(x), 0.0))
    a_dot = full_vector(g, (0.3, -0.7, 0.1))   # must cancel between species
    f = force_two_fluid(tf, a_dot, a, ZERO, g)
    assert ops.max_norm(f[1] + 2.0 * np.cos(x)) < 5e-2
    assert ops.max_norm(f[0]) < 1e-13
    assert ops.max_norm(f[2]) < 1e-13


def test_two_fluid_trivial_cases():
    g = cube(8)
    v = full_vector(g, (0.4, -0.2, 1.0))
    rho = np.full(g.shape, 1.5)
    a = np.zeros(g.vshape)
    tf = TwoFluidState(rho, -rho, v, v.copy())
    # equal velocities: j = 0 and the advective terms cancel
    f = force_two_fluid(tf, np.zeros(g.vshape), a, ZERO, g)
    assert ops.max_norm(f) < 1e-14
    tf = TwoFluidState(np.zeros(g.shape), np.zeros(g.shape), v, 0.0 * v)
    assert np.all(force_two_fluid(tf, v, a, ZERO, g) == 0.0)


def test_two_fluid_reduces_to_single_fluid():
    # for quasineutral fluids the summed per-species force must equal
    # -(1/c)(j.grad)A with j = rho+ v+ + rho- v-
    g = cube(16)
    rng = np.random.default_rng(42)
    bg = BackgroundPotential(rng.standard_normal((3, 3)) * 0.3)
    for trial in range(3):
        rho = 1.0 + 0.5 * rng.random(g.shape)
        tf = TwoFluidState(rho, -rho,
                           rng.standard_normal(g.vshape),
                           rng.standard_normal(g.vshape))
        a = rng.standard_normal(g.vshape)
        a_dot = rng.standard_normal(g.vshape)
        f2 = force_two_fluid(tf, a_dot, a, bg, g)
        f1 = force_modified(tf.current(), a, bg, g)
        scale = ops.max_norm(f1)
        assert ops.max_norm(f2 - f1) <= 1e-12 * scale


def test_force_decomposition_is_discretely_exact():
    # -(j.grad)A_tot = j x H - [grad_contract(j, A) + M^T j] (c = 1)
    # holds at the stencil level (pure index algebra on first derivatives)
    g = cube(16)
    rng = np.random.default_rng(9)
    bg = BackgroundPotential(rng.standard_normal((3, 3)))
    j = rng.standard_normal(g.vshape)
    a = rng.standard_normal(g.vshape)
    lhs = force_modified(j, a, bg, g)
    rhs = ops.cross(j, h_from_a(a, bg, g))
    rhs -= ops.grad_contract(j, a, g) + bg.contracted_with(j)
    assert ops.max_norm(lhs - rhs) <= 1e-12 * ops.max_norm(lhs)


def test_gauge_sensitivity_trivial_shifts():
    g = cube(16)
    x, y, _ = g.meshes()
    a = full_vector(g, (np.sin(y), np.sin(x), 0.0))
    assert gauge_shift_sensitivity(a, ZERO, np.zeros(g.shape), g) == 0.0
    assert gauge_shift_sensitivity(a, ZERO, np.full(g.shape, 4.2), g) == 0.0


def test_gauge_sensitivity_degenerate_force():
    # A = (0, sin x, 0) produces exactly zero force, with or without the
    # shift, so the relative sensitivity is 0/0 -> reported as 0.0
    g = cube(16)
    x, _, _ = g.meshes()
    a = full_vector(g, (0.0, np.sin(x), 0.0))
    chi = np.sin(x) + np.zeros(g.shape)
    assert gauge_shift_sensitivity(a, ZERO, chi, g) == 0.0


def test_gauge_sensitivity_generic_witness():
    # A = (sin y, sin x, 0), chi = sin x: the force law is genuinely gauge
    # dependent; the continuum value of the relative change is 1/sqrt(2)
    g = cube(32)
    x, y, _ = g.meshes()
    a = full_vector(g, (np.sin(y), np.sin(x), 0.0))
    chi = np.sin(x) + np.zeros(g.shape)
    got = gauge_shift_sensitivity(a, ZERO, chi, g)
    # brute-force double evaluation
    f0 = force_modified_from_a(a, ZERO, g)
    f1 = force_modified_from_a(a + ops.grad(chi, g), ZERO, g)
    brute = ops.l2_norm(f1 - f0, g) / ops.l2_norm(f0, g)
    assert got == pytest.approx(brute, rel=1e-12)
    assert got == pytest.approx(1.0 / np.sqrt(2.0), rel=0.05)
