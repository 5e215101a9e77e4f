import numpy as np
import pytest

import modmhd.operators as ops
from modmhd import GridSpec, helmholtz_project, poisson_solve
from modmhd.grid import full_vector

from conftest import cube, smooth_vector


def test_poisson_cos_x():
    g = cube(32)
    x, _, _ = g.meshes()
    rhs = np.broadcast_to(np.cos(x), g.shape).copy()
    u = poisson_solve(rhs, g)
    # discrete solution of div grad u = cos x is -cos(x)/ktilde^2; compare at
    # the continuum level with an O(h^2) allowance
    assert ops.max_norm(u + np.cos(x)) < 5e-2
    # the solver's operator is the composed div(grad(.)), not the compact stencil
    assert ops.max_norm(ops.div(ops.grad(u, g), g) - rhs) < 1e-10


def test_poisson_zero_rhs():
    g = cube(16)
    assert np.all(poisson_solve(np.zeros(g.shape), g) == 0.0)


def test_poisson_linearity_in_rhs():
    g = cube(32)
    x, y, _ = g.meshes()
    rhs = np.cos(x) + np.cos(y) + np.zeros(g.shape)
    u = poisson_solve(rhs, g)
    assert ops.max_norm(u + np.cos(x) + np.cos(y)) < 1e-1
    assert ops.max_norm(ops.div(ops.grad(u, g), g) - rhs) < 1e-10


def test_poisson_solution_is_zero_mean():
    g = cube(16)
    x, _, _ = g.meshes()
    u = poisson_solve(np.broadcast_to(np.cos(x), g.shape).copy(), g)
    assert abs(u.mean()) < 1e-13


def test_poisson_rejects_nonzero_mean():
    g = cube(16)
    with pytest.raises(ValueError, match="zero mean"):
        poisson_solve(np.ones(g.shape), g)


def test_poisson_rejects_null_space_content():
    # zero mean, but a checkerboard is annihilated by every wide stencil
    g = cube(16)
    i, j, k = np.indices(g.shape)
    rhs = (-1.0) ** (i + j + k)
    assert rhs.mean() == 0.0
    with pytest.raises(ValueError, match="null-space"):
        poisson_solve(rhs, g)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize(
    "g",
    # odd sizes, unequal lengths: every axis has its own modified wavenumber
    [GridSpec(15, 16, 17, 1.0, 2.0, 3.0), GridSpec(9, 10, 11, 1.5, 2.0, 2.5)],
    ids=lambda g: "x".join(map(str, g.shape)),
)
def test_fft_solve_is_exact_on_noncubic_grids(g, order):
    rng = np.random.default_rng(3)
    v = rng.standard_normal(g.vshape)
    w, _ = helmholtz_project(v, g, order)
    div_v = ops.div(v, g, order)
    assert ops.l2_norm(ops.div(w, g, order), g) <= 1e-13 * ops.l2_norm(div_v, g)

    # a divergence has no null-space content, so it is a valid rhs
    u = poisson_solve(div_v, g, order)
    lap_u = ops.div(ops.grad(u, g, order), g, order)
    assert ops.l2_norm(lap_u - div_v, g) <= 1e-12 * ops.l2_norm(div_v, g)

    x, _, _ = g.meshes()
    k = 2.0 * np.pi / g.lx
    rhs = np.broadcast_to(np.cos(k * x), g.shape).copy()
    u = poisson_solve(rhs, g, order)
    kt = ops.modified_wavenumber(k, g.hx, order)
    assert ops.max_norm(u + rhs / kt ** 2) <= 1e-12


def test_project_removes_pure_gradient():
    g = cube(32)
    x, _, _ = g.meshes()
    s = np.broadcast_to(np.sin(x), g.shape).copy()
    v = ops.grad(s, g)
    w, phi = helmholtz_project(v, g)
    assert ops.l2_norm(w, g) < 1e-10 * ops.l2_norm(v, g) / g.hx
    # phi recovers sin x up to its (zero) mean
    assert ops.max_norm(phi - (s - s.mean())) < 1e-8


def test_project_leaves_solenoidal_untouched():
    g = cube(32)
    x, _, _ = g.meshes()
    v = full_vector(g, (0.0, np.sin(x), 0.0))
    w, phi = helmholtz_project(v, g)
    assert np.array_equal(w, v)      # short-circuit: div is at roundoff
    assert np.all(phi == 0.0)


def test_project_zero_field():
    g = cube(16)
    w, phi = helmholtz_project(np.zeros(g.vshape), g)
    assert np.all(w == 0.0)
    assert np.all(phi == 0.0)


def test_project_idempotent():
    g = cube(16)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(g.vshape)
    w1, _ = helmholtz_project(v, g)
    w2, _ = helmholtz_project(w1, g)
    assert ops.l2_norm(w2 - w1, g) < 1e-10 * ops.l2_norm(w1, g)


def test_project_nearly_solenoidal_field():
    # roundoff in div(V) lands on the checkerboard modes too; a divergence
    # far below V's scale, yet above the no-op floor, must still project
    g = cube(32)
    rng = np.random.default_rng(6)
    w, _ = helmholtz_project(rng.standard_normal(g.vshape), g)
    v = w + 1e-9 * ops.grad(rng.standard_normal(g.shape), g)
    p, _ = helmholtz_project(v, g)
    assert ops.l2_norm(ops.div(p, g), g) <= 1e-5 * ops.l2_norm(ops.div(v, g), g)


def test_project_preserves_curl():
    g = cube(16)
    v = smooth_vector(g)
    w, _ = helmholtz_project(v, g)
    before = ops.curl(v, g)
    after = ops.curl(w, g)
    assert ops.max_norm(after - before) < 1e-9 * max(1.0, ops.max_norm(before))


def test_project_shape_check():
    g = cube(8)
    with pytest.raises(ValueError):
        helmholtz_project(np.zeros(g.shape), g)
