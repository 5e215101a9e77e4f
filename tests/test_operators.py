"""Finite-difference operators against hand-derived analytic oracles."""

import numpy as np
import pytest

import modmhd.operators as ops
from modmhd import GridSpec
from modmhd.grid import full_vector

from conftest import TWO_PI, cube, operator_errors, smooth_scalar, smooth_vector


def _xyz(g):
    return g.meshes()


# -- pointwise examples ------------------------------------------------------

def test_grad_of_constant_is_zero():
    g = cube(16)
    out = ops.grad(np.full(g.shape, 5.0), g)
    assert np.all(out == 0.0)


def test_grad_sin_x():
    g = cube(32)
    x, _, _ = _xyz(g)
    out = ops.grad(np.broadcast_to(np.sin(x), g.shape).copy(), g)
    assert ops.max_norm(out[0] - np.cos(x)) < 1e-2   # O(h^2), h ~ 0.2
    assert np.all(out[1] == 0.0)
    assert np.all(out[2] == 0.0)


def test_grad_sin_x_sin_y():
    g = cube(32)
    x, y, _ = _xyz(g)
    s = np.sin(x) * np.sin(y) + np.zeros(g.shape)
    out = ops.grad(s, g)
    assert ops.max_norm(out[0] - np.cos(x) * np.sin(y)) < 1e-2
    assert ops.max_norm(out[1] - np.sin(x) * np.cos(y)) < 1e-2


def test_div_example():
    g = cube(32)
    x, _, _ = _xyz(g)
    v = full_vector(g, (np.cos(x), 0.0, 0.0))
    assert ops.max_norm(ops.div(v, g) - (-np.sin(x))) < 1e-2
    assert np.all(ops.div(full_vector(g, (1.0, 2.0, -3.0)), g) == 0.0)


def test_curl_example():
    g = cube(32)
    x, _, _ = _xyz(g)
    v = full_vector(g, (0.0, np.sin(x), 0.0))
    out = ops.curl(v, g)
    assert np.all(out[0] == 0.0)
    assert np.all(out[1] == 0.0)
    assert ops.max_norm(out[2] - np.cos(x)) < 1e-2
    assert np.all(ops.curl(full_vector(g, (1.0, -2.0, 0.5)), g) == 0.0)


def test_curl_curl_example():
    g = cube(32)
    x, _, _ = _xyz(g)
    v = full_vector(g, (0.0, np.sin(x), 0.0))
    out = ops.curl_curl(v, g)
    assert ops.max_norm(out[1] - np.sin(x)) < 2e-2
    assert ops.max_norm(out[0]) < 1e-12
    assert np.all(ops.curl_curl(full_vector(g, (0.3, 0.0, 2.0)), g) == 0.0)


def test_advect_examples():
    g = cube(32)
    x, _, _ = _xyz(g)
    v = full_vector(g, (1.0, 0.0, 0.0))
    w = full_vector(g, (0.0, np.sin(x), 0.0))
    out = ops.advect(v, w, g)
    assert ops.max_norm(out[1] - np.cos(x)) < 1e-2
    assert np.all(ops.advect(v, full_vector(g, (2.0, 2.0, 2.0)), g) == 0.0)
    assert np.all(ops.advect(np.zeros(g.vshape), w, g) == 0.0)


def test_grad_contract_examples():
    g = cube(32)
    x, y, _ = _xyz(g)
    v = full_vector(g, (1.0, 0.0, 0.0))
    w = full_vector(g, (np.sin(y), 0.0, 0.0))
    out = ops.grad_contract(v, w, g)
    assert np.all(out[0] == 0.0)
    assert ops.max_norm(out[1] - np.cos(y)) < 1e-2
    assert np.all(ops.grad_contract(v, full_vector(g, (7.0, 1.0, 0.0)), g) == 0.0)

    u = full_vector(g, (np.sin(x), 0.0, 0.0))
    out = ops.grad_contract(u, u, g)
    assert ops.max_norm(out[0] - np.sin(x) * np.cos(x)) < 2e-2


def test_laplacians():
    g = cube(32)
    x, _, _ = _xyz(g)
    s = np.broadcast_to(np.sin(x), g.shape).copy()
    assert ops.max_norm(ops.laplacian(s, g) + np.sin(x)) < 1e-2
    v = full_vector(g, (0.0, np.sin(x), 0.0))
    out = ops.vector_laplacian(v, g)
    assert ops.max_norm(out[1] + np.sin(x)) < 1e-2


# -- exact discrete identities ----------------------------------------------

def test_curl_of_grad_vanishes():
    g = cube(16)
    s, _, _ = smooth_scalar(g)
    scale = ops.max_norm(s)
    assert ops.max_norm(ops.curl(ops.grad(s, g), g)) <= 1e-12 * scale


def test_div_of_curl_vanishes():
    g = cube(16)
    v = smooth_vector(g)
    assert ops.max_norm(ops.div(ops.curl(v, g), g)) <= 1e-12


def test_stencil_telescoping():
    # every first-derivative stencil sums to zero over a period, so the
    # integral of any divergence is zero to roundoff
    g = cube(16)
    v = smooth_vector(g)
    for order in (2, 4):
        assert abs(ops.integrate(ops.div(v, g, order), g)) < 1e-12


def test_operator_linearity():
    g = cube(16)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(g.vshape)
    b = rng.standard_normal(g.vshape)
    lhs = ops.curl(2.5 * a - b, g)
    rhs = 2.5 * ops.curl(a, g) - ops.curl(b, g)
    assert ops.max_norm(lhs - rhs) < 1e-12


# -- norms and quadrature ----------------------------------------------------

def test_integrate_constant():
    g = cube(16)
    vol = TWO_PI ** 3
    assert ops.integrate(np.ones(g.shape), g) == pytest.approx(vol, rel=1e-14)
    assert ops.integrate(np.zeros(g.shape), g) == 0.0


def test_integrate_sine_is_zero():
    g = cube(16)
    x, _, _ = _xyz(g)
    s = np.broadcast_to(np.sin(x), g.shape).copy()
    assert abs(ops.integrate(s, g)) < 1e-12


def test_norms():
    g = cube(8)
    s = np.ones(g.shape)
    assert ops.max_norm(s) == 1.0
    assert ops.l2_norm(s, g) == pytest.approx(np.sqrt(TWO_PI ** 3), rel=1e-14)
    assert ops.max_norm(-2.0 * s) == 2.0


def test_dot_and_cross():
    rng = np.random.default_rng(11)
    u = rng.standard_normal((3, 4, 4, 4))
    v = rng.standard_normal((3, 4, 4, 4))
    assert ops.max_norm(ops.dot(u, ops.cross(u, v))) < 1e-13
    w = ops.cross(u, v)
    assert ops.max_norm(w + ops.cross(v, u)) == 0.0


# -- slice kernels against the np.roll formulas ------------------------------

def _roll_d1(f, axis, h, order):
    if order == 2:
        return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)
    return (
        8.0 * (np.roll(f, -1, axis) - np.roll(f, 1, axis))
        - (np.roll(f, -2, axis) - np.roll(f, 2, axis))
    ) / (12.0 * h)


def _roll_d2(f, axis, h, order):
    if order == 2:
        return (np.roll(f, -1, axis) + np.roll(f, 1, axis) - 2.0 * f) / (h * h)
    return (
        -(np.roll(f, -2, axis) + np.roll(f, 2, axis))
        + 16.0 * (np.roll(f, -1, axis) + np.roll(f, 1, axis))
        - 30.0 * f
    ) / (12.0 * h * h)


def _kernel_inputs(n):
    """Fields with an axis of length n: contiguous, a component view, transposed."""
    v = np.random.default_rng(n).standard_normal((3, n, n, n))
    w = np.random.default_rng(n + 100).standard_normal((3, 5, n, 6))
    return (v[0], v[1], v[2].T, w[1].transpose(1, 2, 0))


@pytest.mark.parametrize("order", [2, 4])
def test_slice_kernels_match_roll_bitwise(order):
    # n = 4 at order 4 has fewer points than the 5-point stencil
    h = 0.3
    for n in range(4, 10):
        for f in _kernel_inputs(n):
            for axis in range(3):
                if f.shape[axis] != n:
                    continue
                d1 = ops._d1(f, axis, h, order)
                assert np.array_equal(d1, _roll_d1(f, axis, h, order))
                d2 = ops._d2(f, axis, h, order)
                assert np.array_equal(d2, _roll_d2(f, axis, h, order))


@pytest.mark.parametrize("order", [2, 4])
def test_composite_operators_match_roll_bitwise(order):
    # the composite operators share one order-4 scratch between their
    # derivatives; each derivative must still be the textbook formula
    g = GridSpec(9, 8, 7, 1.0, 2.5, 7.0)
    rng = np.random.default_rng(order)
    s = rng.standard_normal(g.shape)
    v, w = rng.standard_normal((2,) + g.vshape)

    def d(f, axis):
        return _roll_d1(f, axis, g.spacings[axis], order)

    assert np.array_equal(ops.grad(s, g, order), np.stack([d(s, ax) for ax in range(3)]))
    assert np.array_equal(ops.div(v, g, order), d(v[0], 0) + d(v[1], 1) + d(v[2], 2))
    assert np.array_equal(ops.curl(v, g, order),
                          np.stack([d(v[k], j) - d(v[j], k) for _, j, k in ops._CYCLIC]))
    assert np.array_equal(ops.advect(v, w, g, order), np.stack(
        [v[0] * d(w[i], 0) + v[1] * d(w[i], 1) + v[2] * d(w[i], 2) for i in range(3)]))
    assert np.array_equal(ops.grad_contract(v, w, g, order), np.stack(
        [v[0] * d(w[0], i) + v[1] * d(w[1], i) + v[2] * d(w[2], i) for i in range(3)]))


def test_slice_kernel_rejects_axis_shorter_than_stencil():
    with pytest.raises(ValueError):
        ops._d1(np.ones((3, 8, 8)), 0, 1.0, 4)
    with pytest.raises(ValueError):
        ops._d1(np.ones((8, 8, 8)), 0, 1.0, 3)


def test_cross_matches_numpy_bitwise():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((3, 6, 5, 4))
    v = rng.standard_normal((3, 6, 5, 4))
    assert np.array_equal(ops.cross(u, v), np.cross(u, v, axis=0))
    w = rng.standard_normal((3, 4, 5, 6)).transpose(0, 3, 2, 1)
    assert np.array_equal(ops.cross(u, w), np.cross(u, w, axis=0))


# -- convergence under grid doubling ----------------------------------------

OPERATOR_NAMES = ("grad", "div", "curl", "curl_curl", "advect",
                  "grad_contract", "laplacian", "vector_laplacian")


@pytest.mark.parametrize("name", OPERATOR_NAMES)
def test_order2_error_ratio(name):
    errs = [operator_errors(n, order=2)[name] for n in (16, 32, 64)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 4.0 * 0.9 <= coarse / fine <= 4.0 * 1.1


@pytest.mark.parametrize("name", OPERATOR_NAMES)
def test_order4_error_ratio(name):
    errs = [operator_errors(n, order=4)[name] for n in (16, 32, 64)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 16.0 * 0.8 <= coarse / fine <= 16.0 * 1.2
