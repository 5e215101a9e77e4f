"""Periodic Poisson solve and Helmholtz projection.

The projection enforces the solenoidal gauge div A = 0: given V, solve
lap(phi) = div(V) and subtract grad(phi).  The discrete Laplacian here is
*exactly* div(grad(.)) built from the same first-derivative stencils as
every other operator, so "div of the projected field is small" is a
statement about the one discrete divergence this package has, not about
some second discretization.

On the periodic uniform grid that Laplacian is diagonal in Fourier space:
each first-derivative stencil multiplies exp(i k x) by i*ktilde
(``operators.modified_wavenumber``), so div(grad(.)) has the symbol
-(kx~^2 + ky~^2 + kz~^2) and the solve is one forward FFT, a divide and
one inverse FFT -- exact to roundoff, with no iteration or tolerance.

The operator is singular: its null space is spanned by the modes whose
every axis wavenumber is 0 or, on an even axis, that axis's Nyquist mode
(constants, checkerboards, ...).  In real space those modes are the
fields that depend only on the parity of each grid index, so the content
of a field in the null space is its mean over each parity class.  The
right-hand side must have none; the solution is returned with none,
which makes it the zero-mean, minimum-norm solution.
"""

from __future__ import annotations

import numpy as np

from . import operators as ops
from .grid import GridSpec


def _parity_blocks(f: np.ndarray) -> np.ndarray:
    """View of a scalar field as (n/p, p) per axis, p = 2 on even axes, else 1.

    The mean over axes (0, 2, 4) of this view is the field's null-space
    content: one mean per parity class of grid points.
    """
    shape = []
    for n in f.shape:
        p = 2 if n % 2 == 0 else 1
        shape += [n // p, p]
    return f.reshape(shape)


def _symbol(grid: GridSpec, order: int) -> np.ndarray:
    """Fourier symbol of div(grad(.)) on the rfftn half-spectrum.

    Null-space modes get an infinite symbol, so dividing by it zeroes them.
    """
    kt2 = []
    lengths = (grid.lx, grid.ly, grid.lz)
    for axis, (n, h) in enumerate(zip(grid.shape, grid.spacings)):
        # integer mode numbers in rfftn order (the last axis is halved)
        if axis == 2:
            m = np.arange(n // 2 + 1)
        else:
            m = np.fft.ifftshift(np.arange(n) - n // 2)
        kt = ops.modified_wavenumber(2.0 * np.pi * m / lengths[axis], h, order)
        # the stencil annihilates the Nyquist mode exactly, but sin(pi) is
        # not exactly 0 in floating point
        kt[2 * np.abs(m) == n] = 0.0
        kt2.append(kt * kt)
    lap = -(kt2[0][:, None, None] + kt2[1][None, :, None] + kt2[2][None, None, :])
    lap[lap == 0.0] = np.inf
    return lap


def poisson_solve(rhs: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Solve div(grad(u)) = rhs on the periodic box; returns the zero-mean u.

    The rhs must have no null-space content: its mean over each parity
    class of grid points (for an odd-sized box, just its mean) must be
    zero to 1e-12 of its rms (periodic solvability).  Callers remove it
    first.  The solve is exact to roundoff.
    """
    if rhs.shape != grid.shape:
        raise ValueError(f"rhs: expected shape {grid.shape}, got {rhs.shape}")

    rms = float(np.sqrt(np.vdot(rhs, rhs).real / rhs.size))
    if rms == 0.0:
        return np.zeros(grid.shape)
    null = float(np.abs(_parity_blocks(rhs).mean(axis=(0, 2, 4))).max())
    if null > 1e-12 * rms:
        raise ValueError(
            "poisson rhs must have zero mean and no checkerboard (null-space) "
            f"content (got {null:.3e} vs rms {rms:.3e})"
        )

    axes = (0, 1, 2)
    u_hat = np.fft.rfftn(rhs, axes=axes) / _symbol(grid, order)
    return np.fft.irfftn(u_hat, s=grid.shape, axes=axes)


def helmholtz_project(
    v: np.ndarray,
    grid: GridSpec,
    order: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Remove the gradient part of V: returns (V - grad(phi), phi).

    phi solves lap(phi) = div(V).  If div(V) is already at roundoff level
    relative to V the input is returned unchanged with phi = 0, so
    projecting a solenoidal field (or zeros) is an exact no-op.
    """
    if v.shape != grid.vshape:
        raise ValueError(f"field: expected shape {grid.vshape}, got {v.shape}")
    d = ops.div(v, grid, order)
    # div has no null-space content up to roundoff; remove that roundoff
    # (blocks is a view of d)
    blocks = _parity_blocks(d)
    blocks -= blocks.mean(axis=(0, 2, 4), keepdims=True)
    d_l2 = float(np.sqrt(np.vdot(d, d).real))
    floor = 1e-14 * float(np.sqrt(np.vdot(v, v).real)) / grid.min_spacing
    if d_l2 <= floor:
        return v, np.zeros(grid.shape)
    phi = poisson_solve(d, grid, order=order)
    return v - ops.grad(phi, grid, order), phi
