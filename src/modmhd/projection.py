"""Periodic Poisson solve, Helmholtz projection and inverse curl.

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

The operator is singular: its null space is the set of modes where that
symbol vanishes, the modes whose every axis wavenumber is 0 or, on an
even axis, that axis's Nyquist mode (constants, checkerboards, ...).
``_symbol`` marks them with an infinite symbol, so the divide zeroes
them.  The right-hand side must have no content there; the solution is
returned with none, which makes it the zero-mean, minimum-norm solution.
"""

from __future__ import annotations

import numpy as np

from . import operators as ops
from .grid import GridSpec


def _wavenumbers(grid: GridSpec, order: int) -> list[np.ndarray]:
    """Per-axis modified wavenumbers on the rfftn half-spectrum, each shaped
    to broadcast along its own axis."""
    kts = []
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
        kts.append(kt.reshape([-1 if i == axis else 1 for i in range(3)]))
    return kts


def _symbol(grid: GridSpec, order: int) -> np.ndarray:
    """Fourier symbol of div(grad(.)) on the rfftn half-spectrum.

    Null-space modes get an infinite symbol, so dividing by it zeroes them.
    """
    kx, ky, kz = _wavenumbers(grid, order)
    lap = -(kx * kx + ky * ky + kz * kz)
    lap[lap == 0.0] = np.inf
    return lap


def _inverse_curl(h: np.ndarray, grid: GridSpec, order: int) -> np.ndarray:
    """The zero-mean solenoidal A whose stencil curl is the solenoidal part of H:
    A_m = i kt x H_m / |kt|^2, with the null-space modes zeroed as in ``_symbol``."""
    h_hat = np.fft.rfftn(h, axes=(1, 2, 3))
    kt = _wavenumbers(grid, order)
    a_hat = np.stack([kt[j] * h_hat[k] - kt[k] * h_hat[j] for _, j, k in ops._CYCLIC])
    a_hat *= 1j
    a_hat /= -_symbol(grid, order)
    return np.fft.irfftn(a_hat, s=grid.shape, axes=(1, 2, 3))


def poisson_solve(rhs: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Solve div(grad(u)) = rhs on the periodic box; returns the zero-mean u.

    The rhs must have no null-space content: the moduli of its Fourier
    coefficients on the modes where the symbol vanishes, summed and
    divided by the number of grid points, must be at most 1e-12 of its
    rms (periodic solvability).  That sum bounds the rhs mean over each
    parity class of grid points.  Callers remove that content first.
    The solve is exact to roundoff.
    """
    if rhs.shape != grid.shape:
        raise ValueError(f"rhs: expected shape {grid.shape}, got {rhs.shape}")

    rms = float(np.sqrt(np.vdot(rhs, rhs).real / rhs.size))
    if rms == 0.0:
        return np.zeros(grid.shape)
    axes = (0, 1, 2)
    u_hat = np.fft.rfftn(rhs, axes=axes)
    lap = _symbol(grid, order)
    null = float(np.abs(u_hat[np.isinf(lap)]).sum()) / rhs.size
    if null > 1e-12 * rms:
        raise ValueError(
            "poisson rhs must have zero mean and no checkerboard (null-space) "
            f"content (got {null:.3e} vs rms {rms:.3e})"
        )
    u_hat /= lap
    return np.fft.irfftn(u_hat, s=grid.shape, axes=axes)


def _div_spectrum(v: np.ndarray, grid: GridSpec, order: int) -> np.ndarray | None:
    """rfftn of div V, or None when div V is at roundoff relative to V."""
    d = ops.div(v, grid, order)
    d_l2 = float(np.sqrt(np.vdot(d, d).real))
    floor = 1e-14 * float(np.sqrt(np.vdot(v, v).real)) / grid.min_spacing
    if d_l2 <= floor:
        return None
    return np.fft.rfftn(d, axes=(0, 1, 2))


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
    phi_hat = _div_spectrum(v, grid, order)
    if phi_hat is None:
        return v, np.zeros(grid.shape)
    # div has null-space content only at roundoff; the infinite symbol
    # drops it
    phi_hat /= _symbol(grid, order)
    phi = np.fft.irfftn(phi_hat, s=grid.shape, axes=(0, 1, 2))
    del phi_hat   # free before grad(phi), which sets the peak memory
    return v - ops.grad(phi, grid, order), phi


def _gradient_part_norm(v: np.ndarray, grid: GridSpec, order: int) -> float:
    """||grad phi||_2, what ``helmholtz_project`` removes from V, by Parseval:
    sqrt((dV/N) sum_m w_m |div V_m|^2 / |symbol_m|) over the rfftn half-spectrum,
    w_m = 2 counting the conjugate twin it leaves out; 0.0 where it is a no-op.
    """
    d_hat = _div_spectrum(v, grid, order)
    if d_hat is None:
        return 0.0
    m = np.arange(d_hat.shape[2])
    twins = np.where((m == 0) | (2 * m == grid.nz), 1.0, 2.0)
    power = d_hat.real ** 2 + d_hat.imag ** 2
    power /= np.abs(_symbol(grid, order))
    return float(np.sqrt(grid.cell_volume / grid.npoints * (power.sum(axis=(0, 1)) @ twins)))
