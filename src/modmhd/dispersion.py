"""Linear wave spectra about a uniform rest state.

The background is an ordinary ``SimState`` at rest: v = 0, zero periodic
field, constant rho and P, with the uniform field H0 carried by its
background ``bg`` (the traditional system reads only H0 from it).
``scenarios.uniform_rest(...).state`` builds one; a hand-built state may
use any ``BackgroundPotential``.  The grid is the state's own.  Two
independent routes to the same answer:

* ``oracle_omegas`` -- the 8x8 complex mode matrix of the linearized
  semidiscrete equations, written down analytically.  The two
  formulations share it except for the force row.  First-derivative
  stencils act on a plane wave exp(i k.x) as multiplication by i*ktilde
  with the modified wavenumber ktilde = sin(k h)/h (order 2) or
  (8 sin(k h) - sin(2 k h))/(6 h) (order 4), so the oracle is exact for
  the discrete operators, not just the continuum limit.

* ``dispersion`` -- a 16x16 numerical Jacobian of the actual nonlinear
  RHS: column 2c + j is the response to a nudge of scalar component c
  along basis[j], projected back by ``mode_coefficients``.

A lattice mode has integer mode numbers |m_i| < n_i/2 on every axis; its
basis (cos k.x, sin k.x) is orthogonal on the grid, with sum cos^2 =
sum sin^2 = N/2.  ``mode_coefficients`` projects the eight scalar
components f_c (mag x y z, v x y z, rho, P) onto it: entry 2c + j is
(2/N) sum f_c basis[j], component c's coefficient of basis[j].

Frequencies follow the exp(-i omega t) convention: omega = i * lambda
for eigenvalues lambda of the mode matrix.

The headline physics: with the background potential in the symmetric
gauge, transverse waves along the background field propagate at
v_A/sqrt(2) in the potential formulation versus v_A in the traditional
one -- the linear spectrum is gauge-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import compute_rhs
from .electromagnetics import FOUR_PI, h_from_a
from .grid import wavevector_from_modes
from .operators import modified_wavenumber
from .params import Formulation, PhysParams
from .state import SimState, scalar_components

#: Central-difference step of the Jacobian, relative to each component's
#: scale; the result is re-measured at _EPS / 10 to report its sensitivity.
_EPS = 1e-6


def _skew(u: np.ndarray) -> np.ndarray:
    """Matrix S with S @ x = u x x."""
    ux, uy, uz = u
    return np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])


def _sort_omegas(omega: np.ndarray) -> np.ndarray:
    """Sort by |Re omega|, ties by Re then Im (deterministic +/- pairs)."""
    order = np.lexsort((omega.imag, omega.real, np.abs(omega.real)))
    return omega[order]


def _rest_values(state: SimState) -> tuple[float, float, np.ndarray]:
    """(rho0, P0, H0) of a uniform rest state; ValueError for any other."""
    rho0, p0 = float(state.rho.flat[0]), float(state.p.flat[0])
    if (state.v.any() or state.mag.any() or not (rho0 > 0.0 and p0 > 0.0)
            or (state.rho != rho0).any() or (state.p != p0).any()):
        raise ValueError("background must be a uniform rest state: v = 0, "
                         "zero periodic field, constant positive rho and P")
    return rho0, p0, h_from_a(state.mag, state.bg, state.grid)[:, 0, 0, 0]


def oracle_matrix(background: SimState, modes, params: PhysParams) -> np.ndarray:
    """Analytic 8x8 mode matrix L with d/dt [mag, v, rho, P] = L @ (...).

    ``background`` is a uniform rest state (e.g. ``uniform_rest(...).state``)
    on the grid whose stencils the matrix describes.  Rows/columns are
    ordered (A_x, A_y, A_z, v_x, v_y, v_z, rho, P).  A grid too small for
    the stencil order raises ValueError.
    """
    grid = background.grid
    grid.require_order(params.stencil_order)
    kvec = wavevector_from_modes(modes, grid)
    kt = modified_wavenumber(kvec, np.array(grid.spacings), params.stencil_order)
    rho0, p0, h0 = _rest_values(background)
    L = np.zeros((8, 8), dtype=complex)

    # dA = v x H0; 4 pi j = curl curl A = (|kt|^2 I - kt kt^T) A, and the
    # linearized force is -F j: F = M for -(j.grad)A0, skew(H0) for j x H0
    L[0:3, 3:6] = -_skew(h0)
    proj = np.dot(kt, kt) * np.eye(3) - np.outer(kt, kt)
    force = (background.bg.matrix if background.formulation is Formulation.MODIFIED
             else _skew(h0))
    L[3:6, 0:3] = -(force @ proj) / (FOUR_PI * rho0)

    L[3:6, 7] = -1j * kt / rho0
    L[6, 3:6] = -1j * rho0 * kt
    L[7, 3:6] = -1j * params.gamma * p0 * kt
    return L


def oracle_omegas(background: SimState, modes, params: PhysParams) -> np.ndarray:
    """Eigenfrequencies of the analytic mode matrix, sorted by |Re omega|.

    The eight eigenfrequencies are doubled to {omega, -conj(omega)} -- the
    spectrum of the real 16x16 cos/sin representation, directly comparable
    with ``dispersion().omega``.
    """
    lam = np.linalg.eigvals(oracle_matrix(background, modes, params))
    omega = 1j * lam
    return _sort_omegas(np.concatenate([omega, -np.conj(omega)]))


@dataclass(frozen=True)
class DispersionResult:
    """Spectrum measured from the numerical Jacobian of the RHS."""

    omega: np.ndarray          #: 16 complex frequencies, sorted by |Re omega|
    ktilde: np.ndarray         #: effective discrete wavevector
    jacobian: np.ndarray       #: the 16x16 real mode matrix
    pairing_error: float       #: departure of the spectrum from {omega} == {-conj(omega)}
    eps_sensitivity: float     #: relative change of the Jacobian under eps -> eps/10
    warning: bool = field(default=False)  #: eps_sensitivity above 1e-4

    def speeds(self) -> np.ndarray:
        """Distinct nonnegative phase speeds |Re omega|/|k_tilde|."""
        kmag = float(np.linalg.norm(self.ktilde))
        return np.unique(np.round(np.abs(self.omega.real) / kmag, 10))


def mode_coefficients(fields, basis) -> np.ndarray:
    """The module docstring's projection of ``fields`` (any tuple in
    ``SimState.fields`` order) onto ``basis`` = (cos k.x, sin k.x)."""
    components = scalar_components(fields)
    out = np.empty(2 * len(components))
    for c, f in enumerate(components):
        for j, trig in enumerate(basis):
            out[2 * c + j] = np.sum(f * trig) * (2.0 / f.size)
    return out


def _amplitudes(background: SimState, kvec, params: PhysParams) -> np.ndarray:
    """Per-component perturbation scales (a diagonal similarity, so the
    spectrum is untouched; this only conditions the finite differences)."""
    rho0, p0, h0 = _rest_values(background)
    speed = np.sqrt(params.gamma * p0 / rho0)
    speed += np.linalg.norm(h0) / np.sqrt(FOUR_PI * rho0)
    kmag = float(np.linalg.norm(np.asarray(kvec, dtype=float)))
    mag_scale = speed * np.sqrt(FOUR_PI * rho0) / kmag
    return np.array([mag_scale] * 3 + [speed] * 3 + [rho0, p0])


def _jacobian_at(base: SimState, params: PhysParams, basis, amps: np.ndarray,
                 eps: float) -> np.ndarray:
    """Central-difference Jacobian in the 16-dimensional cos/sin mode basis,
    scaled by the component amplitudes ``amps``."""
    scale = np.repeat(amps, 2)
    jac = np.empty((16, 16))
    for comp in range(8):
        for j, trig in enumerate(basis):
            rhs = []
            for sign in (1.0, -1.0):
                fields = [f.copy() for f in base.fields]
                scalar_components(fields)[comp] += sign * eps * amps[comp] * trig
                rhs.append(compute_rhs(base.with_fields(*fields, base.t), params))
            diff = [a - b for a, b in zip(*rhs)]
            jac[:, 2 * comp + j] = mode_coefficients(diff, basis) / scale / (2.0 * eps)
    return jac


def dispersion(background: SimState, modes, params: PhysParams) -> DispersionResult:
    """Measure the discrete linear spectrum at integer mode numbers ``modes``.

    ``background`` is a uniform rest state (v = 0, zero periodic field,
    constant rho and P), e.g. ``uniform_rest(...).state``; its grid is the
    one the spectrum is measured on, and it is not modified.  Needs no
    knowledge of the equations beyond calling the RHS: the eigenvalues of
    the Jacobian in the ``mode_coefficients`` basis give the spectrum.  A
    grid too small for the stencil order, or a mode number it does not
    resolve, raises ValueError.
    """
    grid = background.grid
    grid.require_order(params.stencil_order)
    kvec = wavevector_from_modes(modes, grid)
    x, y, z = grid.meshes()
    phase = kvec[0] * x + kvec[1] * y + kvec[2] * z
    basis = (np.cos(phase), np.sin(phase))
    amps = _amplitudes(background, kvec, params)

    jac = _jacobian_at(background, params, basis, amps, _EPS)
    jac_check = _jacobian_at(background, params, basis, amps, _EPS / 10.0)
    scale = np.linalg.norm(jac)
    sens = np.linalg.norm(jac - jac_check) / scale if scale > 0.0 else 0.0

    lam = np.linalg.eigvals(jac)
    omega = _sort_omegas(1j * lam)
    # Real dynamics: the spectrum must be closed under omega -> -conj(omega).
    mirrored = np.sort_complex(-np.conj(omega))
    wmax = np.abs(omega).max()
    pairing = float(np.abs(np.sort_complex(omega) - mirrored).max())
    pairing = pairing / wmax if wmax > 0.0 else pairing

    return DispersionResult(
        omega=omega,
        ktilde=modified_wavenumber(kvec, np.array(grid.spacings),
                                   params.stencil_order),
        jacobian=jac,
        pairing_error=pairing,
        eps_sensitivity=float(sens),
        warning=bool(sens > 1e-4),
    )
