"""Linear wave spectra about a uniform magnetized background.

Two independent routes to the same answer:

* ``oracle_omegas`` -- the 8x8 complex mode matrix of the linearized
  semidiscrete equations, written down analytically.  First-derivative
  stencils act on a plane wave exp(i k.x) as multiplication by i*ktilde
  with the modified wavenumber ktilde = sin(k h)/h (order 2) or
  (8 sin(k h) - sin(2 k h))/(6 h) (order 4), so the oracle is exact for
  the discrete operators, not just the continuum limit.

* ``dispersion`` -- a numerical Jacobian of the actual nonlinear RHS,
  assembled by perturbing the uniform state with cos/sin modes and
  projecting the response back onto them (16x16 real matrix: 8 field
  components x {cos, sin}).

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

from .dynamics import Rhs, compute_rhs
from .electromagnetics import FOUR_PI, BackgroundPotential
from .grid import GridSpec
from .operators import modified_wavenumber
from .params import Formulation, PhysParams
from .state import SimState


def _skew(u: np.ndarray) -> np.ndarray:
    """Matrix S with S @ x = u x x."""
    ux, uy, uz = u
    return np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])


def modified_wavevector(kvec, grid: GridSpec, order: int = 2) -> np.ndarray:
    kvec = np.asarray(kvec, dtype=float)
    return np.array(
        [modified_wavenumber(kvec[i], grid.spacings[i], order) for i in range(3)]
    )


def wavevector_from_modes(modes, grid: GridSpec) -> np.ndarray:
    """Physical wavevector for integer mode numbers (waves per box edge)."""
    m = np.asarray(modes)
    if m.shape != (3,) or not np.all(m == np.round(m)):
        raise ValueError("modes must be three integers")
    if np.all(m == 0):
        raise ValueError("at least one mode number must be nonzero")
    lengths = np.array([grid.lx, grid.ly, grid.lz])
    return 2.0 * np.pi * m.astype(float) / lengths


def _sort_omegas(omega: np.ndarray) -> np.ndarray:
    """Sort by |Re omega|, ties by Re then Im (deterministic +/- pairs)."""
    order = np.lexsort((omega.imag, omega.real, np.abs(omega.real)))
    return omega[order]


@dataclass(frozen=True)
class UniformBackground:
    """Spatially uniform rest state: density, pressure, background field.

    The magnetic background is carried either as an affine potential
    (modified formulation) or as a uniform field vector (traditional).
    """

    formulation: Formulation
    rho0: float
    p0: float
    bg: BackgroundPotential | None = None
    h0vec: np.ndarray | None = None

    def __post_init__(self):
        if self.rho0 <= 0.0 or self.p0 <= 0.0:
            raise ValueError("background density and pressure must be positive")
        if self.formulation is Formulation.MODIFIED:
            if self.bg is None:
                raise ValueError("modified background requires a potential matrix")
        else:
            if self.h0vec is None:
                raise ValueError("traditional background requires a field vector")
            object.__setattr__(self, "h0vec", np.asarray(self.h0vec, dtype=float))

    @classmethod
    def modified(cls, rho0: float, p0: float, bg: BackgroundPotential) -> "UniformBackground":
        return cls(Formulation.MODIFIED, rho0, p0, bg=bg)

    @classmethod
    def traditional(cls, rho0: float, p0: float, h0) -> "UniformBackground":
        return cls(Formulation.TRADITIONAL, rho0, p0, h0vec=np.asarray(h0, dtype=float))

    @property
    def h0(self) -> np.ndarray:
        """Uniform background field, whichever way it is represented."""
        if self.formulation is Formulation.MODIFIED:
            return self.bg.uniform_field
        return self.h0vec

    def state(self, grid: GridSpec) -> SimState:
        """The uniform rest state itself, ready to perturb or evolve."""
        v = np.zeros(grid.vshape)
        rho = np.full(grid.shape, self.rho0)
        p = np.full(grid.shape, self.p0)
        if self.formulation is Formulation.MODIFIED:
            return SimState(
                grid, Formulation.MODIFIED, v, rho, p,
                a=np.zeros(grid.vshape), bg=self.bg,
            )
        return SimState(
            grid, Formulation.TRADITIONAL, v, rho, p,
            h=np.zeros(grid.vshape), h0=self.h0vec,
        )


def oracle_matrix(
    background: UniformBackground, modes, grid: GridSpec, params: PhysParams
) -> np.ndarray:
    """Analytic 8x8 mode matrix L with d/dt [mag, v, rho, P] = L @ (...).

    Rows/columns are ordered (mag_x, mag_y, mag_z, v_x, v_y, v_z, rho, P)
    with mag = A-hat (modified) or H-hat (traditional).
    """
    kvec = wavevector_from_modes(modes, grid)
    kt = modified_wavevector(kvec, grid, params.stencil_order)
    rho0, p0, gamma = background.rho0, background.p0, params.gamma
    h0 = background.h0
    L = np.zeros((8, 8), dtype=complex)

    if background.formulation is Formulation.MODIFIED:
        # dA = v x H0; dv = -(1/(4 pi rho0)) M (|kt|^2 I - kt kt^T) A - i kt P/rho0
        L[0:3, 3:6] = -_skew(h0)
        proj = np.dot(kt, kt) * np.eye(3) - np.outer(kt, kt)
        L[3:6, 0:3] = -(background.bg.matrix @ proj) / (FOUR_PI * rho0)
    else:
        # dH = i kt x (v x H0); dv = i (kt x H) x H0 / (4 pi rho0) - i kt P/rho0
        L[0:3, 3:6] = -1j * (_skew(kt) @ _skew(h0))
        L[3:6, 0:3] = -1j * (_skew(h0) @ _skew(kt)) / (FOUR_PI * rho0)

    L[3:6, 7] = -1j * kt / rho0
    L[6, 3:6] = -1j * rho0 * kt
    L[7, 3:6] = -1j * gamma * p0 * kt
    return L


def oracle_omegas(
    background: UniformBackground,
    modes,
    grid: GridSpec,
    params: PhysParams,
    full: bool = False,
) -> np.ndarray:
    """Eigenfrequencies of the analytic mode matrix, sorted by |Re omega|.

    With ``full=True`` the set is doubled to {omega, -conj(omega)} --
    the spectrum of the real 16x16 cos/sin representation, directly
    comparable with ``dispersion().omega``.
    """
    lam = np.linalg.eigvals(oracle_matrix(background, modes, grid, params))
    omega = 1j * lam
    if full:
        omega = np.concatenate([omega, -np.conj(omega)])
    return _sort_omegas(omega)


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


def _mode_fields(kvec, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    x, y, z = grid.meshes()
    phase = kvec[0] * x + kvec[1] * y + kvec[2] * z
    cosf, sinf = np.cos(phase), np.sin(phase)
    n = grid.npoints
    # Lattice modes satisfy sum cos^2 = sum sin^2 = N/2 exactly; anything
    # else (k=0, pure Nyquist, off-lattice k) breaks the projection.
    if abs(np.sum(sinf * sinf) - 0.5 * n) > 1e-6 * n or abs(np.sum(cosf * sinf)) > 1e-6 * n:
        raise ValueError("kvec must be a nonzero, non-degenerate lattice wavevector")
    return cosf, sinf


def _amplitudes(background: UniformBackground, kvec, params: PhysParams) -> np.ndarray:
    """Per-component perturbation scales (a diagonal similarity, so the
    spectrum is untouched; this only conditions the finite differences)."""
    rho0, p0 = background.rho0, background.p0
    speed = np.sqrt(params.gamma * p0 / rho0)
    speed += np.linalg.norm(background.h0) / np.sqrt(FOUR_PI * rho0)
    kmag = float(np.linalg.norm(np.asarray(kvec, dtype=float)))
    if background.formulation is Formulation.MODIFIED:
        mag_scale = speed * np.sqrt(FOUR_PI * rho0) / kmag
    else:
        mag_scale = speed * np.sqrt(FOUR_PI * rho0)
    return np.array([mag_scale] * 3 + [speed] * 3 + [rho0, p0])


def _jacobian_at(
    base: SimState,
    params: PhysParams,
    cosf: np.ndarray,
    sinf: np.ndarray,
    amps: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Central-difference Jacobian in the 16-dimensional cos/sin mode basis."""
    n = base.grid.npoints
    trigs = (cosf, sinf)

    def perturbed(comp: int, trig: np.ndarray, sign: float) -> SimState:
        bump = sign * eps * amps[comp] * trig
        mag, v = base.mag.copy(), base.v.copy()
        rho, p = base.rho.copy(), base.p.copy()
        if comp < 3:
            mag[comp] += bump
        elif comp < 6:
            v[comp - 3] += bump
        elif comp == 6:
            rho += bump
        else:
            p += bump
        return base.with_fields(mag, v, rho, p, base.t)

    def extract(rhs) -> np.ndarray:
        fields = [rhs.mag[0], rhs.mag[1], rhs.mag[2], rhs.v[0], rhs.v[1], rhs.v[2],
                  rhs.rho, rhs.p]
        out = np.empty(16)
        for i, f in enumerate(fields):
            for ph, trig in enumerate(trigs):
                out[2 * i + ph] = np.sum(f * trig) * (2.0 / n) / amps[i]
        return out

    jac = np.empty((16, 16))
    for comp in range(8):
        for ph, trig in enumerate(trigs):
            plus = compute_rhs(perturbed(comp, trig, +1.0), params)
            minus = compute_rhs(perturbed(comp, trig, -1.0), params)
            diff = Rhs(plus.mag - minus.mag, plus.v - minus.v,
                       plus.rho - minus.rho, plus.p - minus.p)
            jac[:, 2 * comp + ph] = extract(diff) / (2.0 * eps)
    return jac


def dispersion(
    background: UniformBackground,
    modes,
    grid: GridSpec,
    params: PhysParams,
    eps: float = 1e-6,
) -> DispersionResult:
    """Measure the discrete linear spectrum at integer mode numbers ``modes``.

    Needs no knowledge of the equations beyond calling the RHS: the
    uniform state is nudged along each cos/sin mode of each of the eight
    field components, the response is projected back onto those modes,
    and the eigenvalues of the resulting real matrix give the spectrum.
    """
    kvec = wavevector_from_modes(modes, grid)
    base = background.state(grid)
    cosf, sinf = _mode_fields(kvec, grid)
    amps = _amplitudes(background, kvec, params)

    jac = _jacobian_at(base, params, cosf, sinf, amps, eps)
    jac_check = _jacobian_at(base, params, cosf, sinf, amps, eps / 10.0)
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
        ktilde=modified_wavevector(kvec, grid, params.stencil_order),
        jacobian=jac,
        pairing_error=pairing,
        eps_sensitivity=float(sens),
        warning=bool(sens > 1e-4),
    )
