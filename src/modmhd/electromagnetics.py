"""Fields and forces derived from the vector potential.

The magnetic unknown of both formulations is the vector potential in the
phi = 0 gauge,

    H = curl A,     j = (c/4pi) curl curl A,     E = -(1/c) dA/dt.

The modified force density on the fluid is the advective current force

    f = -(1/c) (j . grad) A

in place of the traditional Lorentz force (1/c) j x H.  c cancels once j
is composed, so the package sets c = 1.  The two forces are related
pointwise by

    (j . grad) A = grad_contract(j, A) - j x curl A,

which the force-decomposition identity check exercises.

A uniform background field H0 cannot be represented by a periodic A, so it
is carried by an affine background potential A0(x) = M x with a constant
3x3 matrix M.  Derivatives of the background are analytic (d_k A0_i = M_ik)
and are never formed with stencils; only the periodic part is differenced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .grid import GridSpec

FOUR_PI = 4.0 * np.pi


@dataclass(frozen=True, eq=False)
class BackgroundPotential:
    """Affine background potential A0(x) = M x (row i: A0_i = sum_k M_ik x_k).

    The uniform field it carries is H0 = (M32-M23, M13-M31, M21-M12); only
    the antisymmetric part of M matters for H0, but the full M enters the
    advective force, so two gauges of the same H0 are physically distinct
    under the modified force law.  The background is frozen in time.  Both
    formulations' states carry one; the traditional system reads only H0.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (3, 3) or not np.isfinite(m).all():
            raise ValueError("background matrix must be a finite 3x3 matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __eq__(self, other):
        if not isinstance(other, BackgroundPotential):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    @property
    def uniform_field(self) -> np.ndarray:
        """The uniform H0 = curl(M x)."""
        m = self.matrix
        return np.array(
            [m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]]
        )

    @classmethod
    def zero(cls) -> "BackgroundPotential":
        return cls(np.zeros((3, 3)))

    @classmethod
    def from_uniform_field(cls, h0) -> "BackgroundPotential":
        """Symmetric gauge A0 = (1/2) H0 x r for a uniform field H0."""
        bx, by, bz = np.asarray(h0, dtype=float)
        m = 0.5 * np.array(
            [
                [0.0, -bz, by],
                [bz, 0.0, -bx],
                [-by, bx, 0.0],
            ]
        )
        return cls(m)

    def advected_by(self, v: np.ndarray) -> np.ndarray:
        """(V . grad) A0, exactly: component i is sum_k V_k M_ik."""
        return _matrix_times(self.matrix, v)

    def contracted_with(self, v: np.ndarray) -> np.ndarray:
        """G_i = sum_k V_k d_i A0_k = sum_k V_k M_ki, exactly."""
        return _matrix_times(self.matrix.T, v)


def _matrix_times(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """out_i = sum_k m_ik V_k, summed from zero in k order over m's nonzero entries.

    A zero entry adds a signed zero, which leaves a sum that starts at +0
    unchanged, so on finite V this is bitwise the einsum of m and V.
    """
    out = np.zeros(v.shape)
    for i in range(3):
        for k in range(3):
            if m[i, k] != 0.0:
                out[i] += m[i, k] * v[k]
    return out


@dataclass(frozen=True)
class TwoFluidState:
    """Two charged fluids: charge densities rho_pm and velocities v_pm.

    Quasineutrality (rho_plus + rho_minus = 0) is not enforced here -- the
    per-species force below is well defined without it -- but the reduction
    to the single-fluid advective force only holds when it does; see
    :func:`force_two_fluid`.
    """

    rho_plus: np.ndarray
    rho_minus: np.ndarray
    v_plus: np.ndarray
    v_minus: np.ndarray

    def current(self) -> np.ndarray:
        """j = rho_plus v_plus + rho_minus v_minus."""
        return self.rho_plus * self.v_plus + self.rho_minus * self.v_minus


def h_from_a(a: np.ndarray, bg: BackgroundPotential, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Total magnetic field H = curl(A_periodic) + H0."""
    h = ops.curl(a, grid, order)
    h += bg.uniform_field[:, None, None, None]
    return h


def current_from_a(a: np.ndarray, grid: GridSpec, order: int = 2) -> np.ndarray:
    """Current density j = (c/4pi) curl curl A (the background drops out)."""
    return (1.0 / FOUR_PI) * ops.curl_curl(a, grid, order)


def force_modified(
    j: np.ndarray,
    a: np.ndarray,
    bg: BackgroundPotential,
    grid: GridSpec,
    order: int = 2,
) -> np.ndarray:
    """Advective current force f = -(1/c) (j . grad)(A_periodic + A0)."""
    f = ops.advect(j, a, grid, order)
    f += bg.advected_by(j)
    return np.negative(f, out=f)


def force_modified_from_a(
    a: np.ndarray,
    bg: BackgroundPotential,
    grid: GridSpec,
    order: int = 2,
) -> np.ndarray:
    """The modified force with j derived from A itself."""
    return force_modified(current_from_a(a, grid, order), a, bg, grid, order)


def force_two_fluid(
    tf: TwoFluidState,
    a_dot: np.ndarray,
    a: np.ndarray,
    bg: BackgroundPotential,
    grid: GridSpec,
    order: int = 2,
) -> np.ndarray:
    """Summed per-species force on two charged fluids,

        f = - sum_s (rho_s / c) [ dA/dt + (v_s . grad) A_total ].

    Under quasineutrality the dA/dt terms cancel and the sum collapses to
    the single-fluid advective force -(1/c)(j.grad)A with
    j = rho_plus v_plus + rho_minus v_minus.
    """
    f = np.zeros(grid.vshape)
    for rho_s, v_s in ((tf.rho_plus, tf.v_plus), (tf.rho_minus, tf.v_minus)):
        term = a_dot + ops.advect(v_s, a, grid, order) + bg.advected_by(v_s)
        f -= rho_s * term
    return f


def gauge_shift_sensitivity(
    a: np.ndarray,
    bg: BackgroundPotential,
    chi: np.ndarray,
    grid: GridSpec,
    order: int = 2,
) -> float:
    """Relative change of the A-derived force under A -> A + grad(chi).

    H and j are gauge invariant, but (j.grad)A is not, so this is generally
    nonzero -- it measures how much the force law depends on the gauge of
    the potential.  Returns ||F(A + grad chi) - F(A)||_2 / ||F(A)||_2
    (0.0 when both vanish, inf when only the denominator does).
    """
    f0 = force_modified_from_a(a, bg, grid, order)
    shifted = a + ops.grad(chi, grid, order)
    f1 = force_modified_from_a(shifted, bg, grid, order)
    num = ops.l2_norm(f1 - f0, grid)
    den = ops.l2_norm(f0, grid)
    if num == 0.0:
        return 0.0
    if den == 0.0:
        return float("inf")
    return num / den
