"""Linear spectra of the two formulations: the v_A/sqrt(2) surprise.

The numerical dispersion tool nudges a uniform rest state along each
cos/sin mode of each field component, projects the response back, and
takes eigenvalues of the resulting 16x16 matrix.  An independent 8x8
analytic matrix (exact for the discrete stencils) provides the oracle.
Both systems evolve the vector potential A, so their oracles differ only
in the force row.

Headline: for waves along a uniform field the traditional system carries
transverse modes at v_A, while the modified force law -- with the
background potential in the symmetric gauge -- carries them at
v_A/sqrt(2).  The spectrum depends on the gauge of the background
potential, which is the point: the two systems are different physics.
"""

import numpy as np

from modmhd import (
    Formulation,
    GridSpec,
    PhysParams,
    dispersion,
    modified_wavenumber,
    oracle_omegas,
    uniform_rest,
)

TWO_PI = 2.0 * np.pi
VA = 1.0 / np.sqrt(4.0 * np.pi)


def report(tag, background, params):
    res = dispersion(background, (1, 0, 0), params)
    oracle = oracle_omegas(background, (1, 0, 0), params)
    gap = np.abs(np.sort_complex(res.omega) - np.sort_complex(oracle)).max()
    speeds = ", ".join(f"{s:.5f}" for s in res.speeds())
    print(f"{tag:<12} phase speeds {{{speeds}}}")
    print(f"{'':<12} oracle gap {gap:.2e}, pairing error {res.pairing_error:.2e}")
    return res


def main():
    grid = GridSpec(64, 4, 4, TWO_PI, TWO_PI, TWO_PI)
    params = PhysParams()
    kt = modified_wavenumber(1.0, grid.hx)

    print(f"background: rho0 = 1, P0 = 0.6 (c_s = 1), H0 = (1,0,0)")
    print(f"mode (1,0,0); discrete wavenumber ktilde = {kt:.6f}")
    print(f"ideal speeds: v_A = {VA:.5f}, v_A/sqrt(2) = {VA / np.sqrt(2):.5f}, "
          f"c_s = 1.00000")
    print()

    trad = uniform_rest(grid, Formulation.TRADITIONAL, 1.0, 0.6, b0x=1.0).state
    report("traditional", trad, params)

    mod = uniform_rest(grid, Formulation.MODIFIED, 1.0, 0.6, b0x=1.0).state
    report("modified", mod, params)

    print()
    print("same exercise with H0 = 0: the formulations coincide")
    t0 = uniform_rest(grid, Formulation.TRADITIONAL, 1.0, 0.6).state
    m0 = uniform_rest(grid, Formulation.MODIFIED, 1.0, 0.6).state
    w_t = np.sort_complex(dispersion(t0, (1, 0, 0), params).omega)
    w_m = np.sort_complex(dispersion(m0, (1, 0, 0), params).omega)
    print(f"max spectral difference: {np.abs(w_t - w_m).max():.2e}")


if __name__ == "__main__":
    main()
