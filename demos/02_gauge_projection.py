"""Helmholtz projection: enforcing div A = 0 without touching the physics.

The potential formulation works in the gauge phi = 0, div A = 0.  The
evolution equation alone does not preserve div A = 0, so the integrator
periodically projects A back onto solenoidal fields.  This script pollutes
a clean potential with an explicit gradient and shows that the projection

  * removes the divergence down to roundoff, and
  * leaves curl A -- the magnetic field, i.e. everything physical in the
    traditional reading -- unchanged to roundoff.
"""

import numpy as np

import modmhd.operators as ops
from modmhd import GridSpec, helmholtz_project

TWO_PI = 2.0 * np.pi


def main():
    g = GridSpec(48, 48, 48, TWO_PI, TWO_PI, TWO_PI)
    x, y, z = g.meshes()

    # a solenoidal potential: curl of something
    base = np.empty(g.vshape)
    base[0] = np.sin(y) * np.cos(z)
    base[1] = np.sin(z) * np.cos(x)
    base[2] = np.sin(x) * np.cos(y)

    # ... plus a pure-gradient pollutant (what unchecked evolution builds up)
    chi = 0.4 * np.sin(x) * np.cos(2.0 * y) + np.zeros(g.shape)
    polluted = base + ops.grad(chi, g)

    print(f"||div A||_2  clean    : {ops.l2_norm(ops.div(base, g), g):.3e}")
    print(f"||div A||_2  polluted : {ops.l2_norm(ops.div(polluted, g), g):.3e}")

    projected, phi = helmholtz_project(polluted, g)
    print(f"||div A||_2  projected: {ops.l2_norm(ops.div(projected, g), g):.3e}")

    h_before = ops.curl(polluted, g)
    h_after = ops.curl(projected, g)
    rel = ops.l2_norm(h_after - h_before, g) / ops.l2_norm(h_before, g)
    print(f"relative change of curl A under projection: {rel:.3e}")

    # the recovered potential matches the injected pollutant up to its mean
    gap = ops.max_norm(phi - (chi - chi.mean()))
    print(f"max |phi - chi| (zero-mean): {gap:.3e}")

    # idempotence: projecting twice changes nothing further
    again, _ = helmholtz_project(projected, g)
    print(f"second projection moves A by: {ops.max_norm(again - projected):.3e}")


if __name__ == "__main__":
    main()
