"""Orszag-Tang-style vortex: ideal MHD against a passive potential.

Same initial data -- A_z = a0 (cos 2y / 2 + cos x) with a counter-rotating
velocity -- evolved once with the traditional Lorentz force j x H and once
with the advective force -(1/c)(j . grad) A.  On this planar state the
modified force is identically zero: A is along z and varies only in x and
y, so j is along z and (j . grad) A = j_z d_z A = 0, and A stays along z.
The modified run is therefore hydrodynamics carrying a passive A_z, and
the comparison is ideal MHD against pure hydrodynamics, not a contest of
two nonzero force laws.  The script tracks the kinetic/magnetic energy
exchange and mass conservation for both, then writes an out-of-plane
current image per formulation if matplotlib is present.

The flow is z-independent, so a thin grid in z costs nothing.
"""

import numpy as np

from modmhd import (
    Formulation,
    GridSpec,
    PhysParams,
    current_from_a,
    orszag_tang_like,
    run,
)

TWO_PI = 2.0 * np.pi
GRID = GridSpec(64, 64, 4, TWO_PI, TWO_PI, TWO_PI)
T_END = 2.0
PARAMS = PhysParams()


def evolve(formulation):
    case = orszag_tang_like(GRID, formulation, a0=0.2, v0=0.2)
    # the clipped final step is recorded off the 5-step cadence, so count
    # steps as they are taken rather than from the records
    steps = []
    final, records = run(case.state, PARAMS, t_end=T_END, out_every=5,
                         on_step=lambda state, step: steps.append(step))
    return final, records, steps[-1]


def report(label, records, steps):
    first, last = records[0], records[-1]
    print(f"--- {label} ---")
    print(f"  steps                {steps}")
    print(f"  mass drift           {abs(last.mass - first.mass) / first.mass:.2e}")
    print(f"  e_kin  {first.e_kin:.6f} -> {last.e_kin:.6f}")
    print(f"  e_mag  {first.e_mag:.6f} -> {last.e_mag:.6f}")
    print(f"  e_tot drift          {(last.e_tot - first.e_tot) / first.e_tot:+.2e}")
    exchanged = last.e_mag - first.e_mag
    print(f"  kinetic -> magnetic  {exchanged:+.6f}")
    print()


def main():
    finals = {}
    for formulation in (Formulation.TRADITIONAL, Formulation.MODIFIED):
        final, records, steps = evolve(formulation)
        finals[formulation] = final
        report(formulation.value, records, steps)

    # the modified force vanishes on this planar state, so its run is
    # hydrodynamics; the Lorentz force makes the two diverge by t = 2
    print("modified force on the planar state: identically zero "
          "(j along z, A independent of z)")
    dv = finals[Formulation.MODIFIED].v - finals[Formulation.TRADITIONAL].v
    print(f"max |v_mod - v_trad| at t = {T_END}: {np.abs(dv).max():.4f}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("(matplotlib not available; skipping current maps)")
        return
    fig, axes = plt.subplots(1, 2, figsize=(9, 4))
    for ax, (formulation, final) in zip(axes, finals.items()):
        j = current_from_a(final.mag, GRID)
        ax.imshow(j[2][:, :, 0].T, origin="lower", cmap="RdBu_r",
                  extent=(0, TWO_PI, 0, TWO_PI))
        ax.set_title(f"j_z, {formulation.value}")
    fig.tight_layout()
    fig.savefig("orszag_tang_jz.png", dpi=130)
    print("wrote orszag_tang_jz.png")


if __name__ == "__main__":
    main()
