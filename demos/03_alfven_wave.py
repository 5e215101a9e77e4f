"""Traveling Alfven wave: measure the phase speed, return after one period.

A transverse perturbation on a uniform field H0 = x-hat propagates at
v_A = H0/sqrt(4 pi rho).  We integrate the traditional system (the
vector potential A driven by the Lorentz force) for one period on an
x-resolved slab, track the phase of the k=1 Fourier mode of A_y, which is
that of H_y plus pi, at every step, fit the phase slope, and compare the
distance between the final and initial states against the perturbation
amplitude.
"""

import numpy as np

from modmhd import Formulation, GridSpec, PhysParams, alfven_wave, run, state_error

TWO_PI = 2.0 * np.pi
VA = 1.0 / np.sqrt(4.0 * np.pi)


def main():
    grid = GridSpec(64, 4, 4, TWO_PI, TWO_PI, TWO_PI)
    case = alfven_wave(grid, Formulation.TRADITIONAL, delta=1e-3)
    params = PhysParams()
    period = TWO_PI / VA
    x = grid.meshes()[0]

    samples = []

    def capture(state, step):
        coef = np.sum(state.mag[1] * np.exp(-1j * x))
        samples.append((state.t, np.angle(coef)))

    print(f"v_A = {VA:.6f}, one period = {period:.4f}")
    final, records = run(case.state, params, period, out_every=50,
                         on_step=capture)
    print(f"integrated {len(samples) - 1} steps to t = {final.t:.4f}")

    times = np.array([t for t, _ in samples])
    phases = np.unwrap([p for _, p in samples])
    speed = abs(np.polyfit(times, phases, 1)[0])  # k = 1
    print(f"measured phase speed : {speed:.6f}  "
          f"({abs(speed - VA) / VA:.3%} from v_A)")

    pert = state_error(case.state, alfven_wave(grid, Formulation.TRADITIONAL,
                                               delta=0.0).state)
    ret = state_error(final, case.state)
    print(f"perturbation norm    : {pert:.3e}")
    print(f"period-return error  : {ret:.3e}  ({ret / pert:.2%} of the wave)")

    e0, e1 = records[0], records[-1]
    print(f"energy drift         : {abs(e1.e_tot - e0.e_tot) / e0.e_tot:.3e}")
    print(f"||div H||_2 at end   : {e1.divH_l2:.3e}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("(matplotlib not available; skipping plot)")
        return
    fig, ax = plt.subplots(figsize=(6, 3.5))
    ax.plot(times, phases, lw=0.8)
    ax.set_xlabel("t")
    ax.set_ylabel("phase of A_y (k=1)")
    ax.set_title("Alfven wave: linear phase drift at v_A")
    fig.tight_layout()
    fig.savefig("alfven_phase.png", dpi=130)
    print("wrote alfven_phase.png")


if __name__ == "__main__":
    main()
