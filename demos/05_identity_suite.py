"""The structural identity suite, printed in full.

Six relations the discretization must honor, split into algebraically
exact ones (roundoff at any resolution) and continuum identities whose
residual must shrink at the stencil order:

  a. the two-fluid force with cancelling charge densities collapses to
     the single-fluid advective force;
  b. the modified force is half the Lorentz force minus S j,
     f_mod = (1/2) j x H - S j with S = sym grad(A + A0);
  c. div E vanishes (at the stencil order) when dA/dt carries no gradient;
  d. the advective force equals j x H/c minus a gradient-contraction --
     checked both against the hand-derived continuum value and as pure
     stencil algebra (the latter is exact and is the sharpest sign canary);
  e. curl curl = grad div - laplacian;
  f. the force is *not* gauge invariant: a gradient shift of A moves it by
     a definite, order-one amount.

Run this after touching any operator or force expression.
"""

from modmhd import format_identity_report, identity_suite


def main():
    report = identity_suite((16, 32, 48))
    print(format_identity_report(report))
    print()
    print("overall:", "all checks passed" if report.all_passed
          else "SOME CHECKS FAILED")


if __name__ == "__main__":
    main()
