#!/usr/bin/env python3
"""How the weighted within transform concentrates out subject effects.

The transform never builds a projection matrix: each observation simply
has its subject's check-weighted average subtracted.  Anything constant
within a subject (the fixed effects, or any time-invariant regressor)
is wiped out exactly; at the midpoint the weights are uniform and the
transform is classical demeaning.  A joint fit over several asymmetry
levels subtracts one subject average shared by all of them, so it too is
blind to subject constants.
"""

import numpy as np

import erfe
from erfe.within import apply_within, subject_weights


def main():
    rng = np.random.default_rng(42)
    n, m = 4, 5
    codes = np.repeat(np.arange(n), m)
    X = rng.standard_normal((n * m, 1))
    alpha = rng.standard_normal(n)
    y = X[:, 0] * 0.8 + alpha[codes] + 0.3 * rng.standard_normal(n * m)
    panel = erfe.build_panel(
        [(int(codes[i]), float(y[i]), X[i]) for i in range(n * m)])

    residuals = rng.standard_normal(panel.n_obs)

    print("Midpoint weights are uniform, so the transform is demeaning:")
    sw = subject_weights(residuals, 0.5, panel)
    demeaned = apply_within(panel.y, sw, panel)
    means = np.bincount(panel.codes, weights=panel.y) / panel.counts
    print(f"  max |transform - (y - subject mean)| = "
          f"{np.max(np.abs(demeaned - (panel.y - means[panel.codes]))):.2e}")

    print("\nAt tau = 0.9 the weights tilt toward positive residuals:")
    residuals[:m] = [-1.2, 0.8, -0.3, 1.5, 0.1]
    sw9 = subject_weights(residuals, 0.9, panel)
    for j in range(m):
        w = sw9.normalized[j]
        r = residuals[j]
        print(f"  subject 0, row {j}: residual {r:+.3f} -> weight {w:.3f}")
    print(f"  subject sums of the weights: "
          f"{np.bincount(panel.codes, weights=sw9.normalized)}")

    print("\nSubject constants are annihilated regardless of the weights:")
    const = alpha[panel.codes]
    for tau in (0.1, 0.5, 0.9):
        sw_t = subject_weights(residuals, tau, panel)
        gone = apply_within(const, sw_t, panel)
        print(f"  tau = {tau}: max |transformed constant| = "
              f"{np.max(np.abs(gone)):.2e}")

    print("\nFrozen-weight idempotency (projections do nothing twice):")
    once = apply_within(panel.y, sw9, panel)
    twice = apply_within(once, sw9, panel)
    print(f"  max |second application - first| = "
          f"{np.max(np.abs(twice - once)):.2e}")

    print("\nJoint fit across asymmetry levels (one shared subject average):")
    taus = (0.3, 0.7)
    joint = erfe.fit_erfe_multi(panel, taus)
    shifted = erfe.build_panel(
        [(int(codes[i]), float(y[i] + 5.0 * alpha[codes[i]]), X[i])
         for i in range(n * m)])
    moved = erfe.fit_erfe_multi(shifted, taus)
    print(f"  slopes at tau = {taus}: {joint.betas[:, 0]}")
    print(f"  subject constant added to y -> max |slope change| = "
          f"{np.max(np.abs(moved.betas - joint.betas)):.2e}")

if __name__ == "__main__":
    main()
