"""Auditing an estimate: fidelity, overlap, robustness value, and bias bounds.

Any tabular representation of non-focal language is lossy. The audit
quantifies how much estimate movement that loss could cause:

- sigma2: mean squared out-of-fold outcome residual (fidelity; lower = better)
- nu2:    second moment of the transport weights (overlap; lower = better)
- RV:     joint calibration strength C_Y = C_D at which the bias bound first
          reaches the point estimate — how much explanatory power an omitted
          attribute would need before the sign is in doubt
- bounds: tau_hat -+ sqrt(sigma2 nu2) C_Y C_D for chosen strengths

Calibration turns abstract (C_Y, C_D) into concrete terms by deliberately
weakening the representation (dropping a feature) and measuring the loss.

Run:  python demos/02_sensitivity_audit.py
"""

import numpy as np

from isoeffect import (
    SensitivityParams,
    SynthSpec,
    audit,
    calibrate_detail,
    contour_grid,
    estimate_effect,
    generate,
    ovb_bounds,
)

dataset = generate(SynthSpec(n=2500, d=6, rho=0.6, beta_a=1.0, seed=7))
est, fits, weights = estimate_effect(dataset, seed=0, return_parts=True)

report = audit(est, dataset, fits, weights)
print(f"tau_hat {est.tau_hat:+.4f}   se {est.standard_error:.4f}")
print(f"sigma2 (fidelity)     {report.sigma2:.4f}")
print(f"nu2 (overlap)         {report.nu2:.4f}   plug-in {report.nu2_plugin:.4f}")
print(f"robustness value      {report.rv:.3f}")
for strength in (0.2, 0.5):
    lo, hi = ovb_bounds(est.tau_hat, report.sigma2, report.nu2,
                        SensitivityParams(strength, strength))
    print(f"bias bound at C_Y = C_D = {strength:.1f}: [{lo:+.4f}, {hi:+.4f}]")

# calibrate against a real weakening: drop each feature and measure the cost
print("\ncalibration by omitted feature:")
print(f"{'omitted':>8} {'C_Y':>7} {'C_D':>7} {'bound':>8} {'realized':>9}")
for j, name in enumerate(dataset.feature_names):
    keep = [i for i in range(dataset.d) if i != j]
    cal = calibrate_detail(dataset, fits, dataset.features[:, keep])
    realized = abs(cal.reduced_estimate.tau_hat - est.tau_hat)
    print(f"{name:>8} {cal.params.c_y:7.3f} {cal.params.c_d:7.3f} "
          f"{cal.bound_halfwidth:8.4f} {realized:9.4f}")

# the contour grid is what a sensitivity figure would plot: the worst-case
# lower bound of the estimate over a (C_Y, C_D) rectangle
grid = contour_grid(est.tau_hat, report.sigma2, report.nu2,
                    cy_max=0.5, cd_max=0.5, steps=6)
print("\nlower bound of tau over C_Y (rows) x C_D (cols), up to 0.5:")
with np.printoptions(precision=3, suppress=True):
    print(grid.lower_bound)
sign_safe = grid.lower_bound > 0
print(f"sign certain on {sign_safe.mean():.0%} of the grid")
