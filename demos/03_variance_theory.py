"""First-order variance theory: components, class minima, optimum
derivatives, and the exact efficiency gaps.

Run:  python3 demos/03_variance_theory.py
"""

from dsmedian import (
    DesignSizes,
    PopulationSummary,
    composite_concordance,
    min_var_F,
    min_var_H,
    min_var_g,
    true_coefficients,
    var_class_F,
    var_class_g,
    var_sample_median,
    variance_components,
)

# a population whose y-density at the median is 0.5, with median
# concordances (xy, yz, xz) = (0.8, 0.6, 0.7)
summary = PopulationSummary.from_parameters(
    medians=(3.0, 5.0, 7.0),
    densities=(0.2, 0.5, 0.11),
    rhos=(0.8, 0.6, 0.7),
    N=10_000,
)
sizes = DesignSizes(m=100, n=400, N=10_000)

comps = variance_components(summary)
print("variance building blocks:")
print(f"  V0 = {comps.V0:.6f}   (sample-median scale, 1/(4 f_y^2))")
print(f"  V1 = {comps.V1:.6f}   (gain from x)")
print(f"  V2 = {comps.V2:.6f}   (gain from z)")
print(f"  V3 = {comps.V3:.6f}   (extra gain from the x-z association)")

print("\nminimum variances at (m, n, N) = (100, 400, 10000):")
rows = (
    ("plain sample median", var_sample_median(sizes, summary)),
    ("one auxiliary (x)", min_var_H(sizes, comps)),
    ("two auxiliaries (x, z)", min_var_g(sizes, comps)),
    ("generalized three-ratio", min_var_F(sizes, comps)),
)
for name, v in rows:
    print(f"  {name:<24s} {v:.7f}")

print("\nexact efficiency gaps:")
print(f"  one-aux vs two-aux  = theta_nN * V2 = {sizes.theta_nN * comps.V2:.7f}")
print(f"  two-aux vs general  = theta_mn * V3 = {sizes.theta_mn * comps.V3:.7f}")

# the optimum derivatives are the negated true optimum coefficients
coeffs = true_coefficients(summary)
g1, g2 = (-a for a in coeffs.alphas())
print(f"\noptimum two-ratio derivatives: g1 = {g1:+.4f}, g2 = {g2:+.4f}")
print(f"variance at the optimum: {var_class_g(sizes, summary, g1, g2):.7f}"
      f"  (equals the closed-form minimum)")
print(f"variance at (0, 0):      {var_class_g(sizes, summary, 0.0, 0.0):.7f}"
      f"  (back to the plain median)")

f2, f3, f4 = (-a for a in coeffs.generalized())
d = composite_concordance(*summary.concordances)
print(f"\ngeneralized-class optimum: F2 = {f2:+.4f}, F3 = {f3:+.4f}, "
      f"F4 = {f4:+.4f}  (composite D = {d:+.4f})")
print(f"variance at the optimum: {var_class_F(sizes, summary, f2, f3, f4):.7f}")
