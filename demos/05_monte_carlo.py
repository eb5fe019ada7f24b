"""A desk-scale Monte Carlo experiment confronting the estimators with
their first-order theory.

1000 replicated two-phase draws from one synthetic population; empirical
MSEs land next to the theoretical variances and reproduce the efficiency
ordering: generalized <= two-auxiliary <= one-auxiliary <= plain median.

Run:  python3 demos/05_monte_carlo.py   (about 10 seconds)
"""

from dsmedian import SimConfig, run_simulation
from dsmedian.montecarlo import GeneratorSpec, MarginalSpec

marg = MarginalSpec("normal", 10.0, 2.0)
gen = GeneratorSpec(r_xy=0.8, r_yz=0.6, r_xz=0.7,
                    marginal_x=marg, marginal_y=marg, marginal_z=marg)

config = SimConfig(
    m=150,
    n=600,
    N=5000,
    replicates=1000,
    master_seed=20250801,
    estimators=("median", "ratio-double", "position", "stratified",
                "reg-x", "reg-xz", "g1", "g7", "f-linear"),
    generator=gen,
)

report = run_simulation(config)
cfg = report.config  # the run's inputs, as the report keeps them
print(f"population N={cfg.N}, design m={cfg.m}, n={cfg.n}, replicates={cfg.replicates}")
print(f"estimand (census median of y): {report.estimand:.4f}\n")

header = f"{'estimator':>12s} {'mean':>8s} {'rel bias':>9s} {'MSE':>9s} {'theory':>9s} {'ratio':>6s}"
print(header)
for row in report.rows:
    theory = f"{row.theory_variance:9.5f}" if row.theory_variance is not None else "        -"
    ratio = f"{row.mse_theory_ratio:6.3f}" if row.mse_theory_ratio is not None else "     -"
    print(f"{row.est_id:>12s} {row.mean:8.4f} {100 * row.relative_bias:+8.3f}% "
          f"{row.mse:9.5f} {theory} {ratio}")

print("\nsame seed, same config -> bit-identical report:",
      run_simulation(config).to_json_dict() == report.to_json_dict())
