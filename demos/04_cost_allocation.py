"""Cost-optimal sample sizes and when a design pays for itself.

A budget C0 buys second-phase observations of y at C1 each and
first-phase observations of the auxiliaries at C2 (x) and C3 (z) each.
Each strategy has a closed-form optimum (m, n); an exhaustive integer
grid search confirms the algebra.

Run:  python3 demos/04_cost_allocation.py
"""

from dsmedian import (
    STRATEGIES,
    CostModel,
    VarianceComponents,
    allocate,
    grid_search_allocation,
    profitability_report,
)

comps = VarianceComponents(V0=1.0, V1=0.64, V2=0.36, V3=0.05)
cost = CostModel(c0=100.0, c1=4.0, c2=0.7, c3=0.3)
N = 10_000_000

print("budget 100, unit costs (y, x, z) = (4.0, 0.7, 0.3)")
print("components V0..V3 =", (comps.V0, comps.V1, comps.V2, comps.V3))
print()
print(f"{'strategy':>10s} {'m*':>8s} {'n*':>8s} {'opt var':>10s} {'grid (m, n)':>12s} {'grid var':>10s}")
for name in STRATEGIES:
    res = allocate(name, cost, comps, N)
    if not res.feasible:
        print(f"{name:>10s} infeasible: {res.note}")
        continue
    grid = grid_search_allocation(cost, comps, N, name)
    n_str = f"{res.n_real:8.2f}" if res.n_real is not None else "       -"
    g_str = f"({grid.m_int}, {grid.n_int})" if grid.n_int else f"({grid.m_int}, -)"
    print(f"{name:>10s} {res.m_real:8.2f} {n_str} {res.variance_large_n:10.6f} "
          f"{g_str:>12s} {grid.variance_large_n:10.6f}")

print("\nprofitability verdicts (numeric comparison of the cost optima):")
report = profitability_report(cost, comps, N)
for verdict in (report.g_vs_single, report.g_vs_H, report.F_vs_H, report.F_vs_g):
    extra = ""
    if verdict.closed_form_lhs is not None and verdict.closed_form_rhs is not None:
        extra = f"  [threshold check: {verdict.closed_form_lhs:.4f} vs {verdict.closed_form_rhs:.4f}]"
    print(f"  {verdict.comparison:<12s} {verdict.verdict:<15s} "
          f"({verdict.variance_candidate:.6f} vs {verdict.variance_reference:.6f}){extra}")
