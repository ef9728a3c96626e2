"""The exact oracle, and the heuristic roster against it.

f is a sum of per-period terms and each period's options depend only on the
previous period's outlet levels, so the optimum is a longest path over
(period, level-vector) states. More outlets never lose coverage, so only
budget-saturated states (no station can afford another outlet) need a value.
Valuing each of those once gives a certified optimum to measure greedy, GRASP
and rolling horizon against.
"""

import numpy as np

from evcover import (GraspConfig, GreedyConfig, RollingHorizonConfig, brute_force_optimum,
                     build_coverage, count_feasible, gap, grasp, greedy, reachable_states,
                     rolling_horizon)
from evcover.datasets import generate_small_instance

inst = generate_small_instance(11, n_stations=3, horizon=2)
cov = build_coverage(inst)

n_states = sum(map(len, reachable_states(inst)))
print(f"feasible schedules: {count_feasible(inst)}, "
      f"budget-saturated (period, levels) states the DP values: {n_states}")
x_star, f_star = brute_force_optimum(inst, cov)
print(f"exact optimum f* = {f_star:.2f}")
print("optimal outlet counts per (station, period):")
print(x_star.levels)

rows = []
g_m = greedy(inst, cov, GreedyConfig(mode="myopic"))
rows.append(("greedy myopic", g_m.f, g_m.wall_time))
g_h = greedy(inst, cov, GreedyConfig(mode="hyperoptic"))
rows.append(("greedy hyperoptic", g_h.f, g_h.wall_time))

# GRASP with the recommended settings: alpha 0.85, 300 constructions,
# filtering after a 10-solution warmup, first-improvement local search
res = grasp(inst, cov, GraspConfig(alpha=0.85, mode="myopic", max_solutions=300, seed=1))
n_filtered = sum(1 for r in res.trace if r.get("filtered"))
rows.append((f"GRASP ({res.termination}, {n_filtered} filtered)", res.f, res.wall_time))

# rolling horizon: one period at a time, each by the DP's exact step; only a
# period past exact.MAX_STATES options would go to the bundled MILP solver
rh = rolling_horizon(inst, cov, RollingHorizonConfig(total_time_limit_s=60.0))
rows.append(("rolling horizon (even)", rh.f, rh.wall_time))

print(f"\n{'method':<38} {'f':>9} {'gap%':>7} {'time':>8}")
for name, f, wall in rows:
    print(f"{name:<38} {f:>9.2f} {gap(f_star, f):>7.3f} {wall:>7.3f}s")

print("\ngreedy accepted moves (period, station, outlet, marginal score):")
for move in g_m.trace:
    print(f"  t={move['period']} station {move['station']} -> k={move['k']} "
          f"(+{move['score']:.2f})")
