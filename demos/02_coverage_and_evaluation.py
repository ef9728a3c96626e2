"""Coverage preprocessing and solution evaluation.

A station with k outlets covers a triplet (period, class, scenario) when it
is open, considered, and at least as attractive as the opt-out under that
scenario's error draw. Once the coverage tensor is built, evaluating any
outlet plan is a weighted popcount over packed bitsets.
"""

import numpy as np

from evcover import build_coverage, evaluate, evaluate_per_period, gap
from evcover.covering import score_hyperoptic, score_myopic, station_utility_at_k
from evcover.datasets import generate_small_instance
from evcover.instance import SolutionX

inst = generate_small_instance(5, n_stations=3, horizon=2)
cov = build_coverage(inst)
print(f"coverage tensor: {cov.trip.n_triplets} triplets, "
      f"{cov.a_bits.shape[0]} outlet slots, {cov.trip.n_words} words")

# the utility ladder of one station for one triplet
sid = inst.stations[0].id
print("\nutility ladder, class 0, scenario 0, period 1:")
for k in range(0, inst.stations[0].max_outlets + 1):
    u = station_utility_at_k(inst, 1, 0, 0, sid, k)
    print(f"  k={k}: u = {u:7.3f}")

# min-k thresholds: smallest outlet count at which station j covers triplet p,
# derived from the nested slot bitsets (the only stored coverage data)
p = cov.trip.triplet_id(0, 0, 0)
print(f"\nmin-k thresholds for triplet {p}: {cov.min_k[:, p].tolist()} (0 = never)")

zero = SolutionX.zeros(inst)
print(f"\nf(zero solution) = {evaluate(inst, cov, zero):.2f}")

full = SolutionX.from_levels(
    np.repeat(inst.max_outlets[:, None], inst.horizon, axis=1),
    int(inst.max_outlets.max()))
f_full = evaluate(inst, cov, full)
print(f"f(everything maxed) = {f_full:.2f} "
      f"of {inst.demand_mass():.2f} total demand mass")
print(f"per-period breakdown: {np.round(evaluate_per_period(inst, cov, full), 2)}")

# greedy-style scores: myopic counts the current period, hyperoptic holds the
# configuration and counts the future too
one = SolutionX.from_levels(np.array([[1, 1], [0, 0], [0, 0]]), 2)
print(f"\nscore_myopic(t=1)    = {score_myopic(cov, one, 1):.2f}")
print(f"score_hyperoptic(t=1) = {score_hyperoptic(cov, one, 1):.2f}")

print(f"\ngap(best=200, value=150) = {gap(200, 150):.1f}%")
