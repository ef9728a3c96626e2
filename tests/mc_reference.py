"""MC models with the paper's summed covering row, one per triplet, kept as
the reference the merged single-term rows of `milp._add_cover_rows` are
checked against, and the covering patterns those rows should hold, computed
triplet by triplet.

The triplet's row is `w <= sum_j sum_{k >= min_k_j} x[j, k, t]` over the
stations j that cover it; the x block and the x names are those of
`milp.build_mc` / `milp.build_mc_period`.
"""

import numpy as np

from evcover.milp import MilpModel, _add_x_block, x_name


def _summed_cover_rows(model, instance, coverage, ci, t, obj):
    uc = instance.user_classes[ci]
    b = coverage.trip.block(ci, t - 1)
    p0, w0 = coverage.trip.bit_start[b], coverage.trip.word_start[b]
    weight = uc.populations[t - 1] / uc.scenario_count
    forced_weight = 0.0
    for r in range(uc.scenario_count):
        if coverage.forced_bits[w0 + r // 64] >> np.uint64(r % 64) & np.uint64(1):
            forced_weight += weight
            continue
        coeffs = {}
        for alt in instance.choice_sets.c1[ci][t - 1]:
            j = instance.station_index[alt]
            mk = int(coverage.min_k[j, p0 + r])
            if mk:
                for k in range(mk, instance.stations[j].max_outlets + 1):
                    coeffs[x_name(alt, k, t)] = 1.0
        w = model.add_var(f"w_c{ci}_r{r}_t{t}", lb=0.0, ub=1.0)
        obj[w] = weight
        coeffs[w] = -1.0
        model.add_row(f"cover_c{ci}_r{r}_t{t}", coeffs, ">=", 0.0)
    return forced_weight


def cover_patterns(instance, coverage, t):
    """Period t's covering patterns: the term set {x[j, min_k_j, t]} of each
    triplet that is neither home-forced nor never covered, mapped to the
    summed N/R of the triplets that share it, in the order the first of them
    appears."""
    patterns = {}
    for ci, uc in enumerate(instance.user_classes):
        b = coverage.trip.block(ci, t - 1)
        p0, w0 = coverage.trip.bit_start[b], coverage.trip.word_start[b]
        for r in range(uc.scenario_count):
            if coverage.forced_bits[w0 + r // 64] >> np.uint64(r % 64) & np.uint64(1):
                continue
            min_k = {alt: int(coverage.min_k[instance.station_index[alt], p0 + r])
                     for alt in instance.choice_sets.c1[ci][t - 1]}
            terms = frozenset(x_name(alt, mk, t) for alt, mk in min_k.items() if mk)
            if terms:
                weight = uc.populations[t - 1] / uc.scenario_count
                patterns[terms] = patterns.get(terms, 0.0) + weight
    return patterns


def summed_build_mc(instance, coverage):
    model = MilpModel("mc", "max")
    _add_x_block(model, instance, range(1, instance.horizon + 1), instance.initial_levels)
    obj = {}
    for ci in range(instance.n_classes):
        for t in range(1, instance.horizon + 1):
            _summed_cover_rows(model, instance, coverage, ci, t, obj)
    model.set_objective(obj, constant=coverage.forced_mass)
    return model


def summed_build_mc_period(instance, coverage, t, base_levels):
    model = MilpModel(f"mc_t{t}", "max")
    _add_x_block(model, instance, [t], np.asarray(base_levels, dtype=int))
    obj = {}
    constant = sum(_summed_cover_rows(model, instance, coverage, ci, t, obj)
                   for ci in range(instance.n_classes))
    model.set_objective(obj, constant=constant)
    return model
