"""The SL model as it was before it left out the (triplet, station) pairs no
choice can reach, kept as the reference `milp.build_sl` is checked against:
a utility, a choice variable and six rows for every considered station of
every triplet that is not home-forced, and a block for every such triplet,
covered or not. Its optimum equals the reduced model's with the objective
constant added."""

import math

from evcover.covering import preprocess_home_charging
from evcover.instance import HOME, OPT_OUT, Instance
from evcover.milp import BINARY, BigMBounds, MilpModel, _add_x_block, x_name


def reference_build_sl(instance: Instance, bounds: BigMBounds) -> MilpModel:
    """Single-level model: minimise the opt-out mass subject to the ladder
    block, Big-M utility discounting, and the KKT-linearised choice step.
    Home-forced triplets are dropped (their choice can never be opt-out).
    The open-utility upper row needs no slack for a closed station, because
    abar <= kappa + eps for every considered station and scenario: abar is
    their minimum, and compute_bounds only ever lowers it."""
    model = MilpModel("sl", "min")
    _add_x_block(model, instance, range(1, instance.horizon + 1), instance.initial_levels)
    pre = preprocess_home_charging(instance)
    T = instance.horizon
    obj = {}

    for ci, uc in enumerate(instance.user_classes):
        alt_index = instance.choice_sets.alt_index[ci]
        kap = instance.utility_params.kappa[ci]
        bet = instance.utility_params.beta[ci]
        eps = instance.error_tensor[ci]
        weight = [uc.populations[t] / uc.scenario_count for t in range(T)]
        forced = pre.forced[ci]
        for t in range(1, T + 1):
            stations_t = [a for a in instance.choice_sets.c1[ci][t - 1]]
            for r in range(uc.scenario_count):
                if forced is not None and forced[r, t - 1]:
                    continue
                tag = f"c{ci}_r{r}_t{t}"
                alts_block = [OPT_OUT] + stations_t
                names_w, names_u = {}, {}
                for alt in alts_block:
                    a_tag = f"{tag}_a{alt if alt != HOME else -1}"
                    names_w[alt] = model.add_var(f"w_{a_tag}", lb=0.0, ub=1.0, kind=BINARY)
                    names_u[alt] = model.add_var(f"u_{a_tag}", lb=-math.inf, ub=math.inf)
                alpha = model.add_var(f"alpha_{tag}", lb=-math.inf, ub=math.inf)
                obj[names_w[OPT_OUT]] = weight[t - 1]

                o = alt_index[OPT_OUT]
                model.add_row(f"uexo_{tag}", {names_u[OPT_OUT]: 1.0}, "=",
                              kap[o, t - 1] + eps[o, r, t - 1])
                for alt in stations_t:
                    pos = alt_index[alt]
                    m_j = instance.stations[instance.station_index[alt]].max_outlets
                    nu = bounds.nu[ci][pos, r, t - 1]
                    ab = bounds.abar[ci, t - 1]
                    ke = kap[pos, t - 1] + eps[pos, r, t - 1]
                    beta_x = {x_name(alt, k, t): bet[pos, k - 1, t - 1]
                              for k in range(1, m_j + 1)}
                    model.add_row(f"uclosedlo_{tag}_a{alt}", {names_u[alt]: 1.0}, ">=", ab)
                    model.add_row(f"uclosedhi_{tag}_a{alt}",
                                  {names_u[alt]: 1.0, x_name(alt, 1, t): -nu}, "<=", ab)
                    row = {names_u[alt]: 1.0, **{n: -c for n, c in beta_x.items()}}
                    row[x_name(alt, 1, t)] = row.get(x_name(alt, 1, t), 0.0) - nu
                    model.add_row(f"uopenlo_{tag}_a{alt}", row, ">=", ke - nu)
                    row = {names_u[alt]: 1.0, **{n: -c for n, c in beta_x.items()}}
                    model.add_row(f"uopenhi_{tag}_a{alt}", row, "<=", ke)
                for alt in alts_block:
                    pos = alt_index[alt]
                    mu = bounds.mu[ci][pos, r, t - 1]
                    model.add_row(f"pick_{tag}_a{alt}",
                                  {names_u[alt]: 1.0, alpha: -1.0, names_w[alt]: -mu},
                                  ">=", -mu)
                model.add_row(f"one_{tag}", {n: 1.0 for n in names_w.values()}, "=", 1.0)
                for alt in alts_block:
                    model.add_row(f"amax_{tag}_a{alt}",
                                  {alpha: 1.0, names_u[alt]: -1.0}, ">=", 0.0)
    model.set_objective(obj)
    return model
