"""Simulated utility error terms: nested error components (normal factor per
nest plus a Gumbel term per alternative).

For every triplet (period, user class, scenario) one standard-normal factor is
drawn per nest and one Gumbel term per alternative; the error of alternative j
is factor_sd[nest(j)] * xi[nest(j)] + zeta[j], so alternatives sharing a nest
get correlated errors. Draws are keyed by (seed, instance, class, period)
blocks and are therefore deterministic and order independent: any (class,
period) block can be regenerated in isolation, bit for bit. The factors are
drawn with standard deviation NORMAL_SCALE (times the nest's factor_sd) and
the Gumbel terms with location GUMBEL_LOCATION and scale GUMBEL_SCALE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import DELTA4_BY_BRACKET, HOME, OPT_OUT, Station, UserClass

OPT_OUT_ASC = 4.5

NORMAL_SCALE = 1.0      # sd of the per-nest normal factor before factor_sd
GUMBEL_LOCATION = 0.0
GUMBEL_SCALE = 3.0

DATASET_KINDS = ("Simple", "Distance", "HomeCharging", "LongSpan", "Price")

# station ASC coefficients: level-3 flag, shortest-path km, city-centre flag
ASC_LEVEL3 = 1.464
ASC_DISTANCE = -0.063
ASC_DISTANCE_STRONG = -0.63  # Distance dataset: distance penalty scaled by ten
ASC_CENTER = 0.174
ASC_INCOME = 0.443


class ErrorSimError(ValueError):
    pass


@dataclass(frozen=True)
class NestSpec:
    """Nesting structure shared by every class of one instance.

    nest_of_alternative maps every alternative id that can appear in a choice
    set to a nest index; factor_sd is the per-nest standard deviation (the
    diagonal of the factor scaling matrix).
    """

    nest_of_alternative: dict[int, int]
    factor_sd: dict[int, float]

    def __post_init__(self):
        for nest, sd in self.factor_sd.items():
            if sd <= 0:
                raise ErrorSimError(f"nest {nest}: factor sd must be > 0")
        for alt, nest in self.nest_of_alternative.items():
            if nest not in self.factor_sd:
                raise ErrorSimError(f"alternative {alt}: nest {nest} has no factor sd")


def two_nest_spec(station_ids):
    """Opt-out alone in one nest, all stations in the other."""
    nests = {OPT_OUT: 0}
    nests.update({sid: 1 for sid in station_ids})
    return NestSpec(nests, {0: 1.0, 1: 1.0})


def three_nest_spec(station_ids):
    """Opt-out, home charging, and stations in three separate nests."""
    nests = {OPT_OUT: 0, HOME: 1}
    nests.update({sid: 2 for sid in station_ids})
    return NestSpec(nests, {0: 1.0, 1: 1.0, 2: 1.0})


def gumbel_draw(rng, location, scale, size=None):
    """Gumbel sample via the inverse CDF: location - scale*ln(-ln(U))."""
    if scale <= 0:
        raise ErrorSimError("scale must be > 0")
    u = rng.random(size)
    return location - scale * np.log(-np.log(u))


def _key_entropy(seed_key):
    if isinstance(seed_key, (int, np.integer)):
        return [int(seed_key)]
    return [int(k) for k in seed_key]


def _block_rng(seed_key, class_index, t_index):
    ss = np.random.SeedSequence(_key_entropy(seed_key) + [0x5EED, class_index, t_index])
    return np.random.default_rng(ss)


def _draw_block(rng, nest_spec, nests_in_class, nest_of_pos, n_alts, n_scenarios):
    """One (class, period) block; returns the factor part and the Gumbel part."""
    xi = rng.normal(0.0, NORMAL_SCALE, size=(n_scenarios, len(nests_in_class)))
    zeta = gumbel_draw(rng, GUMBEL_LOCATION, GUMBEL_SCALE, size=(n_scenarios, n_alts))
    sds = np.array([nest_spec.factor_sd[n] for n in nests_in_class])
    factor_part = (xi * sds)[:, nest_of_pos]  # (R, n_alts)
    return factor_part, zeta


def draw_errors(skeleton, nest_spec: NestSpec, seed_key) -> list[np.ndarray]:
    """Error tensors per class, each of shape (n_alts, R_i, T).

    `skeleton` is anything with user_classes, choice_sets and horizon (an
    Instance works, as does the generator's pre-instance bundle).
    """
    out = []
    T = skeleton.horizon
    for ci, uc in enumerate(skeleton.user_classes):
        alts = skeleton.choice_sets.alternatives[ci]
        for alt in alts:
            if alt not in nest_spec.nest_of_alternative:
                raise ErrorSimError(f"alternative {alt} has no nest assignment")
        nests_in_class = sorted({nest_spec.nest_of_alternative[a] for a in alts})
        nest_pos = {n: p for p, n in enumerate(nests_in_class)}
        nest_of_pos = np.array([nest_pos[nest_spec.nest_of_alternative[a]] for a in alts])
        R = uc.scenario_count
        eps = np.empty((len(alts), R, T))
        for t in range(T):
            rng = _block_rng(seed_key, ci, t)
            fac, zeta = _draw_block(rng, nest_spec, nests_in_class, nest_of_pos, len(alts), R)
            eps[:, :, t] = (fac + zeta).T
        out.append(eps)
    return out


def compute_asc(kind, station: Station, user_class: UserClass, t, distance, *, city_center):
    """Alternative-specific constant of a station for one class and period.

    `distance` is the shortest-path km between the class home node and the
    station node; `t` is 1-based. Price adds the income term and a yearly
    price-decrease term that favours lower brackets more.
    """
    if kind not in DATASET_KINDS:
        raise ErrorSimError(f"unknown dataset kind {kind!r}")
    d1 = 1.0 if station.level3 else 0.0
    d3 = 1.0 if city_center else 0.0
    dist_coef = ASC_DISTANCE_STRONG if kind == "Distance" else ASC_DISTANCE
    asc = ASC_LEVEL3 * d1 + dist_coef * distance + ASC_CENTER * d3
    if kind == "Price":
        d4 = DELTA4_BY_BRACKET[user_class.income_bracket]
        asc += ASC_INCOME * d4 + ASC_INCOME * (t - 1) * (2.0 - d4) / 4.0
    return asc
