import math

import numpy as np
import pytest

from evcover.errors import (ErrorSimError, NestSpec, compute_asc, draw_errors,
                            gumbel_draw, three_nest_spec, two_nest_spec)
from evcover.instance import HOME, OPT_OUT, Station, UserClass
from evcover.datasets import _Skeleton
from evcover.instance import ChoiceSets

EULER_GAMMA = 0.5772156649015329


class _FixedU:
    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


def test_gumbel_inverse_cdf_fixed_point():
    # U = 1/e makes -ln(-ln U) vanish, so the draw equals the location
    assert gumbel_draw(_FixedU(1 / math.e), 2.5, 3.0) == pytest.approx(2.5)


def test_gumbel_moments_monte_carlo():
    rng = np.random.default_rng(123)
    draws = gumbel_draw(rng, 0.0, 3.0, size=100_000)
    assert draws.mean() == pytest.approx(3 * EULER_GAMMA, abs=0.05)
    assert draws.var() == pytest.approx(math.pi**2 * 9 / 6, abs=0.5)


def test_gumbel_rejects_nonpositive_scale():
    with pytest.raises(ErrorSimError):
        gumbel_draw(np.random.default_rng(0), 0.0, 0.0)


def _skeleton(n_stations=2, R=10, T=1, home=False):
    sids = list(range(1, n_stations + 1))
    exo = [OPT_OUT, HOME] if home else [OPT_OUT]
    uc = UserClass(id="c", home_node="n0", populations=(1.0,) * T,
                   has_home_charging=home, scenario_count=R, consideration_radius=None)
    cs = ChoiceSets([[list(exo)] * T], [[sids] * T])
    return _Skeleton((uc,), cs, T), sids


def test_same_nest_correlation_matches_component_variances():
    skeleton, sids = _skeleton(n_stations=2, R=100_000)
    eps = draw_errors(skeleton, two_nest_spec(sids), 42)[0]
    a, b = eps[1, :, 0], eps[2, :, 0]
    corr = np.corrcoef(a, b)[0, 1]
    want = 1.0 / (1.0 + 1.5 * math.pi**2)
    assert corr == pytest.approx(want, abs=0.02)


def test_cross_nest_errors_uncorrelated():
    skeleton, sids = _skeleton(n_stations=1, R=100_000)
    eps = draw_errors(skeleton, two_nest_spec(sids), 7)[0]
    corr = np.corrcoef(eps[0, :, 0], eps[1, :, 0])[0, 1]
    assert abs(corr) < 0.02


def test_fixed_seed_is_deterministic():
    skeleton, sids = _skeleton(n_stations=2, R=20, T=3)
    spec = two_nest_spec(sids)
    a = draw_errors(skeleton, spec, (5, 0))
    b = draw_errors(skeleton, spec, (5, 0))
    np.testing.assert_array_equal(a[0], b[0])
    c = draw_errors(skeleton, spec, (5, 1))
    assert not np.array_equal(a[0], c[0])


def test_blocks_are_order_independent():
    # regenerating a single (class, period) block in isolation reproduces it
    skeleton, sids = _skeleton(n_stations=2, R=15, T=3)
    spec = two_nest_spec(sids)
    full = draw_errors(skeleton, spec, 9)[0]
    one_period, _ = _skeleton(n_stations=2, R=15, T=1)
    # period indices are part of the key, so T=1 reproduces only block t=0
    single = draw_errors(one_period, spec, 9)[0]
    np.testing.assert_array_equal(full[:, :, 0], single[:, :, 0])


def test_missing_nest_assignment_raises():
    skeleton, sids = _skeleton(n_stations=2)
    with pytest.raises(ErrorSimError, match="nest"):
        draw_errors(skeleton, NestSpec({OPT_OUT: 0, 1: 1}, {0: 1.0, 1: 1.0}), 0)


def test_three_nest_spec_covers_home():
    spec = three_nest_spec([1, 2])
    assert spec.nest_of_alternative[HOME] == 1
    assert spec.nest_of_alternative[OPT_OUT] == 0
    assert spec.nest_of_alternative[1] == spec.nest_of_alternative[2] == 2


def _station(level3=True):
    return Station(id=1, node_id="n1", max_outlets=6, level3=level3)


def _user(bracket=2):
    return UserClass(id="c", home_node="n0", populations=(1.0,), income_bracket=bracket)


def test_asc_simple_level3_zero_distance():
    asc = compute_asc("Simple", _station(), _user(), 1, 0.0, city_center=False)
    assert asc == pytest.approx(1.464)


def test_asc_distance_kind_penalises_ten_km():
    asc = compute_asc("Distance", _station(), _user(), 1, 10.0, city_center=True)
    assert asc == pytest.approx(1.464 - 6.3 + 0.174)


def test_asc_price_lowest_bracket_first_year():
    base = compute_asc("Simple", _station(), _user(0), 1, 2.0, city_center=False)
    priced = compute_asc("Price", _station(), _user(0), 1, 2.0, city_center=False)
    assert priced == pytest.approx(base + 0.443 * (-2))


def test_asc_price_year_term_favours_low_brackets():
    low_t1 = compute_asc("Price", _station(), _user(0), 1, 0.0, city_center=False)
    low_t3 = compute_asc("Price", _station(), _user(0), 3, 0.0, city_center=False)
    high_t1 = compute_asc("Price", _station(), _user(4), 1, 0.0, city_center=False)
    high_t3 = compute_asc("Price", _station(), _user(4), 3, 0.0, city_center=False)
    assert low_t3 - low_t1 == pytest.approx(0.443 * 2 * (2 - (-2)) / 4)
    assert high_t3 - high_t1 == pytest.approx(0.0)  # (2 - 2) / 4 vanishes


def test_asc_unknown_kind():
    with pytest.raises(ErrorSimError, match="kind"):
        compute_asc("Bogus", _station(), _user(), 1, 0.0, city_center=False)
