from math import perm

import numpy as np
import pytest

from oracles import mecke_config_sum, mecke_config_sum_loop, mecke_tuple_value
from pplab import sampling
from pplab.geometry import Domain
from pplab.rng import derive_rng
from pplab.sampling import (
    ConstantG,
    NeighborCountG,
    PairProximityG,
    SingletonNeighborG,
    _mecke_block,
    mecke_check,
)

DOM = Domain("cube", 2)


def test_k1_constant_poisson():
    lhs, rhs, pooled = mecke_check(DOM, 10.0, ConstantG(1), 4000, 21)
    assert rhs == pytest.approx(10.0, abs=1e-12)  # right side has no noise here
    assert abs(lhs - rhs) < 3 * pooled


def test_k2_constant_poisson_factorial_moment():
    lhs, rhs, pooled = mecke_check(DOM, 10.0, ConstantG(2), 6000, 22)
    assert rhs == pytest.approx(100.0, abs=1e-12)
    assert abs(lhs - rhs) < 3 * pooled


def test_k1_constant_binomial_exact():
    lhs, rhs, pooled = mecke_check(DOM, 10.0, ConstantG(1), 200, 23, n=17)
    assert lhs == pytest.approx(17.0)
    assert rhs == pytest.approx(17.0)


def test_k2_proximity_poisson():
    lhs, rhs, pooled = mecke_check(DOM, 50.0, PairProximityG(0.1), 4000, 24)
    assert pooled > 0
    assert abs(lhs - rhs) < 3 * pooled


def test_k2_proximity_binomial():
    lhs, rhs, pooled = mecke_check(DOM, 50.0, PairProximityG(0.1), 4000, 25, n=50)
    assert abs(lhs - rhs) < 3 * pooled


def test_config_dependent_functions():
    for k, g in ((1, SingletonNeighborG(0.15)), (2, NeighborCountG(0.15))):
        lhs, rhs, pooled = mecke_check(DOM, 20.0, g, 4000, 26 + k)
        assert abs(lhs - rhs) < 3 * pooled, (k, lhs, rhs, pooled)


def test_vectorized_sums_match_generic_loop():
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(14, 2))
    for g in (ConstantG(2), PairProximityG(0.3), NeighborCountG(0.3), SingletonNeighborG(0.3)):
        fast = mecke_config_sum(g, pts)
        slow = mecke_config_sum_loop(g, pts)
        assert fast == pytest.approx(slow, abs=1e-9), type(g).__name__


ALL_G = [ConstantG(1), ConstantG(2), SingletonNeighborG(0.15), PairProximityG(0.15), NeighborCountG(0.15),
         SingletonNeighborG(0.3, cap=3), NeighborCountG(0.3, cap=3)]


@pytest.mark.parametrize("g", ALL_G, ids=lambda g: f"{type(g).__name__}-k{g.k}")
def test_block_methods_match_oracle_on_ragged_batches(g):
    # empty, one-point and crowded replications in one batch, against the
    # one-replication oracles on each replication's slice
    rng = derive_rng(31)
    counts = np.array([0, 1, 2, 30, 0, 5, 60, 1])
    points = rng.uniform(size=(counts.sum(), 2))
    y = rng.uniform(size=(len(counts), g.k, 2))
    slices = np.split(points, np.cumsum(counts)[:-1])
    np.testing.assert_allclose(g.block_sums(points, counts), [mecke_config_sum(g, p) for p in slices],
                               rtol=1e-12, atol=1e-12)
    want = [mecke_tuple_value(g, yr, np.vstack([p, yr])) for yr, p in zip(y, slices)]
    np.testing.assert_allclose(g.block_values(y, points, counts), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("source", [None, 20], ids=["poisson", "binomial"])
@pytest.mark.parametrize("g", ALL_G[:5], ids=lambda g: f"{type(g).__name__}-k{g.k}")
def test_block_sides_match_oracle_on_the_same_points(monkeypatch, g, source):
    # redraw the block's variates whole, in its order (left counts and
    # points, ambient counts, tuples, ambient points), and evaluate both
    # sides one replication at a time; source None is a Poisson(t) sample
    t, size, k = 20.0, 300, g.k
    weight = (t * DOM.mass) ** k if source is None else float(perm(source, k))
    got = _mecke_block(DOM, t, g, source, weight, derive_rng(32, 1), size)
    rng = derive_rng(32, 1)
    counts = rng.poisson(t, size) if source is None else np.full(size, source)
    points = DOM.sample(rng, counts.sum())
    ambient_counts = rng.poisson(t, size) if source is None else np.full(size, source - k)
    y = DOM.sample(rng, size * k).reshape(size, k, 2)
    ambient = DOM.sample(rng, ambient_counts.sum())
    slices = np.split(points, np.cumsum(counts)[:-1])
    ambients = np.split(ambient, np.cumsum(ambient_counts)[:-1])
    assert got.shape == (size, 2)
    np.testing.assert_allclose(got[:, 0], [mecke_config_sum(g, p) for p in slices], rtol=1e-12, atol=1e-12)
    want = [weight * mecke_tuple_value(g, yr, np.vstack([a, yr])) for yr, a in zip(y, ambients)]
    np.testing.assert_allclose(got[:, 1], want, rtol=1e-12, atol=1e-12)
    assert np.count_nonzero(got[:, 1]) > 0
    # and the loop over tuples agrees on a few replications
    for p in slices[:5]:
        assert mecke_config_sum_loop(g, p) == pytest.approx(mecke_config_sum(g, p), abs=1e-9)
    # the block above ran in one run of points; runs of about 50 points
    # change no number
    monkeypatch.setattr(sampling, "_RUN_POINTS", 50)
    assert np.array_equal(_mecke_block(DOM, t, g, source, weight, derive_rng(32, 1), size), got)


def test_rejects_bad_arity():
    with pytest.raises(ValueError):
        mecke_check(DOM, 5.0, ConstantG(3), 10, 0)


class _ScaledSingletonNeighborG(SingletonNeighborG):
    """A broken test function: every right-side value is at least 20 / cap = 2."""

    def block_values(self, y, points, counts):
        return 20 * super().block_values(y, points, counts)


def test_right_side_outside_the_declared_bound_raises():
    with pytest.raises(ValueError, match="left its declared bound"):
        mecke_check(DOM, 5.0, _ScaledSingletonNeighborG(0.15), 10, 0)
