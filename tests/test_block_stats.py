"""The per-block statistics of the pair scenarios against the per-replication
kernels on each replication's slice of the same draws, and a negative
control for the antipode decision of the polytope scenario."""

import numpy as np
from scipy.spatial.distance import pdist

from pplab import bounds as bnd
from pplab import scenarios, transform
from pplab.geometry import Domain
from pplab.rng import derive_rng, replicate_blocks


def _block(domain, t, stat, stat_args, seed, size):
    """The block statistic and the per-replication slices of the same draws,
    the latter drawn whole: the counts, then every point at once."""
    got = scenarios._block_stat(domain, t, stat, stat_args, derive_rng(seed, 0), size)
    rng = derive_rng(seed, 0)
    counts = rng.poisson(t, size)
    pts = domain.sample(rng, counts.sum())
    ends = np.cumsum(counts)
    return got, [pts[e - c : e] for c, e in zip(counts, ends)]


def test_block_edge_counts_equal_per_replication_kernel():
    for t, size in ((50.0, 500), (400.0, 300)):
        theta = 1.0 / t
        got, slices = _block(Domain("cube", 2), t, transform.pair_counts_within, (theta,), 1, size)
        assert np.array_equal(got, [transform.pair_count_within(p, theta) for p in slices])
        assert got.sum() > 0


def test_block_length_sums_equal_per_replication_kernel():
    # the block sums run in pair order and np.sum pairwise, hence the 1e-12
    for t, size, b in ((50.0, 500, 1.0), (400.0, 300, 1.0), (200.0, 300, 0.5), (100.0, 200, 0.0)):
        theta = 1.0 / t
        got, slices = _block(Domain("cube", 2), t, transform.pair_sums_power, (b, theta), 2, size)
        want = [transform.pair_sum_power(p, b, theta) for p in slices]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.count_nonzero(got) > size // 2


def test_block_inverse_power_sums_equal_per_replication_kernel():
    got, slices = _block(Domain("cube", 2), 50.0, transform.pair_sums_inverse_power, (4.0,), 3, 200)
    assert np.array_equal(got, [transform.pair_sum_inverse_power(p, 4.0) for p in slices])


def test_block_polytope_decisions_equal_diameter_formula():
    d, a = 3, 1.0
    for t, size in ((100.0, 1000), (400.0, 300)):
        scale = t ** (4.0 / (d - 1))
        got, slices = _block(Domain("sphere", d), t, scenarios._reversed_diameter_exceeds, (scale, a), 4, size)
        want = [len(p) < 2 or scale * (2.0 - pdist(p).max()) > a for p in slices]
        assert np.array_equal(got, want)
        assert 0 < got.sum() < size


def _planted(d_target):
    """Two points on the unit sphere in R^3 at distance about d_target."""
    cos = d_target**2 / 2.0 - 1.0
    return np.array([[1.0, 0.0, 0.0], [-cos, np.sqrt(1.0 - cos * cos), 0.0]])


def test_polytope_decision_planted_pair_either_side_of_threshold():
    t, a = 400.0, 1.0
    scale = t**2
    threshold = 2.0 - a / scale  # a pair at least this far apart fails the replication
    rng = derive_rng(5)
    others = rng.standard_normal((5, 3))
    others /= np.linalg.norm(others, axis=1, keepdims=True)
    reps = [
        np.concatenate([_planted(threshold - 1e-9), others]),
        np.concatenate([_planted(threshold + 1e-9), others]),
        others,
        _planted(threshold + 1e-9)[:1],  # one point: True
        np.concatenate([others[:2], _planted(threshold + 1e-12)]),
    ]
    got = scenarios._reversed_diameter_exceeds(np.concatenate(reps), [len(p) for p in reps], scale, a)
    want = [len(p) < 2 or scale * (2.0 - pdist(p).max()) > a for p in reps]
    assert want == [True, False, True, True, False]
    assert got.tolist() == want


def test_polytope_decision_at_the_exact_threshold():
    # a = scale * (2 - diameter) exactly fails the replication, and the next
    # float below passes it; the antipode search must reach a pair right at
    # its radius for the first, and the decision must be <= a
    rng = derive_rng(8)
    for scale in (100.0**2, 400.0**2):
        for _ in range(100):
            g = rng.standard_normal((6, 3))
            pts = g / np.linalg.norm(g, axis=1, keepdims=True)
            a = scale * (2.0 - pdist(pts).max())
            assert not scenarios._reversed_diameter_exceeds(pts, [6], scale, a)[0]
            assert scenarios._reversed_diameter_exceeds(pts, [6], scale, np.nextafter(a, 0.0))[0]


def test_polytope_decision_rejects_half_intensity():
    # Negative control: points at half the intensity (with the scale of the
    # full one) have a quarter of the expected close pairs, so the no-pair
    # probability is e^(-1/8) ~ 0.883 against the limit tail e^(-1/2) ~ 0.607.
    d, t, a, reps = 3, 400.0, 1.0, 1000
    scale = t ** (4.0 / (d - 1))
    _, _, tail = bnd.polytope_law(d, t, a)

    def p_emp(intensity):
        args = (Domain("sphere", d), intensity, scenarios._reversed_diameter_exceeds, (scale, a))
        return float(replicate_blocks(scenarios._block_stat, args, reps, 6).mean())

    gap_threshold = 0.02
    assert abs(p_emp(t) - tail) < 3 * gap_threshold
    assert abs(p_emp(t / 2) - tail) > 10 * gap_threshold
