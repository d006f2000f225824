from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from oracles import (
    distance_kernel,
    distance_power_kernel,
    edge_midpoint_process,
    identity_kernel,
    midpoint_kernel,
    u_statistic_count,
    u_statistic_sum,
)
from pplab.configuration import Configuration
from pplab.rng import BLOCK, derive_rng
from pplab.transform import (
    SymmetricKernel,
    _pair_distances_within,
    _pairs_within,
    antipodal_pairs,
    induce,
    max_pair_distance,
    pair_count_within,
    pair_midpoints,
    pair_sum_inverse_power,
    pair_sum_power,
)


def _random_config(rng, n, d=2):
    return Configuration.from_array(rng.uniform(size=(n, d)), space="test")


def test_induce_identity_is_input():
    cfg = _random_config(derive_rng(1), 9)
    out = induce(cfg, identity_kernel(target_space="test"))
    assert out == cfg


def test_induce_collinear_distances():
    cfg = Configuration.from_array(np.array([[0.0], [1.0], [2.0]]), space="line")
    out = induce(cfg, distance_kernel())
    assert out.atoms == {1.0: 2, 2.0: 1}


def test_induce_mass_equals_ordered_loop():
    rng = derive_rng(2)
    cfg = _random_config(rng, 10)
    pts = np.asarray(cfg.points())
    out = induce(cfg, distance_kernel(cutoff=0.4))
    ordered = 0
    for i in range(10):
        for j in range(10):
            if i != j and np.linalg.norm(pts[i] - pts[j]) <= 0.4:
                ordered += 1
    assert out.total() == ordered // 2


def test_induce_empty_when_k_exceeds_count():
    cfg = _random_config(derive_rng(3), 1)
    assert induce(cfg, distance_kernel()).total() == 0


def test_induce_respects_multiplicity():
    cfg = Configuration({(0.0, 0.0): 2, (1.0, 0.0): 1}, space="t")
    out = induce(cfg, distance_kernel())
    # three points, three pairs: two at distance 1, one at distance 0
    assert out.atoms == {0.0: 1, 1.0: 2}


def test_induce_permutation_invariant():
    rng = derive_rng(4)
    pts = rng.uniform(size=(8, 2))
    a = induce(Configuration.from_array(pts, space="t"), midpoint_kernel(0.5))
    b = induce(Configuration.from_array(pts[::-1], space="t"), midpoint_kernel(0.5))
    assert a == b


def test_kernel_arity_guard():
    with pytest.raises(ValueError):
        SymmetricKernel(k=5, fn=lambda pts: 0.0)


def test_u_statistic_count_examples():
    rng = derive_rng(5)
    cfg = _random_config(rng, 12)
    kern = distance_kernel(cutoff=0.3)
    assert u_statistic_count(cfg, kern) == induce(cfg, kern).total()
    assert u_statistic_count(Configuration(space="test"), kern) == 0
    pts = np.asarray(cfg.points())
    brute = sum(
        1
        for i, j in combinations(range(12), 2)
        if np.linalg.norm(pts[i] - pts[j]) <= 0.3
    )
    assert u_statistic_count(cfg, kern) == brute
    # interval restriction on the distance values
    in_band = u_statistic_count(cfg, distance_kernel(), target_set=(0.1, 0.3))
    brute_band = sum(
        1
        for i, j in combinations(range(12), 2)
        if 0.1 <= np.linalg.norm(pts[i] - pts[j]) <= 0.3
    )
    assert in_band == brute_band


def test_u_statistic_sum_examples():
    rng = derive_rng(6)
    cfg = _random_config(rng, 9)
    ones = SymmetricKernel(k=2, fn=lambda pts: 1.0)
    assert u_statistic_sum(cfg, ones) == comb(9, 2)
    pts = np.asarray(cfg.points())
    val = u_statistic_sum(cfg, distance_power_kernel(1.5))
    brute = sum(
        np.linalg.norm(pts[i] - pts[j]) ** -1.5 for i, j in combinations(range(9), 2)
    )
    assert val == pytest.approx(brute, rel=1e-12)


def test_edge_midpoints():
    cfg = Configuration.from_array(np.array([[0.0, 0.0], [0.4, 0.0], [3.0, 3.0]]), space="t")
    out = edge_midpoint_process(cfg, 0.5)
    assert out.atoms == {(0.2, 0.0): 1}
    assert edge_midpoint_process(cfg, 0.0).total() == 0


def test_midpoint_count_matches_pair_oracle():
    rng = derive_rng(7)
    pts = rng.uniform(size=(25, 2))
    cfg = Configuration.from_array(pts, space="t")
    out = edge_midpoint_process(cfg, 0.3)
    brute = sum(
        1 for i, j in combinations(range(25), 2) if np.linalg.norm(pts[i] - pts[j]) <= 0.3
    )
    assert out.total() == brute


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 40), st.floats(0.01, 0.7), st.integers(0, 10_000))
def test_fast_pair_paths_match_induce(n, cutoff, seed):
    rng = derive_rng(seed)
    pts = rng.uniform(size=(n, 2))
    cfg = Configuration.from_array(pts, space="t")
    assert pair_count_within(pts, cutoff) == u_statistic_count(cfg, distance_kernel(cutoff))
    mids = pair_midpoints(pts, [len(pts)], cutoff)[0]
    assert len(mids) == pair_count_within(pts, cutoff)
    s_direct = pair_sum_power(pts, 1.0, cutoff)
    s_ref = u_statistic_sum(cfg, distance_kernel(cutoff))
    assert s_direct == pytest.approx(s_ref, rel=1e-9, abs=1e-12)


def test_inverse_power_and_diameter_paths():
    rng = derive_rng(9)
    pts = rng.uniform(size=(30, 2))
    cfg = Configuration.from_array(pts, space="t")
    assert pair_sum_inverse_power(pts, 4.0) == pytest.approx(
        u_statistic_sum(cfg, distance_power_kernel(4.0)), rel=1e-12
    )
    brute = max(
        np.linalg.norm(pts[i] - pts[j]) for i, j in combinations(range(30), 2)
    )
    assert max_pair_distance(pts) == pytest.approx(brute, rel=1e-14)
    assert max_pair_distance(pts[:1]) == 0.0


def _dense_pairs(pts, cutoff):
    """Dense upper-triangle reference: pairs i < j within the cutoff, row-major."""
    iu, ju = np.triu_indices(len(pts), k=1)
    dist = np.linalg.norm(pts[iu] - pts[ju], axis=1)
    keep = dist <= cutoff
    return iu[keep], ju[keep], dist[keep]


def test_tree_path_equals_dense_path():
    rng = derive_rng(10)
    for d in (1, 2, 3):
        for n in (0, 1, 2, 25, 200, 256, 257, 400):
            pts = rng.uniform(size=(n, d))
            for cutoff in (0.02, 0.2):
                iu, ju, dist = _dense_pairs(pts, cutoff)
                assert pair_count_within(pts, cutoff) == len(dist)
                assert np.array_equal(_pair_distances_within(pts, cutoff), dist)
                for b in (1.0, 0.5):
                    assert pair_sum_power(pts, b, cutoff) == (
                        float(np.sum(dist**b)) if len(dist) else 0.0
                    )
                mids = pair_midpoints(pts, [len(pts)], cutoff)[0]
                assert mids.shape == (len(dist), d)
                assert np.array_equal(mids, (pts[iu] + pts[ju]) / 2.0)
            _, _, every = _dense_pairs(pts, np.inf)
            every = every[every > 0]
            assert pair_sum_inverse_power(pts, 4.0) == float(np.sum(every**-4.0))


def test_cutoff_ties_decided_like_dense_path():
    # A lattice puts many pairs at the cutoff up to rounding; a bare kd-tree
    # query at the cutoff keeps 1122 of the 1298 pairs the dense test keeps.
    g = np.arange(20) * 0.1
    pts = np.array([(a, b) for a in g for b in g])
    cutoff = 0.1 * np.sqrt(2)
    iu, ju, dist = _dense_pairs(pts, cutoff)
    assert len(dist) == 1298
    assert pair_count_within(pts, cutoff) == len(dist)
    assert np.array_equal(pair_midpoints(pts, [len(pts)], cutoff)[0], (pts[iu] + pts[ju]) / 2.0)


def test_negative_cutoff_admits_no_pair():
    pts = derive_rng(11).uniform(size=(300, 2))
    for n in (2, 25, 300):
        assert pair_count_within(pts[:n], -1.0) == 0
        assert pair_sum_power(pts[:n], 1.0, -1.0) == 0.0
        assert pair_midpoints(pts[:n], [n], -1.0)[0].shape == (0, 2)


def test_zero_cutoff_counts_coincident_points():
    pts = np.array([[0.1, 0.2], [0.5, 0.5], [0.1, 0.2], [0.1, 0.2]])
    assert pair_count_within(pts, 0.0) == 3
    assert pair_sum_power(pts, 0.0, 0.0) == 3.0
    assert np.array_equal(pair_midpoints(pts, [len(pts)], 0.0)[0], np.tile([0.1, 0.2], (3, 1)))
    # the no-cutoff kernel skips the coincident pairs instead
    far = np.linalg.norm(pts[1] - pts[0])
    assert pair_sum_inverse_power(pts, 2.0) == 3 * far**-2.0


def _ragged_dense_pairs(pts, counts, cutoff):
    """Dense reference for a ragged batch: each replication's dense pairs,
    offset to its slice, in replication order (which is row-major)."""
    reps, iu, ju, dist = ([np.empty(0, dtype=int)] for _ in range(4))
    start = 0
    for r, c in enumerate(counts):
        i, j, dd = _dense_pairs(pts[start : start + c], cutoff)
        reps.append(np.full(len(dd), r))
        iu.append(i + start)
        ju.append(j + start)
        dist.append(dd)
        start += c
    return tuple(np.concatenate(a) for a in (reps, iu, ju, dist))


def _assert_ragged_matches_dense(pts, counts, cutoff):
    got = _pairs_within(pts, counts, cutoff)
    want = _ragged_dense_pairs(pts, counts, cutoff)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    return len(want[3])


def test_ragged_pairs_equal_dense_per_replication():
    rng = derive_rng(12)
    for d in (1, 2, 3):
        # empty and one-point replications between fuller ones
        counts = np.array([0, 1, 30, 0, 0, 2, 1, 45, 0, 17, 1])
        pts = rng.uniform(size=(counts.sum(), d))
        for cutoff in (0.0, 0.05, 0.3):
            _assert_ragged_matches_dense(pts, counts, cutoff)
        # a cutoff of at least sqrt(d) admits every pair of a replication
        pairs = sum(c * (c - 1) // 2 for c in counts)
        assert _assert_ragged_matches_dense(pts, counts, np.sqrt(d)) == pairs
        assert _assert_ragged_matches_dense(pts, counts, np.inf) == pairs
        assert _assert_ragged_matches_dense(pts, counts, -1.0) == 0
    for counts in ([], [0], [1], [0, 0, 1]):
        pts = rng.uniform(size=(sum(counts), 2))
        assert _assert_ragged_matches_dense(pts, counts, 0.5) == 0


def test_ragged_pairs_zero_cutoff_and_ties():
    # coincident points in two replications, never paired across them
    pts = np.array([[0.1, 0.2], [0.1, 0.2], [0.5, 0.5], [0.1, 0.2], [0.1, 0.2], [0.1, 0.2]])
    assert _assert_ragged_matches_dense(pts, [3, 3], 0.0) == 1 + 3
    # the lattice of test_cutoff_ties_decided_like_dense_path, three times over
    g = np.arange(20) * 0.1
    lattice = np.array([(a, b) for a in g for b in g])
    assert _assert_ragged_matches_dense(np.tile(lattice, (3, 1)), [400] * 3, 0.1 * np.sqrt(2)) == 3 * 1298


def test_ragged_pairs_full_block_pair_at_cutoff_in_last_replication():
    # the last replication of a full block has the largest keys, where their
    # rounding is widest; a pair there at exactly the cutoff (a small one,
    # below the key ulp times 1e9) must still be found
    rng = derive_rng(13)
    counts = rng.poisson(3, BLOCK)
    counts[-1] = 2
    pts = rng.uniform(size=(counts.sum(), 2))
    for x in (0.123456789, 0.5, 0.987654321):
        pts[-2:] = [[x, 0.3], [x + 1e-4, 0.3]]
        cutoff = float(np.linalg.norm(pts[-2] - pts[-1]))
        rep, i, j, dist = _pairs_within(pts, counts, cutoff)
        assert (rep[-1], i[-1], j[-1], dist[-1]) == (BLOCK - 1, len(pts) - 2, len(pts) - 1, cutoff)
        _assert_ragged_matches_dense(pts, counts, cutoff)


def _assert_ragged_midpoints_match_dense(pts, counts, cutoff):
    """``pair_midpoints`` of a ragged batch against each configuration's
    dense upper-triangle midpoints, bit for bit, and its counts against
    ``pair_count_within`` of each configuration."""
    mids, mid_counts = pair_midpoints(pts, counts, cutoff)
    want, want_counts = [np.empty((0, pts.shape[1]))], []
    start = 0
    for c in counts:
        conf = pts[start : start + c]
        iu, ju, _ = _dense_pairs(conf, cutoff)
        want.append((conf[iu] + conf[ju]) / 2.0)
        want_counts.append(pair_count_within(conf, cutoff))
        start += c
    want = np.concatenate(want)
    assert mids.shape == want.shape
    assert mids.tobytes() == want.tobytes()
    assert mid_counts.tolist() == want_counts
    return len(mids)


def test_ragged_midpoints_equal_dense_per_configuration():
    rng = derive_rng(15)
    for d in (1, 2):
        # empty and one-point configurations between fuller ones
        counts = np.array([0, 1, 30, 0, 0, 2, 1, 45, 0, 17, 1])
        pts = rng.uniform(size=(counts.sum(), d))
        for cutoff in (0.0, 0.05, 0.3, np.inf):
            _assert_ragged_midpoints_match_dense(pts, counts, cutoff)
        pairs = sum(c * (c - 1) // 2 for c in counts)
        assert _assert_ragged_midpoints_match_dense(pts, counts, np.sqrt(d)) == pairs
        assert _assert_ragged_midpoints_match_dense(pts, counts, -1.0) == 0
    for counts in ([], [0], [1], [0, 0, 1]):
        pts = rng.uniform(size=(sum(counts), 2))
        assert _assert_ragged_midpoints_match_dense(pts, counts, 0.5) == 0


def test_ragged_midpoints_zero_cutoff_and_ties():
    # coincident points in two configurations, never paired across them
    pts = np.array([[0.1, 0.2], [0.1, 0.2], [0.5, 0.5], [0.1, 0.2], [0.1, 0.2], [0.1, 0.2]])
    assert _assert_ragged_midpoints_match_dense(pts, [3, 3], 0.0) == 1 + 3
    # the lattice of test_cutoff_ties_decided_like_dense_path, three times over
    g = np.arange(20) * 0.1
    lattice = np.array([(a, b) for a in g for b in g])
    tiled = np.tile(lattice, (3, 1))
    assert _assert_ragged_midpoints_match_dense(tiled, [400] * 3, 0.1 * np.sqrt(2)) == 3 * 1298
    # on a line, each of the 19 neighbour gaps is 0.1 up to rounding, and the
    # dense test keeps only some of them
    line = np.tile(g, 2)[:, None]
    assert 0 < _assert_ragged_midpoints_match_dense(line, [20, 20], 0.1) < 2 * 19


def test_antipodal_pairs_match_brute_force():
    rng = derive_rng(14)
    counts = np.array([0, 1, 2, 60, 0, 45, 30])
    g = rng.standard_normal((counts.sum(), 3))
    pts = g / np.linalg.norm(g, axis=1, keepdims=True)
    pts[3] = -pts[4]  # an exact antipodal pair
    pts[5] = [0.01, 0.6, np.sqrt(1.0 - 0.01**2 - 0.6**2)]
    pts[6] = pts[5] * [1.0, -1.0, -1.0]  # equal first coordinates: found both ways, kept once
    for radius in (0.05, 0.3, 1.0):
        want_rep, want_dist = [], []
        start = 0
        for r, c in enumerate(counts):
            p = pts[start : start + c]
            iu, ju = np.triu_indices(c, k=1)
            near = np.linalg.norm(p[iu] + p[ju], axis=1) <= radius
            want_rep += [r] * int(near.sum())
            want_dist += list(pdist(p)[near]) if c > 1 else []
            start += c
        rep, dist = antipodal_pairs(pts, counts, radius)
        order = np.lexsort((dist, rep))
        want = np.lexsort((want_dist, want_rep))
        assert np.array_equal(rep[order], np.array(want_rep)[want])
        assert np.array_equal(dist[order], np.array(want_dist)[want])
        assert len(want_rep) > 0
