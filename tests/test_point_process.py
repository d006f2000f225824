import numpy as np
import pytest
from scipy import stats

from oracles import flat_variates, per_flat_frames
from pplab.configuration import Configuration
from pplab.geometry import Domain
from pplab.metrics import tv_against_poisson, tv_integer
from pplab.rng import derive_rng
from pplab.sampling import (
    flats_hitting_mass,
    sample_binomial,
    sample_poisson,
    sample_poisson_flats,
)


def test_poisson_t0_empty():
    cfg = sample_poisson(Domain("cube", 2), 0.0, derive_rng(1))
    assert cfg.total() == 0


def test_poisson_rejects_negative_t():
    with pytest.raises(ValueError):
        sample_poisson(Domain("cube", 2), -1.0, derive_rng(1))


def test_reproducibility_bit_identical():
    dom = Domain("cube", 3)
    a = sample_poisson(dom, 20.0, derive_rng(123, 7))
    b = sample_poisson(dom, 20.0, derive_rng(123, 7))
    assert a == b
    c = sample_poisson(dom, 20.0, derive_rng(123, 8))
    assert a != c


@pytest.mark.parametrize("seed, stream", [(0, ()), (42, ()), (42, (7,)), (3, (555_001, 2)), (9, (1, 2, 3))])
def test_derive_rng_matches_default_rng(seed, stream):
    # the RNG contract: a stream is default_rng of the (seed, stream) SeedSequence
    want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=stream))
    got = derive_rng(seed, *stream)
    assert np.array_equal(got.integers(0, 2**63, size=64), want.integers(0, 2**63, size=64))
    assert np.array_equal(got.normal(size=16), want.normal(size=16))
    assert got.poisson(3.5) == want.poisson(3.5)


def test_poisson_count_moments():
    dom = Domain("cube", 2)
    reps = 10_000
    counts = np.array([sample_poisson(dom, 50.0, derive_rng(5, i)).total() for i in range(reps)])
    se_mean = counts.std(ddof=1) / np.sqrt(reps)
    assert abs(counts.mean() - 50.0) < 3 * se_mean
    # variance of the sample variance of a Poisson: approx (2 lam^2 + lam) / n
    se_var = np.sqrt((2 * 50.0**2 + 50.0) / reps)
    assert abs(counts.var(ddof=1) - 50.0) < 3 * se_var


def test_disjoint_half_cube_counts_uncorrelated():
    dom = Domain("cube", 2)
    reps = 10_000
    left = np.empty(reps)
    right = np.empty(reps)
    for i in range(reps):
        pts = np.asarray(sample_poisson(dom, 20.0, derive_rng(6, i)).points())
        if len(pts) == 0:
            left[i] = right[i] = 0
            continue
        left[i] = (pts[:, 0] < 0.5).sum()
        right[i] = (pts[:, 0] >= 0.5).sum()
    corr = np.corrcoef(left, right)[0, 1]
    assert abs(corr) < 3 / np.sqrt(reps)


def test_poisson_count_law_tv():
    dom = Domain("cube", 2)
    reps = 100_000
    counts = np.array([sample_poisson(dom, 5.0, derive_rng(7, i)).total() for i in range(reps)])
    assert tv_against_poisson(counts, 5.0) < 0.02


def test_superposition_matches_single_sample():
    dom = Domain("cube", 2)
    reps = 100_000
    merged = np.empty(reps, dtype=int)
    single = np.empty(reps, dtype=int)
    for i in range(reps):
        a = sample_poisson(dom, 3.0, derive_rng(8, i))
        b = sample_poisson(dom, 4.0, derive_rng(9, i))
        merged[i] = a.merge(b).total()
        single[i] = sample_poisson(dom, 7.0, derive_rng(10, i)).total()
    tv = tv_integer(merged, single)
    assert tv < 0.02


def test_binomial_exact_count():
    dom = Domain("ball", 3)
    assert sample_binomial(dom, 0, derive_rng(2)).total() == 0
    assert sample_binomial(dom, 7, derive_rng(2)).total() == 7


def test_binomial_matches_conditioned_poisson():
    # first coordinates of a Poisson sample conditioned on N = n against a
    # binomial sample, two-sample Kolmogorov-Smirnov
    dom = Domain("cube", 2)
    n = 12
    poisson_coords = []
    binomial_coords = []
    i = 0
    draws = 0
    while len(poisson_coords) < 4000 and draws < 200_000:
        cfg = sample_poisson(dom, float(n), derive_rng(11, draws))
        draws += 1
        if cfg.total() == n:
            poisson_coords.extend(p[0] for p in cfg.points())
    while len(binomial_coords) < len(poisson_coords):
        cfg = sample_binomial(dom, n, derive_rng(12, i))
        i += 1
        binomial_coords.extend(p[0] for p in cfg.points())
    res = stats.ks_2samp(poisson_coords, binomial_coords[: len(poisson_coords)])
    assert res.pvalue > 0.01


def test_flats_t0_empty():
    flats = sample_poisson_flats(3, 1, 0.0, 1.0, derive_rng(1))
    assert flats.shape == (0, 2, 3)


@pytest.mark.parametrize("d, m", [(3, 1), (5, 2)])
@pytest.mark.parametrize("t", [0.0, 3.0, 40.0])
def test_flats_match_per_flat_oracle(d, m, t):
    for seed in (1, 7, 42, 2024):
        got = sample_poisson_flats(d, m, t, 0.8, derive_rng(seed, 5))
        n, radii, gauss = flat_variates(d, m, t, 0.8, derive_rng(seed, 5))
        want = per_flat_frames(d, m, radii, gauss)
        assert got.shape == want.shape == (n, m + 1, d)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("d, m", [(3, 1), (5, 2)])
def test_flats_law(d, m):
    # about 20 000 flats: orthonormal directions with the base point in their
    # complement; the span Haar (|P e|^2 ~ Beta(m/2, (d-m)/2) for a fixed unit
    # e); |base| / R ~ U^(1/(d-m)); and the base direction uniform on the
    # complement's sphere, so its squared cosine with the unit complement
    # part of e is Beta(1/2, (d-m-1)/2)
    radius = 0.8
    frames = sample_poisson_flats(d, m, 10_000.0, radius, derive_rng(77, d))
    base, dirs = frames[:, 0], frames[:, 1:]
    assert len(frames) > 15_000
    np.testing.assert_allclose(dirs @ dirs.swapaxes(1, 2), np.broadcast_to(np.eye(m), (len(frames), m, m)),
                               atol=1e-12)
    assert np.abs(np.einsum("nd,nkd->nk", base, dirs)).max() < 1e-12
    scaled = np.linalg.norm(base, axis=1) / radius
    assert stats.kstest(scaled ** (d - m), "uniform").pvalue > 1e-3
    assert stats.kstest(scaled, "uniform").pvalue < 1e-6  # the test sees a wrong radius law
    rng = derive_rng(78)
    for e in (np.eye(d)[0], rng.standard_normal(d)):
        e = e / np.linalg.norm(e)
        proj2 = (np.einsum("nkd,d->nk", dirs, e) ** 2).sum(axis=1)
        assert stats.kstest(proj2, stats.beta(m / 2, (d - m) / 2).cdf).pvalue > 1e-3
        cos2 = (base @ e) ** 2 / (scaled * radius) ** 2 / (1.0 - proj2)
        assert stats.kstest(cos2, stats.beta(0.5, (d - m - 1) / 2).cdf).pvalue > 1e-3


def test_flats_rejects_bad_m():
    with pytest.raises(ValueError):
        sample_poisson_flats(4, 2, 1.0, 1.0, derive_rng(1))


def test_flats_count_and_hitting():
    reps = 2000
    t = 10.0
    counts = np.empty(reps)
    for i in range(reps):
        flats = sample_poisson_flats(3, 1, t, 1.0, derive_rng(13, i))
        counts[i] = len(flats)
        for base, direction in flats[:3]:
            # base lies in the orthocomplement, so it realizes the distance
            assert abs(base @ direction) < 1e-10
            assert np.linalg.norm(base) <= 1.0 + 1e-12
    expect = flats_hitting_mass(3, 1, t, 1.0)
    assert expect == pytest.approx(np.pi * t)
    se = counts.std(ddof=1) / np.sqrt(reps)
    assert abs(counts.mean() - expect) < 3 * se


def test_configuration_merges_identical_atoms():
    cfg = Configuration()
    cfg.add(np.array([0.5, 0.5]))
    cfg.add((0.5, 0.5))
    assert cfg.total() == 2
    assert len(cfg.atoms) == 1


def test_seeded_rng_streams():
    a = derive_rng(99, 3)
    b = derive_rng(99, 3)
    assert a.uniform(size=5).tolist() == b.uniform(size=5).tolist()
    c = derive_rng(99, 4)
    assert a.uniform(size=5).tolist() != c.uniform(size=5).tolist()
    with pytest.raises(ValueError):
        derive_rng(-1)


def test_configuration_rejects_bad_multiplicity():
    cfg = Configuration()
    with pytest.raises(ValueError):
        cfg.add(0.0, mult=0)
    assert cfg.total() == 0
