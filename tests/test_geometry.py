import numpy as np
import pytest

from oracles import AffineFlat, flat_distance_midpoint
from pplab.configuration import Configuration
from pplab.geometry import (
    Domain,
    cube_shell_constant,
    haar_frame,
    integrated_subspace_determinant,
    steiner_volume,
    subspace_determinant,
    unit_ball_volume,
)


def test_unit_ball_volume_small_dims():
    assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-14)
    assert unit_ball_volume(2) == pytest.approx(np.pi, abs=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4 * np.pi / 3, abs=1e-14)
    # evaluated from the Gamma formula with mpmath as a high-precision oracle
    assert unit_ball_volume(6) == pytest.approx(5.16771278004997, abs=1e-12)


def test_unit_ball_volume_recursion():
    for d in range(3, 60):
        kd = unit_ball_volume(d)
        assert kd == pytest.approx(2 * np.pi / d * unit_ball_volume(d - 2), rel=1e-12)


def test_unit_ball_volume_rejects_zero():
    with pytest.raises(ValueError):
        unit_ball_volume(0)


def test_steiner_unit_square():
    dom = Domain("cube", 2)
    for r in (0.0, 0.05, 0.3, 1.7):
        assert steiner_volume(dom, r) == pytest.approx(np.pi * r**2 + 4 * r + 1, abs=1e-12)


def test_steiner_r0_is_volume():
    assert steiner_volume(Domain("cube", 4, side=0.5), 0.0) == pytest.approx(0.5**4)
    assert steiner_volume(Domain("ball", 3, radius=2.0), 0.0) == pytest.approx(
        unit_ball_volume(3) * 8.0
    )


def test_steiner_ball_is_enlarged_ball():
    # parallel body of a ball is a ball, so the polynomial must collapse
    for d in (1, 2, 3, 5):
        dom = Domain("ball", d, radius=0.7)
        for r in (0.0, 0.2, 1.3):
            assert steiner_volume(dom, r) == pytest.approx(
                unit_ball_volume(d) * (0.7 + r) ** d, rel=1e-12
            )


def test_steiner_cube_d3_monte_carlo_value():
    # 1 + 6r + 3 pi r^2 + (4 pi / 3) r^3 at r = 0.1
    val = steiner_volume(Domain("cube", 3), 0.1)
    assert val == pytest.approx(1.6984365698124801, abs=1e-12)
    # Monte Carlo volume of the parallel set as an independent oracle
    rng = np.random.default_rng(2024)
    n = 400_000
    pts = rng.uniform(-0.1, 1.1, size=(n, 3))
    clamped = np.clip(pts, 0.0, 1.0)
    inside = np.linalg.norm(pts - clamped, axis=1) <= 0.1
    est = inside.mean() * 1.2**3
    se = 1.2**3 * np.sqrt(inside.mean() * (1 - inside.mean()) / n)
    assert abs(est - val) < 3 * se


def test_steiner_monotone_in_r():
    dom = Domain("cube", 3)
    grid = np.linspace(0, 2, 40)
    vals = [steiner_volume(dom, r) for r in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_steiner_rejects_sphere():
    with pytest.raises(ValueError):
        steiner_volume(Domain("sphere", 3), 0.1)


def test_cube_shell_constant_bounds_shell():
    for d in (1, 2, 3):
        ck = cube_shell_constant(d)
        for u in (0.05, 0.3, 0.9):
            shell = steiner_volume(Domain("cube", d), u) - 1.0
            assert shell <= ck * (u + u**d) + 1e-12


def test_subspace_determinant_axes():
    assert subspace_determinant([[1.0, 0.0]], [[0.0, 1.0]]) == pytest.approx(1.0)
    assert subspace_determinant([[1.0, 0.0]], [[1.0, 0.0]]) == 0.0


def test_subspace_determinant_sin_angle_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        expected = np.linalg.norm(np.cross(u, v))
        assert subspace_determinant([u], [v]) == pytest.approx(expected, abs=1e-10)


def test_subspace_determinant_symmetry_and_rebasing():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = haar_frame(rng, 5, 2)
        b = haar_frame(rng, 5, 2)
        v1 = subspace_determinant(a, b)
        assert subspace_determinant(b, a) == pytest.approx(v1, abs=1e-12)
        # rotate the basis of a inside its own span
        phi = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])
        assert subspace_determinant(rot @ a, b) == pytest.approx(v1, abs=1e-10)


def test_integrated_subspace_determinant_values():
    assert integrated_subspace_determinant(3, 0) == 1.0
    assert integrated_subspace_determinant(3, 1) == pytest.approx(np.pi / 4, abs=1e-12)
    assert integrated_subspace_determinant(2, 1) == pytest.approx(2 / np.pi, abs=1e-12)
    with pytest.raises(ValueError):
        integrated_subspace_determinant(3, 2)


@pytest.mark.parametrize("d,m", [(3, 1), (4, 2)])
def test_integrated_subspace_determinant_haar_mc(d, m):
    rng = np.random.default_rng(100 + d)
    n = 20_000
    vals = np.array(
        [subspace_determinant(haar_frame(rng, d, m), haar_frame(rng, d, m)) for _ in range(n)]
    )
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - integrated_subspace_determinant(d, m)) < 3 * se


def test_flat_distance_skew_lines():
    e = AffineFlat(base=np.zeros(3), directions=[[1.0, 0.0, 0.0]])
    f = AffineFlat(base=[0.0, 0.0, 1.0], directions=[[0.0, 1.0, 0.0]])
    dist, mid = flat_distance_midpoint(e, f)
    assert dist == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(mid, [0.0, 0.0, 0.5], atol=1e-12)


def test_flat_distance_rejects_parallel():
    e = AffineFlat(base=np.zeros(3), directions=[[1.0, 0.0, 0.0]])
    f = AffineFlat(base=[0.0, 1.0, 0.0], directions=[[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        flat_distance_midpoint(e, f)


def test_flat_distance_rejects_intersecting():
    e = AffineFlat(base=np.zeros(3), directions=[[1.0, 0.0, 0.0]])
    f = AffineFlat(base=np.zeros(3), directions=[[0.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        flat_distance_midpoint(e, f)


def _grid_refine_distance(e, f, span=12.0, steps=9, rounds=60):
    # brute-force oracle: nested grid search over both coefficient vectors;
    # the window only shrinks when the argmin is interior, so narrow valleys
    # are walked along instead of being cut off
    m = e.m
    center = np.zeros(2 * m)
    width = span
    best = np.inf
    for _ in range(rounds):
        axes = [np.linspace(c - width, c + width, steps) for c in center]
        grids = np.meshgrid(*axes, indexing="ij")
        coeffs = np.stack([g.ravel() for g in grids], axis=1)
        p_e = e.base + coeffs[:, :m] @ e.directions
        p_f = f.base + coeffs[:, m:] @ f.directions
        dist = np.linalg.norm(p_e - p_f, axis=1)
        idx = int(np.argmin(dist))
        best = float(dist[idx])
        on_boundary = np.any(np.abs(coeffs[idx] - center) >= width * (1 - 1e-12))
        center = coeffs[idx]
        if not on_boundary:
            width *= 2.0 / (steps - 1.0)
        if width < 1e-9:
            break
    return best


def test_flat_distance_grid_refinement_oracle():
    rng = np.random.default_rng(31)
    for _ in range(3):
        e = AffineFlat(base=rng.standard_normal(5), directions=haar_frame(rng, 5, 2))
        f = AffineFlat(base=rng.standard_normal(5), directions=haar_frame(rng, 5, 2))
        dist, _ = flat_distance_midpoint(e, f)
        assert dist == pytest.approx(_grid_refine_distance(e, f), abs=1e-6)


def test_flat_distance_orthogonality_residual():
    rng = np.random.default_rng(5)
    for _ in range(20):
        e = AffineFlat(base=rng.standard_normal(5), directions=haar_frame(rng, 5, 2))
        f = AffineFlat(base=rng.standard_normal(5), directions=haar_frame(rng, 5, 2))
        dist, mid = flat_distance_midpoint(e, f)
        # reconstruct the endpoints from the midpoint and check orthogonality
        g = np.hstack([e.directions.T, -f.directions.T])
        w, *_ = np.linalg.lstsq(g, f.base - e.base, rcond=None)
        p_e = e.base + e.directions.T @ w[:2]
        p_f = f.base + f.directions.T @ w[2:]
        seg = p_f - p_e
        assert np.max(np.abs(e.directions @ seg)) < 1e-8
        assert np.max(np.abs(f.directions @ seg)) < 1e-8
        assert np.allclose(mid, (p_e + p_f) / 2, atol=1e-9)


def test_domain_masses():
    assert Domain("cube", 3).mass == 1.0
    assert Domain("ball", 2, radius=2.0).mass == pytest.approx(4 * np.pi)
    assert Domain("sphere", 3).mass == 1.0


def test_domain_samplers_land_inside():
    rng = np.random.default_rng(0)
    cube = Domain("cube", 3).sample(rng, 1000)
    assert cube.min() >= 0 and cube.max() <= 1
    ball = Domain("ball", 4, radius=1.5).sample(rng, 1000)
    assert np.linalg.norm(ball, axis=1).max() <= 1.5
    sph = Domain("sphere", 3).sample(rng, 1000)
    assert np.allclose(np.linalg.norm(sph, axis=1), 1.0, atol=1e-12)


def test_sphere_space_tag_carries_radius():
    # configurations on spheres of different radii must not merge
    unit, wide = Domain("sphere", 3), Domain("sphere", 3, radius=2.0)
    assert unit.space_tag != wide.space_tag
    rng = np.random.default_rng(1)
    a = Configuration.from_array(unit.sample(rng, 3), space=unit.space_tag)
    b = Configuration.from_array(wide.sample(rng, 3), space=wide.space_tag)
    with pytest.raises(ValueError, match="different spaces"):
        a.merge(b)
    assert np.allclose(np.linalg.norm(wide.sample(rng, 10), axis=1), 2.0)
