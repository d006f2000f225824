"""Ground spaces, convex-geometry constants, and Grassmannian primitives.

The Haar-frame and subspace-determinant helpers define, one flat pair at a
time, what the batched flat sampler and the Haar-constant Monte Carlo
compute in bulk; tests compare the two.  The least-squares distance
between flats is a test oracle in ``tests/oracles.py``.

All functions here are pure; nothing mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gamma, pi

import numpy as np


def unit_ball_volume(d: int) -> float:
    """Volume of the d-dimensional Euclidean unit ball, pi^(d/2)/Gamma(d/2+1)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return pi ** (d / 2) / gamma(d / 2 + 1)


@dataclass(frozen=True)
class Domain:
    """A bounded ground space carrying a finite reference measure.

    kind:
        "cube"   -- axis cube [0, side]^dim with Lebesgue reference measure
        "ball"   -- centered ball of given radius, Lebesgue reference measure
        "sphere" -- centered sphere of given radius in R^dim (radius times
                    S^(dim-1)), NORMALIZED surface measure (total mass 1)
    """

    kind: str
    dim: int
    side: float = 1.0
    radius: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind not in ("cube", "ball", "sphere"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "cube" and self.side <= 0:
            raise ValueError("cube side must be positive")
        if self.kind in ("ball", "sphere") and self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def mass(self) -> float:
        """Total reference-measure mass."""
        if self.kind == "cube":
            return self.side ** self.dim
        if self.kind == "ball":
            return unit_ball_volume(self.dim) * self.radius ** self.dim
        return 1.0

    @property
    def space_tag(self) -> str:
        if self.kind == "cube":
            return f"cube({self.dim},{self.side})"
        if self.kind == "ball":
            return f"ball({self.dim},{self.radius})"
        return f"sphere({self.dim},{self.radius})"

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. draws from the normalized reference measure, shape (n, dim)."""
        if n == 0:
            return np.empty((0, self.dim))
        if self.kind == "cube":
            return rng.uniform(0.0, self.side, size=(n, self.dim))
        if self.kind == "sphere":
            g = rng.standard_normal((n, self.dim))
            return self.radius * g / np.linalg.norm(g, axis=1, keepdims=True)
        # ball: direction from a normalized Gaussian, radius via U^(1/d)
        g = rng.standard_normal((n, self.dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = self.radius * rng.uniform(size=(n, 1)) ** (1.0 / self.dim)
        return g * r


def _cube_intrinsic_volumes(d: int, side: float) -> list[float]:
    # V_i([0, s]^d) = C(d, i) s^i
    return [comb(d, i) * side ** i for i in range(d + 1)]


def _ball_intrinsic_volumes(d: int, radius: float) -> list[float]:
    # V_i(B^d(R)) = C(d, i) kappa_d / kappa_{d-i} R^i
    kd = unit_ball_volume(d)
    out = []
    for i in range(d + 1):
        kdi = unit_ball_volume(d - i) if d - i >= 1 else 1.0
        out.append(comb(d, i) * kd / kdi * radius ** i)
    return out


def steiner_volume(domain: Domain, r: float) -> float:
    """Volume of the r-parallel body of a convex cube or ball domain.

    Evaluates sum_i kappa_{d-i} V_i r^(d-i) with closed-form intrinsic
    volumes; the i = d term is the body's own volume.
    """
    if r < 0:
        raise ValueError("parallel-set radius must be nonnegative")
    d = domain.dim
    if domain.kind == "cube":
        vi = _cube_intrinsic_volumes(d, domain.side)
    elif domain.kind == "ball":
        vi = _ball_intrinsic_volumes(d, domain.radius)
    else:
        raise ValueError(f"steiner_volume supports cube and ball, not {domain.kind!r}")
    total = 0.0
    for i in range(d + 1):
        kdi = unit_ball_volume(d - i) if d - i >= 1 else 1.0
        total += kdi * vi[i] * r ** (d - i)
    return total


def cube_shell_constant(d: int) -> float:
    """C with vol{x outside the unit cube: dist(x, cube) <= u} <= C (u + u^d) for u <= 1.

    Taken as the sum of the non-leading coefficients of the cube's parallel
    volume polynomial, each of which multiplies u^(d-i) with 1 <= d-i <= d.
    """
    return sum(
        unit_ball_volume(d - i) * comb(d, i) for i in range(d)
    ) if d >= 1 else 0.0


def subspace_determinant(dirs_l: np.ndarray, dirs_m: np.ndarray) -> float:
    """2m-volume of the parallelepiped spanned by two orthonormal m-frames.

    Computed as sqrt(det(G^T G)) for the stacked (d x 2m) frame matrix G;
    returns 0 for linearly dependent frames.  Lies in [0, 1].
    """
    a = np.atleast_2d(np.asarray(dirs_l, dtype=float))
    b = np.atleast_2d(np.asarray(dirs_m, dtype=float))
    if a.shape != b.shape:
        raise ValueError("both direction sets must have the same shape")
    m, d = a.shape
    if 2 * m > d:
        raise ValueError("need 2m <= d")
    g = np.vstack([a, b]).T  # d x 2m
    det = np.linalg.det(g.T @ g)
    if det <= 0.0:
        return 0.0
    return float(min(1.0, np.sqrt(det)))


def integrated_subspace_determinant(d: int, m: int) -> float:
    """Mean subspace determinant over an independent Haar pair of m-subspaces of R^d."""
    if m == 0:
        return 1.0
    if 2 * m > d:
        raise ValueError("need 2m <= d")
    kd = unit_ball_volume(d)
    kdm = unit_ball_volume(d - m)
    kd2m = unit_ball_volume(d - 2 * m) if d - 2 * m >= 1 else 1.0
    return comb(d - m, m) / comb(d, m) * kdm ** 2 / (kd * kd2m)


def haar_frame(rng: np.random.Generator, d: int, m: int) -> np.ndarray:
    """Haar-random orthonormal m-frame in R^d (QR of an i.i.d. Gaussian matrix)."""
    g = rng.standard_normal((d, m))
    q, _ = np.linalg.qr(g)
    return q.T.copy()


def orthocomplement_basis(directions: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the row span, (d-m, d)."""
    dirs = np.atleast_2d(directions)
    m, d = dirs.shape
    _, _, vt = np.linalg.svd(dirs, full_matrices=True)
    return vt[m:].copy()
