"""Finite counting measures (point configurations with multiplicities).

Atoms at bit-identical locations are merged; continuous samplers almost
surely never produce such ties, but induced processes can, and
deterministic fixtures rely on exact placement.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


def location_key(loc):
    """Canonical hashable key for an atom location.

    Scalars become floats, coordinate vectors become tuples of floats;
    anything already hashable (e.g. a flat object) is kept as is.
    """
    if isinstance(loc, (float, int, np.floating, np.integer)):
        return float(loc)
    if isinstance(loc, np.ndarray):
        if loc.ndim == 0:
            return float(loc)
        return tuple(float(v) for v in loc)
    if isinstance(loc, tuple):
        return tuple(float(v) for v in loc)
    return loc


class Configuration:
    """Multiset of atoms: mapping location -> positive integer multiplicity."""

    __slots__ = ("atoms", "space")

    def __init__(self, atoms: dict | None = None, space: str = ""):
        self.atoms: dict = {}
        self.space = space
        if atoms:
            for loc, mult in atoms.items():
                self.add(loc, mult)

    @classmethod
    def from_points(cls, points: Iterable, space: str = "") -> "Configuration":
        cfg = cls(space=space)
        for p in points:
            cfg.add(p)
        return cfg

    @classmethod
    def from_array(cls, arr: np.ndarray, space: str = "") -> "Configuration":
        """Rows of a (n, d) array, or entries of a 1-d array, one atom each."""
        cfg = cls(space=space)
        arr = np.asarray(arr)
        if arr.ndim == 1:
            for v in arr:
                cfg.add(float(v))
        else:
            for row in arr:
                cfg.add(row)
        return cfg

    def add(self, loc, mult: int = 1) -> None:
        if mult < 1 or mult != int(mult):
            raise ValueError("multiplicity must be a positive integer")
        key = location_key(loc)
        self.atoms[key] = self.atoms.get(key, 0) + int(mult)

    def total(self) -> int:
        """Total point count (sum of multiplicities)."""
        return sum(self.atoms.values())

    def points(self) -> list:
        """Locations expanded by multiplicity."""
        out = []
        for loc, mult in self.atoms.items():
            out.extend([loc] * mult)
        return out

    def merge(self, other: "Configuration") -> "Configuration":
        """Superposition of two configurations (sum of counting measures)."""
        if self.space != other.space:
            raise ValueError("cannot merge configurations on different spaces")
        out = Configuration(space=self.space)
        for loc, mult in self.atoms.items():
            out.add(loc, mult)
        for loc, mult in other.atoms.items():
            out.add(loc, mult)
        return out

    def count_interval(self, lo: float, hi: float) -> int:
        """Points in [lo, hi]; locations must be real numbers."""
        return sum(
            mult for loc, mult in self.atoms.items() if lo <= float(loc) <= hi
        )

    def copy(self) -> "Configuration":
        out = Configuration(space=self.space)
        out.atoms = dict(self.atoms)
        return out

    def __iter__(self) -> Iterator:
        return iter(self.atoms.items())

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Configuration)
            and self.space == other.space
            and self.atoms == other.atoms
        )

    def __repr__(self) -> str:
        return f"Configuration({self.total()} points, {len(self.atoms)} atoms, space={self.space!r})"
