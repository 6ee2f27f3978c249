"""Underlying position space for particle configurations.

Two modes are supported: all of Euclidean space (with an axis-aligned
observation window) and a flat torus of a given side length.  The torus is
what simulations actually run on when they need a finite box without
boundary loss; the window is where statistics are read off in full-space
mode.

Distances are Euclidean, with the minimum-image convention on the torus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FULLSPACE = "fullspace"
TORUS = "torus"


def ball_volume(dim, radius):
    """Volume of the Euclidean ball of the given radius in ``dim`` dimensions."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    unit = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    return unit * radius ** dim


def in_box(pts, lo, hi, closed=False):
    """Whether each row of the (n, dim) array pts lies in the box [lo, hi)
    (the closed box [lo, hi] when closed); NaN lies in no box.

    The same booleans as np.all((pts >= lo) & (pts < hi), axis=1), built
    column by column: a reduce over axis 1 is several times slower.
    """
    inside = np.ones(len(pts), dtype=bool)
    below = np.less_equal if closed else np.less
    for col, a, b in zip(pts.T, lo, hi, strict=True):
        inside &= col >= a
        inside &= below(col, b)
    return inside


@dataclass(frozen=True)
class Domain:
    """Geometry the particles live in.

    Attributes
    ----------
    dim : int
        Space dimension, at least 1.
    mode : str
        Either ``"fullspace"`` or ``"torus"``.
    side : float or None
        Torus side length (torus mode only).
    window_min, window_max : tuple of float
        Axis-aligned observation window.  In torus mode this is the
        fundamental cell ``[0, side)^dim``.
    """

    dim: int
    mode: str
    side: float | None
    window_min: tuple
    window_max: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.mode not in (FULLSPACE, TORUS):
            raise ValueError("mode must be 'fullspace' or 'torus'")
        if self.mode == TORUS:
            if self.side is None or not self.side > 0:
                raise ValueError("torus mode needs side > 0")
        lo, hi = self.lower, self.upper
        if lo.shape != (self.dim,) or hi.shape != (self.dim,):
            raise ValueError("window bounds must have length dim")
        if not np.all(hi > lo):
            raise ValueError("window must have positive extent")

    @staticmethod
    def fullspace(window_min, window_max):
        lo = tuple(float(v) for v in np.atleast_1d(window_min))
        hi = tuple(float(v) for v in np.atleast_1d(window_max))
        return Domain(dim=len(lo), mode=FULLSPACE, side=None,
                      window_min=lo, window_max=hi)

    @staticmethod
    def torus(dim, side):
        side = float(side)
        return Domain(dim=int(dim), mode=TORUS, side=side,
                      window_min=(0.0,) * int(dim), window_max=(side,) * int(dim))

    @property
    def lower(self):
        return np.asarray(self.window_min, dtype=float)

    @property
    def upper(self):
        return np.asarray(self.window_max, dtype=float)

    @property
    def window_volume(self):
        return float(np.prod(self.upper - self.lower))

    @property
    def is_torus(self):
        return self.mode == TORUS

    def displacement(self, x, y):
        """Vector from y to x, minimum-image on the torus."""
        delta = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        if self.is_torus:
            delta = delta - self.side * np.round(delta / self.side)
        return delta

    def distance(self, x, y):
        """Euclidean (torus: minimum-image) distance; broadcasts over rows."""
        delta = self.displacement(x, y)
        return np.sqrt(np.sum(np.square(delta), axis=-1))

    def wrap(self, points, copy=True):
        """Map positions into the fundamental cell (no-op in full space).

        On a torus the result is bitwise ``np.mod(points, side)`` with
        results equal to ``side`` set to 0.  Only the entries outside
        (0, side) go through ``np.mod``; zeros, NaN and infinities count as
        outside, so -0.0 becomes +0.0.  By default ``points`` is never
        mutated and the result is a new array; with ``copy=False`` a float
        array is folded in place and returned, for callers that own it.
        """
        if not self.is_torus:
            return np.asarray(points, dtype=float)
        pts = (np.array(points, dtype=float) if copy
               else np.asarray(points, dtype=float))
        side = self.side
        outside = ~((pts > 0.0) & (pts < side))
        if outside.any():
            folded = np.mod(pts[outside], side)
            # np.mod rounds tiny negative inputs up to the divisor itself
            folded[folded >= side] = 0.0
            pts[outside] = folded
        return pts

    def to_dict(self):
        out = {"dimension": self.dim, "mode": self.mode}
        if self.is_torus:
            out["torus_side"] = self.side
        else:
            out["window_min"] = list(self.window_min)
            out["window_max"] = list(self.window_max)
        return out

    @staticmethod
    def from_dict(data):
        mode = data.get("mode", FULLSPACE)
        if mode == TORUS:
            return Domain.torus(data["dimension"], data["torus_side"])
        return Domain.fullspace(data["window_min"], data["window_max"])
