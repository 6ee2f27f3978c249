"""Admissible test functions and quadrature helpers.

Laplace-functional identities in this package are stated for continuous
compactly supported test functions taking values in (-1, 0], so that
1 + phi stays in (0, 1] and products over configurations never vanish or
explode.  Two concrete families cover the tests: box indicators scaled by a
level, and smooth radial bumps (infinitely differentiable, so they can also
feed the diffusion generator, which needs two derivatives).

The module also provides Gaussian smoothing (heat-kernel convolution) with
closed forms for boxes, including the image-sum version on a torus, and
the package's one quadrature engine, ``box_quad``: every analytic oracle
that needs an integral the closed forms do not give calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import ndtr

from .space import in_box


class TestFunction:
    """Compactly supported function with values in (-1, 0].

    Construct via :meth:`box` or :meth:`bump`.  Instances are callable on
    (n, dim) arrays and expose support bounds, the sup of the absolute
    value, and a closed-form integral.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    def __init__(self, family, level, support_lo, support_hi, params):
        self.family = family
        self.level = float(level)
        self.support_lo = np.asarray(support_lo, dtype=float)
        self.support_hi = np.asarray(support_hi, dtype=float)
        self.params = params
        self.dim = len(self.support_lo)
        self.bound = abs(self.level)

    @staticmethod
    def box(level, lo, hi):
        # admissibility: values stay in (-1, 0]
        if not -1.0 < level <= 0.0:
            raise ValueError("level must lie in (-1, 0]")
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if not np.all(hi > lo):
            raise ValueError("box must have positive extent")
        return TestFunction("box", level, lo, hi, params={})

    @staticmethod
    def bump(level, center, radius):
        if not -1.0 < level <= 0.0:
            raise ValueError("level must lie in (-1, 0]")
        center = np.atleast_1d(np.asarray(center, dtype=float))
        radius = float(radius)
        if not radius > 0:
            raise ValueError("radius must be > 0")
        return TestFunction("bump", level, center - radius, center + radius,
                            params={"center": center, "radius": radius})

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.family == "box":
            inside = in_box(pts, self.support_lo, self.support_hi)
            return np.where(inside, self.level, 0.0)
        c, r = self.params["center"], self.params["radius"]
        u = np.sum(np.square((pts - c) / r), axis=1)
        out = np.zeros(len(pts))
        mask = u < 1.0
        # exp(1 - 1/(1-u)): value 1 at the center, smooth decay to 0
        out[mask] = self.level * np.exp(1.0 - 1.0 / (1.0 - u[mask]))
        return out

    def integral(self):
        if self.family == "box":
            return self.level * float(np.prod(self.support_hi - self.support_lo))
        r, d = self.params["radius"], self.dim
        return self.level * r ** d * bump_shape_integral(d)

    def gradient(self, pts):
        """Gradient; only the smooth bump family supports derivatives."""
        if self.family != "bump":
            raise ValueError("gradient requires the smooth bump family")
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        c, r = self.params["center"], self.params["radius"]
        u = np.sum(np.square((pts - c) / r), axis=1)
        out = np.zeros_like(pts)
        mask = u < 1.0
        w = np.exp(1.0 - 1.0 / (1.0 - u[mask]))
        dw = -w / np.square(1.0 - u[mask])
        out[mask] = self.level * (dw * 2.0 / r ** 2)[:, None] * (pts[mask] - c)
        return out

    def laplacian(self, pts):
        if self.family != "bump":
            raise ValueError("laplacian requires the smooth bump family")
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        c, r = self.params["center"], self.params["radius"]
        d = self.dim
        sq = np.sum(np.square(pts - c), axis=1)
        u = sq / r ** 2
        out = np.zeros(len(pts))
        mask = u < 1.0
        um = u[mask]
        w = np.exp(1.0 - 1.0 / (1.0 - um))
        h1 = -1.0 / np.square(1.0 - um)
        h2 = -2.0 / (1.0 - um) ** 3
        dw = w * h1
        d2w = w * (h1 * h1 + h2)
        out[mask] = self.level * (d2w * 4.0 * sq[mask] / r ** 4 + dw * 2.0 * d / r ** 2)
        return out

    def product(self, other):
        """Pointwise product.  Box times box is again a scaled box."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        lo = np.maximum(self.support_lo, other.support_lo)
        hi = np.minimum(self.support_hi, other.support_hi)
        if np.any(hi <= lo):
            return TestFunction("box", 0.0, np.zeros(self.dim),
                                np.ones(self.dim), params={})
        if self.family == "box" and getattr(other, "family", None) == "box":
            # bypass the class-D factory check: products of negative levels
            # are legitimately positive
            return TestFunction("box", self.level * other.level, lo, hi,
                                params={})
        return NumericFunction(lambda pts: self(pts) * other(pts), lo, hi,
                               self.bound * other.bound)


@dataclass
class NumericFunction:
    """Callable with recorded (effective) support box and sup bound.

    Wraps composed quantities such as semigroup images of test functions.
    The support box may be an enlargement of the true essential support;
    quadratures then integrate over it and the recorded bound controls the
    discarded tail.
    """

    func: object
    support_lo: np.ndarray
    support_hi: np.ndarray
    bound: float

    def __post_init__(self):
        self.support_lo = np.atleast_1d(np.asarray(self.support_lo, dtype=float))
        self.support_hi = np.atleast_1d(np.asarray(self.support_hi, dtype=float))
        self.dim = len(self.support_lo)

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self.func(pts), dtype=float)

    def product(self, other):
        lo = np.maximum(self.support_lo, other.support_lo)
        hi = np.minimum(self.support_hi, other.support_hi)
        if np.any(hi <= lo):
            return TestFunction.box(0.0, np.zeros(self.dim), np.ones(self.dim))
        return NumericFunction(lambda pts: self(pts) * other(pts), lo, hi,
                               self.bound * other.bound)


def support_box(phis, pad=0.0):
    """Smallest box holding the supports of all phis, widened by pad."""
    lo = np.min([p.support_lo for p in phis], axis=0) - pad
    hi = np.max([p.support_hi for p in phis], axis=0) + pad
    return lo, hi


def box_quad(func, lo, hi, tol=1e-10):
    """Integrate a vectorized function over the box [lo, hi], any dimension.

    The package's one quadrature engine: globally adaptive cubature
    (``scipy.integrate.cubature``, a product Gauss-Kronrod 21-point rule
    that splits the region of largest error along every axis) to absolute
    and relative tolerance tol.  func maps (n, dim) points to (n,) values,
    or to (n, m) rows for m integrals over the same nodes.  Returns
    (value, error estimate): floats, or length-m arrays.  Raises
    RuntimeError when the cubature stops before reaching tol or returns a
    value or error that is not finite.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    res = integrate.cubature(func, lo, hi, rtol=tol, atol=tol)
    value, error = res.estimate, res.error
    if res.status != "converged" or not (np.all(np.isfinite(value))
                                         and np.all(np.isfinite(error))):
        raise RuntimeError(
            "quadrature over [%s, %s] did not reach tolerance %g: error "
            "estimate %s after %d subdivisions" % (
                lo.tolist(), hi.tolist(), tol, np.max(error),
                res.subdivisions))
    if np.ndim(value) == 0:
        return float(value), float(error)
    return value, error


def bump_shape_integral(dim):
    """Integral of exp(1 - 1/(1 - |x|**2)) over the unit ball of R^dim."""
    # radial: surface(unit sphere) * int_0^1 exp(1 - 1/(1 - s^2)) s^(dim-1) ds
    surf = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)

    def radial(s):
        s = s[:, 0]
        return np.exp(1.0 - 1.0 / (1.0 - s * s)) * s ** (dim - 1)

    return surf * box_quad(radial, 0.0, 1.0, tol=1e-13)[0]


def integrate_function(func, tol=1e-10):
    """Integral over the support, closed form where available."""
    if isinstance(func, TestFunction):
        return func.integral()
    return box_quad(func, func.support_lo, func.support_hi, tol)[0]


def gauss_smooth(func, var, points, weights=1.0):
    """Heat smoothing: E[func(x + Z)] with Z ~ Normal(0, var * Id).

    var and weights may be matching arrays: the sum over the Gaussian
    mixture sum_n weights[n] * Normal(0, var[n] * Id).  Boxes get the exact
    product-of-normal-cdf form; other supported functions are integrated
    over their support box, in one array-valued quadrature that serves
    every evaluation point and every mixture term.
    var = 0 returns func itself (times the total weight).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    weights = np.broadcast_to(np.asarray(weights, dtype=float), var.shape)
    if np.any(var < 0):
        raise ValueError("var must be >= 0")
    if not np.any(var):
        return np.sum(weights) * func(points)
    sd = np.sqrt(var)[:, None, None]
    if isinstance(func, TestFunction) and func.family == "box":
        upper = ndtr((func.support_hi - points) / sd)
        lower = ndtr((func.support_lo - points) / sd)
        return func.level * (weights @ np.prod(upper - lower, axis=2))
    norm = weights * (2.0 * math.pi * var) ** (-func.dim / 2.0)

    def integrand(pts):
        # column j: func times the mixture density centred at points[j],
        # summed term by term so the array stays (nodes, points)
        sq = sum(np.square(pts[:, k, None] - points[None, :, k])
                 for k in range(func.dim))
        dens = sum(c * np.exp(-sq / (2.0 * v)) for c, v in zip(norm, var))
        return func(pts)[:, None] * dens

    return box_quad(integrand, func.support_lo, func.support_hi, tol=1e-11)[0]


def gauss_smooth_box_torus(func, var, points, side):
    """Wrapped-Gaussian smoothing of a box function on a torus.

    Sums the full-space closed form over periodic images; the image count
    grows with sqrt(var)/side so large-variance (near-uniform) smoothing
    stays exact to machine precision.
    """
    if not (isinstance(func, TestFunction) and func.family == "box"):
        raise ValueError("torus smoothing implemented for box functions")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if var == 0:
        return func(np.mod(points, side))
    sd = math.sqrt(var)
    n_img = int(np.ceil(8.0 * sd / side)) + 2
    out = np.ones(len(points)) * func.level
    for axis in range(func.dim):
        x = points[:, axis]
        acc = np.zeros(len(points))
        for j in range(-n_img, n_img + 1):
            shift = j * side
            acc += (ndtr((func.support_hi[axis] + shift - x) / sd)
                    - ndtr((func.support_lo[axis] + shift - x) / sd))
        out = out * acc
    return out
