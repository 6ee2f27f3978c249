"""Admissible test functions and quadrature helpers.

Laplace-functional identities in this package are stated for continuous
compactly supported test functions taking values in (-1, 0], so that
1 + phi stays in (0, 1] and products over configurations never vanish or
explode.  Two concrete families cover the tests: box indicators scaled by a
level, and smooth radial bumps (infinitely differentiable, so they can also
feed the diffusion generator, which needs two derivatives).

The module also provides Gaussian smoothing (heat-kernel convolution) with
closed forms for boxes, including the image-sum version on a torus (only
``gauss_smooth``'s ``side`` chooses between the two), and the package's
one quadrature engine, ``box_quad``: every analytic oracle
that needs an integral the closed forms do not give calls it.  The engine
is globally adaptive product Gauss-Kronrod quadrature (the 21-point rule
of QUADPACK, Piessens et al. 1983), written here in numpy so that no
freedyn process needs ``scipy.integrate``.  The closed forms take their
normal cdf from ``ndtr``, built on libm's erf and erfc, so this module
loads no scipy at all.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .space import in_box

_SQRT1_2 = math.sqrt(0.5)


def _libm(func, x):
    # a math-module function of one float, elementwise on a 1-D array
    return np.fromiter(map(func, x.tolist()), dtype=float, count=len(x))


def ndtr(a):
    """Standard normal cdf, elementwise, from libm's erf and erfc.

    The branches of Cephes' ndtr (and so of scipy.special.ndtr): with
    x = a / sqrt(2), 0.5 + 0.5 * erf(x) for |a| < 1, else 0.5 * erfc(|x|),
    reflected to 1 - 0.5 * erfc(|x|) for a > 0.  In the lower tail the
    rounding of x costs up to about a**2 ulps, as it does in scipy, whose
    worst error on [-37.5, 8.5] this one does not exceed.
    """
    x = np.asarray(a, dtype=float) * _SQRT1_2
    flat = x.ravel()
    out = np.empty(len(flat))
    near = np.abs(flat) < _SQRT1_2
    far = ~near
    out[near] = 0.5 + 0.5 * _libm(math.erf, flat[near])
    tail = flat[far]
    half = 0.5 * _libm(math.erfc, np.abs(tail))
    out[far] = np.where(tail > 0.0, 1.0 - half, half)
    return out.reshape(x.shape)


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


# Kronrod 21-point nodes on [-1, 1] from 1 down to 0 and their weights
# (QUADPACK dqk21); the odd-indexed nodes are the Gauss 10-point nodes.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
GK21_NODES = np.concatenate([_XGK, -_XGK[-2::-1]])
GK21_WEIGHTS = np.concatenate([_WGK, _WGK[-2::-1]])
G10_WEIGHTS = np.concatenate([_WG, _WG[::-1]])  # at GK21_NODES[1::2]
MAX_SUBDIVISIONS = 10_000


@functools.lru_cache(maxsize=None)
def _gk21_rule(dim):
    """Product rule on [-1, 1]^dim: nodes, Kronrod weights, the weights of
    Kronrod minus Gauss (Gauss weights sit on the all-odd nodes), and the
    2^dim lower/upper-half choices of a midpoint split."""
    grids = np.meshgrid(*[GK21_NODES] * dim, indexing="ij")
    nodes = np.stack(grids, axis=-1).reshape(-1, dim)
    wk = functools.reduce(np.multiply.outer, [GK21_WEIGHTS] * dim)
    wg = np.zeros_like(wk)
    wg[(slice(1, None, 2),) * dim] = functools.reduce(np.multiply.outer,
                                                      [G10_WEIGHTS] * dim)
    halves = np.array(list(itertools.product((False, True), repeat=dim)))
    return nodes, wk.reshape(-1), (wk - wg).reshape(-1), halves


class _Region:
    """A box with its Kronrod estimate and error; heapq pops the largest
    error first."""

    __slots__ = ("lo", "hi", "est", "err", "worst")

    def __init__(self, lo, hi, est, err):
        self.lo, self.hi, self.est, self.err = lo, hi, est, err
        self.worst = np.max(err)

    def __lt__(self, other):
        return self.worst > other.worst


def box_quad(func, lo, hi, tol=1e-10):
    """Integrate a vectorized function over the box [lo, hi], any dimension.

    The package's one quadrature engine: globally adaptive product
    Gauss-Kronrod quadrature.  Each region is integrated by the 21-point
    Kronrod rule on every axis, and its error is the distance to the
    embedded 10-point Gauss rule, read off the same nodes, so func is
    evaluated once per region on 21**dim nodes.  The region of largest
    error is split at its midpoint along every axis until every component
    has error <= tol + tol * |value|, or MAX_SUBDIVISIONS splits are
    spent.  func maps (n, dim) points to (n,) values, or to (n, m, ...)
    rows for an array of integrals over the same nodes.  Returns (value,
    error estimate): floats, or arrays of shape (m, ...).  Raises ValueError on limits that are not
    finite or with hi < lo, and RuntimeError when the tolerance is not
    reached or the value or error is not finite.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if (lo.ndim != 1 or lo.shape != hi.shape
            or not np.all(np.isfinite(lo) & np.isfinite(hi))
            or np.any(hi < lo)):
        raise ValueError("box_quad needs finite limits with lo <= hi, got "
                         "[%s, %s]" % (lo.tolist(), hi.tolist()))
    nodes, wk, werr, halves = _gk21_rule(len(lo))

    def region(a, b):
        length = b - a
        fx = func((nodes + 1.0) * (length * 0.5) + a)
        scale = np.prod(length) / 2 ** len(a)
        shape = (-1,) + (1,) * (np.ndim(fx) - 1)
        est = np.sum((wk * scale).reshape(shape) * fx, axis=0)
        err = np.abs(np.sum((werr * scale).reshape(shape) * fx, axis=0))
        return _Region(a, b, est, err)

    heap = [region(lo, hi)]
    value, error = heap[0].est, heap[0].err
    subdivisions = 0
    while subdivisions < MAX_SUBDIVISIONS and np.any(
            error > tol + tol * np.abs(value)):
        worst = heapq.heappop(heap)
        value, error = value - worst.est, error - worst.err
        mid = (worst.lo + worst.hi) / 2
        for upper in halves:
            child = region(np.where(upper, mid, worst.lo),
                           np.where(upper, worst.hi, mid))
            value, error = value + child.est, error + child.err
            heapq.heappush(heap, child)
        subdivisions += 1
    if np.any(error > tol + tol * np.abs(value)) or not (
            np.all(np.isfinite(value)) and np.all(np.isfinite(error))):
        raise RuntimeError(
            "quadrature over [%s, %s] did not reach tolerance %g: error "
            "estimate %s after %d subdivisions" % (
                lo.tolist(), hi.tolist(), tol, np.max(error), subdivisions))
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


def gauss_smooth(func, var, points, weights=1.0, side=None):
    """Heat smoothing: E[func(x + Z)] with Z ~ Normal(0, var * Id).

    var and weights may be matching arrays: the sum over the Gaussian
    mixture sum_n weights[n] * Normal(0, var[n] * Id).  Boxes get the exact
    product-of-normal-cdf form; other supported functions are integrated
    over their support box, in one array-valued quadrature that serves
    every evaluation point and every mixture term.
    var = 0 returns func itself (times the total weight).  With side, Z
    wraps on the torus of that side: the mixture is summed term by term,
    from 0, through gauss_smooth_box_torus, which takes boxes only.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    weights = np.broadcast_to(np.asarray(weights, dtype=float), var.shape)
    if np.any(var < 0):
        raise ValueError("var must be >= 0")
    if side is not None:
        return sum(w * gauss_smooth_box_torus(func, v, points, side)
                   for w, v in zip(weights, var))
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
    shifts = side * np.arange(-n_img, n_img + 1)
    out = np.ones(len(points)) * func.level
    for axis in range(func.dim):
        x = points[:, axis]
        # one row per image; the rows are added in image order
        mass = (ndtr(((func.support_hi[axis] + shifts)[:, None] - x) / sd)
                - ndtr(((func.support_lo[axis] + shifts)[:, None] - x) / sd))
        out = out * sum(mass, np.zeros(len(points)))
    return out
