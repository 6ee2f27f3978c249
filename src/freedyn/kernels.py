"""One-particle (sub-)Markov kernels and their analytic semigroups.

Four kernels drive the particle dynamics:

* Brownian: standard heat flow, position x + sqrt(t) * Normal(0, Id).
* Death: the particle sits still and dies at rate a(x); the semigroup is
  multiplication by exp(-a(x) t).  This is the one-particle ingredient of
  the spatial birth-and-death dynamics.
* Kawasaki: a compound-Poisson jump process.  A Poisson clock with rate
  equal to the total mass of the jump profile rings; at each ring the
  particle adds an independent displacement drawn from the normalized
  profile.  ``jumps`` is the one draw of a batch's moves: it draws the
  ring counts by inversion (one uniform per row, compared with the Poisson
  cdf), then the displacements of the rows that jump, and of no other row:
  one normal vector per such row for a Gaussian profile, else the
  profile's draws for every ring.  It returns a mask of the ringing rows
  and their summed steps; ``propagate_batch`` adds the steps to those rows
  and wraps.  The scaling experiment draws them once with the base
  profile and divides them by eps for every contraction eps of its
  schedule, so one start and one set of jumps per replica serve the whole
  schedule.  The inversion's cost grows with mass * t, so a batch
  with some mass * t above 16 draws its counts with numpy's Poisson
  sampler instead; the acceptance criteria, demos and benchmark all have
  mass * t <= 4.  Its time-t law is an atom exp(-mass * t) plus the
  jump-count series ``g_t_series`` (a ``GtSeries``), whose Poisson weights
  come from ``_poisson_weights`` alone, as do those of ``tail_bound`` and
  ``kawasaki_polynomial_certificate``; ``semigroup`` smooths by the whole
  series at once through the profile's ``smooth``.
* KilledBrownian: Brownian motion killed at rate a along the path
  (path-thinning on a fine grid, step h_kill, with O(h_kill) bias).

Beyond exact samplers, each kernel applies its semigroup to a supported
test function analytically (closed forms where possible, otherwise
quadrature with stated tolerance), reports survival probabilities and
killing profiles, and provides certified spatial tail bounds.  On top of
the tail bounds sit two convergence checkers for the ball-escape series
that controls infinite-volume well-definedness: a direct one with radius
schedule delta * n**(1/(alpha*m)) and certified analytic remainders, and a
polynomial-route certificate for jump kernels whose profile tail decays
like C / r**alpha with alpha > m.

Every kernel subclasses Kernel and keeps its own behaviour in methods;
the module functions validate and delegate.  A kernel sets ``variant`` (a
report label), ``conservative`` and, if it kills, ``rate``, and implements

* ``propagate_batch(pts, dts, gen)`` -> (positions, alive);
* ``semigroup(phi, t, tol)``, ``survival(x, t)`` and ``tail_bound(t, r)``;
* ``escape_series(epsilon, delta, beta, n_direct, target_tol)`` -> (terms,
  remainder bound), for check_summability;
* ``exit_paths(x, r, epsilon, n_paths, path_step, gen)`` -> exit flags,
  for exit_probability.

It may override Kernel's defaults: ``image_integral`` (quadrature),
``buffer_width`` (bisection on tail_bound), ``escape_report``,
``exit_probability`` and ``events`` (no discrete-event form).

The jump counts need only numpy: their Poisson cdf comes from the pmf
recurrence of ``_poisson_cdf``.  ``scipy.special`` (incomplete gamma
functions, zeta) and ``scipy.optimize`` are imported inside the
functions that use them: the jump-count series, the tail bounds and the
certificates.  Importing this module loads no scipy, and a command that
computes none of those never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import (NumericFunction, bump_shape_integral, gauss_smooth,
                        integrate_function)
from .pointproc import as_field, mean_se

DEFAULT_TOL = 1e-8


# ---------------------------------------------------------------------------
# jump profiles

class GaussianProfile:
    """Jump profile: mass times the centered Gaussian density with scale std.

    Closed under convolution: the n-fold self-convolution of the normalized
    profile is the centered Gaussian with variance n * std**2, which makes
    the jump semigroup series exact up to truncation.
    """

    kind = "gaussian"

    def __init__(self, dim, mass, std):
        if not (mass > 0 and std > 0 and dim >= 1):
            raise ValueError("need mass > 0, std > 0, dim >= 1")
        self.dim = int(dim)
        self.mass = float(mass)
        self.std = float(std)

    def density(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        var = self.std ** 2
        norm = (2.0 * math.pi * var) ** (-self.dim / 2.0)
        return self.mass * norm * np.exp(-np.sum(np.square(pts), axis=1) / (2.0 * var))

    def normalized_tail(self, s):
        """P(|D| > s) for a single normalized jump D."""
        from scipy.special import gammaincc

        s = np.maximum(np.asarray(s, dtype=float), 0.0)
        return gammaincc(self.dim / 2.0, np.square(s) / (2.0 * self.std ** 2))

    def tail_mass(self, r):
        """Profile mass outside the centered ball of radius r."""
        return self.mass * self.normalized_tail(r)

    def sample_displacements(self, gen, n):
        return self.std * gen.standard_normal((n, self.dim))

    def sum_displacements(self, gen, k):
        """Row i: the sum of k[i] >= 1 normalized jumps, a Gaussian with
        k[i]-fold variance (one normal vector per row).  One
        standard_normal call draws every row; the scale std * sqrt(k[i]),
        in float64 whatever k's integer type, is applied in place, block by
        block of rows, so no len(k)-long temporary is made and the bits are
        those of one full product."""
        step = gen.standard_normal((len(k), self.dim))
        for start in range(0, len(k), _DRAW_BLOCK):
            scale = np.sqrt(k[start:start + _DRAW_BLOCK], dtype=float)
            scale *= self.std
            step[start:start + _DRAW_BLOCK] *= scale[:, None]
        return step

    def mixture_density(self, weights, pts):
        """Density of the jump mixture sum_n weights[n-1] * (n-fold
        normalized self-convolution), term n Gaussian of variance n std**2."""
        var = self.std ** 2 * np.arange(1, len(weights) + 1)
        sq = np.sum(np.square(np.atleast_2d(pts)), axis=1)
        norm = (2.0 * math.pi * var) ** (-self.dim / 2.0)
        return np.exp(-sq[:, None] / (2.0 * var)) @ (weights * norm)

    def smooth(self, func, weights, pts, torus_side=None):
        """E[func(x + D)] at the rows x of pts, D with the jump mixture law,
        term n Gaussian of variance n std**2: gauss_smooth of the whole
        mixture (wrapped on a torus)."""
        var = self.std ** 2 * np.arange(1, len(weights) + 1)
        return gauss_smooth(func, var, pts, weights, torus_side)

    def scaled(self, eps):
        if not eps > 0:
            raise ValueError("eps must be > 0")
        return GaussianProfile(self.dim, self.mass, self.std / eps)

    def poly_tail_constant(self, alpha):
        """Numeric constant C with tail_mass(r) <= C / r**alpha for all r > 0.

        The supremum of r**alpha * tail_mass(r) is attained at finite r
        (Gaussian decay beats any power); located numerically and padded.
        """
        from scipy import optimize

        def neg(logr):
            r = math.exp(logr)
            return -(r ** alpha) * float(self.tail_mass(r))

        res = optimize.minimize_scalar(neg, bounds=(-6, 6), method="bounded")
        grid = np.exp(np.linspace(-6, 6, 4001))
        best = float(np.max(grid ** alpha * self.tail_mass(grid)))
        return 1.001 * max(best, -float(res.fun))


_MIXTURE_NODES = (1 << 13) + 1  # FFT grid of a bump profile's jump mixture


class BumpProfile:
    """Compactly supported radial jump profile of a given total mass.

    Shape exp(1 - 1/(1 - (|x|/radius)**2)) inside the ball, zero outside.
    Displacements are drawn by inverse CDF in dimension one and by
    rejection inside the ball otherwise.  Convolution powers (needed by
    the jump semigroup) are computed on an FFT grid in dimension one.
    """

    kind = "bump"

    def __init__(self, dim, mass, radius):
        if not (mass > 0 and radius > 0 and dim >= 1):
            raise ValueError("need mass > 0, radius > 0, dim >= 1")
        self.dim = int(dim)
        self.mass = float(mass)
        self.radius = float(radius)
        # normalization: integral of the shape over the ball
        self._shape_integral = radius ** dim * bump_shape_integral(dim)
        self._radial_cdf = None

    def density(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        u = np.sum(np.square(pts / self.radius), axis=1)
        out = np.zeros(len(pts))
        mask = u < 1.0
        out[mask] = np.exp(1.0 - 1.0 / (1.0 - u[mask]))
        return self.mass / self._shape_integral * out

    def _radial(self):
        # cached CDF of |D| on [0, radius]
        if self._radial_cdf is None:
            s = np.linspace(0.0, 1.0, 4097)
            with np.errstate(divide="ignore", over="ignore"):
                w = np.where(s < 1.0, np.exp(1.0 - 1.0 / (1.0 - np.square(s))), 0.0)
            integrand = w * s ** (self.dim - 1)
            cdf = np.concatenate([[0.0], np.cumsum((integrand[1:] + integrand[:-1]) / 2.0)])
            cdf /= cdf[-1]
            self._radial_cdf = (s * self.radius, cdf)
        return self._radial_cdf

    def normalized_tail(self, s):
        radii, cdf = self._radial()
        s = np.asarray(s, dtype=float)
        return np.clip(1.0 - np.interp(s, radii, cdf), 0.0, 1.0)

    def tail_mass(self, r):
        return self.mass * self.normalized_tail(r)

    def sample_displacements(self, gen, n):
        if self.dim == 1:
            radii, cdf = self._radial()
            mag = np.interp(gen.random(n), cdf, radii)
            sign = np.where(gen.random(n) < 0.5, -1.0, 1.0)
            return (mag * sign)[:, None]
        out = np.empty((n, self.dim))
        filled = 0
        peak = float(self.density(np.zeros((1, self.dim)))[0]) / self.mass
        while filled < n:
            m = 2 * (n - filled) + 16
            cand = self.radius * (2.0 * gen.random((m, self.dim)) - 1.0)
            dens = self.density(cand) / self.mass
            keep = cand[gen.random(m) * peak < dens]
            take = min(len(keep), n - filled)
            out[filled:filled + take] = keep[:take]
            filled += take
        return out

    def sum_displacements(self, gen, k):
        """Row i: the sum of k[i] normalized jumps, drawn ring by ring."""
        draws = self.sample_displacements(gen, int(k.sum()))
        owner = np.repeat(np.arange(len(k)), k)
        step = np.empty((len(k), self.dim))
        for j in range(self.dim):
            step[:, j] = np.bincount(owner, weights=draws[:, j],
                                     minlength=len(k))
        return step

    def _mixture_grid(self, weights):
        """(grid, density) of the jump mixture on one FFT grid of
        _MIXTURE_NODES nodes that holds the largest power; an odd node count
        keeps 0 a node and the powers of the even profile centred."""
        if self.dim != 1:
            raise NotImplementedError("bump convolution powers implemented "
                                      "in dim 1")
        half = self.radius * len(weights) * 1.05 + 1.0
        grid = np.linspace(-half, half, _MIXTURE_NODES)
        dx = grid[1] - grid[0]
        base = self.density(grid[:, None]) / self.mass
        spec = np.fft.rfft(np.fft.ifftshift(base)) * dx
        # the mixture's spectrum is a polynomial in the profile's spectrum
        mix = np.polynomial.polynomial.polyval(spec, np.append(0.0, weights))
        dens = np.maximum(np.fft.fftshift(np.fft.irfft(mix, _MIXTURE_NODES))
                          / dx, 0.0)
        # normalize away accumulated FFT rounding
        dens *= np.sum(weights) / max(np.trapezoid(dens, grid), 1e-300)
        return grid, dens

    def mixture_density(self, weights, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        grid, dens = self._mixture_grid(weights)
        return np.interp(pts[:, 0], grid, dens, left=0.0, right=0.0)

    def smooth(self, func, weights, pts, torus_side=None):
        """E[func(x + D)] at the rows x of pts, D with the jump mixture law:
        one midpoint rule over supp func (its part in the cell on a torus,
        with the density's periodic images) for all points at once."""
        grid, dens = self._mixture_grid(weights)
        x = np.atleast_2d(np.asarray(pts, dtype=float))[:, 0]
        lo, hi = float(func.support_lo[0]), float(func.support_hi[0])
        shifts = np.zeros(1)
        if torus_side is not None:
            x = np.mod(x, torus_side)
            lo, hi = max(lo, 0.0), min(hi, torus_side)
            reach = math.ceil(grid[-1] / torus_side) + 1
            shifts = torus_side * np.arange(-reach, reach + 1)
        n = max(1, math.ceil((hi - lo) / (grid[1] - grid[0])))
        y = lo + (hi - lo) / n * (np.arange(n) + 0.5)
        fy = func(y[:, None]) * ((hi - lo) / n)
        out = np.empty(len(x))
        # blocks of points keep the (points, images, nodes) array near 8 MiB
        rows = max(1, (1 << 20) // (n * len(shifts)))
        for i in range(0, len(x), rows):
            offsets = y - x[i:i + rows, None, None] + shifts[:, None]
            out[i:i + rows] = np.interp(offsets, grid, dens, left=0.0,
                                        right=0.0).sum(axis=1) @ fy
        return out

    def scaled(self, eps):
        if not eps > 0:
            raise ValueError("eps must be > 0")
        return BumpProfile(self.dim, self.mass, self.radius / eps)

    def poly_tail_constant(self, alpha):
        # tail vanishes beyond the support radius, so C = mass * radius**alpha works
        return self.mass * self.radius ** alpha


# ---------------------------------------------------------------------------
# jump-count series

_MAX_SERIES_TERMS = 100000  # longest jump-count series before refusal
_MAX_DIRECT_RADII = 1 << 21  # most escape-series terms bounded one by one
_POLY_PARTIAL_SUMS = 64  # partial sums a polynomial certificate reports


def _poisson_weights(mu, n):
    """P[Poisson(mu) = k] for k = 0..n (mu > 0), in log space: the package's
    one computation of jump-count weights."""
    k = np.arange(n + 1)
    return np.exp(-mu + k * math.log(mu) - np.cumsum(np.log(np.maximum(k, 1))))


@dataclass(frozen=True)
class GtSeries:
    """Continuous part of the time-t jump transition law, truncated.

    The law of a single jumping particle at time t is an atom of weight
    exp(-t * mass) at the start plus the density

        sum_{n >= 1} P[Poisson(t * mass) = n] * (n-fold normalized profile)

    truncated at ``truncation`` terms (``weights[n-1]`` is term n).
    ``remainder_density`` bounds the dropped part pointwise and
    ``remainder_mass`` is its integral, so atom + mean + remainder_mass = 1
    and mean ~ 1 - exp(-t * mass).
    """

    profile: object
    t: float
    rate: float
    truncation: int
    weights: np.ndarray
    remainder_density: float
    remainder_mass: float

    def density(self, pts):
        return self.profile.mixture_density(self.weights, pts)

    @property
    def mean(self):
        """Integral of the truncated continuous part."""
        return float(np.sum(self.weights))


def g_t_series(profile, t, tol=1e-8):
    """Truncated jump-count series for the continuous transition density.

    The smallest truncation whose remainder is <= tol in total mass and in
    sup norm (every convolution power is bounded by the normalized
    profile's peak); RuntimeError past _MAX_SERIES_TERMS terms.
    """
    if not (t > 0 and tol > 0):
        raise ValueError("need t > 0 and tol > 0")
    from scipy.special import gammainc

    rate, mu = profile.mass, profile.mass * t
    peak = float(profile.density(np.zeros((1, profile.dim)))[0]) / rate
    scale = max(peak, 1.0)
    n = max(int(mu + 10.0 * math.sqrt(mu + 1.0)), 4)
    while n <= _MAX_SERIES_TERMS and scale * float(gammainc(n + 1, mu)) > tol:
        n *= 2
    if n > _MAX_SERIES_TERMS:
        raise RuntimeError("series truncation for tolerance %g exceeds the "
                           "term cap %d" % (tol, _MAX_SERIES_TERMS))
    # the smallest truncation that reaches tol (the tail falls with n)
    n = 1 + int(np.argmax(scale * gammainc(np.arange(2, n + 2), mu) <= tol))
    tail = float(gammainc(n + 1, mu))
    return GtSeries(profile=profile, t=float(t), rate=rate, truncation=n,
                    weights=_poisson_weights(mu, n)[1:],
                    remainder_density=peak * tail, remainder_mass=tail)


# ---------------------------------------------------------------------------
# kernels

def _effective_pad(var):
    # support padding for semigroup images: Gaussian reach at ~8 sigma
    return 8.0 * math.sqrt(max(var, 0.0)) + 1e-9


def _batch_times(dts, n):
    """Checked times of a batch: a 0-d array for one time shared by all
    rows (checked in O(1), never broadcast), else one time per row."""
    dts = np.asarray(dts, dtype=float)
    if dts.min(initial=0.0) < 0:
        raise ValueError("t must be >= 0")
    return dts if dts.ndim == 0 else np.broadcast_to(dts, (n,))


# Above this clock mean the counts come from numpy's Poisson sampler: the
# inversion below makes about one pass over the rows per unit of mean.
_MAX_INVERSION_MEAN = 16.0
# Rows per block of a bulk draw: a block's temporaries stay small, and
# consecutive draws give the numbers of one call over all rows.
_DRAW_BLOCK = 1 << 16


def _poisson_cdf(lam):
    """Poisson(lam) cdf levels F(0), F(1), ... up to the first that is >= 1.

    lam is a shared mean, 0 <= lam <= _MAX_INVERSION_MEAN.  The levels come
    from the pmf recurrence p_0 = exp(-lam), p_k = p_{k-1} * lam / k,
    F(k) = F(k-1) + p_k, in the floating-point operations of the per-row
    loop of _jump_blocks, so both give the same bits.  A level that p_k no
    longer raises is set to 1: the rest of the series is below rounding,
    and the sum may stall below a uniform in [0, 1) (at lam = 15.9 it
    stalls at 1 - 2.2e-16 from k = 60), so every uniform stops there.
    """
    # Python floats round every step as the float64 arrays do; the exp is
    # numpy's, as in the loop
    lam = float(lam)
    p = float(np.exp(-lam))
    levels = [p]
    while levels[-1] < 1.0:
        p = p * lam / len(levels)
        level = levels[-1] + p
        levels.append(level if level > levels[-1] else 1.0)
    return np.array(levels)


def _jump_blocks(lam, gen, n):
    """Poisson(lam) clock counts of n rows by inversion, as (hop, k) blocks.

    lam is a 0-d array shared by all rows or one mean per row.  Row i draws
    u_i = gen.random() and rings k_i times, the first k with u_i < F(k) for
    F the Poisson(lam_i) cdf (so #{k >= 0 : F(k) <= u_i}): inversion by
    sequential search (Devroye 1986, X.3), k stepping up over the rows
    still ringing, so the cost grows with max(lam).  F is built by the pmf
    recurrence of _poisson_cdf: for a shared mean as one table per call,
    for per-row means level by level on the rows still ringing.  The
    uniforms are drawn and inverted _DRAW_BLOCK rows at a time:
    consecutive gen.random calls give the numbers of one call over all n
    rows, so the blocks leave the stream and the counts unchanged while no
    n-long uniform array is made.  A batch whose largest mean exceeds
    _MAX_INVERSION_MEAN draws all its counts with gen.poisson instead, as
    one block.  Either way a shared mean and a constant per-row one give
    the same bits.  A block's hop holds its ringing rows, numbered in the
    batch and ascending, and k their counts: one byte each under inversion
    (the counts stop below 61), else gen.poisson's integers.
    """
    if not np.all(np.isfinite(lam)):
        raise ValueError("jump clock mean must be finite")
    if np.max(lam, initial=0.0) > _MAX_INVERSION_MEAN:
        counts = gen.poisson(lam, size=n)
        hop = np.flatnonzero(counts)
        yield hop, counts[hop]
        return
    table = None if lam.ndim else _poisson_cdf(lam)
    for start in range(0, n, _DRAW_BLOCK):
        u = gen.random(min(_DRAW_BLOCK, n - start))
        if table is None:
            mean = lam[start:start + len(u)]
            cdf = np.exp(-mean)
            hop = np.flatnonzero(u >= cdf)
            mean = mean[hop]
            p = cdf = cdf[hop]
        else:
            hop = np.flatnonzero(u >= table[0])
        u = u[hop]
        k = np.ones(len(hop), dtype=np.uint8)
        # the arrays shrink to the rows still ringing; ringing holds their
        # positions in hop (None while that is every row, which saves an
        # arange)
        ringing, level = None, 1
        while len(u):
            if table is None:
                # the next level of _poisson_cdf, row by row
                p = p * mean / level
                grown = cdf + p
                cdf = np.where(grown > cdf, grown, 1.0)
                keep = np.flatnonzero(u >= cdf)
                mean, p, cdf = mean[keep], p[keep], cdf[keep]
            else:
                keep = np.flatnonzero(u >= table[level])
            ringing = keep if ringing is None else ringing[keep]
            u = u[keep]
            k[ringing] += 1
            level += 1
        hop += start
        yield hop, k


def _heat_tail(dim, t, r):
    """Exact tail P(|sqrt(t) Z| > r) via the chi-square upper tail."""
    if t <= 0 or r <= 0:
        raise ValueError("need t > 0 and r > 0")
    from scipy.special import gammaincc

    return float(gammaincc(dim / 2.0, r * r / (2.0 * t)))


class Kernel:
    """Defaults shared by the kernels; see the module docstring."""

    def image_integral(self, phi, image, t, tol):
        """int (T_t phi) dx given the image T_t phi: quadrature by default."""
        return integrate_function(image, tol)

    def buffer_width(self, t_max, target):
        """Smallest radius with tail_bound(t_max, radius) <= target."""
        lo, hi = 1e-6, 1.0
        while self.tail_bound(t_max, hi) > target:
            hi *= 2.0
            if hi > 1e6:
                raise RuntimeError("no finite buffer width reaches the target")
        while True:  # bisect until a step moves neither end
            mid = 0.5 * (lo + hi)
            step = (mid, hi) if self.tail_bound(t_max, mid) > target \
                else (lo, mid)
            if step == (lo, hi):
                return hi
            lo, hi = step

    def escape_report(self, params, epsilon, delta, beta, target_tol, n_direct):
        """check_summability's report, built from escape_series."""
        terms, remainder = self.escape_series(epsilon, delta, beta, n_direct,
                                              target_tol)
        sums = np.cumsum(terms)
        keep = list(sums[:16]) + list(sums[31::32])
        params["n_direct"] = int(len(terms))
        return ConvergenceReport(keep + [float(sums[-1])], float(remainder),
                                 bool(remainder <= target_tol), params)

    def exit_probability(self, x, r, epsilon, n_paths, path_step, rng):
        """exit_probability's (estimate, stderr, bound), from exit_paths."""
        bound = min(2.0 * self.tail_bound(epsilon, r / 2.0), 1.0)
        exited = self.exit_paths(x, r, epsilon, n_paths, path_step,
                                 rng.generator())
        mean, stderr = mean_se(exited)
        return mean, stderr, bound

    def events(self, config, horizon, rng):
        """event_stream's events, in any order."""
        raise ValueError("event streams exist for birth-death and jump "
                         "dynamics only")


class BrownianKernel(Kernel):
    """Heat-flow kernel: increments sqrt(t) * standard Gaussian."""

    variant = "brownian"
    conservative = True

    def __init__(self, domain):
        self.domain = domain

    def propagate_batch(self, pts, dts, gen):
        dts = _batch_times(dts, len(pts))
        out = pts + np.sqrt(dts)[..., None] * gen.standard_normal(pts.shape)
        return self.domain.wrap(out, copy=False), np.ones(len(pts), dtype=bool)

    def semigroup(self, phi, t, tol=DEFAULT_TOL):
        if t < 0:
            raise ValueError("t must be >= 0")
        if t == 0:
            return phi
        if self.domain.is_torus:
            side = self.domain.side
            lo, hi = np.zeros(self.domain.dim), np.full(self.domain.dim, side)
        else:
            side, pad = None, _effective_pad(t)
            lo, hi = phi.support_lo - pad, phi.support_hi + pad

        def func(pts):
            return gauss_smooth(phi, t, pts, side=side)

        return NumericFunction(func, lo, hi, phi.bound)

    def survival(self, x, t):
        return 1.0

    def tail_bound(self, t, r):
        return _heat_tail(self.domain.dim, t, r)

    def escape_series(self, epsilon, delta, beta, n_direct, target_tol):
        return _heat_escape_series(self.domain.dim, epsilon, delta, beta,
                                   n_direct)

    def exit_paths(self, x, r, epsilon, n_paths, path_step, gen):
        return _diffusion_exit_paths(x, r, epsilon, n_paths, path_step, gen)


class DeathKernel(Kernel):
    """The particle stays put and dies at position-dependent rate a(x)."""

    variant = "death"
    conservative = False

    def __init__(self, domain, rate):
        self.domain = domain
        self.rate = as_field(rate)

    def propagate_batch(self, pts, dts, gen):
        dts = _batch_times(dts, len(pts))
        a = self.rate(pts)
        alive = gen.random(len(pts)) < np.exp(-a * dts)
        return pts, alive

    def semigroup(self, phi, t, tol=DEFAULT_TOL):
        if t < 0:
            raise ValueError("t must be >= 0")
        rate = self.rate

        def func(pts):
            return np.exp(-rate(pts) * t) * phi(pts)

        return NumericFunction(func, phi.support_lo, phi.support_hi, phi.bound)

    def survival(self, x, t):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return float(np.exp(-self.rate(x)[0] * t))

    # the particle never moves: no tail, no escape, no exit, no collar

    def tail_bound(self, t, r):
        return 0.0

    def escape_report(self, params, epsilon, delta, beta, target_tol, n_direct):
        return ConvergenceReport([0.0], 0.0, True, params | {"note": "no motion"})

    def exit_probability(self, x, r, epsilon, n_paths, path_step, rng):
        return 0.0, 0.0, 0.0

    def buffer_width(self, t_max, target):
        return 0.0

    def events(self, config, horizon, rng):
        # birth-and-death events without births; dynamics imports this module
        from .dynamics import GlauberDynamics
        return GlauberDynamics(self.rate, 0.0).events(config, horizon, rng)


class KawasakiKernel(Kernel):
    """Compound-Poisson jump kernel driven by a jump profile.

    The clock rate is the profile's total mass; displacements are i.i.d.
    draws from the normalized profile.  The time-t transition law is an
    atom exp(-mass*t) at the start plus a continuous part given by the
    convolution-power series.
    """

    variant = "kawasaki"
    conservative = True

    def __init__(self, domain, profile):
        if profile.dim != domain.dim:
            raise ValueError("profile dimension must match the domain")
        self.domain = domain
        self.profile = profile

    @property
    def clock_rate(self):
        return self.profile.mass

    def jumps(self, n, dts, gen):
        """The moves of n rows over times dts, as (ring, step).

        ring masks the rows that ring at least once; step holds their
        summed displacements, one row per ringing row in row order.  Stream
        layout: one uniform per row for its jump count (a Poisson draw per
        row once some mass * t exceeds 16), then the profile's
        sum_displacements of the ringing rows.  The counts are drawn block
        by block of rows (_jump_blocks) and kept as drawn: the layout and
        bits are those of one draw over all rows, and no ringing-long index
        or integer array lives beside step.
        """
        ring = np.zeros(n, dtype=bool)
        ks = [np.empty(0, dtype=np.uint8)]
        for hop, k in _jump_blocks(self.clock_rate * _batch_times(dts, n),
                                   gen, n):
            ring[hop] = True
            ks.append(k)
        return ring, self.profile.sum_displacements(gen, np.concatenate(ks))

    def propagate_batch(self, pts, dts, gen):
        n = len(pts)
        ring, step = self.jumps(n, dts, gen)
        out = np.array(pts, dtype=float)
        if len(step) and not isinstance(self.profile, GaussianProfile):
            # keeps the bits of the earlier full-length bincount update,
            # which added +0.0 to every row (so -0.0 became +0.0)
            out += 0.0
        out[ring] += step
        return self.domain.wrap(out, copy=False), np.ones(n, dtype=bool)

    def jump_times(self, t, gen):
        n = gen.poisson(self.clock_rate * t)
        return np.sort(t * gen.random(n))

    def semigroup(self, phi, t, tol=DEFAULT_TOL):
        """The atom term exp(-mass*t) * phi plus the profile's smoothing of
        phi by the continuous part, g_t_series truncated at tol / phi.bound."""
        if t < 0:
            raise ValueError("t must be >= 0")
        if t == 0 or phi.bound == 0:
            return phi
        atom = self.atom_weight(t)
        series = g_t_series(self.profile, t, tol / phi.bound)
        smooth, weights = self.profile.smooth, series.weights
        side = self.domain.side if self.domain.is_torus else None

        def func(pts):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            return atom * phi(pts) + smooth(phi, weights, pts, side)

        if self.domain.is_torus:
            lo, hi = self.domain.lower, self.domain.upper
        else:
            n = series.truncation
            pad = _effective_pad(n * self.profile.std ** 2) \
                if isinstance(self.profile, GaussianProfile) \
                else n * self.profile.radius + 1e-9
            lo, hi = phi.support_lo - pad, phi.support_hi + pad
        return NumericFunction(func, lo, hi, phi.bound)

    def survival(self, x, t):
        return 1.0

    def atom_weight(self, t):
        """Probability of no jump by time t (the transition law's atom)."""
        return math.exp(-self.clock_rate * t)

    def tail_bound(self, t, r):
        """Union bound over jump counts with certified series remainder.

        P(|X_t - x| > r) <= sum_k Pois_k(mass*t) * k * tail(r/k) plus the
        exact remainder mass*t * P(Pois(mass*t) >= N) for the dropped terms.
        Nondecreasing in t (stochastically more jumps, monotone summand).
        """
        return float(self.tail_bound_batch(t, np.array([r]))[0])

    def tail_bound_batch(self, t, radii):
        """tail_bound vectorized over an array of radii."""
        radii = np.asarray(radii, dtype=float)
        if t <= 0 or np.any(radii <= 0):
            raise ValueError("need t > 0 and radii > 0")
        from scipy.special import gammainc

        mu = self.clock_rate * t
        n_terms = max(int(mu + 12.0 * math.sqrt(mu + 1.0)), 32)
        k = np.arange(1, n_terms + 1)
        weights = _poisson_weights(mu, n_terms)[1:] * k
        # sum_{k>N} k * Pois_k(mu) = mu * P(Pois(mu) >= N)
        remainder = mu * float(gammainc(n_terms, mu))
        out = np.empty(len(radii))
        chunk = max(1, (1 << 22) // n_terms)
        for i in range(0, len(radii), chunk):
            block = radii[i:i + chunk]
            probs = np.minimum(self.profile.normalized_tail(
                block[:, None] / k[None, :]), 1.0)
            out[i:i + chunk] = probs @ weights
        return np.minimum(out + remainder, 1.0)

    def escape_series(self, epsilon, delta, beta, n_direct, target_tol):
        remainder, n_from = _kawasaki_remainder(self.profile, epsilon, delta,
                                                beta, n_direct, target_tol)
        if n_from > _MAX_DIRECT_RADII:
            # the direct terms run up to the remainder's first index: refuse
            # before allocating one radius per term
            raise RuntimeError(
                "direct escape series needs %d radii, past the cap %d; "
                'the "certificate": "polynomial" route bounds it in closed '
                "form" % (n_from, _MAX_DIRECT_RADII))
        n = np.arange(1, n_from + 1)
        return self.tail_bound_batch(epsilon, delta * n ** (1.0 / beta)), \
            remainder

    def exit_paths(self, x, r, epsilon, n_paths, path_step, gen):
        # exact at the jump epochs: path i takes its counts[i] draws in
        # order, and step k moves every path with more than k jumps
        counts = gen.poisson(self.clock_rate * epsilon, size=n_paths)
        draws = self.profile.sample_displacements(gen, int(counts.sum()))
        start = np.cumsum(counts) - counts
        pos = np.zeros((n_paths, self.domain.dim))
        exited = np.zeros(n_paths, dtype=bool)
        for k in range(int(counts.max(initial=0))):
            active = np.flatnonzero(counts > k)
            moved = pos[active] + draws[start[active] + k]
            pos[active] = moved
            exited[active] |= np.linalg.norm(moved, axis=1) > r
        return exited

    def events(self, config, horizon, rng):
        from .dynamics import Event  # dynamics imports this module
        domain = config.domain
        gen = rng.child(1).generator()
        events = []
        for row in config.points:
            epochs = self.jump_times(horizon, gen)
            if len(epochs) == 0:
                continue
            disp = self.profile.sample_displacements(gen, len(epochs))
            path = domain.wrap(row + np.cumsum(disp, axis=0))
            prev = tuple(row)
            for s, nxt in zip(epochs, path):
                events.append(Event(float(s), "jump", prev, tuple(nxt)))
                prev = tuple(nxt)
        return events


class KilledBrownianKernel(Kernel):
    """Brownian motion killed at position-dependent rate a along the path.

    Sampling thins the path on a grid of step h_kill (bias O(h_kill)).
    With a constant rate the semigroup and survival are exact:
    exp(-a t) times the conservative heat flow (wrapped on a torus).  For
    nonconstant rates the semigroup uses a splitting scheme on a spatial
    grid (dim 1, full space; O(h) time-step bias) and survival refuses.
    """

    variant = "killed_brownian"
    conservative = False

    def __init__(self, domain, rate, h_kill=None):
        self.domain = domain
        self.rate = as_field(rate)
        self.h_kill = h_kill
        # constants get exact semigroup and survival formulas
        self._rate_const = float(rate) if isinstance(rate, (int, float)) else None

    def _step(self, t):
        return self.h_kill if self.h_kill is not None else max(t / 1000.0, 1e-9)

    def propagate_batch(self, pts, dts, gen):
        n = len(pts)
        dts = np.broadcast_to(_batch_times(dts, n), (n,))
        t_max = float(np.max(dts)) if n else 0.0
        if t_max == 0.0:
            return pts, np.ones(n, dtype=bool)
        h = self._step(t_max)
        n_steps = max(int(math.ceil(t_max / h)), 1)
        out = np.array(pts, copy=True)
        alive = np.ones(n, dtype=bool)
        remaining = dts.copy()
        for _ in range(n_steps):
            step = np.minimum(remaining, t_max / n_steps)
            idx = np.flatnonzero(alive & (step > 0))
            if not len(idx):
                break
            a = self.rate(out[idx])
            surv = gen.random(len(idx)) < np.exp(-a * step[idx])
            alive[idx[~surv]] = False
            move = idx[surv]
            out[move] += np.sqrt(step[move])[:, None] * \
                gen.standard_normal((len(move), pts.shape[1]))
            remaining[idx] -= step[idx]
        return self.domain.wrap(out, copy=False), alive

    def semigroup(self, phi, t, tol=DEFAULT_TOL):
        if t < 0:
            raise ValueError("t must be >= 0")
        if t == 0:
            return phi
        if self._rate_const is not None:
            damp = math.exp(-self._rate_const * t)
            heat = BrownianKernel(self.domain).semigroup(phi, t, tol)
            return NumericFunction(lambda pts: damp * heat(pts),
                                   heat.support_lo, heat.support_hi, phi.bound)
        if self.domain.dim != 1 or self.domain.is_torus:
            raise NotImplementedError(
                "nonconstant killing semigroup implemented in dim 1, "
                "full space")
        return self._splitting_semigroup(phi, t, _effective_pad(t))

    def _splitting_semigroup(self, phi, t, pad):
        # Lie splitting: alternate exact heat smoothing and killing
        # multiplication on a grid; O(h) in the time step.
        h = self._step(t)
        n_steps = max(int(math.ceil(t / h)), 1)
        h = t / n_steps
        lo = float(phi.support_lo[0]) - pad - 2.0
        hi = float(phi.support_hi[0]) + pad + 2.0
        n_grid = 4097
        grid = np.linspace(lo, hi, n_grid)
        dx = grid[1] - grid[0]
        vals = phi(grid[:, None])
        decay = np.exp(-self.rate(grid[:, None]) * h)
        half = int(math.ceil(8.0 * math.sqrt(h) / dx)) + 2
        offs = np.arange(-half, half + 1) * dx
        w = np.exp(-np.square(offs) / (2.0 * h))
        w /= w.sum()
        for _ in range(n_steps):
            vals = np.convolve(vals * decay, w, mode="same")
        interp_grid, interp_vals = grid, vals

        def func(pts):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            return np.interp(pts[:, 0], interp_grid, interp_vals,
                             left=0.0, right=0.0)

        return NumericFunction(func, np.array([lo]), np.array([hi]), phi.bound)

    def survival(self, x, t):
        if t == 0:
            return 1.0
        if self._rate_const is None:
            raise NotImplementedError(
                "nonconstant killing survival not implemented")
        return math.exp(-self._rate_const * t)

    def tail_bound(self, t, r):
        # killing only removes mass, so the conservative heat tail dominates
        return _heat_tail(self.domain.dim, t, r)

    def image_integral(self, phi, image, t, tol):
        if self._rate_const is not None:
            # heat flow preserves the integral; killing scales it
            return math.exp(-self._rate_const * t) * integrate_function(phi, tol)
        return integrate_function(image, tol)

    def escape_series(self, epsilon, delta, beta, n_direct, target_tol):
        return _heat_escape_series(self.domain.dim, epsilon, delta, beta,
                                   n_direct)

    def exit_paths(self, x, r, epsilon, n_paths, path_step, gen):
        return _diffusion_exit_paths(x, r, epsilon, n_paths, path_step, gen,
                                     self.rate)


# ---------------------------------------------------------------------------
# summability checkers

@dataclass
class ConvergenceReport:
    """Outcome of a ball-escape series convergence check."""

    partial_sums: list
    remainder_bound: float
    converges: bool
    parameters: dict

    def to_dict(self):
        return {
            "partial_sums": [float(v) for v in self.partial_sums],
            "remainder_bound": float(self.remainder_bound),
            "converges": bool(self.converges),
            "parameters": self.parameters,
        }


def _tail_integral(c, q, n_from):
    """Certified bound on sum_{n > N} exp(-c n**q) via the integral test."""
    if c <= 0 or q <= 0:
        return math.inf
    from scipy.special import gammaincc

    s = 1.0 / q
    return math.gamma(s) / (q * c ** s) * float(gammaincc(s, c * n_from ** q))


def _heat_escape_series(dim, epsilon, delta, beta, n_direct):
    """Heat-tail escape terms for n <= n_direct and a bound on the rest."""
    from scipy.special import gammaincc

    n = np.arange(1, n_direct + 1)
    radii = delta * n ** (1.0 / beta)
    terms = gammaincc(dim / 2.0, np.square(radii) / (2.0 * epsilon))
    # coordinate union bound: tail(r) <= dim * exp(-r^2 / (2 dim eps))
    c = delta * delta / (2.0 * dim * epsilon)
    return terms, dim * _tail_integral(c, 2.0 / beta, n_direct)


def _kawasaki_remainder_at(profile, epsilon, delta, beta, n_from, c2):
    """Certified bound on the escape series past n_from, split by jump count.

    Paths with fewer than J_n = ceil(n**(1/(2 beta))) jumps can only escape
    the ball of radius delta * n**(1/beta) through one jump of length at
    least delta * n**(1/(2 beta)) / slack; paths with more jumps are charged
    the Poisson count tail P(Pois(mu) >= J_n) <= exp(-mu - c2 * J_n), a
    Chernoff bound valid once J_n >= e**(1 + c2) * mu.  Both pieces sum to
    incomplete-gamma closed forms.  Returns (bound, first_index) with the
    bound covering all n > first_index >= n_from.
    """
    mu = profile.mass * epsilon
    half = 1.0 / (2.0 * beta)
    need = (math.exp(1.0 + c2) * mu) ** (2.0 * beta)
    start = max(n_from, int(math.ceil(need)) + 1)
    piece2 = math.exp(-mu) * _tail_integral(c2, half, start)
    x0 = start ** half
    slack = 1.0 + 1.0 / x0  # ceil(x) <= slack * x for x >= x0
    if isinstance(profile, GaussianProfile):
        d = profile.dim
        # P(|jump| > s) <= d exp(-s^2 / (2 d std^2)) coordinatewise
        c1 = (delta / slack) ** 2 / (2.0 * d * profile.std ** 2)
        k1 = math.sqrt(1.0 / (c1 * math.e))  # sup sqrt(u) exp(-c1 u / 2)
        piece1 = slack * d * k1 * _tail_integral(c1 / 2.0, 1.0 / beta, start)
    else:
        # compact support: a single jump cannot reach past the support
        # radius, so the piece dies once delta * n**half / slack exceeds it
        n_cut = (slack * profile.radius / delta) ** (2.0 * beta)
        cut = max(start, int(math.ceil(n_cut)))
        piece1 = 0.0
        for n in range(start + 1, cut + 1):
            j = math.ceil(n ** half)
            piece1 += min(1.0, j * float(profile.normalized_tail(
                delta * n ** (1.0 / beta) / j)))
    return piece1 + piece2, start


def _kawasaki_remainder(profile, epsilon, delta, beta, n_from, target):
    """Search Chernoff rates and cutoffs for the cheapest certified bound.

    Returns (bound, first_index): the escape series past first_index is at
    most bound.  Prefers the smallest first_index whose bound meets target;
    falls back to the tightest bound found if none does.
    """
    best_ok = None
    best_any = (math.inf, n_from)
    for c2 in (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        n_try = n_from
        for _ in range(24):
            bound, start = _kawasaki_remainder_at(profile, epsilon, delta,
                                                  beta, n_try, c2)
            if bound < best_any[0]:
                best_any = (bound, start)
            if bound <= target:
                if best_ok is None or start < best_ok[1]:
                    best_ok = (bound, start)
                break
            if start > 1 << 21:
                break
            n_try = max(start * 2, n_try * 2)
    return best_ok if best_ok is not None else best_any


def check_summability(kernel, alpha, m, epsilon, delta, target_tol=1e-10,
                      n_direct=4096):
    """Convergence check for the escape series with radii delta * n**(1/(alpha m)).

    Sums sup_{t <= epsilon} of the spatial tail at radius delta * n**(1/(alpha*m))
    over n.  The supremum in t is attained at epsilon for every kernel here
    (tails are stochastically monotone in t), which is unit-tested rather than
    assumed.  Terms up to n_direct use the kernel tail bound directly; the
    kernel's escape_series bounds the infinite remainder analytically.
    converges means the certified remainder is below target_tol.  A jump
    kernel whose remainder starts past _MAX_DIRECT_RADII terms raises
    RuntimeError (kawasaki_polynomial_certificate covers that case).
    """
    if alpha < 1 or m < 1 or epsilon <= 0 or delta <= 0:
        raise ValueError("need alpha >= 1, m >= 1, epsilon > 0, delta > 0")
    beta = alpha * m
    params = {"alpha": alpha, "m": m, "epsilon": epsilon, "delta": delta,
              "radius_exponent": 1.0 / beta, "variant": kernel.variant}
    return kernel.escape_report(params, epsilon, delta, beta, target_tol,
                                n_direct)


def kawasaki_polynomial_certificate(profile, alpha, m, epsilon=1.0, delta=1.0):
    """Escape-series certificate for jump kernels via the polynomial tail route.

    Uses the radius schedule delta * n**(1/m) and the profile tail bound
    tail_mass(r) <= C / r**alpha.  Each term is then at most
    C * E[N^(alpha+1)] / (mass * (delta n**(1/m))**alpha) with N the Poisson
    jump count, and the series converges exactly when alpha > m, with total
    bounded through the Riemann zeta value at alpha/m.  The moment's series
    is truncated where its dropped tail is certified below 1e-15 of the
    moment, and RuntimeError is raised where no truncation within
    _MAX_SERIES_TERMS terms is.  That bound covers the truncation only: the
    rounding of the log-space Poisson weights, which grows with
    mass * epsilon (5.6e-11 relative at 5000), is not in it.
    """
    if alpha <= 0 or m < 1 or epsilon <= 0 or delta <= 0:
        raise ValueError("bad parameters")
    from scipy.special import zeta

    c_poly = profile.poly_tail_constant(alpha)
    # E[N^(alpha+1)]: term n+1 / term n = r_n = mu/(n+1) * (1+1/n)**(alpha+1)
    # decreases in n, so the terms past n sum to at most term_n r_n/(1-r_n)
    mu, power = profile.mass * epsilon, alpha + 1.0
    n = max(int(mu + 10.0 * math.sqrt(mu + 1.0)), 8)
    while True:
        terms = _poisson_weights(mu, n) * np.arange(n + 1) ** power
        moment, ratio = float(np.sum(terms)), mu / (n + 1) * (1 + 1 / n) ** power
        if n > _MAX_SERIES_TERMS or not math.isfinite(moment):
            raise RuntimeError("moment of order %g of a Poisson(%g) count not "
                               "certified" % (power, mu))
        if ratio < 1.0 and terms[-1] * ratio <= 1e-15 * moment * (1 - ratio):
            break
        n *= 2
    s = alpha / m
    params = {"alpha": alpha, "m": m, "epsilon": epsilon, "delta": delta,
              "radius_exponent": 1.0 / m, "tail_constant": c_poly,
              "count_moment": moment, "series_exponent": s}
    per_n = c_poly * moment / (profile.mass * delta ** alpha)
    if s <= 1.0:
        return ConvergenceReport([], math.inf, False,
                                 params | {"note": "requires alpha > m"})
    n = np.arange(1, _POLY_PARTIAL_SUMS + 1)
    partial = np.cumsum(per_n * n ** (-s))
    zeta_total = per_n * float(zeta(s))
    remainder = zeta_total - float(partial[-1])
    params["total_bound"] = zeta_total
    return ConvergenceReport(list(partial), float(remainder), True, params)


# ---------------------------------------------------------------------------
# exit probabilities

def exit_probability(kernel, x, r, epsilon, n_paths, path_step, rng):
    """Empirical probability of leaving the ball of radius r by time epsilon.

    Brownian paths are sampled at resolution path_step (the estimate is a
    slight underestimate of the continuous-path exit probability); jump
    paths are evaluated exactly at their jump epochs.  Returns
    (estimate, stderr, bound) with the two-sided maximal-inequality bound
    2 * sup_{t <= epsilon} tail_bound(t, r/2), the supremum attained at
    epsilon by monotonicity.
    """
    if r <= 0 or epsilon <= 0:
        raise ValueError("need r > 0 and epsilon > 0")
    return kernel.exit_probability(np.asarray(x, dtype=float), r, epsilon,
                                   n_paths, path_step, rng)


def _diffusion_exit_paths(x, r, epsilon, n_paths, path_step, gen, rate=None):
    """Exit flags of Gaussian paths sampled every path_step from x.

    With a killing rate, paths are thinned before every step and a killed
    path stops without exiting.
    """
    n_steps = max(int(math.ceil(epsilon / path_step)), 1)
    h = epsilon / n_steps
    exited = np.zeros(n_paths, dtype=bool)
    pos = np.tile(x, (n_paths, 1))
    alive = np.ones(n_paths, dtype=bool)
    for _ in range(n_steps):
        act = alive & ~exited
        if not np.any(act):
            break
        if rate is not None:
            a = rate(pos[act])
            surv = gen.random(int(act.sum())) < np.exp(-a * h)
            idx = np.where(act)[0]
            alive[idx[~surv]] = False
            act = alive & ~exited
            if not np.any(act):
                break
        pos[act] += math.sqrt(h) * gen.standard_normal((int(act.sum()), len(x)))
        dist = np.linalg.norm(pos[act] - x, axis=1)
        idx = np.where(act)[0]
        exited[idx[dist > r]] = True
    return exited
