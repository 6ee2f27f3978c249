"""One-particle (sub-)Markov kernels and their analytic semigroups.

Four kernels drive the particle dynamics:

* Brownian: standard heat flow, position x + sqrt(t) * Normal(0, Id).
* Death: the particle sits still and dies at rate a(x); the semigroup is
  multiplication by exp(-a(x) t).  This is the one-particle ingredient of
  the spatial birth-and-death dynamics.
* Kawasaki: a compound-Poisson jump process.  A Poisson clock with rate
  equal to the total mass of the jump profile rings; at each ring the
  particle adds an independent displacement drawn from the normalized
  profile.  ``propagate_batch`` draws a batch's ring counts by inversion:
  one uniform per row, compared with the Poisson cdf.  The stream then
  holds the displacements of the rows that jump, and of no other row: one
  normal vector per such row for a Gaussian profile, else the profile's
  draws for every ring.  The inversion's cost grows with mass * t, so a
  batch with some mass * t above 16 draws its counts with numpy's Poisson
  sampler instead; the acceptance criteria, demos and benchmark all have
  mass * t <= 4.
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize
from scipy.special import gammainc, gammaincc, pdtr, zeta

from .functions import (NumericFunction, gauss_smooth, gauss_smooth_box_torus,
                        integrate_function)
from .pointproc import as_field

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
        s = np.maximum(np.asarray(s, dtype=float), 0.0)
        return gammaincc(self.dim / 2.0, np.square(s) / (2.0 * self.std ** 2))

    def tail_mass(self, r):
        """Profile mass outside the centered ball of radius r."""
        return self.mass * self.normalized_tail(r)

    def sample_displacements(self, gen, n):
        return self.std * gen.standard_normal((n, self.dim))

    def convpow_density(self, n, pts):
        """Density of the n-fold self-convolution of the normalized profile."""
        if n < 1:
            raise ValueError("n >= 1")
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        var = n * self.std ** 2
        norm = (2.0 * math.pi * var) ** (-self.dim / 2.0)
        return norm * np.exp(-np.sum(np.square(pts), axis=1) / (2.0 * var))

    def smooth(self, func, n, pts, torus_side=None):
        """(n-fold normalized self-convolution * func) at pts."""
        var = n * self.std ** 2
        if torus_side is not None:
            return gauss_smooth_box_torus(func, var, pts, torus_side)
        return gauss_smooth(func, var, pts)

    def scaled(self, eps):
        if not eps > 0:
            raise ValueError("eps must be > 0")
        return GaussianProfile(self.dim, self.mass, self.std / eps)

    def poly_tail_constant(self, alpha):
        """Numeric constant C with tail_mass(r) <= C / r**alpha for all r > 0.

        The supremum of r**alpha * tail_mass(r) is attained at finite r
        (Gaussian decay beats any power); located numerically and padded.
        """
        def neg(logr):
            r = math.exp(logr)
            return -(r ** alpha) * float(self.tail_mass(r))

        res = optimize.minimize_scalar(neg, bounds=(-6, 6), method="bounded")
        grid = np.exp(np.linspace(-6, 6, 4001))
        best = float(np.max(grid ** alpha * self.tail_mass(grid)))
        return 1.001 * max(best, -float(res.fun))


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
        surf = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
        val, _ = integrate.quad(
            lambda s: math.exp(1.0 - 1.0 / (1.0 - s * s)) * s ** (dim - 1)
            if s < 1.0 else 0.0, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        self._shape_integral = radius ** dim * surf * val
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

    def convpow_density(self, n, pts):
        if self.dim != 1:
            raise NotImplementedError("bump convolution powers implemented in dim 1")
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        grid, dens = self._convpow_grid(n)
        return np.interp(pts[:, 0], grid, dens, left=0.0, right=0.0)

    def _convpow_grid(self, n, n_grid=1 << 13):
        half = self.radius * n * 1.05 + 1.0
        grid = np.linspace(-half, half, n_grid)
        dx = grid[1] - grid[0]
        base = self.density(grid[:, None]) / self.mass
        spec = np.fft.rfft(np.fft.ifftshift(base)) * dx
        # n-fold convolution via the spectrum; phase-safe because the
        # grid is symmetric and the profile is even
        conv = np.fft.fftshift(np.fft.irfft(spec ** n, n=n_grid)) / dx
        conv = np.maximum(conv, 0.0)
        # normalize away accumulated FFT rounding
        conv = conv / max(np.trapezoid(conv, grid), 1e-300)
        return grid, conv

    def smooth(self, func, n, pts, torus_side=None):
        if self.dim != 1:
            raise NotImplementedError("bump smoothing implemented in dim 1")
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        grid, dens = self._convpow_grid(n)
        out = np.empty(len(pts))
        for i, x in enumerate(pts):
            shifted = x[0] + grid
            if torus_side is not None:
                shifted = np.mod(shifted, torus_side)
            vals = func(shifted[:, None])
            out[i] = np.trapezoid(vals * dens, grid)
        return out

    def scaled(self, eps):
        if not eps > 0:
            raise ValueError("eps must be > 0")
        return BumpProfile(self.dim, self.mass, self.radius / eps)

    def poly_tail_constant(self, alpha):
        # tail vanishes beyond the support radius, so C = mass * radius**alpha works
        return self.mass * self.radius ** alpha


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


def _jump_counts(lam, gen, n):
    """Poisson(lam) clock counts of n rows, by inversion of one uniform each.

    lam is a 0-d array shared by all rows or one mean per row.  Row i draws
    u_i = gen.random() and rings k_i times, the first k with u_i < F(k) for
    F = pdtr(., lam_i) the Poisson cdf (so #{k >= 0 : F(k) <= u_i}); k steps
    up over the rows still ringing, so the cost grows with max(lam).  A
    batch whose largest mean exceeds _MAX_INVERSION_MEAN draws all its
    counts with gen.poisson instead.  Either way a shared mean and a
    constant per-row one give the same bits.  Returns (hop, k): the rows
    that ring at least once, ascending, and their counts.
    """
    if not np.all(np.isfinite(lam)):
        raise ValueError("jump clock mean must be finite")
    if np.max(lam, initial=0.0) > _MAX_INVERSION_MEAN:
        counts = gen.poisson(lam, size=n)
        hop = np.flatnonzero(counts)
        return hop, counts[hop]
    u = gen.random(n)
    hop = np.flatnonzero(u >= pdtr(0, lam))
    u = u[hop]
    if lam.ndim:
        lam = lam[hop]
    k = np.ones(len(hop), dtype=np.intp)
    # u and lam shrink to the rows still ringing; ringing holds their
    # positions in hop (None while that is every row, which saves an arange)
    ringing, level = None, 1
    while True:
        keep = np.flatnonzero(u >= pdtr(level, lam))
        if not len(keep):
            return hop, k
        ringing = keep if ringing is None else ringing[keep]
        u = u[keep]
        if lam.ndim:
            lam = lam[keep]
        k[ringing] += 1
        level += 1


def _heat_tail(dim, t, r):
    """Exact tail P(|sqrt(t) Z| > r) via the chi-square upper tail."""
    if t <= 0 or r <= 0:
        raise ValueError("need t > 0 and r > 0")
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
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.tail_bound(t_max, mid) > target:
                lo = mid
            else:
                hi = mid
        return hi

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
        mean = float(np.mean(exited))
        stderr = float(np.std(exited, ddof=1) / math.sqrt(n_paths)) \
            if n_paths > 1 else 0.0
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

            def func(pts):
                return gauss_smooth_box_torus(phi, t, pts, side)

            return NumericFunction(func, np.zeros(self.domain.dim),
                                   np.full(self.domain.dim, side), phi.bound)
        pad = _effective_pad(t)

        def func(pts):
            return gauss_smooth(phi, t, pts)

        return NumericFunction(func, phi.support_lo - pad, phi.support_hi + pad,
                               phi.bound)

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

    def propagate_batch(self, pts, dts, gen):
        n = len(pts)
        dts = _batch_times(dts, n)
        # stream layout: one uniform per row for its jump count (a Poisson
        # draw per row once some mass * t exceeds 16), then the displacements
        # of the rows that jump only (Gaussian: one normal vector per such
        # row; otherwise the profile's draws, count by count)
        hop, k = _jump_counts(self.clock_rate * dts, gen, n)
        out = np.array(pts, dtype=float)
        if isinstance(self.profile, GaussianProfile):
            # sum of k i.i.d. centered Gaussians is Gaussian with k-fold variance
            if len(hop):
                step = gen.standard_normal((len(hop), pts.shape[1]))
                step *= (self.profile.std * np.sqrt(k))[:, None]
                out[hop] += step
        else:
            total = int(k.sum())
            if total:
                draws = self.profile.sample_displacements(gen, total)
                owner = np.repeat(hop, k)
                for j in range(pts.shape[1]):
                    out[:, j] += np.bincount(owner, weights=draws[:, j],
                                             minlength=n)
        return self.domain.wrap(out, copy=False), np.ones(n, dtype=bool)

    def jump_times(self, t, gen):
        n = gen.poisson(self.clock_rate * t)
        return np.sort(t * gen.random(n))

    def series_truncation(self, t, tol, bound=1.0):
        """Smallest N with Poisson(mass*t) tail * bound <= tol."""
        mu = self.clock_rate * t
        n = max(int(mu + 10.0 * math.sqrt(mu + 1.0)), 8)
        while bound * float(gammainc(n + 1, mu)) > tol and n < 100000:
            n *= 2
        while n > 1 and bound * float(gammainc(n, mu)) <= tol:
            n -= 1
        return n

    def semigroup(self, phi, t, tol=DEFAULT_TOL):
        if t < 0:
            raise ValueError("t must be >= 0")
        if t == 0:
            return phi
        mu = self.clock_rate * t
        n_max = self.series_truncation(t, tol, bound=max(phi.bound, 1e-300))
        log_weights = -mu + np.arange(n_max + 1) * math.log(mu) - \
            np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, n_max + 1))]))
        weights = np.exp(log_weights)
        profile = self.profile
        side = self.domain.side if self.domain.is_torus else None

        def func(pts):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            acc = weights[0] * phi(pts)
            for n in range(1, n_max + 1):
                if weights[n] * phi.bound < tol * 1e-3:
                    continue
                acc = acc + weights[n] * profile.smooth(phi, n, pts, torus_side=side)
            return acc

        if self.domain.is_torus:
            return NumericFunction(func, np.zeros(self.domain.dim),
                                   np.full(self.domain.dim, self.domain.side),
                                   phi.bound)
        if isinstance(profile, GaussianProfile):
            pad = _effective_pad(n_max * profile.std ** 2)
        else:
            pad = n_max * profile.radius + 1e-9
        return NumericFunction(func, phi.support_lo - pad, phi.support_hi + pad,
                               phi.bound)

    def survival(self, x, t):
        return 1.0

    def atom_weight(self, t):
        """Probability of no jump by time t (the transition law's atom)."""
        return math.exp(-self.clock_rate * t)

    def tail_bound(self, t, r, tol=1e-14):
        """Union bound over jump counts with certified series remainder.

        P(|X_t - x| > r) <= sum_k Pois_k(mass*t) * k * tail(r/k) plus the
        exact remainder mass*t * P(Pois(mass*t) >= N) for the dropped terms.
        Nondecreasing in t (stochastically more jumps, monotone summand).
        """
        if t <= 0 or r <= 0:
            raise ValueError("need t > 0 and r > 0")
        return float(self.tail_bound_batch(t, np.array([r]))[0])

    def tail_bound_batch(self, t, radii):
        """tail_bound vectorized over an array of radii."""
        radii = np.asarray(radii, dtype=float)
        if t <= 0 or np.any(radii <= 0):
            raise ValueError("need t > 0 and radii > 0")
        mu = self.clock_rate * t
        n_terms = max(int(mu + 12.0 * math.sqrt(mu + 1.0)), 32)
        k = np.arange(1, n_terms + 1)
        log_w = -mu + k * math.log(mu) - np.cumsum(np.log(k))
        weights = np.exp(log_w) * k
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
    grid (dimension one, full space), with documented O(h) time-step bias.
    """

    variant = "killed_brownian"
    conservative = False

    def __init__(self, domain, rate, h_kill=None):
        self.domain = domain
        self.rate = as_field(rate)
        self.h_kill = h_kill
        # constants get exact semigroup and survival formulas
        self._rate_const = float(rate) if isinstance(rate, (int, float)) else None
        self._constant_rate = self._rate_const is not None

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
        if self._constant_rate:
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

    def survival(self, x, t, n_paths=20000, rng=None):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if t == 0:
            return 1.0
        if self._constant_rate:
            return math.exp(-self._rate_const * t)
        if rng is None:
            raise ValueError("nonconstant killing survival needs an RngStream")
        gen = rng.generator()
        pts = np.repeat(x, n_paths, axis=0)
        _, alive = self.propagate_batch(pts, t, gen)
        return float(alive.mean())

    def tail_bound(self, t, r):
        # killing only removes mass, so the conservative heat tail dominates
        return _heat_tail(self.domain.dim, t, r)

    def image_integral(self, phi, image, t, tol):
        if self._constant_rate:
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
# operation wrappers

def apply_semigroup(kernel, phi, t, x, tol=DEFAULT_TOL):
    """Semigroup image of phi at time t, evaluated at a single point."""
    image = kernel.semigroup(phi, t, tol=tol)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return float(image(x)[0])


def killing_profile(kernel):
    """Killing rate g with survival = 1 - g(x) t + o(t); zero if conservative."""
    if kernel.conservative:
        return as_field(0.0)
    return kernel.rate


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
    s = 1.0 / q
    return math.gamma(s) / (q * c ** s) * float(gammaincc(s, c * n_from ** q))


def _heat_escape_series(dim, epsilon, delta, beta, n_direct):
    """Heat-tail escape terms for n <= n_direct and a bound on the rest."""
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
    converges means the certified remainder is below target_tol.
    """
    if alpha < 1 or m < 1 or epsilon <= 0 or delta <= 0:
        raise ValueError("need alpha >= 1, m >= 1, epsilon > 0, delta > 0")
    beta = alpha * m
    params = {"alpha": alpha, "m": m, "epsilon": epsilon, "delta": delta,
              "radius_exponent": 1.0 / beta, "variant": kernel.variant}
    return kernel.escape_report(params, epsilon, delta, beta, target_tol,
                                n_direct)


def kawasaki_polynomial_certificate(profile, alpha, m, epsilon=1.0, delta=1.0,
                                    n_partial=64):
    """Escape-series certificate for jump kernels via the polynomial tail route.

    Uses the radius schedule delta * n**(1/m) and the profile tail bound
    tail_mass(r) <= C / r**alpha.  Each term is then at most
    C * E[N^(alpha+1)] / (mass * (delta n**(1/m))**alpha) with N the Poisson
    jump count, and the series converges exactly when alpha > m, with total
    bounded through the Riemann zeta value at alpha/m.
    """
    if alpha <= 0 or m < 1 or epsilon <= 0 or delta <= 0:
        raise ValueError("bad parameters")
    c_poly = profile.poly_tail_constant(alpha)
    mu = profile.mass * epsilon
    # E[N^(alpha+1)] by direct series, terms vanish factorially
    moment, k, term = 0.0, 1, None
    while k < 2000:
        log_t = -mu + k * math.log(mu) - math.lgamma(k + 1) + (alpha + 1) * math.log(k)
        term = math.exp(log_t)
        moment += term
        if term < 1e-17 * max(moment, 1.0) and k > mu + 5:
            break
        k += 1
    s = alpha / m
    params = {"alpha": alpha, "m": m, "epsilon": epsilon, "delta": delta,
              "radius_exponent": 1.0 / m, "tail_constant": c_poly,
              "count_moment": moment, "series_exponent": s}
    per_n = c_poly * moment / (profile.mass * delta ** alpha)
    if s <= 1.0:
        return ConvergenceReport([], math.inf, False,
                                 params | {"note": "requires alpha > m"})
    n = np.arange(1, n_partial + 1)
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


def default_buffer_width(kernel, t_max, target=1e-4):
    """Smallest radius with tail_bound(t_max, radius) <= target (0: no motion)."""
    return kernel.buffer_width(t_max, target)
