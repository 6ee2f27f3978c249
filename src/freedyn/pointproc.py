"""Random point configurations, starting measures and Poisson sampling.

A configuration is a finite simple point set (all points distinct) in a
domain.  Every starting measure of the dynamics speaks one protocol:
``sample_batch(n_rep, gen) -> (points, replica ids)``, ``sample(rng) ->
Configuration`` (a one-replica batch) and
``expected_product_functional(terms, tol)``.  A random measure (a
BatchMeasure) also gives ``sample_batch(n_rep, gen, ends=True) -> (points,
end rows)``: the same draws, each replica a run of rows, with no id per
point.  A Configuration is the point-mass measure at itself;
PoissonMeasure is the homogeneous Poisson measure and the one Poisson
configuration sampler.  Space-time Poisson arrivals (the immigration rain
of the dynamics) are drawn replica batch by replica batch with constant or
bounded inhomogeneous rate.  All draws come from SFC64 streams seeded from
a (seed, stream) pair through ``SeedSequence``, so every draw is
reproducible from that pair regardless of how work is scheduled.

The growth certificate ``theta_check`` reports, for an observed
configuration, the smallest integer K such that the ball counts around a
center satisfy count(B(r)) <= K * vol(B(r))**alpha for all probed integer
radii.  For a finite sample this is necessarily a window-truncated
statement; membership in the corresponding infinite-volume class is
certified only up to the probed radius.
"""

from __future__ import annotations

import ctypes
import io
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
# numpy loads its random package on first use: imported here, it loads
# with freedyn rather than inside a command's first draw
from numpy.random import SFC64, Generator, SeedSequence

from .functions import integrate_function
from .space import Domain, ball_volume

_MASK64 = (1 << 64) - 1


def _mix64(value):
    # splitmix64 finalizer; bijective on 64-bit words
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Random stream addressed by (seed, stream_id).

    The stream is numpy's SFC64 generator, its state hashed from the pair
    by ``SeedSequence(seed, spawn_key=(stream_id,))``.  The two integers
    enter the hash as separate fields, so distinct pairs are distinct
    inputs; the word list ``[seed, stream_id]`` is not, since numpy trims
    its high zero words (``[5, 0]`` hashes as ``[5]``).  Identical pairs
    give identical sequences; distinct pairs give statistically
    independent streams.  ``child`` derives a new stream from integer
    indices (replica number, particle number, ...), so parallel work can
    pre-assign streams and stay reproducible under any scheduling.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= self.seed <= _MASK64 and 0 <= self.stream_id <= _MASK64):
            raise ValueError("seed and stream_id must fit in 64 bits")

    def child(self, *indices):
        sid = self.stream_id
        for k in indices:
            sid = _mix64(sid ^ _mix64(int(k) & _MASK64))
        return RngStream(self.seed, sid)

    def generator(self):
        return Generator(SFC64(SeedSequence(self.seed,
                                            spawn_key=(self.stream_id,))))


def chunk_sizes(n_items, chunk):
    """Split n_items into ceil(n_items / chunk) near-equal sizes, larger first."""
    n_chunks = max(1, math.ceil(n_items / int(chunk)))
    base, extra = divmod(n_items, n_chunks)
    return [base + (1 if c < extra else 0) for c in range(n_chunks)]


def parallel_map_ordered(fn, n_tasks, threads=1):
    """Evaluate fn(0), ..., fn(n_tasks - 1) and return results in index order.

    With threads > 1 the tasks run on a thread pool, but the returned list
    is always ordered by task index.  Combined with per-task random streams
    this makes replicated estimates independent of the thread count.
    """
    if n_tasks < 0:
        raise ValueError("n_tasks must be >= 0")
    if threads <= 1 or n_tasks <= 1:
        return [fn(i) for i in range(n_tasks)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(fn, range(n_tasks)))


CHUNK = 20000

try:  # glibc; numpy has loaded ctypes already
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def release_free_memory():
    """Return the malloc heap's free pages to the system.

    glibc keeps freed memory mapped for reuse: past a chunk's arrays,
    their pages stay resident under whatever the process allocates next,
    and the next chunk's arrays land in their holes or extend the heap
    according to sizes a few kB apart.  malloc_trim(0) hands back every
    free page.  A no-op under other C libraries.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def run_chunks(worker, n_samples, rng, threads=1):
    """Run worker(size, generator) per chunk; concatenate results in order.

    The budget is split by chunk_sizes(n_samples, CHUNK), chunk c draws all
    of its randomness from rng.child(c).generator(), chunks may run on a
    thread pool, and results are concatenated in chunk order, so the output
    is a pure function of (seed, budget) for any thread count.  Workers are
    vectorized across replicas: a chunk holds one flat point array, not one
    Python loop turn per replica, and returns one row per replica.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("need a positive number of replicas")
    sizes = chunk_sizes(n_samples, CHUNK)

    def task(c_idx):
        return worker(sizes[c_idx], rng.child(c_idx).generator())

    return np.concatenate(parallel_map_ordered(task, len(sizes), threads))


def pair_into(acc, ids, values):
    """acc[r] += sum of the values whose replica id is r; returns acc."""
    hit = values != 0.0
    if np.any(hit):
        acc += np.bincount(ids.compress(hit), weights=values.compress(hit),
                           minlength=len(acc))
    return acc


def mean_se(values):
    """Mean and standard error of replica values; needs two replicas.
    One sum for the mean, one of the squared deviations: in numpy's order,
    the bits of values.mean() and values.std(ddof=1) / sqrt(n)."""
    n = len(values)
    if n < 2:
        raise ValueError("need at least 2 replicas")
    mean = np.add.reduce(values, dtype=float) / n
    dev = values - mean
    np.square(dev, out=dev)
    return float(mean), math.sqrt(np.add.reduce(dev) / (n - 1)) / math.sqrt(n)


def check_times(times):
    """Observation times as a tuple of floats; at least one, strictly
    increasing and > 0, or ValueError."""
    times = tuple(float(t) for t in times)
    if not times:
        raise ValueError("need at least one time")
    if not all(a < b for a, b in zip((0.0,) + times, times)):
        raise ValueError("times must be strictly increasing and > 0")
    return times


SIGMAS = 3.0  # the multiple of the standard error every verdict allows


@dataclass(frozen=True)
class Comparison:
    """A Monte Carlo estimate with its standard error next to a target."""

    estimate: float
    stderr: float
    target: float

    @property
    def error(self):
        return abs(self.estimate - self.target)

    @property
    def sigma_distance(self):
        """error in standard errors; 0/0 is 0 and x/0 is inf."""
        if self.stderr == 0.0:
            return 0.0 if self.error == 0.0 else math.inf
        return self.error / self.stderr

    def within(self, slack=0.0):
        """The verdict error <= 3 stderr + slack."""
        return self.error <= SIGMAS * self.stderr + slack


@dataclass(frozen=True)
class BoundedField:
    """Nonnegative measurable function together with a known sup bound.

    Used for inhomogeneous intensities and killing rates, where rejection
    sampling needs the bound.  ``func`` must accept an (n, dim) array and
    return length-n values in [0, bound].
    """

    func: object
    bound: float

    def __post_init__(self):
        if not self.bound >= 0:
            raise ValueError("bound must be >= 0")

    def __call__(self, points):
        return np.asarray(self.func(np.atleast_2d(points)), dtype=float)

    def scaled(self, factor):
        """The field times a constant factor >= 0, bound included."""
        return BoundedField(lambda pts: self(pts) * factor, self.bound * factor)


def as_field(intensity):
    """Coerce a constant or BoundedField to BoundedField."""
    if isinstance(intensity, BoundedField):
        return intensity
    value = float(intensity)
    return BoundedField(func=lambda pts: np.full(len(pts), value), bound=value)


class Configuration:
    """Immutable finite simple point configuration in a domain.

    It is also the point-mass starting measure at itself: its batches tile
    the points and draw nothing.
    """

    def __init__(self, points, domain):
        pts = np.array(points, dtype=float, copy=True)
        if pts.size == 0:
            pts = pts.reshape(0, domain.dim)
        if pts.ndim == 1:
            pts = pts.reshape(-1, domain.dim)
        if pts.ndim != 2 or pts.shape[1] != domain.dim:
            raise ValueError("points must be an (n, dim) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if domain.is_torus:
            if np.any(pts < 0) or np.any(pts >= domain.side):
                raise ValueError("torus points must lie in [0, side)")
        if len(pts) > 1:
            order = np.lexsort(pts.T[::-1])
            sorted_pts = pts[order]
            if np.any(np.all(sorted_pts[1:] == sorted_pts[:-1], axis=1)):
                raise ValueError("configuration must be simple (distinct points)")
        pts.setflags(write=False)
        self._points = pts
        self.domain = domain

    @property
    def points(self):
        return self._points

    def __len__(self):
        return len(self._points)

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return (self.domain == other.domain
                and self._points.shape == other.points.shape
                and bool(np.all(self._points == other.points)))

    def __repr__(self):
        return f"Configuration(n={len(self)}, dim={self.domain.dim}, mode={self.domain.mode})"

    def union(self, other):
        if other.domain != self.domain:
            raise ValueError("configurations live in different domains")
        return Configuration(np.vstack([self._points, other.points]), self.domain)

    def sample_batch(self, n_rep, gen):
        """n_rep copies of the points as (points, replica ids); no draw."""
        return (np.tile(self._points, (n_rep, 1)),
                np.repeat(np.arange(n_rep), len(self._points)))

    def sample(self, rng):
        return self

    def expected_product_functional(self, terms, tol=None):
        """prod over points of (1 + sum_j coef_j fn_j(x)); exact, no tol."""
        if len(self._points) == 0:
            return 1.0
        acc = np.ones(len(self._points))
        for coef, fn in terms:
            acc = acc + coef * np.asarray(fn(self._points), dtype=float)
        if np.any(acc <= 0.0):
            raise ValueError("product factor left (0, inf); functions too large")
        return float(math.exp(np.sum(np.log(acc))))

    def to_csv(self):
        buf = io.StringIO()
        buf.write("# domain: " + json.dumps(self.domain.to_dict(), sort_keys=True) + "\n")
        buf.write(",".join(f"x{i}" for i in range(self.domain.dim)) + "\n")
        for row in self._points:
            buf.write(",".join(repr(float(v)) for v in row) + "\n")
        return buf.getvalue()

    @staticmethod
    def from_csv(text):
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        # comment lines may precede the header, as in the CLI's CSV files
        while lines and lines[0].startswith("#") and \
                not lines[0].startswith("# domain:"):
            lines.pop(0)
        if not lines or not lines[0].startswith("# domain:"):
            raise ValueError("missing domain header")
        domain = Domain.from_dict(json.loads(lines[0][len("# domain:"):]))
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[2:]]
        pts = np.array(rows, dtype=float).reshape(len(rows), domain.dim)
        return Configuration(pts, domain)


def uniform_points(gen, n, lo, hi):
    """n uniform points in the box [lo, hi): lo + (hi - lo) * u, scaled and
    shifted in place column by column (a broadcast of the (n, dim) draw by
    (dim,) vectors costs several times as much per element)."""
    pts = gen.random((n, len(lo)))
    for col, a, b in zip(pts.T, lo, hi):
        col *= b - a
        col += a
    return pts


class BatchMeasure:
    """Random starting measure: sample() is a one-replica sample_batch."""

    def sample(self, rng):
        pts, _ = self.sample_batch(1, rng.generator())
        return Configuration(pts, self.domain)


@dataclass(frozen=True)
class PoissonMeasure(BatchMeasure):
    """Homogeneous Poisson starting measure with constant intensity."""

    domain: Domain
    intensity: float

    family = "poisson"

    def __post_init__(self):
        if not self.intensity > 0:
            raise ValueError("intensity must be > 0")

    @property
    def k1(self):
        return self.intensity

    def u2(self, distance):
        """Second cluster correlation; identically zero for Poisson."""
        return np.zeros_like(np.asarray(distance, dtype=float))

    def sample_batch(self, n_rep, gen, ends=False):
        """Sample n_rep independent configurations as (points, replica ids).

        With ends, the second array is instead each replica's end row, one
        past its last: replica r holds the rows from ends[r - 1] (0 for
        r = 0) up to ends[r].  Same draws, no id per point.  The points
        are uniform_points in the window; on a torus they lie in [0, side).
        """
        lo, hi = self.domain.lower, self.domain.upper
        volume = float(np.prod(hi - lo))
        counts = gen.poisson(self.intensity * volume, size=n_rep)
        total = int(counts.sum())
        pts = uniform_points(gen, total, lo, hi)
        if ends:
            return pts, np.cumsum(counts)
        ids = np.repeat(np.arange(n_rep), counts)
        return pts, ids

    def expected_product_functional(self, terms, tol=1e-10):
        """E[prod over points of (1 + sum_j coef_j fn_j)] in closed form."""
        total = sum(coef * integrate_function(fn, tol) for coef, fn in terms)
        return math.exp(self.intensity * total)


def _sampling_box(domain, lo, hi):
    lo = domain.lower if lo is None else np.asarray(lo, dtype=float)
    hi = domain.upper if hi is None else np.asarray(hi, dtype=float)
    if lo.shape != (domain.dim,) or hi.shape != (domain.dim,):
        raise ValueError("sampling box bounds must have length dim")
    if not np.all(hi > lo):
        raise ValueError("sampling box must have positive extent")
    if domain.is_torus and (np.any(lo < 0) or np.any(hi > domain.side)):
        raise ValueError("sampling box must lie inside the torus cell")
    return lo, hi


def sample_space_time_batch(n_rep, rate, horizon, lo, hi, gen):
    """Space-time Poisson arrivals of n_rep replicas on [lo, hi) x [0, horizon).

    rate is per unit volume per unit time (constant or BoundedField in the
    space variable).  Stream layout: the replica counts at the bound, the
    points, the times, then one thinning uniform per arrival (none when
    the batch is empty).  Returns (points, replica ids, times), replica
    by replica, unsorted in time.
    """
    field_ = as_field(rate)
    volume = float(np.prod(hi - lo))
    counts = gen.poisson(field_.bound * volume * horizon, size=n_rep)
    total = int(counts.sum())
    pts = uniform_points(gen, total, lo, hi)
    times = horizon * gen.random(total)
    ids = np.repeat(np.arange(n_rep), counts)
    if field_.bound > 0 and total > 0:
        accept = gen.random(total) * field_.bound < field_(pts)
        pts, ids, times = pts[accept], ids[accept], times[accept]
    return pts, ids, times


def sample_poisson_space_time(domain, rate, horizon, rng, lo=None, hi=None):
    """Sample space-time Poisson arrivals on box x (0, horizon].

    The one-replica sample_space_time_batch on rng's generator, with the
    box defaulting to the domain window.  Returns (points, times) with
    times sorted increasing.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if horizon == 0:
        return np.empty((0, domain.dim)), np.empty(0)
    lo, hi = _sampling_box(domain, lo, hi)
    pts, _, times = sample_space_time_batch(1, rate, horizon, lo, hi,
                                            rng.generator())
    order = np.argsort(times, kind="stable")
    return pts[order], times[order]


@dataclass(frozen=True)
class ThetaReport:
    """Window-truncated ball-growth certificate.

    kmin is the least integer K with count(r) <= K * vol(B(r))**alpha for
    every probed radius r = 1 .. r_max.  Such a K always exists for finite
    data, so the content is kmin itself plus the truncation note.
    """

    alpha: float
    center: tuple
    radii: tuple
    counts: tuple
    kmin: int
    note: str = field(default="certificate truncated to the probed radii")

    def to_dict(self):
        return asdict(self)


def theta_check(config, alpha, r_max, center=None):
    """Certify polynomial ball-count growth for a configuration.

    Counts points in balls of integer radii 1..r_max around the center
    (origin by default) and reports the smallest admissible growth constant
    at exponent alpha.  On a torus the Euclidean ball volume is used, which
    is only geometrically faithful for radii up to half the side.  A
    non-integral r_max is refused with ValueError, not rounded down.
    """
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    if isinstance(r_max, bool) or not float(r_max).is_integer():
        raise ValueError("r_max must be an integer")
    r_max = int(r_max)
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    center = np.asarray(np.zeros(config.domain.dim) if center is None
                        else center, dtype=float)
    radii = tuple(range(1, r_max + 1))
    # a point at distance exactly r counts in the ball of radius r
    dist = np.sort(config.domain.distance(config.points, center))
    counts = tuple(map(int, np.searchsorted(dist, radii, side="right")))
    kmin = 1
    for r, c in zip(radii, counts):
        denom = ball_volume(config.domain.dim, r) ** alpha
        kmin = max(kmin, int(np.ceil(c / denom - 1e-12)))
    return ThetaReport(alpha=float(alpha), center=tuple(float(v) for v in center),
                       radii=radii, counts=counts, kmin=kmin)
