"""Laplace functionals, correlation estimation, Ursell conversion, generators.

The verification layer: closed-form Laplace functionals (product form for
conservative kernels, the two-factor form for killing with immigration, and
the birth-and-death joint multi-time form) that the replica-batch
estimators in ``experiments`` are checked against, factorial-moment
estimation of correlation functions from per-replica bin counts, exact
set-partition conversion between correlation and Ursell tables, and the
three generators with finite-difference consistency checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, combinations_with_replacement

import numpy as np

from .dynamics import GlauberDynamics, march_chunks
from .functions import box_quad, integrate_function, support_box
from .kernels import BrownianKernel, DeathKernel, KawasakiKernel
from .pointproc import Comparison, check_times, mean_se, pair_into

QUAD_TOL = 1e-8
_MAX_BIN_TUPLES = 20000  # most bin tuples a correlation grid may have


# ---------------------------------------------------------------------------
# pairings

def pairing(phi, config):
    """Sum of phi over the configuration's points (0 for the empty one)."""
    if len(config) == 0:
        return 0.0
    return float(np.sum(phi(config.points)))


# ---------------------------------------------------------------------------
# analytic Laplace functionals

def poisson_laplace_exponent(phi, intensity, tol=QUAD_TOL):
    """log E[exp<phi, Poisson(intensity)>] = intensity * int (e^phi - 1)."""

    def integrand(pts):
        return np.expm1(np.asarray(phi(pts), dtype=float))

    val, _ = box_quad(integrand, phi.support_lo, phi.support_hi, tol)
    return float(intensity) * val


def analytic_laplace_markov(kernel, config, phi, t, tol=QUAD_TOL):
    """prod over points of (1 + (T_t phi)(x)) for a conservative kernel."""
    if not kernel.conservative:
        raise ValueError("kernel kills mass; use analytic_laplace_submarkov")
    if len(config) == 0:
        return 1.0
    image = kernel.semigroup(phi, t, tol=tol)
    vals = np.asarray(image(config.points), dtype=float)
    if np.any(vals <= -1.0):
        raise RuntimeError("semigroup image left class D")
    return float(math.exp(np.sum(np.log1p(vals))))


def analytic_laplace_submarkov(kernel, config, phi, t, z, tol=QUAD_TOL):
    """Two-factor closed form for killing with immigration at intensity z.

    exp<log(1 + T_t phi), gamma> * exp(z * int (phi - T_t phi) dx).
    """
    if kernel.conservative:
        raise ValueError("conservative kernel; use analytic_laplace_markov")
    if not z > 0:
        raise ValueError("z must be > 0")
    image = kernel.semigroup(phi, t, tol=tol)
    if len(config):
        vals = np.asarray(image(config.points), dtype=float)
        if np.any(vals <= -1.0):
            raise RuntimeError("semigroup image left class D")
        first = float(np.sum(np.log1p(vals)))
    else:
        first = 0.0
    deficit = integrate_function(phi, tol) - kernel.image_integral(
        phi, image, t, tol)
    return math.exp(first + z * deficit)


# ---------------------------------------------------------------------------
# birth-and-death joint multi-time Laplace functional

def _index_tuples(n):
    # nonempty increasing tuples of {0..n-1}, by subset bitmask
    for mask in range(1, 1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


def glauber_joint_laplace(start, a_const, z, times, phi_list, tol=QUAD_TOL):
    """Closed-form joint Laplace functional of the birth-and-death process.

    The process has constant death rate a_const and immigration intensity z;
    the value of E[prod_i exp<log(1+phi_i), gamma_{t_i}>] factorizes as

      exp[ sum over increasing index tuples (i_1<...<i_k) of
           z (1-e^{-a t_{i_1}}) e^{-a (t_{i_k}-t_{i_1})} <phi_{i_1}...phi_{i_k}> ]

    times the start's expected_product_functional of (1 + sum over tuples
    e^{-a t_{i_k}} (phi_{i_1}...phi_{i_k})): for a fixed configuration the
    product over its points, for a Poisson(z0) start exp[z0 <sum-term>].
    """
    if not hasattr(start, "expected_product_functional"):
        raise ValueError("unsupported starting measure")
    times = check_times(times)
    n = len(times)
    if n > 12:
        raise ValueError("too many times for subset enumeration (max 12)")
    phis = list(phi_list)
    if len(phis) != n:
        raise ValueError("need one test function per time")
    a = float(a_const)

    exponent = 0.0
    terms = []  # (coefficient e^{-a t_last}, product function)
    for tup in _index_tuples(n):
        prod_fn = reduce(lambda f, g: f.product(g), [phis[i] for i in tup])
        integral = integrate_function(prod_fn, tol)
        first, last = times[tup[0]], times[tup[-1]]
        exponent += z * (1.0 - math.exp(-a * first)) * \
            math.exp(-a * (last - first)) * integral
        terms.append((math.exp(-a * last), prod_fn))
    return math.exp(exponent) * start.expected_product_functional(terms, tol)


# ---------------------------------------------------------------------------
# correlation functions on bin grids

@dataclass
class CorrelationGrid:
    """Estimated order-n correlation function on products of grid bins.

    index_tuples holds nondecreasing tuples of flat bin indices; the
    estimate for a tuple applies to the (symmetrized) product of those
    bins.  centers maps a flat bin index to its center point.
    """

    order: int
    edges: list
    index_tuples: list
    estimates: np.ndarray
    stderrs: np.ndarray
    n_samples: int

    def bin_center(self, flat):
        return _flat_center(self.edges, flat)

    def to_csv(self):
        headers = [f"x{j}_{ax}" for j in range(self.order)
                   for ax in range(len(self.edges))]
        lines = [",".join(headers + ["estimate", "stderr"])]
        for t, est, se in zip(self.index_tuples, self.estimates, self.stderrs):
            row = []
            for flat in t:
                row.extend(f"{c:.10g}" for c in _flat_center(self.edges, flat))
            row.append(repr(float(est)))
            row.append(repr(float(se)))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _flat_center(edges, flat):
    nb = [len(e) - 1 for e in edges]
    idx = []
    for ax in reversed(range(len(nb))):
        flat, r = divmod(flat, nb[ax])
        idx.append(r)
    idx.reverse()
    return [0.5 * (edges[ax][i] + edges[ax][i + 1]) for ax, i in
            enumerate(idx)]


def correlation_edges(domain, bins_per_axis):
    """Bin edges per axis of the correlation grid over the domain window."""
    nb = np.broadcast_to(bins_per_axis, (domain.dim,))
    return [np.linspace(domain.lower[ax], domain.upper[ax], int(nb[ax]) + 1)
            for ax in range(domain.dim)]


def bin_counts(pts, ids, n_rep, domain, edges):
    """(n_rep, n_bins) bin counts of a (pts, ids) batch; edge bins clip."""
    nb = [len(e) - 1 for e in edges]
    n_flat = int(np.prod(nb))
    flat = np.zeros(len(pts), dtype=np.int64)
    for ax in range(domain.dim):
        width = (domain.upper[ax] - domain.lower[ax]) / nb[ax]
        i = np.clip(((pts[:, ax] - domain.lower[ax]) / width)
                    .astype(np.int64), 0, nb[ax] - 1)
        flat = flat * nb[ax] + i
    counts = np.bincount(ids * n_flat + flat, minlength=n_rep * n_flat)
    return counts.reshape(n_rep, n_flat)


def check_correlation_grid(order, n_bins):
    """Refuse an order outside 1..4 or a grid with too many bin tuples."""
    if order < 1 or order > 4:
        raise ValueError("order must be in 1..4")
    if math.comb(n_bins + order - 1, order) > _MAX_BIN_TUPLES:
        raise ValueError("bin grid too fine for this order")


def correlations_from_counts(counts, order, edges):
    """Factorial-moment estimate of the order-n correlation on a bin grid.

    counts holds one row of bin counts per replica (see bin_counts).  For
    bins B_1..B_r with multiplicities m_1..m_r (sum = n), the expected
    number of ordered distinct n-tuples of points hitting the bin pattern is
    int over the bin product of k^(n), i.e. the product of falling
    factorials of the bin counts estimates k^(n) * prod vol(B_j)^{m_j}.
    This equals the symmetrized subset-sum estimator (n! over unordered
    subsets) termwise.

    The counts are transposed once to one contiguous row per bin and each
    bin's falling factorials are built once, one pass per factor (order
    copies of the table); each cell then multiplies its bins' rows and
    takes two sums through mean_se.  One replica gives stderr 0.
    """
    n_rep, n_flat = counts.shape
    check_correlation_grid(order, n_flat)
    if n_rep < 1:
        raise ValueError("empty sample set")
    vol_bin = float(np.prod([(e[-1] - e[0]) / (len(e) - 1) for e in edges]))
    # falling[m - 1][b]: the m-factor falling factorial of bin b's counts
    falling = [np.ascontiguousarray(counts.T, dtype=float)]
    for j in range(1, order):
        falling.append(falling[-1] * (falling[0] - j))

    tuples = list(combinations_with_replacement(range(n_flat), order))
    estimates = np.empty(len(tuples))
    stderrs = np.empty(len(tuples))
    for i, tup in enumerate(tuples):
        (b, m), *rest = Counter(tup).items()
        vals = falling[m - 1][b]
        for b, m in rest:
            vals = vals * falling[m - 1][b]
        # one replica: its sum is its mean (and turns -0.0 into 0.0)
        estimates[i], stderrs[i] = (mean_se(vals) if n_rep > 1
                                    else (vals.sum(), 0.0))
    denom = vol_bin ** order
    return CorrelationGrid(order, edges, tuples, estimates / denom,
                           stderrs / denom, n_rep)


def estimate_correlations(samples, order, bins_per_axis):
    """Correlation grid of a list of Configurations, one replica each."""
    if len(samples) == 0:
        raise ValueError("empty sample set")
    domain = samples[0].domain
    edges = correlation_edges(domain, bins_per_axis)
    pts = np.concatenate([cfg.points for cfg in samples])
    ids = np.repeat(np.arange(len(samples)), [len(cfg) for cfg in samples])
    counts = bin_counts(pts, ids, len(samples), domain, edges)
    return correlations_from_counts(counts, order, edges)


# ---------------------------------------------------------------------------
# Ursell (truncated correlation) conversion

def set_partitions(items):
    """All partitions of items into nonempty blocks (frozensets)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k in range(len(rest) + 1):
        for combo in combinations(rest, k):
            block = frozenset((first,) + combo)
            remaining = [x for x in rest if x not in block]
            for sub in set_partitions(remaining):
                yield [block] + sub


@dataclass
class UrsellTable:
    """Correlation and Ursell values indexed by subsets of labeled points.

    Both dicts are keyed by frozensets of labels; either side may be
    filled and the other derived.
    """

    labels: tuple
    correlations: dict = None
    ursell: dict = None

    def _subsets(self, side, name):
        """Every nonempty label subset, smallest first, once the named side
        of the table is checked to hold each."""
        if len(self.labels) > 8:
            raise ValueError("over 8 labels is too costly (Bell numbers)")
        if side is None:
            raise ValueError(f"{name} side of the table is empty")
        subsets = [frozenset(c) for size in range(1, len(self.labels) + 1)
                   for c in combinations(self.labels, size)]
        for eta in subsets:
            if eta not in side:
                raise ValueError(f"{name} missing subset {set(eta)}")
        return subsets


def _partition_sum(u, eta, min_blocks):
    """Sum over the partitions of eta into at least min_blocks blocks of
    the product of u over the blocks."""
    total = 0.0
    for part in set_partitions(sorted(eta)):
        if len(part) >= min_blocks:
            total += math.prod(u[block] for block in part)
    return total


def ursell_from_correlations(table):
    """Fill the table's Ursell side from its correlation side.

    Inverts k(eta) = sum over partitions of eta of prod u(block) by
    pulling out the single-block partition:
    u(eta) = k(eta) - sum over partitions with >= 2 blocks.
    """
    u = {}
    for eta in table._subsets(table.correlations, "correlation"):
        u[eta] = table.correlations[eta] - _partition_sum(u, eta, 2)
    table.ursell = u
    return table


def correlations_from_ursell(table):
    """Fill the correlation side: k(eta) = sum over partitions prod u."""
    table.correlations = {
        eta: _partition_sum(table.ursell, eta, 1)
        for eta in table._subsets(table.ursell, "ursell")}
    return table


# ---------------------------------------------------------------------------
# cylinder functions and generators

class CylinderFunction:
    """F(gamma) = outer(<phi_1, gamma>, ..., <phi_N, gamma>).

    outer maps an array of inner-pairing vectors, shape (..., N), to the
    values of F, shape (...): a single vector gives one value and an (m, N)
    matrix gives one value per row.  gradient and hessian are its
    derivative evaluators at a single vector (hessian may be None when no
    diffusion generator will be applied).
    """

    def __init__(self, outer, gradient, hessian, phis):
        self.outer = outer
        self.gradient = gradient
        self.hessian = hessian
        self.phis = list(phis)

    def inner(self, config):
        return np.array([pairing(p, config) for p in self.phis])

    def inner_at(self, pts):
        """Matrix of phi_j values at the given points, shape (n_pts, N)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.column_stack([np.asarray(p(pts), dtype=float)
                                for p in self.phis])

    def __call__(self, config):
        return float(self.outer(self.inner(config)))

    def value_at_vector(self, v):
        return float(self.outer(np.asarray(v, dtype=float)))

    @staticmethod
    def linear(phi):
        return CylinderFunction(lambda v: v[..., 0],
                                lambda v: np.array([1.0]),
                                lambda v: np.zeros((1, 1)), [phi])

    @staticmethod
    def exp_pairing(phi):
        """F = exp(<phi, gamma>); bounded by 1 for nonpositive phi."""
        return CylinderFunction(lambda v: np.exp(v[..., 0]),
                                lambda v: np.array([math.exp(v[0])]),
                                lambda v: np.array([[math.exp(v[0])]]), [phi])

    @staticmethod
    def product_pairing(phi1, phi2):
        """F = <phi1, gamma> * <phi2, gamma>."""
        return CylinderFunction(
            lambda v: v[..., 0] * v[..., 1],
            lambda v: np.array([v[1], v[0]]),
            lambda v: np.array([[0.0, 1.0], [1.0, 0.0]]), [phi1, phi2])


def generator_apply(F, config, dynamics_spec):
    """Evaluate the matching generator formula at the configuration.

    dynamics_spec selects the formula: a Brownian kernel applies the
    diffusion generator through the cylinder chain rule, a GlauberDynamics
    applies the birth-and-death difference formula, and a Kawasaki kernel
    applies the jump-difference formula.  Births and jump targets are
    integrated, to QUAD_TOL, over the phis' _cell_box.
    """
    if isinstance(dynamics_spec, BrownianKernel):
        return _generator_brownian(F, config)
    if isinstance(dynamics_spec, GlauberDynamics):
        return _generator_glauber(F, config, dynamics_spec)
    if isinstance(dynamics_spec, KawasakiKernel):
        return _generator_kawasaki(F, config, dynamics_spec)
    raise ValueError("unsupported dynamics for generator_apply")


def _cell_box(phis, domain):
    """The phis' support box, cut to the cell on a torus: where a birth or
    a jump can land and F sees it."""
    lo, hi = support_box(phis)
    if domain.is_torus:
        lo = np.maximum(lo, domain.lower)
        hi = np.maximum(np.minimum(hi, domain.upper), lo)
    return lo, hi


def _generator_brownian(F, config):
    """(1/2) sum over x of the Laplacian of F in the x coordinate.

    Chain rule through the cylinder structure:
    (1/2) sum_x [ sum_{j,k} d2outer_{jk} grad phi_j(x).grad phi_k(x)
                  + sum_j douter_j laplacian phi_j(x) ].
    """
    if len(config) == 0:
        return 0.0
    if F.hessian is None:
        raise ValueError("diffusion generator needs the outer hessian")
    v = F.inner(config)
    grad_outer = np.asarray(F.gradient(v), dtype=float)
    hess_outer = np.asarray(F.hessian(v), dtype=float)
    pts = config.points
    n_phi = len(F.phis)
    grads = [p.gradient(pts) for p in F.phis]       # each (n_pts, dim)
    laps = [p.laplacian(pts) for p in F.phis]       # each (n_pts,)
    total = 0.0
    for j in range(n_phi):
        total += grad_outer[j] * float(np.sum(laps[j]))
        for k in range(n_phi):
            dots = np.sum(grads[j] * grads[k], axis=1)
            total += hess_outer[j, k] * float(np.sum(dots))
    return 0.5 * total


def _generator_glauber(F, config, spec):
    """sum_x a(x)(F(gamma without x) - F(gamma))
       + z * int a(x)(F(gamma with x) - F(gamma)) dx."""
    v = F.inner(config)
    base = F.value_at_vector(v)
    death = 0.0
    if len(config):
        rates = spec.rate(config.points)
        death = float(np.sum(rates * (F.outer(v - F.inner_at(config.points))
                                      - base)))
    birth = 0.0
    if spec.intensity > 0:
        lo, hi = _cell_box(F.phis, config.domain)

        def integrand(pts):
            return spec.rate(pts) * (F.outer(v + F.inner_at(pts)) - base)

        birth = spec.intensity * box_quad(integrand, lo, hi, QUAD_TOL)[0]
    return death + birth


def _generator_kawasaki(F, config, kernel):
    """sum_x int jump_profile(x - y) (F(gamma move x->y) - F(gamma)) dy.

    Split per particle as rate * (F(gamma without x) - F(gamma)) plus an
    integral over the compact union support of the phis, where the
    integrand vanishes outside it; one array-valued quadrature gives the
    integral of every particle.
    """
    if len(config) == 0:
        return 0.0
    domain = kernel.domain
    v = F.inner(config)
    base = F.value_at_vector(v)
    x = config.points
    removed = v - F.inner_at(x)        # pairings without particle i, row i
    f_removed = F.outer(removed)
    lo, hi = _cell_box(F.phis, domain)

    def integrand(pts):
        # column i: jump density from particle i times the change of F
        delta = domain.displacement(pts[:, None, :], x[None, :, :])
        dens = kernel.profile.density(delta.reshape(-1, x.shape[1]))
        moved = F.outer(removed[None, :, :] + F.inner_at(pts)[:, None, :])
        return dens.reshape(len(pts), len(x)) * (moved - f_removed)

    jumps_in, _ = box_quad(integrand, lo, hi, QUAD_TOL)
    return float(np.sum(kernel.clock_rate * (f_removed - base) + jumps_in))


@dataclass
class FDCheck:
    """Finite-difference generator check result."""

    fd_estimate: float
    stderr: float
    analytic: float
    h: float
    n_replicas: int

    @property
    def comparison(self):
        return Comparison(self.fd_estimate, self.stderr, self.analytic)

    @property
    def discrepancy(self):
        return self.comparison.error

    def to_dict(self):
        return {"fd_estimate": self.fd_estimate, "stderr": self.stderr,
                "analytic": self.analytic, "discrepancy": self.discrepancy,
                "h": self.h, "n_replicas": self.n_replicas}


def generator_fd_check(F, config, dynamics_spec, h, n_replicas, rng):
    """(E[F(gamma_h)] - F(gamma)) / h against the generator value.

    generator_apply gives the value, and refuses an unsupported
    dynamics_spec before any draw.  march_chunks then evolves exactly the
    given particles of each replica, with no collar seeding; Glauber
    dynamics runs as the death kernel with immigration.  On full space
    particles live in all of R^d, as in the generator formulas: no row is
    clipped to the window, and Glauber births rain on the phis' _cell_box,
    the box the generator integrates over, which is exact since particles
    never move and F only sees points in the supports.  The finite
    difference carries an O(h) semigroup bias on top of Monte Carlo noise,
    so acceptance is |fd - analytic| <= 3 stderr + C h.
    """
    analytic = generator_apply(F, config, dynamics_spec)
    kernel, rain, box = dynamics_spec, None, None
    if isinstance(dynamics_spec, GlauberDynamics):
        kernel = DeathKernel(config.domain, dynamics_spec.rate)
        rain = dynamics_spec.rate.scaled(dynamics_spec.intensity)
        box = _cell_box(F.phis, config.domain)

    def values(pts, ids, m):
        inner = np.zeros((m, len(F.phis)))
        for j, phi in enumerate(F.phis):
            pair_into(inner[:, j], ids, np.asarray(phi(pts), dtype=float))
        return F.outer(inner)

    base = values(config.points, np.zeros(len(config), dtype=np.int64), 1)[0]
    fd, stderr = mean_se(march_chunks(
        config, kernel, (h,), lambda m, steps: values(*steps[0], m) - base,
        n_replicas, rng, rain=rain, box=box))
    return FDCheck(fd / h, stderr / h, analytic, h, n_replicas)
