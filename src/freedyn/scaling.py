"""Small-jump scaling limit: jump dynamics converging to birth-and-death.

Contracting a jump profile by ``xi_eps(x) = eps**dim * xi(eps * x)`` keeps
the total jump rate fixed while stretching individual jumps over distance
1/eps.  In the limit a jump carries the particle out of any bounded window,
so locally a jump acts as a death, and the stationary stream of particles
jumping back in acts as immigration: the dynamics converges to the free
birth-and-death process with death rate ``<xi>`` and immigration intensity
equal to the first correlation of the starting measure.

This module holds only the experiment that observes that limit
numerically: it estimates joint Laplace functionals of the jump dynamics
along an epsilon schedule against the closed-form limit.  The contracted
profiles are the profiles' own ``scaled``, the jump-count series is
``kernels.g_t_series``, and the starting measures (Poisson and
Neyman-Scott) with their admissibility reports (``mu_conditions()``) are
in ``pointproc``.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .functions import TestFunction
from .kernels import KawasakiKernel
from .observables import glauber_joint_laplace
from .pointproc import (_BLOCK, BatchMeasure, Comparison, MuConditionsReport,
                        check_times, mean_se, pair_into, release_free_memory,
                        run_chunks)
# perfbench/tracer.py times PoissonMeasure.sample_batch and
# NeymanScottMeasure.sample_batch under this module's name
from .pointproc import NeymanScottMeasure, PoissonMeasure  # noqa: F401
from .space import in_box


@dataclass(frozen=True)
class ScalingReport:
    """Monte Carlo estimates of a joint Laplace functional along epsilon.

    One row per epsilon: the empirical estimate and its standard error,
    and their Comparison with the closed-form birth-and-death target.
    mu_conditions is the start measure's admissibility report, checked
    before any draw.
    """

    eps_schedule: tuple
    estimates: tuple
    stderrs: tuple
    target: float
    n_samples: int
    times: tuple
    death_rate: float
    immigration: float
    measure_family: str
    notes: tuple
    mu_conditions: MuConditionsReport

    @property
    def comparisons(self):
        return tuple(Comparison(e, se, self.target)
                     for e, se in zip(self.estimates, self.stderrs))

    @property
    def distances(self):
        return tuple(c.error for c in self.comparisons)

    @property
    def monotone(self):
        """Whether the distances are nonincreasing along the schedule."""
        return all(b <= a for a, b in zip(self.distances, self.distances[1:]))

    def to_dict(self):
        return {
            "eps_schedule": list(self.eps_schedule),
            "estimates": list(self.estimates),
            "stderrs": list(self.stderrs),
            "target": self.target,
            "distances": list(self.distances),
            "monotone": self.monotone,
            "n_samples": self.n_samples,
            "times": list(self.times),
            "death_rate": self.death_rate,
            "immigration": self.immigration,
            "measure_family": self.measure_family,
            "notes": list(self.notes),
            "mu_conditions": self.mu_conditions.to_dict(),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self):
        out = io.StringIO()
        out.write("eps,estimate,stderr,target,distance\n")
        for eps, c in zip(self.eps_schedule, self.comparisons):
            out.write("%.10g,%r,%r,%r,%r\n" % (
                eps, c.estimate, c.stderr, c.target, c.error))
        return out.getvalue()


def _pair_log1p(acc, replica_of, phi, pts, among=None):
    """acc[r] += sum of log1p(phi) over replica r's points; returns acc.

    replica_of maps an ascending array of rows of pts to their replica
    ids.  phi must be a TestFunction: it is exactly 0 off its closed
    support box [support_lo, support_hi], so only the points inside that
    box are evaluated and looked up.  The nonzero (replica, value) pairs,
    and their order, are those of phi at every point, so acc gets the same
    bits.  A boolean mask among restricts the pairing to its rows, as
    compressing pts by it would.
    """
    inside = in_box(pts, phi.support_lo, phi.support_hi, closed=True)
    if among is not None:
        inside &= among
    # few rows: one scan serves pts and their replicas
    rows = np.flatnonzero(inside)
    vals = phi(pts.take(rows, axis=0))
    return pair_into(acc, replica_of(rows), np.log1p(vals))


def _contracted_paths(domain, pts, draws, eps):
    """Positions of pts after each step of draws, every jump divided by eps.

    draws holds one (hop, step) pair per time step, the chunk's
    KawasakiKernel.jumps compacted to its kept rows: hop the ascending rows
    of pts that ring and step their base-profile steps.  The profile
    contracted by eps moves row hop[i] by step[i] / eps.  pts must lie in
    the cell.  One coordinate-major (dim, n) array is updated in place,
    one coordinate at a time (a 1-D scatter costs a quarter of a row
    scatter into (n, 2)), and its (n, dim) transpose is yielded after
    every step.
    """
    pos = pts.T.copy()
    for hop, step in draws:
        moved = np.divide(step.T, eps, order="C")
        for col, row in zip(pos, moved):
            row += col.take(hop)
        # the cell is a cube, so wrap folds each coordinate alike: one
        # in-place call on a contiguous column of all of them
        domain.wrap(moved.reshape(-1, 1), copy=False)
        for col, row in zip(pos, moved):
            col[hop] = row
        yield pos.T


_REACH_PAD = 1e-9  # relative slack of a reach; times side, its absolute one


def _in_reach(side, pts, reach, phis):
    """Rows that can get within reach of some phi's support box.

    pts lie in the cell [0, side) of a torus and reach[i, c] >= 0 bounds
    how far row i moves along coordinate c.  A box counts by its part in
    the cell, where all positions lie: [lo, hi] clipped to [0, side].  Row
    i is kept when, for some phi, every coordinate c of pts[i] lies within
    (1 + 1e-9) * reach[i, c] + 1e-9 * side of that interval in torus
    distance.  The slack covers the rounding of the paths and of this
    test: whenever some wrap(pts[i] + delta) with |delta[c]| <= reach[i, c]
    lies in a box, row i is kept.
    """
    keep = np.zeros(len(pts), dtype=bool)
    slack = reach * (1.0 + _REACH_PAD)
    gap, far = np.empty(len(pts)), np.empty(len(pts))
    for phi in phis:
        lo, hi = phi.support_lo, phi.support_hi
        if np.any(lo >= side) or np.any(hi < 0.0):
            continue  # the box misses the cell
        lo, hi = np.maximum(lo, 0.0), np.minimum(hi, side)
        hit = None
        for col, r, a, b in zip(pts.T, slack.T, lo, hi):
            half = 0.5 * (b - a)
            if 2.0 * half >= side:
                continue  # the box spans the circle
            # torus distance from the box centre, less the half-width
            np.subtract(col, a + half, out=gap)
            np.abs(gap, out=gap)
            np.subtract(side, gap, out=far)
            np.minimum(gap, far, out=gap)
            gap -= half + _REACH_PAD * side
            near = gap <= r
            hit = near if hit is None else np.logical_and(hit, near, out=hit)
        if hit is None:
            return np.ones(len(pts), dtype=bool)  # the box spans the torus
        keep |= hit
    return keep


def _cull_far(side, pts, draws, eps_min, phis, moved):
    """Clear in moved the rows that cannot meet a phi; returns moved.

    draws holds one KawasakiKernel.jumps (ring mask, step) pair per time
    step.  A row's reach along a coordinate is the sum over draws of its
    |step| / eps_min, the farthest any epsilon of the schedule carries it;
    _in_reach tests it block by block of rows, so the reach never spans
    the whole chunk.
    """
    at = [0] * len(draws)  # each draw's first step row of the block
    for start in range(0, len(pts), _BLOCK):
        rows = slice(start, start + _BLOCK)
        block = pts[rows]
        reach = np.zeros(block.shape[::-1])  # coordinate-major
        for j, (ring, step) in enumerate(draws):
            hop = np.flatnonzero(ring[rows])
            step = step[at[j]:at[j] + len(hop)]
            at[j] += len(hop)
            for r, s in zip(reach, step.T):
                np.add.at(r, hop, np.abs(s))
        reach /= eps_min
        moved[rows] &= _in_reach(side, block, reach.T, phis)
    return moved


def _chunk_joint_values(measure, kernel, times, phis, eps_schedule, n_rep,
                        gen):
    """(n_rep, len(eps_schedule)) joint Laplace integrands of one chunk.

    One replica is one start and one set of base-profile jumps, read off
    at every eps of the schedule: column e holds the integrand of the
    dynamics contracted by eps_schedule[e].  The domain must be a torus
    and phis TestFunctions.  A replica is a run of rows of the start, so
    the chunk draws only each replica's end row (one past its last row,
    sample_batch with ends), never a replica id per drawn row: the
    replica of row i is the number of end rows <= i.  A row that never
    rings is paired once.  A mover whose start lies farther than its
    reach (its summed |step| over the smallest eps) from every phi's
    support box, in torus distance per coordinate, is dropped before the
    eps loop, and the end rows are counted among the kept rows: no phi is
    nonzero on a dropped path, so the kept rows give the same (replica,
    value) pairs in the same order, and the same bits, as every row
    would.  The kept rows, far fewer than the drawn ones, get one replica
    id each, once, for the eps loop's pairings.
    """
    domain = measure.domain
    # both measures give torus points in the cell [0, side): no wrap needed
    pts, ends = measure.sample_batch(n_rep, gen, ends=True)
    n = len(pts)
    draws = [kernel.jumps(n, dt, gen) for dt in np.diff(times, prepend=0.0)]
    moved = np.zeros(n, dtype=bool)
    for ring, _ in draws:
        moved |= ring
    # pair the rows that never ring, then keep the movers in reach
    # (one full-length array at a time, to keep the chunk's peak memory low)
    acc = np.zeros(n_rep)
    still = ~moved
    replica_of = partial(np.searchsorted, ends, side="right")
    for phi in phis:
        _pair_log1p(acc, replica_of, phi, pts, among=still)
    del still
    keep = _cull_far(domain.side, pts, draws, min(eps_schedule), phis, moved)
    del moved
    kept = np.flatnonzero(keep)
    pts = pts.take(kept, axis=0)
    # the end rows among the kept rows give their replica ids
    ids = np.repeat(np.arange(n_rep), np.diff(np.searchsorted(kept, ends),
                                              prepend=0))
    draws = [(np.flatnonzero(ring.take(kept)),
              step.compress(keep.compress(ring), axis=0))
             for ring, step in draws]
    del keep, kept
    out = np.empty((n_rep, len(eps_schedule)))
    for col, eps in enumerate(eps_schedule):
        logs = acc.copy()
        for pos, phi in zip(_contracted_paths(domain, pts, draws, eps), phis):
            _pair_log1p(logs, ids.take, phi, pos)
        out[:, col] = np.exp(logs)
    return out


def run_scaling_experiment(measure, profile, times, phi_list, eps_schedule,
                           n_samples, rng, threads=1):
    """Estimate joint Laplace functionals of the contracted jump dynamics.

    For each epsilon in the schedule, evolves n_samples replicas of the
    measure under the jump kernel with profile contracted by that epsilon,
    and estimates E[prod_i exp<log(1+phi_i), gamma_{t_i}>].  The closed-form
    target is the birth-and-death value with death rate <profile> and
    immigration equal to the measure's intensity.  Each phi_i must be a
    TestFunction (the CLI builds nothing else): it is exactly 0 off its
    closed support box, and it is evaluated only at the points inside it.
    A particle whose start lies, in torus distance, farther from every
    support box than the sum of its jumps divided by the smallest epsilon
    can never meet a phi_i, so it is dropped before propagation; the
    results keep their bits.

    The contracted jump law is the base one divided by epsilon (mass fixed,
    jumps stretched by 1/epsilon), so one start and one set of base-profile
    jumps per replica serve every epsilon: replica r's row e is its
    trajectory with every jump divided by eps_schedule[e].  The rows of the
    schedule are therefore correlated (common random numbers), which makes
    their differences far less noisy, while each standard error stays the
    marginal one of its epsilon.  Replicas are run by the chunk driver on
    the stream rng.child(0), in chunks of about CHUNK_ROWS expected start
    points (measure.k1 times the cell volume per replica); an epsilon's
    estimate does not depend on the rest of the schedule, and the result
    does not depend on the thread count.  After the last chunk the heap's
    free pages go back to the system (release_free_memory).

    The domain must be a torus: on full space the start is sampled on the
    window only and particles that jump out never come back, so the
    estimates converge to the wrong value.  Raises ValueError, before any
    draw, for a full-space domain, a measure that fails its admissibility
    checks or an observable that is not a TestFunction.
    """
    if not measure.domain.is_torus:
        raise ValueError("scaling needs a torus domain")
    if not isinstance(measure, BatchMeasure):
        raise ValueError("unsupported starting measure family")
    conditions = measure.mu_conditions()
    if not conditions.admissible:
        raise ValueError("starting measure fails admissibility: %s"
                         % json.dumps(conditions.to_dict()))
    times = check_times(times)
    if len(phi_list) != len(times):
        raise ValueError("need one test function per time")
    for i, phi in enumerate(phi_list):
        if not isinstance(phi, TestFunction):
            # the pairing and the reach cull read a phi only inside its box
            raise ValueError("observable %d is a %s, not a TestFunction: "
                             "only a TestFunction is exactly 0 off its "
                             "support box" % (i, type(phi).__name__))
    eps_schedule = [float(e) for e in eps_schedule]
    if not eps_schedule:
        raise ValueError("need at least one epsilon")
    if any(e <= 0 for e in eps_schedule):
        raise ValueError("epsilons must be > 0")
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError("need at least 2 samples")

    a_const = profile.mass
    z = measure.k1
    target = glauber_joint_laplace(measure, a_const, z, times, phi_list)

    kernel = KawasakiKernel(measure.domain, profile)

    worker = partial(_chunk_joint_values, measure, kernel, times, phi_list,
                     eps_schedule)
    values = run_chunks(worker, n_samples, rng.child(0), threads,
                        measure.mean_points)
    # the chunks' arrays are gone: hand their pages back, so that they do
    # not stay resident under what the process allocates next
    release_free_memory()
    estimates, stderrs = zip(*map(mean_se, np.ascontiguousarray(values.T)))
    return ScalingReport(
        eps_schedule=tuple(eps_schedule), estimates=estimates,
        stderrs=stderrs, target=float(target), n_samples=n_samples,
        times=times, death_rate=float(a_const),
        immigration=float(z), measure_family=measure.family,
        notes=("target from the closed-form birth-and-death joint identity",
               "profile contracted with total mass held fixed"),
        mu_conditions=conditions)
