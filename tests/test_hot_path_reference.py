"""Rewritten hot paths against frozen copies of the code they replaced.

``propagate_batch`` of the Brownian, killed Brownian and Kawasaki
kernels and ``Domain.wrap`` were rewritten for speed (scalar-rate draws,
sparse hop updates, folding only what left the cell) under the promise
of the same bits at the same seeds.  The Poisson configuration sampler
``sample_poisson``, the float-intensity Glauber start and the fixed-start
product oracle were folded into the starting-measure protocol
(``PoissonMeasure.sample`` / ``sample_batch`` and
``Configuration.expected_product_functional``) under the same promise.
The scaling experiment's chunk worker ``_chunk_joint_values`` now
evaluates each observable only inside its support box, selects rows with
``compress`` and drops the movers that cannot reach any support box,
under the same promise.  The Kawasaki jump counts, the Gaussian jump
sums and the Neyman-Scott sampler now draw or reduce block by block of
rows, the Poisson sampler scales its draw in place and the scaling
chunk's paths scatter coordinate by coordinate, under the same promise.
The space-time rain ``sample_poisson_space_time`` became the one-replica
case of a batched sampler, and the one-replica march of ``evolve_snapshot``
and ``evolve_with_immigration`` became the replica-batch engine
``dynamics._march``, under the same promise.  ``Kernel.buffer_width``
stops its bisection once a step moves neither end, instead of always
taking 200 steps, under the promise of the same widths.  The torus
smoothing ``gauss_smooth_box_torus`` evaluates the normal cdf once per box
edge and axis over all periodic images, not once per image, and adds the
images in the same order, under the promise of the same bits (the
reference calls freedyn's own ``ndtr``).  The correlation reduce
``correlations_from_counts`` builds each bin's falling factorials once
and reduces each cell through ``mean_se``, which takes one sum for the
mean and one for the squared deviations; the Poisson sampler, the
Neyman-Scott parents and the space-time rain scale and shift their
uniform draw column by column instead of by a broadcast, all under the
promise of the same bits (``ref_correlations_from_counts``,
``ref_mean_se``, ``ref_poisson_sample_batch`` and
``ref_sample_space_time_batch``; ``ref_neyman_scott`` already places its
parents by the broadcast).  The choice between full-space and torus
Gaussian smoothing moved from three call sites into ``gauss_smooth``'s
``side``: ``GaussianProfile.smooth``, ``BrownianKernel.semigroup`` and the
Neyman-Scott cluster smoothing ``NeymanScottMeasure._smooth`` (which no
longer builds a ``GaussianProfile``) now all call it, under the promise
of the same bits (``ref_gaussian_profile_smooth``,
``ref_brownian_semigroup`` and ``ref_neyman_scott_smooth``; one torus
case differs only in the sign of a zero, see
``test_brownian_semigroup_matches_reference``).
The functions below are the earlier implementations, kept verbatim; every
test compares the new code with them using ``==`` over dimensions, time
shapes, domains and seeds.  One line changed on purpose: the Kawasaki
jump counts no longer come from numpy's Poisson sampler but from one
uniform per row inverted through the Poisson cdf (a new stream layout),
and ``ref_kawasaki`` spells that rule out row by row.
"""

import math
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import pdtr

from freedyn import scaling
from freedyn.dynamics import _march
from freedyn.functions import (NumericFunction, TestFunction, gauss_smooth,
                               gauss_smooth_box_torus, ndtr, support_box)
from freedyn.kernels import (_DRAW_BLOCK, BrownianKernel, BumpProfile,
                             DeathKernel, GaussianProfile, KawasakiKernel,
                             KilledBrownianKernel, _effective_pad,
                             _jump_blocks)
from freedyn.observables import (CorrelationGrid, bin_counts,
                                 check_correlation_grid, correlation_edges,
                                 correlations_from_counts,
                                 glauber_joint_laplace)
from freedyn.pointproc import (CHUNK, BoundedField, Configuration,
                               PoissonMeasure, RngStream, as_field, mean_se,
                               sample_poisson_space_time,
                               sample_space_time_batch)
from freedyn.scaling import NeymanScottMeasure, _chunk_joint_values
from freedyn.space import Domain, in_box


# ---------------------------------------------------------------------------
# the earlier implementations

def ref_wrap(domain, points):
    pts = np.asarray(points, dtype=float)
    if domain.is_torus:
        pts = np.mod(pts, domain.side)
        pts = np.where(pts >= domain.side, 0.0, pts)
    return pts


def ref_batch_times(dts, n):
    dts = np.asarray(dts, dtype=float)
    if dts.min(initial=0.0) < 0:
        raise ValueError("t must be >= 0")
    return np.broadcast_to(dts, (n,))


def ref_brownian(kernel, pts, dts, gen):
    dts = ref_batch_times(dts, len(pts))
    out = pts + np.sqrt(dts)[:, None] * gen.standard_normal(pts.shape)
    return ref_wrap(kernel.domain, out), np.ones(len(pts), dtype=bool)


def ref_kawasaki(kernel, pts, dts, gen):
    dts = ref_batch_times(dts, len(pts))
    # one uniform per row, inverted through the Poisson cdf row by row
    lam = kernel.clock_rate * dts
    u = gen.random(len(pts))
    counts = np.zeros(len(pts), dtype=np.int64)
    for i in range(len(pts)):
        while u[i] >= pdtr(counts[i], lam[i]):
            counts[i] += 1
    out = np.array(pts, copy=True)
    if isinstance(kernel.profile, GaussianProfile):
        hop = counts > 0
        if np.any(hop):
            scale = kernel.profile.std * np.sqrt(counts[hop])
            out[hop] += scale[:, None] * gen.standard_normal((int(hop.sum()), pts.shape[1]))
    else:
        total = int(counts.sum())
        if total:
            draws = kernel.profile.sample_displacements(gen, total)
            owner = np.repeat(np.arange(len(pts)), counts)
            for j in range(pts.shape[1]):
                out[:, j] += np.bincount(owner, weights=draws[:, j],
                                         minlength=len(pts))
    return ref_wrap(kernel.domain, out), np.ones(len(pts), dtype=bool)


def ref_killed_brownian(kernel, pts, dts, gen):
    dts = ref_batch_times(dts, len(pts))
    t_max = float(np.max(dts)) if len(dts) else 0.0
    if t_max == 0.0:
        return pts, np.ones(len(pts), dtype=bool)
    h = kernel._step(t_max)
    n_steps = max(int(math.ceil(t_max / h)), 1)
    out = np.array(pts, copy=True)
    alive = np.ones(len(pts), dtype=bool)
    remaining = dts.copy()
    for _ in range(n_steps):
        step = np.minimum(remaining, t_max / n_steps)
        act = alive & (step > 0)
        if not np.any(act):
            break
        a = kernel.rate(out[act])
        surv = gen.random(int(act.sum())) < np.exp(-a * step[act])
        idx = np.where(act)[0]
        alive[idx[~surv]] = False
        move = idx[surv]
        out[move] += np.sqrt(step[move])[:, None] * \
            gen.standard_normal((len(move), pts.shape[1]))
        remaining[act] -= step[act]
    return ref_wrap(kernel.domain, out), alive


def ref_neyman_scott(measure, n_rep, gen):
    domain = measure.domain
    if domain.is_torus:
        lo, hi = domain.lower, domain.upper
    else:
        pad = 8.0 * measure.cluster_std
        lo, hi = domain.lower - pad, domain.upper + pad
    volume = float(np.prod(hi - lo))
    n_parents = gen.poisson(measure.parent_intensity * volume, size=n_rep)
    total_parents = int(n_parents.sum())
    parent_pts = lo + (hi - lo) * gen.random((total_parents, domain.dim))
    sizes = 1 + (gen.random(total_parents) < measure.second_prob).astype(np.int64)
    owner = np.repeat(np.arange(total_parents), sizes)
    offsets = measure.cluster_std * gen.standard_normal((len(owner), domain.dim))
    pts = ref_wrap(domain, parent_pts[owner] + offsets)
    parent_rep = np.repeat(np.arange(n_rep), n_parents)
    return pts, parent_rep[owner]


def ref_jump_counts(lam, gen, n):
    # the one-shot inversion: one gen.random(n) for every row at once
    if not np.all(np.isfinite(lam)):
        raise ValueError("jump clock mean must be finite")
    if np.max(lam, initial=0.0) > 16.0:
        counts = gen.poisson(lam, size=n)
        hop = np.flatnonzero(counts)
        return hop, counts[hop]
    u = gen.random(n)
    if lam.ndim:
        hop = np.flatnonzero(u >= np.exp(-lam) * (1.0 - 1e-12))
        hop = hop[u[hop] >= pdtr(0, lam[hop])]
        lam = lam[hop]
    else:
        hop = np.flatnonzero(u >= pdtr(0, lam))
    u = u[hop]
    k = np.ones(len(hop), dtype=np.intp)
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


def ref_gauss_sum_displacements(profile, gen, k):
    step = gen.standard_normal((len(k), profile.dim))
    step *= (profile.std * np.sqrt(k))[:, None]
    return step


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


def _uniform_points(gen, count, lo, hi):
    return lo + (hi - lo) * gen.random((count, len(lo)))


def ref_sample_poisson(domain, intensity, rng, lo=None, hi=None):
    """Sample a Poisson configuration on a box.

    intensity is a constant or a BoundedField; inhomogeneous intensities
    are realized by thinning a homogeneous proposal at the sup bound.  The
    box defaults to the domain window (the full cell on a torus).  Returns
    a Configuration.
    """
    field_ = as_field(intensity)
    lo, hi = _sampling_box(domain, lo, hi)
    volume = float(np.prod(hi - lo))
    gen = rng.generator()
    count = gen.poisson(field_.bound * volume)
    pts = _uniform_points(gen, count, lo, hi)
    if field_.bound > 0 and count > 0:
        accept = gen.random(count) * field_.bound < field_(pts)
        pts = pts[accept]
    # duplicate rows have probability zero; resample defensively anyway
    while len(pts) > 1:
        order = np.lexsort(pts.T[::-1])
        dup = np.all(pts[order][1:] == pts[order][:-1], axis=1)
        if not np.any(dup):
            break
        bad = order[1:][dup]
        pts[bad] = _uniform_points(gen, len(bad), lo, hi)
    return Configuration(pts, domain)


def ref_sample_poisson_space_time(domain, rate, horizon, rng, lo=None,
                                  hi=None):
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if horizon == 0:
        dim = domain.dim
        return np.empty((0, dim)), np.empty(0)
    field_ = as_field(rate)
    lo, hi = _sampling_box(domain, lo, hi)
    volume = float(np.prod(hi - lo))
    gen = rng.generator()
    count = gen.poisson(field_.bound * volume * horizon)
    pts = lo + (hi - lo) * gen.random((count, len(lo)))
    times = horizon * gen.random(count)
    if field_.bound > 0 and count > 0:
        accept = gen.random(count) * field_.bound < field_(pts)
        pts, times = pts[accept], times[accept]
    order = np.argsort(times, kind="stable")
    return pts[order], times[order]


def ref_march(points, kernel, times, gen, immigrants=None, cull=None):
    # the one-replica engine of evolve_snapshot and evolve_with_immigration
    dim = kernel.domain.dim
    pts = np.asarray(points, dtype=float).reshape(-1, dim)
    snaps = []
    prev = 0.0
    for t in times:
        if len(pts):
            pts, alive = kernel.propagate_batch(pts, t - prev, gen)
            pts = pts[alive]
        if immigrants is not None:
            ipts, itimes = immigrants
            sel = (itimes > prev) & (itimes <= t)
            if np.any(sel):
                born, balive = kernel.propagate_batch(ipts[sel],
                                                      t - itimes[sel], gen)
                born = born[balive]
                pts = np.vstack([pts, born]) if len(pts) else born
        if cull is not None and len(pts):
            inside = in_box(pts, cull[0], cull[1], closed=True)
            pts = pts[inside]
        snaps.append(np.array(pts, copy=True))
        prev = t
    return snaps


def ref_buffer_width(kernel, t_max, target):
    # Kernel.buffer_width with its fixed 200 bisection steps
    lo, hi = 1e-6, 1.0
    while kernel.tail_bound(t_max, hi) > target:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("no finite buffer width reaches the target")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kernel.tail_bound(t_max, mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def ref_float_start(z0, phi_list, m, gen):
    # glauber_joint_experiment's draw_initial for a float intensity z0
    lo, hi = support_box(phi_list)
    box_vol = float(np.prod(hi - lo))
    counts = gen.poisson(z0 * box_vol, size=m)
    pts = lo + (hi - lo) * gen.random((int(counts.sum()), len(lo)))
    return pts, np.repeat(np.arange(m), counts)


def ref_fixed_product(config, terms, phis):
    if len(config) == 0:
        return 1.0
    pts = config.points
    vals = {i: np.asarray(p(pts), dtype=float) for i, p in enumerate(phis)}
    acc = np.ones(len(pts))
    for coef, _fn, tup in terms:
        prod = np.ones(len(pts))
        for i in tup:
            prod = prod * vals[i]
        acc = acc + coef * prod
    if np.any(acc <= 0.0):
        raise ValueError("product factor left (0, inf); functions too large")
    return float(math.exp(np.sum(np.log(acc))))


def ref_pair_into(acc, ids, values):
    hit = values != 0.0
    if np.any(hit):
        acc += np.bincount(ids[hit], weights=values[hit], minlength=len(acc))
    return acc


def ref_pair_log1p(acc, ids, vals):
    vals = np.asarray(vals, dtype=float)
    hit = vals != 0.0
    ref_pair_into(acc, ids[hit], np.log1p(vals[hit]))


def ref_contracted_paths(domain, pts, draws, eps):
    pos = pts.copy()
    for hop, step in draws:
        moved = step / eps
        moved += pos[hop]
        pos[hop] = domain.wrap(moved, copy=False)
        yield pos


def ref_chunk_joint_values(measure, kernel, times, phis, eps_schedule, n_rep,
                           gen):
    domain = measure.domain
    pts, ids = measure.sample_batch(n_rep, gen)
    pts = domain.wrap(pts, copy=False)
    n = len(pts)
    draws = [kernel.jumps(n, dt, gen) for dt in np.diff(times, prepend=0.0)]
    moved = np.zeros(n, dtype=bool)
    for ring, _ in draws:
        moved |= ring
    acc = np.zeros(n_rep)
    still_pts, still_ids = pts[~moved], ids[~moved]
    for phi in phis:
        ref_pair_log1p(acc, still_ids, phi(still_pts))
    del still_pts, still_ids
    pts = pts[moved]
    ids = ids[moved]
    draws = [(np.flatnonzero(ring[moved]), step) for ring, step in draws]
    del moved
    out = np.empty((n_rep, len(eps_schedule)))
    for col, eps in enumerate(eps_schedule):
        logs = acc.copy()
        for pos, phi in zip(ref_contracted_paths(domain, pts, draws, eps),
                            phis):
            ref_pair_log1p(logs, ids, phi(pos))
        out[:, col] = np.exp(logs)
    return out


def ref_gauss_smooth_box_torus(func, var, points, side):
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


def ref_gaussian_profile_smooth(profile, func, weights, pts, torus_side=None):
    var = profile.std ** 2 * np.arange(1, len(weights) + 1)
    if torus_side is not None:
        return sum(w * gauss_smooth_box_torus(func, v, pts, torus_side)
                   for w, v in zip(weights, var))
    return gauss_smooth(func, var, pts, weights)


def ref_brownian_semigroup(kernel, phi, t):
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return phi
    if kernel.domain.is_torus:
        side = kernel.domain.side

        def func(pts):
            return gauss_smooth_box_torus(phi, t, pts, side)

        return NumericFunction(func, np.zeros(kernel.domain.dim),
                               np.full(kernel.domain.dim, side), phi.bound)
    pad = _effective_pad(t)

    def func(pts):
        return gauss_smooth(phi, t, pts)

    return NumericFunction(func, phi.support_lo - pad, phi.support_hi + pad,
                           phi.bound)


def ref_neyman_scott_smooth(measure, terms, c_pts):
    offset = GaussianProfile(measure.domain.dim, 1.0, measure.cluster_std)
    side = measure.domain.side if measure.domain.is_torus else None
    return sum(coef * ref_gaussian_profile_smooth(offset, fn, np.ones(1),
                                                  c_pts, side)
               for coef, fn in terms)


def ref_mean_se(values):
    """Mean and standard error of replica values; needs two replicas."""
    if len(values) < 2:
        raise ValueError("need at least 2 replicas")
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def _falling(counts, m):
    out = counts.astype(float)
    for j in range(1, m):
        out = out * (counts - j)
    return out


def ref_correlations_from_counts(counts, order, edges):
    n_rep, n_flat = counts.shape
    check_correlation_grid(order, n_flat)
    vol_bin = float(np.prod([(e[-1] - e[0]) / (len(e) - 1) for e in edges]))

    tuples = list(combinations_with_replacement(range(n_flat), order))
    estimates = np.empty(len(tuples))
    stderrs = np.empty(len(tuples))
    for i, tup in enumerate(tuples):
        vals = np.ones(n_rep)
        for b, m in Counter(tup).items():
            vals = vals * _falling(counts[:, b], m)
        denom = vol_bin ** order
        estimates[i] = np.mean(vals) / denom
        stderrs[i] = (np.std(vals, ddof=1) / math.sqrt(len(vals)) / denom
                      if len(vals) > 1 else 0.0)
    return CorrelationGrid(order, edges, tuples, estimates, stderrs, n_rep)


def ref_poisson_sample_batch(measure, n_rep, gen, ends=False):
    lo, hi = measure.domain.lower, measure.domain.upper
    volume = float(np.prod(hi - lo))
    counts = gen.poisson(measure.intensity * volume, size=n_rep)
    total = int(counts.sum())
    pts = gen.random((total, measure.domain.dim))
    pts *= hi - lo
    pts += lo
    if ends:
        return pts, np.cumsum(counts)
    ids = np.repeat(np.arange(n_rep), counts)
    return pts, ids


def ref_sample_space_time_batch(n_rep, rate, horizon, lo, hi, gen):
    field_ = as_field(rate)
    volume = float(np.prod(hi - lo))
    counts = gen.poisson(field_.bound * volume * horizon, size=n_rep)
    total = int(counts.sum())
    pts = lo + (hi - lo) * gen.random((total, len(lo)))
    times = horizon * gen.random(total)
    ids = np.repeat(np.arange(n_rep), counts)
    if field_.bound > 0 and total > 0:
        accept = gen.random(total) * field_.bound < field_(pts)
        pts, ids, times = pts[accept], ids[accept], times[accept]
    return pts, ids, times


# ---------------------------------------------------------------------------
# the grid: dimension, domain, time shape, seed

N_ROWS = 3000
SEEDS = (11, 20071)


def _domains(dim):
    return {"torus": Domain.torus(dim, 7.0),
            "fullspace": Domain.fullspace((-3.0,) * dim, (3.0,) * dim)}


def _times(kind, n, gen):
    if kind == "scalar":
        return 0.8
    if kind == "zero":
        return 0.0
    dts = gen.uniform(0.0, 1.5, size=n)
    dts[::4] = 0.0  # some rows do not move at all
    return dts


def _case(dim, seed, kind):
    """Start points (some outside the cell and on its edges) and times."""
    setup = np.random.default_rng(seed + 1000)
    pts = setup.uniform(-9.0, 16.0, size=(N_ROWS, dim))
    pts[:7] = [[0.0], [-0.0], [7.0], [-7.0], [14.0], [1e-300], [-1e-300]]
    return pts, _times(kind, N_ROWS, setup)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    if a.dtype.kind == "f":
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    else:
        assert np.array_equal(a, b)


def _kernels(domain):
    dim = domain.dim
    return {
        "brownian": (BrownianKernel(domain), ref_brownian),
        "kawasaki-gauss": (KawasakiKernel(domain, GaussianProfile(dim, 1.3, 0.7)),
                           ref_kawasaki),
        "kawasaki-bump": (KawasakiKernel(domain, BumpProfile(dim, 2.0, 1.1)),
                          ref_kawasaki),
        "killed-const": (KilledBrownianKernel(domain, 0.7, h_kill=0.05),
                         ref_killed_brownian),
        "killed-field": (KilledBrownianKernel(domain, BoundedField(
            lambda x: 0.2 + 0.1 * np.cos(x[:, 0]), 0.3), h_kill=0.05),
            ref_killed_brownian),
    }


GRID = [(dim, mode, kind, seed)
        for dim in (1, 2) for mode in ("torus", "fullspace")
        for kind in ("scalar", "zero", "rows") for seed in SEEDS]


@pytest.mark.parametrize("dim,mode,kind,seed", GRID)
def test_propagate_batch_matches_reference(dim, mode, kind, seed):
    domain = _domains(dim)[mode]
    pts, dts = _case(dim, seed, kind)
    frozen = pts.copy()
    for name, (kernel, ref) in _kernels(domain).items():
        got = kernel.propagate_batch(pts, dts, np.random.default_rng(seed))
        want = ref(kernel, pts, dts, np.random.default_rng(seed))
        _same(got[0], want[0])
        _same(got[1], want[1])
        _same(pts, frozen)  # the start points are left alone


@pytest.mark.parametrize("mode", ["torus", "fullspace"])
@pytest.mark.parametrize("seed", SEEDS)
def test_neyman_scott_sample_batch_matches_reference(mode, seed):
    domain = Domain.torus(1, 50.0) if mode == "torus" else \
        Domain.fullspace((0.0,), (50.0,))
    measure = NeymanScottMeasure(domain, 2.0 / 3.0, 0.5, 0.25)
    got = measure.sample_batch(40, RngStream(seed).generator())
    want = ref_neyman_scott(measure, 40, RngStream(seed).generator())
    _same(got[0], want[0])
    _same(got[1], want[1])


# ---------------------------------------------------------------------------
# the streamed draws: blocks of rows give the bits of one-shot draws

B = _DRAW_BLOCK
STREAM_SIZES = (0, 1, B - 1, B, B + 1, 3 * B + 7)


def _same_next_draw(got_gen, want_gen):
    # the generators are left in the same state
    _same(got_gen.random(4), want_gen.random(4))


def _means(shape, n):
    """Clock means 0.05-8 (shared or one per row), or with one above 16."""
    setup = np.random.default_rng(n + 17)
    if shape == "shared":
        return np.float64(setup.uniform(0.05, 8.0))
    if shape == "shared-poisson":
        return np.float64(23.5)
    lam = setup.uniform(0.05, 8.0, size=n)
    if shape == "rows-poisson" and n:
        lam[n // 2] = 17.0
    return lam


@pytest.mark.parametrize("shape", ["shared", "rows", "shared-poisson",
                                   "rows-poisson"])
@pytest.mark.parametrize("n", STREAM_SIZES)
def test_jump_counts_match_one_shot_draw(shape, n):
    lam = _means(shape, n)
    got_gen, want_gen = RngStream(n, 3).generator(), RngStream(n, 3).generator()
    # the blocks joined, the counts as the reference's intp
    got = [[np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]]
    for hop, k in _jump_blocks(lam, got_gen, n):
        got[0].append(hop)
        got[1].append(k)
    want = ref_jump_counts(lam, want_gen, n)
    _same(np.concatenate(got[0]), want[0])
    _same(np.concatenate(got[1]), want[1])
    _same_next_draw(got_gen, want_gen)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", STREAM_SIZES)
def test_gauss_sum_displacements_match_one_shot_draw(dim, n):
    profile = GaussianProfile(dim, 1.3, 0.7)
    k = np.random.default_rng(n).integers(1, 9, size=n).astype(np.intp)
    got_gen, want_gen = RngStream(n, 4).generator(), RngStream(n, 4).generator()
    _same(profile.sum_displacements(got_gen, k),
          ref_gauss_sum_displacements(profile, want_gen, k))
    _same_next_draw(got_gen, want_gen)


def _same_batch(measure, ref, n_rep, seed):
    got_gen, want_gen = RngStream(seed).generator(), RngStream(seed).generator()
    got = measure.sample_batch(n_rep, got_gen)
    want = ref(measure, n_rep, want_gen)
    _same(got[0], want[0])
    _same(got[1], want[1])
    _same_next_draw(got_gen, want_gen)
    return got


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode", ["torus", "fullspace"])
def test_neyman_scott_replicas_without_parents_match_one_shot(dim, mode):
    # about half the replicas draw no parent: the first seed whose first,
    # last and some interior replica have none
    if mode == "torus":
        domain, box = Domain.torus(dim, 1.0), 1.0
    else:
        # the full-space sampler pads the window by 8 cluster_std a side
        domain, box = Domain.fullspace((0.0,) * dim, (1.0,) * dim), 1.32
    measure = NeymanScottMeasure(domain, 0.7 / box ** dim, 0.5, 0.02)

    def empty(seed):
        _, ids = measure.sample_batch(60, RngStream(seed).generator())
        return np.setdiff1d(np.arange(60), ids)

    seed = next(s for s in range(200)
                if len(none := empty(s)) > 2 and none[0] == 0
                and none[-1] == 59)
    _same_batch(measure, ref_neyman_scott, 60, seed)


@pytest.mark.parametrize("n_rep", [0, 1])
def test_neyman_scott_tiny_batches_match_one_shot(n_rep):
    measure = NeymanScottMeasure(Domain.torus(1, 50.0), 2.0 / 3.0, 0.5, 0.25)
    _same_batch(measure, ref_neyman_scott, n_rep, 9)


@pytest.mark.parametrize("second_prob", [0.0, 0.5, 1.0])
def test_neyman_scott_chunk_over_parent_blocks_matches_one_shot(second_prob):
    # a criterion-6 chunk: about 40 blocks of parents
    measure = NeymanScottMeasure(Domain.torus(1, 100.0), 2.0 / 3.0,
                                 second_prob, 0.25)
    pts, _ = _same_batch(measure, ref_neyman_scott, CHUNK, 1006)
    assert len(pts) > 20 * scaling._BLOCK


_SIDES = st.one_of(st.sampled_from([2.0 ** e for e in range(-3, 11)]),
                   st.floats(0.05, 1000.0))


@given(side=_SIDES, dim=st.integers(1, 3), seed=st.integers(0, 2 ** 32),
       start=st.sampled_from(["poisson", "neyman-scott"]))
@settings(max_examples=150, deadline=None)
def test_torus_samples_lie_in_the_cell(side, dim, seed, start):
    # the scaling chunk reads the samples unwrapped: both measures must
    # return points in [0, side).  The largest uniform, 1 - 2**-53, times
    # side rounds strictly below side, powers of two included.
    assert np.nextafter(1.0, 0.0) * side < side
    torus = Domain.torus(dim, side)
    z = 40.0 / side ** dim
    measure = {"poisson": PoissonMeasure(torus, z),
               "neyman-scott": NeymanScottMeasure(torus, z, 0.5,
                                                  0.3 * side)}[start]
    pts, _ = measure.sample_batch(5, RngStream(seed).generator())
    assert np.all(pts >= 0.0) and np.all(pts < side)
    assert not np.any(np.signbit(pts))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_contracted_paths_match_row_scatter(dim):
    torus = Domain.torus(dim, 7.0)
    kernel = KawasakiKernel(torus, GaussianProfile(dim, 1.3, 0.9))
    setup = np.random.default_rng(dim)
    pts = setup.uniform(0.0, 7.0, size=(5000, dim))
    gen = RngStream(dim).generator()
    draws = [(np.flatnonzero(ring), step) for ring, step in
             (kernel.jumps(len(pts), dt, gen) for dt in (0.3, 0.8, 1.5))]
    for eps in (1.0, 0.3):
        got = scaling._contracted_paths(torus, pts, draws, eps)
        want = ref_contracted_paths(torus, pts, draws, eps)
        for a, b in zip(got, want, strict=True):
            _same(a, b)


# ---------------------------------------------------------------------------
# the scaling chunk worker: support cull and compress against the masks

CHUNK_SIDE = 6.0
CHUNK_TIMES = (0.4, 0.9, 1.6)
CHUNK_SCHEDULE = (1.0, 0.5, 0.1)


def _chunk_phis(dim):
    """A box from the cell's lower edge, a bump crossing the upper edge, a
    zero-level box; one per time, in each of three orders."""
    box = TestFunction.box(-0.5, (0.0,) * dim, (2.5,) + (4.0,) * (dim - 1))
    bump = TestFunction.bump(-0.7, (5.5,) + (3.0,) * (dim - 1), 1.8)
    zero = TestFunction.box(0.0, (1.0,) * dim, (3.0,) * dim)
    return {"box-bump-zero": (box, bump, zero),
            "bump-zero-box": (bump, zero, box),
            "zero-box-bump": (zero, box, bump)}


def _chunk_measures(dim):
    torus = Domain.torus(dim, CHUNK_SIDE)
    return {"poisson": PoissonMeasure(torus, 1.2),
            "neyman-scott": NeymanScottMeasure(torus, 0.6, 0.5, 0.3)}


def _chunk_kernels(dim):
    torus = Domain.torus(dim, CHUNK_SIDE)
    return {"gauss": KawasakiKernel(torus, GaussianProfile(dim, 1.3, 0.7)),
            "bump": KawasakiKernel(torus, BumpProfile(dim, 2.0, 1.1))}


def _same_chunk(measure, kernel, phis, n_rep, seed):
    args = (measure, kernel, CHUNK_TIMES, phis, CHUNK_SCHEDULE, n_rep)
    got = _chunk_joint_values(*args, RngStream(seed).generator())
    want = ref_chunk_joint_values(*args, RngStream(seed).generator())
    _same(got, want)
    return got


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("start", ["poisson", "neyman-scott"])
@pytest.mark.parametrize("profile", ["gauss", "bump"])
@pytest.mark.parametrize("order", sorted(_chunk_phis(1)))
def test_chunk_joint_values_matches_reference(dim, start, profile, order):
    measure = _chunk_measures(dim)[start]
    kernel = _chunk_kernels(dim)[profile]
    got = _same_chunk(measure, kernel, _chunk_phis(dim)[order], 400, 31)
    # the observables are hit: some replicas leave the value 1
    assert np.any(got < 1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_chunk_joint_values_nothing_moves(dim):
    torus = Domain.torus(dim, CHUNK_SIDE)
    kernel = KawasakiKernel(torus, GaussianProfile(dim, 1e-12, 0.7))
    assert not kernel.jumps(10 ** 5, CHUNK_TIMES[-1],
                            RngStream(5).generator())[0].any()
    got = _same_chunk(PoissonMeasure(torus, 1.2), kernel,
                      _chunk_phis(dim)["box-bump-zero"], 300, 5)
    # nothing moves, so every epsilon reads the same values
    assert np.all(got == got[:, :1]) and np.any(got < 1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_chunk_joint_values_without_points(dim):
    measure = PoissonMeasure(Domain.torus(dim, CHUNK_SIDE), 1e-12)
    kernel = _chunk_kernels(dim)["gauss"]
    got = _same_chunk(measure, kernel, _chunk_phis(dim)["box-bump-zero"],
                      50, 7)
    assert np.all(got == 1.0)


# ---------------------------------------------------------------------------
# the reach cull: on a wide torus most movers can never meet a support box

CULL_SIDE = 60.0


def _cull_phis(dim):
    """A box across the cell edge 0/side, a bump across the upper edge, a
    box partly outside the cell (in 2-D also wider than the side)."""
    if dim == 1:
        edge = TestFunction.box(-0.5, (-2.0,), (3.0,))
        part = TestFunction.box(-0.4, (57.5,), (63.0,))
    else:
        edge = TestFunction.box(-0.5, (-2.0, 20.0), (3.0, 26.0))
        part = TestFunction.box(-0.4, (-10.0, 57.0), (70.0, 62.0))
    bump = TestFunction.bump(-0.7, (59.0,) + (40.0,) * (dim - 1), 2.5)
    return edge, bump, part


def _cull_case(dim, start, profile):
    torus = Domain.torus(dim, CULL_SIDE)
    measure = {"poisson": PoissonMeasure(torus, 0.8 if dim == 1 else 0.03),
               "neyman-scott": NeymanScottMeasure(
                   torus, 0.5 if dim == 1 else 0.02, 0.5, 0.3)}[start]
    prof = {"gauss": GaussianProfile(dim, 1.3, 0.3),
            "bump": BumpProfile(dim, 2.0, 0.4)}[profile]
    return measure, KawasakiKernel(torus, prof)


def _same_culled_chunk(monkeypatch, measure, kernel, phis, seed):
    # spy on the cull: (movers, kept movers) of the chunk
    seen = []
    cull = scaling._cull_far

    def spy(side, pts, draws, eps_min, phis, moved):
        movers = int(np.count_nonzero(moved))
        keep = cull(side, pts, draws, eps_min, phis, moved)
        seen.append((movers, int(np.count_nonzero(keep))))
        return keep

    monkeypatch.setattr(scaling, "_cull_far", spy)
    got = _same_chunk(measure, kernel, phis, 300, seed)
    (movers, kept), = seen
    return got, movers, kept


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("start", ["poisson", "neyman-scott"])
@pytest.mark.parametrize("profile", ["gauss", "bump"])
def test_chunk_joint_values_culled_matches_reference(monkeypatch, dim, start,
                                                     profile):
    measure, kernel = _cull_case(dim, start, profile)
    got, movers, kept = _same_culled_chunk(monkeypatch, measure, kernel,
                                           _cull_phis(dim), 41)
    assert np.any(got < 1.0)
    assert 0 < kept < movers / 2  # the cull drops most movers


def test_chunk_joint_values_box_wider_than_side_keeps_every_mover(
        monkeypatch):
    measure, kernel = _cull_case(1, "poisson", "gauss")
    edge, bump, _ = _cull_phis(1)
    wide = TestFunction.box(-0.2, (-10.0,), (75.0,))
    got, movers, kept = _same_culled_chunk(monkeypatch, measure, kernel,
                                           (edge, wide, bump), 43)
    assert kept == movers > 0 and np.any(got < 1.0)


def _meets(x, r, a, b, side):
    """Some wrap(x + d) with |d| <= r lies in [a, b]: tried at d = 0, +-r
    and at every d that lands on a face or the middle of [a, b] or of its
    part in the cell, in every lift by a multiple of side."""
    lifts = np.arange(-math.ceil(r / side) - 2, math.ceil(r / side) + 3)
    lo, hi = min(max(a, 0.0), side), min(max(b, 0.0), side)
    aims = np.array([a, b, 0.5 * (a + b), lo, hi, 0.5 * (lo + hi)])
    d = (aims[:, None] + side * lifts).ravel() - x
    d = np.concatenate([d[np.abs(d) <= r], [0.0, r, -r]])
    with np.errstate(invalid="ignore"):
        y = Domain.torus(1, side).wrap(x + d)
    return bool(np.any((y >= a) & (y <= b)))


def _brute_keep(side, pts, reach, boxes):
    return np.array([any(all(_meets(x, r, a, b, side)
                             for x, r, a, b in zip(row, reach_row, lo, hi))
                         for lo, hi in boxes)
                     for row, reach_row in zip(pts, reach)], dtype=bool)


@st.composite
def _reach_cases(draw):
    side = draw(st.sampled_from([1.0, 7.0, 60.0, 100.0]))
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    cell = st.one_of(st.floats(0.0, side, exclude_max=True),
                     st.sampled_from([0.0, np.nextafter(side, 0.0)]))
    pts = np.array(draw(st.lists(st.lists(cell, min_size=dim, max_size=dim),
                                 min_size=n, max_size=n)))
    length = st.one_of(st.floats(0.0, 3.0 * side), st.just(0.0))
    reach = np.array(draw(st.lists(st.lists(length, min_size=dim,
                                            max_size=dim),
                                   min_size=n, max_size=n)))
    # boxes inside the cell, across an edge, partly or wholly outside it,
    # or wider than the side, coordinate by coordinate
    lo = st.floats(-1.5 * side, 1.5 * side)
    width = st.floats(1e-3 * side, 1.5 * side)
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        a = np.array(draw(st.lists(lo, min_size=dim, max_size=dim)))
        w = np.array(draw(st.lists(width, min_size=dim, max_size=dim)))
        boxes.append((a, a + w))
    return side, pts, reach, boxes


@given(case=_reach_cases())
@settings(max_examples=300, deadline=None)
def test_reach_predicate_keeps_every_row_that_can_meet_a_box(case):
    side, pts, reach, boxes = case
    phis = [TestFunction.box(-0.5, lo, hi) for lo, hi in boxes]
    keep = scaling._in_reach(side, pts, reach, phis)
    assert keep.shape == (len(pts),) and keep.dtype == bool
    # every row that can meet a box is kept
    assert not np.any(_brute_keep(side, pts, reach, boxes) & ~keep)
    # and a kept row meets one once its reach grows by the slack
    grown = reach * (1.0 + 1e-6) + 1e-6 * side
    assert not np.any(keep & ~_brute_keep(side, pts, grown, boxes))


# ---------------------------------------------------------------------------
# the starting-measure protocol: Poisson draws and the fixed-start oracle

INTENSITIES = (0.3, 1.5, 4.0)
SAMPLER_SEEDS = range(40)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode", ["torus", "fullspace"])
def test_poisson_measure_sample_matches_sample_poisson(dim, mode):
    domain = _domains(dim)[mode]
    for z in INTENSITIES:
        measure = PoissonMeasure(domain, z)
        for seed in SAMPLER_SEEDS:
            got = measure.sample(RngStream(seed, 5))
            want = ref_sample_poisson(domain, z, RngStream(seed, 5))
            assert got.domain == domain
            _same(got.points, want.points)


@pytest.mark.parametrize("dim", [1, 2])
def test_poisson_measure_on_collar_box_matches_sample_poisson(dim):
    # dynamics seeds the buffer collar on window +- width of a full-space
    # domain; the measure samples that box as its own full-space window
    domain = _domains(dim)["fullspace"]
    lo, hi = domain.lower - 2.5, domain.upper + 2.5
    for z in INTENSITIES:
        measure = PoissonMeasure(Domain.fullspace(lo, hi), z)
        for seed in SAMPLER_SEEDS:
            got = measure.sample(RngStream(seed).child(0xB0FF))
            want = ref_sample_poisson(domain, z, RngStream(seed).child(0xB0FF),
                                      lo=lo, hi=hi)
            _same(got.points, want.points)


RAIN_RATES = {
    "constant": 1.3,
    "field": BoundedField(lambda x: 0.4 + 0.6 * np.cos(x[:, 0]) ** 2, 1.0),
    "zero": 0.0,
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode", ["torus", "fullspace"])
@pytest.mark.parametrize("rate", list(RAIN_RATES), ids=list(RAIN_RATES))
def test_sample_poisson_space_time_matches_reference(dim, mode, rate):
    # the one-replica case of the batched rain keeps its stream and sort
    domain = _domains(dim)[mode]
    boxes = [(None, None), (domain.lower + 0.5, domain.upper - 1.0)]
    if mode == "fullspace":
        boxes.append((domain.lower - 2.5, domain.upper + 2.5))
    for lo, hi in boxes:
        for horizon in (0.0, 0.4, 2.5):
            for seed in SAMPLER_SEEDS:
                rng = RngStream(seed).child(2)
                got = sample_poisson_space_time(domain, RAIN_RATES[rate],
                                                horizon, rng, lo=lo, hi=hi)
                want = ref_sample_poisson_space_time(
                    domain, RAIN_RATES[rate], horizon, rng, lo=lo, hi=hi)
                _same(got[0], want[0])
                _same(got[1], want[1])


def _engine_kernels(domain):
    kernels = {name: k for name, (k, _ref) in _kernels(domain).items()}
    kernels["death"] = DeathKernel(domain, BoundedField(
        lambda x: 0.3 + 0.5 * np.sin(x[:, 0]) ** 2, 0.8))
    return kernels


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode", ["torus", "fullspace"])
@pytest.mark.parametrize("seed", SEEDS)
def test_one_replica_engine_matches_reference(dim, mode, seed):
    # evolve_snapshot and evolve_with_immigration keep their bits: the
    # batch engine on one replica steps as the earlier one-replica march
    domain = _domains(dim)[mode]
    pts, _ = _case(dim, seed, "scalar")
    pts = domain.wrap(pts[:40]) if domain.is_torus else pts[:40]
    times = (0.3, 0.7, 1.6)
    rain = sample_poisson_space_time(domain, 2.0, times[-1],
                                     RngStream(seed, 2))
    cull = None if domain.is_torus else (domain.lower - 4.0,
                                         domain.upper + 4.0)
    for name, kernel in _engine_kernels(domain).items():
        for births in (None, rain):
            ids = np.zeros(len(pts), dtype=np.intp)
            engine_births = None if births is None else \
                (births[0], np.zeros(len(births[0]), dtype=np.intp), births[1])
            got = _march(pts, ids, kernel, times, np.random.default_rng(seed),
                         engine_births, cull)
            want = ref_march(pts, kernel, times, np.random.default_rng(seed),
                             births, cull)
            for (g_pts, g_ids), w_pts in zip(got, want, strict=True):
                _same(g_pts, w_pts)
                assert np.array_equal(g_ids, np.zeros(len(w_pts)))


PHI_SETS = {
    "1d": [TestFunction.box(-0.5, (-1.0,), (1.0,)),
           TestFunction.bump(-0.6, (0.5,), 1.5)],
    "2d": [TestFunction.box(-0.5, (0.0, 0.0), (2.0, 1.5)),
           TestFunction.bump(-0.4, (1.0, 1.0), 0.8),
           TestFunction.box(-0.3, (0.5, 0.2), (2.5, 2.0))],
}


@pytest.mark.parametrize("phis", sorted(PHI_SETS))
@pytest.mark.parametrize("seed", SEEDS)
def test_support_box_poisson_start_matches_float_start(phis, seed):
    phi_list = PHI_SETS[phis]
    for z in INTENSITIES:
        measure = PoissonMeasure(Domain.fullspace(*support_box(phi_list)), z)
        got = measure.sample_batch(50, RngStream(seed).generator())
        want = ref_float_start(z, phi_list, 50, RngStream(seed).generator())
        _same(got[0], want[0])
        _same(got[1], want[1])


@pytest.mark.parametrize("phis", sorted(PHI_SETS))
def test_fixed_start_oracle_matches_fixed_product(phis):
    # the product terms glauber_joint_laplace builds, with their index tuples
    phi_list = PHI_SETS[phis]
    times, a = (0.3, 0.6, 1.2)[:len(phi_list)], 1.3
    terms = []
    for mask in range(1, 1 << len(phi_list)):
        tup = tuple(i for i in range(len(phi_list)) if mask >> i & 1)
        fn = phi_list[tup[0]]
        for i in tup[1:]:
            fn = fn.product(phi_list[i])
        terms.append((math.exp(-a * times[tup[-1]]), fn, tup))
    lo, hi = support_box(phi_list)
    pts = np.random.default_rng(7).uniform(lo - 0.5, hi + 0.5,
                                           size=(40, len(lo)))
    config = Configuration(pts, Domain.fullspace(lo - 0.5, hi + 0.5))
    pairs = [(c, fn) for c, fn, _ in terms]
    got = config.expected_product_functional(pairs)
    assert got == ref_fixed_product(config, terms, phi_list)
    assert glauber_joint_laplace(config, a, 0.0, times, phi_list) == got
    empty = Configuration(np.empty((0, len(lo))), config.domain)
    assert empty.expected_product_functional(pairs) == 1.0


def test_fixed_start_oracle_refuses_nonpositive_factor():
    phi = TestFunction.box(-0.9, (0.0,), (1.0,))
    config = Configuration(np.array([[0.5]]), Domain.fullspace((0.0,), (1.0,)))
    with pytest.raises(ValueError, match="product factor left"):
        config.expected_product_functional([(1.0, phi), (1.0, phi)])


# ---------------------------------------------------------------------------
# wrap: bitwise against np.mod with the ">= side -> 0" fix-up

SIDE = 7.0
SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, SIDE, -SIDE, 2 * SIDE,
           1e300, -1e300, 1e-300, -1e-300, np.nextafter(SIDE, 0.0),
           np.nextafter(SIDE, 2 * SIDE), -5e-324]


def _expected_wrap(x, side):
    m = np.mod(x, side)
    return np.where(m >= side, 0.0, m)


@given(arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2,
                                                    max_side=6),
                      elements=st.one_of(st.floats(allow_nan=True,
                                                   allow_infinity=True),
                                         st.sampled_from(SPECIAL))),
       side=st.sampled_from([SIDE, 1.0, 0.1, 100.0, 3.3]),
       strided=st.booleans())
@settings(max_examples=300, deadline=None)
def test_wrap_bitwise_matches_mod(arr, side, strided):
    if strided:
        # a non-contiguous view: every other row of a wider array
        wide = np.repeat(arr, 2, axis=0)
        arr = wide[::2]
    before = arr.copy()
    domain = Domain.torus(arr.shape[-1] if arr.ndim == 2 else 1, side)
    with np.errstate(invalid="ignore"):
        got = domain.wrap(arr)
        want = _expected_wrap(arr, side)
    _same(got, want)
    _same(arr, before)  # the argument is left unchanged
    assert got is not arr
    with np.errstate(invalid="ignore"):
        folded = domain.wrap(arr, copy=False)
    _same(folded, want)
    _same(arr, want)  # folded in place, the view too
    assert folded is arr


def test_wrap_special_values():
    x = np.array(SPECIAL)
    before = x.copy()
    with np.errstate(invalid="ignore"):
        got = Domain.torus(1, SIDE).wrap(x)
        want = ref_wrap(Domain.torus(1, SIDE), x)
    _same(got, want)
    _same(x, before)
    assert np.signbit(got[1]) == np.signbit(np.mod(-0.0, SIDE))


def test_wrap_fullspace_is_identity():
    x = np.array([[-1e300, 4.0], [np.nan, -0.0]])
    got = Domain.fullspace((0.0, 0.0), (1.0, 1.0)).wrap(x)
    _same(got, x)


# ---------------------------------------------------------------------------
# the buffer width: bisection to the last representable step

def _width_kernels():
    line = Domain.fullspace((0.0,), (5.0,))
    plane = Domain.fullspace((0.0, 0.0), (5.0, 5.0))
    return {
        "brownian": BrownianKernel(line),
        "killed-brownian": KilledBrownianKernel(line, 1.0),
        "kawasaki-gauss-1d": KawasakiKernel(line, GaussianProfile(1, 1.0,
                                                                  0.5)),
        "kawasaki-gauss-2d": KawasakiKernel(plane, GaussianProfile(2, 1.0,
                                                                   0.5)),
        "kawasaki-bump": KawasakiKernel(line, BumpProfile(1, 2.0, 1.1)),
    }


@pytest.mark.parametrize("name", sorted(_width_kernels()))
@pytest.mark.parametrize("t_max", [0.05, 1.0, 4.0])
@pytest.mark.parametrize("target", [1e-4, 1e-8])
def test_buffer_width_matches_reference(name, t_max, target):
    kernel = _width_kernels()[name]
    want = ref_buffer_width(kernel, t_max, target)
    calls = []
    tail_bound = kernel.tail_bound

    def spy(t, r):
        calls.append(r)
        return tail_bound(t, r)

    kernel.tail_bound = spy
    assert kernel.buffer_width(t_max, target) == want
    assert len(calls) < 100


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("var", [0.0, 0.01, 0.3, 40.0])
def test_gauss_smooth_box_torus_matches_image_loop(dim, var):
    # a box reaching past the cell, points in and out of it, and variances
    # from one image on each side to many
    side = 5.0
    func = TestFunction.box(-0.4, np.full(dim, 3.5), np.full(dim, 6.2))
    pts = np.random.default_rng(dim).uniform(-1.0, 6.0, size=(257, dim))
    got = gauss_smooth_box_torus(func, var, pts, side)
    _same(got, ref_gauss_smooth_box_torus(func, var, pts, side))


# ---------------------------------------------------------------------------
# the correlation reduce and the column-wise samplers

@pytest.mark.parametrize("n", [2, 3, 7, 8193, 20_000, 100_003])
@pytest.mark.parametrize("layout", ["contiguous", "strided", "reversed"])
@pytest.mark.parametrize("dtype", [float, np.int64, bool])
def test_mean_se_matches_reference(n, layout, dtype):
    # strided columns go through numpy's buffered reduction, in blocks
    table = np.random.default_rng(n).lognormal(1.0, 2.0, size=(n, 3))
    table = (table > 3.0) if dtype is bool else table.astype(dtype)
    values = {"contiguous": np.ascontiguousarray(table[:, 1]),
              "strided": table[:, 1], "reversed": table[::-1, 2]}[layout]
    got, want = mean_se(values), ref_mean_se(values)
    assert got == want
    assert all(type(v) is float for v in got)


def _correlation_counts(dim, n_rep, seed, empty=False):
    # [0, 3]^dim, 3 bins an axis (2 in 3-D), about four points a bin
    domain = Domain.fullspace((0.0,) * dim, (3.0,) * dim)
    edges = correlation_edges(domain, 3 if dim < 3 else 2)
    z = 4.0 * (len(edges[0]) - 1) ** dim / 3.0 ** dim
    pts, ids = PoissonMeasure(domain, z).sample_batch(
        0 if empty else n_rep, RngStream(seed).generator())
    return bin_counts(pts, ids, n_rep, domain, edges), edges


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_rep", [1, 2, 7, 20_000])
def test_correlations_from_counts_match_reference(order, dim, n_rep):
    counts, edges = _correlation_counts(dim, n_rep, 100 * dim + n_rep)
    assert counts.any()
    got = correlations_from_counts(counts, order, edges)
    want = ref_correlations_from_counts(counts, order, edges)
    assert got.index_tuples == want.index_tuples
    assert got.n_samples == want.n_samples == n_rep
    _same(got.estimates, want.estimates)
    _same(got.stderrs, want.stderrs)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_rep", [1, 2, 7])
def test_correlations_of_empty_batches_match_reference(order, dim, n_rep):
    counts, edges = _correlation_counts(dim, n_rep, 0, empty=True)
    assert not counts.any()
    got = correlations_from_counts(counts, order, edges)
    want = ref_correlations_from_counts(counts, order, edges)
    _same(got.estimates, want.estimates)
    _same(got.stderrs, want.stderrs)


def test_correlations_from_counts_of_a_strided_table_match_reference():
    counts, edges = _correlation_counts(2, 5000, 3)
    strided = np.asfortranarray(counts)[::-1]
    for order in (1, 2, 3):
        got = correlations_from_counts(strided, order, edges)
        want = ref_correlations_from_counts(strided, order, edges)
        _same(got.estimates, want.estimates)
        _same(got.stderrs, want.stderrs)


def _sampler_domains(dim):
    return {"torus": Domain.torus(dim, 3.5),
            "fullspace": Domain.fullspace((-1.25,) * dim,
                                          (2.0 + 0.5 * dim,) * dim)}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mode", ["torus", "fullspace"])
@pytest.mark.parametrize("n_rep", [0, 1, 7, 20_000])
@pytest.mark.parametrize("ends", [False, True])
def test_poisson_sample_batch_matches_broadcast_reference(dim, mode, n_rep,
                                                          ends):
    measure = PoissonMeasure(_sampler_domains(dim)[mode], 0.8)
    got_gen, want_gen = RngStream(n_rep, 6).generator(), \
        RngStream(n_rep, 6).generator()
    got = measure.sample_batch(n_rep, got_gen, ends=ends)
    want = ref_poisson_sample_batch(measure, n_rep, want_gen, ends=ends)
    _same(got[0], want[0])
    _same(got[1], want[1])
    _same_next_draw(got_gen, want_gen)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mode", ["torus", "fullspace"])
@pytest.mark.parametrize("n_rep", [0, 1, 7, 2000])
@pytest.mark.parametrize("rate", list(RAIN_RATES), ids=list(RAIN_RATES))
def test_sample_space_time_batch_matches_broadcast_reference(dim, mode,
                                                             n_rep, rate):
    domain = _sampler_domains(dim)[mode]
    lo, hi = domain.lower + 0.25, domain.upper - 0.5
    got_gen, want_gen = RngStream(n_rep, 7).generator(), \
        RngStream(n_rep, 7).generator()
    got = sample_space_time_batch(n_rep, RAIN_RATES[rate], 1.5, lo, hi,
                                  got_gen)
    want = ref_sample_space_time_batch(n_rep, RAIN_RATES[rate], 1.5, lo, hi,
                                       want_gen)
    for a, b in zip(got, want, strict=True):
        _same(a, b)
    _same_next_draw(got_gen, want_gen)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mode", ["torus", "fullspace"])
@pytest.mark.parametrize("n_rep", [0, 1, 7, 2000])
def test_neyman_scott_parents_match_broadcast_reference(dim, mode, n_rep):
    measure = NeymanScottMeasure(_sampler_domains(dim)[mode], 0.4, 0.5, 0.2)
    _same_batch(measure, ref_neyman_scott, n_rep, 8 + n_rep)


# ---------------------------------------------------------------------------
# the one smoothing decision: gauss_smooth's side

SMOOTH_SIDE = 5.0


def _smooth_case(dim, mode, family):
    """A domain, a test function reaching past the cell, and points in and
    out of the cell (a bump only on full space: the torus form refuses
    it)."""
    domain = (Domain.torus(dim, SMOOTH_SIDE) if mode == "torus" else
              Domain.fullspace((0.0,) * dim, (SMOOTH_SIDE,) * dim))
    if family == "box":
        func = TestFunction.box(-0.4, np.full(dim, 3.5), np.full(dim, 6.2))
        n = 257
    else:
        func = TestFunction.bump(-0.7, np.full(dim, 2.0), 1.3)
        n = 9
    pts = np.random.default_rng(dim).uniform(-SMOOTH_SIDE, 2.0 * SMOOTH_SIDE,
                                             size=(n, dim))
    return domain, func, pts


SMOOTH_GRID = [(dim, mode, family) for dim in (1, 2)
               for mode in ("torus", "fullspace") for family in ("box", "bump")
               if (mode, family) != ("torus", "bump")]


@pytest.mark.parametrize("dim, mode, family", SMOOTH_GRID)
@pytest.mark.parametrize("n_terms", [1, 2, 3, 4, 5])
def test_gaussian_profile_smooth_matches_reference(dim, mode, family,
                                                   n_terms):
    domain, func, pts = _smooth_case(dim, mode, family)
    profile = GaussianProfile(dim, 1.3, 0.6)
    weights = np.random.default_rng(n_terms).uniform(0.1, 1.0, n_terms)
    side = domain.side if domain.is_torus else None
    _same(profile.smooth(func, weights, pts, side),
          ref_gaussian_profile_smooth(profile, func, weights, pts, side))


@pytest.mark.parametrize("dim, mode, family", SMOOTH_GRID)
@pytest.mark.parametrize("t", [1e-4, 0.01, 0.7, 30.0])
def test_brownian_semigroup_matches_reference(dim, mode, family, t):
    domain, func, pts = _smooth_case(dim, mode, family)
    kernel = BrownianKernel(domain)
    got, want = kernel.semigroup(func, t), ref_brownian_semigroup(kernel,
                                                                  func, t)
    _same(got.support_lo, want.support_lo)
    _same(got.support_hi, want.support_hi)
    assert got.bound == want.bound
    if domain.is_torus:
        # gauss_smooth sums the one torus term from 0, as it sums every
        # mixture: a -0.0 of the wrapped closed form (a mass that is
        # exactly 0, as at t = 1e-4, times the negative level) comes out
        # as +0.0, so == compares, and the bits agree up to that sign
        assert np.array_equal(got(pts), want(pts))
        _same(got(pts) + 0.0, want(pts) + 0.0)
    else:
        _same(got(pts), want(pts))


@pytest.mark.parametrize("dim, mode, family", SMOOTH_GRID)
def test_neyman_scott_smooth_matches_reference(dim, mode, family):
    domain, func, pts = _smooth_case(dim, mode, family)
    measure = NeymanScottMeasure(domain, 0.6, 0.5, 0.3)
    other = TestFunction.box(-0.3, np.full(dim, -1.0), np.full(dim, 1.5))
    terms = [(1.0, func), (-0.5, other)]
    _same(measure._smooth(terms, pts),
          ref_neyman_scott_smooth(measure, terms, pts))
