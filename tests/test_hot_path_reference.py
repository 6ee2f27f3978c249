"""The torus hot path against a frozen copy of the code it replaced.

``propagate_batch`` of the Brownian, killed Brownian and Kawasaki
kernels and ``Domain.wrap`` were rewritten for speed (scalar-rate draws,
sparse hop updates, folding only what left the cell) under the promise
of the same bits at the same seeds.  The functions below are the earlier
implementations, kept verbatim; every test compares the new code with
them using ``==`` over dimensions, time shapes, domains and seeds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from freedyn.kernels import (BrownianKernel, BumpProfile, GaussianProfile,
                             KawasakiKernel, KilledBrownianKernel)
from freedyn.pointproc import BoundedField, RngStream
from freedyn.scaling import NeymanScottMeasure
from freedyn.space import Domain


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
    counts = gen.poisson(kernel.clock_rate * dts)
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
