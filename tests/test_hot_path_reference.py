"""Rewritten hot paths against frozen copies of the code they replaced.

``propagate_batch`` of the Brownian, killed Brownian and Kawasaki
kernels and ``Domain.wrap`` were rewritten for speed (scalar-rate draws,
sparse hop updates, folding only what left the cell) under the promise
of the same bits at the same seeds.  The Poisson configuration sampler
``sample_poisson``, the float-intensity Glauber start and the fixed-start
product oracle were folded into the starting-measure protocol
(``PoissonMeasure.sample`` / ``sample_batch`` and
``Configuration.expected_product_functional``) under the same promise.
The functions below are the earlier implementations, kept verbatim; every
test compares the new code with them using ``==`` over dimensions, time
shapes, domains and seeds.  One line changed on purpose: the Kawasaki
jump counts no longer come from numpy's Poisson sampler but from one
uniform per row inverted through the Poisson cdf (a new stream layout),
and ``ref_kawasaki`` spells that rule out row by row.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import pdtr

from freedyn.functions import TestFunction, support_box
from freedyn.kernels import (BrownianKernel, BumpProfile, GaussianProfile,
                             KawasakiKernel, KilledBrownianKernel)
from freedyn.observables import glauber_joint_laplace
from freedyn.pointproc import (BoundedField, Configuration, PoissonMeasure,
                               RngStream, as_field)
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
