"""Configurations, Poisson samplers, growth certificates, rng streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from freedyn.pointproc import (
    CHUNK,
    Configuration,
    PoissonMeasure,
    RngStream,
    check_times,
    chunk_sizes,
    mean_se,
    pair_into,
    parallel_map_ordered,
    release_free_memory,
    run_chunks,
    sample_poisson_space_time,
    theta_check,
)
from freedyn.space import Domain


D1 = Domain.fullspace((0.0,), (5.0,))


class TestRngStream:
    # (5, 1 + 7 * 2**32) and (5 + 2**32, 7) are the same uint32 word list
    # once split, and [5, 0] seeds SeedSequence as [5] does: a stream keyed
    # by the word list [seed, stream_id] would collide on these pairs
    _PAIRS = [(5, 1 + 7 * 2**32), (5 + 2**32, 7), (5, 0), (0, 5), (0, 0),
              (5, 2**32)]

    @pytest.mark.parametrize("seed, sid", [(42, 0)] + _PAIRS)
    def test_reproducible(self, seed, sid):
        a, b = RngStream(seed, sid).generator(), RngStream(seed, sid).generator()
        assert isinstance(a.bit_generator, np.random.SFC64)
        assert np.array_equal(a.random(8), b.random(8))

    def test_distinct_pairs_draw_distinct_streams(self):
        firsts = {RngStream(seed, sid).generator().integers(2**63)
                  for seed, sid in self._PAIRS}
        assert len(firsts) == len(self._PAIRS)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator().random(8)
        b = RngStream(42, 1).generator().random(8)
        assert not np.array_equal(a, b)

    def test_child_deterministic_and_distinct(self):
        r = RngStream(7)
        a = r.child(3).generator().random(4)
        b = r.child(3).generator().random(4)
        c = r.child(4).generator().random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_nested_children(self):
        r = RngStream(7)
        a = r.child(1, 2).generator().random(4)
        b = r.child(1).child(2).generator().random(4)
        assert np.array_equal(a, b)


def test_parallel_map_ordered_matches_serial():
    fn = lambda i: i * i
    serial = parallel_map_ordered(fn, 20, threads=1)
    threaded = parallel_map_ordered(fn, 20, threads=5)
    assert serial == threaded == [i * i for i in range(20)]


@pytest.mark.parametrize("rows, n, per_chunk", [
    (None, 2 * CHUNK + 3, CHUNK),  # the default: few points per replica
    (13.0, 2 * CHUNK + 3, CHUNK),  # 2**18 / 13 replicas exceed CHUNK
    (100.0, 2 * CHUNK + 3, 2621),  # about 2**18 expected points a chunk
    (1e9, 5, 1),  # at least one replica a chunk
])
def test_run_chunks_draws_chunk_c_from_child_c_in_order(rows, n, per_chunk):
    rng = RngStream(9)
    sizes = chunk_sizes(n, per_chunk)
    expected = np.concatenate([rng.child(c).generator().random(m)
                               for c, m in enumerate(sizes)])
    extra = {} if rows is None else {"rows": rows}
    for threads in (1, 2):
        out = run_chunks(lambda m, gen: gen.random(m), n, rng, threads,
                         **extra)
        assert np.array_equal(out, expected)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3 * CHUNK + 7), threads=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_run_chunks_is_the_in_order_concatenation_of_its_chunks(n, threads,
                                                                 seed):
    rng = RngStream(seed)

    def worker(m, gen):
        return gen.random((m, 2))

    expected = np.concatenate([worker(m, rng.child(c).generator())
                               for c, m in enumerate(chunk_sizes(n, CHUNK))])
    assert np.array_equal(run_chunks(worker, n, rng, threads), expected)


def test_release_free_memory_keeps_live_arrays():
    keep = np.arange(1 << 20)
    for _ in range(4):
        np.ones(1 << 20)
    assert release_free_memory() is None
    assert np.array_equal(keep, np.arange(1 << 20))


def test_poisson_sample_batch_ends_are_the_end_rows_of_its_ids():
    measure = PoissonMeasure(Domain.torus(2, 3.0), 0.7)
    got_gen, want_gen = RngStream(4).generator(), RngStream(4).generator()
    pts, ends = measure.sample_batch(50, got_gen, ends=True)
    want_pts, want_ids = measure.sample_batch(50, want_gen)
    assert np.array_equal(pts, want_pts)
    assert ends.dtype == want_ids.dtype
    assert np.array_equal(ends, np.searchsorted(want_ids, np.arange(1, 51)))
    assert np.array_equal(got_gen.random(4), want_gen.random(4))


def test_run_chunks_and_mean_se_refuse_small_budgets():
    with pytest.raises(ValueError, match="positive number of replicas"):
        run_chunks(lambda m, gen: gen.random(m), 0, RngStream(9))
    with pytest.raises(ValueError, match="at least 2 replicas"):
        mean_se(np.ones(1))


class TestPairInto:
    def test_trailing_empty_replicas_stay_zero(self):
        acc = np.zeros(5)
        out = pair_into(acc, np.array([0, 0, 2]), np.array([1.0, 2.0, 3.0]))
        assert out is acc
        assert np.array_equal(acc, [3.0, 0.0, 3.0, 0.0, 0.0])

    def test_zero_values_are_skipped(self):
        # a zero adds nothing, so even an id past the end is never read
        acc = np.full(3, 0.5)
        pair_into(acc, np.array([1, 7]), np.array([2.0, 0.0]))
        assert np.array_equal(acc, [0.5, 2.5, 0.5])
        pair_into(acc, np.array([9, 9]), np.zeros(2))
        assert np.array_equal(acc, [0.5, 2.5, 0.5])


class TestConfiguration:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Configuration(np.array([[1.0], [1.0]]), D1)

    def test_rejects_outside_torus(self):
        t = Domain.torus(1, 4.0)
        with pytest.raises(ValueError):
            Configuration(np.array([[4.0]]), t)

    def test_union(self):
        a = Configuration(np.array([[1.0], [2.0]]), D1)
        b = Configuration(np.array([[3.0]]), D1)
        assert len(a.union(b)) == 3

    def test_csv_roundtrip(self, tmp_path):
        cfg = Configuration(np.array([[1.25, 2.5], [0.0, 3.75]]), Domain.torus(2, 4.0))
        path = tmp_path / "cfg.csv"
        path.write_text(cfg.to_csv())
        back = Configuration.from_csv(path.read_text())
        assert np.allclose(back.points, cfg.points)
        assert back.domain == cfg.domain

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_csv_roundtrip_is_exact(self, data):
        dim = data.draw(st.integers(1, 3))
        if data.draw(st.booleans()):
            side = data.draw(st.floats(0.5, 100.0))
            domain = Domain.torus(dim, side)
            coord = st.floats(0.0, side, exclude_max=True)
        else:
            lo = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=dim,
                                    max_size=dim))
            width = data.draw(st.floats(0.5, 100.0))
            domain = Domain.fullspace(lo, [v + width for v in lo])
            coord = st.floats(-1e6, 1e6)
        # rows are distinct under ==, so 0.0 and -0.0 never share a row
        rows = data.draw(st.lists(
            st.tuples(*[st.one_of(st.just(-0.0), coord)] * dim),
            max_size=12, unique=True))
        cfg = Configuration(np.array(rows, dtype=float).reshape(-1, dim),
                            domain)
        back = Configuration.from_csv(cfg.to_csv())
        assert back == cfg
        assert back.points.shape == cfg.points.shape
        assert np.array_equal(np.signbit(back.points), np.signbit(cfg.points))

    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(1, 2), torus=st.booleans(), data=st.data(),
           comments=st.lists(st.text(alphabet=st.characters(
               blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=20),
               max_size=3))
    def test_csv_roundtrip_after_comment_lines(self, dim, torus, data,
                                               comments):
        # the CLI writes provenance comments above the configuration CSV;
        # a start read back from such a file keeps every bit
        domain = Domain.torus(dim, 7.5) if torus else \
            Domain.fullspace([-3.0] * dim, [4.0] * dim)
        coord = st.floats(0.0, 7.5, exclude_max=True) if torus else \
            st.floats(-1e3, 1e3)
        rows = data.draw(st.lists(st.tuples(*[coord] * dim), max_size=8,
                                  unique=True))
        cfg = Configuration(np.array(rows, dtype=float).reshape(-1, dim),
                            domain)
        header = "".join("# note " + c + "\n" for c in comments)
        back = Configuration.from_csv(header + cfg.to_csv())
        assert back == cfg
        assert back.points.shape == cfg.points.shape

    def test_csv_without_domain_header_is_refused(self):
        with pytest.raises(ValueError, match="missing domain header"):
            Configuration.from_csv("# freedyn 0.1.0\nx0\n1.0\n")

    def test_ball_counts_of_empty_and_single_point(self):
        empty = Configuration(np.empty((0, 1)), D1)
        assert theta_check(empty, 1.0, 1, center=np.array([0.0])).counts == (0,)
        one = Configuration(np.array([[0.0, 0.0]]), Domain.fullspace((-2.0, -2.0), (2.0, 2.0)))
        assert theta_check(one, 1.0, 1, center=np.array([0.0, 0.0])).counts == (1,)

    def test_ball_counts_unit_grid(self):
        # integer grid on [0,10]; |x-5| <= 2.5 holds for 3,4,5,6,7
        grid = Configuration(np.arange(11.0)[:, None], Domain.fullspace((0.0,), (10.5,)))
        dist = grid.domain.distance(grid.points, np.array([5.0]))
        assert np.count_nonzero(dist <= 2.5) == 5
        assert theta_check(grid, 1.0, 3, center=np.array([5.0])).counts == (3, 5, 7)


BALL_DOMAINS = [Domain.torus(1, 10.0), Domain.torus(2, 10.0),
                Domain.fullspace((-5.0,), (5.0,)),
                Domain.fullspace((-5.0, -5.0), (5.0, 5.0))]


def kdtree_counts(pts, domain, center, radii):
    tree = (cKDTree(pts, boxsize=domain.side) if domain.is_torus
            else cKDTree(pts))
    return [len(tree.query_ball_point(center, float(r))) for r in radii]


class TestBallCounts:
    """Ball counts against scipy's cKDTree as the reference."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("domain", BALL_DOMAINS,
                             ids=["torus1", "torus2", "full1", "full2"])
    def test_random_sets_at_integer_radii(self, domain, seed):
        gen = np.random.default_rng(seed)
        lo, hi = domain.lower, domain.upper
        cfg = Configuration(lo + (hi - lo) * gen.random((200, domain.dim)),
                            domain)
        radii = range(1, 9)
        for center in (np.zeros(domain.dim),
                       lo + (hi - lo) * gen.random(domain.dim)):
            expected = kdtree_counts(cfg.points, domain, center, radii)
            dist = domain.distance(cfg.points, center)
            assert [np.count_nonzero(dist <= r) for r in radii] == expected
            rep = theta_check(cfg, 1.0, 8, center=center)
            assert list(rep.counts) == expected

    def test_points_on_the_sphere_count_inside(self):
        plane = Domain.fullspace((-5.0, -5.0), (5.0, 5.0))
        cfg = Configuration(np.array([[3.0, 4.0]]), plane)
        assert np.count_nonzero(plane.distance(cfg.points, [0.0, 0.0]) <= 5) == 1
        assert theta_check(cfg, 1.0, 5).counts == (0, 0, 0, 0, 1)
        assert kdtree_counts(cfg.points, plane, [0.0, 0.0], [5]) == [1]
        # both min-image neighbours of 0 at distance 0.5 on a side-10 torus
        ring = Domain.torus(1, 10.0)
        cfg = Configuration(np.array([[0.5], [9.5]]), ring)
        assert np.count_nonzero(ring.distance(cfg.points, [0.0]) <= 0.5) == 2
        assert kdtree_counts(cfg.points, ring, [0.0], [0.5]) == [2]
        cfg = Configuration(np.array([[1.0], [9.0]]), ring)
        assert theta_check(cfg, 1.0, 1).counts == (2,)


class TestSamplePoisson:
    def test_nonpositive_intensity_refused(self):
        for z in (0.0, -1.0):
            with pytest.raises(ValueError, match="intensity must be > 0"):
                PoissonMeasure(D1, z)

    def test_mean_count(self):
        # z=2 on [0,5]: mean count 10
        rng = RngStream(11)
        gen_counts = [len(PoissonMeasure(D1, 2.0).sample(rng.child(i))) for i in range(4000)]
        mean = np.mean(gen_counts)
        se = np.std(gen_counts, ddof=1) / math.sqrt(len(gen_counts))
        assert abs(mean - 10.0) <= 3 * se

    def test_disjoint_counts_uncorrelated(self):
        rng = RngStream(12)
        left, right = [], []
        for i in range(4000):
            pts = PoissonMeasure(D1, 2.0).sample(rng.child(i)).points
            left.append(np.sum(pts[:, 0] < 2.5))
            right.append(np.sum(pts[:, 0] >= 2.5))
        cov = np.cov(left, right, ddof=1)[0, 1]
        se = np.std(np.array(left) * np.array(right), ddof=1) / math.sqrt(len(left))
        assert abs(cov) <= 3 * se


class TestSpaceTime:
    def test_zero_horizon_empty(self):
        pts, times = sample_poisson_space_time(D1, 2.0, 0, RngStream(1))
        assert pts.shape == (0, 1) and times.shape == (0,)

    def test_mean_event_count(self):
        # rate a*z = 2 on vol 5 over horizon 3: mean 30
        rng = RngStream(14)
        n = [len(sample_poisson_space_time(D1, 2.0, 3.0, rng.child(i))[1]) for i in range(3000)]
        mean, se = np.mean(n), np.std(n, ddof=1) / math.sqrt(len(n))
        assert abs(mean - 30.0) <= 3 * se

    def test_times_sorted_within_horizon(self):
        _, times = sample_poisson_space_time(D1, 2.0, 3.0, RngStream(15))
        assert np.all(np.diff(times) >= 0)
        assert np.all((times >= 0) & (times <= 3.0))

    def test_spatial_marginal_histogram(self):
        # marginal spatial intensity over [0,T] is T*g(x)*z; brute-force
        # histogram against the analytic density in each of 5 unit bins
        rng = RngStream(16)
        reps = 3000
        edges = np.linspace(0.0, 5.0, 6)
        counts = np.zeros((reps, 5))
        for i in range(reps):
            pts, _ = sample_poisson_space_time(D1, 2.0, 3.0, rng.child(i))
            counts[i], _ = np.histogram(pts[:, 0], edges)
        mean = counts.mean(axis=0)
        se = counts.std(axis=0, ddof=1) / math.sqrt(reps)
        # per-bin expectation: z*T*bin_vol = 2*3*1
        assert np.all(np.abs(mean - 6.0) <= 3 * se)

    def test_inhomogeneous_thinning(self):
        from freedyn.pointproc import BoundedField

        field = BoundedField(lambda pts: 2.0 * (pts[:, 0] < 1.0), 2.0)
        rng = RngStream(13)
        counts_in = counts_out = 0
        for i in range(2000):
            pts, _ = sample_poisson_space_time(D1, field, 1.0, rng.child(i))
            counts_in += np.sum(pts[:, 0] < 1.0)
            counts_out += np.sum(pts[:, 0] >= 1.0)
        assert counts_out == 0
        assert abs(counts_in / 2000.0 - 2.0) < 0.15


class TestThetaCheck:
    def test_empty_config(self):
        rep = theta_check(Configuration(np.empty((0, 1)), D1), 1.0, 3)
        assert rep.kmin == 1

    def test_unit_density_line(self):
        r_max = 5
        xs = np.concatenate([np.arange(0.5, r_max), -np.arange(0.5, r_max)])
        cfg = Configuration(xs[:, None], Domain.fullspace((-r_max,), (r_max,)))
        rep = theta_check(cfg, 1.0, r_max)
        assert rep.counts == tuple(2 * r for r in range(1, r_max + 1))
        assert rep.kmin == 1

    def test_hundred_points_in_unit_ball(self):
        xs = np.linspace(-0.99, 0.99, 100)
        cfg = Configuration(xs[:, None], Domain.fullspace((-5.0,), (5.0,)))
        rep = theta_check(cfg, 1.0, 3)
        # vol(B(1)) = 2 in d=1, so K_min = ceil(100/2)
        assert rep.kmin == 50

    def test_report_dict(self):
        rep = theta_check(Configuration(np.array([[0.0]]), D1), 1.0, 2)
        d = rep.to_dict()
        assert set(d) >= {"alpha", "radii", "counts", "kmin"}

    @pytest.mark.parametrize("r_max", [2.9, 1.5, float("inf"), float("nan"),
                                       True])
    def test_non_integral_r_max_is_refused(self, r_max):
        # r_max = 2.9 once probed radii (1, 2), as int() rounds it down
        cfg = Configuration(np.array([[0.0]]), D1)
        with pytest.raises(ValueError, match="r_max must be an integer"):
            theta_check(cfg, 1.0, r_max)

    def test_integral_r_max_of_any_type_is_accepted(self):
        cfg = Configuration(np.array([[0.0]]), D1)
        want = theta_check(cfg, 1.0, 3)
        for r_max in (3.0, np.int64(3), np.float64(3.0)):
            assert theta_check(cfg, 1.0, r_max) == want


class _NoDraws:
    """An rng that fails the test the moment anything uses it."""

    def __getattr__(self, name):
        raise AssertionError("drew before checking the times")


def _timed_entry_points():
    from freedyn.dynamics import (evolve_snapshot, evolve_with_immigration,
                                  glauber_evolve)
    from freedyn.experiments import glauber_joint_experiment
    from freedyn.functions import TestFunction
    from freedyn.kernels import BrownianKernel, DeathKernel, GaussianProfile
    from freedyn.observables import glauber_joint_laplace
    from freedyn.scaling import run_scaling_experiment

    start = Configuration(np.array([[1.0], [2.0]]), D1)
    torus = PoissonMeasure(Domain.torus(1, 5.0), 1.0)
    phi = TestFunction.box(-0.5, (1.0,), (2.0,))
    no = _NoDraws()
    return {
        "evolve_snapshot": lambda ts: evolve_snapshot(
            start, BrownianKernel(D1), ts, no),
        "evolve_with_immigration": lambda ts: evolve_with_immigration(
            start, DeathKernel(D1, 1.0), 1.0, ts, no),
        "glauber_evolve": lambda ts: glauber_evolve(start, 1.0, 1.0, ts, no),
        "glauber_joint_laplace": lambda ts: glauber_joint_laplace(
            start, 1.0, 1.0, ts, [phi] * len(ts)),
        "glauber_joint_experiment": lambda ts: glauber_joint_experiment(
            start, 1.0, 1.0, ts, [phi] * len(ts), 10, no),
        "run_scaling_experiment": lambda ts: run_scaling_experiment(
            torus, GaussianProfile(1, 1.0, 0.5), ts, [phi] * len(ts), [1.0],
            10, no),
    }


@pytest.mark.parametrize("entry", sorted(_timed_entry_points()))
@pytest.mark.parametrize("times,message", [
    ([], "need at least one time"),
    ([0.0], "times must be strictly increasing and > 0"),
    ([1.0, 1.0], "times must be strictly increasing and > 0"),
    ([2.0, 1.0], "times must be strictly increasing and > 0"),
])
def test_bad_times_raise_before_any_draw(entry, times, message):
    with pytest.raises(ValueError) as err:
        _timed_entry_points()[entry](times)
    assert str(err.value) == message


def test_check_times_returns_float_tuple():
    assert check_times([1, 2.5, np.float32(3.0)]) == (1.0, 2.5, 3.0)
    assert all(type(t) is float for t in check_times(np.array([0.5, 1.0])))
    with pytest.raises(ValueError):
        check_times([1.0, float("nan")])
