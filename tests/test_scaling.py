"""Scaled jump profiles, convolution-series kernels, starting measures,
and the small-jump convergence experiment."""

import math
from functools import partial

import numpy as np
import pytest
from scipy.special import ndtr

from freedyn.functions import NumericFunction, TestFunction, box_quad
from freedyn.kernels import (BumpProfile, GaussianProfile, KawasakiKernel,
                             g_t_series)
from freedyn import scaling
from freedyn.pointproc import Configuration, RngStream, pair_into
from freedyn.scaling import (
    NeymanScottMeasure,
    PoissonMeasure,
    run_scaling_experiment,
)
from freedyn.space import Domain, in_box


T100 = Domain.torus(1, 100.0)


class TestScaleProfile:
    """profile.scaled(eps): density eps**dim * base(eps * x), same mass."""

    BASES = (GaussianProfile(1, 1.5, 1.1), BumpProfile(1, 1.5, 1.1))

    def test_eps_one_unchanged(self):
        xs = np.linspace(-3, 3, 31)[:, None]
        for base in self.BASES:
            assert np.allclose(base.scaled(1.0).density(xs), base.density(xs))

    def test_gaussian_maps_to_gaussian(self):
        scaled = GaussianProfile(1, 2.0, 0.7).scaled(0.25)
        assert isinstance(scaled, GaussianProfile)
        assert scaled.mass == pytest.approx(2.0)
        assert scaled.std == pytest.approx(0.7 / 0.25)
        bump = BumpProfile(1, 2.0, 0.7).scaled(0.25)
        assert isinstance(bump, BumpProfile)
        assert bump.radius == pytest.approx(0.7 / 0.25)

    def test_definition_pointwise(self):
        # scaled(x) = eps^d * base(eps x)
        eps = 0.4
        xs = np.linspace(-8, 8, 41)[:, None]
        for base in self.BASES:
            assert np.allclose(base.scaled(eps).density(xs),
                               eps * base.density(eps * xs))
        base = GaussianProfile(2, 1.5, 1.1)
        pts = np.column_stack([xs[:, 0], xs[::-1, 0] / 2])
        assert np.allclose(base.scaled(eps).density(pts),
                           eps ** 2 * base.density(eps * pts))

    def test_mass_invariant_by_quadrature(self):
        for base, reach in zip(self.BASES, (12.0 * 1.1, 1.1)):
            for eps in (0.1, 0.5, 2.0):
                scaled = base.scaled(eps)
                # 12 standard deviations, or the support, of the stretched profile
                half = reach / eps
                mass, _ = box_quad(scaled.density, -half, half, tol=1e-10)
                assert mass == pytest.approx(1.5, abs=1e-8)

    def test_rejects_nonpositive_eps(self):
        for base in self.BASES:
            for eps in (0.0, -0.5):
                with pytest.raises(ValueError):
                    base.scaled(eps)


class TestGtSeries:
    def test_mean_identity(self):
        series = g_t_series(GaussianProfile(1, 1.0, 0.7), 1.0, tol=1e-10)
        assert series.mean == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)
        exact = -math.expm1(-series.rate * series.t)  # untruncated integral
        assert exact == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)

    def test_short_time_mean_vanishes(self):
        series = g_t_series(GaussianProfile(1, 1.0, 0.7), 1e-8, tol=1e-12)
        assert series.mean == pytest.approx(0.0, abs=1e-7)

    def test_remainder_accounting_exact(self):
        series = g_t_series(GaussianProfile(1, 2.0, 0.5), 0.8, tol=1e-6)
        exact = -math.expm1(-series.rate * series.t)  # untruncated integral
        assert exact - series.mean == pytest.approx(
            series.remainder_mass, abs=1e-15
        )
        assert series.remainder_mass <= 1e-6 * 1.5  # tol up to the peak factor

    def test_density_integrates_to_mean(self):
        series = g_t_series(GaussianProfile(1, 1.0, 0.7), 1.0, tol=1e-10)
        xs = np.linspace(-12, 12, 200001)
        total = np.trapezoid(series.density(xs[:, None]), xs)
        assert total == pytest.approx(series.mean, abs=1e-8)

    def test_convolution_powers_closed_form(self):
        # n-fold self-convolution of a Gaussian(mass lam, std s) has
        # mass lam^n and std s*sqrt(n); check the series against a direct sum
        lam, s, t = 1.0, 0.7, 0.9
        series = g_t_series(GaussianProfile(1, lam, s), t, tol=1e-12)
        x = 0.35
        direct = 0.0
        for n in range(1, 80):
            w = math.exp(-lam * t + n * math.log(lam * t) - math.lgamma(n + 1))
            var = n * s * s
            direct += w * math.exp(-x * x / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert series.density(np.array([[x]]))[0] == pytest.approx(direct, abs=1e-10)

    def test_density_against_jump_sampler(self):
        # Monte Carlo kernel-density estimate of the displacement law at 0,
        # conditioned on moving, matches the series density within 3 sigma
        lam, s, t = 1.0, 0.7, 1.0
        series = g_t_series(GaussianProfile(1, lam, s), t, tol=1e-10)
        kernel = KawasakiKernel(Domain.fullspace((-30.0,), (30.0,)), GaussianProfile(1, lam, s))
        gen = RngStream(42).generator()
        n = 200000
        out, _ = kernel.propagate_batch(np.zeros((n, 1)), np.full(n, t), gen)
        h = 0.05
        hits = np.abs(out[:, 0]) < h  # window around the origin, movers only
        moved = out[:, 0] != 0.0
        est_vals = (hits & moved) / (2 * h)
        mean = est_vals.mean()
        se = est_vals.std(ddof=1) / math.sqrt(n)
        # compare against the bin average of the series density
        xs = np.linspace(-h, h, 501)
        target = np.trapezoid(series.density(xs[:, None]), xs) / (2 * h)
        assert abs(mean - target) <= 3 * se + 1e-3


class TestPoissonMeasure:
    def test_first_correlation_is_intensity(self):
        m = PoissonMeasure(T100, 1.5)
        assert m.k1 == pytest.approx(1.5)

    def test_sample_counts(self):
        m = PoissonMeasure(T100, 1.0)
        rng = RngStream(1)
        counts = [len(m.sample(rng.child(i))) for i in range(2000)]
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(mean - 100.0) <= 3 * se

    def test_product_functional_closed_form(self):
        m = PoissonMeasure(T100, 2.0)
        phi = TestFunction.box(-0.5, (10.0,), (14.0,))
        val = m.expected_product_functional([(1.0, phi)], tol=1e-10)
        assert val == pytest.approx(math.exp(2.0 * phi.integral()), abs=1e-10)


class TestNeymanScottMeasure:
    MEAS = NeymanScottMeasure(T100, 2.0 / 3.0, 0.5, 0.25)

    def test_first_correlation(self):
        assert self.MEAS.k1 == pytest.approx(1.0)

    def test_pair_ursell_closed_form(self):
        # u2(r) = 2 rho q N(r; 0, 2 sigma_c^2)
        r = 0.3
        var = 2 * 0.25**2
        expected = 2 * (2.0 / 3.0) * 0.5 * math.exp(-r * r / (2 * var)) / math.sqrt(
            2 * math.pi * var
        )
        assert self.MEAS.u2(r) == pytest.approx(expected, rel=1e-12)

    def test_sampler_intensity(self):
        rng = RngStream(2)
        counts = [len(self.MEAS.sample(rng.child(i))) for i in range(2000)]
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(mean - 100.0) <= 3 * se

    def test_sampler_pair_moment(self):
        # E[N(N-1)] = (k1 V)^2 + V * integral(u2) = 10000 + 100 * 2 rho q
        rng = RngStream(3)
        vals = []
        for i in range(4000):
            n = len(self.MEAS.sample(rng.child(i)))
            vals.append(n * (n - 1))
        mean = np.mean(vals)
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        expected = 10000.0 + 100.0 * 2 * (2.0 / 3.0) * 0.5
        assert abs(mean - expected) <= 3 * se

    def test_product_functional_against_trapezoid(self):
        # independent oracle: E prod(1+F) = exp[rho int((1+q)G + q G^2)]
        # with G the Gaussian-smoothed F, smoothing variance sigma_c^2
        phi = TestFunction.box(-0.5, (48.0,), (52.0,))
        val = self.MEAS.expected_product_functional([(1.0, phi)], tol=1e-10)
        c = np.linspace(0.0, 100.0, 200001)
        s = 0.25
        G = -0.5 * (ndtr((52.0 - c) / s) - ndtr((48.0 - c) / s))
        rho, q = 2.0 / 3.0, 0.5
        oracle = math.exp(rho * np.trapezoid((1 + q) * G + q * G * G, c))
        assert val == pytest.approx(oracle, abs=1e-9)

    def test_product_functional_against_monte_carlo(self):
        phi = TestFunction.box(-0.5, (48.0,), (52.0,))
        val = self.MEAS.expected_product_functional([(1.0, phi)], tol=1e-10)
        gen = RngStream(4).generator()
        pts, ids = self.MEAS.sample_batch(30000, gen)
        acc = np.zeros(30000)
        vals = phi(pts)
        np.add.at(acc, ids, np.log1p(vals))
        mc = np.exp(acc)
        mean, se = mc.mean(), mc.std(ddof=1) / math.sqrt(len(mc))
        assert abs(mean - val) <= 3.5 * se

    @pytest.mark.parametrize("n_rep", [1, 40])
    def test_sample_batch_ends_are_the_end_rows_of_its_ids(self, n_rep):
        got_gen, want_gen = RngStream(6).generator(), RngStream(6).generator()
        pts, ends = self.MEAS.sample_batch(n_rep, got_gen, ends=True)
        want_pts, want_ids = self.MEAS.sample_batch(n_rep, want_gen)
        assert np.array_equal(pts, want_pts)
        assert np.array_equal(np.repeat(np.arange(n_rep),
                                        np.diff(ends, prepend=0)), want_ids)
        assert np.array_equal(got_gen.random(4), want_gen.random(4))

    def test_product_functional_2d_torus_against_monte_carlo(self):
        meas = NeymanScottMeasure(Domain.torus(2, 6.0), 0.5, 0.5, 0.4)
        terms = [(1.0, TestFunction.box(-0.5, (1.0, 1.5), (3.0, 4.0))),
                 (0.5, TestFunction.box(-0.6, (2.0, 0.5), (5.0, 2.5)))]
        val = meas.expected_product_functional(terms, tol=1e-10)
        n = 100_000
        pts, ids = meas.sample_batch(n, RngStream(5).generator())
        F = sum(coef * fn(pts) for coef, fn in terms)
        mc = np.exp(np.bincount(ids, weights=np.log1p(F), minlength=n))
        mean, se = mc.mean(), mc.std(ddof=1) / math.sqrt(n)
        assert abs(mean - val) <= 4.0 * se


class TestMuConditions:
    def test_poisson_admissible(self):
        rep = PoissonMeasure(T100, 1.0).mu_conditions()
        assert rep.admissible
        assert rep.growth_exponent == 0.0
        assert rep.translation_invariant

    def test_neyman_scott_admissible(self):
        rep = NeymanScottMeasure(T100, 2.0 / 3.0, 0.5, 0.25).mu_conditions()
        assert rep.admissible
        assert rep.growth_holds
        assert rep.decay_holds
        # probe values must actually decay
        probes = list(rep.decay_probe)
        assert all(a >= b for a, b in zip(probes, probes[1:]))

    def test_report_serializes(self):
        import json

        rep = PoissonMeasure(T100, 1.0).mu_conditions()
        json.dumps(rep.to_dict())


class TestRunScalingExperiment:
    def test_zero_functions_degenerate(self):
        zero = TestFunction.box(0.0, (48.0,), (52.0,))
        rep = run_scaling_experiment(
            PoissonMeasure(T100, 1.0),
            GaussianProfile(1, 1.0, 1.0),
            times=(0.5,),
            phi_list=(zero,),
            eps_schedule=(1.0, 0.5),
            n_samples=200,
            rng=RngStream(5),
        )
        assert rep.target == pytest.approx(1.0)
        assert all(e == pytest.approx(1.0) for e in rep.estimates)

    def test_configuration_start_is_refused_before_any_draw(self):
        # a fixed start has no admissibility report; rng=None would fail
        # with AttributeError at the first draw
        start = Configuration(np.array([[10.0], [50.0]]), T100)
        with pytest.raises(ValueError,
                           match="unsupported starting measure family"):
            run_scaling_experiment(
                start, GaussianProfile(1, 1.0, 1.0), times=(0.5,),
                phi_list=(TestFunction.box(-0.5, (48.0,), (52.0,)),),
                eps_schedule=(1.0, 0.5), n_samples=200, rng=None)

    def test_single_time_poisson_stationary(self):
        # both dynamics preserve the Poisson law, so every eps estimate and
        # the target sit at exp(z <phi>) up to Monte Carlo noise
        phi = TestFunction.box(-0.5, (48.0,), (52.0,))
        z = 1.0
        rep = run_scaling_experiment(
            PoissonMeasure(T100, z),
            GaussianProfile(1, 1.0, 1.0),
            times=(0.5,),
            phi_list=(phi,),
            eps_schedule=(1.0, 0.25),
            n_samples=4000,
            rng=RngStream(6),
        )
        target = math.exp(z * phi.integral())
        assert rep.target == pytest.approx(target, abs=1e-8)
        for est, se in zip(rep.estimates, rep.stderrs):
            assert abs(est - target) <= 3.5 * se

    def test_full_space_refused(self):
        # on full space the start covers the window only and jumpers never
        # come back: these arguments gave estimates 16 and 90 sigma off
        phi = TestFunction.box(-0.5, (4.0,), (6.0,))
        with pytest.raises(ValueError, match="scaling needs a torus domain"):
            run_scaling_experiment(
                PoissonMeasure(Domain.fullspace((0.0,), (10.0,)), 1.0),
                GaussianProfile(1, 1.0, 1.0),
                times=(0.5, 1.0),
                phi_list=(phi, phi),
                eps_schedule=(1.0, 0.1),
                n_samples=40000,
                rng=RngStream(3),
            )

    @pytest.mark.parametrize("index", [0, 1])
    def test_non_test_function_refused_before_any_draw(self, index):
        # a NumericFunction's box may be an enlargement of its essential
        # support: the pairing and the reach cull would drop its tail
        phi = TestFunction.box(-0.5, (48.0,), (52.0,))
        other = NumericFunction(phi, phi.support_lo, phi.support_hi,
                                phi.bound)
        phis = [phi, phi]
        phis[index] = other

        class NoDraws:
            def child(self, *args):
                raise AssertionError("a stream was drawn from")

        with pytest.raises(ValueError, match="observable %d is a "
                           "NumericFunction, not a TestFunction" % index):
            run_scaling_experiment(
                PoissonMeasure(T100, 1.0), GaussianProfile(1, 1.0, 1.0),
                times=(0.5, 1.0), phi_list=phis, eps_schedule=(1.0, 0.5),
                n_samples=100, rng=NoDraws())

    def test_thread_count_invariance(self):
        phi = TestFunction.box(-0.5, (48.0,), (52.0,))
        kwargs = dict(
            measure=PoissonMeasure(T100, 1.0),
            profile=GaussianProfile(1, 1.0, 1.0),
            times=(0.5, 1.0),
            phi_list=(phi, phi),
            eps_schedule=(1.0, 0.5),
            n_samples=3000,
        )
        a = run_scaling_experiment(rng=RngStream(7), threads=1, **kwargs)
        b = run_scaling_experiment(rng=RngStream(7), threads=4, **kwargs)
        assert a.estimates == b.estimates
        assert a.stderrs == b.stderrs

    def test_report_roundtrips(self):
        import json

        phi = TestFunction.box(-0.5, (48.0,), (52.0,))
        rep = run_scaling_experiment(
            PoissonMeasure(T100, 1.0),
            GaussianProfile(1, 1.0, 1.0),
            times=(0.5,),
            phi_list=(phi,),
            eps_schedule=(1.0,),
            n_samples=500,
            rng=RngStream(8),
        )
        json.loads(rep.to_json())
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "eps,estimate,stderr,target,distance"
        assert len(lines) == 2


class TestSharedDraws:
    """One start and one set of jumps per replica serve every epsilon."""

    SCHEDULE = (1.0, 0.5, 0.2)

    @staticmethod
    def _run(measure, phis, schedule, n_samples, seed=11):
        times = (0.5, 1.0)[:len(phis)]
        return run_scaling_experiment(measure, GaussianProfile(
            measure.domain.dim, 1.0, 0.8), times, phis, schedule, n_samples,
            RngStream(seed))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_each_eps_matches_its_own_run(self, dim):
        from freedyn.pointproc import CHUNK

        if dim == 1:
            measure = PoissonMeasure(Domain.torus(1, 10.0), 1.0)
            phis = (TestFunction.box(-0.5, (4.0,), (6.0,)),
                    TestFunction.bump(-0.6, (5.0,), 1.5))
        else:
            measure = PoissonMeasure(Domain.torus(2, 4.0), 1.0)
            phis = (TestFunction.box(-0.5, (1.0, 1.0), (3.0, 2.0)),
                    TestFunction.box(-0.4, (1.5, 0.5), (2.5, 3.0)))
        n = CHUNK + 5000  # two chunks, joined by run_chunks
        full = self._run(measure, phis, self.SCHEDULE, n)
        for i, eps in enumerate(self.SCHEDULE):
            one = self._run(measure, phis, (eps,), n)
            assert one.estimates == (full.estimates[i],)
            assert one.stderrs == (full.stderrs[i],)
        order = (2, 0, 1)
        permuted = self._run(measure, phis,
                             tuple(self.SCHEDULE[i] for i in order), n)
        assert permuted.estimates == tuple(full.estimates[i] for i in order)
        assert permuted.stderrs == tuple(full.stderrs[i] for i in order)
        # the rows really differ: the contraction moves the estimates
        assert len(set(full.estimates)) == len(self.SCHEDULE)

    def test_memory_goes_back_once_per_run(self, monkeypatch):
        from freedyn.pointproc import CHUNK

        calls = []
        monkeypatch.setattr(scaling, "release_free_memory",
                            lambda: calls.append(1))
        measure = PoissonMeasure(Domain.torus(1, 10.0), 1.0)
        phis = (TestFunction.box(-0.5, (4.0,), (6.0,)),)
        self._run(measure, phis, (1.0,), CHUNK + 5)  # two chunks
        assert len(calls) == 1

    def test_chunk_without_points(self):
        measure = PoissonMeasure(Domain.torus(1, 10.0), 1e-9)
        phis = (TestFunction.box(-0.5, (4.0,), (6.0,)),)
        full = self._run(measure, phis, self.SCHEDULE, 50)
        assert full.estimates == (1.0,) * len(self.SCHEDULE)
        assert full.stderrs == (0.0,) * len(self.SCHEDULE)
        assert self._run(measure, phis, (0.5,), 50).estimates == (1.0,)


@pytest.mark.parametrize("start", [0, 1], ids=("poisson", "neyman-scott"))
def test_criterion_6_chunk_peak_memory(start):
    # one full chunk of criterion 6 under tracemalloc.  The worker peaks
    # while the second time step's jumps are drawn: alive then are the
    # start positions (about 2e6 floats, 15.3 MiB), the two boolean ring
    # masks, the two step arrays and the jump counts being drawn, block by
    # block of rows, one byte each.  The chunk keeps one end row per
    # replica, not an int64 replica id per point, so its traced peak is
    # 39.0 MiB for either start (42.4 MiB with int64 counts and hop row
    # numbers); with the id column alive through the draws it was 57.5 MiB.
    import tracemalloc

    from freedyn.pointproc import CHUNK
    from freedyn.scaling import _chunk_joint_values

    measure = (PoissonMeasure(T100, 1.0),
               NeymanScottMeasure(T100, 2.0 / 3.0, 0.5, 0.25))[start]
    kernel = KawasakiKernel(T100, GaussianProfile(1, 1.0, 1.0))
    phis = (TestFunction.box(-0.5, (48.0,), (52.0,)),
            TestFunction.box(-0.6, (49.0,), (53.0,)))
    gen = RngStream(1006, start).child(0).generator()
    tracemalloc.start()
    try:
        _chunk_joint_values(measure, kernel, (0.5, 1.0), phis,
                            (1.0, 0.5, 0.25, 0.1), CHUNK, gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2 ** 20, "%.1f MiB" % (peak / 2 ** 20)


@pytest.mark.parametrize("start", [0, 1], ids=("poisson", "neyman-scott"))
def test_criterion_6_worker_peak_memory(start):
    # criterion 6's chunk worker run by the chunk driver under tracemalloc,
    # on CHUNK replicas.  At 100 expected start points per replica the
    # driver makes chunks of 2 621 replicas (about 2.6e5 start rows), so
    # the peak is that of one such chunk plus the run's output, 5.9 MiB for
    # either start: the whole 20 000 replicas in one batch took 39.0 MiB.
    import tracemalloc

    from freedyn.pointproc import CHUNK, run_chunks
    from freedyn.scaling import _chunk_joint_values

    measure = (PoissonMeasure(T100, 1.0),
               NeymanScottMeasure(T100, 2.0 / 3.0, 0.5, 0.25))[start]
    kernel = KawasakiKernel(T100, GaussianProfile(1, 1.0, 1.0))
    worker = partial(_chunk_joint_values, measure, kernel, (0.5, 1.0),
                     _PHIS_1D, (1.0, 0.5, 0.25, 0.1))
    tracemalloc.start()
    try:
        values = run_chunks(worker, CHUNK, RngStream(1006, start).child(0),
                            rows=measure.mean_points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (CHUNK, 4)
    assert peak <= 8 * 2 ** 20, "%.1f MiB" % (peak / 2 ** 20)


_LAYOUT_CASES = {
    # name: (start, n_rep, chunk sizes); 100 expected start points per
    # replica make 2 621 replicas per chunk at most
    "below-one-chunk": (PoissonMeasure(T100, 1.0), 1000, [1000]),
    "not-a-multiple": (NeymanScottMeasure(T100, 2.0 / 3.0, 0.5, 0.25), 6001,
                       [2001, 2000, 2000]),
    # ten times the points per replica: 262 replicas per chunk at most
    "dense": (PoissonMeasure(T100, 10.0), 700, [234, 233, 233]),
}


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_experiment_runs_chunk_c_on_child_c(case):
    # the run's stream layout: chunk c is one _chunk_joint_values call on
    # the stream rng.child(0).child(c), sized by the start's points
    from freedyn.pointproc import mean_se
    from freedyn.scaling import _chunk_joint_values

    measure, n_rep, sizes = _LAYOUT_CASES[case]
    profile = GaussianProfile(1, 1.0, 1.0)
    args = (measure, KawasakiKernel(T100, profile), (0.5, 1.0), _PHIS_1D,
            (1.0, 0.5, 0.25, 0.1))
    rng = RngStream(1025).child(n_rep)
    rep = run_scaling_experiment(measure, profile, *args[2:], n_rep, rng)
    values = np.concatenate([
        _chunk_joint_values(*args, m, rng.child(0).child(c).generator())
        for c, m in enumerate(sizes)])
    want = tuple(zip(*map(mean_se, np.ascontiguousarray(values.T))))
    assert (rep.estimates, rep.stderrs) == want
    assert np.any(values < 1.0)  # the observables are met
    if len(sizes) > 1:  # a new layout: one whole batch draws otherwise
        whole = _chunk_joint_values(*args, n_rep,
                                    rng.child(0).child(0).generator())
        assert not np.array_equal(values, whole)


def _ids_pair_log1p(acc, ids, phi, pts, among=None):
    # the pairing through a replica-id column that the end rows replaced
    inside = in_box(pts, phi.support_lo, phi.support_hi, closed=True)
    if among is not None:
        inside &= among
    rows = np.flatnonzero(inside)
    vals = phi(pts.take(rows, axis=0))
    return pair_into(acc, ids.take(rows), np.log1p(vals))


def _ids_chunk_joint_values(measure, kernel, times, phis, eps_schedule,
                            n_rep, gen):
    # the chunk worker as it was with a replica-id column alive throughout
    domain = measure.domain
    pts, ids = measure.sample_batch(n_rep, gen)
    n = len(pts)
    draws = [kernel.jumps(n, dt, gen) for dt in np.diff(times, prepend=0.0)]
    moved = np.zeros(n, dtype=bool)
    for ring, _ in draws:
        moved |= ring
    acc = np.zeros(n_rep)
    still = ~moved
    for phi in phis:
        _ids_pair_log1p(acc, ids, phi, pts, among=still)
    del still
    keep = scaling._cull_far(domain.side, pts, draws, min(eps_schedule),
                             phis, moved)
    del moved
    pts = pts.compress(keep, axis=0)
    ids = ids.compress(keep)
    draws = [(np.flatnonzero(ring.compress(keep)),
              step.compress(keep.compress(ring), axis=0))
             for ring, step in draws]
    del keep
    out = np.empty((n_rep, len(eps_schedule)))
    for col, eps in enumerate(eps_schedule):
        logs = acc.copy()
        for pos, phi in zip(
                scaling._contracted_paths(domain, pts, draws, eps), phis):
            _ids_pair_log1p(logs, ids, phi, pos)
        out[:, col] = np.exp(logs)
    return out


T20_2D = Domain.torus(2, 20.0)
_PHIS_1D = (TestFunction.box(-0.5, (48.0,), (52.0,)),
            TestFunction.box(-0.6, (49.0,), (53.0,)))
_END_ROW_CASES = {
    # name: (start measures, jump profile, observables)
    "gauss-1d": ((PoissonMeasure(T100, 1.0),
                  NeymanScottMeasure(T100, 2.0 / 3.0, 0.5, 0.25)),
                 GaussianProfile(1, 1.0, 1.0), _PHIS_1D),
    "bump-1d": ((PoissonMeasure(T100, 1.0),
                 NeymanScottMeasure(T100, 2.0 / 3.0, 0.5, 0.25)),
                BumpProfile(1, 2.0, 1.1), _PHIS_1D),
    "gauss-2d": ((PoissonMeasure(T20_2D, 0.5),
                  NeymanScottMeasure(T20_2D, 0.3, 0.5, 0.25)),
                 GaussianProfile(2, 1.0, 0.8),
                 (TestFunction.box(-0.5, (8.0, 9.0), (12.0, 11.0)),
                  TestFunction.bump(-0.6, (10.0, 10.0), 2.0))),
    # a third to two points per replica: many replicas hold none
    "sparse-1d": ((PoissonMeasure(T100, 0.003),
                   PoissonMeasure(T100, 0.02)),
                  GaussianProfile(1, 1.0, 1.0), _PHIS_1D),
}


@pytest.mark.parametrize("n_rep", [1, 7, 3000])
@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("case", sorted(_END_ROW_CASES))
def test_chunk_end_rows_match_replica_ids(case, start, n_rep):
    # the worker looks replicas up by their end rows: the same bits as
    # pairing through the replica-id column of sample_batch
    from freedyn.scaling import _chunk_joint_values

    measures, profile, phis = _END_ROW_CASES[case]
    measure = measures[start]
    kernel = KawasakiKernel(measure.domain, profile)
    args = (measure, kernel, (0.5, 1.0), phis, (1.0, 0.5, 0.25, 0.1), n_rep)
    seed = RngStream(1019, start).child(n_rep)
    got = _chunk_joint_values(*args, seed.generator())
    want = _ids_chunk_joint_values(*args, seed.generator())
    assert got.tobytes() == want.tobytes()
    if n_rep == 3000:
        _, ids = measure.sample_batch(n_rep, seed.generator())
        sizes = np.bincount(ids, minlength=n_rep)
        assert np.any(got < 1.0)  # the observables are met
        assert np.any(sizes == 0) == (case == "sparse-1d")


def test_neyman_scott_sample_batch_peak_memory():
    # one criterion-6 chunk of Neyman-Scott starts under tracemalloc: the
    # output (about 2e6 points and int64 ids, 15.3 MiB each) and the parents
    # (10.2 MiB) with no offspring-long copy of them; it measures 33.0 MiB.
    # A one-shot np.repeat of the parents and int64 sizes and parent ids
    # took 61.2 MiB.
    import tracemalloc

    from freedyn.pointproc import CHUNK

    measure = NeymanScottMeasure(T100, 2.0 / 3.0, 0.5, 0.25)
    gen = RngStream(1006, 1).child(0).generator()
    tracemalloc.start()
    try:
        pts, _ = measure.sample_batch(CHUNK, gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pts) > 1_900_000
    assert peak <= 40 * 2 ** 20, "%.1f MiB" % (peak / 2 ** 20)


@pytest.mark.parametrize("profile", (GaussianProfile(1, 1.0, 0.8),
                                     BumpProfile(1, 2.0, 1.1)),
                         ids=("gauss", "bump"))
@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_shared_jumps_over_eps_match_the_contracted_kernel_in_law(profile,
                                                                  eps):
    # base jumps divided by eps against the kernel of the contracted
    # profile, over two time steps from one start point
    from scipy.stats import ks_2samp

    from freedyn.scaling import _contracted_paths

    domain = Domain.torus(1, 100.0)
    n, dts = 20_000, (0.5, 0.7)
    pts = np.full((n, 1), 50.0)
    base = KawasakiKernel(domain, profile)
    gen = RngStream(21).generator()
    draws = [(np.flatnonzero(ring), step)
             for ring, step in (base.jumps(n, dt, gen) for dt in dts)]
    shared = [pos[:, 0].copy()
              for pos in _contracted_paths(domain, pts, draws, eps)]
    contracted = KawasakiKernel(domain, profile.scaled(eps))
    gen = RngStream(22).generator()
    pos = pts
    for dt, elapsed, got in zip(dts, np.cumsum(dts), shared):
        pos, _ = contracted.propagate_batch(pos, dt, gen)
        assert ks_2samp(got, pos[:, 0]).pvalue > 1e-3
        # the atom of rows that have not moved yet, within 4 sigma
        stay = math.exp(-profile.mass * elapsed)
        assert abs(np.mean(got == 50.0) - stay) <= \
            4.0 * math.sqrt(stay * (1.0 - stay) / n)
