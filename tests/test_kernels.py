"""One-particle kernels: samplers, semigroups, tails, summability."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, pdtr
from scipy.stats import chi2, poisson

from freedyn.functions import TestFunction
from freedyn.kernels import (
    BrownianKernel,
    BumpProfile,
    DeathKernel,
    GaussianProfile,
    KawasakiKernel,
    KilledBrownianKernel,
    _jump_blocks,
    _poisson_cdf,
    check_summability,
    exit_probability,
    g_t_series,
    kawasaki_polynomial_certificate,
)
from freedyn.dynamics import event_stream
from freedyn.observables import analytic_laplace_submarkov
from freedyn.pointproc import BoundedField, Configuration, RngStream
from freedyn.space import Domain


D1 = Domain.fullspace((-10.0,), (10.0,))
D2 = Domain.fullspace((-10.0, -10.0), (10.0, 10.0))
BOX = TestFunction.box(-0.5, (-1.0,), (1.0,))


# one instance of every kernel, the Kawasaki kernel with both profiles
KERNELS = (
    BrownianKernel(D1),
    DeathKernel(D1, 1.0),
    KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.7)),
    KawasakiKernel(D1, BumpProfile(1, 1.2, 0.8)),
    KilledBrownianKernel(D1, 0.5),
)


class TestPropagate:
    def test_brownian_identity_at_zero(self):
        # a single particle is a 1-row batch; at time 0 no kernel moves or
        # kills it
        for kernel in KERNELS:
            pts = np.array([[1.25]])
            out, alive = kernel.propagate_batch(pts, 0.0, RngStream(3).generator())
            assert alive.tolist() == [True], kernel.variant
            assert np.array_equal(out, pts), kernel.variant

    def test_death_survival_frequency(self):
        # a=1, t=ln2: survival probability 1/2
        kernel = DeathKernel(D1, 1.0)
        t = math.log(2.0)
        gen = RngStream(4).generator()
        x = np.zeros((20000, 1))
        _, alive = kernel.propagate_batch(x, np.full(20000, t), gen)
        p = alive.mean()
        se = math.sqrt(p * (1 - p) / len(alive))
        assert abs(p - 0.5) <= 3 * se

    def test_death_batch_keeps_positions(self):
        # dead or alive, every row keeps its position bit for bit
        kernel = DeathKernel(D1, 1.0)
        pts = RngStream(9).generator().uniform(-5.0, 5.0, (500, 1))
        before = pts.copy()
        out, alive = kernel.propagate_batch(pts, 0.7, RngStream(9).child(1).generator())
        assert 0 < alive.sum() < len(alive)
        assert out.tobytes() == before.tobytes()

    def test_kawasaki_jump_count_mean(self):
        kernel = KawasakiKernel(D1, GaussianProfile(1, 1.0, 1.0))
        gen = RngStream(5).generator()
        counts = [len(kernel.jump_times(2.0, gen)) for _ in range(20000)]
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(mean - 2.0) <= 3 * se

    def test_negative_time_rejected(self):
        for kernel in KERNELS:
            for dts in (-1.0, np.array([-1.0])):
                with pytest.raises(ValueError, match="t must be >= 0"):
                    kernel.propagate_batch(np.array([[0.0]]), dts,
                                           RngStream(1).generator())


class TestSemigroup:
    def test_identity_at_zero(self):
        for kernel in (
            BrownianKernel(D1),
            DeathKernel(D1, 1.0),
            KawasakiKernel(D1, GaussianProfile(1, 1.0, 1.0)),
        ):
            image = kernel.semigroup(BOX, 0.0)
            assert image(np.array([[0.5]]))[0] == pytest.approx(-0.5)

    def test_death_closed_form(self):
        kernel = DeathKernel(D1, 1.0)
        phi = TestFunction.box(-0.5, (0.0,), (1.0,))
        val = kernel.semigroup(phi, 1.0)(np.array([[0.5]]))[0]
        assert val == pytest.approx(-0.18393972058572117, abs=1e-12)

    def test_brownian_gaussian_cdf_oracle(self):
        val = BrownianKernel(D1).semigroup(BOX, 1.0)(np.array([[0.0]]))[0]
        assert val == pytest.approx(-0.3413447460685429, abs=1e-8)

    def test_kawasaki_series_oracle(self):
        # independent oracle: Poisson mixture of box smoothed by n-fold
        # Gaussian convolutions, each term closed form via the normal CDF
        sigma, lam, t = 0.7, 1.0, 0.8
        kernel = KawasakiKernel(D1, GaussianProfile(1, lam, sigma))
        x = 0.3
        val = kernel.semigroup(BOX, t)(np.array([[x]]))[0]
        mu = lam * t
        expected = math.exp(-mu) * BOX(np.array([[x]]))[0]
        for n in range(1, 60):
            w = math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))
            s = sigma * math.sqrt(n)
            smoothed = -0.5 * (ndtr((1.0 - x) / s) - ndtr((-1.0 - x) / s))
            expected += w * smoothed
        assert val == pytest.approx(expected, abs=1e-8)

    def test_kawasaki_gaussian_bump_image_per_term_reference(self):
        # the one mixture quadrature against the atom plus a scalar quad
        # per point of the series written out term by term, weights from
        # scipy's Poisson pmf
        sigma, lam, t = 0.7, 1.0, 0.8
        phi = TestFunction.bump(-0.5, (0.3,), 1.0)
        kernel = KawasakiKernel(D1, GaussianProfile(1, lam, sigma))
        xs = np.array([[-2.5], [-0.4], [0.3], [1.1], [3.0]])
        n = np.arange(1, 40)
        weights, var = poisson.pmf(n, lam * t), n * sigma ** 2

        def mixture(z):
            return float(np.sum(weights * np.exp(-z * z / (2.0 * var))
                                / np.sqrt(2.0 * math.pi * var)))

        reference = math.exp(-lam * t) * phi(xs)
        for i, x in enumerate(xs[:, 0]):
            reference[i] += quad(lambda y: float(phi(np.array([[y]]))[0])
                                 * mixture(x - y), -0.7, 1.3,
                                 epsabs=1e-13, epsrel=1e-12)[0]
        image = kernel.semigroup(phi, t)(xs)
        assert np.max(np.abs(image - reference)) <= 1e-8

    def test_kawasaki_torus_refuses_non_box_gaussian_image(self):
        kernel = KawasakiKernel(Domain.torus(1, 10.0), GaussianProfile(1, 1.0, 0.7))
        image = kernel.semigroup(TestFunction.bump(-0.5, (5.0,), 1.0), 0.5)
        with pytest.raises(ValueError, match="box functions"):
            image(np.array([[5.0]]))

    def test_brownian_chapman_kolmogorov_oracle(self):
        # T_{0.5} applied to the closed-form T_{0.5} box equals T_1 box
        x = 0.3
        direct = -0.5 * (ndtr((1.0 - x)) - ndtr((-1.0 - x)))
        ys = np.linspace(-8.0, 8.0, 40001)
        half = -0.5 * (ndtr((1.0 - ys) / math.sqrt(0.5)) - ndtr((-1.0 - ys) / math.sqrt(0.5)))
        heat = np.exp(-((x - ys) ** 2) / 1.0) / math.sqrt(math.pi)
        composed = np.trapezoid(half * heat, ys)
        assert composed == pytest.approx(direct, abs=1e-8)
        val = BrownianKernel(D1).semigroup(BOX, 1.0)(np.array([[x]]))[0]
        assert val == pytest.approx(direct, abs=1e-8)

    def test_propagate_apply_consistency(self):
        # empirical mean of phi(X_t) matches the semigroup value
        t = 0.6
        x0 = 0.2
        n = 40000
        for kernel in (
            BrownianKernel(D1),
            KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.7)),
            KawasakiKernel(D1, BumpProfile(1, 1.2, 0.8)),
            DeathKernel(D1, 1.0),
        ):
            gen = RngStream(31).generator()
            out, alive = kernel.propagate_batch(np.full((n, 1), x0), np.full(n, t), gen)
            vals = np.where(alive, BOX(out), 0.0)
            mean, se = vals.mean(), vals.std(ddof=1) / math.sqrt(n)
            target = kernel.semigroup(BOX, t)(np.array([[x0]]))[0]
            assert abs(mean - target) <= 3 * se, kernel.variant

    def test_killed_brownian_constant_rate_wraps_on_torus(self):
        # mass that wraps around the circle reaches the box; a constant
        # rate kills independently of the path, so the coarse killing grid
        # is exact in law
        torus = Domain.torus(1, 4.0)
        kernel = KilledBrownianKernel(torus, 0.5, h_kill=0.1)
        phi = TestFunction.box(-0.5, (0.0,), (1.0,))
        x0, t, n = 3.8, 1.0, 200_000
        out, alive = kernel.propagate_batch(np.full((n, 1), x0), t,
                                            RngStream(33).generator())
        vals = np.where(alive, phi(out), 0.0)
        mean, se = vals.mean(), vals.std(ddof=1) / math.sqrt(n)
        target = kernel.semigroup(phi, t)(np.array([[x0]]))[0]
        assert abs(mean - target) <= 4 * se, (mean, se, target)

    def test_killed_brownian_nonconstant_rate_on_torus_refused(self):
        rate = BoundedField(lambda p: 0.25 * (1.0 + np.cos(p[:, 0])), 0.5)
        kernel = KilledBrownianKernel(Domain.torus(1, 4.0), rate)
        with pytest.raises(NotImplementedError):
            kernel.semigroup(TestFunction.box(-0.5, (0.0,), (1.0,)), 1.0)


class TestSurvival:
    def test_conservative_kernels(self):
        assert BrownianKernel(D1).survival(np.array([0.0]), 5.0) == 1.0
        kk = KawasakiKernel(D1, GaussianProfile(1, 2.0, 1.0))
        assert kk.survival(np.array([0.0]), 5.0) == 1.0

    def test_death_rate_two(self):
        val = DeathKernel(D1, 2.0).survival(np.array([0.0]), 1.0)
        assert val == pytest.approx(0.1353352832366127, abs=1e-12)

    def test_time_zero(self):
        for kernel in (DeathKernel(D1, 3.0), KilledBrownianKernel(D1, 1.0)):
            assert kernel.survival(np.array([0.0]), 0.0) == pytest.approx(1.0)

    def test_killed_brownian_nonconstant_rate_refused(self):
        rate = BoundedField(lambda p: 0.25 * (1.0 + np.cos(p[:, 0])), 0.5)
        kernel = KilledBrownianKernel(D1, rate)
        with pytest.raises(NotImplementedError):
            kernel.survival(np.array([0.0]), 1.0)


class TestKillingRate:
    def test_constant_rate(self):
        g = DeathKernel(D1, 1.0).rate
        assert g(np.array([[0.0], [3.0]])) == pytest.approx([1.0, 1.0])

    def test_killed_brownian_constant_rate(self):
        g = KilledBrownianKernel(D1, 0.5).rate
        assert g(np.array([[0.0], [3.0]])) == pytest.approx([0.5, 0.5])

    def test_indicator_rate(self):
        rate = BoundedField(lambda pts: 1.0 * (pts[:, 0] >= 0) * (pts[:, 0] < 1), 1.0)
        g = DeathKernel(D1, rate).rate
        assert g(np.array([[0.5], [2.0]])) == pytest.approx([1.0, 0.0])


class TestTailBound:
    def test_death_zero(self):
        assert DeathKernel(D1, 1.0).tail_bound(1.0, 0.5) == 0.0

    def test_brownian_d2_closed_form(self):
        r = math.sqrt(2.0 * math.log(2.0))
        assert BrownianKernel(D2).tail_bound(1.0, r) == pytest.approx(0.5, abs=1e-12)

    def test_brownian_r_to_zero(self):
        assert BrownianKernel(D1).tail_bound(1.0, 1e-12) == pytest.approx(1.0)

    def test_nonincreasing_in_r(self):
        for kernel in (BrownianKernel(D1), KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.7))):
            rs = np.linspace(0.1, 5.0, 25)
            bounds = [kernel.tail_bound(0.5, r) for r in rs]
            assert all(b1 >= b2 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
            assert all(0.0 <= b <= 1.0 for b in bounds)

    def test_dominates_empirical_tail(self):
        t, r, n = 0.5, 1.2, 40000
        for kernel in (BrownianKernel(D1), KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.7))):
            gen = RngStream(77).generator()
            out, _ = kernel.propagate_batch(np.zeros((n, 1)), np.full(n, t), gen)
            freq = np.mean(np.abs(out[:, 0]) > r)
            se = math.sqrt(max(freq * (1 - freq), 1e-12) / n)
            assert freq <= kernel.tail_bound(t, r) + 3 * se


class TestJumpCountSeries:
    @settings(max_examples=60, deadline=None)
    @given(mass=st.floats(0.05, 4.0), t=st.floats(0.01, 4.0),
           log_tol=st.floats(-12.0, -4.0), scale=st.floats(0.1, 3.0),
           bump=st.booleans())
    def test_mass_identity_and_certified_remainder(self, mass, t, log_tol,
                                                   scale, bump):
        # the rounding of the log-space weights grows like mass * t * 5e-16
        # (7e-15 at 16, 5e-14 at 100), so the 1e-14 identity is checked up
        # to mass * t = 16, the largest clock mean the count inversion serves
        profile = BumpProfile(1, mass, scale) if bump else \
            GaussianProfile(1, mass, scale)
        tol = 10.0 ** log_tol
        series = g_t_series(profile, t, tol)
        atom = KawasakiKernel(D1, profile).atom_weight(t)
        total = atom + np.sum(series.weights) + series.remainder_mass
        assert total == pytest.approx(1.0, abs=1e-14)
        peak = float(profile.density(np.zeros((1, 1)))[0]) / mass
        assert series.remainder_density <= tol * max(peak, 1.0)
        assert series.remainder_mass <= tol

    def test_bump_mixture_is_centred(self):
        # the FFT grid keeps every convolution power centred on 0
        series = g_t_series(BumpProfile(1, 2.0, 0.8), 1.5)
        xs = np.linspace(-30.0, 30.0, 60001)
        dens = series.density(xs[:, None])
        assert np.trapezoid(xs * dens, xs) == pytest.approx(0.0, abs=1e-12)
        assert np.trapezoid(dens, xs) == pytest.approx(series.mean, abs=1e-9)

    def test_truncation_cap_raises(self):
        with pytest.raises(RuntimeError, match="term cap"):
            g_t_series(GaussianProfile(1, 1e6, 0.7), 1.0)


class TestKawasakiStructure:
    def test_atom_weight_formula(self):
        kernel = KawasakiKernel(D1, GaussianProfile(1, 2.0, 1.0))
        assert kernel.atom_weight(0.7) == pytest.approx(math.exp(-1.4), abs=1e-12)

    def test_displacement_symmetry(self):
        # jump law inherits the profile's symmetry: odd moments vanish
        kernel = KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.7))
        gen = RngStream(21).generator()
        n = 40000
        out, _ = kernel.propagate_batch(np.zeros((n, 1)), np.full(n, 1.0), gen)
        disp = out[:, 0]
        stat = np.mean(disp**3)
        se = np.std(disp**3, ddof=1) / math.sqrt(n)
        assert abs(stat) <= 3 * se

    def test_clock_rate_is_profile_mass(self):
        kernel = KawasakiKernel(D1, BumpProfile(1, 1.7, 1.0))
        assert kernel.clock_rate == pytest.approx(1.7)


class TestSummability:
    def test_brownian_remainder_tiny(self):
        rep = check_summability(BrownianKernel(D1), alpha=1.0, m=1, epsilon=0.1, delta=1.0)
        assert rep.converges
        assert rep.remainder_bound < 1e-10

    def test_brownian_d2_geometric_oracle(self):
        # terms are exp(-n) exactly: radii n^(1/2), bound exp(-r^2/(2 eps))
        rep = check_summability(BrownianKernel(D2), alpha=1.0, m=2, epsilon=0.5, delta=1.0)
        total = rep.partial_sums[-1]
        assert total == pytest.approx(1.0 / (math.e - 1.0), abs=1e-12)
        assert total == pytest.approx(0.5819767068693262, abs=1e-14)
        assert rep.converges

    def test_death_all_zero(self):
        rep = check_summability(DeathKernel(D1, 1.0), alpha=1.0, m=1, epsilon=1.0, delta=1.0)
        assert rep.partial_sums[-1] == 0.0
        assert rep.converges

    def test_kawasaki_direct_frozen(self):
        kernel = KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.7))
        rep = check_summability(kernel, alpha=2.0, m=1, epsilon=0.25, delta=1.0)
        assert rep.converges
        assert rep.partial_sums[-1] == pytest.approx(0.14728905667924624, rel=1e-10)
        assert rep.remainder_bound < 1e-10

    def test_partial_sums_nondecreasing(self):
        kernel = KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.7))
        rep = check_summability(kernel, alpha=2.0, m=1, epsilon=0.25, delta=1.0)
        sums = np.asarray(rep.partial_sums)
        assert np.all(np.diff(sums) >= -1e-15)

    def test_report_serializes(self):
        import json

        rep = check_summability(BrownianKernel(D1), alpha=1.0, m=1, epsilon=0.1, delta=1.0)
        json.dumps(rep.to_dict())


class TestPolynomialCertificate:
    def test_gaussian_alpha_two_converges(self):
        cert = kawasaki_polynomial_certificate(GaussianProfile(1, 1.0, 0.7), alpha=2.0, m=1)
        assert cert.converges
        assert cert.remainder_bound == pytest.approx(0.012601661141931508, rel=1e-10)

    def test_alpha_equals_m_fails(self):
        cert = kawasaki_polynomial_certificate(GaussianProfile(1, 1.0, 0.7), alpha=1.0, m=1)
        assert not cert.converges

    @pytest.mark.parametrize("mu", (1.0, 100.0, 2500.0, 5000.0))
    def test_count_moment_closed_form(self, mu):
        # E[N^4] of a Poisson(mu) count, also far past the mean of 2000
        cert = kawasaki_polynomial_certificate(GaussianProfile(1, mu, 0.7),
                                               alpha=3.0, m=1)
        exact = mu ** 4 + 6 * mu ** 3 + 7 * mu ** 2 + mu
        assert cert.parameters["count_moment"] == pytest.approx(exact, rel=1e-9)

    def test_uncertified_count_moment_raises(self):
        with pytest.raises(RuntimeError, match="not certified"):
            kawasaki_polynomial_certificate(GaussianProfile(1, 1e6, 0.7),
                                            alpha=3.0, m=1)


class TestExitProbability:
    def test_death_kernel_never_exits(self):
        est, se, bound = exit_probability(
            DeathKernel(D1, 1.0), np.array([0.0]), 1.0, 0.5, 2000, 0.01, RngStream(8)
        )
        assert est == 0.0

    def test_brownian_below_nelson_bound(self):
        for r, eps in ((1.0, 0.25), (2.0, 0.5)):
            est, se, bound = exit_probability(
                BrownianKernel(D1), np.array([0.0]), r, eps, 4000, eps / 200.0, RngStream(9)
            )
            assert est <= bound + 3 * se

    def test_kawasaki_union_bound_oracle(self):
        # lam*eps small, radius beyond the profile's effective support:
        # exits need a jump, so the estimate sits below 1 - exp(-lam*eps)
        kernel = KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.5))
        eps, r = 0.1, 3.0
        est, se, bound = exit_probability(
            kernel, np.array([0.0]), r, eps, 20000, eps / 100.0, RngStream(10)
        )
        assert est <= (1.0 - math.exp(-eps)) + 3 * se
        assert est <= bound + 3 * se

    def test_single_path_is_refused(self):
        # one path has no standard error; mean_se refuses it
        kernel = KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.5))
        with pytest.raises(ValueError, match="at least 2 replicas"):
            exit_probability(kernel, np.array([0.0]), 1.0, 0.1, 1, 0.001,
                             RngStream(10))


def test_buffer_width_controls_leakage():
    kernel = BrownianKernel(D1)
    w = kernel.buffer_width(1.0, 1e-4)
    assert kernel.tail_bound(1.0, w) <= 1e-4 + 1e-15


def relabelled(kernel):
    """The same kernel under a subclass that changes only the variant label."""
    cls = type(kernel)
    twin = copy.copy(kernel)
    twin.__class__ = type("Relabelled" + cls.__name__, (cls,),
                          {"variant": "relabelled"})
    return twin


class TestKernelProtocol:
    """Kernel behaviour follows the kernel's class, never its variant label."""

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.variant)
    def test_relabelled_summability_report(self, kernel):
        args = dict(alpha=2.0, m=1, epsilon=0.25, delta=1.0)
        rep = check_summability(kernel, **args).to_dict()
        twin = check_summability(relabelled(kernel), **args).to_dict()
        assert twin["parameters"].pop("variant") == "relabelled"
        assert rep["parameters"].pop("variant") == kernel.variant
        assert twin == rep

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.variant)
    def test_relabelled_exit_probability(self, kernel):
        args = (np.array([0.0]), 0.8, 0.25, 500, 0.25 / 50)
        assert exit_probability(relabelled(kernel), *args, RngStream(6)) == \
            exit_probability(kernel, *args, RngStream(6))

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.variant)
    def test_relabelled_buffer_width(self, kernel):
        assert relabelled(kernel).buffer_width(1.0, 1e-4) == \
            kernel.buffer_width(1.0, 1e-4)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.variant)
    def test_relabelled_event_stream(self, kernel):
        cfg = Configuration(np.array([[-1.0], [0.5], [2.0]]), D1)

        def record(model):
            try:
                return event_stream(cfg, model, 2.0, RngStream(14)).to_jsonl()
            except ValueError as exc:
                return str(exc)

        assert record(relabelled(kernel)) == record(kernel)

    @pytest.mark.parametrize("kernel", (DeathKernel(D1, 1.0),
                                        KilledBrownianKernel(D1, 0.5)),
                             ids=lambda k: k.variant)
    def test_relabelled_submarkov_laplace(self, kernel):
        # the constant-rate killed kernel integrates its image in closed form,
        # which differs from quadrature of the image in the last digits
        cfg = Configuration(np.array([[-0.5], [0.0], [0.5]]), D1)
        phi = TestFunction.bump(-0.5, (0.0,), 1.0)
        assert analytic_laplace_submarkov(relabelled(kernel), cfg, phi, 0.5, 1.0) \
            == analytic_laplace_submarkov(kernel, cfg, phi, 0.5, 1.0)


def reference_kawasaki_exit(kernel, r, epsilon, n_paths, gen):
    """Per-path loop: a path exits if a partial sum of its jumps leaves B(0, r)."""
    counts = gen.poisson(kernel.clock_rate * epsilon, size=n_paths)
    total = int(counts.sum())
    draws = kernel.profile.sample_displacements(gen, total) if total else \
        np.zeros((0, kernel.domain.dim))
    exited = np.zeros(n_paths, dtype=bool)
    offset = 0
    for i in range(n_paths):
        c = counts[i]
        if c == 0:
            continue
        path = np.cumsum(draws[offset:offset + c], axis=0)
        offset += c
        exited[i] = bool(np.any(np.linalg.norm(path, axis=1) > r))
    return exited, counts


@pytest.mark.parametrize("kernel", (
    KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.7)),
    KawasakiKernel(D2, GaussianProfile(2, 1.5, 0.5)),
    KawasakiKernel(D1, BumpProfile(1, 1.2, 0.8)),
    KawasakiKernel(D2, BumpProfile(2, 1.2, 0.8)),
), ids=("gauss1d", "gauss2d", "bump1d", "bump2d"))
@pytest.mark.parametrize("r", (0.6, 1.3, 1000.0))
def test_kawasaki_exit_matches_per_path_loop(kernel, r):
    eps, n_paths = 1.0, 3000
    x = np.zeros(kernel.domain.dim)
    for seed in (1, 2):
        exited, counts = reference_kawasaki_exit(
            kernel, r, eps, n_paths, RngStream(seed).generator())
        assert np.any(counts == 0) and np.any(counts >= 3)
        mean = float(np.mean(exited))
        stderr = float(np.std(exited, ddof=1) / math.sqrt(n_paths))
        bound = min(2.0 * kernel.tail_bound(eps, r / 2.0), 1.0)
        assert exit_probability(kernel, x, r, eps, n_paths, 0.01,
                                RngStream(seed)) == (mean, stderr, bound)
        if r == 1000.0:
            assert mean == 0.0


# ---------------------------------------------------------------------------
# Kawasaki jump counts: one uniform per row, inverted through the Poisson cdf

# the last mean is above kernels._MAX_INVERSION_MEAN: numpy's Poisson sampler
JUMP_MEANS = (0.05, 0.5, 2.0, 8.0, 50.0)


def _jump_counts(lam, gen, n):
    """The (hop, k) blocks of _jump_blocks joined over all n rows."""
    hops, ks = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for hop, k in _jump_blocks(lam, gen, n):
        hops.append(hop)
        ks.append(k)
    return np.concatenate(hops), np.concatenate(ks)


def _all_counts(hop, k, n):
    counts = np.zeros(n, dtype=np.int64)
    counts[hop] = k
    return counts


def _assert_poisson_law(counts, lam):
    """Mean and variance within 4 sigma, and a chi-square over the cells
    k = 0, 1, ... whose expectation is >= 5, the last cell holding k >= top."""
    n = len(counts)
    assert abs(counts.mean() - lam) <= 4.0 * math.sqrt(lam / n)
    assert abs(counts.var(ddof=1) - lam) <= \
        4.0 * math.sqrt((lam + 2.0 * lam ** 2) / n)
    ks = np.arange(int(lam + 20.0 * math.sqrt(lam)) + 20)
    top = int(ks[n * poisson.pmf(ks, lam) >= 5.0][-1])
    observed = np.bincount(np.minimum(counts, top), minlength=top + 1)
    expected = n * np.append(poisson.pmf(ks[:top], lam), poisson.sf(top - 1, lam))
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2.sf(stat, top) > 1e-3


@pytest.mark.parametrize("lam", JUMP_MEANS)
def test_jump_counts_follow_poisson_law(lam):
    n = 200_000
    hop, k = _jump_counts(np.float64(lam), np.random.default_rng(31), n)
    assert np.all(np.diff(hop) > 0) and np.all(k >= 1)
    _assert_poisson_law(_all_counts(hop, k, n), lam)
    # per-row means; every other row has zero time and never jumps
    rows = np.where(np.arange(n) % 2 == 0, lam, 0.0)
    hop, k = _jump_counts(rows, np.random.default_rng(32), n)
    assert np.all(hop % 2 == 0) and np.all(k >= 1)
    _assert_poisson_law(_all_counts(hop, k, n)[::2], lam)


@pytest.mark.parametrize("lam", JUMP_MEANS)
def test_jump_counts_scalar_and_constant_rows_agree(lam):
    n = 50_000
    shared = _jump_counts(np.float64(lam), np.random.default_rng(7), n)
    rows = _jump_counts(np.full(n, lam), np.random.default_rng(7), n)
    for a, b in zip(shared, rows):
        assert a.dtype == b.dtype and np.array_equal(a, b)


CDF_MEANS = (1e-3, 0.5, 3.0, 15.9)


@pytest.mark.parametrize("lam", CDF_MEANS)
def test_poisson_cdf_table_matches_scipy(lam):
    # the pmf recurrence against scipy's regularized incomplete gamma;
    # past the table the cdf is 1
    table = _poisson_cdf(np.float64(lam))
    assert table[-1] == 1.0 and np.all(np.diff(table) > 0)
    k = np.arange(60)
    got = np.append(table, np.ones(max(0, 60 - len(table))))[:60]
    assert np.max(np.abs(got - pdtr(k, lam))) <= 1e-15


class _TopUniforms:
    # a generator whose every uniform is the largest double below 1
    def random(self, size):
        return np.full(size, 1.0 - 2.0 ** -53)


@pytest.mark.parametrize("lam", CDF_MEANS + (16.0,))
def test_jump_counts_end_at_the_largest_uniform(lam):
    # at lam = 15.9 the recurrence stalls at 1 - 2.2e-16 from k = 60, below
    # this uniform: the stalled level counts as 1, so every row stops there
    n = 3
    top = len(_poisson_cdf(np.float64(lam))) - 1
    for means in (np.float64(lam), np.full(n, lam)):
        hop, k = _jump_counts(means, _TopUniforms(), n)
        assert np.array_equal(hop, np.arange(n))
        assert np.array_equal(k, np.full(n, top))
    if lam == 15.9:
        assert top == 60


@pytest.mark.parametrize("profile", (GaussianProfile(2, 1.3, 0.7),
                                     BumpProfile(2, 2.0, 1.1)),
                         ids=("gauss", "bump"))
@pytest.mark.parametrize("lam", (0.0,) + JUMP_MEANS)
def test_kawasaki_scalar_time_matches_constant_rows(profile, lam):
    kernel = KawasakiKernel(Domain.torus(2, 7.0), profile)
    pts = np.random.default_rng(3).uniform(0.0, 7.0, size=(5000, 2))
    t = lam / profile.mass
    got, _ = kernel.propagate_batch(pts, t, RngStream(9).generator())
    want, _ = kernel.propagate_batch(pts, np.full(len(pts), t),
                                     RngStream(9).generator())
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if lam == 0.0:  # zero time: no row jumps
        assert np.array_equal(got, pts)


@pytest.mark.parametrize("profile", (GaussianProfile(2, 1.3, 0.7),
                                     BumpProfile(2, 2.0, 1.1)),
                         ids=("gauss", "bump"))
@pytest.mark.parametrize("times", ("shared", "rows", "poisson"))
def test_kawasaki_propagate_batch_adds_the_jumps_on_their_ring(profile,
                                                                times):
    torus = Domain.torus(2, 7.0)
    kernel = KawasakiKernel(torus, profile)
    n = 70_000  # past one block of rows
    pts = np.random.default_rng(3).uniform(0.0, 7.0, size=(n, 2))
    dts = {"shared": 0.9, "rows": np.linspace(0.0, 4.0, n),
           "poisson": 20.0}[times]  # mass * t past 16: gen.poisson
    got_gen, want_gen = RngStream(12).generator(), RngStream(12).generator()
    got, alive = kernel.propagate_batch(pts, dts, got_gen)
    ring, step = kernel.jumps(n, dts, want_gen)
    assert ring.dtype == bool and ring.sum() == len(step) > 0
    want = pts.copy()
    want[ring] += step
    want = torus.wrap(want)
    assert alive.all()
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(got_gen.random(4), want_gen.random(4))


def test_kawasaki_large_time_stays_cheap():
    # inversion would take about mass * t passes over the rows
    kernel = KawasakiKernel(Domain.torus(1, 5.0), GaussianProfile(1, 1.0, 0.7))
    pts = np.zeros((1000, 1))
    for dts in (1e9, np.where(np.arange(1000) % 2 == 0, 1e9, 0.0)):
        out, _ = kernel.propagate_batch(pts, dts, RngStream(4).generator())
        assert np.all((out >= 0.0) & (out < 5.0))
    hop, k = _jump_counts(np.float64(1e9), np.random.default_rng(5), 1000)
    assert np.array_equal(hop, np.arange(1000))
    assert abs(k.mean() - 1e9) <= 4.0 * math.sqrt(1e9 / 1000)


def test_kawasaki_infinite_time_rejected():
    kernel = KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.7))
    for dts in (np.inf, np.array([0.5, np.inf])):
        with pytest.raises(ValueError, match="finite"):
            kernel.propagate_batch(np.zeros((2, 1)), dts,
                                   RngStream(1).generator())
