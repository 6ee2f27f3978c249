"""Laplace functionals, correlations, Ursell transforms, generators."""

import itertools
import math

import numpy as np
import pytest
from scipy.special import ndtr

from freedyn.dynamics import (Buffer, GlauberDynamics, evolve_snapshot,
                              glauber_evolve)
from freedyn.functions import NumericFunction, TestFunction, support_box
from freedyn.kernels import BrownianKernel, DeathKernel, GaussianProfile, KawasakiKernel
from freedyn.observables import (
    CylinderFunction,
    UrsellTable,
    analytic_laplace_markov,
    analytic_laplace_submarkov,
    bin_counts,
    correlation_edges,
    correlations_from_counts,
    correlations_from_ursell,
    estimate_correlations,
    generator_apply,
    generator_fd_check,
    glauber_joint_laplace,
    pairing,
    poisson_laplace_exponent,
    set_partitions,
    ursell_from_correlations,
)
from freedyn.pointproc import (BoundedField, Configuration, PoissonMeasure,
                               RngStream, mean_se, pair_into, run_chunks)
from freedyn.space import Domain


D1 = Domain.fullspace((-2.0,), (3.0,))
BOX = TestFunction.box(-0.5, (-1.0,), (1.0,))


def config_of(*xs):
    return Configuration(np.array(xs, dtype=float)[:, None], D1)


class TestPairing:
    def test_empty(self):
        assert pairing(BOX, Configuration(np.empty((0, 1)), D1)) == 0.0

    def test_four_points_in_support(self):
        cfg = config_of(-0.5, 0.0, 0.3, 0.9)
        assert pairing(BOX, cfg) == pytest.approx(-2.0)

    def test_additive_over_disjoint_union(self):
        a = config_of(-0.5, 0.2)
        b = config_of(0.7, 2.5)
        assert pairing(BOX, a.union(b)) == pytest.approx(pairing(BOX, a) + pairing(BOX, b))


def batch_laplace(measure, phi, n, rng):
    """Replica values of prod (1 + phi) over n draws of the measure."""
    def worker(m, gen):
        pts, ids = measure.sample_batch(m, gen)
        return np.exp(pair_into(np.zeros(m), ids, np.log1p(phi(pts))))

    return run_chunks(worker, n, rng)


class TestEmpiricalLaplace:
    """prod (1 + phi) on the replica-batch engine: sample_batch, pair_into,
    run_chunks and mean_se."""

    def test_zero_function_exactly_one(self):
        zero = TestFunction.box(0.0, (-1.0,), (1.0,))
        values = batch_laplace(config_of(0.0, 0.5), zero, 10, RngStream(0))
        assert mean_se(values) == (1.0, 0.0)

    def test_deterministic_config_exact_product(self):
        # a Configuration's batch draws nothing: every replica is the product
        values = batch_laplace(config_of(0.0, 0.5, 2.0), BOX, 5, RngStream(0))
        assert np.all(values == 0.5 * 0.5 * 1.0)
        assert mean_se(values) == (0.25, 0.0)

    def test_values_in_unit_interval(self):
        values = batch_laplace(PoissonMeasure(D1, 2.0), BOX, 200, RngStream(55))
        assert np.all((values > 0.0) & (values <= 1.0))
        assert 0.0 < mean_se(values)[0] <= 1.0

    def test_poisson_matches_closed_form(self):
        # E prod(1+phi) over Poisson(z) equals exp(z*int(phi))
        z = 2.0
        mean, stderr = mean_se(batch_laplace(PoissonMeasure(D1, z), BOX,
                                             20000, RngStream(56)))
        target = math.exp(z * BOX.integral())
        assert abs(mean - target) <= 3 * stderr


def test_poisson_laplace_exponent_box_oracle():
    # int (e^phi - 1) for a box of level c and width w is (e^c - 1) * w
    z = 1.5
    val = poisson_laplace_exponent(BOX, z)
    assert val == pytest.approx(z * (math.exp(-0.5) - 1.0) * 2.0, abs=1e-10)


class TestAnalyticMarkov:
    def test_time_zero_product(self):
        cfg = config_of(0.0, 0.5, 2.0)
        val = analytic_laplace_markov(BrownianKernel(D1), cfg, BOX, 0.0)
        assert val == pytest.approx(0.25)

    def test_empty_config_is_one(self):
        cfg = Configuration(np.empty((0, 1)), D1)
        assert analytic_laplace_markov(BrownianKernel(D1), cfg, BOX, 1.0) == 1.0

    def test_brownian_single_point_frozen(self):
        cfg = config_of(0.0)
        val = analytic_laplace_markov(BrownianKernel(D1), cfg, BOX, 1.0)
        assert val == pytest.approx(0.6586552539314571, abs=1e-8)


class ClassDViolator:
    """Kernel stub whose semigroup image is -1 everywhere: only an oracle
    fault can push a Markov image of a class-D function there."""

    def __init__(self, conservative):
        self.conservative = conservative

    def semigroup(self, phi, t, tol):
        return NumericFunction(lambda pts: -np.ones(len(pts)), phi.support_lo,
                               phi.support_hi, 1.0)


def test_image_leaving_class_d_is_numerical_error():
    cfg = config_of(0.0, 0.5)
    with pytest.raises(RuntimeError, match="left class D"):
        analytic_laplace_markov(ClassDViolator(True), cfg, BOX, 1.0)
    with pytest.raises(RuntimeError, match="left class D"):
        analytic_laplace_submarkov(ClassDViolator(False), cfg, BOX, 1.0, 1.0)


class TestAnalyticSubmarkov:
    def test_time_zero(self):
        cfg = config_of(0.0, 0.5)
        kernel = DeathKernel(D1, 1.0)
        val = analytic_laplace_submarkov(kernel, cfg, BOX, 0.0, z=1.0)
        assert val == pytest.approx(0.25)

    def test_long_time_limit_exp_minus_z(self):
        # empty start, int(phi) = -1: value tends to exp(-z)
        empty = Configuration(np.empty((0, 1)), D1)
        phi = TestFunction.box(-0.5, (-1.0,), (1.0,))  # integral -1
        kernel = DeathKernel(D1, 1.0)
        val = analytic_laplace_submarkov(kernel, empty, phi, 40.0, z=2.0)
        assert val == pytest.approx(0.1353352832366127, abs=1e-9)

    def test_half_life_frozen(self):
        # a=1, t=ln2: T_t phi = phi/2; factors (1-0.25) and exp(z*int(phi)/2)
        cfg = config_of(0.0)
        kernel = DeathKernel(D1, 1.0)
        val = analytic_laplace_submarkov(kernel, cfg, BOX, math.log(2.0), z=1.0)
        assert val == pytest.approx(0.45489799478447507, abs=1e-9)


class TestGlauberJointLaplace:
    def test_unsupported_start_refused(self):
        with pytest.raises(ValueError, match="unsupported starting measure"):
            glauber_joint_laplace("poisson", 1.0, 1.0, (0.5,), (BOX,))

    def test_all_zero_functions(self):
        zero = TestFunction.box(0.0, (-1.0,), (1.0,))
        cfg = config_of(0.0)
        assert glauber_joint_laplace(cfg, 1.0, 1.0, (0.5, 1.0), (zero, zero)) == pytest.approx(1.0)

    def test_single_time_fixed_closed_form(self):
        cfg = config_of(0.0, 0.4)
        a, z, t = 1.3, 0.7, 0.9
        val = glauber_joint_laplace(cfg, a, z, (t,), (BOX,))
        decay = math.exp(-a * t)
        manual = math.exp(z * (1 - decay) * BOX.integral())
        for x in (0.0, 0.4):
            manual *= 1.0 + decay * BOX(np.array([[x]]))[0]
        assert val == pytest.approx(manual, abs=1e-10)

    def test_poisson_start_stationary(self):
        # z0 = z makes the law invariant: value exp(z <phi>) at every time
        z = 1.7
        target = math.exp(z * BOX.integral())
        for t in (0.25, 1.0, 4.0):
            start = PoissonMeasure(Domain.fullspace(*support_box([BOX])), z)
            val = glauber_joint_laplace(start, 1.0, z, (t,), (BOX,))
            assert val == pytest.approx(target, abs=1e-10)

    def test_two_time_poisson_hand_oracle(self):
        # by-hand subset expansion for times (0.5, 1), a=z=z0=1
        phi1 = TestFunction.box(-0.5, (-1.0,), (1.0,))
        phi2 = TestFunction.box(-0.6, (-0.5,), (1.5,))
        e1, e2 = math.exp(-0.5), math.exp(-1.0)
        i1, i2 = -1.0, -1.2
        i12 = 0.3 * 1.5  # overlap [-0.5, 1)
        expo = (
            (1 - e1) * i1 + e1 * i1
            + (1 - e2) * i2 + e2 * i2
            + (1 - e1) * e1 * i12 + e2 * i12
        )
        start = PoissonMeasure(Domain.fullspace(*support_box([phi1, phi2])), 1.0)
        val = glauber_joint_laplace(start, 1.0, 1.0, (0.5, 1.0), (phi1, phi2))
        assert val == pytest.approx(math.exp(expo), abs=1e-10)


class TestCorrelations:
    @staticmethod
    def poisson_grid(z, order, bins, rng):
        edges = correlation_edges(D1, bins)
        measure = PoissonMeasure(D1, z)

        def worker(m, gen):
            pts, ids = measure.sample_batch(m, gen)
            return bin_counts(pts, ids, m, D1, edges)

        return correlations_from_counts(run_chunks(worker, 8000, rng), order,
                                        edges)

    def test_poisson_first_order(self):
        z = 2.0
        grid = self.poisson_grid(z, 1, 5, RngStream(60))
        sig = np.abs(grid.estimates - z) / np.maximum(grid.stderrs, 1e-12)
        assert np.max(sig) <= 3.5

    def test_poisson_second_order_disjoint(self):
        z = 2.0
        grid = self.poisson_grid(z, 2, 3, RngStream(61))
        off = [k for k, idx in enumerate(grid.index_tuples) if len(set(idx)) == 2]
        sig = np.abs(grid.estimates[off] - z * z) / np.maximum(grid.stderrs[off], 1e-12)
        assert np.max(sig) <= 3.5

    def test_single_point_no_pairs(self):
        samples = [config_of(0.5)] * 50
        grid = estimate_correlations(samples, 2, bins_per_axis=2)
        assert np.all(grid.estimates == 0.0)

    def test_csv_has_header_and_rows(self):
        samples = [config_of(0.5, 1.5)] * 10
        grid = estimate_correlations(samples, 1, bins_per_axis=4)
        lines = grid.to_csv().strip().splitlines()
        assert lines[0].startswith("x0_0")
        assert len(lines) == 1 + 4

    def test_bin_counts_keep_trailing_empty_replicas(self):
        edges = correlation_edges(D1, 5)
        pts = np.array([[-1.5], [-1.4], [2.9]])
        counts = bin_counts(pts, np.array([0, 0, 2]), 5, D1, edges)
        expected = np.zeros((5, 5), dtype=np.int64)
        expected[0, 0] = 2
        expected[2, 4] = 1
        assert np.array_equal(counts, expected)

    def test_bin_counts_match_per_replica_histograms(self):
        gen = np.random.default_rng(5)
        d2 = Domain.fullspace((0.0, -1.0), (3.0, 1.0))
        edges = correlation_edges(d2, (3, 4))
        ids = np.sort(gen.integers(0, 40, size=300))  # replicas 40..49 empty
        pts = gen.uniform((0.0, -1.0), (3.0, 1.0), size=(300, 2))
        counts = bin_counts(pts, ids, 50, d2, edges)
        assert counts.shape == (50, 12)
        for r in range(50):
            ref = np.histogramdd(pts[ids == r], bins=edges)[0].ravel()
            assert np.array_equal(counts[r], ref)

    def test_upper_window_edge_lands_in_last_bin(self):
        d2 = Domain.fullspace((0.0, 0.0), (3.0, 3.0))
        edges = correlation_edges(d2, 3)
        pts = np.array([[3.0, 3.0], [3.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        counts = bin_counts(pts, np.arange(4), 4, d2, edges)
        # flat index is row-major: x0 bin * 3 + x1 bin
        assert [int(np.flatnonzero(row)[0]) for row in counts] == [8, 6, 2, 0]
        assert np.array_equal(counts.sum(axis=1), np.ones(4))

    def test_too_fine_grid_is_refused_before_enumeration(self):
        # 144 bins at order 4 would be 1.9e7 bin tuples
        d2 = Domain.fullspace((0.0, 0.0), (3.0, 3.0))
        edges = correlation_edges(d2, 12)
        counts = np.zeros((2, 144), dtype=np.int64)
        with pytest.raises(ValueError, match="too fine"):
            correlations_from_counts(counts, 4, edges)
        assert len(correlations_from_counts(counts, 2, edges).estimates) == 10440

    def test_all_empty_batch_gives_zero_grid(self):
        edges = correlation_edges(D1, 3)
        counts = bin_counts(np.empty((0, 1)), np.empty(0, dtype=np.int64), 7,
                            D1, edges)
        assert counts.shape == (7, 3) and not counts.any()
        for order in (1, 2, 3):
            grid = correlations_from_counts(counts, order, edges)
            assert grid.n_samples == 7
            assert np.all(grid.estimates == 0.0)
            assert np.all(grid.stderrs == 0.0)
        empty = [Configuration(np.empty((0, 1)), D1)] * 7
        grid = estimate_correlations(empty, 2, bins_per_axis=3)
        assert np.all(grid.estimates == 0.0) and np.all(grid.stderrs == 0.0)

    def test_grid_without_replicas_is_refused(self):
        # zero count rows once gave a grid of nan with numpy warnings
        edges = correlation_edges(D1, 3)
        with pytest.raises(ValueError, match="empty sample set"):
            correlations_from_counts(np.zeros((0, 3), dtype=np.int64), 2,
                                     edges)


# independent partition enumerator via restricted growth strings, used to
# cross-check both set_partitions and the Ursell conversion
def rgs_partitions(n):
    if n == 0:
        yield []
        return
    a = [0] * n
    while True:
        blocks = {}
        for idx, lbl in enumerate(a):
            blocks.setdefault(lbl, []).append(idx)
        yield list(blocks.values())
        for j in range(n - 1, 0, -1):
            if a[j] <= max(a[:j]):
                a[j] += 1
                for k in range(j + 1, n):
                    a[k] = 0
                break
        else:
            return


class TestUrsell:
    def test_partition_count_matches_bell_numbers(self):
        bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
        for n, b in bell.items():
            assert sum(1 for _ in set_partitions(range(n))) == b
            assert sum(1 for _ in rgs_partitions(n)) == b

    def test_first_order_identity(self):
        t = UrsellTable(labels=(0,), correlations={frozenset({0}): 3.25})
        out = ursell_from_correlations(t)
        assert out.ursell[frozenset({0})] == pytest.approx(3.25)

    def test_second_order_formula(self):
        k = {
            frozenset({0}): 1.5,
            frozenset({1}): 2.0,
            frozenset({0, 1}): 4.0,
        }
        out = ursell_from_correlations(UrsellTable(labels=(0, 1), correlations=dict(k)))
        assert out.ursell[frozenset({0, 1})] == pytest.approx(4.0 - 1.5 * 2.0)

    def test_poisson_ursell_vanish(self):
        z = 1.7
        labels = tuple(range(5))
        k = {}
        for size in range(1, 6):
            for combo in itertools.combinations(labels, size):
                k[frozenset(combo)] = z**size
        out = ursell_from_correlations(UrsellTable(labels=labels, correlations=k))
        for eta, val in out.ursell.items():
            if len(eta) == 1:
                assert val == pytest.approx(z, abs=1e-12)
            else:
                assert abs(val) <= 1e-12

    def test_roundtrip_random_tables(self):
        gen = np.random.default_rng(2024)
        for n in range(1, 7):
            labels = tuple(range(n))
            k = {}
            for size in range(1, n + 1):
                for combo in itertools.combinations(labels, size):
                    k[frozenset(combo)] = float(gen.uniform(0.5, 2.0))
            table = ursell_from_correlations(UrsellTable(labels=labels, correlations=dict(k)))
            back = correlations_from_ursell(UrsellTable(labels=labels, ursell=dict(table.ursell)))
            for eta, val in k.items():
                assert back.correlations[eta] == pytest.approx(val, abs=1e-12)

    def test_forward_matches_bruteforce_partition_sum(self):
        # independent check of k(eta) = sum over partitions prod u(block)
        gen = np.random.default_rng(7)
        n = 5
        labels = tuple(range(n))
        u = {}
        for size in range(1, n + 1):
            for combo in itertools.combinations(labels, size):
                u[frozenset(combo)] = float(gen.normal())
        table = correlations_from_ursell(UrsellTable(labels=labels, ursell=dict(u)))
        for size in range(1, n + 1):
            for combo in itertools.combinations(labels, size):
                brute = 0.0
                for part in rgs_partitions(size):
                    prod = 1.0
                    for block in part:
                        prod *= u[frozenset(combo[i] for i in block)]
                    brute += prod
                assert table.correlations[frozenset(combo)] == pytest.approx(brute, abs=1e-12)


class TestGenerators:
    def test_constant_function_zero(self):
        cfg = config_of(0.0, 0.5)
        # the identically-zero bump keeps F constant and stays differentiable
        const = CylinderFunction.exp_pairing(TestFunction.bump(0.0, (0.0,), 1.0))
        for spec in (
            BrownianKernel(D1),
            GlauberDynamics(1.0, 1.0),
            KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.7)),
        ):
            assert generator_apply(const, cfg, spec) == pytest.approx(0.0, abs=1e-10)

    def test_glauber_linear_formula(self):
        cfg = config_of(0.0, 2.5)  # one point inside the support, one outside
        F = CylinderFunction.linear(BOX)
        val = generator_apply(F, cfg, GlauberDynamics(1.0, 1.0))
        assert val == pytest.approx(BOX.integral() - pairing(BOX, cfg), abs=1e-9)
        assert val != 0.0

    def test_kawasaki_linear_formula(self):
        # L F = sum over points of (profile * phi - lambda phi)
        sigma, lam = 0.7, 1.3
        kernel = KawasakiKernel(D1, GaussianProfile(1, lam, sigma))
        cfg = config_of(0.5, 2.0)
        F = CylinderFunction.linear(BOX)
        val = generator_apply(F, cfg, kernel)
        conv = lambda x: -0.5 * lam * (ndtr((1.0 - x) / sigma) - ndtr((-1.0 - x) / sigma))
        expected = sum(conv(x) - lam * BOX(np.array([[x]]))[0] for x in (0.5, 2.0))
        assert val == pytest.approx(expected, abs=1e-9)

    def test_brownian_linear_is_half_laplacian_sum(self):
        bump = TestFunction.bump(-0.5, (0.5,), 1.0)
        cfg = config_of(0.2, 0.8)
        F = CylinderFunction.linear(bump)
        val = generator_apply(F, cfg, BrownianKernel(D1))
        assert val == pytest.approx(0.5 * bump.laplacian(cfg.points).sum(), abs=1e-9)

    def test_fd_frozen_dynamics_both_zero(self):
        cfg = config_of(0.0, 0.5)
        F = CylinderFunction.linear(BOX)
        chk = generator_fd_check(F, cfg, GlauberDynamics(0.0, 0.0), 0.01, 200, RngStream(70))
        assert chk.fd_estimate == 0.0
        assert chk.analytic == 0.0

    def test_fd_glauber_within_envelope(self):
        cfg = config_of(0.0, 0.5)
        F = CylinderFunction.linear(BOX)
        chk = generator_fd_check(F, cfg, GlauberDynamics(1.0, 1.0), 0.02, 40000, RngStream(71))
        assert abs(chk.discrepancy) <= 3 * chk.stderr + 10.0 * 0.02

    def test_fd_kawasaki_within_envelope(self):
        kernel = KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.7))
        cfg = config_of(0.0, 0.5)
        F = CylinderFunction.linear(BOX)
        chk = generator_fd_check(F, cfg, kernel, 0.02, 40000, RngStream(72))
        assert abs(chk.discrepancy) <= 3 * chk.stderr + 10.0 * 0.02

    def test_fd_unsupported_dynamics_refused(self):
        F = CylinderFunction.linear(BOX)
        with pytest.raises(ValueError, match="unsupported dynamics"):
            generator_fd_check(F, config_of(0.0), DeathKernel(D1, 1.0), 0.01,
                               10, RngStream(73))

    def test_fd_single_replica_is_refused(self):
        # one replica has no standard error; mean_se refuses it
        F = CylinderFunction.linear(BOX)
        with pytest.raises(ValueError, match="at least 2 replicas"):
            generator_fd_check(F, config_of(0.0, 0.5),
                               GlauberDynamics(1.0, 1.0), 0.01, 1,
                               RngStream(74))


BUMP = TestFunction.bump(-0.4, (0.5,), 1.2)
ROWS = np.array([[0.0, 0.0], [-0.5, -1.5], [-1.0, 0.25], [-2.75, -0.1]])


@pytest.mark.parametrize("F", [
    CylinderFunction.linear(BOX),
    CylinderFunction.exp_pairing(BOX),
    CylinderFunction.product_pairing(BOX, BUMP),
], ids=["linear", "exp_pairing", "product_pairing"])
def test_outer_on_matrix_matches_rows(F):
    rows = ROWS[:, :len(F.phis)]
    expected = [F.value_at_vector(row) for row in rows]
    assert np.array_equal(F.outer(rows), expected)


def per_replica_fd(F, config, spec, h, n_replicas, rng):
    """Finite difference with one evolve_snapshot/glauber_evolve per replica.

    The reference generator_fd_check is checked against: every replica
    evolves the configuration on its own child stream.  On full space the
    window is widened to cover the phis' supports, so that what F sees
    evolves as in all of R^d (births rain there, jumps there are kept).
    """
    if not config.domain.is_torus:
        lo, hi = support_box(F.phis)
        wide = Domain.fullspace(np.minimum(lo, config.domain.lower),
                                np.maximum(hi, config.domain.upper))
        config = Configuration(config.points, wide)
        if isinstance(spec, KawasakiKernel):
            spec = KawasakiKernel(wide, spec.profile)
    base = F(config)
    diffs = np.empty(n_replicas)
    if isinstance(spec, GlauberDynamics):
        for r in range(n_replicas):
            snaps = glauber_evolve(config, spec.rate, spec.intensity, (h,),
                                   rng.child(r))
            diffs[r] = F(snaps[0]) - base
    else:
        # an infinite collar culls nothing: the jumps evolve in all of R^d
        buffer = None if config.domain.is_torus \
            else Buffer(width=math.inf, intensity=0.0)
        for r in range(n_replicas):
            snaps = evolve_snapshot(config, spec, (h,), rng.child(r), buffer)
            diffs[r] = F(snaps[0]) - base
    return (float(np.mean(diffs) / h),
            float(np.std(diffs, ddof=1) / math.sqrt(n_replicas) / h))


TORUS4 = Domain.torus(1, 4.0)
# a box reaching past the upper window edge at 3: points that jump into
# (3, 4) still count, and births land on all of [2, 4)
EDGE_BOX = TestFunction.box(-0.5, (2.0,), (4.0,))
WAVY_RATE = BoundedField(lambda p: 0.5 + 0.5 * np.cos(p[:, 0]) ** 2, 1.0)


@pytest.mark.parametrize("F, config, spec, h", [
    (CylinderFunction.exp_pairing(EDGE_BOX), config_of(2.5, 2.9),
     GlauberDynamics(1.0, 1.0), 0.05),
    (CylinderFunction.product_pairing(BOX, BUMP), config_of(-0.5, 0.5, 1.0),
     GlauberDynamics(WAVY_RATE, 2.0), 0.05),
    (CylinderFunction.linear(EDGE_BOX), config_of(2.5, 2.9),
     KawasakiKernel(D1, GaussianProfile(1, 2.0, 1.0)), 0.1),
    (CylinderFunction.exp_pairing(TestFunction.bump(-0.5, (3.6,), 0.35)),
     Configuration(np.array([[3.9], [0.1]]), TORUS4), BrownianKernel(TORUS4),
     0.05),
], ids=["glauber-constant", "glauber-bounded-field", "kawasaki-window",
        "brownian-torus"])
def test_batch_fd_matches_per_replica_reference(F, config, spec, h):
    chk = generator_fd_check(F, config, spec, h, 20000, RngStream(75))
    ref, ref_se = per_replica_fd(F, config, spec, h, 5000, RngStream(76))
    assert chk.stderr > 0 and ref_se > 0
    assert abs(chk.fd_estimate - ref) <= 4.0 * math.hypot(chk.stderr, ref_se), \
        (chk.fd_estimate, chk.stderr, ref, ref_se)


@pytest.mark.parametrize("spec, seed", [
    (GlauberDynamics(1.0, 1.0), 77),
    (KawasakiKernel(D1, GaussianProfile(1, 1.3, 0.7)), 78),
], ids=["glauber", "kawasaki"])
def test_fd_past_window_edge_matches_generator(spec, seed):
    # F reaches past the window: the simulation must still evolve the
    # particles in all of R^d, as the generator formula integrates there
    # (clipping to the window gave fd 0.33 against 0.19 for Glauber and
    # 0.31 against 0.13 for Kawasaki)
    F = CylinderFunction.exp_pairing(EDGE_BOX)
    chk = generator_fd_check(F, config_of(2.5, 2.9), spec, 0.005, 400_000,
                             RngStream(seed))
    assert chk.stderr > 0
    assert abs(chk.discrepancy) <= 4.0 * chk.stderr, \
        (chk.fd_estimate, chk.stderr, chk.analytic)
