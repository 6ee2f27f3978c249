"""Multi-particle evolution, immigration, birth-and-death, event streams."""

import math

import numpy as np
import pytest

from freedyn.dynamics import (
    Buffer,
    EventStream,
    GlauberDynamics,
    event_stream,
    evolve_snapshot,
    evolve_with_immigration,
    glauber_evolve,
)
from freedyn.kernels import (DeathKernel, GaussianProfile, KawasakiKernel,
                             KilledBrownianKernel)
from freedyn.pointproc import (Configuration, PoissonMeasure, RngStream,
                               mean_se, pair_into)
from freedyn.space import Domain


D1 = Domain.fullspace((0.0,), (5.0,))
T1 = Domain.torus(1, 5.0)


def fixed_config(n, domain=D1):
    lo, hi = domain.lower[0], domain.upper[0]
    xs = np.linspace(lo + 0.01, hi - 0.01, n)
    return Configuration(xs[:, None], domain)


class TestEvolveSnapshot:
    def test_near_zero_time_is_identity(self):
        cfg = fixed_config(10)
        for kernel in (DeathKernel(D1, 1.0), KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.5))):
            snaps = evolve_snapshot(cfg, kernel, (1e-12,), RngStream(1),
                                    Buffer(width=0.5, intensity=0.0))
            assert np.allclose(snaps[0].points, cfg.points, atol=1e-5)
            assert len(snaps[0]) == len(cfg)

    def test_death_kernel_binomial_survivors(self):
        # 100 points, t = ln 2: each survives with probability 1/2
        cfg = fixed_config(100)
        kernel = DeathKernel(D1, 1.0)
        rng = RngStream(2)
        counts = [len(evolve_snapshot(cfg, kernel, (math.log(2.0),), rng.child(i))[0])
                  for i in range(2000)]
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(mean - 50.0) <= 3 * se

    def test_torus_kawasaki_count_conserved(self):
        cfg = fixed_config(20, T1)
        kernel = KawasakiKernel(T1, GaussianProfile(1, 1.0, 0.5))
        snaps = evolve_snapshot(cfg, kernel, (0.5, 1.0, 2.0), RngStream(3))
        assert [len(s) for s in snaps] == [20, 20, 20]

    def test_snapshots_stay_simple(self):
        cfg = fixed_config(30, T1)
        kernel = KawasakiKernel(T1, GaussianProfile(1, 1.0, 0.5))
        for i in range(20):
            for snap in evolve_snapshot(cfg, kernel, (0.5, 1.0), RngStream(100 + i)):
                pts = snap.points
                assert len(np.unique(pts, axis=0)) == len(pts)


class TestImmigration:
    def test_empty_start_mean_count(self):
        # birth-death ODE: m(t) = z*V*(1 - exp(-t)); t=10 is effectively inf
        empty = Configuration(np.empty((0, 1)), D1)
        kernel = DeathKernel(D1, 1.0)
        rng = RngStream(4)
        counts = [
            len(evolve_with_immigration(empty, kernel, 2.0, (10.0,), rng.child(i))[0])
            for i in range(2000)
        ]
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        expected = 2.0 * 5.0 * (1.0 - math.exp(-10.0))
        assert abs(mean - expected) <= 3 * se

    def test_intermediate_time_mean(self):
        empty = Configuration(np.empty((0, 1)), D1)
        kernel = DeathKernel(D1, 1.0)
        rng = RngStream(5)
        counts = [
            len(evolve_with_immigration(empty, kernel, 2.0, (0.5,), rng.child(i))[0])
            for i in range(3000)
        ]
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        expected = 10.0 * (1.0 - math.exp(-0.5))
        assert abs(mean - expected) <= 3 * se

    @pytest.mark.parametrize("kernel", [
        DeathKernel(D1, 1.0), KilledBrownianKernel(D1, 1.0, h_kill=0.1)],
        ids=["death", "killed_brownian"])
    def test_empty_start_default_buffer(self, kernel):
        # density 0 still takes the kernel's collar width, so the rain box
        # is finite; the mean count is z |W| (1 - e^{-at}) up to the leakage
        # (a constant killing rate is exact on any grid, so h_kill is coarse)
        empty = Configuration(np.empty((0, 1)), D1)
        rng = RngStream(17)
        counts = [
            len(evolve_with_immigration(empty, kernel, 2.0, (1.0,), rng.child(i))[0])
            for i in range(2000)
        ]
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        expected = 2.0 * 5.0 * (1.0 - math.exp(-1.0))
        assert abs(mean - expected) <= 3 * se, (mean, se, expected)


class TestGlauberEvolve:
    def test_pure_death_thinning(self):
        cfg = fixed_config(50)
        snaps = glauber_evolve(cfg, 1.0, 0.0, (0.3, 0.9, 2.0), RngStream(6))
        counts = [len(s) for s in snaps]
        assert counts[0] >= counts[1] >= counts[2]
        # survivors are a subset of the start
        start = {tuple(p) for p in cfg.points}
        for s in snaps:
            assert {tuple(p) for p in s.points} <= start

    def test_zero_rate_frozen(self):
        cfg = fixed_config(15)
        snaps = glauber_evolve(cfg, 0.0, 1.0, (1.0, 4.0), RngStream(7))
        for s in snaps:
            assert np.array_equal(np.sort(s.points, axis=0), np.sort(cfg.points, axis=0))

    def test_poisson_invariance_intensity(self):
        # start Poisson(z), a=1: intensity stays z
        z = 2.0
        rng = RngStream(8)
        counts = []
        for i in range(3000):
            start = PoissonMeasure(D1, z).sample(rng.child(0, i))
            counts.append(len(glauber_evolve(start, 1.0, z, (1.0,), rng.child(1, i))[0]))
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(mean - z * 5.0) <= 3 * se


class TestEventReplayMatchesGlauberInLaw:
    """Event-stream replay and the snapshot path (the death kernel with
    immigration) are two implementations of one birth-and-death law: the
    window count at time t is Binomial(n, e^{-at}) plus an independent
    Poisson(z |W| (1 - e^{-at}))."""

    A, Z, TIMES, N_REP = 1.0, 1.5, (0.3, 1.0, 2.5), 2000

    def _counts(self):
        cfg = fixed_config(6)
        rng = RngStream(31)
        replay = np.empty((self.N_REP, len(self.TIMES)))
        snap = np.empty((self.N_REP, len(self.TIMES)))
        for i in range(self.N_REP):
            stream = event_stream(cfg, GlauberDynamics(self.A, self.Z),
                                  self.TIMES[-1], rng.child(0, i))
            replay[i] = [len(stream.snapshot(cfg, t)) for t in self.TIMES]
            snap[i] = [len(s) for s in glauber_evolve(
                cfg, self.A, self.Z, self.TIMES, rng.child(1, i))]
        return len(cfg), replay, snap

    def test_counts_match_closed_form_mean_and_variance(self):
        n, replay, snap = self._counts()
        volume = D1.window_volume
        for j, t in enumerate(self.TIMES):
            p = math.exp(-self.A * t)
            mean = n * p + self.Z * volume * (1.0 - p)
            var = n * p * (1.0 - p) + self.Z * volume * (1.0 - p)
            for counts in (replay[:, j], snap[:, j]):
                m, se = mean_se(counts)
                assert abs(m - mean) <= 3 * se, (t, m, se, mean)
                # standard error of the sample variance from the 4th moment
                dev = counts - counts.mean()
                s2 = float(np.var(counts, ddof=1))
                se2 = math.sqrt(max(np.mean(dev ** 4) - s2 ** 2, 0.0)
                                / len(counts))
                assert abs(s2 - var) <= 3 * se2, (t, s2, se2, var)
            (m1, se1), (m2, se2) = mean_se(replay[:, j]), mean_se(snap[:, j])
            assert abs(m1 - m2) <= 3 * math.hypot(se1, se2), (t, m1, m2)


class TestEventStream:
    def test_empty_start_no_immigration(self):
        empty = Configuration(np.empty((0, 1)), D1)
        stream = event_stream(empty, GlauberDynamics(1.0, 0.0), 5.0, RngStream(9))
        assert len(stream.events) == 0

    def test_glauber_birth_rate(self):
        empty = Configuration(np.empty((0, 1)), D1)
        rng = RngStream(10)
        births = []
        for i in range(2000):
            stream = event_stream(empty, GlauberDynamics(1.0, 1.0), 2.0, rng.child(i))
            births.append(sum(1 for e in stream.events if e.kind == "birth"))
        mean = np.mean(births)
        se = np.std(births, ddof=1) / math.sqrt(len(births))
        assert abs(mean - 10.0) <= 3 * se  # a*z*V*T = 1*1*5*2

    def test_kawasaki_jump_rate(self):
        cfg = fixed_config(10, T1)
        kernel = KawasakiKernel(T1, GaussianProfile(1, 1.0, 0.5))
        rng = RngStream(11)
        jumps = []
        for i in range(1500):
            stream = event_stream(cfg, kernel, 2.0, rng.child(i))
            jumps.append(sum(1 for e in stream.events if e.kind == "jump"))
        mean = np.mean(jumps)
        se = np.std(jumps, ddof=1) / math.sqrt(len(jumps))
        assert abs(mean - 20.0) <= 3 * se  # n*lambda*T

    def test_times_nondecreasing_and_snapshot_consistent(self):
        cfg = fixed_config(8)
        stream = event_stream(cfg, GlauberDynamics(1.0, 1.0), 3.0, RngStream(12))
        times = [e.time for e in stream.events]
        assert times == sorted(times)
        snap = stream.snapshot(cfg, 3.0)
        births = sum(1 for e in stream.events if e.kind == "birth")
        deaths = sum(1 for e in stream.events if e.kind == "death")
        assert len(snap) == len(cfg) + births - deaths

    def test_jsonl_roundtrip(self):
        import json

        cfg = fixed_config(5)
        stream = event_stream(cfg, GlauberDynamics(1.0, 1.0), 1.0, RngStream(13))
        lines = stream.to_jsonl().strip().splitlines()
        head = json.loads(lines[0])
        assert head["horizon"] == 1.0
        for line in lines[1:]:
            rec = json.loads(line)
            assert rec["event"] in ("birth", "death", "jump")

    @pytest.mark.parametrize("model", ["glauber", "kawasaki", "empty"])
    def test_jsonl_parse_reserialize_and_replay(self, model):
        cfg = fixed_config(6, T1)
        if model == "glauber":
            stream = event_stream(cfg, GlauberDynamics(1.0, 1.0), 1.5,
                                  RngStream(15))
            assert {e.kind for e in stream.events} == {"birth", "death"}
        elif model == "kawasaki":
            kernel = KawasakiKernel(T1, GaussianProfile(1, 1.0, 0.5))
            stream = event_stream(cfg, kernel, 1.5, RngStream(16))
            assert {e.kind for e in stream.events} == {"jump"}
        else:
            stream = EventStream([], 1.5)
        text = stream.to_jsonl()
        back = EventStream.from_jsonl(text)
        assert back.events == stream.events
        assert back.horizon == stream.horizon
        assert back.to_jsonl() == text
        for t in (0.0, 0.7, 1.5):
            assert back.snapshot(cfg, t) == stream.snapshot(cfg, t)


class TestMarkovPropertyInLaw:
    def test_two_step_equals_one_step(self):
        # evolve to 0.4 then fresh evolve to 0.6 vs directly to 1.0:
        # single-time empirical Laplace functionals agree within 3 sigma
        from freedyn.functions import TestFunction

        phi = TestFunction.box(-0.5, (1.0,), (3.0,))
        kernel = KawasakiKernel(T1, GaussianProfile(1, 1.0, 0.5))
        cfg = fixed_config(12, T1)
        rng = RngStream(14)
        n = 3000
        one, two = [], []
        for i in range(n):
            direct = evolve_snapshot(cfg, kernel, (1.0,), rng.child(0, i))[0]
            mid = evolve_snapshot(cfg, kernel, (0.4,), rng.child(1, i))[0]
            fin = evolve_snapshot(mid, kernel, (0.6,), rng.child(2, i))[0]
            one.append(direct)
            two.append(fin)

        def laplace(snaps):
            # prod (1 + phi) of every snapshot, paired as one replica batch
            pts = np.concatenate([c.points for c in snaps])
            ids = np.repeat(np.arange(len(snaps)), [len(c) for c in snaps])
            return mean_se(np.exp(pair_into(np.zeros(len(snaps)), ids,
                                            np.log1p(phi(pts)))))

        (mean1, se1), (mean2, se2) = laplace(one), laplace(two)
        assert abs(mean1 - mean2) <= 3 * math.hypot(se1, se2)
