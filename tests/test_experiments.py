"""Replica experiments against their closed-form targets."""

import json
import math

import numpy as np
import pytest

from freedyn import cli
from freedyn.experiments import (
    ExperimentReport,
    glauber_joint_experiment,
    markov_laplace_experiment,
    poisson_correlation_experiment,
    poisson_laplace_experiment,
    submarkov_laplace_experiment,
)
from freedyn.functions import TestFunction, support_box
from freedyn.kernels import (BrownianKernel, DeathKernel, GaussianProfile,
                             KawasakiKernel, KilledBrownianKernel)
from freedyn.observables import estimate_correlations
from freedyn.pointproc import (CHUNK, Comparison, Configuration, RngStream,
                               chunk_sizes)
from freedyn.scaling import PoissonMeasure, ScalingReport
from freedyn.space import Domain


D1 = Domain.fullspace((-2.0,), (3.0,))
BOX = TestFunction.box(-0.5, (-1.0,), (1.0,))


def test_report_distance_properties():
    rep = ExperimentReport("demo", estimate=1.05, stderr=0.02, analytic=1.0,
                           n_samples=100, parameters={})
    assert rep.abs_error == pytest.approx(0.05)
    assert rep.sigma_distance == pytest.approx(2.5)
    assert rep.within_3sigma
    degenerate = ExperimentReport("demo", 1.0, 0.0, 1.0, 10, {})
    assert degenerate.sigma_distance == 0.0
    off = ExperimentReport("demo", 1.1, 0.0, 1.0, 10, {})
    assert off.sigma_distance == math.inf


@pytest.mark.parametrize("estimate, stderr, target, sigma, within", [
    (1.0, 0.0, 1.0, 0.0, True),  # 0/0 is 0
    (1.1, 0.0, 1.0, math.inf, False),  # x/0 is inf
    (0.0, 1.0, 3.0, 3.0, True),  # exactly 3 sigma below the target is inside
    (3.0, 1.0, 0.0, 3.0, True),  # and so is exactly 3 sigma above it
    (math.nextafter(3.0, 4.0), 1.0, 0.0, math.nextafter(3.0, 4.0), False),
])
def test_comparison_sigma_rule(estimate, stderr, target, sigma, within):
    c = Comparison(estimate, stderr, target)
    assert c.error == abs(estimate - target)
    assert c.sigma_distance == sigma
    assert c.within() is within
    # the report's error, sigma distance and verdict are the record's
    rep = ExperimentReport("demo", estimate, stderr, target, 10, {})
    assert (rep.abs_error, rep.sigma_distance, rep.within_3sigma) == (
        c.error, c.sigma_distance, within)


def test_comparison_slack_adds_to_three_sigma():
    c = Comparison(3.5, 1.0, 0.0)
    assert not c.within() and not c.within(0.25)
    assert c.within(0.5)  # error == 3 stderr + slack exactly
    # with no noise at all, the slack alone is the tolerance
    assert Comparison(0.25, 0.0, 0.0).within(0.25)
    assert not Comparison(0.5, 0.0, 0.0).within(0.25)


def _config_file(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, rng={"seed": 1},
                                    output={"prefix": "b"})))
    return str(path)


@pytest.mark.parametrize("estimate, stderr, final_ok", [
    (0.01, 0.001, False),  # on the 0.01 floor: the rule is strict
    (math.nextafter(0.01, 0.0), 0.001, True),
    (0.375, 0.125, False),  # on 3 sigma above the floor: strict too
    (math.nextafter(0.375, 0.0), 0.125, True),
])
def test_scaling_final_rule_boundary(tmp_path, monkeypatch, estimate, stderr,
                                     final_ok):
    def report(measure, profile, times, phis, eps, n, rng, threads):
        return ScalingReport(
            eps_schedule=(1.0,), estimates=(estimate,), stderrs=(stderr,),
            target=0.0, n_samples=n, times=tuple(times), death_rate=1.0,
            immigration=1.0, measure_family="poisson", notes=(),
            mu_conditions=measure.mu_conditions())

    monkeypatch.setattr(cli, "run_scaling_experiment", report)
    path = _config_file(tmp_path, {
        "domain": {"mode": "torus", "dim": 1, "side": 10.0},
        "profile": {"kind": "gaussian", "mass": 1.0, "std": 1.0},
        "start": {"kind": "poisson", "intensity": 1.0},
        "dynamics": {"times": [0.5]},
        "observables": [{"family": "box", "level": -0.5, "lo": [4.0],
                         "hi": [6.0]}],
        "scaling": {"eps": [1.0]}, "samples": 2})
    code = cli.main(["scaling", "--config", path, "--assert",
                     "--out", str(tmp_path)])
    rep = json.loads((tmp_path / "b_scaling.json").read_text())["report"]
    assert rep["final_within_tolerance"] is final_ok
    assert code == (0 if final_ok else 4)


@pytest.mark.parametrize("estimate, within", [
    (0.875, True),  # bound + 3 stderr exactly
    (math.nextafter(0.875, 1.0), False),
    (0.0, True),  # one-sided: far below the bound is no violation
])
def test_exit_probe_rule_is_one_sided(tmp_path, monkeypatch, estimate,
                                      within):
    monkeypatch.setattr(cli, "exit_probability",
                        lambda *args: (estimate, 0.125, 0.5))
    path = _config_file(tmp_path, {
        "domain": {"mode": "fullspace", "window": [[-1.0], [1.0]]},
        "kernel": {"variant": "brownian"},
        "summability": {"alpha": 1.0, "m": 1},
        "exit": {"radius": 1.0, "epsilon": 0.5, "paths": 2}})
    code = cli.main(["check-summability", "--config", path, "--assert",
                     "--out", str(tmp_path)])
    rep = json.loads((tmp_path / "b_summability.json").read_text())["report"]
    assert rep["converges"] is True
    assert rep["exit_check"]["within_bound"] is within
    assert code == (0 if within else 4)


def test_poisson_laplace_matches_identity():
    rep = poisson_laplace_experiment(D1, 2.0, BOX, 20000, RngStream(1))
    assert rep.within_3sigma or rep.sigma_distance < 3.5
    assert rep.analytic == pytest.approx(
        math.exp(2.0 * (math.exp(-0.5) - 1.0) * 2.0), abs=1e-9
    )


def test_poisson_laplace_thread_invariance():
    a = poisson_laplace_experiment(D1, 2.0, BOX, 50000, RngStream(2), threads=1)
    b = poisson_laplace_experiment(D1, 2.0, BOX, 50000, RngStream(2), threads=6)
    assert a.estimate == b.estimate
    assert a.stderr == b.stderr


def test_poisson_laplace_peak_memory_does_not_grow_with_the_window():
    # 400 expected points per replica on a 20 x 20 window: the chunk driver
    # cuts the 20 000 replicas into chunks of about 2**18 points, so the
    # traced peak is a few MiB.  One 20 000-replica chunk held 8e6 points
    # with their replica ids and traced about 250 MiB.
    import tracemalloc

    domain = Domain.fullspace((0.0, 0.0), (20.0, 20.0))
    phi = TestFunction.box(-0.5, (8.0, 8.0), (12.0, 12.0))
    tracemalloc.start()
    try:
        rep = poisson_laplace_experiment(domain, 1.0, phi, 20000,
                                         RngStream(30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_samples == 20000
    assert peak <= 32 * 2 ** 20, "%.1f MiB" % (peak / 2 ** 20)


def test_glauber_births_count_in_the_chunk_budget():
    # an empty start gains about 400 births per replica on a 20 x 20
    # window: they size the chunks with the start's points, so the traced
    # peak is a few MiB.  Sized by the empty start alone, all 20 000
    # replicas ran in one chunk and traced about 550 MiB.
    import tracemalloc

    domain = Domain.fullspace((0.0, 0.0), (20.0, 20.0))
    empty = Configuration(np.empty((0, 2)), domain)
    phi = TestFunction.box(-0.5, (0.0, 0.0), (20.0, 20.0))
    tracemalloc.start()
    try:
        rep = glauber_joint_experiment(empty, 1.0, 1.0, (1.0,), (phi,),
                                       20000, RngStream(31))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_samples == 20000
    assert peak <= 32 * 2 ** 20, "%.1f MiB" % (peak / 2 ** 20)


@pytest.mark.parametrize("n", [-3, 0, 1])
def test_budgets_below_two_replicas_are_refused(n):
    cfg = Configuration(np.array([[0.0]]), D1)
    with pytest.raises(ValueError, match="replicas"):
        poisson_laplace_experiment(D1, 2.0, BOX, n, RngStream(1))
    with pytest.raises(ValueError, match="replicas"):
        markov_laplace_experiment(BrownianKernel(D1), cfg, BOX, 0.5, n,
                                  RngStream(1))
    with pytest.raises(ValueError, match="replicas"):
        poisson_correlation_experiment(D1, 1.0, 2, 2, n, RngStream(1))


def test_markov_laplace_brownian():
    cfg = Configuration(np.array([[0.0], [0.8]]), D1)
    rep = markov_laplace_experiment(BrownianKernel(D1), cfg, BOX, 0.5, 30000, RngStream(3))
    assert rep.sigma_distance <= 3.5


def test_markov_laplace_kawasaki():
    kernel = KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.7))
    cfg = Configuration(np.array([[0.0], [0.8]]), D1)
    rep = markov_laplace_experiment(kernel, cfg, BOX, 0.5, 30000, RngStream(4))
    assert rep.sigma_distance <= 3.5


def test_markov_rejects_submarkov_kernel():
    cfg = Configuration(np.array([[0.0]]), D1)
    with pytest.raises(ValueError):
        markov_laplace_experiment(DeathKernel(D1, 1.0), cfg, BOX, 0.5, 100, RngStream(5))


def test_submarkov_laplace_death_kernel():
    kernel = DeathKernel(D1, 1.0)
    cfg = Configuration(np.array([[0.0]]), D1)
    rep = submarkov_laplace_experiment(kernel, cfg, BOX, math.log(2.0), 1.0,
                                       30000, RngStream(6))
    assert rep.analytic == pytest.approx(0.45489799478447507, abs=1e-9)
    assert rep.sigma_distance <= 3.5


def test_submarkov_laplace_killed_brownian_on_a_small_torus():
    # the padded immigrant box (tail radius 5.7) is wider than the cell:
    # it is cut to one period, so that every point of the cell gets its
    # rain once after the births wrap (the whole padded box ran at 128
    # sigma, the unpadded support box at 14)
    domain = Domain.torus(1, 4.0)
    cfg = Configuration(np.array([[2.0]]), domain)
    phi = TestFunction.box(-0.5, (1.0,), (3.0,))
    rep = submarkov_laplace_experiment(KilledBrownianKernel(domain, 1.0),
                                       cfg, phi, 1.0, 1.0, 4000, RngStream(1))
    assert rep.within_3sigma, rep.to_dict()


def test_glauber_joint_two_time_fixed_start():
    cfg = Configuration(np.array([[0.0], [0.5]]), D1)
    phi2 = TestFunction.box(-0.6, (-0.5,), (1.5,))
    rep = glauber_joint_experiment(cfg, 1.0, 1.0, (0.5, 1.0), (BOX, phi2),
                                   30000, RngStream(7))
    assert rep.sigma_distance <= 3.5


def test_glauber_joint_poisson_start_stationary():
    start = PoissonMeasure(Domain.fullspace(*support_box([BOX])), 1.5)
    rep = glauber_joint_experiment(start, 1.0, 1.5, (0.7,), (BOX,), 30000, RngStream(8))
    assert rep.analytic == pytest.approx(math.exp(1.5 * BOX.integral()), abs=1e-9)
    assert rep.sigma_distance <= 3.5


def test_glauber_thread_invariance():
    cfg = Configuration(np.array([[0.0], [0.5]]), D1)
    a = glauber_joint_experiment(cfg, 1.0, 1.0, (0.5,), (BOX,), 50000,
                                 RngStream(9), threads=1)
    b = glauber_joint_experiment(cfg, 1.0, 1.0, (0.5,), (BOX,), 50000,
                                 RngStream(9), threads=5)
    assert a.estimate == b.estimate


def test_poisson_correlation_grid():
    grid, expected = poisson_correlation_experiment(D1, 2.0, 1, 5, 8000, RngStream(10))
    assert expected == pytest.approx(2.0)
    sig = np.abs(grid.estimates - expected) / np.maximum(grid.stderrs, 1e-12)
    assert np.max(sig) <= 3.5


@pytest.mark.parametrize("domain", [
    Domain.fullspace((-1.0,), (1.0,)),
    Domain.fullspace((0.0, 0.0), (1.0, 1.5)),
], ids=["1d", "2d"])
def test_poisson_correlation_matches_per_configuration_estimate(domain):
    # same draws as the experiment's chunks, split into one Configuration
    # per replica and estimated through the list-of-samples entry point
    z, n, rng = 1.25, CHUNK + 1, RngStream(13)
    sizes = chunk_sizes(n, CHUNK)
    assert len(sizes) == 2
    samples = []
    for c_idx, m in enumerate(sizes):
        pts, ids = PoissonMeasure(domain, z).sample_batch(
            m, rng.child(c_idx).generator())
        split = np.cumsum(np.bincount(ids, minlength=m))[:-1]
        samples.extend(Configuration(p, domain) for p in np.split(pts, split))
    assert len(samples) == n
    for order in (1, 2, 3):
        grid, expected = poisson_correlation_experiment(
            domain, z, order, 2, n, rng, threads=2)
        ref = estimate_correlations(samples, order, bins_per_axis=2)
        assert expected == z ** order
        assert grid.n_samples == ref.n_samples == n
        assert grid.index_tuples == ref.index_tuples
        assert np.array_equal(grid.estimates, ref.estimates)
        assert np.array_equal(grid.stderrs, ref.stderrs)


class _Sentinel(Exception):
    """Raised by _NoDraws; not a ValueError."""


class _NoDraws:
    """RngStream stand-in that refuses to hand out any stream."""

    def child(self, *indices):
        raise _Sentinel("a stream was requested")

    def generator(self):
        raise _Sentinel("a generator was requested")


@pytest.mark.parametrize("order, bins, message", (
    (5, 3, "order must be in 1..4"),
    (3, 60, "bin grid too fine"),
))
def test_poisson_correlation_refuses_before_sampling(order, bins, message):
    with pytest.raises(ValueError, match=message):
        poisson_correlation_experiment(D1, 1.0, order, bins, 400_000, _NoDraws())


def test_poisson_correlation_order2_thread_invariance():
    ga, ea = poisson_correlation_experiment(D1, 1.5, 2, 3, 30000, RngStream(11), threads=1)
    gb, eb = poisson_correlation_experiment(D1, 1.5, 2, 3, 30000, RngStream(11), threads=4)
    assert np.array_equal(ga.estimates, gb.estimates)
    assert ea == eb


def test_json_report_roundtrip():
    import json

    rep = poisson_laplace_experiment(D1, 1.0, BOX, 500, RngStream(12))
    data = json.loads(rep.to_json())
    assert data["kind"] == "poisson-laplace"
    assert data["n_samples"] == 500
