"""Acceptance gate: one test per numbered criterion, full sample budgets.

Run with `pytest -v tests/test_acceptance.py` to get one verdict line per
criterion.  Each test also prints the measured quantities behind its
verdict.  Budgets default to 10^5 replicas per estimate; "3 sigma" always
means three Monte Carlo standard errors of the estimate under test.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import ndtr

from freedyn import (
    BrownianKernel,
    Configuration,
    CylinderFunction,
    DeathKernel,
    Domain,
    GaussianProfile,
    GlauberDynamics,
    KawasakiKernel,
    NeymanScottMeasure,
    PoissonMeasure,
    RngStream,
    TestFunction,
    UrsellTable,
    analytic_laplace_markov,
    check_summability,
    correlations_from_ursell,
    exit_probability,
    g_t_series,
    generator_fd_check,
    glauber_joint_experiment,
    kawasaki_polynomial_certificate,
    markov_laplace_experiment,
    poisson_laplace_experiment,
    run_scaling_experiment,
    submarkov_laplace_experiment,
    ursell_from_correlations,
)
from freedyn.functions import support_box

from cli_env import checkout_env

N = 100_000

D1 = Domain.fullspace((-6.0,), (6.0,))
D2 = Domain.fullspace((0.0, 0.0), (3.0, 3.0))
BOX1 = TestFunction.box(-0.5, (-1.0,), (1.0,))

# 50 deterministic starting points spread over [-2, 2]
FIXED50 = Configuration(np.linspace(-2.0, 2.0, 50).reshape(-1, 1), D1)


def report(num, detail):
    print("criterion %02d PASS: %s" % (num, detail))


def test_criterion_01_poisson_laplace_identity():
    t0 = time.monotonic()
    cases = [
        (D1, 2.0, TestFunction.box(-0.5, (-1.0,), (1.0,))),
        (D1, 2.0, TestFunction.bump(-0.8, (0.5,), 1.5)),
        (D1, 0.7, TestFunction.box(-0.2, (-6.0,), (6.0,))),
        (D2, 1.5, TestFunction.box(-0.5, (0.5, 0.5), (2.0, 2.0))),
        (D2, 1.5, TestFunction.bump(-0.9, (1.5, 1.5), 1.0)),
        (D2, 0.5, TestFunction.box(-0.3, (0.0, 1.0), (3.0, 2.5))),
    ]
    worst = 0.0
    for i, (dom, z, phi) in enumerate(cases):
        rep = poisson_laplace_experiment(dom, z, phi, N, RngStream(1001, i))
        assert rep.sigma_distance <= 3.0, rep.to_dict()
        worst = max(worst, rep.sigma_distance)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(1, "6 checks (3 functions x d in {1,2}), worst %.2f sigma, "
              "%.1f s" % (worst, elapsed))


def test_criterion_02_markov_laplace_identity():
    t0 = time.monotonic()
    kernels = {
        "brownian": BrownianKernel(D1),
        "kawasaki": KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.7)),
    }
    worst = 0.0
    for k, (name, kernel) in enumerate(kernels.items()):
        for j, t in enumerate((0.25, 1.0)):
            rep = markov_laplace_experiment(kernel, FIXED50, BOX1, t, N,
                                            RngStream(1002).child(k, j))
            assert rep.sigma_distance <= 3.0, (name, t, rep.to_dict())
            worst = max(worst, rep.sigma_distance)
        coarse = analytic_laplace_markov(kernel, FIXED50, BOX1, 1.0, tol=1e-8)
        fine = analytic_laplace_markov(kernel, FIXED50, BOX1, 1.0, tol=1e-10)
        assert abs(coarse - fine) <= 1e-6, (name, coarse, fine)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(2, "Brownian and Kawasaki, 50 points, t in {0.25, 1}, worst "
              "%.2f sigma, quadrature drift <= 1e-6, %.1f s" % (worst, elapsed))


def test_criterion_03_submarkov_identity():
    kernel = DeathKernel(D1, 1.0)
    cfg = Configuration(np.array([[-1.5], [-0.25], [0.4], [1.1], [2.0]]), D1)
    worst = 0.0
    for j, t in enumerate((0.5, 1.5)):
        rep = submarkov_laplace_experiment(kernel, cfg, BOX1, t, 1.0, N,
                                           RngStream(1003, j))
        assert rep.sigma_distance <= 3.0, (t, rep.to_dict())
        worst = max(worst, rep.sigma_distance)
    report(3, "pure-death kernel with unit immigration, 5 fixed points, "
              "t in {0.5, 1.5}, worst %.2f sigma" % worst)


def test_criterion_04_glauber_joint_law():
    times = (0.5, 1.0)
    phi2 = TestFunction.box(-0.6, (-0.5,), (1.5,))
    cfg = Configuration(np.array([[-0.8], [0.1], [0.9]]), D1)

    fixed = glauber_joint_experiment(cfg, 1.0, 1.0, times, (BOX1, phi2), N,
                                     RngStream(1004, 0))
    assert fixed.sigma_distance <= 3.0, fixed.to_dict()

    on_box = Domain.fullspace(*support_box((BOX1, phi2)))
    poisson = glauber_joint_experiment(PoissonMeasure(on_box, 1.5), 1.0, 1.0,
                                       times, (BOX1, phi2), N,
                                       RngStream(1004, 1))
    assert poisson.sigma_distance <= 3.0, poisson.to_dict()

    # stationarity: Poisson(z) start, birth intensity z, any single time
    z = 1.0
    invariant = math.exp(z * BOX1.integral())
    worst = 0.0
    for j, t in enumerate((0.25, 1.0, 4.0)):
        start = PoissonMeasure(Domain.fullspace(*support_box((BOX1,))), z)
        rep = glauber_joint_experiment(start, 1.0, z, (t,), (BOX1,), N,
                                       RngStream(1004).child(2, j))
        assert rep.analytic == pytest.approx(invariant, abs=1e-10)
        assert rep.sigma_distance <= 3.0, (t, rep.to_dict())
        worst = max(worst, rep.sigma_distance)
    report(4, "two-time joint law %.2f sigma (fixed) / %.2f sigma (Poisson); "
              "stationary value exp(z<phi>) worst %.2f sigma at t in "
              "{0.25, 1, 4}" % (fixed.sigma_distance, poisson.sigma_distance,
                                worst))


def test_criterion_05_kawasaki_kernel_structure():
    lam, t = 1.0, 0.8
    profile = GaussianProfile(1, lam, 0.7)
    kernel = KawasakiKernel(D1, profile)

    # the t-transition keeps an atom at the start point of mass e^{-lam t}
    target = math.exp(-lam * t)
    assert kernel.atom_weight(t) == pytest.approx(target, abs=1e-12)
    gen = RngStream(1005).generator()
    out, _ = kernel.propagate_batch(np.zeros((N, 1)), np.full(N, t), gen)
    frac = float(np.mean(out[:, 0] == 0.0))
    se = math.sqrt(frac * (1.0 - frac) / N)
    assert abs(frac - target) <= 3.0 * se

    series = g_t_series(profile, t, tol=1e-9)
    mean_err = abs(series.mean - (1.0 - math.exp(-lam * t)))
    assert mean_err <= 1e-6

    # composing the half-time image with itself reproduces the full step
    half = kernel.semigroup(BOX1, 0.4, tol=1e-9)
    ck_err = 0.0
    for x in (-0.6, 0.0, 0.7):
        direct = kernel.semigroup(BOX1, t, tol=1e-9)(np.array([[x]]))[0]
        composed = kernel.semigroup(half, 0.4, tol=1e-9)(np.array([[x]]))[0]
        ck_err = max(ck_err, abs(float(direct) - float(composed)))
    assert ck_err <= 1e-6
    report(5, "atom weight %.2f sigma from e^{-t<xi>}; jump-mass mean error "
              "%.1e; Chapman-Kolmogorov error %.1e"
              % (abs(frac - target) / se, mean_err, ck_err))


def test_criterion_06_scaling_limit():
    t0 = time.monotonic()
    torus = Domain.torus(1, 100.0)
    profile = GaussianProfile(1, 1.0, 1.0)
    times = (0.5, 1.0)
    phis = (TestFunction.box(-0.5, (48.0,), (52.0,)),
            TestFunction.box(-0.6, (49.0,), (53.0,)))
    schedule = (1.0, 0.5, 0.25, 0.1)

    starts = [
        ("poisson", PoissonMeasure(torus, 1.0), 0.021192193287894696),
        ("neyman-scott", NeymanScottMeasure(torus, 2.0 / 3.0, 0.5, 0.25),
         0.026119171119854605),
    ]
    lines = []
    for i, (name, measure, frozen_target) in enumerate(starts):
        rep = run_scaling_experiment(measure, profile, times, phis, schedule,
                                     N, RngStream(1006, i))
        assert rep.target == pytest.approx(frozen_target, abs=1e-9)
        assert rep.monotone, rep.to_dict()
        assert rep.distances[0] > rep.distances[-1]
        final_gate = max(3.0 * rep.stderrs[-1], 0.01)
        assert rep.distances[-1] < final_gate, rep.to_dict()
        lines.append("%s distances %s" % (
            name, ["%.4f" % d for d in rep.distances]))
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    report(6, "; ".join(lines) + "; final < max(3 sigma, 0.01); %.0f s"
              % elapsed)


def test_criterion_07_generator_consistency():
    cfg = Configuration(np.array([[0.0], [2.5]]), D1)
    linear = CylinderFunction.linear(BOX1)
    nonlinear = CylinderFunction.exp_pairing(BOX1)
    specs = {
        "birth-death": GlauberDynamics(1.0, 1.0),
        "jump": KawasakiKernel(D1, GaussianProfile(1, 1.3, 0.7)),
    }
    envelope_slope = 10.0
    worst = 0.0
    for s, (name, spec) in enumerate(specs.items()):
        for f, func in enumerate((linear, nonlinear)):
            checks = []
            for j, h in enumerate((0.01, 0.005)):
                chk = generator_fd_check(func, cfg, spec, h, N,
                                         RngStream(1007).child(s, f, j))
                budget = 3.0 * chk.stderr + envelope_slope * h
                assert abs(chk.discrepancy) <= budget, (name, f, h, chk)
                worst = max(worst, abs(chk.discrepancy) / budget)
                checks.append(chk)
            first, second = checks
            # halving h may leave the gap inside Monte Carlo noise, so the
            # shrink requirement carries both standard errors
            slack = 3.0 * (first.stderr + second.stderr)
            assert abs(second.discrepancy) <= abs(first.discrepancy) + slack
    report(7, "linear and exponential cylinder rates vs birth-death and "
              "jump generators, h in {0.01, 0.005}, worst envelope use "
              "%.0f%%" % (100.0 * worst))


def test_criterion_08_combinatorics_roundtrip():
    gen = RngStream(1008).generator()
    labels = (1, 2, 3, 4, 5, 6)
    # random strictly positive correlation table on all subsets up to n=6
    k = {frozenset(s): float(g) for s, g in _subset_draws(labels, gen)}
    filled = ursell_from_correlations(UrsellTable(labels=labels,
                                                  correlations=dict(k)))
    back = correlations_from_ursell(UrsellTable(labels=labels,
                                                ursell=dict(filled.ursell)))
    err = max(abs(back.correlations[s] - k[s]) for s in k)
    assert err <= 1e-12

    z = 2.0
    poisson = UrsellTable(labels=labels, correlations={
        frozenset(s): z ** len(s) for s, _ in _subset_draws(labels, gen)})
    u = ursell_from_correlations(poisson).ursell
    assert u[frozenset({1})] == z
    high = [abs(u[s]) for s in u if len(s) >= 2]
    assert max(high) == 0.0
    report(8, "roundtrip on random 6-label table, max error %.1e; Poisson "
              "cumulants above order one all exactly zero" % err)


def _subset_draws(labels, gen):
    for mask in range(1, 1 << len(labels)):
        subset = tuple(l for i, l in enumerate(labels) if mask >> i & 1)
        yield subset, 0.25 + gen.random()


def test_criterion_09_summability_and_exit_bounds():
    gauss = check_summability(BrownianKernel(D1), alpha=1.0, m=1,
                              epsilon=0.1, delta=1.0)
    assert gauss.converges
    assert gauss.remainder_bound < 1e-10

    cert = kawasaki_polynomial_certificate(GaussianProfile(1, 1.0, 0.7),
                                           alpha=2.0, m=1)
    assert cert.converges

    margins = []
    for i, (kernel, r, eps) in enumerate((
            (BrownianKernel(D1), 1.0, 0.25),
            (BrownianKernel(D1), 2.0, 0.5),
            (KawasakiKernel(D1, GaussianProfile(1, 1.0, 0.5)), 3.0, 0.1))):
        est, se, bound = exit_probability(kernel, np.array([0.0]), r, eps,
                                          20000, eps / 200.0,
                                          RngStream(1009, i))
        assert est <= bound + 3.0 * se, (i, est, se, bound)
        margins.append(bound + 3.0 * se - est)
    report(9, "Gaussian tail sum remainder %.1e; jump certificate converges "
              "(exponent 2 > moment 1); exit estimates below bound with "
              "margins %s" % (gauss.remainder_bound,
                              ["%.3f" % m for m in margins]))


def test_criterion_10_determinism_across_threads(tmp_path):
    lib_reports = []
    for threads in (1, 4):
        rep = poisson_laplace_experiment(D1, 2.0, BOX1, 50_000,
                                         RngStream(1010, 0), threads=threads)
        lib_reports.append((rep.estimate, rep.stderr))
    assert lib_reports[0] == lib_reports[1]

    scaling = []
    for threads in (1, 3):
        rep = run_scaling_experiment(
            PoissonMeasure(Domain.torus(1, 100.0), 1.0),
            GaussianProfile(1, 1.0, 1.0), (0.5,),
            (TestFunction.box(-0.5, (48.0,), (52.0,)),), (1.0, 0.5),
            5000, RngStream(1010, 1), threads=threads)
        scaling.append((rep.estimates, rep.stderrs, rep.distances))
    assert scaling[0] == scaling[1]

    cfg = {
        "domain": {"mode": "fullspace", "window": [[-6.0], [6.0]]},
        "kernel": {"variant": "brownian"},
        "dynamics": {"times": [0.5], "mode": "conservative"},
        "start": {"kind": "fixed", "points": [[0.0], [0.6]]},
        "observables": [
            {"family": "box", "level": -0.5, "lo": [-1.0], "hi": [1.0]}],
        "samples": 4000,
        "rng": {"seed": 77},
        "output": {"prefix": "det", "formats": ["json", "csv"]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    payloads = []
    for threads in ("1", "4"):
        out = tmp_path / ("out%s" % threads)
        res = subprocess.run(
            [sys.executable, "-m", "freedyn.cli", "laplace",
             "--config", str(path), "--threads", threads, "--out", str(out)],
            capture_output=True, text=True, env=checkout_env())
        assert res.returncode == 0, res.stderr
        payloads.append((out / "det_laplace.json").read_bytes()
                        + (out / "det_laplace.csv").read_bytes())
    assert payloads[0] == payloads[1]
    report(10, "library estimates and CLI output bytes identical across "
               "thread counts")
