"""Replicated Monte Carlo experiments against their closed-form targets.

Every estimator here is a vectorized chunk worker run by the chunk driver
``pointproc.run_chunks`` at its start's mean_points, so its estimate is a
pure function of (seed, budget), independent of the thread count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _march
from .functions import support_box
from .kernels import DeathKernel
from .observables import (analytic_laplace_markov, analytic_laplace_submarkov,
                          bin_counts, check_correlation_grid,
                          correlation_edges, correlations_from_counts,
                          glauber_joint_laplace, poisson_laplace_exponent)
from .pointproc import (Comparison, PoissonMeasure, as_field, check_times,
                        mean_se, pair_into, run_chunks,
                        sample_space_time_batch)


@dataclass(frozen=True)
class ExperimentReport:
    """Monte Carlo estimate next to its analytic target, as a Comparison."""

    kind: str
    estimate: float
    stderr: float
    analytic: float
    n_samples: int
    parameters: dict

    @classmethod
    def of(cls, kind, values, analytic, parameters):
        """The report of replica values: their mean_se against analytic."""
        return cls(kind, *mean_se(values), analytic, len(values), parameters)

    @property
    def comparison(self):
        return Comparison(self.estimate, self.stderr, self.analytic)

    @property
    def abs_error(self):
        return self.comparison.error

    @property
    def sigma_distance(self):
        return self.comparison.sigma_distance

    @property
    def within_3sigma(self):
        return self.comparison.within()

    def to_dict(self):
        return {
            "kind": self.kind,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "analytic": self.analytic,
            "abs_error": self.abs_error,
            "sigma_distance": self.sigma_distance,
            "within_3sigma": self.within_3sigma,
            "n_samples": self.n_samples,
            "parameters": self.parameters,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)


def _product_values(m, steps, phi_list):
    """exp sum_i <log(1 + phi_i), gamma_{t_i}> of each of m replicas, from
    the engine's (points, ids) at each time."""
    acc = np.zeros(m)
    for (pts, ids), phi in zip(steps, phi_list, strict=True):
        pair_into(acc, ids, np.log1p(np.asarray(phi(pts), dtype=float)))
    return np.exp(acc)


def poisson_laplace_experiment(domain, intensity, phi, n_samples, rng,
                               threads=1, tol=1e-10):
    """Empirical E[exp<phi, gamma>] for Poisson gamma vs the closed form."""
    z = float(intensity)
    measure = PoissonMeasure(domain, z)

    def worker(m, gen):
        pts, ids = measure.sample_batch(m, gen)
        acc = np.zeros(m)
        pair_into(acc, ids, np.asarray(phi(pts), dtype=float))
        return np.exp(acc)

    values = run_chunks(worker, n_samples, rng, threads, measure.mean_points)
    return ExperimentReport.of(
        "poisson-laplace", values,
        math.exp(poisson_laplace_exponent(phi, z, tol)),
        {"intensity": z, "domain": domain.to_dict()})


def markov_laplace_experiment(kernel, config, phi, t, n_samples, rng,
                              threads=1, tol=1e-8):
    """Empirical E[prod over points of (1+phi(X_t))] vs prod (1+T_t phi)(x).

    The kernel must conserve particles; every replica moves an independent
    copy of the given configuration for time t.
    """
    if not kernel.conservative:
        raise ValueError("markov identity needs a conservative kernel")
    t = float(t)

    def worker(m, gen):
        steps = _march(*config.sample_batch(m, gen), kernel, (t,), gen)
        return _product_values(m, steps, [phi])

    values = run_chunks(worker, n_samples, rng, threads, config.mean_points)
    return ExperimentReport.of(
        "markov-laplace", values,
        analytic_laplace_markov(kernel, config, phi, t, tol),
        {"variant": kernel.variant, "t": t, "points": len(config)})


def submarkov_laplace_experiment(kernel, config, phi, t, z, n_samples, rng,
                                 threads=1, tol=1e-8, birth_pad=0.0):
    """Sub-Markov evolution with immigration vs the two-factor closed form.

    Initial particles evolve (and possibly die) under the kernel; fresh
    particles arrive as a space-time Poisson stream with rate z times the
    killing rate and evolve from their birth times.  Immigrants are sampled
    on the support box of phi padded by birth_pad; for motionless kernels
    pad 0 is exact, for moving kernels pass a pad large enough that entering
    the support from outside is negligible at the tolerance in play.
    """
    if kernel.conservative:
        raise ValueError("immigration balances killing; kernel must kill")
    t = float(t)
    z = float(z)
    rain = kernel.rate.scaled(z)
    lo, hi = support_box([phi], birth_pad)

    def worker(m, gen):
        rows = config.sample_batch(m, gen)
        births = sample_space_time_batch(m, rain, t, lo, hi, gen)
        steps = _march(*rows, kernel, (t,), gen, births)
        return _product_values(m, steps, [phi])

    values = run_chunks(worker, n_samples, rng, threads, config.mean_points)
    return ExperimentReport.of(
        "submarkov-laplace", values,
        analytic_laplace_submarkov(kernel, config, phi, t, z, tol),
        {"variant": kernel.variant, "t": t, "z": z, "points": len(config)})


def glauber_joint_experiment(start, a_rate, z, times, phi_list, n_samples,
                             rng, threads=1, tol=1e-8):
    """Joint Laplace functional of birth-and-death dynamics vs closed form.

    start is any starting measure, a fixed Configuration included.  The
    death rate must be a constant: each chunk runs the death kernel with
    immigration, births forming a space-time Poisson stream with rate
    z * a.  Particles never move, so only points inside the union of the
    test-function supports can matter: the birth box is clipped to it
    (this is exact, not an approximation), and a Poisson start needs no
    domain beyond it.
    """
    a = float(a_rate)
    z = float(z)
    if not a > 0:
        raise ValueError("death rate must be a positive constant")
    times = check_times(times)
    if len(phi_list) != len(times):
        raise ValueError("need one test function per time")
    rain = as_field(a).scaled(z)
    lo, hi = support_box(phi_list)
    kernel = DeathKernel(start.domain, a)

    def worker(m, gen):
        rows = start.sample_batch(m, gen)
        births = sample_space_time_batch(m, rain, times[-1], lo, hi, gen)
        steps = _march(*rows, kernel, times, gen, births)
        return _product_values(m, steps, phi_list)

    values = run_chunks(worker, n_samples, rng, threads, start.mean_points)
    return ExperimentReport.of(
        "glauber-joint-laplace", values,
        glauber_joint_laplace(start, a, z, times, phi_list, tol),
        {"death_rate": a, "immigration": z, "times": times})


def poisson_correlation_experiment(domain, intensity, order, bins_per_axis,
                                   n_samples, rng, threads=1):
    """Correlation-grid estimate on Poisson samples vs the constant z**n.

    Each chunk bins its flat (points, replica ids) batch into one count row
    per replica; the rows are stacked in chunk order and reduced once.  No
    per-replica Configuration is built, so the cost is linear in n_samples.
    The budget, the order and the grid size are checked before the first
    draw.
    """
    z = float(intensity)
    if int(n_samples) < 2:
        raise ValueError("need at least 2 replicas")
    edges = correlation_edges(domain, bins_per_axis)
    check_correlation_grid(order, int(np.prod([len(e) - 1 for e in edges])))

    measure = PoissonMeasure(domain, z)

    def worker(m, gen):
        pts, ids = measure.sample_batch(m, gen)
        return bin_counts(pts, ids, m, domain, edges)

    counts = run_chunks(worker, n_samples, rng, threads, measure.mean_points)
    return correlations_from_counts(counts, order, edges), z ** order
