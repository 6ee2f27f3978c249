"""Command-line experiment harness.

Each subcommand reads one JSON config file, runs the corresponding library
operation, and writes JSON reports and CSV tables into the output
directory.  The config schema and every output field are documented in
docs/config.md.  Runs are deterministic: identical config and seed give
byte-identical output files, independent of --threads, because every file
carries only (seed, config, version) provenance and all Monte Carlo work
derives per-chunk random streams from the seed.

Exit codes: 0 success, 2 config error, 3 numerical nonconvergence,
4 acceptance-check failure under --assert.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .dynamics import (GlauberDynamics, event_stream, evolve_snapshot,
                       evolve_with_immigration, glauber_evolve)
from .experiments import (glauber_joint_experiment, markov_laplace_experiment,
                          poisson_correlation_experiment,
                          poisson_laplace_experiment,
                          submarkov_laplace_experiment)
from .functions import TestFunction, support_box
from .kernels import (BrownianKernel, BumpProfile, DeathKernel,
                      GaussianProfile, KawasakiKernel, KilledBrownianKernel,
                      check_summability, exit_probability,
                      kawasaki_polynomial_certificate)
from .observables import CylinderFunction, generator_fd_check
from .pointproc import (SIGMAS, Comparison, Configuration, PoissonMeasure,
                        RngStream, theta_check)
from .scaling import (NeymanScottMeasure, run_scaling_experiment,
                      verify_mu_conditions)
from .space import Domain


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


def _jsonable(obj):
    # numpy scalars and arrays in report payloads
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError("not JSON serializable: %r" % type(obj))


def _check_keys(block, allowed, path):
    if not isinstance(block, dict):
        raise ConfigError("'%s' must be an object" % path)
    for key in block:
        if key not in allowed:
            raise ConfigError("unknown key '%s.%s'" % (path, key))


def _get(block, key, path, required=True, default=None):
    if key not in block:
        if required:
            raise ConfigError("missing key '%s.%s'" % (path, key))
        return default
    return block[key]


def _num(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("'%s' must be a number" % path)
    return float(value)


def _int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("'%s' must be an integer" % path)
    return int(value)


def _vec(value, path):
    if not isinstance(value, list) or not value or \
            any(isinstance(v, bool) or not isinstance(v, (int, float))
                for v in value):
        raise ConfigError("'%s' must be a nonempty number list" % path)
    return [float(v) for v in value]


def build_domain(block):
    _check_keys(block, {"mode", "dim", "side", "window"}, "domain")
    mode = _get(block, "mode", "domain")
    if mode == "torus":
        dim = _int(_get(block, "dim", "domain"), "domain.dim")
        side = _num(_get(block, "side", "domain"), "domain.side")
        return Domain.torus(dim, side)
    if mode == "fullspace":
        window = _get(block, "window", "domain")
        if not (isinstance(window, list) and len(window) == 2):
            raise ConfigError("'domain.window' must be [lower, upper]")
        lo = _vec(window[0], "domain.window[0]")
        hi = _vec(window[1], "domain.window[1]")
        return Domain.fullspace(lo, hi)
    raise ConfigError("'domain.mode' must be 'torus' or 'fullspace'")


def build_profile(block, dim, path):
    _check_keys(block, {"kind", "mass", "std", "radius"}, path)
    kind = _get(block, "kind", path)
    mass = _num(_get(block, "mass", path), path + ".mass")
    if kind == "gaussian":
        std = _num(_get(block, "std", path), path + ".std")
        return GaussianProfile(dim, mass, std)
    if kind == "bump":
        radius = _num(_get(block, "radius", path), path + ".radius")
        return BumpProfile(dim, mass, radius)
    raise ConfigError("'%s.kind' must be 'gaussian' or 'bump'" % path)


def build_kernel(block, domain):
    _check_keys(block, {"variant", "rate", "profile"}, "kernel")
    variant = _get(block, "variant", "kernel")
    if variant == "brownian":
        return BrownianKernel(domain)
    if variant == "death":
        return DeathKernel(domain, _num(_get(block, "rate", "kernel"),
                                        "kernel.rate"))
    if variant == "killed_brownian":
        return KilledBrownianKernel(domain, _num(_get(block, "rate", "kernel"),
                                                 "kernel.rate"))
    if variant == "kawasaki":
        profile = build_profile(_get(block, "profile", "kernel"), domain.dim,
                                "kernel.profile")
        return KawasakiKernel(domain, profile)
    raise ConfigError("'kernel.variant' must be one of brownian, death, "
                      "kawasaki, killed_brownian")


def build_phi(block, dim, path):
    _check_keys(block, {"family", "level", "lo", "hi", "center", "radius"},
                path)
    family = _get(block, "family", path)
    level = _num(_get(block, "level", path), path + ".level")
    if family in ("indicator", "box"):
        lo = _vec(_get(block, "lo", path), path + ".lo")
        hi = _vec(_get(block, "hi", path), path + ".hi")
        if len(lo) != dim or len(hi) != dim:
            raise ConfigError("'%s' bounds must have length %d" % (path, dim))
        return TestFunction.box(level, lo, hi)
    if family == "bump":
        center = _vec(_get(block, "center", path), path + ".center")
        if len(center) != dim:
            raise ConfigError("'%s.center' must have length %d" % (path, dim))
        radius = _num(_get(block, "radius", path), path + ".radius")
        return TestFunction.bump(level, center, radius)
    raise ConfigError("'%s.family' must be 'indicator' or 'bump'" % path)


def build_phis(cfg, dim):
    blocks = _get(cfg, "observables", "config")
    if not isinstance(blocks, list) or not blocks:
        raise ConfigError("'observables' must be a nonempty list")
    return [build_phi(b, dim, "observables[%d]" % i)
            for i, b in enumerate(blocks)]


def build_start(block, domain, config_dir):
    """The starting measure: a Configuration, PoissonMeasure or
    NeymanScottMeasure."""
    _check_keys(block, {"kind", "points", "csv", "intensity",
                        "parent_intensity", "second_prob", "cluster_std"},
                "start")
    kind = _get(block, "kind", "start")
    if kind == "fixed":
        if "csv" in block:
            path = os.path.join(config_dir, block["csv"])
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    config = Configuration.from_csv(fh.read())
            except OSError as exc:
                raise ConfigError("'start.csv': %s" % exc)
            if config.domain != domain:
                raise ConfigError("'start.csv' domain differs from config "
                                  "domain")
            return config
        points = _get(block, "points", "start")
        if not isinstance(points, list):
            raise ConfigError("'start.points' must be a list of points")
        return Configuration(np.asarray(points, dtype=float), domain)
    if kind == "poisson":
        intensity = _num(_get(block, "intensity", "start"),
                         "start.intensity")
        if not intensity > 0:
            raise ConfigError("'start.intensity' must be > 0")
        return PoissonMeasure(domain, intensity)
    if kind == "neyman-scott":
        return NeymanScottMeasure(
            domain,
            _num(_get(block, "parent_intensity", "start"),
                 "start.parent_intensity"),
            _num(_get(block, "second_prob", "start"), "start.second_prob"),
            _num(_get(block, "cluster_std", "start"), "start.cluster_std"))
    raise ConfigError("'start.kind' must be fixed, poisson, or neyman-scott")


def _times(block, path):
    times = _vec(_get(block, "times", path), path + ".times")
    if any(t <= 0 for t in times) or any(b <= a for a, b in
                                         zip(times, times[1:])):
        raise ConfigError("'%s.times' must be strictly increasing and > 0"
                          % path)
    return times


def _samples(cfg):
    n = _int(_get(cfg, "samples", "config"), "samples")
    if n < 2:
        raise ConfigError("'samples' must be >= 2")
    return n


class _Run:
    """Per-invocation context: seed, streams, output writing."""

    def __init__(self, command, cfg, seed, threads, out_dir, do_assert,
                 config_dir):
        self.command = command
        self.cfg = cfg
        self.seed = seed
        self.threads = threads
        self.out_dir = out_dir
        self.do_assert = do_assert
        self.config_dir = config_dir
        self.rng = RngStream(seed, 0)
        out = cfg.get("output", {})
        _check_keys(out, {"prefix", "formats"}, "output")
        self.prefix = out.get("prefix", command.replace("-", "_"))
        formats = out.get("formats", ["json", "csv", "jsonl"])
        if not isinstance(formats, list) or \
                any(f not in ("json", "csv", "jsonl") for f in formats):
            raise ConfigError("'output.formats' entries must be json, csv, "
                              "or jsonl")
        self.formats = set(formats)

    def provenance(self):
        return {"tool": "freedyn", "version": __version__,
                "command": self.command, "seed": self.seed,
                "config": self.cfg}

    def csv_header(self):
        compact = json.dumps(self.cfg, sort_keys=True,
                             separators=(",", ":"))
        return ("# freedyn %s %s seed=%d\n# config: %s\n"
                % (__version__, self.command, self.seed, compact))

    def path(self, suffix):
        return os.path.join(self.out_dir, "%s_%s" % (self.prefix, suffix))

    def write_json(self, suffix, payload):
        if "json" not in self.formats:
            return
        body = json.dumps({"provenance": self.provenance(),
                           "report": payload}, indent=2, default=_jsonable)
        with open(self.path(suffix), "w", encoding="utf-8") as fh:
            fh.write(body + "\n")

    def write_csv(self, suffix, body):
        if "csv" not in self.formats:
            return
        with open(self.path(suffix), "w", encoding="utf-8") as fh:
            fh.write(self.csv_header())
            fh.write(body)

    def write_jsonl(self, suffix, text):
        if "jsonl" not in self.formats:
            return
        with open(self.path(suffix), "w", encoding="utf-8") as fh:
            fh.write(text)

    def verdict(self, passed):
        return 0 if (passed or not self.do_assert) else 4


def cmd_sample_poisson(run):
    cfg = run.cfg
    _check_keys(cfg, {"domain", "start", "observables", "samples", "rng",
                      "output"}, "config")
    domain = build_domain(_get(cfg, "domain", "config"))
    start = build_start(_get(cfg, "start", "config"), domain, run.config_dir)
    if not isinstance(start, PoissonMeasure):
        raise ConfigError("sample-poisson needs start.kind = 'poisson'")
    phis = build_phis(cfg, domain.dim)
    n = _samples(cfg)

    config = start.sample(run.rng.child(0))
    run.write_csv("configuration.csv", config.to_csv())

    reports = []
    for i, phi in enumerate(phis):
        rep = poisson_laplace_experiment(domain, start.intensity, phi, n,
                                         run.rng.child(1, i),
                                         threads=run.threads)
        reports.append(rep.to_dict())
    passed = all(r["within_3sigma"] for r in reports)
    run.write_json("laplace.json", {"points": len(config),
                                    "checks": reports,
                                    "all_within_3sigma": passed})
    return run.verdict(passed)


def _snapshot_csv(times, snapshots, dim):
    lines = ["time," + ",".join("x%d" % j for j in range(dim))]
    for t, snap in zip(times, snapshots):
        for row in snap.points:
            lines.append("%r," % float(t) + ",".join("%r" % float(v)
                                                     for v in row))
    return "\n".join(lines) + "\n"


def cmd_evolve(run):
    cfg = run.cfg
    _check_keys(cfg, {"domain", "kernel", "dynamics", "start", "rng",
                      "output"}, "config")
    domain = build_domain(_get(cfg, "domain", "config"))
    dyn = _get(cfg, "dynamics", "config")
    _check_keys(dyn, {"times", "mode", "z", "death_rate", "events"},
                "dynamics")
    times = _times(dyn, "dynamics")
    mode = dyn.get("mode", "conservative")
    config = build_start(_get(cfg, "start", "config"), domain,
                         run.config_dir).sample(run.rng.child(0))

    if dyn.get("events", False):
        if mode == "glauber":
            model = GlauberDynamics(_num(_get(dyn, "death_rate", "dynamics"),
                                         "dynamics.death_rate"),
                                    _num(_get(dyn, "z", "dynamics"),
                                         "dynamics.z"))
        else:
            model = build_kernel(_get(cfg, "kernel", "config"), domain)
        stream = event_stream(config, model, times[-1], run.rng.child(1))
        run.write_jsonl("events.jsonl", stream.to_jsonl())
        snaps = [stream.snapshot(config, t) for t in times]
    elif mode == "glauber":
        a = _num(_get(dyn, "death_rate", "dynamics"), "dynamics.death_rate")
        z = _num(_get(dyn, "z", "dynamics"), "dynamics.z")
        snaps = glauber_evolve(config, a, z, times, run.rng.child(1))
    elif mode == "conservative":
        kernel = build_kernel(_get(cfg, "kernel", "config"), domain)
        snaps = evolve_snapshot(config, kernel, times, run.rng.child(1))
    elif mode == "submarkov_immigration":
        kernel = build_kernel(_get(cfg, "kernel", "config"), domain)
        z = _num(_get(dyn, "z", "dynamics"), "dynamics.z")
        snaps = evolve_with_immigration(config, kernel, z, times,
                                        run.rng.child(1))
    else:
        raise ConfigError("'dynamics.mode' must be conservative, "
                          "submarkov_immigration, or glauber")
    run.write_csv("snapshots.csv", _snapshot_csv(times, snaps, domain.dim))
    run.write_json("evolve.json", {
        "times": times, "mode": mode, "initial_points": len(config),
        "snapshot_points": [len(s) for s in snaps]})
    return 0


def cmd_laplace(run):
    cfg = run.cfg
    _check_keys(cfg, {"domain", "kernel", "dynamics", "start", "observables",
                      "samples", "rng", "output"}, "config")
    domain = build_domain(_get(cfg, "domain", "config"))
    dyn = _get(cfg, "dynamics", "config")
    _check_keys(dyn, {"times", "mode", "z", "death_rate", "birth_pad"},
                "dynamics")
    times = _times(dyn, "dynamics")
    mode = dyn.get("mode", "conservative")
    phis = build_phis(cfg, domain.dim)
    if len(phis) != len(times):
        raise ConfigError("need one observable per time")
    n = _samples(cfg)
    start = build_start(_get(cfg, "start", "config"), domain, run.config_dir)

    if mode == "glauber":
        a = _num(_get(dyn, "death_rate", "dynamics"), "dynamics.death_rate")
        z = _num(_get(dyn, "z", "dynamics"), "dynamics.z")
        if isinstance(start, PoissonMeasure) or (
                isinstance(start, NeymanScottMeasure) and not domain.is_torus):
            # particles never move under Glauber dynamics, so only the
            # start's points on the observables' support box matter; the
            # oracle integrates over all space, whatever the window
            start = dataclasses.replace(
                start, domain=Domain.fullspace(*support_box(phis)))
        report = glauber_joint_experiment(start, a, z, times, phis, n,
                                          run.rng.child(2),
                                          threads=run.threads)
    else:
        if not isinstance(start, Configuration):
            raise ConfigError("kernel laplace checks need a fixed start")
        if len(times) != 1:
            raise ConfigError("kernel laplace checks take a single time")
        kernel = build_kernel(_get(cfg, "kernel", "config"), domain)
        if mode == "conservative":
            report = markov_laplace_experiment(kernel, start, phis[0],
                                               times[0], n, run.rng.child(2),
                                               threads=run.threads)
        elif mode == "submarkov_immigration":
            z = _num(_get(dyn, "z", "dynamics"), "dynamics.z")
            pad = _num(dyn.get("birth_pad", 0.0), "dynamics.birth_pad")
            report = submarkov_laplace_experiment(kernel, start, phis[0],
                                                  times[0], z, n,
                                                  run.rng.child(2),
                                                  threads=run.threads,
                                                  birth_pad=pad)
        else:
            raise ConfigError("'dynamics.mode' must be conservative, "
                              "submarkov_immigration, or glauber")

    run.write_json("laplace.json", report.to_dict())
    row = report.to_dict()
    cols = ["kind", "estimate", "stderr", "analytic", "abs_error",
            "sigma_distance", "n_samples"]
    body = ",".join(cols) + "\n" + ",".join(
        "%r" % row[c] if c != "kind" else row[c] for c in cols) + "\n"
    run.write_csv("laplace.csv", body)
    return run.verdict(report.within_3sigma)


def cmd_correlation(run):
    cfg = run.cfg
    _check_keys(cfg, {"domain", "start", "correlation", "samples", "rng",
                      "output"}, "config")
    domain = build_domain(_get(cfg, "domain", "config"))
    start = build_start(_get(cfg, "start", "config"), domain, run.config_dir)
    if not isinstance(start, PoissonMeasure):
        raise ConfigError("correlation experiment needs start.kind = "
                          "'poisson'")
    corr = _get(cfg, "correlation", "config")
    _check_keys(corr, {"order", "bins"}, "correlation")
    order = _int(_get(corr, "order", "correlation"), "correlation.order")
    bins = _int(_get(corr, "bins", "correlation"), "correlation.bins")
    n = _samples(cfg)

    grid, expected = poisson_correlation_experiment(
        domain, start.intensity, order, bins, n, run.rng.child(3),
        threads=run.threads)
    cells = [Comparison(float(e), float(s), expected)
             for e, s in zip(grid.estimates, grid.stderrs)]
    worst = max(c.sigma_distance for c in cells)
    passed = all(c.within() for c in cells)
    run.write_csv("correlation.csv", grid.to_csv())
    run.write_json("correlation.json", {
        "order": order, "bins": bins, "expected_constant": expected,
        "cells": len(grid.estimates), "max_sigma_distance": worst,
        "within_3sigma": passed, "n_samples": n})
    return run.verdict(passed)


def cmd_check_theta(run):
    cfg = run.cfg
    _check_keys(cfg, {"domain", "start", "theta", "rng", "output"}, "config")
    domain = build_domain(_get(cfg, "domain", "config"))
    config = build_start(_get(cfg, "start", "config"), domain,
                         run.config_dir).sample(run.rng.child(0))
    theta = _get(cfg, "theta", "config")
    _check_keys(theta, {"alpha", "r_max", "center"}, "theta")
    alpha = _num(_get(theta, "alpha", "theta"), "theta.alpha")
    r_max = _int(_get(theta, "r_max", "theta"), "theta.r_max")
    center = theta.get("center")
    if center is not None:
        center = _vec(center, "theta.center")
    report = theta_check(config, alpha, r_max, center=center)
    run.write_json("theta.json", report.to_dict())
    return 0


def cmd_check_summability(run):
    cfg = run.cfg
    _check_keys(cfg, {"domain", "kernel", "summability", "exit", "rng",
                      "output"}, "config")
    domain = build_domain(_get(cfg, "domain", "config"))
    kernel = build_kernel(_get(cfg, "kernel", "config"), domain)
    block = _get(cfg, "summability", "config")
    _check_keys(block, {"alpha", "m", "epsilon", "delta", "target_tol",
                        "certificate", "n_direct"}, "summability")
    alpha = _num(_get(block, "alpha", "summability"), "summability.alpha")
    m = _num(_get(block, "m", "summability"), "summability.m")
    epsilon = _num(block.get("epsilon", 1.0), "summability.epsilon")
    delta = _num(block.get("delta", 1.0), "summability.delta")
    target = _num(block.get("target_tol", 1e-10), "summability.target_tol")
    certificate = block.get("certificate", "direct")

    if certificate == "polynomial":
        if not isinstance(kernel, KawasakiKernel):
            raise ConfigError("polynomial certificate applies to kawasaki "
                              "kernels")
        report = kawasaki_polynomial_certificate(kernel.profile, alpha, m,
                                                 epsilon, delta)
    elif certificate == "direct":
        n_direct = _int(block.get("n_direct", 4096), "summability.n_direct")
        report = check_summability(kernel, alpha, m, epsilon, delta, target,
                                   n_direct)
    else:
        raise ConfigError("'summability.certificate' must be 'direct' or "
                          "'polynomial'")

    payload = report.to_dict()
    passed = report.converges
    exit_block = cfg.get("exit")
    if exit_block is not None:
        _check_keys(exit_block, {"radius", "epsilon", "paths", "path_step"},
                    "exit")
        radius = _num(_get(exit_block, "radius", "exit"), "exit.radius")
        eps2 = _num(_get(exit_block, "epsilon", "exit"), "exit.epsilon")
        paths = _int(_get(exit_block, "paths", "exit"), "exit.paths")
        step = _num(exit_block.get("path_step", eps2 / 200.0),
                    "exit.path_step")
        center = 0.5 * (domain.lower + domain.upper)
        probe = Comparison(*exit_probability(kernel, center, radius, eps2,
                                             paths, step, run.rng.child(4)))
        # one-sided: only an estimate above the bound counts against it
        within = probe.estimate <= probe.target + SIGMAS * probe.stderr
        payload["exit_check"] = dict(
            radius=radius, epsilon=eps2, paths=paths, path_step=step,
            estimate=probe.estimate, stderr=probe.stderr, bound=probe.target,
            within_bound=within)
        passed = passed and within

    run.write_json("summability.json", payload)
    body = "index,partial_sum\n" + "".join(
        "%d,%r\n" % (i, float(v))
        for i, v in enumerate(report.partial_sums))
    run.write_csv("partial_sums.csv", body)
    return run.verdict(passed)


def cmd_generator_check(run):
    cfg = run.cfg
    _check_keys(cfg, {"domain", "kernel", "dynamics", "cylinder", "fd",
                      "start", "rng", "output"}, "config")
    domain = build_domain(_get(cfg, "domain", "config"))
    start = build_start(_get(cfg, "start", "config"), domain, run.config_dir)
    if not isinstance(start, Configuration):
        raise ConfigError("generator check needs a fixed start")

    dyn = cfg.get("dynamics", {"mode": "kernel"})
    _check_keys(dyn, {"mode", "z", "death_rate"}, "dynamics")
    if dyn.get("mode") == "glauber":
        spec = GlauberDynamics(_num(_get(dyn, "death_rate", "dynamics"),
                                    "dynamics.death_rate"),
                               _num(_get(dyn, "z", "dynamics"), "dynamics.z"))
    else:
        spec = build_kernel(_get(cfg, "kernel", "config"), domain)

    cyl = _get(cfg, "cylinder", "config")
    _check_keys(cyl, {"outer", "observables"}, "cylinder")
    outer = _get(cyl, "outer", "cylinder")
    phi_blocks = _get(cyl, "observables", "cylinder")
    if not isinstance(phi_blocks, list) or not phi_blocks:
        raise ConfigError("'cylinder.observables' must be a nonempty list")
    phis = [build_phi(b, domain.dim, "cylinder.observables[%d]" % i)
            for i, b in enumerate(phi_blocks)]
    if outer == "linear":
        func = CylinderFunction.linear(phis[0])
    elif outer == "exp_pairing":
        func = CylinderFunction.exp_pairing(phis[0])
    elif outer == "product_pairing":
        if len(phis) < 2:
            raise ConfigError("product_pairing needs two observables")
        func = CylinderFunction.product_pairing(phis[0], phis[1])
    else:
        raise ConfigError("'cylinder.outer' must be linear, exp_pairing, or "
                          "product_pairing")

    fd = _get(cfg, "fd", "config")
    _check_keys(fd, {"h", "replicas", "slope"}, "fd")
    h_list = _vec(_get(fd, "h", "fd"), "fd.h")
    replicas = _int(_get(fd, "replicas", "fd"), "fd.replicas")
    slope = _num(fd.get("slope", 10.0), "fd.slope")

    checks = [generator_fd_check(func, start, spec, h, replicas,
                                 run.rng.child(5, i))
              for i, h in enumerate(h_list)]
    within = [c.comparison.within(slope * c.h) for c in checks]
    # the last discrepancy may pass the first by the noise of both only
    first, last = checks[0].comparison, checks[-1].comparison
    shrinks = len(checks) < 2 or \
        last.error <= first.error + SIGMAS * (first.stderr + last.stderr)
    passed = shrinks and all(within)
    run.write_json("generator.json", {
        "outer": outer, "analytic": checks[0].analytic, "slope": slope,
        "checks": [dict(c.to_dict(), within_tolerance=w)
                   for c, w in zip(checks, within)],
        "discrepancy_shrinks": shrinks, "passed": passed})
    return run.verdict(passed)


def cmd_scaling(run):
    cfg = run.cfg
    _check_keys(cfg, {"domain", "profile", "start", "dynamics", "observables",
                      "scaling", "samples", "rng", "output"}, "config")
    domain = build_domain(_get(cfg, "domain", "config"))
    profile = build_profile(_get(cfg, "profile", "config"), domain.dim,
                            "profile")
    measure = build_start(_get(cfg, "start", "config"), domain,
                          run.config_dir)
    if isinstance(measure, Configuration):
        raise ConfigError("scaling needs start.kind 'poisson' or "
                          "'neyman-scott'")
    dyn = _get(cfg, "dynamics", "config")
    _check_keys(dyn, {"times"}, "dynamics")
    times = _times(dyn, "dynamics")
    phis = build_phis(cfg, domain.dim)
    if len(phis) != len(times):
        raise ConfigError("need one observable per time")
    block = _get(cfg, "scaling", "config")
    _check_keys(block, {"eps"}, "scaling")
    eps = _vec(_get(block, "eps", "scaling"), "scaling.eps")
    n = _samples(cfg)

    report = run_scaling_experiment(measure, profile, times, phis, eps, n,
                                    run.rng.child(6), threads=run.threads)
    conditions = verify_mu_conditions(measure)
    final = report.comparisons[-1]
    # strict, with an absolute floor: the target is the epsilon -> 0 limit
    final_ok = final.error < max(SIGMAS * final.stderr, 0.01)
    payload = report.to_dict()
    payload["mu_conditions"] = conditions.to_dict()
    payload["final_within_tolerance"] = final_ok
    run.write_json("scaling.json", payload)
    run.write_csv("scaling.csv", report.to_csv())
    return run.verdict(report.monotone and final_ok)


_COMMANDS = {
    "sample-poisson": cmd_sample_poisson,
    "evolve": cmd_evolve,
    "laplace": cmd_laplace,
    "correlation": cmd_correlation,
    "check-theta": cmd_check_theta,
    "check-summability": cmd_check_summability,
    "generator-check": cmd_generator_check,
    "scaling": cmd_scaling,
}


def _parser():
    parser = argparse.ArgumentParser(
        prog="freedyn",
        description="Reproducible experiments for free particle dynamics on "
                    "continuum configuration spaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help="run the %s experiment" % name)
        p.add_argument("--config", required=True,
                       help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override rng.seed from the config")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (never changes results)")
        p.add_argument("--assert", dest="do_assert", action="store_true",
                       help="exit 4 when the acceptance tolerance is "
                            "violated")
        p.add_argument("--out", default=".",
                       help="output directory (created if missing)")
    return parser


_PARSER = _parser()  # built once: parse_args keeps no state between calls


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(str(exc))
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("invalid JSON at line %d column %d: %s"
                              % (exc.lineno, exc.colno, exc.msg))
        if not isinstance(cfg, dict):
            raise ConfigError("top-level config must be an object")
        if args.seed is not None:
            seed = int(args.seed)
        else:
            rng_block = _get(cfg, "rng", "config")
            _check_keys(rng_block, {"seed"}, "rng")
            seed = _int(_get(rng_block, "seed", "rng"), "rng.seed")
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        os.makedirs(args.out, exist_ok=True)
        run = _Run(args.command, cfg, seed, args.threads, args.out,
                   args.do_assert, os.path.dirname(os.path.abspath(
                       args.config)))
        return _COMMANDS[args.command](run)
    except (ConfigError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print("numerical nonconvergence: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
