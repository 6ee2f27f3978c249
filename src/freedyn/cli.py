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
from .pointproc import (SIGMAS, Comparison, Configuration,
                        NeymanScottMeasure, PoissonMeasure, RngStream,
                        check_times, theta_check)
from .scaling import run_scaling_experiment
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


_REQUIRED = object()  # marks a key with no default


def _num(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("'%s' must be a number" % path)
    return float(value)


def _int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("'%s' must be an integer" % path)
    return int(value)


def _bool(value, path):
    if not isinstance(value, bool):
        raise ConfigError("'%s' must be true or false" % path)
    return value


def _text(value, path):
    if not isinstance(value, str) or not value:
        raise ConfigError("'%s' must be a nonempty string" % path)
    return value


def _prefix(value, path):
    # a prefix holding a directory writes outside --out, or fails at the end
    if os.path.basename(_text(value, path)) != value or value in (".", ".."):
        raise ConfigError("'%s' must be a file name, not a path" % path)
    return value


def _vec(value, path):
    if not isinstance(value, list) or not value or \
            any(isinstance(v, bool) or not isinstance(v, (int, float))
                for v in value):
        raise ConfigError("'%s' must be a nonempty number list" % path)
    return [float(v) for v in value]


def _points(value, path, dim):
    if not isinstance(value, list):
        raise ConfigError("'%s' must be a list of points" % path)
    points = [_vec(v, "%s[%d]" % (path, i)) for i, v in enumerate(value)]
    for i, point in enumerate(points):
        if len(point) != dim:
            raise ConfigError("'%s[%d]' must be a point of dim %d"
                              % (path, i, dim))
    return points


def _times(value, path):
    try:
        return check_times(_vec(value, path))
    except ValueError as exc:
        raise ConfigError("'%s': %s" % (path, exc))


class _Block:
    """One config object with its allowed keys.

    Each read names the key once; the key's path from the top of the
    config (``dynamics.z``, ``observables[1].level``) goes into every
    error about it.  A read without a default requires the key.
    """

    def __init__(self, raw, path, allowed):
        if not isinstance(raw, dict):
            raise ConfigError("'%s' must be an object" % path)
        self.raw, self.path = raw, path
        for key in raw:
            if key not in allowed:
                raise ConfigError("unknown key '%s'" % self.key_path(key))

    def key_path(self, key):
        return "%s.%s" % (self.path, key) if self.path else key

    def value(self, key, default=_REQUIRED):
        if key in self.raw:
            return self.raw[key]
        if default is _REQUIRED:
            raise ConfigError("missing key '%s'" % self.key_path(key))
        return default

    def read(self, key, check, default=_REQUIRED):
        """The value checked and converted by check(value, path)."""
        return check(self.value(key, default), self.key_path(key))

    def num(self, key, default=_REQUIRED):
        return self.read(key, _num, default)

    def integer(self, key, default=_REQUIRED):
        return self.read(key, _int, default)

    def vec(self, key, default=_REQUIRED):
        return self.read(key, _vec, default)

    def choice(self, key, allowed, default=_REQUIRED, note=""):
        value = self.value(key, default)
        if value not in allowed:
            raise ConfigError("'%s' must be one of %s%s" % (
                self.key_path(key), ", ".join(allowed), note))
        return value

    def build(self, make, *args):
        """make(*args); the library checks the ranges, and a ValueError it
        raises becomes a ConfigError naming this block."""
        try:
            return make(*args)
        except ValueError as exc:
            raise ConfigError("'%s': %s" % (self.path, exc))

    def block(self, key, allowed, default=_REQUIRED):
        return _Block(self.value(key, default), self.key_path(key), allowed)

    def blocks(self, key, allowed):
        """A nonempty list of objects, each with the allowed keys."""
        raw, path = self.value(key), self.key_path(key)
        if not isinstance(raw, list) or not raw:
            raise ConfigError("'%s' must be a nonempty list" % path)
        return [_Block(b, "%s[%d]" % (path, i), allowed)
                for i, b in enumerate(raw)]


def build_domain(cfg):
    block = cfg.block("domain", {"mode", "dim", "side", "window"})
    if block.choice("mode", ("torus", "fullspace")) == "torus":
        return block.build(Domain.torus, block.integer("dim"),
                           block.num("side"))
    window, path = block.value("window"), block.key_path("window")
    if not (isinstance(window, list) and len(window) == 2):
        raise ConfigError("'%s' must be [lower, upper]" % path)
    return block.build(Domain.fullspace, _vec(window[0], path + "[0]"),
                       _vec(window[1], path + "[1]"))


def build_profile(parent, dim):
    """The jump profile of the parent block's ``profile`` key."""
    block = parent.block("profile", {"kind", "mass", "std", "radius"})
    kind = block.choice("kind", ("gaussian", "bump"))
    mass = block.num("mass")
    if kind == "gaussian":
        return block.build(GaussianProfile, dim, mass, block.num("std"))
    return block.build(BumpProfile, dim, mass, block.num("radius"))


def build_kernel(cfg, domain):
    block = cfg.block("kernel", {"variant", "rate", "profile"})
    variant = block.choice("variant", ("brownian", "death", "kawasaki",
                                       "killed_brownian"))
    if variant == "brownian":
        return BrownianKernel(domain)
    if variant == "death":
        return DeathKernel(domain, block.num("rate"))
    if variant == "killed_brownian":
        return KilledBrownianKernel(domain, block.num("rate"))
    return KawasakiKernel(domain, build_profile(block, domain.dim))


def build_phi(block, dim):
    family = block.choice("family", ("indicator", "box", "bump"))
    level = block.num("level")
    if family == "bump":
        center = block.vec("center")
        if len(center) != dim:
            raise ConfigError("'%s' must have length %d"
                              % (block.key_path("center"), dim))
        return block.build(TestFunction.bump, level, center,
                           block.num("radius"))
    lo, hi = block.vec("lo"), block.vec("hi")
    if len(lo) != dim or len(hi) != dim:
        raise ConfigError("'%s' bounds must have length %d"
                          % (block.path, dim))
    return block.build(TestFunction.box, level, lo, hi)


def build_phis(block, dim):
    """The test functions of the block's ``observables`` list."""
    keys = {"family", "level", "lo", "hi", "center", "radius"}
    return [build_phi(b, dim) for b in block.blocks("observables", keys)]


def build_start(cfg, domain, config_dir):
    """The starting measure: a Configuration, PoissonMeasure or
    NeymanScottMeasure."""
    block = cfg.block("start", {"kind", "points", "csv", "intensity",
                                "parent_intensity", "second_prob",
                                "cluster_std"})
    kind = block.choice("kind", ("fixed", "poisson", "neyman-scott"))
    if kind == "poisson":
        return block.build(PoissonMeasure, domain, block.num("intensity"))
    if kind == "neyman-scott":
        return block.build(NeymanScottMeasure, domain,
                           block.num("parent_intensity"),
                           block.num("second_prob"), block.num("cluster_std"))
    if "csv" not in block.raw:
        points = block.read("points", lambda v, p: _points(v, p, domain.dim))
        return block.build(Configuration, points, domain)
    path = block.key_path("csv")
    try:
        with open(os.path.join(config_dir, block.value("csv")), "r",
                  encoding="utf-8") as fh:
            config = Configuration.from_csv(fh.read())
    except (OSError, ValueError) as exc:
        raise ConfigError("'%s': %s" % (path, exc))
    if config.domain != domain:
        raise ConfigError("'%s' domain differs from config domain" % path)
    return config


_MODES = ("conservative", "submarkov_immigration", "glauber")


def build_dynamics(cfg, dyn, domain, modes=_MODES, note=""):
    """(mode, model, z) of a dynamics block.

    The mode (default conservative) is checked first, against the modes
    the command supports.  glauber's model is GlauberDynamics(death_rate,
    z); the other modes' is the kernel of the config's kernel block.  z is
    dynamics.z, read for submarkov_immigration and glauber only.
    """
    mode = dyn.choice("mode", modes, "conservative", note)
    if mode == "glauber":
        model = GlauberDynamics(dyn.num("death_rate"), dyn.num("z"))
        return mode, model, model.intensity
    kernel = build_kernel(cfg, domain)
    return mode, kernel, (dyn.num("z") if mode == "submarkov_immigration"
                          else None)


def _samples(cfg):
    n = cfg.integer("samples")
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
        out = cfg.block("output", {"prefix", "formats"}, {})
        self.prefix = out.read("prefix", _prefix, command.replace("-", "_"))
        formats = out.value("formats", ["json", "csv", "jsonl"])
        if not isinstance(formats, list) or \
                any(f not in ("json", "csv", "jsonl") for f in formats):
            raise ConfigError("'output.formats' entries must be json, csv, "
                              "or jsonl")
        self.formats = set(formats)

    def provenance(self):
        return {"tool": "freedyn", "version": __version__,
                "command": self.command, "seed": self.seed,
                "config": self.cfg.raw}

    def csv_header(self):
        compact = json.dumps(self.cfg.raw, sort_keys=True,
                             separators=(",", ":"))
        return ("# freedyn %s %s seed=%d\n# config: %s\n"
                % (__version__, self.command, self.seed, compact))

    def write(self, fmt, suffix, text):
        """Write <out>/<prefix>_<suffix> when fmt is among the formats."""
        if fmt in self.formats:
            with open(os.path.join(self.out_dir, "%s_%s" % (
                    self.prefix, suffix)), "w", encoding="utf-8") as fh:
                fh.write(text)

    def write_json(self, suffix, payload):
        self.write("json", suffix, json.dumps(
            {"provenance": self.provenance(), "report": payload}, indent=2,
            default=_jsonable) + "\n")

    def write_csv(self, suffix, body):
        self.write("csv", suffix, self.csv_header() + body)

    def verdict(self, passed):
        return 0 if (passed or not self.do_assert) else 4


def cmd_sample_poisson(run):
    cfg = run.cfg
    domain = build_domain(cfg)
    start = build_start(cfg, domain, run.config_dir)
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
    domain = build_domain(cfg)
    dyn = cfg.block("dynamics", {"times", "mode", "z", "death_rate",
                                 "events"})
    times = dyn.read("times", _times)
    events = dyn.read("events", _bool, False)
    if events:
        mode, model, z = build_dynamics(
            cfg, dyn, domain, ("conservative", "glauber"),
            " when 'dynamics.events' is set: of the modes with births, only "
            "glauber has an event stream")
    else:
        mode, model, z = build_dynamics(cfg, dyn, domain)
    config = build_start(cfg, domain, run.config_dir).sample(
        run.rng.child(0))

    if events:
        stream = event_stream(config, model, times[-1], run.rng.child(1))
        run.write("jsonl", "events.jsonl", stream.to_jsonl())
        snaps = [stream.snapshot(config, t) for t in times]
    elif mode == "glauber":
        snaps = glauber_evolve(config, model.rate, z, times, run.rng.child(1))
    elif mode == "conservative":
        snaps = evolve_snapshot(config, model, times, run.rng.child(1))
    else:
        snaps = evolve_with_immigration(config, model, z, times,
                                        run.rng.child(1))
    run.write_csv("snapshots.csv", _snapshot_csv(times, snaps, domain.dim))
    run.write_json("evolve.json", {
        "times": times, "mode": mode, "initial_points": len(config),
        "snapshot_points": [len(s) for s in snaps]})
    return 0


def cmd_laplace(run):
    cfg = run.cfg
    domain = build_domain(cfg)
    dyn = cfg.block("dynamics", {"times", "mode", "z", "death_rate",
                                 "birth_pad"})
    times = dyn.read("times", _times)
    mode, model, z = build_dynamics(cfg, dyn, domain)
    phis = build_phis(cfg, domain.dim)
    if len(phis) != len(times):
        raise ConfigError("need one observable per time")
    n = _samples(cfg)
    start = build_start(cfg, domain, run.config_dir)

    if mode == "glauber":
        if isinstance(start, PoissonMeasure) or (
                isinstance(start, NeymanScottMeasure) and not domain.is_torus):
            # particles never move under Glauber dynamics, so only the
            # start's points on the observables' support box matter; the
            # oracle integrates over all space, whatever the window
            start = dataclasses.replace(
                start, domain=Domain.fullspace(*support_box(phis)))
        # the bound of a constant rate field is the rate
        report = glauber_joint_experiment(start, model.rate.bound, z, times,
                                          phis, n, run.rng.child(2),
                                          threads=run.threads)
    else:
        if not isinstance(start, Configuration):
            raise ConfigError("kernel laplace checks need a fixed start")
        if len(times) != 1:
            raise ConfigError("kernel laplace checks take a single time")
        if mode == "conservative":
            report = markov_laplace_experiment(model, start, phis[0],
                                               times[0], n, run.rng.child(2),
                                               threads=run.threads)
        else:
            report = submarkov_laplace_experiment(
                model, start, phis[0], times[0], z, n, run.rng.child(2),
                threads=run.threads, birth_pad=dyn.num("birth_pad", 0.0))

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
    domain = build_domain(cfg)
    start = build_start(cfg, domain, run.config_dir)
    if not isinstance(start, PoissonMeasure):
        raise ConfigError("correlation experiment needs start.kind = "
                          "'poisson'")
    corr = cfg.block("correlation", {"order", "bins"})
    order, bins = corr.integer("order"), corr.integer("bins")
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
    domain = build_domain(cfg)
    config = build_start(cfg, domain, run.config_dir).sample(
        run.rng.child(0))
    theta = cfg.block("theta", {"alpha", "r_max", "center"})
    alpha, r_max = theta.num("alpha"), theta.integer("r_max")
    center = theta.value("center", None)
    if center is not None:
        center = theta.vec("center")
    report = theta_check(config, alpha, r_max, center=center)
    run.write_json("theta.json", report.to_dict())
    return 0


def cmd_check_summability(run):
    cfg = run.cfg
    domain = build_domain(cfg)
    kernel = build_kernel(cfg, domain)
    block = cfg.block("summability", {"alpha", "m", "epsilon", "delta",
                                      "target_tol", "certificate",
                                      "n_direct"})
    alpha, m = block.num("alpha"), block.num("m")
    epsilon, delta = block.num("epsilon", 1.0), block.num("delta", 1.0)
    target = block.num("target_tol", 1e-10)
    certificate = block.choice("certificate", ("direct", "polynomial"),
                               "direct")

    if certificate == "polynomial":
        if not isinstance(kernel, KawasakiKernel):
            raise ConfigError("polynomial certificate applies to kawasaki "
                              "kernels")
        report = kawasaki_polynomial_certificate(kernel.profile, alpha, m,
                                                 epsilon, delta)
    else:
        report = check_summability(kernel, alpha, m, epsilon, delta, target,
                                   block.integer("n_direct", 4096))

    payload = report.to_dict()
    passed = report.converges
    if cfg.value("exit", None) is not None:
        probe_cfg = cfg.block("exit", {"radius", "epsilon", "paths",
                                       "path_step"})
        radius, eps2 = probe_cfg.num("radius"), probe_cfg.num("epsilon")
        paths = probe_cfg.integer("paths")
        step = probe_cfg.num("path_step", eps2 / 200.0)
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
    domain = build_domain(cfg)
    start = build_start(cfg, domain, run.config_dir)
    if not isinstance(start, Configuration):
        raise ConfigError("generator check needs a fixed start")
    dyn = cfg.block("dynamics", {"mode", "z", "death_rate"}, {})
    _, spec, _ = build_dynamics(cfg, dyn, domain, ("conservative", "glauber"))

    cyl = cfg.block("cylinder", {"outer", "observables"})
    outer = cyl.choice("outer", ("linear", "exp_pairing", "product_pairing"))
    phis = build_phis(cyl, domain.dim)
    if outer == "linear":
        func = CylinderFunction.linear(phis[0])
    elif outer == "exp_pairing":
        func = CylinderFunction.exp_pairing(phis[0])
    else:
        if len(phis) < 2:
            raise ConfigError("product_pairing needs two observables")
        func = CylinderFunction.product_pairing(phis[0], phis[1])

    fd = cfg.block("fd", {"h", "replicas", "slope"})
    h_list, replicas = fd.vec("h"), fd.integer("replicas")
    slope = fd.num("slope", 10.0)

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
    domain = build_domain(cfg)
    profile = build_profile(cfg, domain.dim)
    measure = build_start(cfg, domain, run.config_dir)
    if isinstance(measure, Configuration):
        raise ConfigError("scaling needs start.kind 'poisson' or "
                          "'neyman-scott'")
    times = cfg.block("dynamics", {"times"}).read("times", _times)
    phis = build_phis(cfg, domain.dim)
    if len(phis) != len(times):
        raise ConfigError("need one observable per time")
    eps = cfg.block("scaling", {"eps"}).vec("eps")
    n = _samples(cfg)

    report = run_scaling_experiment(measure, profile, times, phis, eps, n,
                                    run.rng.child(6), threads=run.threads)
    final = report.comparisons[-1]
    # strict, with an absolute floor: the target is the epsilon -> 0 limit
    final_ok = final.error < max(SIGMAS * final.stderr, 0.01)
    payload = report.to_dict()
    payload["final_within_tolerance"] = final_ok
    run.write_json("scaling.json", payload)
    run.write_csv("scaling.csv", report.to_csv())
    return run.verdict(report.monotone and final_ok)


# each command with the top-level keys it reads besides rng and output
_COMMANDS = {
    "sample-poisson": (cmd_sample_poisson,
                       {"domain", "start", "observables", "samples"}),
    "evolve": (cmd_evolve, {"domain", "kernel", "dynamics", "start"}),
    "laplace": (cmd_laplace, {"domain", "kernel", "dynamics", "start",
                              "observables", "samples"}),
    "correlation": (cmd_correlation,
                    {"domain", "start", "correlation", "samples"}),
    "check-theta": (cmd_check_theta, {"domain", "start", "theta"}),
    "check-summability": (cmd_check_summability,
                          {"domain", "kernel", "summability", "exit"}),
    "generator-check": (cmd_generator_check,
                        {"domain", "kernel", "dynamics", "cylinder", "fd",
                         "start"}),
    "scaling": (cmd_scaling, {"domain", "profile", "start", "dynamics",
                              "observables", "scaling", "samples"}),
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
    command, keys = _COMMANDS[args.command]
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(str(exc))
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("invalid JSON at line %d column %d: %s"
                              % (exc.lineno, exc.colno, exc.msg))
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be an object")
        cfg = _Block(raw, "", keys | {"rng", "output"})
        if args.seed is not None:
            seed = int(args.seed)
        else:
            seed = cfg.block("rng", {"seed"}).integer("seed")
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        os.makedirs(args.out, exist_ok=True)
        run = _Run(args.command, cfg, seed, args.threads, args.out,
                   args.do_assert, os.path.dirname(os.path.abspath(
                       args.config)))
        return command(run)
    except (ConfigError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print("numerical nonconvergence: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
