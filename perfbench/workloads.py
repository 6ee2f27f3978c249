"""The benchmark workloads: inputs from a seed, one timed unit, checks.

Each workload is a set of in-process ``freedyn`` CLI invocations.  It
builds its inputs in ``setup`` (the config files a user writes before the
first call) and runs one unit of work in ``run``.  A unit returns an
``Outcome``: how many Monte Carlo replicas it completed, the verdict of
every check, the time of every invocation (with the calibration loop
times around them, when asked for), and a byte digest of every file it
wrote, so that a traced unit can be compared with an untraced one bit for
bit.

Checks come in two strengths.  ``gate`` checks decide ``correct``: frozen
closed-form values (relative 1e-9), CLI exit codes, and every Monte Carlo
estimate within GATE_SIGMA standard errors of its target.  The tolerances
the program itself uses today (3 sigma, the CLI ``--assert`` verdict) are
recorded alongside as ``sigma3``; they are not gated because a correct
program misses them by chance (a run of the correlation workload compares
45 cells at 3 sigma each and misses on about 8% of seeds), and the
benchmark is run on many seeds.

``freedyn.cli`` is imported inside ``setup`` so that the import is part of
the measured set-up time.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field

GATE_SIGMA = 5.0
FROZEN_REL = 1e-9

# Closed-form values computed at the commit that defined this benchmark,
# checked to a relative 1e-9.  The two scaling targets are the acceptance
# gate's criterion-6 constants.
FROZEN = {
    "scaling.poisson.target": 0.021192193287894696,
    "scaling.neyman-scott.target": 0.026119171119854605,
    "generator.glauber.linear": -0.5,
    "generator.glauber.exp_pairing": -0.0838330967950156,
    "generator.kawasaki.linear": 0.08909254384381841,
    "generator.kawasaki.exp_pairing": 0.07334306396356173,
    "correlation.expected_constant": 1.0,
}


@dataclass
class Check:
    name: str
    gate: bool
    sigma3: bool = True
    detail: str = ""

    def __post_init__(self):
        self.gate, self.sigma3 = bool(self.gate), bool(self.sigma3)


@dataclass
class Outcome:
    replicas: int
    checks: list = field(default_factory=list)
    digest: bytes = b""
    times: list = field(default_factory=list)  # s per invocation
    calibrations: list = field(default_factory=list)  # s, around them


def _frozen(checks, key, value):
    want = FROZEN[key]
    ok = abs(float(value) - want) <= FROZEN_REL * abs(want)
    checks.append(Check("frozen:" + key, ok, ok, "%r vs %r" % (value, want)))


def _read_all(directory):
    if not os.path.isdir(directory):
        return {}
    files = {}
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read()
    return files


class _CliWorkload:
    """A workload made of in-process ``freedyn.cli.main`` invocations."""

    command = ""
    calibration = ""  # the kind of loop in calibrate.py that matches it

    def setup(self, seed, workdir):
        import freedyn.cli  # noqa: F401  (part of set-up time)

        self.seed = int(seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.configs = []
        for tag, cfg in self.build_configs():
            path = os.path.join(workdir, "%s.json" % tag)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            self.configs.append((tag, path))

    def run(self, threads=1, calibrate=None):
        """One unit.  With ``calibrate``, call it before every invocation
        and after the last, outside the timed parts, and keep what it
        returns in ``calibrations``."""
        out = Outcome(0)
        blobs = []
        for tag, path in self.configs:
            if calibrate is not None:
                out.calibrations.append(calibrate())
            start = time.perf_counter()
            self._invoke(tag, path, threads, out, blobs)
            out.times.append(time.perf_counter() - start)
        if calibrate is not None:
            out.calibrations.append(calibrate())
        out.digest = b"\0\0".join(blobs)
        return out

    def _invoke(self, tag, path, threads, out, blobs):
        import freedyn.cli

        out_dir = os.path.join(self.workdir, "out-" + tag)
        argv = [self.command, "--config", path, "--seed", str(self.seed),
                "--threads", str(threads), "--out", out_dir, "--assert"]
        try:
            # looked up at call time so a traced run sees the wrapper
            code = freedyn.cli.main(argv)
            files = _read_all(out_dir)
        except Exception as exc:  # a crash is a failed check, not a stop
            out.checks.append(Check(tag + ":exit", False, False,
                                    "%s: %s" % (type(exc).__name__, exc)))
            return
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        ok_exit = code in (0, 4)
        out.checks.append(Check(tag + ":exit", ok_exit, code == 0,
                                "exit %r" % code))
        if not ok_exit:
            return
        blobs.extend(name.encode() + b"\0" + body
                     for name, body in sorted(files.items()))
        try:
            report = json.loads(files[self.report_file])["report"]
            out.replicas += self.check(tag, report, out.checks)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            out.checks.append(Check(tag + ":report", False, False,
                                    "%s: %s" % (type(exc).__name__, exc)))


class ScalingWorkload(_CliWorkload):
    name = "scaling"
    command = "scaling"
    report_file = "scaling_scaling.json"
    calibration = "array"  # batches of 2e6 points
    samples = 40_000  # two full 20 000-replica chunks per epsilon

    def build_configs(self):
        base = {
            "domain": {"mode": "torus", "dim": 1, "side": 100.0},
            "profile": {"kind": "gaussian", "mass": 1.0, "std": 1.0},
            "dynamics": {"times": [0.5, 1.0]},
            "observables": [
                {"family": "box", "level": -0.5, "lo": [48.0], "hi": [52.0]},
                {"family": "box", "level": -0.6, "lo": [49.0], "hi": [53.0]}],
            "scaling": {"eps": [1.0, 0.5, 0.25, 0.1]},
            "samples": self.samples,
            "rng": {"seed": self.seed},
            "output": {"prefix": "scaling", "formats": ["json", "csv"]},
        }
        starts = {
            "poisson": {"kind": "poisson", "intensity": 1.0},
            "neyman-scott": {"kind": "neyman-scott",
                             "parent_intensity": 2.0 / 3.0,
                             "second_prob": 0.5, "cluster_std": 0.25},
        }
        return [(tag, dict(base, start=start)) for tag, start in starts.items()]


    def check(self, tag, rep, checks):
        _frozen(checks, "scaling.%s.target" % tag, rep["target"])
        dist, se = rep["distances"], rep["stderrs"]
        checks.append(Check("%s:shrinks" % tag, dist[0] > dist[-1],
                            rep["monotone"], "distances %r" % (dist,)))
        final_ok = dist[-1] < max(GATE_SIGMA * se[-1], 0.01)
        checks.append(Check("%s:final" % tag, final_ok,
                            dist[-1] < max(3.0 * se[-1], 0.01),
                            "final %r se %r" % (dist[-1], se[-1])))
        return rep["n_samples"] * len(rep["eps_schedule"])


class GeneratorWorkload(_CliWorkload):
    name = "generator"
    command = "generator-check"
    report_file = "gen_generator.json"
    calibration = "interpreter"  # one Python loop turn per replica
    # replicas per h.  At h = 0.005 a Kawasaki replica changes F with
    # probability ~1e-3, so 10 000 replicas make "no change seen at all"
    # (stderr 0, a failed check) a 2e-5 event; a Glauber replica changes F
    # with probability ~1.5e-2, so 2 500 are as safe.
    replicas = {"glauber": 2_500, "kawasaki": 10_000}

    def build_configs(self):
        box = {"family": "box", "level": -0.5, "lo": [-1.0], "hi": [1.0]}
        base = {
            "domain": {"mode": "fullspace", "window": [[-6.0], [6.0]]},
            "start": {"kind": "fixed", "points": [[0.0], [2.5]]},
            "rng": {"seed": self.seed},
            "output": {"prefix": "gen", "formats": ["json"]},
        }
        specs = {
            "glauber": {"dynamics": {"mode": "glauber", "death_rate": 1.0,
                                     "z": 1.0}},
            "kawasaki": {"kernel": {"variant": "kawasaki", "profile": {
                "kind": "gaussian", "mass": 1.3, "std": 0.7}}},
        }
        configs = []
        for dyn, block in specs.items():
            fd = {"h": [0.01, 0.005], "replicas": self.replicas[dyn],
                  "slope": 10.0}
            for outer in ("linear", "exp_pairing"):
                cfg = dict(base, fd=fd, cylinder={"outer": outer,
                                                  "observables": [box]})
                cfg.update(block)
                configs.append(("%s.%s" % (dyn, outer), cfg))
        return configs

    def check(self, tag, rep, checks):
        _frozen(checks, "generator.%s" % tag, rep["analytic"])
        slope = rep["slope"]
        for c in rep["checks"]:
            budget = GATE_SIGMA * c["stderr"] + slope * c["h"]
            checks.append(Check("%s:h=%g" % (tag, c["h"]),
                                abs(c["discrepancy"]) <= budget,
                                c["within_tolerance"],
                                "discrepancy %r stderr %r"
                                % (c["discrepancy"], c["stderr"])))
        first, last = rep["checks"][0], rep["checks"][-1]
        slack = GATE_SIGMA * (first["stderr"] + last["stderr"])
        checks.append(Check("%s:shrinks" % tag,
                            last["discrepancy"] <= first["discrepancy"] + slack,
                            rep["discrepancy_shrinks"]))
        return sum(c["n_replicas"] for c in rep["checks"])


class CorrelationWorkload(_CliWorkload):
    name = "correlation"
    command = "correlation"
    report_file = "corr_correlation.json"
    calibration = "mask"  # one boolean selection per replica
    # at least one full default chunk, so the per-replica split's cost
    # (quadratic in chunk size) is what the workload measures
    samples = 20_000

    def build_configs(self):
        return [("poisson", {
            "domain": {"mode": "fullspace", "window": [[0.0, 0.0], [3.0, 3.0]]},
            "start": {"kind": "poisson", "intensity": 1.0},
            "correlation": {"order": 2, "bins": 3},
            "samples": self.samples,
            "rng": {"seed": self.seed},
            "output": {"prefix": "corr", "formats": ["json", "csv"]},
        })]


    def check(self, tag, rep, checks):
        _frozen(checks, "correlation.expected_constant",
                rep["expected_constant"])
        worst = rep["max_sigma_distance"]
        checks.append(Check("%s:cells" % tag, rep["cells"] == 45, True,
                            "cells %r" % rep["cells"]))
        checks.append(Check("%s:max_sigma" % tag, worst <= GATE_SIGMA,
                            rep["within_3sigma"], "max sigma %r" % worst))
        return rep["n_samples"]


WORKLOADS = {w.name: w for w in (ScalingWorkload, GeneratorWorkload,
                                 CorrelationWorkload)}
