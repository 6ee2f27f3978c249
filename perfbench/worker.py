"""One benchmark process: set up a workload, run it, print one JSON line.

    python3 worker.py setup WORKLOAD SEED WORKDIR
    python3 worker.py unit  WORKLOAD SEED WORKDIR
    python3 worker.py trace WORKLOAD SEED WORKDIR

``setup`` only times the set-up (import freedyn, build the inputs).
``unit`` times the set-up and then one unit of the workload, and reports
the unit's wall time, its checks and the process's peak resident memory.
Both also report these times calibrated to a reference core speed (see
``calibrate.py``).
``trace`` runs one unit untraced, one traced and (on ``scaling``) one
untraced with two threads, checks that they computed the same bytes, and
reports the per-layer metrics.

``run.py`` starts this script with freedyn's ``src`` on an absolute
PYTHONPATH; it is not meant to be started by hand.
"""

import time

from calibrate import LOOPS, calibrated, interpreter_loop

_CAL0 = interpreter_loop()
_T0 = time.perf_counter()  # before numpy or freedyn is imported

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402

from workloads import WORKLOADS, Check  # noqa: E402

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_unit(workload, threads=1):
    start = time.perf_counter()
    outcome = workload.run(threads=threads)
    return time.perf_counter() - start, outcome


def unit(workload):
    kind = workload.calibration
    outcome = workload.run(calibrate=LOOPS[kind][0])
    cals = outcome.calibrations
    wall = sum(calibrated(t, kind, cals[i], cals[i + 1])
               for i, t in enumerate(outcome.times))
    return {"wall_s": wall, "raw_wall_s": sum(outcome.times),
            "calibrations": cals, "replicas": outcome.replicas,
            "checks": [asdict(c) for c in outcome.checks],
            "peak_rss_mb": _peak_rss_mb()}


def _span_value(spans, metric, replicas):
    name, field = metric.rsplit(".", 1)
    sp = spans[name]
    if field in ("calls", "s", "self_s", "points"):
        return sp[field]
    if field == "points_per_s":
        return sp["points"] / sp["s"] if sp["s"] > 0 else 0.0
    if field == "bytes_computed":
        return 2 * sp["bytes"]  # each point array is read once, written once
    if field == "calls_per_replica":
        return sp["calls"] / replicas
    if field == "points_per_call":
        return sp["points"] / sp["calls"] if sp["calls"] else 0.0
    raise KeyError(metric)


def trace(workload, workdir):
    from tracer import Tracer

    wall_u, plain = _timed_unit(workload)
    tracer = Tracer(run_id=1)
    tracer.install()
    try:
        wall_t, traced = _timed_unit(workload)
    finally:
        tracer.uninstall()
    checks = plain.checks + traced.checks + [
        Check("trace:bit_identical", traced.digest == plain.digest)]

    speedup = 0.0  # 0 = not measured on this workload
    if workload.name == "scaling":
        wall_2, two = _timed_unit(workload, threads=2)
        speedup = wall_u / wall_2
        checks.append(Check("threads:bit_identical", two.digest == plain.digest))

    spans, layers, n_spans = tracer.summary()
    tracer.save(os.path.join(workdir, "spans-%s.npz" % workload.name))
    extra = {
        "pointproc.parallel_map_ordered.speedup_2t": speedup,
        "trace.replicas": traced.replicas,
        "trace.spans": n_spans,
        "trace.wall_s": wall_t,
        "trace.untraced_wall_s": wall_u,
        "trace.overhead_s": wall_t - wall_u,
    }
    for layer, value in layers.items():
        extra["layer.%s.self_s" % layer] = value
    with open(BENCHMARK, encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    metrics = {}
    for m in per_layer:
        name = m["name"]
        value = extra[name] if name in extra else \
            _span_value(spans, name, traced.replicas)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return {"metrics": metrics, "checks": [asdict(c) for c in checks],
            "replicas": traced.replicas}


def main(argv):
    mode, name, seed, workdir = argv
    workload = WORKLOADS[name]()
    workload.setup(int(seed), workdir)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": calibrated(setup_s, "interpreter", _CAL0,
                                    interpreter_loop()),
              "raw_setup_s": setup_s}
    import freedyn
    import numpy
    import scipy

    result["versions"] = {"numpy": numpy.__version__,
                          "scipy": scipy.__version__,
                          "freedyn": freedyn.__version__}
    if mode == "unit":
        result.update(unit(workload))
    elif mode == "trace":
        result.update(trace(workload, workdir))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
