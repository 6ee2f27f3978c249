"""freedyn benchmark: verification workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each is there): ``scaling``,
``generator`` and ``correlation``.  The script can be started
from any working directory; it imports freedyn from the ``src`` directory
next to ``perfbench`` through an absolute PYTHONPATH.

With ``--trace 0`` it runs whole units of the workload, each in a fresh
process that also times its set-up, until S seconds are used (at least
one unit, and at least five set-up samples), and reports ``setup_s``,
``wall_s`` and ``peak_rss_mb`` (and, in the summary line,
``replicas_per_s``) as medians over those processes.  ``setup_s`` and
``wall_s`` are calibrated to a reference core speed (``worker.calibrate``);
the summary line also gives the raw medians.  With ``--trace 1``
it runs one process that times one unit untraced and one traced, and
reports the per-layer metrics.
Either way every unit checks its answers, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A summary line above it also gives ``check_fail_ratio``, the
3-sigma verdicts and the machine context.  The spans of the latest traced
run of each workload are kept in ``.perfbench_work/spans-WORKLOAD.npz``
under the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run must end within 180 s


def _context():
    nproc = len(os.sched_getaffinity(0))
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            if not index.startswith("index"):
                continue
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, index, key),
                          encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
            caches["L%s %s" % (fields["level"], fields["type"].lower())] = \
                fields["size"]
    except OSError:
        pass
    return {"nproc": nproc, "cpu_model": model, "caches": caches,
            "python": platform.python_version()}


def _child_env(nproc):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC  # absolute, so any working directory works
    # one BLAS/OpenMP thread (never more than nproc): threads=1 workloads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(min(1, nproc))
    return env


def _worker(mode, args, workdir, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           args.workload, str(args.seed), workdir]
    left = deadline - time.monotonic()
    if left <= 0:
        raise RuntimeError("out of time before the %s process" % mode)
    try:
        res = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise RuntimeError("%s process timed out" % mode)
    if res.returncode != 0:
        raise RuntimeError("%s process failed (exit %d):\n%s"
                           % (mode, res.returncode, res.stderr[-4000:]))
    return json.loads(res.stdout.strip().splitlines()[-1])


def _declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def _measure(args, workdir, env, deadline, context):
    # every unit runs in a fresh process, as a CLI invocation does, so the
    # medians also average over per-process effects such as memory layout
    started = time.monotonic()
    units = []
    while True:
        units.append(_worker("unit", args, workdir, env, deadline))
        elapsed = time.monotonic() - started
        typical = elapsed / len(units)
        # start another unit only if it is expected to end within SECONDS
        if elapsed + typical > args.seconds:
            break
    context.update(units[0]["versions"])
    setups = [(u["setup_s"], u["raw_setup_s"]) for u in units]
    while len(setups) < MIN_SETUP_SAMPLES:
        res = _worker("setup", args, workdir, env, deadline)
        setups.append((res["setup_s"], res["raw_setup_s"]))
    median = statistics.median
    metrics = {
        "setup_s": {"value": median(s for s, _ in setups), "unit": "s"},
        "wall_s": {"value": median(u["wall_s"] for u in units), "unit": "s"},
        "peak_rss_mb": {"value": median(u["peak_rss_mb"] for u in units),
                        "unit": "MB"},
    }
    # fixed budgets make replicas_per_s a function of wall_s: it is printed
    # with the summary, and only wall_s is gated
    detail = {"replicas_per_s": {"value": median(u["replicas"] / u["wall_s"]
                                                 for u in units),
                                 "unit": "1/s"},
              "raw_setup_s": median(r for _, r in setups),
              "raw_wall_s": median(u["raw_wall_s"] for u in units),
              "calibration": {"loop": WORKLOADS[args.workload].calibration,
                              "median_s": median(c for u in units
                                                 for c in u["calibrations"])},
              "units": len(units), "unit_wall_s": [u["wall_s"] for u in units],
              "unit_raw_wall_s": [u["raw_wall_s"] for u in units],
              "setup_samples": len(setups),
              "replicas_per_unit": units[0]["replicas"]}
    return metrics, [c for u in units for c in u["checks"]], detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "freedyn", "__init__.py")):
        print("perfbench: no freedyn sources under %s" % SRC, file=sys.stderr)
        return 2
    context = _context()
    env = _child_env(context["nproc"])
    workdir = os.path.join(WORK, "tmp-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            res = _worker("trace", args, workdir, env, deadline)
            context.update(res["versions"])
            metrics, checks = res["metrics"], res["checks"]
            detail = {"replicas_per_unit": res["replicas"]}
            for name in os.listdir(workdir):
                if name.endswith(".npz"):
                    os.replace(os.path.join(workdir, name),
                               os.path.join(WORK, name))
        else:
            metrics, checks, detail = _measure(args, workdir, env,
                                               deadline, context)
    except RuntimeError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = _declared_metrics(args.trace)
    if sorted(declared) != sorted(metrics):
        print("perfbench: metrics differ from BENCHMARK.json: %s"
              % sorted(set(declared) ^ set(metrics)), file=sys.stderr)
        return 1
    failed = [c for c in checks if not c["gate"]]
    sigma3_missed = [c["name"] for c in checks if not c["sigma3"]]
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "check_fail_ratio": {"value": len(failed) / len(checks), "unit": "1"},
        "sigma3_missed": sigma3_missed,
        "failed_checks": [(c["name"], c["detail"]) for c in failed],
        "context": context,
    }
    summary.update(detail)
    print(json.dumps(summary))
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed),
                      "metrics": {m: metrics[m] for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
