"""Layer tracing from outside the program.

``Tracer.install`` replaces public freedyn functions and methods by timing
wrappers: a method at its class attribute, a function in its defining
module and in every freedyn namespace that imported it (``from .x import
f`` copies the reference, so ``freedyn.scaling.glauber_joint_laplace`` is
patched as well as ``freedyn.observables.glauber_joint_laplace``).  ``uninstall`` puts every
original back.  Each call records one span (name, start, end, parent span,
run id, points handled) in memory; ``summary`` turns them into per-layer
metrics and ``save`` writes the raw spans out.

A layer's self time is its span time minus the time covered by its direct
child spans, so ``Domain.wrap`` inside ``propagate_batch`` is not counted
twice.  Inclusive time of a name counts only its outermost spans, so a
recursive call is not counted twice either.  Spans are kept on one stack,
so a traced unit must run single-threaded.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

LAYERS = ("space", "pointproc", "functions", "kernels", "dynamics",
          "observables", "experiments", "scaling", "cli")


def _rows(arr):
    """(points, bytes) of an (n, dim) float array, or of a single point."""
    arr = np.asarray(arr)
    return (int(arr.shape[0]) if arr.ndim == 2 else 1), int(arr.nbytes)


def _rows_arg1(args, result):
    return _rows(args[1])


def _rows_result0(args, result):
    return (0, 0) if result is None else _rows(result[0])


# (module, attribute path, span name, (points, bytes) counter or None)
TARGETS = (
    ("space", "Domain.wrap", "space.Domain.wrap", _rows_arg1),
    ("kernels", "KawasakiKernel.propagate_batch",
     "kernels.KawasakiKernel.propagate_batch", _rows_arg1),
    ("scaling", "PoissonMeasure.sample_batch",
     "scaling.PoissonMeasure.sample_batch", _rows_result0),
    ("scaling", "NeymanScottMeasure.sample_batch",
     "scaling.NeymanScottMeasure.sample_batch", _rows_result0),
    ("scaling", "run_scaling_experiment", "scaling.run_scaling_experiment",
     None),
    ("pointproc", "RngStream.generator", "pointproc.RngStream.generator",
     None),
    ("pointproc", "RngStream.child", "pointproc.RngStream.child", None),
    ("pointproc", "Configuration.__init__", "pointproc.Configuration.init",
     None),
    ("pointproc", "sample_poisson_space_time",
     "pointproc.sample_poisson_space_time", None),
    ("dynamics", "evolve_snapshot", "dynamics.evolve_snapshot", None),
    ("dynamics", "glauber_evolve", "dynamics.glauber_evolve", None),
    ("observables", "generator_fd_check", "observables.generator_fd_check",
     None),
    ("observables", "estimate_correlations",
     "observables.estimate_correlations", None),
    ("observables", "glauber_joint_laplace",
     "observables.glauber_joint_laplace", None),
    ("experiments", "poisson_correlation_experiment",
     "experiments.poisson_correlation_experiment", None),
    ("functions", "box_quad", "functions.box_quad", None),
    ("functions", "TestFunction.__call__", "functions.TestFunction.call",
     _rows_arg1),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    def __init__(self, run_id):
        self.names = [t[2] for t in TARGETS]
        # one record per finished span:
        # (span id, parent id, name index, start, end, points, bytes of the
        #  points array, outermost of its name, run id)
        self.records = []
        self.run_id = run_id
        self._stack = []
        self._depth = [0] * len(TARGETS)
        self._next = 0
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self):
        owners = [importlib.import_module("freedyn." + t[0]) for t in TARGETS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "freedyn" or n.startswith("freedyn."))
                   and m is not None]
        for idx, (module, (_, path, _, counter)) in enumerate(
                zip(owners, TARGETS)):
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original,
                            self._wrap(original, idx, counter))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, idx, counter)
            for mod in modules:
                if mod.__dict__.get(path) is original:
                    self._patch(mod, path, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, fn, idx, counter):
        records, stack, depth = self.records, self._stack, self._depth
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._next
            tracer._next = span + 1
            parent = stack[-1] if stack else -1
            stack.append(span)
            depth[idx] += 1
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                depth[idx] -= 1
                stack.pop()
                points, nbytes = (counter(args, result) if counter is not None
                                  else (0, 0))
                records.append((span, parent, idx, start, end, points,
                                nbytes, depth[idx] == 0, tracer.run_id))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced

    # -- results ----------------------------------------------------------

    def arrays(self):
        rec = np.array(self.records, dtype=float).reshape(-1, 9)
        rec = rec[np.argsort(rec[:, 0], kind="stable")]
        return {
            "span": rec[:, 0].astype(np.int64),
            "parent": rec[:, 1].astype(np.int64),
            "name": rec[:, 2].astype(np.int16),
            "start": rec[:, 3],
            "end": rec[:, 4],
            "points": rec[:, 5].astype(np.int64),
            "nbytes": rec[:, 6].astype(np.int64),
            "outermost": rec[:, 7].astype(bool),
            "run": rec[:, 8].astype(np.int16),
        }

    def save(self, path):
        arr = self.arrays()
        np.savez(path, names=np.array(self.names), **arr)

    def summary(self):
        """Per span name: calls, inclusive s, self s, points and bytes;
        per layer (module): self s."""
        arr = self.arrays()
        n = len(arr["span"])
        dur = arr["end"] - arr["start"]
        # span ids are dense 0..n-1 once sorted, so a parent id is a row
        has_parent = arr["parent"] >= 0
        covered = np.bincount(arr["parent"][has_parent],
                              weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        k = len(self.names)
        name, outer = arr["name"], arr["outermost"]
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        points = np.bincount(name, weights=arr["points"], minlength=k)
        nbytes = np.bincount(name, weights=arr["nbytes"], minlength=k)
        spans = {nm: {"calls": int(calls[i]), "s": float(incl[i]),
                      "self_s": float(selfs[i]), "points": int(points[i]),
                      "bytes": int(nbytes[i])}
                 for i, nm in enumerate(self.names)}
        layers = {layer: sum(v["self_s"] for nm, v in spans.items()
                             if nm.split(".")[0] == layer)
                  for layer in LAYERS}
        return spans, layers, n
