"""Sample a Poisson configuration and check its Laplace functional.

For a Poisson process with flat intensity z the mean of the point-wise
product prod (1 + phi(x)) is exp(z * integral of phi).  Here we draw many
independent snapshots on a 1d window as one replica batch, average that
product for a few test functions, and print the estimate next to the
formula.
"""

import math

import numpy as np

from freedyn import Domain, PoissonMeasure, RngStream, TestFunction
from freedyn.pointproc import mean_se, pair_into, run_chunks

domain = Domain.fullspace((0.0,), (10.0,))
intensity = 1.5
n_snapshots = 20000
rng = RngStream(42)

phis = [
    TestFunction.box(-0.5, (2.0,), (6.0,)),
    TestFunction.box(-0.9, (4.0,), (5.0,)),
    TestFunction.bump(-0.7, (7.0,), 2.0),
]
measure = PoissonMeasure(domain, intensity)


def worker(m, gen):
    # one column per phi holding prod (1 + phi) of each snapshot, and a
    # last column holding its point count; every phi sees the same snapshot
    pts, ids = measure.sample_batch(m, gen)
    logs = np.zeros((len(phis), m))
    for acc, phi in zip(logs, phis):
        pair_into(acc, ids, np.log1p(phi(pts)))
    return np.column_stack([np.exp(logs.T), np.bincount(ids, minlength=m)])


values = run_chunks(worker, n_snapshots, rng, rows=measure.mean_points)

print("Poisson(z=%.1f) on [0, 10], %d snapshots" % (intensity, n_snapshots))
print("%-28s %12s %12s %12s %8s" % ("phi", "estimate", "exact", "stderr",
                                    "sigmas"))
for j, phi in enumerate(phis):
    exact = math.exp(intensity * phi.integral())
    mean, stderr = mean_se(values[:, j])
    sig = abs(mean - exact) / stderr
    label = "box" if j < 2 else "bump"
    print("%-28s %12.6f %12.6f %12.6f %8.2f"
          % ("%s #%d" % (label, j), mean, exact, stderr, sig))

counts = values[:, -1]
print()
print("mean count %.3f (expected %.3f), variance %.3f (Poisson: equal)"
      % (counts.mean(), intensity * 10.0, counts.var(ddof=1)))
