"""Sample a Poisson configuration and check its Laplace functional.

For a Poisson process with flat intensity z the mean of the point-wise
product prod (1 + phi(x)) is exp(z * integral of phi).  Here we draw many
independent snapshots on a 1d window, average that product for a few test
functions, and print the estimate next to the formula.
"""

import math

import numpy as np

from freedyn import (
    Domain,
    PoissonMeasure,
    RngStream,
    TestFunction,
    empirical_laplace,
)

domain = Domain.fullspace((0.0,), (10.0,))
intensity = 1.5
n_snapshots = 20000
rng = RngStream(42)

phis = [
    TestFunction.box(-0.5, (2.0,), (6.0,)),
    TestFunction.box(-0.9, (4.0,), (5.0,)),
    TestFunction.bump(-0.7, (7.0,), 2.0),
]

# one snapshot list per replica, reusing the same snapshot for every phi
samples = []
for i in range(n_snapshots):
    config = PoissonMeasure(domain, intensity).sample(rng.child(i))
    samples.append([config] * len(phis))

print("Poisson(z=%.1f) on [0, 10], %d snapshots" % (intensity, n_snapshots))
print("%-28s %12s %12s %12s %8s" % ("phi", "estimate", "exact", "stderr",
                                    "sigmas"))
for j, phi in enumerate(phis):
    exact = math.exp(intensity * phi.integral())
    # empirical_laplace averages the product over the snapshot list, so
    # isolate phi_j by zeroing the others
    row = [TestFunction.box(0.0, (0.0,), (1.0,))] * len(phis)
    row[j] = phi
    est = empirical_laplace(samples, row)
    sig = abs(est.mean - exact) / est.stderr
    label = "box" if j < 2 else "bump"
    print("%-28s %12.6f %12.6f %12.6f %8.2f"
          % ("%s #%d" % (label, j), est.mean, exact, est.stderr, sig))

counts = np.array([len(s[0]) for s in samples])
print()
print("mean count %.3f (expected %.3f), variance %.3f (Poisson: equal)"
      % (counts.mean(), intensity * 10.0, counts.var(ddof=1)))
