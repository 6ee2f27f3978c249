"""Killed motion balanced by a Poisson rain of immigrants.

With a sub-Markov kernel each particle carries a survival probability
below one; the lost mass is restored in equilibrium by immigration with
space-time intensity z * killing rate.  The product statistic then obeys a
two-factor closed form: one factor from the survivors of the initial
configuration, one from the immigrants.  This script simulates both
mechanisms together and prints the estimate against the formula while the
initial particles die out.
"""

import numpy as np

from freedyn import (
    Configuration,
    DeathKernel,
    Domain,
    RngStream,
    TestFunction,
    analytic_laplace_submarkov,
    submarkov_laplace_experiment,
)

domain = Domain.fullspace((-4.0,), (4.0,))
kernel = DeathKernel(domain, 1.0)
z = 1.0
phi = TestFunction.box(-0.5, (-1.0,), (1.0,))
start = Configuration(np.array([[-0.5], [0.0], [0.5]]), domain)
n_rep = 20000

print("death rate 1, immigration intensity z=%.1f, 3 initial particles"
      % z)
print("%6s %10s %12s %12s %12s %8s" % ("t", "survive", "estimate",
                                       "exact", "stderr", "sigmas"))
for j, t in enumerate((0.25, 0.5, 1.0, 2.0, 4.0)):
    rep = submarkov_laplace_experiment(kernel, start, phi, t, z, n_rep,
                                       RngStream(31).child(j))
    exact = analytic_laplace_submarkov(kernel, start, phi, t, z)
    surv = kernel.survival(np.array([0.0]), t)
    print("%6.2f %10.4f %12.6f %12.6f %12.6f %8.2f"
          % (t, surv, rep.estimate, exact, rep.stderr, rep.sigma_distance))

# long after the start configuration is forgotten the value settles at the
# immigrant-only factor, which is the Poisson(z) equilibrium
import math

print()
print("equilibrium value exp(z int phi) = %.6f"
      % math.exp(z * phi.integral()))
