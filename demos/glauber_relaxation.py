"""Relaxation of a birth-and-death system toward its Poisson equilibrium.

Particles die at constant rate a and new ones rain in with intensity a*z.
Starting from a deliberately clumped configuration, the product statistic
prod (1 + phi(x)) drifts from its initial value to the Poisson value
exp(z * int phi), and the closed-form prediction tracks it at every time.
Writes a plot-ready CSV into the working directory.
"""

import csv
import math

import numpy as np

from freedyn import (
    Configuration,
    Domain,
    RngStream,
    TestFunction,
    glauber_joint_experiment,
)

a = 1.0
z = 0.8
domain = Domain.fullspace((0.0,), (8.0,))
phi = TestFunction.box(-0.6, (3.0,), (5.0,))
times = (0.1, 0.3, 0.6, 1.0, 1.5, 2.5, 4.0)
n_rep = 30000
rng = RngStream(7)

# 12 particles piled inside the observation box: far from equilibrium
start = Configuration(np.linspace(3.2, 4.8, 12).reshape(-1, 1), domain)

equilibrium = math.exp(z * phi.integral())
print("death rate a=%.1f, birth intensity a*z with z=%.1f" % (a, z))
print("start: 12 particles inside the box, Poisson value %.6f" % equilibrium)
print()
print("%6s %12s %12s %12s" % ("t", "estimate", "predicted", "stderr"))

rows = []
for j, t in enumerate(times):
    rep = glauber_joint_experiment(start, a, z, (t,), (phi,), n_rep,
                                   rng.child(j))
    print("%6.2f %12.6f %12.6f %12.6f" % (t, rep.estimate, rep.analytic,
                                          rep.stderr))
    rows.append((t, rep.estimate, rep.stderr, rep.analytic))

out = "glauber_relaxation.csv"
with open(out, "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["time", "estimate", "stderr", "predicted", "equilibrium"])
    for t, e, s, p in rows:
        w.writerow([t, e, s, p, equilibrium])
print()
print("wrote", out)
