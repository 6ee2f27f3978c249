"""Speeding up conservative jumps until they mimic birth-and-death.

A particle that jumps according to a profile with total mass 1, after the
profile is flattened by a factor eps (density eps * xi(eps * x)), forgets
its origin once it moves at all.  In law the system then approaches the
non-conservative dynamics where a move is replaced by a death plus an
independent uniform birth.  The two-time joint Laplace functional makes
the distance measurable, with a closed-form target on the limit side.

Sweeps eps on a circle of circumference 100 with a Poisson(1) start and
prints one distance per eps; the distances fall toward Monte Carlo noise.
Writes the table as a CSV into the working directory.
"""

from freedyn import (
    Domain,
    GaussianProfile,
    PoissonMeasure,
    RngStream,
    TestFunction,
    run_scaling_experiment,
)

torus = Domain.torus(1, 100.0)
profile = GaussianProfile(1, 1.0, 1.0)
times = (0.5, 1.0)
phis = (TestFunction.box(-0.5, (48.0,), (52.0,)),
        TestFunction.box(-0.6, (49.0,), (53.0,)))
schedule = (1.0, 0.5, 0.25, 0.1)
n_rep = 40000

rep = run_scaling_experiment(
    PoissonMeasure(torus, 1.0), profile, times, phis, schedule,
    n_rep, RngStream(11),
)

print("target (birth-and-death closed form): %.8f" % rep.target)
print()
print("%8s %12s %12s %12s" % ("eps", "estimate", "stderr", "distance"))
for eps, est, se, d in zip(rep.eps_schedule, rep.estimates, rep.stderrs,
                           rep.distances):
    print("%8.2f %12.6f %12.6f %12.6f" % (eps, est, se, d))
print()
print("distances nonincreasing:", rep.monotone)

out = "kawasaki_to_glauber.csv"
with open(out, "w", newline="") as fh:
    fh.write(rep.to_csv())
print("wrote", out)
