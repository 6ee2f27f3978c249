"""Pair cumulant of a clustered point process, measured and exact.

A Neyman-Scott process plants parents with intensity rho and lets each
parent drop a Gaussian-displaced second point with probability q.  The
clustering shows up as a strictly positive pair cumulant
u2(x, y) = 2 rho q N(x - y; 0, 2 s^2), while a Poisson process of equal
first-order intensity has u2 identically zero.  We bin a batch of
replicas on a grid, estimate second-order correlations from the bin
counts, subtract the product of intensities, and compare with the formula
averaged over the same bins.
"""

import math

import numpy as np

from freedyn import Domain, NeymanScottMeasure, RngStream
from freedyn.observables import (bin_counts, correlation_edges,
                                 correlations_from_counts)
from freedyn.pointproc import run_chunks

rho = 1.0
q = 0.5
s = 0.3
side = 6.0
domain = Domain.torus(1, side)
measure = NeymanScottMeasure(domain, rho, q, s)
n_rep = 40000
rng = RngStream(17)
edges = correlation_edges(domain, 12)


def worker(m, gen):
    pts, ids = measure.sample_batch(m, gen)
    return bin_counts(pts, ids, m, domain, edges)


counts = run_chunks(worker, n_rep, rng, rows=measure.mean_points)
grid = correlations_from_counts(counts, 2, edges)

k1 = rho * (1.0 + q)
w = side / 12.0


def exact_bin_average(d):
    # average of the Gaussian cumulant over two width-w bins at center
    # distance d: convolve with the triangle density of the bin offset
    u = np.linspace(d - w, d + w, 2001)
    tri = (1.0 - np.abs(u - d) / w) / w
    gauss = np.exp(-u * u / (4 * s * s)) / math.sqrt(4 * math.pi * s * s)
    return 2.0 * rho * q * np.trapezoid(tri * gauss, u)


print("parents rho=%.1f, second-point prob q=%.1f, offset std s=%.1f"
      % (rho, q, s))
print("first-order intensity: %.3f, bin width %.2f" % (k1, w))
print()
print("%10s %12s %12s %12s %8s" % ("|x-y|", "u2 measured", "u2 exact",
                                   "stderr", "sigmas"))

seen = set()
for tup, est, se in zip(grid.index_tuples, grid.estimates, grid.stderrs):
    b1, b2 = tup
    c1 = float(grid.bin_center(b1)[0])
    c2 = float(grid.bin_center(b2)[0])
    r = abs(c1 - c2)
    r = min(r, side - r)
    if r > 2.0 or round(r, 6) in seen:
        continue
    seen.add(round(r, 6))
    u2 = float(est) - k1 * k1
    exact = exact_bin_average(r)
    sig = abs(u2 - exact) / float(se) if se > 0 else 0.0
    print("%10.3f %12.5f %12.5f %12.5f %8.2f" % (r, u2, exact, se, sig))
