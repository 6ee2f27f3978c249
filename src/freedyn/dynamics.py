"""Window evolution of particle configurations under free dynamics.

Every particle moves by an independent copy of a one-particle kernel; there
is no interaction.  Sub-Markov kernels kill particles, and the matching
equilibrium mechanism adds immigrants: a space-time Poisson rain with
intensity killing_rate(x) * z dx dt, each immigrant evolving from its own
birth time.  Glauber (birth-and-death) dynamics is the death kernel with
immigration.  An evolution is fixed by its kernel, its start and its
observation times, plus the birth intensity z when it has immigration;
the evolution functions take just these (glauber_evolve's z = 0 is pure
death).  One batch engine, ``_march``, steps the rows of a replica batch
and their newborns through the observation times: on one replica for the
snapshot functions here, chunk by chunk in ``march_chunks`` for every
evolving estimator (a start, a kernel, a rain and a reducer each).
Snapshots are exact in distribution at the requested times for Brownian,
Death and Kawasaki kernels (no time-discretization anywhere; the grid
steps below are Markov increments); only KilledBrownian carries its
internal killing-grid bias.

The domain fixes the boundary.  On the torus the evolution is exact.  On
full space a fixed start is finite: every particle is tracked in all of
R^d, with no boundary.  A random start is sampled on collar_box, the
window widened by the kernel's tail radius at 1e-4 (kernel.buffer_width;
0 for the death kernel, which never moves), and immigrants rain on the
same box.  Each snapshot, marched or replayed from an event stream, is
the window content (window_content).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .kernels import DeathKernel
from .pointproc import (Configuration, as_field, check_times,
                        expected_births, run_chunks,
                        sample_poisson_space_time, sample_space_time_batch)
from .space import in_box


@dataclass(frozen=True)
class GlauberDynamics:
    """Spatial birth-and-death specification: death rate field a, intensity z.

    Particles sit still, die at rate a(x), and are born from a space-time
    Poisson rain with intensity a(x) * z dx dt.
    """

    rate: object
    intensity: float

    def __post_init__(self):
        object.__setattr__(self, "rate", as_field(self.rate))
        if not self.intensity >= 0:
            raise ValueError("intensity must be >= 0")

    def events(self, config, horizon, rng):
        """event_stream's birth and death events, in any order."""
        rate, z = self.rate, self.intensity
        gen = rng.child(1).generator()
        init = config.points
        deaths = _exponential_lifetimes(rate(init) if len(init) else
                                        np.zeros(0), gen)
        events = [Event(float(deaths[j]), "death", tuple(init[j]))
                  for j in range(len(init)) if deaths[j] <= horizon]
        if z > 0 and rate.bound > 0:
            bpts, btimes = sample_poisson_space_time(
                config.domain, rate.scaled(z), horizon, rng.child(2))
            bdeaths = btimes + _exponential_lifetimes(
                rate(bpts) if len(bpts) else np.zeros(0), gen)
            for j in range(len(bpts)):
                events.append(Event(float(btimes[j]), "birth",
                                    tuple(bpts[j])))
                if bdeaths[j] <= horizon:
                    events.append(Event(float(bdeaths[j]), "death",
                                        tuple(bpts[j])))
        return events


def _exponential_lifetimes(rate_vals, gen):
    # Exp(a(x)) lifetimes; rate 0 means immortal
    draws = gen.exponential(1.0, size=len(rate_vals))
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(rate_vals > 0, draws / np.maximum(rate_vals, 1e-300),
                        np.inf)


def collar_box(domain, kernel, t_max):
    """The box a full-space evolution to t_max draws on: the window widened
    by the kernel's tail radius at 1e-4, so that a particle starting past
    it is in the window at t_max with probability at most 1e-4; the cell
    on a torus."""
    if domain.is_torus:
        return domain.lower, domain.upper
    width = kernel.buffer_width(t_max, 1e-4)
    return domain.lower - width, domain.upper + width


def window_content(points, domain):
    """The rows of points in the closed window; on a torus all of them."""
    if domain.is_torus:
        return points
    return points[in_box(points, domain.lower, domain.upper, closed=True)]


def _march(points, ids, kernel, times, gen, births=None):
    """The batch engine: step replica rows through the times by Markov
    increments; returns one (points, ids) pair per time.

    points and ids are the rows of a replica batch and their replica ids.
    births, when given, is (points, ids, birth times) with the times in
    [0, times[-1]]; each newborn takes its first (partial) step in the
    interval containing its birth.  Stream layout per step: the kernel's
    draws for the rows alive, then for the births due.
    """
    out = []
    prev = 0.0
    for t in times:
        if len(points):
            moved, alive = kernel.propagate_batch(points, t - prev, gen)
            points, ids = (moved, ids) if kernel.conservative else \
                (moved[alive], ids[alive])
        if births is not None:
            bpts, bids, btimes = births
            births = None
            if t < times[-1]:  # at the last time every birth is due
                due = btimes <= t
                late = ~due
                births = bpts[late], bids[late], btimes[late]
                bpts, bids, btimes = bpts[due], bids[due], btimes[due]
            if len(bpts):
                born, alive = kernel.propagate_batch(bpts, t - btimes, gen)
                born, bids = born[alive], bids[alive]
                points = np.vstack([points, born]) if len(points) else born
                ids = np.concatenate([ids, bids])
        out.append((points, ids))
        prev = t
    return out


def march_chunks(start, kernel, times, values, n_samples, rng, threads=1,
                 rain=None, box=None):
    """run_chunks of values(m, steps), the m replicas of start _march-ed
    through the times, with immigrants born at rate rain on box = (lo, hi)
    over [0, times[-1]] when rain is given.  Stream per chunk:
    start.sample_batch, the rain's sample_space_time_batch, the kernel
    steps.  Rows: the start's mean_points plus the rain's expected_births.
    """
    times = check_times(times)
    if kernel.domain != start.domain:
        raise ValueError("kernel and configuration domains differ")
    rows = start.mean_points
    if rain is not None:
        rows += expected_births(rain, times[-1], *box)

    def worker(m, gen):
        batch = start.sample_batch(m, gen)
        births = None if rain is None else \
            sample_space_time_batch(m, rain, times[-1], *box, gen)
        return values(m, _march(*batch, kernel, times, gen, births))

    return run_chunks(worker, n_samples, rng, threads, rows)


def _snapshots(pts, kernel, times, gen, births=None):
    """One Configuration per time: the window content of the one-replica
    _march."""
    domain = kernel.domain
    ids = np.zeros(len(pts), dtype=np.intp)
    return [Configuration(window_content(p, domain), domain)
            for p, _ in _march(pts, ids, kernel, times, gen, births)]


def evolve_snapshot(config, kernel, times, rng):
    """Propagate every particle independently; one Configuration per time.

    No immigration; dead particles are removed.  On a torus the evolution
    is exact.  On full space the start is finite: all of its particles
    move in R^d, and the snapshots are the window content.
    """
    times = check_times(times)
    if kernel.domain != config.domain:
        raise ValueError("kernel and configuration domains differ")
    return _snapshots(config.points, kernel, times, rng.child(1).generator())


def evolve_with_immigration(config, kernel, z, times, rng):
    """Sub-Markov evolution with Poissonian immigration, snapshot per time.

    Initial particles evolve with killing; immigrants are born at the
    points of a space-time Poisson process with intensity
    killing_rate(x) * z dx dt on collar_box (the torus cell, or the window
    and its collar on full space) and evolve from their birth times under
    the same kernel.  A conservative kernel has no killing to balance and
    is refused.
    """
    times = check_times(times)
    if not z > 0:
        raise ValueError("z must be > 0")
    if kernel.domain != config.domain:
        raise ValueError("kernel and configuration domains differ")
    if kernel.conservative:
        raise ValueError("immigration balances killing; kernel must kill")
    domain = config.domain
    gen = rng.child(1).generator()
    ipts, itimes = sample_poisson_space_time(
        domain, kernel.rate.scaled(z), times[-1], rng.child(2),
        *collar_box(domain, kernel, times[-1]))
    births = ipts, np.zeros(len(ipts), dtype=np.intp), itimes
    return _snapshots(config.points, kernel, times, gen, births)


def glauber_evolve(config, a, z, times, rng):
    """Birth-and-death snapshots: the death kernel with immigration.

    Particles sit still and die at rate a(x); with z > 0 they are born
    from the space-time rain z * a(x) dx dt (evolve_with_immigration of a
    DeathKernel), with z = 0 this is evolve_snapshot of the DeathKernel.
    The death kernel needs no collar, and its steps are exact, so
    snapshots are exact in distribution at all times simultaneously.
    """
    kernel = DeathKernel(config.domain, GlauberDynamics(a, z).rate)
    if z > 0:
        return evolve_with_immigration(config, kernel, z, times, rng)
    return evolve_snapshot(config, kernel, times, rng)


# ---------------------------------------------------------------------------
# event streams

@dataclass(frozen=True)
class Event:
    time: float
    kind: str  # "birth" | "death" | "jump"
    point: tuple
    target: tuple = None  # jump destination

    def to_json(self):
        rec = {"time": self.time, "event": self.kind, "point": list(self.point)}
        if self.target is not None:
            rec["to"] = list(self.target)
        return json.dumps(rec, sort_keys=True)

    @staticmethod
    def from_json(line):
        rec = json.loads(line)
        target = tuple(rec["to"]) if "to" in rec else None
        return Event(float(rec["time"]), rec["event"],
                     tuple(rec["point"]), target)


@dataclass
class EventStream:
    """Chronological birth/death/jump record over a finite horizon."""

    events: list
    horizon: float

    def __post_init__(self):
        ts = [e.time for e in self.events]
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("events must be time-ordered")

    def to_jsonl(self):
        head = json.dumps({"horizon": self.horizon, "format": "event-stream"})
        return "\n".join([head] + [e.to_json() for e in self.events]) + "\n"

    @staticmethod
    def from_jsonl(text):
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        head = json.loads(lines[0])
        events = [Event.from_json(ln) for ln in lines[1:]]
        return EventStream(events, float(head["horizon"]))

    def snapshot(self, config, t):
        """Replay events up to and including time t from the start config;
        the window content of the result, as evolve_snapshot reports."""
        live = {tuple(row): None for row in config.points}
        for e in self.events:
            if e.time > t:
                break
            if e.kind == "birth":
                live[e.point] = None
            elif e.kind == "death":
                live.pop(e.point, None)
            else:
                live.pop(e.point, None)
                live[e.target] = None
        domain = config.domain
        pts = np.array(list(live), dtype=float).reshape(-1, domain.dim)
        return Configuration(window_content(pts, domain), domain)


def event_stream(config, model, horizon, rng):
    """Discrete-event record of a birth-death or jump evolution.

    model is a GlauberDynamics, a DeathKernel, or a KawasakiKernel; the
    diffusive kernels have no discrete-event representation.  Replaying
    the stream from the start configuration reproduces the evolution's
    snapshots exactly (same probability law, event by event).
    """
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    events = sorted(model.events(config, horizon, rng), key=lambda e: e.time)
    return EventStream(events, float(horizon))
