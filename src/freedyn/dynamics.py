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
and their newborns through the observation times; the snapshot functions
here and the replica-batch estimators in ``experiments`` and
``observables`` all run on it.  Snapshots are exact in distribution at
the requested times for Brownian, Death and Kawasaki kernels (no
time-discretization anywhere; the grid steps below are Markov
increments); only KilledBrownian carries its internal killing-grid bias.

The domain fixes the boundary.  On the torus the evolution is exact.  On
full space it is the Buffer() collar: the window is enlarged by the
kernel's tail radius at 1e-4 (kernel.buffer_width; 0 for the death
kernel, which never moves), the collar is seeded with fresh Poisson points
at the start's own realized density, immigrants rain on window and collar,
and any particle drifting past the collar is dropped.
buffer_leakage_bound bounds only the expected number of such discards,
and nothing in the package calls it; the error of window statistics has
no stated bound.  Only evolve_snapshot takes a Buffer other than Buffer().
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import DeathKernel
from .pointproc import (Configuration, PoissonMeasure, as_field, check_times,
                        sample_poisson_space_time)
from .space import Domain, in_box


@dataclass(frozen=True)
class Buffer:
    """Full-space boundary policy: collar of the given width around the window.

    width None means: solve tail_bound(t_max, width) = 1e-4 for the kernel
    at hand.  intensity None means: seed the collar at the initial
    configuration's empirical density.
    """

    width: float = None
    intensity: float = None

    def __post_init__(self):
        if self.width is not None and not self.width >= 0:
            raise ValueError("buffer width must be >= 0")


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


def buffer_leakage_bound(kernel, t_max, width, population):
    """Bound on the expected number of particles lost past the collar.

    Each particle's chance of ending beyond distance width from its start
    by time t_max is at most tail_bound(t_max, width); collar crossings in
    and out are not tracked, so this bounds only the discard leakage.
    """
    if width <= 0:
        return float(population)
    return float(population) * kernel.tail_bound(t_max, width)


def _seed_buffer(config, kernel, t_max, rng, buffer):
    """Simulation state: (points, cull box).

    On a torus the start as it is, with no cull box.  On full space the
    window points plus the buffer's Poisson collar, culled past
    (window + collar).
    """
    domain = config.domain
    if domain.is_torus:
        return config.points, None
    width = buffer.width
    if buffer.intensity is not None:
        density = buffer.intensity
    else:
        density = len(config) / domain.window_volume
    if width is None:
        width = kernel.buffer_width(t_max, 1e-4)
    lo = domain.lower - width
    hi = domain.upper + width
    pts = config.points
    if width > 0 and density > 0:
        shell = PoissonMeasure(Domain.fullspace(lo, hi), density).sample(
            rng.child(0xB0FF))
        outside = ~in_box(shell.points, domain.lower, domain.upper,
                          closed=True)
        pts = np.vstack([pts, shell.points[outside]])
    return pts, (lo, hi)


def _march(points, ids, kernel, times, gen, births=None, cull=None):
    """The batch engine: step replica rows through the times by Markov
    increments; returns one (points, ids) pair per time.

    points and ids are the rows of a replica batch and their replica ids.
    births, when given, is (points, ids, birth times) with the times in
    [0, times[-1]]; each newborn takes its first (partial) step in the
    interval containing its birth.  cull is an optional (lo, hi) box
    outside which rows are dropped after every step.  Stream layout per
    step: the kernel's draws for the rows alive, then for the births due.
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
        if cull is not None and len(points):
            inside = in_box(points, cull[0], cull[1], closed=True)
            points, ids = points[inside], ids[inside]
        out.append((points, ids))
        prev = t
    return out


def _snapshots(pts, kernel, times, gen, births=None, cull=None):
    """One Configuration per time: the one-replica _march, reporting the
    window content when a cull box is set."""
    domain = kernel.domain
    ids = np.zeros(len(pts), dtype=np.intp)
    steps = _march(pts, ids, kernel, times, gen, births, cull)
    if cull is None:
        return [Configuration(p, domain) for p, _ in steps]
    return [Configuration(p[in_box(p, domain.lower, domain.upper,
                                   closed=True)], domain)
            for p, _ in steps]


def evolve_snapshot(config, kernel, times, rng, buffer=None):
    """Propagate every particle independently; one Configuration per time.

    No immigration; dead particles are removed.  On a torus the evolution
    is exact.  On full space buffer (default Buffer()) seeds the collar,
    particles past it are culled, and snapshots report the window content
    only; buffer_leakage_bound, not called here, bounds only the expected
    discards past the collar.
    """
    times = check_times(times)
    if kernel.domain != config.domain:
        raise ValueError("kernel and configuration domains differ")
    if buffer is not None and config.domain.is_torus:
        raise ValueError("Buffer boundary requires full-space mode")
    gen = rng.child(1).generator()
    pts, cull = _seed_buffer(config, kernel, times[-1], rng,
                             buffer or Buffer())
    return _snapshots(pts, kernel, times, gen, cull=cull)


def evolve_with_immigration(config, kernel, z, times, rng):
    """Sub-Markov evolution with Poissonian immigration, snapshot per time.

    Initial particles evolve with killing; immigrants are born at the
    points of a space-time Poisson process with intensity
    killing_rate(x) * z dx dt over the simulation box (the torus cell, or
    window + Buffer() collar on full space) and evolve from their birth
    times under the same kernel.
    """
    times = check_times(times)
    if not z > 0:
        raise ValueError("z must be > 0")
    if kernel.domain != config.domain:
        raise ValueError("kernel and configuration domains differ")
    if kernel.conservative:
        warnings.warn("conservative kernel: immigration rate is zero, "
                      "degenerating to evolve_snapshot")
        return evolve_snapshot(config, kernel, times, rng)
    domain = config.domain
    rain = kernel.rate.scaled(z)
    gen = rng.child(1).generator()
    pts, cull = _seed_buffer(config, kernel, times[-1], rng.child(3),
                             Buffer())
    lo, hi = cull or (domain.lower, domain.upper)
    ipts, itimes = sample_poisson_space_time(domain, rain, times[-1],
                                             rng.child(2), lo=lo, hi=hi)
    births = ipts, np.zeros(len(ipts), dtype=np.intp), itimes
    return _snapshots(pts, kernel, times, gen, births, cull)


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
        """Replay events up to and including time t from the start config."""
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
        pts = np.array(list(live), dtype=float).reshape(-1, config.domain.dim)
        return Configuration(pts, config.domain)


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
