"""Observe one workload pass from outside the program.

The experiments build their own cluster, driver and daemons and hand
back only a result, so the probe wraps the public constructors of those
classes for the length of one pass and keeps every instance they
create.  It also wraps ``Environment.run`` to find the boundary
between set-up (cluster build and data load) and the timed phase: the
first call into the simulation.  The wrappers only record; the
benchmark's own test checks that the simulated outcome is unchanged
with them attached.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import pstats
import time
import typing

from repro.cluster.cluster import Cluster
from repro.cluster.vacuum import VacuumScheduler
from repro.ha.failover import FailoverCoordinator
from repro.ha.replication import ReplicationManager
from repro.ha.scrub import ScrubDaemon
from repro.reads.router import ReadTier
from repro.sim.engine import Environment
from repro.traffic.sessions import SessionEngine
from repro.workload.driver import WorkloadDriver

#: Handle name -> class whose constructor is wrapped.
CAPTURED: dict[str, type] = {
    "env": Environment,
    "cluster": Cluster,
    "driver": WorkloadDriver,
    "engine": SessionEngine,
    "replication": ReplicationManager,
    "coordinator": FailoverCoordinator,
    "scrub": ScrubDaemon,
    "tier": ReadTier,
    "vacuum": VacuumScheduler,
}


class SetupDone(Exception):
    """Raised at the first ``Environment.run`` to end a set-up-only pass."""


class Probe:
    """Handles and host-clock phase marks of one workload pass.

    ``on_timed`` is called once, at the first ``Environment.run``,
    before the simulation starts; it may raise :class:`SetupDone` to
    stop the pass there.
    """

    def __init__(self, on_timed: typing.Callable[[], None] | None = None):
        self.handles: dict[str, list] = {name: [] for name in CAPTURED}
        self.on_timed = on_timed
        self.started: float | None = None
        self.timed_from: float | None = None
        self.ended: float | None = None

    def first(self, name: str):
        """The first instance of a captured class, or ``None``."""
        found = self.handles[name]
        return found[0] if found else None

    @property
    def setup_s(self) -> float:
        return self.timed_from - self.started

    @property
    def wall_s(self) -> float:
        return self.ended - self.timed_from

    @contextlib.contextmanager
    def attached(self):
        """Wrap the constructors and ``Environment.run`` for one pass."""
        saved: list[tuple[type, str, typing.Any]] = []

        def patch(cls: type, attr: str, wrapper) -> None:
            saved.append((cls, attr, cls.__dict__.get(attr)))
            setattr(cls, attr, wrapper)

        for name, cls in CAPTURED.items():
            patch(cls, "__init__", self._recording_init(name, cls.__init__))
        original_run = Environment.run

        def run(env, *args, **kwargs):
            if self.timed_from is None:
                self.timed_from = time.perf_counter()
                if self.on_timed is not None:
                    self.on_timed()
            return original_run(env, *args, **kwargs)

        patch(Environment, "run", run)
        self.started = time.perf_counter()
        try:
            yield self
        finally:
            self.ended = time.perf_counter()
            for cls, attr, value in reversed(saved):
                if value is None:
                    delattr(cls, attr)
                else:
                    setattr(cls, attr, value)

    def _recording_init(self, name: str, original):
        found = self.handles[name]

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            found.append(obj)

        return __init__


def full_pass(workload, seed: int):
    """One unprofiled pass: ``(probe, outcome)``."""
    gc.collect()
    probe = Probe()
    with probe.attached():
        result = workload.run(seed)
    return probe, workload.outcome(result, probe)


def setup_pass(workload, seed: int) -> Probe:
    """Set-up alone: the pass stops at the first ``Environment.run``."""
    def stop():
        raise SetupDone

    gc.collect()
    probe = Probe(stop)
    with probe.attached():
        try:
            workload.run(seed)
        except SetupDone:
            pass
    return probe


def profiled_pass(run: typing.Callable[[int], typing.Any], seed: int):
    """One pass under cProfile, profiled separately for set-up and the
    timed phase: ``(probe, result, setup stats, timed stats)`` with the
    raw ``pstats`` tables.  Builtins are not profiled on their own, so
    their time is the self time of the Python function calling them."""
    setup_profile = cProfile.Profile(builtins=False)
    timed_profile = cProfile.Profile(builtins=False)

    def switch():
        setup_profile.disable()
        timed_profile.enable()

    gc.collect()
    probe = Probe(switch)
    setup_profile.enable()
    try:
        with probe.attached():
            result = run(seed)
    finally:
        setup_profile.disable()
        timed_profile.disable()
    return (probe, result, pstats.Stats(setup_profile).stats,
            pstats.Stats(timed_profile).stats)
