"""Property test: the kernel vs a reference single-heap kernel.

The event core (DESIGN.md §14) must dispatch in exactly the order the
seed kernel did: timed events in ``(time, seq)`` order, due timed
events before anything in the zero-delay FIFO, zero-delay events FIFO
among themselves.  The determinism goldens pin this on two big model
workloads; this test pins it on *adversarial* random schedules —
zero-delay cascades, same-timestamp cohorts, sub-ulp delays that round
to the current clock, and resource requests cancelled while queued
(heap tombstones).

The reference kernel below is the seed algorithm: one global ``heapq``
keyed ``(time, seq, event)`` plus the zero-delay deque, run with the
seed's interleave rule.  It duck-types ``Environment`` closely enough
to reuse the real ``Event``/``Timeout``/``Process``/``Resource``
classes, so both kernels execute the *same* workload code and only the
scheduler differs.
"""

import collections
import heapq

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Environment, Process
from repro.sim.events import PENDING
from repro.sim.resources import Resource


class ReferenceEnvironment:
    """The seed kernel: single global heap + zero-delay FIFO."""

    def __init__(self):
        self._now = 0.0
        self._heap = []
        self._fast = collections.deque()
        self._seq = 0
        self._crashes = []
        self.events_processed = 0
        self.fast_scheduled = 0
        self.heap_scheduled = 0
        self.heap_peak = 0
        self.resource_fast_grants = 0

    @property
    def now(self):
        return self._now

    def _schedule(self, event, delay):
        if delay == 0:
            self.fast_scheduled += 1
            self._fast.append(event)
            return
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        self.heap_scheduled += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))

    def _queue_event(self, event):
        self.fast_scheduled += 1
        self._fast.append(event)

    def _call_soon(self, thunk):
        from repro.sim.events import Event

        event = Event(self)
        event.callbacks.append(lambda _e: thunk())
        event._ok = True
        event._value = None
        self._fast.append(event)

    def _note_crash(self, process, exc):
        self._crashes.append((process, exc))

    def timeout(self, delay, value=None):
        from repro.sim.events import Timeout

        return Timeout(self, delay, value)

    def process(self, generator, name=None):
        return Process(self, generator, name=name)

    def run(self):
        heap = self._heap
        fast = self._fast
        while heap or fast:
            # The seed's interleave rule: heap entries already due
            # preempt the zero-delay FIFO; the clock advances only once
            # both are exhausted.
            if heap and heap[0][0] <= self._now:
                event = heapq.heappop(heap)[2]
            elif fast:
                event = fast.popleft()
            else:
                when, _seq, event = heapq.heappop(heap)
                self._now = when
            self.events_processed += 1
            event._processed = True
            callbacks, event.callbacks = event.callbacks, []
            for callback in callbacks:
                callback(event)
            if self._crashes:
                _process, exc = self._crashes[0]
                raise exc


# Delays chosen to hit every ordering edge: the zero-delay FIFO,
# exact-duplicate cohort members, short and long hops, and a sub-ulp
# delay — once the clock passes about 0.1 s, ``now + 1e-17 == now``, so
# the timed entry is due at once and must preempt the FIFO.
DELAYS = [0.0, 1e-17, 0.0001, 0.00025, 0.0005, 0.0005, 0.001, 0.0013,
          0.01, 0.25, 1.5, 5.0]

step_strategy = st.tuples(
    st.sampled_from(["timeout", "hold", "cancel"]),
    st.sampled_from(DELAYS),
)
program_strategy = st.lists(
    st.lists(step_strategy, min_size=1, max_size=6),
    min_size=1, max_size=8,
)


def _execute(env, resource, program):
    """Run ``program`` on ``env``; return the dispatch trace."""
    trace = []

    def runner(pid, script):
        for step_index, (op, delay) in enumerate(script):
            if op == "timeout":
                yield env.timeout(delay)
            elif op == "hold":
                request = resource.request(priority=step_index % 3)
                yield request
                yield env.timeout(delay)
                resource.release(request)
            else:  # cancel: give up while (possibly) still queued
                request = resource.request(priority=2)
                yield env.timeout(delay if delay else 0.0001)
                granted = request._value is not PENDING
                resource.release(request)
                trace.append((env.now, pid, step_index, granted))
                continue
            trace.append((env.now, pid, step_index))

    for pid, script in enumerate(program):
        env.process(runner(pid, script), name=f"p{pid}")
    env.run()
    return trace


@settings(max_examples=120, deadline=None)
@given(program=program_strategy)
def test_kernel_matches_single_heap_reference(program):
    real_env = Environment()
    real_trace = _execute(real_env, Resource(real_env, capacity=1), program)

    ref_env = ReferenceEnvironment()
    ref_trace = _execute(ref_env, Resource(ref_env, capacity=1), program)

    assert real_trace == ref_trace
    assert real_env.now == ref_env.now
    # Same number of timed schedules on both sides: the kernel did not
    # silently reroute timed work through the zero-delay FIFO.
    assert real_env.heap_scheduled == ref_env.heap_scheduled
