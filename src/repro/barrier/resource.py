"""Resource waiting with adaptive backoff (Section 8).

    "this technique can be applied to processors waiting on a resource.
    Processors waiting to access a resource can backoff testing the
    resource by an amount proportional to the number of processors
    waiting ... Adaptive techniques will likely perform much better in
    this situation than with barrier synchronizations because the
    amount of time a processor has to wait at a resource is directly
    proportional to the number of processors waiting."

Model: N processors each need a shared resource (a lock word in one
memory module) ``acquisitions`` times.  An acquisition attempt is a
network RMW against the module (denied cycles counted, as everywhere).
If the attempt is granted while the resource is free the processor
holds it for ``hold_time`` cycles and then releases it with one more
network access.  If the resource is busy the attempt fails; the lock
strategy (:mod:`repro.core.locks`) decides the retry delay — the
adaptive :class:`~repro.core.locks.BackoffLock` waits ``hold_time *
waiters_ahead`` cycles.

Metrics: network accesses per processor and makespan (time until the
last processor finishes all its acquisitions).

The episode loop keeps the lock word's module state in locals and does
:class:`~repro.network.module.MemoryModule`'s grant arithmetic inline
(``grant = max(ready, next_free)``, ``next_free = grant + 1``, cost
``grant - ready + 1``, with the module's non-decreasing-ready check and
error text).  Events are ``(time, seq, cpu, kind)`` tuples on one heap,
``seq`` breaking ties in push order, and the lock strategy is asked in
the same order as a loop that sends every request through a
``MemoryModule``.  ``tests/test_ext_reference.py`` keeps that loop as
the reference this one must match exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.barrier.arrivals import ArrivalProcess, UniformArrivals
from repro.network.module import request_order_error
from repro.sim.rng import spawn_stream
from repro.sim.stats import RunningStats

_REQ_ACQUIRE = 0
_REQ_RELEASE = 1


@dataclass
class ResourceRunResult:
    """Outcome of one resource-contention episode."""

    num_processors: int
    strategy_name: str
    accesses_per_process: List[int] = field(default_factory=list)
    finish_times: List[int] = field(default_factory=list)
    failed_attempts: int = 0
    #: Processors that hit their lock's ``max_attempts`` bound and gave
    #: up without finishing all acquisitions (degraded outcome).
    aborted: List[int] = field(default_factory=list)

    @property
    def mean_accesses(self) -> float:
        if not self.accesses_per_process:
            return 0.0
        return sum(self.accesses_per_process) / len(self.accesses_per_process)

    @property
    def makespan(self) -> int:
        return max(self.finish_times) if self.finish_times else 0

    @property
    def degraded(self) -> bool:
        """True if any processor aborted its acquisition loop."""
        return bool(self.aborted)


@dataclass
class ResourceAggregate:
    """Aggregate over repeated resource episodes."""

    num_processors: int
    strategy_name: str
    accesses: RunningStats = field(default_factory=RunningStats)
    makespan: RunningStats = field(default_factory=RunningStats)

    def add_run(self, run: ResourceRunResult) -> None:
        self.accesses.add(run.mean_accesses)
        self.makespan.add(run.makespan)

    @property
    def mean_accesses(self) -> float:
        return self.accesses.mean

    @property
    def mean_makespan(self) -> float:
        return self.makespan.mean


class ResourceSimulator:
    """N processors contending for one resource through one module."""

    def __init__(
        self,
        num_processors: int,
        strategy,
        hold_time: int = 8,
        acquisitions: int = 1,
        arrivals: Optional[ArrivalProcess] = None,
        seed: int = 0,
    ) -> None:
        if num_processors < 1:
            raise ValueError("num_processors must be >= 1")
        if hold_time < 1:
            raise ValueError("hold_time must be >= 1")
        if acquisitions < 1:
            raise ValueError("acquisitions must be >= 1")
        self.num_processors = num_processors
        self.strategy = strategy
        self.hold_time = hold_time
        self.acquisitions = acquisitions
        self.arrivals = arrivals if arrivals is not None else UniformArrivals(0)
        self.seed = seed

    def run_once(self, rng: np.random.Generator) -> ResourceRunResult:
        n = self.num_processors
        hold_time = self.hold_time
        retry_wait = self.strategy.retry_wait
        should_abort = getattr(self.strategy, "should_abort", None)
        heappush = heapq.heappush
        heappop = heapq.heappop
        arrival_times = self.arrivals.draw(n, rng)

        accesses = [0] * n
        attempts = [0] * n
        remaining = [self.acquisitions] * n
        finish = [0] * n
        aborted: List[int] = []
        failed_attempts = 0

        # Module grants are strictly increasing in processing order, so
        # a boolean evaluated at processing time is exactly the lock
        # state at the attempt's grant time.
        held = False
        waiters = 0  # processors that have failed and not yet acquired
        waiting_flags = [False] * n

        # Events are (time, seq, cpu, kind); seq breaks time ties in
        # push order.
        heap: List[Tuple[int, int, int, int]] = [
            (when, cpu, cpu, _REQ_ACQUIRE) for cpu, when in enumerate(arrival_times)
        ]
        heapq.heapify(heap)
        seq = len(heap)
        # The lock word's module: next free cycle, last ready time.
        free = last = 0

        while heap:
            ready, __, cpu, kind = heappop(heap)
            if ready < last:
                raise request_order_error("resource-lock", ready, last)
            last = ready
            grant = ready if ready > free else free
            free = grant + 1
            accesses[cpu] += grant - ready + 1

            if kind == _REQ_RELEASE:
                # The lock is free once the release write is granted.
                held = False
                if remaining[cpu] > 0:
                    heappush(heap, (grant + 1, seq, cpu, _REQ_ACQUIRE))
                    seq += 1
                else:
                    finish[cpu] = grant
                continue

            # _REQ_ACQUIRE: an RMW test&set against the lock word.
            if not held:
                # Acquired: hold, then release.
                held = True
                if waiting_flags[cpu]:
                    waiting_flags[cpu] = False
                    waiters -= 1
                attempts[cpu] = 0
                remaining[cpu] -= 1
                # The release write is presented when the hold ends.
                heappush(heap, (grant + hold_time, seq, cpu, _REQ_RELEASE))
                seq += 1
                continue
            failed_attempts += 1
            if not waiting_flags[cpu]:
                waiting_flags[cpu] = True
                waiters += 1
            tries = attempts[cpu] = attempts[cpu] + 1
            if should_abort is not None and should_abort(tries):
                # Degraded mode: the lock's attempt bound is exhausted;
                # give up instead of spinning forever.
                waiting_flags[cpu] = False
                waiters -= 1
                aborted.append(cpu)
                finish[cpu] = grant
                continue
            wait = retry_wait(tries, waiters - 1 if waiters > 1 else 0)
            heappush(heap, (grant + (wait if wait >= 1 else 1), seq, cpu, _REQ_ACQUIRE))
            seq += 1

        return ResourceRunResult(
            num_processors=n,
            strategy_name=self.strategy.name,
            accesses_per_process=accesses,
            finish_times=finish,
            failed_attempts=failed_attempts,
            aborted=aborted,
        )

    def run(self, repetitions: int = 50) -> ResourceAggregate:
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        aggregate = ResourceAggregate(
            num_processors=self.num_processors,
            strategy_name=self.strategy.name,
        )
        for rep in range(repetitions):
            rng = spawn_stream(self.seed, f"resource-rep-{rep}")
            aggregate.add_run(self.run_once(rng))
        return aggregate


def simulate_resource(
    num_processors: int,
    strategy,
    hold_time: int = 8,
    acquisitions: int = 1,
    interval_a: int = 0,
    repetitions: int = 50,
    seed: int = 0,
) -> ResourceAggregate:
    """Convenience wrapper for one resource-contention configuration."""
    simulator = ResourceSimulator(
        num_processors=num_processors,
        strategy=strategy,
        hold_time=hold_time,
        acquisitions=acquisitions,
        arrivals=UniformArrivals(interval_a),
        seed=seed,
    )
    return simulator.run(repetitions)
