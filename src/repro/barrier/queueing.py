"""Spin vs block vs spin-then-queue barriers (Sections 1, 4 and 7).

The paper frames blocking as the alternative to spinning:

    "alternate barrier implementations might use a scheme where all but
    the last processor to arrive at the barrier are put to sleep ...
    This method avoids the extra network traffic of polling a barrier
    flag, but incurs the potentially high overhead of enqueuing a
    process on a condition variable"

and proposes the adaptive hybrid:

    "If the backoff amount crosses some preset threshold, then it might
    be worthwhile to place the process on a queue pending the arrival
    of the last process."

Model: a process that queues pays ``enqueue_overhead`` cycles (plus two
network accesses to manipulate the queue) and stops polling.  When the
last process sets the flag it wakes the queue: the ``k``-th queued
process resumes ``wakeup_overhead + k`` cycles after the flag write
(wake-ups are serialised through the queue lock, one per cycle), at a
cost of one network access each.

:class:`QueueingBarrierSimulator` runs a Tang-Yew barrier whose policy
may answer ``should_queue(polls) == True``; with
:class:`~repro.core.barrier.BlockingBarrier` semantics (queue
immediately, never poll) it degenerates to the pure blocking scheme.

The episode loop keeps the barrier variable's and flag's module state
(next free cycle, last ready time, access total) in locals and does
:class:`~repro.network.module.MemoryModule`'s grant arithmetic inline,
with the module's non-decreasing-ready check and error text.  Events
are ``(time, seq, cpu, kind)`` tuples on one heap, ``seq`` breaking
ties in push order, and the policy is asked in the same order as a
loop that sends every request through a
:class:`~repro.network.model.NetworkModel`.
``tests/test_ext_reference.py`` keeps that loop as the reference this
one must match exactly.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.barrier.arrivals import ArrivalProcess, UniformArrivals
from repro.barrier.metrics import BarrierAggregate, BarrierRunResult
from repro.core.backoff import BackoffPolicy, ThresholdQueueBackoff
from repro.core.barrier import BlockingBarrier, TangYewBarrier
from repro.network.module import request_order_error
from repro.sim.rng import spawn_stream

_REQ_VARIABLE = 0
_REQ_FLAG_READ = 1
_REQ_FLAG_WRITE = 2


class QueueingBarrierSimulator:
    """Tang-Yew barrier where processes may block instead of spinning."""

    def __init__(
        self,
        barrier: Union[TangYewBarrier, BlockingBarrier],
        arrivals: Optional[ArrivalProcess] = None,
        seed: int = 0,
        enqueue_overhead: int = 100,
        wakeup_overhead: int = 100,
    ) -> None:
        self.barrier = barrier
        self.arrivals = arrivals if arrivals is not None else UniformArrivals(0)
        self.seed = seed
        if isinstance(barrier, BlockingBarrier):
            self.enqueue_overhead = barrier.enqueue_overhead
            self.wakeup_overhead = barrier.wakeup_overhead
            self._always_queue = True
            self._policy: Optional[BackoffPolicy] = None
        else:
            self.enqueue_overhead = enqueue_overhead
            self.wakeup_overhead = wakeup_overhead
            self._always_queue = False
            self._policy = barrier.backoff

    def run_once(self, rng: np.random.Generator) -> BarrierRunResult:
        n = self.barrier.num_processors
        always_queue = self._always_queue
        policy = self._policy
        if policy is not None:
            variable_wait = policy.variable_wait
            flag_wait = policy.flag_wait
            should_queue = policy.should_queue
        wakeup_overhead = self.wakeup_overhead
        heappush = heapq.heappush
        heappop = heapq.heappop

        arrival_times = self.arrivals.draw(n, rng)
        accesses = [0] * n
        polls = [0] * n
        depart = [0] * n
        queued: List[int] = []  # cpus asleep, in enqueue order

        # Events are (time, seq, cpu, kind); seq breaks time ties in
        # push order.
        heap: List[Tuple[int, int, int, int]] = [
            (when, cpu, cpu, _REQ_VARIABLE) for cpu, when in enumerate(arrival_times)
        ]
        heapq.heapify(heap)
        seq = len(heap)

        barrier_count = 0
        flag_set_time: Optional[int] = None
        # The two modules' state: next free cycle, last ready time and
        # accesses (denied cycles included).
        variable_free = variable_last = variable_accesses = 0
        flag_free = flag_last = flag_accesses = 0

        def enqueue(cpu: int) -> None:
            # Two accesses to manipulate the shared queue under its lock.
            accesses[cpu] += 2
            queued.append(cpu)

        while heap:
            ready, __, cpu, kind = heappop(heap)

            if kind == _REQ_VARIABLE:
                if ready < variable_last:
                    raise request_order_error("barrier-variable", ready, variable_last)
                variable_last = ready
                grant = ready if ready > variable_free else variable_free
                variable_free = grant + 1
                cost = grant - ready + 1
                variable_accesses += cost
                accesses[cpu] += cost
                barrier_count += 1
                value = barrier_count
                if value == n:
                    heappush(heap, (grant + 1, seq, cpu, _REQ_FLAG_WRITE))
                    seq += 1
                elif always_queue:
                    enqueue(cpu)
                else:
                    wait = variable_wait(value, n)
                    heappush(
                        heap,
                        (grant + (wait if wait >= 1 else 1), seq, cpu, _REQ_FLAG_READ),
                    )
                    seq += 1
                continue

            if ready < flag_last:
                raise request_order_error("barrier-flag", ready, flag_last)
            flag_last = ready
            grant = ready if ready > flag_free else flag_free
            flag_free = grant + 1
            cost = grant - ready + 1
            flag_accesses += cost
            accesses[cpu] += cost

            if kind == _REQ_FLAG_WRITE:
                flag_set_time = grant
                depart[cpu] = grant
                # Wake the sleepers: one per cycle through the queue.
                for position, sleeper in enumerate(queued):
                    accesses[sleeper] += 1  # wake-up notification
                    depart[sleeper] = grant + wakeup_overhead + position + 1
                continue

            # _REQ_FLAG_READ
            if flag_set_time is not None and grant > flag_set_time:
                depart[cpu] = grant
                continue
            polls[cpu] += 1
            if should_queue(polls[cpu]):
                enqueue(cpu)
            else:
                wait = flag_wait(polls[cpu])
                heappush(
                    heap, (grant + (wait if wait >= 1 else 1), seq, cpu, _REQ_FLAG_READ)
                )
                seq += 1

        policy_name = "blocking" if always_queue else f"queue/{policy.name}"
        result = BarrierRunResult(
            num_processors=n,
            interval_a=self.arrivals.interval,
            policy_name=policy_name,
        )
        result.accesses_per_process = accesses
        # Enqueue overhead delays the *process*, not the flag: waiting
        # time for a sleeper runs to its wake-up completion.
        result.waiting_times = [depart[cpu] - arrival_times[cpu] for cpu in range(n)]
        result.flag_set_time = flag_set_time
        result.completion_time = max(depart) if depart else 0
        result.variable_accesses = variable_accesses
        result.flag_accesses = flag_accesses
        result.queued_processes = len(queued)
        return result

    def run(self, repetitions: int = 100) -> BarrierAggregate:
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        label = "blocking" if self._always_queue else "queue-hybrid"
        aggregate = BarrierAggregate(
            num_processors=self.barrier.num_processors,
            interval_a=self.arrivals.interval,
            policy_name=label,
        )
        for rep in range(repetitions):
            rng = spawn_stream(self.seed, f"queue-rep-{rep}")
            aggregate.add_run(self.run_once(rng))
        return aggregate


def simulate_blocking_barrier(
    num_processors: int,
    interval_a: int,
    enqueue_overhead: int = 100,
    wakeup_overhead: int = 100,
    repetitions: int = 100,
    seed: int = 0,
) -> BarrierAggregate:
    """Pure blocking barrier at one (N, A) point."""
    barrier = BlockingBarrier(
        num_processors,
        enqueue_overhead=enqueue_overhead,
        wakeup_overhead=wakeup_overhead,
    )
    return QueueingBarrierSimulator(
        barrier, UniformArrivals(interval_a), seed=seed
    ).run(repetitions)


def simulate_threshold_barrier(
    num_processors: int,
    interval_a: int,
    inner_policy: BackoffPolicy,
    threshold: int,
    enqueue_overhead: int = 100,
    wakeup_overhead: int = 100,
    repetitions: int = 100,
    seed: int = 0,
) -> BarrierAggregate:
    """Spin-then-queue hybrid at one (N, A) point."""
    policy = ThresholdQueueBackoff(inner_policy, threshold)
    barrier = TangYewBarrier(num_processors, backoff=policy)
    return QueueingBarrierSimulator(
        barrier,
        UniformArrivals(interval_a),
        seed=seed,
        enqueue_overhead=enqueue_overhead,
        wakeup_overhead=wakeup_overhead,
    ).run(repetitions)
