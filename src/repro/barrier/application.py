"""Steady-state application model: rounds of work separated by barriers.

The paper evaluates single barrier episodes with an *imposed* arrival
interval A.  A real application (Figure 2's E/A timeline) alternates
compute phases of length ~E with barriers, and the arrival spread at
each barrier *emerges* from the previous barrier's departure spread
plus compute-time jitter.  This module closes that loop:

- each of N processors repeatedly computes for ``work ~ Uniform[E(1-j),
  E(1+j)]`` cycles and then synchronizes at a Tang-Yew barrier under
  the configured backoff policy;
- the barrier variable and flag live in their own modules (one access
  per cycle, denied accesses retried and counted), shared across
  rounds, so a straggler's drain polls can collide with the next
  round's arrivals — exactly the congestion coupling the paper worries
  about;
- metrics: end-to-end completion time, per-processor network accesses,
  the synchronization traffic rate (accesses per cycle per processor,
  the Section 7.1 quantity), and the emergent mean arrival spread.

This gives the end-to-end answer the paper's per-barrier figures imply:
how much does each policy slow the *application* down, and how much
network traffic does it remove?

The episode loop keeps the two modules' state in locals and does
:class:`~repro.network.module.MemoryModule`'s grant arithmetic inline
(``grant = max(ready, next_free)``, ``next_free = grant + 1``, cost
``grant - ready + 1``, with the module's non-decreasing-ready check and
error text).  Events are ``(time, seq, cpu, kind)`` tuples on one heap,
``seq`` breaking ties in push order; the policy is called, and the
work intervals are drawn, in the same order as a loop that sends every
request through a ``MemoryModule``.  ``tests/test_ext_reference.py``
keeps that loop as the reference this one must match exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.backoff import BackoffPolicy, NoBackoff
from repro.network.module import request_order_error
from repro.sim.rng import spawn_stream
from repro.sim.stats import RunningStats

_REQ_VARIABLE = 0
_REQ_FLAG_READ = 1
_REQ_FLAG_WRITE = 2


@dataclass
class ApplicationRunResult:
    """Outcome of one multi-round application episode."""

    num_processors: int
    rounds: int
    work_interval: int
    completion_time: int = 0
    accesses_per_process: List[int] = field(default_factory=list)
    arrival_spans: List[int] = field(default_factory=list)  # per round

    @property
    def mean_accesses(self) -> float:
        if not self.accesses_per_process:
            return 0.0
        return sum(self.accesses_per_process) / len(self.accesses_per_process)

    @property
    def sync_traffic_rate(self) -> float:
        """Synchronization accesses per cycle per processor (§7.1 metric)."""
        if not self.completion_time or not self.num_processors:
            return 0.0
        total = sum(self.accesses_per_process)
        return total / (self.completion_time * self.num_processors)

    @property
    def mean_arrival_span(self) -> float:
        """Emergent A: mean first-to-last arrival span across rounds."""
        if not self.arrival_spans:
            return 0.0
        return sum(self.arrival_spans) / len(self.arrival_spans)

    @property
    def ideal_completion_time(self) -> float:
        """Lower bound: all rounds of work with zero barrier cost."""
        return self.rounds * self.work_interval

    @property
    def overhead_fraction(self) -> float:
        """(completion - ideal) / ideal — the barrier's end-to-end cost."""
        ideal = self.ideal_completion_time
        if not ideal:
            return 0.0
        return (self.completion_time - ideal) / ideal


@dataclass
class ApplicationAggregate:
    """Aggregate over repeated application episodes."""

    num_processors: int
    policy_name: str
    completion: RunningStats = field(default_factory=RunningStats)
    accesses: RunningStats = field(default_factory=RunningStats)
    traffic_rate: RunningStats = field(default_factory=RunningStats)
    arrival_span: RunningStats = field(default_factory=RunningStats)
    overhead: RunningStats = field(default_factory=RunningStats)

    def add_run(self, run: ApplicationRunResult) -> None:
        self.completion.add(run.completion_time)
        self.accesses.add(run.mean_accesses)
        self.traffic_rate.add(run.sync_traffic_rate)
        self.arrival_span.add(run.mean_arrival_span)
        self.overhead.add(run.overhead_fraction)


class ApplicationSimulator:
    """N processors alternating jittered work and Tang-Yew barriers."""

    def __init__(
        self,
        num_processors: int,
        work_interval: int,
        rounds: int = 10,
        jitter: float = 0.2,
        policy: Optional[BackoffPolicy] = None,
        seed: int = 0,
    ) -> None:
        if num_processors < 1:
            raise ValueError("num_processors must be >= 1")
        if work_interval < 1:
            raise ValueError("work_interval must be >= 1")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.num_processors = num_processors
        self.work_interval = work_interval
        self.rounds = rounds
        self.jitter = jitter
        self.policy = policy if policy is not None else NoBackoff()
        self.seed = seed

    def _work_drawer(self, rng: np.random.Generator) -> Callable[[], int]:
        """A function drawing one round's work cycles from ``rng``."""
        work = self.work_interval
        if self.jitter == 0.0:
            return lambda: work
        low = max(int(work * (1.0 - self.jitter)), 1)
        high = int(work * (1.0 + self.jitter)) + 1
        integers = rng.integers
        return lambda: int(integers(low, high))

    def run_once(self, rng: np.random.Generator) -> ApplicationRunResult:
        n = self.num_processors
        rounds = self.rounds
        variable_wait = self.policy.variable_wait
        flag_wait = self.policy.flag_wait
        draw_work = self._work_drawer(rng)
        heappush = heapq.heappush
        heappop = heapq.heappop

        result = ApplicationRunResult(
            num_processors=n, rounds=rounds, work_interval=self.work_interval
        )
        accesses = [0] * n
        polls = [0] * n
        round_of = [0] * n
        depart = [0] * n

        counts = [0] * rounds
        flag_set: List[Optional[int]] = [None] * rounds
        first_arrival: List[Optional[int]] = [None] * rounds
        last_arrival: List[int] = [0] * rounds

        # Events are (time, seq, cpu, kind); seq breaks time ties in
        # push order.
        heap: List[Tuple[int, int, int, int]] = [
            (draw_work(), cpu, cpu, _REQ_VARIABLE) for cpu in range(n)
        ]
        heapq.heapify(heap)
        seq = n
        # The two modules' state (next free cycle, last ready time).
        variable_free = variable_last = 0
        flag_free = flag_last = 0

        while heap:
            ready, __, cpu, kind = heappop(heap)
            barrier_round = round_of[cpu]

            if kind == _REQ_VARIABLE:
                if ready < variable_last:
                    raise request_order_error(
                        "app-barrier-variable", ready, variable_last
                    )
                variable_last = ready
                grant = ready if ready > variable_free else variable_free
                variable_free = grant + 1
                accesses[cpu] += grant - ready + 1
                if first_arrival[barrier_round] is None:
                    first_arrival[barrier_round] = grant
                last_arrival[barrier_round] = grant
                counts[barrier_round] += 1
                value = counts[barrier_round]
                if value == n:
                    heappush(heap, (grant + 1, seq, cpu, _REQ_FLAG_WRITE))
                else:
                    wait = variable_wait(value, n)
                    heappush(
                        heap,
                        (grant + (wait if wait >= 1 else 1), seq, cpu, _REQ_FLAG_READ),
                    )
                seq += 1
                continue

            if ready < flag_last:
                raise request_order_error("app-barrier-flag", ready, flag_last)
            flag_last = ready
            grant = ready if ready > flag_free else flag_free
            flag_free = grant + 1
            accesses[cpu] += grant - ready + 1
            if kind == _REQ_FLAG_WRITE:
                flag_set[barrier_round] = grant
                done = True
            else:  # _REQ_FLAG_READ
                set_time = flag_set[barrier_round]
                done = set_time is not None and grant > set_time
            if done:
                # Move cpu to the next round (or finish).
                round_of[cpu] = barrier_round + 1
                polls[cpu] = 0
                if barrier_round + 1 < rounds:
                    heappush(heap, (grant + draw_work(), seq, cpu, _REQ_VARIABLE))
                    seq += 1
                else:
                    depart[cpu] = grant
            else:
                polls[cpu] += 1
                wait = flag_wait(polls[cpu])
                heappush(
                    heap, (grant + (wait if wait >= 1 else 1), seq, cpu, _REQ_FLAG_READ)
                )
                seq += 1

        result.completion_time = max(depart) if depart else 0
        result.accesses_per_process = accesses
        result.arrival_spans = [
            last_arrival[k] - (first_arrival[k] or 0) for k in range(rounds)
        ]
        return result

    def run(self, repetitions: int = 20) -> ApplicationAggregate:
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        aggregate = ApplicationAggregate(
            num_processors=self.num_processors, policy_name=self.policy.name
        )
        for rep in range(repetitions):
            rng = spawn_stream(self.seed, f"app-rep-{rep}")
            aggregate.add_run(self.run_once(rng))
        return aggregate


def simulate_application(
    num_processors: int,
    work_interval: int,
    policy: Optional[BackoffPolicy] = None,
    rounds: int = 10,
    jitter: float = 0.2,
    repetitions: int = 20,
    seed: int = 0,
) -> ApplicationAggregate:
    """Convenience wrapper for one application configuration."""
    simulator = ApplicationSimulator(
        num_processors=num_processors,
        work_interval=work_interval,
        rounds=rounds,
        jitter=jitter,
        policy=policy,
        seed=seed,
    )
    return simulator.run(repetitions)
