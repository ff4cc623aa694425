"""Differential oracle: the barrier extension simulators against their
reference loops.

``ReferenceApplicationSimulator``, ``ReferenceResourceSimulator`` and
``ReferenceQueueingBarrierSimulator`` below carry the application,
resource and queueing episode loops as first written: every grant goes
through a :class:`~repro.network.module.MemoryModule` and every event
through a ``push`` closure.  ``ReferenceSnoopySimulator`` carries the
snoopy-bus protocol as per-reference ``_process``/``_read``/``_write``/
``_fill`` methods, and ``ReferenceCoherentBarrierSimulator`` steps every
cpu through every cycle of an episode and builds a fresh backend for
each one.  They are kept here, test-only and unchanged, as the
specification the inlined loops in :mod:`repro.barrier.application`,
:mod:`repro.barrier.resource`, :mod:`repro.barrier.queueing` and
:mod:`repro.memory.snoopy`, and the event-driven episodes and
reset-in-place backend of :mod:`repro.barrier.coherent`, must reproduce
exactly: every result field, every running-statistic moment, the error
texts, and the cache, sharer and directory state left behind.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.barrier.application import (
    _REQ_FLAG_READ,
    _REQ_FLAG_WRITE,
    _REQ_VARIABLE,
    ApplicationRunResult,
    ApplicationSimulator,
)
from repro.barrier.arrivals import ArrivalProcess, FixedArrivals, UniformArrivals
from repro.barrier.coherent import (
    _FLAG_ADDRESS,
    _RMW,
    _READ,
    _VARIABLE_ADDRESS,
    _WRITE,
    CoherentBarrierResult,
    CoherentBarrierSimulator,
)
from repro.barrier.metrics import BarrierRunResult
from repro.barrier.queueing import QueueingBarrierSimulator
from repro.barrier.resource import (
    _REQ_ACQUIRE,
    _REQ_RELEASE,
    ResourceRunResult,
    ResourceSimulator,
)
from repro.core.backoff import (
    ExponentialFlagBackoff,
    LinearFlagBackoff,
    RandomizedExponentialBackoff,
    ThresholdQueueBackoff,
    VariableBackoff,
    paper_policies,
)
from repro.core.barrier import BlockingBarrier, TangYewBarrier
from repro.core.locks import BackoffLock, TestAndSetLock, TestAndTestAndSetLock
from repro.memory.coherence import CoherenceSimulator
from repro.memory.snoopy import SnoopyConfig, SnoopySimulator
from repro.network.model import NetworkModel
from repro.network.module import MemoryModule
from repro.sim.rng import spawn_stream
from repro.sim.stats import RunningStats
from repro.trace.record import Op, TraceRecord

# ----------------------------------------------------------------------
# Reference implementations (verbatim copies of the original loops).
# ----------------------------------------------------------------------


class ReferenceApplicationSimulator(ApplicationSimulator):
    """Application episodes through MemoryModule (reference copy)."""

    def _draw_work(self, rng: np.random.Generator) -> int:
        if self.jitter == 0.0:
            return self.work_interval
        low = int(self.work_interval * (1.0 - self.jitter))
        high = int(self.work_interval * (1.0 + self.jitter))
        return int(rng.integers(max(low, 1), high + 1))

    def run_once(self, rng: np.random.Generator) -> ApplicationRunResult:
        n = self.num_processors
        policy = self.policy
        variable_module = MemoryModule("app-barrier-variable")
        flag_module = MemoryModule("app-barrier-flag")

        result = ApplicationRunResult(
            num_processors=n, rounds=self.rounds, work_interval=self.work_interval
        )
        accesses = [0] * n
        polls = [0] * n
        round_of = [0] * n
        depart = [0] * n

        counts = [0] * self.rounds
        flag_set: List[Optional[int]] = [None] * self.rounds
        first_arrival: List[Optional[int]] = [None] * self.rounds
        last_arrival: List[int] = [0] * self.rounds

        heap: List[Tuple[int, int, int, int]] = []
        seq = 0

        def push(time: int, cpu: int, kind: int) -> None:
            nonlocal seq
            heapq.heappush(heap, (time, seq, cpu, kind))
            seq += 1

        for cpu in range(n):
            push(self._draw_work(rng), cpu, _REQ_VARIABLE)

        def advance(cpu: int, now: int) -> None:
            """Move cpu to the next round (or finish)."""
            round_of[cpu] += 1
            polls[cpu] = 0
            if round_of[cpu] < self.rounds:
                push(now + self._draw_work(rng), cpu, _REQ_VARIABLE)
            else:
                depart[cpu] = now

        while heap:
            ready, __, cpu, kind = heapq.heappop(heap)
            barrier_round = round_of[cpu]

            if kind == _REQ_VARIABLE:
                grant, cost = variable_module.request(ready)
                accesses[cpu] += cost
                if first_arrival[barrier_round] is None:
                    first_arrival[barrier_round] = grant
                last_arrival[barrier_round] = grant
                counts[barrier_round] += 1
                value = counts[barrier_round]
                if value == n:
                    push(grant + 1, cpu, _REQ_FLAG_WRITE)
                else:
                    wait = max(policy.variable_wait(value, n), 1)
                    push(grant + wait, cpu, _REQ_FLAG_READ)
                continue

            if kind == _REQ_FLAG_WRITE:
                grant, cost = flag_module.request(ready)
                accesses[cpu] += cost
                flag_set[barrier_round] = grant
                advance(cpu, grant)
                continue

            # _REQ_FLAG_READ
            grant, cost = flag_module.request(ready)
            accesses[cpu] += cost
            set_time = flag_set[barrier_round]
            if set_time is not None and grant > set_time:
                advance(cpu, grant)
            else:
                polls[cpu] += 1
                wait = max(policy.flag_wait(polls[cpu]), 1)
                push(grant + wait, cpu, _REQ_FLAG_READ)

        result.completion_time = max(depart) if depart else 0
        result.accesses_per_process = accesses
        result.arrival_spans = [
            last_arrival[k] - (first_arrival[k] or 0) for k in range(self.rounds)
        ]
        return result


class ReferenceResourceSimulator(ResourceSimulator):
    """Resource episodes through MemoryModule (reference copy)."""

    def run_once(self, rng: np.random.Generator) -> ResourceRunResult:
        n = self.num_processors
        module = MemoryModule("resource-lock")
        arrival_times = self.arrivals.draw(n, rng)

        accesses = [0] * n
        attempts = [0] * n
        remaining = [self.acquisitions] * n
        finish = [0] * n
        result = ResourceRunResult(
            num_processors=n, strategy_name=self.strategy.name
        )

        # Module grants are strictly increasing in processing order, so
        # a boolean evaluated at processing time is exactly the lock
        # state at the attempt's grant time.
        held = False
        waiters = 0  # processors that have failed and not yet acquired

        heap: List[Tuple[int, int, int, int]] = []
        seq = 0

        def push(time: int, cpu: int, kind: int) -> None:
            nonlocal seq
            heapq.heappush(heap, (time, seq, cpu, kind))
            seq += 1

        for cpu, when in enumerate(arrival_times):
            push(when, cpu, _REQ_ACQUIRE)

        waiting_flags = [False] * n

        while heap:
            ready, __, cpu, kind = heapq.heappop(heap)

            if kind == _REQ_RELEASE:
                grant, cost = module.request(ready)
                accesses[cpu] += cost
                # The lock is free once the release write is granted.
                held = False
                if remaining[cpu] > 0:
                    push(grant + 1, cpu, _REQ_ACQUIRE)
                else:
                    finish[cpu] = grant
                continue

            # _REQ_ACQUIRE: an RMW test&set against the lock word.
            grant, cost = module.request(ready)
            accesses[cpu] += cost
            if not held:
                # Acquired: hold, then release.
                held = True
                if waiting_flags[cpu]:
                    waiting_flags[cpu] = False
                    waiters -= 1
                attempts[cpu] = 0
                remaining[cpu] -= 1
                # The release write is presented when the hold ends.
                push(grant + self.hold_time, cpu, _REQ_RELEASE)
            else:
                result.failed_attempts += 1
                if not waiting_flags[cpu]:
                    waiting_flags[cpu] = True
                    waiters += 1
                attempts[cpu] += 1
                should_abort = getattr(self.strategy, "should_abort", None)
                if should_abort is not None and should_abort(attempts[cpu]):
                    # Degraded mode: the lock's attempt bound is
                    # exhausted; give up instead of spinning forever.
                    waiting_flags[cpu] = False
                    waiters -= 1
                    result.aborted.append(cpu)
                    finish[cpu] = grant
                    continue
                ahead = max(waiters - 1, 0)
                wait = max(self.strategy.retry_wait(attempts[cpu], ahead), 1)
                push(grant + wait, cpu, _REQ_ACQUIRE)

        result.accesses_per_process = accesses
        result.finish_times = finish
        return result


class ReferenceQueueingBarrierSimulator(QueueingBarrierSimulator):
    """Queueing episodes through NetworkModel (reference copy)."""

    def run_once(self, rng: np.random.Generator) -> BarrierRunResult:
        n = self.barrier.num_processors
        network = NetworkModel()
        variable_module = network.variable_module
        flag_module = network.flag_module

        arrival_times = self.arrivals.draw(n, rng)
        accesses = [0] * n
        polls = [0] * n
        depart = [0] * n
        queued: List[int] = []  # cpus asleep, in enqueue order

        heap: List[Tuple[int, int, int, int]] = []
        seq = 0

        def push(time: int, cpu: int, kind: int) -> None:
            nonlocal seq
            heapq.heappush(heap, (time, seq, cpu, kind))
            seq += 1

        for cpu, when in enumerate(arrival_times):
            push(when, cpu, _REQ_VARIABLE)

        barrier_count = 0
        flag_set_time: Optional[int] = None

        def enqueue(cpu: int, at: int) -> None:
            # Two accesses to manipulate the shared queue under its lock.
            accesses[cpu] += 2
            queued.append(cpu)

        while heap:
            ready, __, cpu, kind = heapq.heappop(heap)

            if kind == _REQ_VARIABLE:
                grant, cost = variable_module.request(ready)
                accesses[cpu] += cost
                barrier_count += 1
                value = barrier_count
                if value == n:
                    push(grant + 1, cpu, _REQ_FLAG_WRITE)
                elif self._always_queue:
                    enqueue(cpu, grant + self.enqueue_overhead)
                else:
                    assert self._policy is not None
                    wait = max(self._policy.variable_wait(value, n), 1)
                    push(grant + wait, cpu, _REQ_FLAG_READ)
                continue

            if kind == _REQ_FLAG_WRITE:
                grant, cost = flag_module.request(ready)
                accesses[cpu] += cost
                flag_set_time = grant
                depart[cpu] = grant
                # Wake the sleepers: one per cycle through the queue.
                for position, sleeper in enumerate(queued):
                    accesses[sleeper] += 1  # wake-up notification
                    depart[sleeper] = (
                        grant + self.wakeup_overhead + position + 1
                    )
                continue

            # _REQ_FLAG_READ
            grant, cost = flag_module.request(ready)
            accesses[cpu] += cost
            if flag_set_time is not None and grant > flag_set_time:
                depart[cpu] = grant
            else:
                polls[cpu] += 1
                assert self._policy is not None
                if self._policy.should_queue(polls[cpu]):
                    enqueue(cpu, grant + self.enqueue_overhead)
                else:
                    wait = max(self._policy.flag_wait(polls[cpu]), 1)
                    push(grant + wait, cpu, _REQ_FLAG_READ)

        policy_name = (
            "blocking" if self._always_queue else f"queue/{self._policy.name}"
        )
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
        result.variable_accesses = variable_module.total_accesses
        result.flag_accesses = flag_module.total_accesses
        result.queued_processes = len(queued)
        return result


class ReferenceSnoopySimulator(SnoopySimulator):
    """The snoopy-bus protocol, one method call per reference
    (reference copy)."""

    def replay(self, cpus, op_codes, addresses, sync_flags) -> None:
        """Apply references given as parallel columns (op codes as in
        :attr:`~repro.trace.record.Op.code`)."""
        process = self._process
        for cpu, code, address, is_sync in zip(
            cpus, op_codes, addresses, sync_flags
        ):
            process(cpu, code == 0, address, is_sync)

    def process(self, record: TraceRecord) -> None:
        self._process(
            record.cpu, record.op is Op.READ, record.address, record.is_sync
        )

    def _process(self, cpu: int, is_read: bool, address: int, is_sync: bool) -> None:
        stats = self.stats
        stats.refs += 1
        if is_sync:
            stats.sync_refs += 1
        block = address >> self._block_shift
        before = stats.bus_transactions
        if is_read:
            self._read(cpu, block)
        else:
            self._write(cpu, block)
        if is_sync:
            stats.sync_bus_transactions += stats.bus_transactions - before

    # ------------------------------------------------------------------
    # Protocol actions.
    # ------------------------------------------------------------------

    def _sharer_set(self, block: int) -> Set[int]:
        sharers = self._sharers.get(block)
        if sharers is None:
            sharers = set()
            self._sharers[block] = sharers
        return sharers

    def _read(self, cpu: int, block: int) -> None:
        cache = self.caches[cpu]
        stats = self.stats
        if cache.probe(block):
            stats.hits += 1
            return
        stats.misses += 1
        stats.bus_transactions += 1
        stats.reads_on_bus += 1
        sharers = self._sharer_set(block)
        # A dirty remote copy flushes onto the bus and downgrades.
        for other in sharers:
            if self.caches[other].is_dirty(block):
                stats.bus_transactions += 1
                stats.flushes += 1
                self.caches[other].mark_clean(block)
                break
        sharers.add(cpu)
        self._fill(cpu, block, dirty=False)

    def _write(self, cpu: int, block: int) -> None:
        cache = self.caches[cpu]
        stats = self.stats
        sharers = self._sharer_set(block)
        update_protocol = self.config.protocol == "update"

        if cache.probe(block):
            stats.hits += 1
            others = sharers - {cpu}
            if cache.is_dirty(block) and not others:
                return  # exclusive modified: silent
            if not others:
                # Clean and exclusive: invalidate protocol upgrades
                # silently snooping nothing; update likewise local.
                cache.mark_dirty(block)
                return
            if update_protocol:
                # Broadcast the new word; other copies stay valid.
                stats.bus_transactions += 1
                stats.updates += 1
                # Memory is updated too: the writer's copy stays clean.
                return
            # Invalidate protocol: one broadcast upgrade kills them all.
            stats.bus_transactions += 1
            stats.upgrades += 1
            for other in others:
                self.caches[other].invalidate(block)
                stats.copies_invalidated += 1
            sharers.intersection_update({cpu})
            cache.mark_dirty(block)
            return

        # Write miss.
        stats.misses += 1
        others = set(sharers)
        dirty_other = next(
            (o for o in others if self.caches[o].is_dirty(block)), None
        )
        if update_protocol:
            stats.bus_transactions += 1
            stats.reads_on_bus += 1
            if dirty_other is not None:
                stats.bus_transactions += 1
                stats.flushes += 1
                self.caches[dirty_other].mark_clean(block)
            if others:
                stats.bus_transactions += 1
                stats.updates += 1
                sharers.add(cpu)
                self._fill(cpu, block, dirty=False)
            else:
                sharers.add(cpu)
                self._fill(cpu, block, dirty=True)
            return

        if self.config.fetch_intent_write:
            # Read-exclusive: one transaction fetches and invalidates.
            stats.bus_transactions += 1
            stats.reads_on_bus += 1
        else:
            # Naive: fetch, then a separate upgrade.
            stats.bus_transactions += 2
            stats.reads_on_bus += 1
            stats.upgrades += 1
        if dirty_other is not None:
            stats.bus_transactions += 1
            stats.flushes += 1
        for other in others:
            self.caches[other].invalidate(block)
            stats.copies_invalidated += 1
        sharers.clear()
        sharers.add(cpu)
        self._fill(cpu, block, dirty=True)

    def _fill(self, cpu: int, block: int, dirty: bool) -> None:
        evicted = self.caches[cpu].fill(block, dirty=dirty)
        if evicted is None:
            return
        victim_block, victim_dirty = evicted
        victims = self._sharers.get(victim_block)
        if victims is not None:
            victims.discard(cpu)
            if not victims:
                del self._sharers[victim_block]
        if victim_dirty:
            self.stats.bus_transactions += 1
            self.stats.writebacks += 1


class ReferenceCoherentBarrierSimulator(CoherentBarrierSimulator):
    """Cycle-stepped episodes, a fresh backend each (reference copy)."""

    def _make_backend(self):
        backend = super()._make_backend()
        if isinstance(backend, SnoopySimulator):
            return ReferenceSnoopySimulator(backend.config)
        return backend

    def run_once(self, rng: np.random.Generator) -> CoherentBarrierResult:
        n = self.num_processors
        backend = self._make_backend()
        if self.interval_a == 0:
            arrivals = [0] * n
        else:
            arrivals = sorted(
                int(t) for t in rng.integers(0, self.interval_a + 1, size=n)
            )

        # Per-cpu state: -1 done; 0 awaiting arrival; 1 needs F&A;
        # 2 polling.
        AWAIT, FETCH, POLL, DONE = 0, 1, 2, -1
        state = [AWAIT] * n
        next_action = list(arrivals)
        polls = [0] * n
        count = 0
        flag_written_cycle: Optional[int] = None
        active = n
        cycle = 0
        guard = 0
        # The episode's references, as trace columns; the protocol never
        # feeds back into the episode, so they are replayed in one call.
        cpus, ops, addresses = [], [], []

        while active:
            guard += 1
            if guard > 10_000_000:
                raise RuntimeError("coherent barrier episode did not converge")
            fa_granted_this_cycle = False
            for cpu in range(n):
                if state[cpu] == DONE or next_action[cpu] > cycle:
                    continue
                if state[cpu] == AWAIT:
                    state[cpu] = FETCH
                if state[cpu] == FETCH:
                    if fa_granted_this_cycle:
                        continue  # the atomic is serialized; retry next cycle
                    fa_granted_this_cycle = True
                    cpus.append(cpu)
                    ops.append(_RMW)
                    addresses.append(_VARIABLE_ADDRESS)
                    count += 1
                    if count == n:
                        # Last arrival: write the flag next cycle.
                        cpus.append(cpu)
                        ops.append(_WRITE)
                        addresses.append(_FLAG_ADDRESS)
                        flag_written_cycle = cycle + 1
                        state[cpu] = DONE
                        active -= 1
                    else:
                        wait = max(self.policy.variable_wait(count, n), 1)
                        state[cpu] = POLL
                        next_action[cpu] = cycle + wait
                    continue
                # POLL
                cpus.append(cpu)
                ops.append(_READ)
                addresses.append(_FLAG_ADDRESS)
                if flag_written_cycle is not None and cycle >= flag_written_cycle:
                    state[cpu] = DONE
                    active -= 1
                else:
                    polls[cpu] += 1
                    wait = max(self.policy.flag_wait(polls[cpu]), 1)
                    next_action[cpu] = cycle + wait
            cycle += 1
        backend.replay(cpus, ops, addresses, [True] * len(cpus))

        return CoherentBarrierResult(
            num_processors=n,
            scheme=self.scheme,
            transactions=self._transactions(backend),
            cycles=cycle,
        )

    def run(self, repetitions: int = 20) -> RunningStats:
        """Transactions-per-process statistics over repeated episodes."""
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        stats = RunningStats()
        for rep in range(repetitions):
            rng = spawn_stream(self.seed, f"coherent-rep-{rep}")
            stats.add(self.run_once(rng).transactions_per_process)
        return stats


# ----------------------------------------------------------------------
# Comparison helpers.
# ----------------------------------------------------------------------

#: Policy makers (a fresh instance per simulator: the randomized policy
#: carries its own draw stream).
POLICIES = {
    **{
        label: (lambda label=label: paper_policies()[label])
        for label in paper_policies()
    },
    "linear-3": lambda: LinearFlagBackoff(step=3),
    "variable-1,2": lambda: VariableBackoff(multiplier=1, offset=2),
    "randomized-2": lambda: RandomizedExponentialBackoff(base=2, seed=5),
    "threshold-exp2-64": lambda: ThresholdQueueBackoff(
        ExponentialFlagBackoff(base=2), 64
    ),
    "threshold-randomized-16": lambda: ThresholdQueueBackoff(
        RandomizedExponentialBackoff(base=4, seed=9), 16
    ),
}

#: Processor counts and arrival intervals of the grids (one 128-processor
#: case each runs separately).
PROCESSORS = st.sampled_from([1, 2, 3, 7, 64])
INTERVALS = st.sampled_from([0, 1, 100, 10_000])

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def moments(stats: RunningStats) -> dict:
    return dict(vars(stats))


def aggregate_state(aggregate) -> dict:
    """Every field of an aggregate, running statistics as moments."""
    return {
        name: moments(value) if isinstance(value, RunningStats) else value
        for name, value in vars(aggregate).items()
    }


def episodes(simulator, tag: str, seed: int, count: int = 2) -> list:
    return [
        vars(simulator.run_once(spawn_stream(seed, f"{tag}-{rep}")))
        for rep in range(count)
    ]


def outcome(run):
    """``run()``, or the text of the ValueError it raised."""
    try:
        return run()
    except ValueError as error:
        return f"ValueError: {error}"


# ----------------------------------------------------------------------
# Application, resource and queueing episodes.
# ----------------------------------------------------------------------


def _application_pair(processors, work_interval, rounds, jitter, policy, seed):
    return [
        cls(
            processors,
            work_interval,
            rounds=rounds,
            jitter=jitter,
            policy=POLICIES[policy](),
            seed=seed,
        )
        for cls in (ReferenceApplicationSimulator, ApplicationSimulator)
    ]


def _check_application(processors, work_interval, rounds, jitter, policy, seed):
    reference, fast = _application_pair(
        processors, work_interval, rounds, jitter, policy, seed
    )
    assert episodes(fast, "app", seed) == episodes(reference, "app", seed)
    reference, fast = _application_pair(
        processors, work_interval, rounds, jitter, policy, seed
    )
    assert aggregate_state(fast.run(3)) == aggregate_state(reference.run(3))


class TestApplicationOracle:
    @SETTINGS
    @given(
        processors=PROCESSORS,
        work_interval=st.sampled_from([1, 2, 100, 2000]),
        rounds=st.sampled_from([1, 2, 5]),
        jitter=st.sampled_from([0.0, 0.2, 0.9]),
        policy=st.sampled_from(sorted(POLICIES)),
        seed=st.integers(0, 2**16),
    )
    def test_episodes(self, processors, work_interval, rounds, jitter, policy, seed):
        _check_application(processors, work_interval, rounds, jitter, policy, seed)

    @pytest.mark.parametrize("policy", ["Without Backoff", "randomized-2"])
    def test_128_processors(self, policy):
        _check_application(128, 500, 3, 0.2, policy, 11)


def _lock(kind: str, hold_time: int, max_attempts: Optional[int]):
    if kind == "tas":
        return TestAndSetLock(max_attempts=max_attempts)
    if kind == "ttas":
        return TestAndTestAndSetLock(max_attempts=max_attempts)
    return BackoffLock(hold_time=hold_time, max_attempts=max_attempts)


def _check_resource(processors, arrivals, kind, hold_time, max_attempts,
                    acquisitions, seed):
    def pair():
        return [
            cls(
                processors,
                _lock(kind, hold_time, max_attempts),
                hold_time=hold_time,
                acquisitions=acquisitions,
                arrivals=arrivals,
                seed=seed,
            )
            for cls in (ReferenceResourceSimulator, ResourceSimulator)
        ]

    reference, fast = pair()
    assert episodes(fast, "resource", seed) == episodes(reference, "resource", seed)
    reference, fast = pair()
    assert aggregate_state(fast.run(3)) == aggregate_state(reference.run(3))


class TestResourceOracle:
    @SETTINGS
    @given(
        processors=PROCESSORS,
        interval_a=INTERVALS,
        kind=st.sampled_from(["tas", "ttas", "backoff"]),
        hold_time=st.sampled_from([1, 8, 50]),
        max_attempts=st.sampled_from([None, 1, 3, 40]),
        acquisitions=st.sampled_from([1, 2, 5]),
        seed=st.integers(0, 2**16),
    )
    def test_episodes(self, processors, interval_a, kind, hold_time, max_attempts,
                      acquisitions, seed):
        _check_resource(processors, UniformArrivals(interval_a), kind, hold_time,
                        max_attempts, acquisitions, seed)

    @pytest.mark.parametrize("kind", ["tas", "backoff"])
    def test_tied_arrivals(self, kind):
        # Equal ready times are served in push order, not cpu order.
        times = [5, 0, 5, 0, 3, 3, 0, 5]
        _check_resource(8, FixedArrivals(times), kind, 4, None, 3, 1)

    def test_128_processors(self):
        _check_resource(128, UniformArrivals(100), "backoff", 8, None, 2, 3)


def _barrier(kind: str, processors: int, policy: str, overhead: int):
    if kind == "blocking":
        return BlockingBarrier(
            processors, enqueue_overhead=overhead, wakeup_overhead=overhead
        )
    return TangYewBarrier(processors, backoff=POLICIES[policy]())


def _check_queueing(processors, interval_a, kind, policy, overhead, seed):
    def pair():
        return [
            cls(
                _barrier(kind, processors, policy, overhead),
                UniformArrivals(interval_a),
                seed=seed,
                enqueue_overhead=overhead,
                wakeup_overhead=overhead,
            )
            for cls in (ReferenceQueueingBarrierSimulator, QueueingBarrierSimulator)
        ]

    reference, fast = pair()
    assert episodes(fast, "queue", seed) == episodes(reference, "queue", seed)
    reference, fast = pair()
    assert aggregate_state(fast.run(3)) == aggregate_state(reference.run(3))


class TestQueueingOracle:
    @SETTINGS
    @given(
        processors=PROCESSORS,
        interval_a=INTERVALS,
        kind=st.sampled_from(["blocking", "tang-yew"]),
        policy=st.sampled_from(sorted(POLICIES)),
        overhead=st.sampled_from([0, 1, 100]),
        seed=st.integers(0, 2**16),
    )
    def test_episodes(self, processors, interval_a, kind, policy, overhead, seed):
        _check_queueing(processors, interval_a, kind, policy, overhead, seed)

    @pytest.mark.parametrize("kind", ["blocking", "tang-yew"])
    def test_128_processors(self, kind):
        _check_queueing(128, 1000, kind, "threshold-exp2-64", 100, 2)


class _NegativeArrivals(ArrivalProcess):
    """An arrival process that presents a negative ready time."""

    interval = 0

    def draw(self, n, rng):
        return [-3] + [0] * (n - 1)


class TestRequestGuard:
    """A ready time the module would refuse raises the module's text."""

    def test_resource(self):
        texts = [
            outcome(lambda cls=cls: cls(
                3, TestAndSetLock(), arrivals=_NegativeArrivals()
            ).run_once(np.random.default_rng(0)))
            for cls in (ReferenceResourceSimulator, ResourceSimulator)
        ]
        assert texts[1] == texts[0]
        assert texts[0] == "ValueError: ready_time must be non-negative, got -3"

    def test_queueing(self):
        texts = [
            outcome(lambda cls=cls: cls(
                TangYewBarrier(3), _NegativeArrivals()
            ).run_once(np.random.default_rng(0)))
            for cls in (ReferenceQueueingBarrierSimulator, QueueingBarrierSimulator)
        ]
        assert texts[1] == texts[0]
        assert texts[0].startswith("ValueError: ready_time must be non-negative")


# ----------------------------------------------------------------------
# The snoopy-bus protocol loop.
# ----------------------------------------------------------------------


def snoopy_state(simulator: SnoopySimulator) -> dict:
    return {
        "stats": vars(simulator.stats),
        "sharers": {block: set(cpus) for block, cpus in simulator._sharers.items()},
        "caches": [
            (cache._blocks, cache._dirty, cache.hits, cache.misses)
            for cache in simulator.caches
        ],
    }


SNOOPY_CONFIGS = {
    "invalidate": {},
    "invalidate-fiw": {"fetch_intent_write": True},
    "update": {"protocol": "update"},
}


class TestSnoopyOracle:
    @pytest.mark.parametrize("protocol", sorted(SNOOPY_CONFIGS))
    @settings(max_examples=40, deadline=None)
    @given(
        cpus=st.integers(1, 6),
        sets=st.sampled_from([1, 2, 4, 16]),
        references=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.sampled_from([0, 1, 2]),
                st.integers(0, 40),
                st.booleans(),
            ),
            max_size=200,
        ),
        split=st.integers(0, 200),
    )
    def test_replay(self, protocol, cpus, sets, references, split):
        config = SnoopyConfig(
            num_cpus=cpus, cache_bytes=16 * sets, block_bytes=16,
            **SNOOPY_CONFIGS[protocol],
        )
        rows = [(cpu % cpus, op, 8 * word, sync) for cpu, op, word, sync in references]
        states = []
        for cls in (ReferenceSnoopySimulator, SnoopySimulator):
            simulator = cls(config)
            # Two calls: state carries over between replays.
            for chunk in (rows[:split], rows[split:]):
                simulator.replay(*(list(column) for column in zip(*chunk)) if chunk
                                 else ([], [], [], []))
            simulator.check_invariants()
            states.append(snoopy_state(simulator))
        assert states[1] == states[0]

    @pytest.mark.parametrize("protocol", sorted(SNOOPY_CONFIGS))
    def test_run_and_process_on_records(self, protocol):
        config = SnoopyConfig(num_cpus=4, cache_bytes=64, **SNOOPY_CONFIGS[protocol])
        rng = np.random.default_rng(7)
        records = [
            TraceRecord(
                int(cpu), (Op.READ, Op.WRITE, Op.RMW)[op], 16 * int(block), bool(sync)
            )
            for cpu, op, block, sync in zip(
                rng.integers(0, 4, 300), rng.integers(0, 3, 300),
                rng.integers(0, 12, 300), rng.integers(0, 2, 300),
            )
        ]
        states = []
        for cls in (ReferenceSnoopySimulator, SnoopySimulator):
            ran = cls(config)
            ran.run(records)
            processed = cls(config)
            for record in records:
                processed.process(record)
            states.append((snoopy_state(ran), snoopy_state(processed)))
        assert states[1] == states[0]
        assert states[1][0] == states[1][1]


# ----------------------------------------------------------------------
# Barrier episodes through the coherence protocols.
# ----------------------------------------------------------------------


def backend_state(backend) -> dict:
    if isinstance(backend, SnoopySimulator):
        return snoopy_state(backend)
    directory = backend.directory
    stats = dict(vars(backend.stats))
    histogram = stats.pop("write_invalidation_histogram")
    return {
        "stats": stats,
        "histogram": vars(histogram),
        "entries": {
            block: (set(entry.sharers), entry.owner)
            for block, entry in directory._entries.items()
        },
        "caches": [
            (cache._blocks, cache._dirty, cache.hits, cache.misses)
            for cache in backend.caches
        ],
    }


#: The attributes of each backend; :meth:`_reset_backend` must restore
#: every one that an episode changes.
BACKEND_FIELDS = {
    SnoopySimulator: {"config", "caches", "_sharers", "stats", "_block_shift"},
    CoherenceSimulator: {"config", "caches", "directory", "stats", "_block_shift"},
}


def _coherent_pair(processors, scheme, interval_a, policy, pointers, seed):
    return [
        cls(
            processors,
            scheme=scheme,
            interval_a=interval_a,
            policy=POLICIES[policy](),
            num_pointers=pointers,
            seed=seed,
        )
        for cls in (ReferenceCoherentBarrierSimulator, CoherentBarrierSimulator)
    ]


COHERENT_POLICIES = [
    "Without Backoff",
    "Backoff on Barrier Var.",
    "Base 2 Backoff on Barrier Flag",
    "linear-3",
    "randomized-2",
]


def _check_coherent(processors, scheme, interval_a, policy, pointers, seed):
    # Single episodes, and the backend state each leaves behind.
    reference, fast = _coherent_pair(
        processors, scheme, interval_a, policy, pointers, seed
    )
    made = []
    make = reference._make_backend
    reference._make_backend = lambda: made.append(make()) or made[-1]
    for rep in range(2):
        rng = spawn_stream(seed, f"episode-{rep}")
        expected = vars(reference.run_once(rng))
        backend = fast._make_backend()
        rng = spawn_stream(seed, f"episode-{rep}")
        assert vars(fast.run_once(rng, backend)) == expected
        assert backend_state(backend) == backend_state(made[-1])
        # The reset returns the backend to its freshly built state (and
        # knows every piece of state a backend has).
        assert set(vars(backend)) == BACKEND_FIELDS[type(backend)]
        fast._reset_backend(backend)
        assert backend_state(backend) == backend_state(fast._make_backend())

    # Repeated runs on one simulator: one backend per run, reset
    # between repetitions.
    reference, fast = _coherent_pair(
        processors, scheme, interval_a, policy, pointers, seed
    )
    for __ in range(2):
        assert moments(fast.run(3)) == moments(reference.run(3))


class TestCoherentBarrierOracle:
    @pytest.mark.parametrize("scheme", CoherentBarrierSimulator.SCHEMES)
    @settings(max_examples=12, deadline=None)
    @given(
        processors=PROCESSORS,
        interval_a=st.sampled_from([0, 1, 100, 1000]),
        policy=st.sampled_from(COHERENT_POLICIES),
        pointers=st.sampled_from([None, 1, 2, 4]),
        seed=st.integers(0, 2**16),
    )
    def test_episodes(self, scheme, processors, interval_a, policy, pointers, seed):
        _check_coherent(processors, scheme, interval_a, policy, pointers, seed)

    @pytest.mark.parametrize("scheme", CoherentBarrierSimulator.SCHEMES)
    def test_long_arrival_interval(self, scheme):
        _check_coherent(7, scheme, 10_000, "Base 2 Backoff on Barrier Flag", 2, 4)

    @pytest.mark.parametrize("scheme", ["snoopy-invalidate", "directory"])
    def test_128_processors(self, scheme):
        _check_coherent(128, scheme, 100, "Without Backoff", 4, 6)
