"""Barrier episodes executed through cache-coherence protocols (§5.1).

Section 5.1 prices hardware-supported barriers with back-of-envelope
counts: invalidating bus ~3 accesses/processor, updating bus ~2,
full-map directory ~4, against which the backoff schemes on uncached
variables are compared.  This module *simulates* those numbers: it
drives one Tang-Yew barrier episode, reference by reference, through

- the snoopy bus (:mod:`repro.memory.snoopy`, invalidate / update /
  fetch-intent-write variants),
- the directory (:mod:`repro.memory.coherence`, any pointer count), or
- uncached synchronization variables with an optional backoff policy
  (every poll is a two-transaction network access — the software
  scheme the paper proposes).

Episode model (cycle-driven, matching the post-mortem scheduler's
conventions): processors arrive uniformly in [0, A]; each performs a
fetch&add on the barrier variable (one grant per cycle — the atomic is
serialized), then polls the flag once per cycle (or per its backoff
schedule) until it observes the value written by the last arrival.
With caching, repeat polls hit in the cache and cost nothing until the
flag write invalidates (or updates) the copies — which is precisely why
"all repeat accesses of a synchronization variable can be satisfied by
the cache" on such machines.

An episode is event-driven: each unfinished processor waits in the
bucket of the cycle of its next action, and the cycles with work are
visited in order, each bucket in ascending cpu order, which is the
order a sweep over every cpu in every cycle would act in.  The
references an episode makes are collected as trace columns and
replayed through the backend in one call.
:meth:`CoherentBarrierSimulator.run` builds one backend and resets it
in place between repetitions: fresh statistics, an empty sharer map or
directory, zeroed cache hit/miss counters, and in every cache only the
sets of the two synchronization words cleared, since an episode touches
no other block.  Building a fresh 256 KB cache per processor for every
episode took about as long as simulating the episode.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.backoff import BackoffPolicy, NoBackoff
from repro.memory.coherence import CoherenceConfig, CoherenceSimulator
from repro.memory.snoopy import SnoopyConfig, SnoopySimulator, SnoopyStats
from repro.memory.stats import CoherenceStats
from repro.sim.rng import spawn_stream
from repro.sim.stats import RunningStats
from repro.trace.record import Op

#: Distinct block-aligned addresses for the two synchronization words.
_VARIABLE_ADDRESS = 0x1000
_FLAG_ADDRESS = 0x2000

_READ, _WRITE, _RMW = Op.READ.code, Op.WRITE.code, Op.RMW.code

#: An episode still unfinished at this cycle is reported as diverged.
_MAX_CYCLES = 10_000_000


@dataclass
class CoherentBarrierResult:
    """Traffic of one simulated barrier episode."""

    num_processors: int
    scheme: str
    transactions: int = 0
    cycles: int = 0

    @property
    def transactions_per_process(self) -> float:
        if not self.num_processors:
            return 0.0
        return self.transactions / self.num_processors


class CoherentBarrierSimulator:
    """One Tang-Yew barrier through a coherence protocol.

    Args:
        num_processors: N.
        scheme: ``"snoopy-invalidate"``, ``"snoopy-invalidate-fiw"``
            (fetch-intent-write), ``"snoopy-update"``, ``"directory"``,
            or ``"uncached"``.
        interval_a: arrival interval A.
        policy: backoff policy (meaningful for ``"uncached"``, where
            every poll costs network transactions; cached schemes poll
            their caches for free, so backoff is a no-op there).
        num_pointers: directory pointer count (``"directory"`` only).
    """

    SCHEMES = (
        "snoopy-invalidate",
        "snoopy-invalidate-fiw",
        "snoopy-update",
        "directory",
        "uncached",
    )

    def __init__(
        self,
        num_processors: int,
        scheme: str = "snoopy-invalidate",
        interval_a: int = 0,
        policy: Optional[BackoffPolicy] = None,
        num_pointers: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if num_processors < 1:
            raise ValueError("num_processors must be >= 1")
        if scheme not in self.SCHEMES:
            raise ValueError(f"scheme must be one of {self.SCHEMES}, got {scheme!r}")
        if interval_a < 0:
            raise ValueError("interval_a must be non-negative")
        if num_pointers is not None and num_pointers < 1:
            raise ValueError("num_pointers must be >= 1")
        self.num_processors = num_processors
        self.scheme = scheme
        self.interval_a = interval_a
        self.policy = policy if policy is not None else NoBackoff()
        self.num_pointers = num_pointers
        self.seed = seed

    def _make_backend(self):
        n = self.num_processors
        if self.scheme == "snoopy-invalidate":
            return SnoopySimulator(SnoopyConfig(num_cpus=n))
        if self.scheme == "snoopy-invalidate-fiw":
            return SnoopySimulator(
                SnoopyConfig(num_cpus=n, fetch_intent_write=True)
            )
        if self.scheme == "snoopy-update":
            return SnoopySimulator(SnoopyConfig(num_cpus=n, protocol="update"))
        if self.scheme == "directory":
            pointers = self.num_pointers if self.num_pointers is not None else n
            return CoherenceSimulator(
                CoherenceConfig(num_cpus=n, num_pointers=pointers)
            )
        # Every episode reference is one of the two synchronization
        # words, which cache_sync=False sends around the caches: the
        # replay never reads a cache, so build none.
        return CoherenceSimulator(
            CoherenceConfig(
                num_cpus=n, num_pointers=n, cache_sync=False, cache_bytes=0
            )
        )

    @staticmethod
    def _reset_backend(backend) -> None:
        """Return a backend that replayed episodes to its fresh state.

        An episode references two words only, so each cache clears the
        (at most two) sets their blocks map to; the rest of every cache
        is still empty.  The ``uncached`` scheme's backend has no caches.
        """
        shift = backend._block_shift
        words = (_VARIABLE_ADDRESS >> shift, _FLAG_ADDRESS >> shift)
        for cache in backend.caches:
            for block in words:
                index = block % cache.num_sets
                cache._blocks[index] = None
                cache._dirty[index] = False
            cache.hits = cache.misses = 0
        if isinstance(backend, SnoopySimulator):
            backend._sharers.clear()
            backend.stats = SnoopyStats()
        else:
            backend.directory._entries.clear()
            backend.stats = CoherenceStats()

    def _transactions(self, backend) -> int:
        if isinstance(backend, SnoopySimulator):
            return backend.stats.bus_transactions
        return backend.stats.total_traffic

    def run_once(
        self, rng: np.random.Generator, backend=None
    ) -> CoherentBarrierResult:
        """One episode, replayed through ``backend``: a fresh one from
        :meth:`_make_backend` when None, or one in that fresh state
        (:meth:`run` resets its backend between repetitions)."""
        n = self.num_processors
        if backend is None:
            backend = self._make_backend()
        variable_wait = self.policy.variable_wait
        flag_wait = self.policy.flag_wait
        if self.interval_a == 0:
            arrivals = [0] * n
        else:
            arrivals = sorted(
                int(t) for t in rng.integers(0, self.interval_a + 1, size=n)
            )

        # Each unfinished cpu waits in the bucket of the cycle of its
        # next action.  Cycles are visited in order and each bucket in
        # ascending cpu order: the order in which a cycle-by-cycle sweep
        # over the cpus would act.  A cpu first needs its fetch&add,
        # then polls the flag until it sees it set.
        due = defaultdict(list)
        for cpu, when in enumerate(arrivals):
            due[when].append(cpu)
        polling = [False] * n
        polls = [0] * n
        count = 0
        flag_written_cycle: Optional[int] = None
        cycle = arrivals[0]
        # The episode's references, as trace columns; the protocol never
        # feeds back into the episode, so they are replayed in one call.
        cpus, ops, addresses = [], [], []
        add_cpu, add_op, add_address = cpus.append, ops.append, addresses.append

        while True:
            if cycle >= _MAX_CYCLES:
                raise RuntimeError("coherent barrier episode did not converge")
            bucket = due.pop(cycle)
            bucket.sort()
            fetch_and_add_granted = False
            for cpu in bucket:
                if not polling[cpu]:
                    if fetch_and_add_granted:
                        # The atomic is serialized; retry next cycle.
                        due[cycle + 1].append(cpu)
                        continue
                    fetch_and_add_granted = True
                    add_cpu(cpu)
                    add_op(_RMW)
                    add_address(_VARIABLE_ADDRESS)
                    count += 1
                    if count == n:
                        # Last arrival: write the flag next cycle; done.
                        add_cpu(cpu)
                        add_op(_WRITE)
                        add_address(_FLAG_ADDRESS)
                        flag_written_cycle = cycle + 1
                        continue
                    polling[cpu] = True
                    wait = variable_wait(count, n)
                    due[cycle + (wait if wait >= 1 else 1)].append(cpu)
                    continue
                add_cpu(cpu)
                add_op(_READ)
                add_address(_FLAG_ADDRESS)
                if flag_written_cycle is not None and cycle >= flag_written_cycle:
                    continue  # saw the flag set; done
                polls[cpu] += 1
                wait = flag_wait(polls[cpu])
                due[cycle + (wait if wait >= 1 else 1)].append(cpu)
            if not due:
                break
            cycle = cycle + 1 if cycle + 1 in due else min(due)
        backend.replay(cpus, ops, addresses, [True] * len(cpus))

        return CoherentBarrierResult(
            num_processors=n,
            scheme=self.scheme,
            transactions=self._transactions(backend),
            cycles=cycle + 1,
        )

    def run(self, repetitions: int = 20) -> RunningStats:
        """Transactions-per-process statistics over repeated episodes.

        One backend serves every repetition, reset between them.
        """
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        stats = RunningStats()
        backend = self._make_backend()
        for rep in range(repetitions):
            if rep:
                self._reset_backend(backend)
            rng = spawn_stream(self.seed, f"coherent-rep-{rep}")
            stats.add(self.run_once(rng, backend).transactions_per_process)
        return stats


def simulate_coherent_barrier(
    num_processors: int,
    scheme: str,
    interval_a: int = 0,
    policy: Optional[BackoffPolicy] = None,
    num_pointers: Optional[int] = None,
    repetitions: int = 20,
    seed: int = 0,
) -> RunningStats:
    """Convenience wrapper: transactions/process for one configuration."""
    simulator = CoherentBarrierSimulator(
        num_processors=num_processors,
        scheme=scheme,
        interval_a=interval_a,
        policy=policy,
        num_pointers=num_pointers,
        seed=seed,
    )
    return simulator.run(repetitions)
