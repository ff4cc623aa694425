"""Snoopy-bus cache coherence (invalidate and update protocols).

Section 2.1:

    "The widespread sharing that occurs with synchronization variables
    is not a problem when used in bus-based snoopy-cache
    multiprocessors.  Because snoopy-cache-based protocols perform
    broadcast invalidates or updates, a variable shared among all
    processors generates no more traffic on the shared bus than a
    variable shared among only two processors."

and Section 5.1 prices barriers on such machines: an invalidating bus
at roughly 3 accesses per processor per barrier, an updating bus (or an
invalidating scheme "that can detect a fetch with intent to write") at
roughly 2.  This module implements both protocol families over the same
trace-driven interface as the directory simulator, so those constants
can be *simulated* instead of quoted (see
:mod:`repro.barrier.coherent`).

Protocol summary (MSI-style, write-back):

- **read miss** — one bus read; a dirty remote copy flushes (one more
  transaction) and downgrades to clean; the block becomes shared.
- **write to a clean shared block** — *invalidate* protocol: one
  upgrade transaction, every other copy is invalidated by the snoop
  (a broadcast: one transaction regardless of copy count); *update*
  protocol: one update transaction, other copies stay valid with the
  new value.
- **write miss** — *invalidate* protocol: a read transaction followed
  by an upgrade, or a single read-exclusive when
  ``fetch_intent_write=True`` (the optimization Section 5.1 credits
  with the updating bus's count); *update*: a read plus an update when
  other copies exist.
- **dirty eviction** — one writeback transaction.

Bus transactions are the traffic unit (the bus serializes them; there
is no per-copy invalidation cost, which is exactly the scalability
contrast with the directory of :mod:`repro.memory.coherence`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Set

from repro.memory.cache import DirectMappedCache
from repro.trace.record import Op, TraceRecord


@dataclass(frozen=True)
class SnoopyConfig:
    """Configuration of a snoopy-bus run."""

    num_cpus: int = 16
    cache_bytes: int = 256 * 1024
    block_bytes: int = 16
    protocol: str = "invalidate"  # or "update"
    fetch_intent_write: bool = False

    def __post_init__(self) -> None:
        if self.num_cpus < 1:
            raise ValueError("num_cpus must be >= 1")
        if self.protocol not in ("invalidate", "update"):
            raise ValueError(
                f"protocol must be 'invalidate' or 'update', got {self.protocol!r}"
            )
        if self.protocol == "update" and self.fetch_intent_write:
            raise ValueError("fetch_intent_write applies to the invalidate protocol")


@dataclass
class SnoopyStats:
    """Counters accumulated over one snoopy-bus run."""

    refs: int = 0
    sync_refs: int = 0
    bus_transactions: int = 0
    sync_bus_transactions: int = 0
    reads_on_bus: int = 0
    upgrades: int = 0
    updates: int = 0
    flushes: int = 0
    writebacks: int = 0
    copies_invalidated: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def transactions_per_ref(self) -> float:
        if not self.refs:
            return 0.0
        return self.bus_transactions / self.refs


class SnoopySimulator:
    """Runs a multiprocessor reference trace over a snoopy bus."""

    def __init__(self, config: SnoopyConfig) -> None:
        self.config = config
        self.caches = [
            DirectMappedCache(config.cache_bytes, config.block_bytes)
            for _ in range(config.num_cpus)
        ]
        # Perfect snoop knowledge: which caches hold each block.
        self._sharers: Dict[int, Set[int]] = {}
        self.stats = SnoopyStats()
        self._block_shift = config.block_bytes.bit_length() - 1

    def block_of(self, address: int) -> int:
        return address >> self._block_shift

    # ------------------------------------------------------------------

    def run(self, trace: Iterable[TraceRecord]) -> SnoopyStats:
        raw = getattr(trace, "raw_columns", None)
        if callable(raw):
            self.replay(*raw())
            return self.stats
        for record in trace:
            self.process(record)
        return self.stats

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

    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """At most one dirty copy per block; sharer sets match caches."""
        for block, sharers in self._sharers.items():
            dirty = [cpu for cpu in sharers if self.caches[cpu].is_dirty(block)]
            assert len(dirty) <= 1, f"block {block}: multiple dirty copies {dirty}"
            for cpu in sharers:
                assert self.caches[cpu].contains(block), (
                    f"block {block}: sharer {cpu} lost its copy"
                )
