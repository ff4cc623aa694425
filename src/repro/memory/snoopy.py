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

:meth:`SnoopySimulator.replay` is the protocol: one inlined loop over
reference columns that works directly on the caches' block/dirty lists
and the sharer map, counting into locals that it adds to the stats at
the end.  ``run`` and ``process`` route through it, and
``tests/test_ext_reference.py`` keeps the per-reference
``_read``/``_write``/``_fill`` methods it replaced as the reference.

Bus transactions are the traffic unit (the bus serializes them; there
is no per-copy invalidation cost, which is exactly the scalability
contrast with the directory of :mod:`repro.memory.coherence`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Set

from repro.memory.cache import DirectMappedCache
from repro.memory.coherence import _columns
from repro.trace.record import TraceRecord


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
        self.replay(*(raw() if callable(raw) else _columns(trace)))
        return self.stats

    def replay(self, cpus, op_codes, addresses, sync_flags) -> None:
        """Apply references given as parallel columns: the protocol loop.

        ``op_codes`` follow :attr:`~repro.trace.record.Op.code` (READ is
        0; WRITE and RMW both write).  Works directly on the caches'
        block/dirty lists and the sharer map; each reference costs what
        the module docstring lists, and the bus transactions a
        synchronization reference causes are also counted as
        synchronization transactions.
        """
        stats = self.stats
        sharers_of = self._sharers
        update_protocol = self.config.protocol == "update"
        fetch_intent_write = self.config.fetch_intent_write
        shift = self._block_shift
        num_sets = self.caches[0].num_sets
        blocks_of = [cache._blocks for cache in self.caches]
        dirty_of = [cache._dirty for cache in self.caches]
        cache_hits = [0] * len(self.caches)
        cache_misses = [0] * len(self.caches)
        refs = sync_refs = bus = sync_bus = 0
        reads_on_bus = upgrades = updates = flushes = writebacks = 0
        copies_invalidated = 0

        for cpu, code, address, is_sync in zip(cpus, op_codes, addresses, sync_flags):
            refs += 1
            if is_sync:
                sync_refs += 1
            block = address >> shift
            index = block % num_sets
            blocks = blocks_of[cpu]
            dirty_flags = dirty_of[cpu]

            if code == 0:  # READ
                if blocks[index] == block:
                    cache_hits[cpu] += 1
                    continue
                cache_misses[cpu] += 1
                traffic = 1
                reads_on_bus += 1
                sharers = sharers_of.get(block)
                if sharers is None:
                    sharers = sharers_of[block] = set()
                # A dirty remote copy flushes onto the bus and downgrades.
                for other in sharers:
                    if blocks_of[other][index] == block and dirty_of[other][index]:
                        traffic += 1
                        flushes += 1
                        dirty_of[other][index] = False
                        break
                sharers.add(cpu)
                dirty = False
            else:  # WRITE and RMW
                sharers = sharers_of.get(block)
                if sharers is None:
                    sharers = sharers_of[block] = set()
                if blocks[index] == block:
                    cache_hits[cpu] += 1
                    others = sharers - {cpu}
                    if not others:
                        # Exclusive: a modified copy writes silently, a
                        # clean one upgrades snooping nothing.
                        dirty_flags[index] = True
                        continue
                    traffic = 1
                    if update_protocol:
                        # Broadcast the new word; other copies stay
                        # valid, and memory is updated too: the
                        # writer's copy stays clean.
                        updates += 1
                    else:
                        # One broadcast upgrade kills every other copy.
                        upgrades += 1
                        for other in others:
                            if blocks_of[other][index] == block:
                                blocks_of[other][index] = None
                                dirty_of[other][index] = False
                            copies_invalidated += 1
                        sharers.intersection_update({cpu})
                        dirty_flags[index] = True
                    bus += traffic
                    if is_sync:
                        sync_bus += traffic
                    continue

                # Write miss.
                cache_misses[cpu] += 1
                others = set(sharers)
                dirty_other = None
                for other in others:
                    if blocks_of[other][index] == block and dirty_of[other][index]:
                        dirty_other = other
                        break
                if update_protocol:
                    traffic = 1
                    reads_on_bus += 1
                    if dirty_other is not None:
                        traffic += 1
                        flushes += 1
                        dirty_of[dirty_other][index] = False
                    if others:
                        traffic += 1
                        updates += 1
                    dirty = not others
                    sharers.add(cpu)
                else:
                    if fetch_intent_write:
                        # Read-exclusive: one transaction fetches and
                        # invalidates.
                        traffic = 1
                    else:
                        # Naive: fetch, then a separate upgrade.
                        traffic = 2
                        upgrades += 1
                    reads_on_bus += 1
                    if dirty_other is not None:
                        traffic += 1
                        flushes += 1
                    for other in others:
                        if blocks_of[other][index] == block:
                            blocks_of[other][index] = None
                            dirty_of[other][index] = False
                        copies_invalidated += 1
                    sharers.clear()
                    sharers.add(cpu)
                    dirty = True

            # Install the block.  A displaced block leaves its sharer
            # set, and a dirty one is written back.
            victim = blocks[index]
            if victim is not None and victim != block:
                victims = sharers_of.get(victim)
                if victims is not None:
                    victims.discard(cpu)
                    if not victims:
                        del sharers_of[victim]
                if dirty_flags[index]:
                    traffic += 1
                    writebacks += 1
            blocks[index] = block
            dirty_flags[index] = dirty
            bus += traffic
            if is_sync:
                sync_bus += traffic

        for cache, hits, misses in zip(self.caches, cache_hits, cache_misses):
            cache.hits += hits
            cache.misses += misses
        stats.refs += refs
        stats.sync_refs += sync_refs
        stats.hits += sum(cache_hits)
        stats.misses += sum(cache_misses)
        stats.bus_transactions += bus
        stats.sync_bus_transactions += sync_bus
        stats.reads_on_bus += reads_on_bus
        stats.upgrades += upgrades
        stats.updates += updates
        stats.flushes += flushes
        stats.writebacks += writebacks
        stats.copies_invalidated += copies_invalidated

    def process(self, record: TraceRecord) -> None:
        """Apply one reference to the memory system."""
        self.replay(
            (record.cpu,), (record.op.code,), (record.address,), (record.is_sync,)
        )

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
