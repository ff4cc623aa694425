"""Trace-driven Dir_i_NB coherence simulator (Section 2 methodology).

Protocol summary (invalidation-based, write-back, no broadcast):

- **Read miss**: two network transactions (request + data).  If the
  block is dirty in another cache, the owner writes it back (two more
  transactions) and the block becomes shared.  If the directory entry
  already holds ``i`` pointers, sharers are invalidated (one message,
  hence one transaction, each) until a pointer is free — the
  "invalidations forced to limit the cached copies of a block to i".
- **Write hit to a clean block**: one ownership-request transaction plus
  one invalidation message per other sharer.  These events populate the
  Figure 1 histogram.
- **Write miss**: two transactions; a dirty remote copy is recalled and
  invalidated (two transactions + one invalidation), or every sharer is
  invalidated (one transaction each).
- **Replacement** of a dirty block costs one writeback transaction.

Synchronization references are either run through the protocol like any
other reference (Table 1 / Figure 1 configuration) or declared
uncacheable, in which case each one costs two transactions —
request out, response back (Table 2 configuration).

All traffic generated while processing a reference is attributed to
that reference's class (synchronization vs data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.memory.cache import DirectMappedCache
from repro.memory.directory import Directory, DirectoryEntry
from repro.memory.stats import CoherenceStats
from repro.obs.tracer import get_tracer
from repro.trace.record import TraceRecord


@dataclass(frozen=True)
class CoherenceConfig:
    """Configuration of one coherence run.

    Defaults mirror the paper: 64 processors, 256 KB direct-mapped
    caches, 16-byte blocks.  ``cache_bytes=0`` builds no caches at all:
    a machine whose only references are synchronization words sent
    around the caches (``cache_sync=False``).
    """

    num_cpus: int = 64
    cache_bytes: int = 256 * 1024
    block_bytes: int = 16
    num_pointers: int = 64
    cache_sync: bool = True

    def __post_init__(self) -> None:
        if self.num_cpus < 1:
            raise ValueError("num_cpus must be >= 1")
        if self.block_bytes & (self.block_bytes - 1):
            raise ValueError("block_bytes must be a power of two")
        if self.cache_bytes == 0 and self.cache_sync:
            raise ValueError("cache_bytes=0 needs cache_sync=False")


class CoherenceSimulator:
    """Runs a multiprocessor reference trace through caches + directory."""

    def __init__(self, config: CoherenceConfig) -> None:
        self.config = config
        self.caches = [
            DirectMappedCache(config.cache_bytes, config.block_bytes)
            for _ in range(config.num_cpus if config.cache_bytes else 0)
        ]
        self.directory = Directory(config.num_pointers, config.num_cpus)
        self.stats = CoherenceStats()
        self._block_shift = config.block_bytes.bit_length() - 1

    def block_of(self, address: int) -> int:
        return address >> self._block_shift

    def run(self, trace: Iterable[TraceRecord]) -> CoherenceStats:
        """Process every record of ``trace`` and return the statistics.

        A :class:`~repro.trace.scheduler.ScheduledTrace` hands over its
        columns directly; other iterables are split into columns first.
        """
        raw = getattr(trace, "raw_columns", None)
        if callable(raw):
            return self.run_columns(*raw())
        return self.run_columns(*_columns(trace))

    def run_columns(self, cpus, op_codes, addresses, sync_flags) -> CoherenceStats:
        """Process a trace given as parallel columns.

        ``op_codes`` follow :attr:`~repro.trace.record.Op.code`
        (``{0: READ, 1: WRITE, 2: RMW}``).
        """
        self.replay(cpus, op_codes, addresses, sync_flags)
        self._publish()
        return self.stats

    def process(self, record: TraceRecord) -> None:
        """Apply one reference to the memory system."""
        self.replay(
            (record.cpu,), (record.op.code,), (record.address,), (record.is_sync,)
        )

    def _publish(self) -> None:
        """Emit a snapshot of this simulator's statistics to the tracer.

        Stats are cumulative per simulator instance, so the snapshot
        event carries totals; counters are charged with the deltas
        since the previous publish.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return
        stats = self.stats
        invalidations = (
            stats.invalidations_on_write + stats.invalidations_on_overflow
        )
        published = getattr(self, "_published_invalidations", 0)
        tracer.count("coherence.invalidations", invalidations - published)
        self._published_invalidations = invalidations
        tracer.emit(
            "coherence.run",
            refs=stats.refs,
            sync_refs=stats.sync_refs,
            hits=stats.hits,
            misses=stats.misses,
            invalidations_on_write=stats.invalidations_on_write,
            invalidations_on_overflow=stats.invalidations_on_overflow,
            writebacks=stats.writebacks,
            sync_traffic=stats.sync_traffic,
            data_traffic=stats.data_traffic,
            pointers=self.directory.num_pointers,
        )

    def replay(self, cpus, op_codes, addresses, sync_flags) -> None:
        """Apply references given as parallel columns: the protocol loop.

        Works directly on the caches' block/dirty lists and the
        directory's entry table.  Each reference costs what the module
        docstring lists; all traffic it causes is charged to its class.
        Pointer overflow asks the directory for its victims (the policy
        and its tracer events live there).  Unlike :meth:`run_columns`,
        publishes nothing to the tracer.
        """
        stats = self.stats
        directory = self.directory
        entries = directory._entries
        num_pointers = directory.num_pointers
        overflow_victims = directory.pointer_overflow_victims
        remove_sharer = directory.remove_sharer
        add_write_invalidations = stats.write_invalidation_histogram.add
        cache_sync = self.config.cache_sync
        shift = self._block_shift
        if not self.caches and not all(sync_flags):
            raise ValueError(
                "a machine without caches replays only sync references"
            )
        num_sets = self.caches[0].num_sets if self.caches else 1
        blocks_of = [cache._blocks for cache in self.caches]
        dirty_of = [cache._dirty for cache in self.caches]
        cache_hits = [0] * len(self.caches)
        cache_misses = [0] * len(self.caches)
        refs = sync_refs = sync_traffic = data_traffic = 0
        sync_invalidating = data_invalidating = 0
        on_write = on_overflow = writebacks = 0

        for cpu, code, address, is_sync in zip(cpus, op_codes, addresses, sync_flags):
            refs += 1
            if is_sync:
                sync_refs += 1
                if not cache_sync:
                    # Uncacheable synchronization variable: request + response.
                    sync_traffic += 2
                    continue
            block = address >> shift
            index = block % num_sets
            blocks = blocks_of[cpu]

            if code == 0:  # READ
                if blocks[index] == block:
                    cache_hits[cpu] += 1
                    continue
                cache_misses[cpu] += 1
                traffic = 2  # request + data
                invalidations = 0
                entry = entries.get(block)
                if entry is None:
                    entry = entries[block] = DirectoryEntry()
                owner = entry.owner
                if owner is not None and owner != cpu:
                    # Recall the dirty copy; the owner keeps a clean copy.
                    traffic = 4
                    writebacks += 1
                    if blocks_of[owner][index] == block:
                        dirty_of[owner][index] = False
                    entry.owner = None
                sharers = entry.sharers
                if len(sharers) >= num_pointers and cpu not in sharers:
                    # Pointer overflow: free a pointer for the reader.
                    for victim in overflow_victims(block, cpu):
                        if blocks_of[victim][index] == block:
                            blocks_of[victim][index] = None
                            dirty_of[victim][index] = False
                        remove_sharer(block, victim)
                        invalidations += 1
                    on_overflow += invalidations
                    traffic += invalidations
                    # remove_sharer may have deleted the entry.
                    entry = entries.get(block)
                    if entry is None:
                        entry = entries[block] = DirectoryEntry()
                    sharers = entry.sharers
                sharers.add(cpu)
                dirty = False
            else:  # WRITE and RMW both need exclusive ownership.
                entry = entries.get(block)
                if entry is None:
                    entry = entries[block] = DirectoryEntry()
                sharers = entry.sharers
                if blocks[index] == block:
                    cache_hits[cpu] += 1
                    if dirty_of[cpu][index]:
                        continue  # already exclusive owner
                    # Write hit to a previously clean block: the Figure 1
                    # event.  One ownership request plus one invalidation
                    # per other sharer.
                    invalidations = 0
                    for other in sharers:
                        if other != cpu:
                            if blocks_of[other][index] == block:
                                blocks_of[other][index] = None
                                dirty_of[other][index] = False
                            invalidations += 1
                    traffic = 1 + invalidations
                    add_write_invalidations(invalidations)
                else:
                    cache_misses[cpu] += 1
                    traffic = 2  # request + data
                    owner = entry.owner
                    if owner is not None and owner != cpu:
                        # Recall and writeback of the dirty copy.
                        traffic = 4
                        writebacks += 1
                        if blocks_of[owner][index] == block:
                            blocks_of[owner][index] = None
                            dirty_of[owner][index] = False
                        invalidations = 1
                    else:
                        invalidations = 0
                        for other in sharers:
                            if other != cpu:
                                if blocks_of[other][index] == block:
                                    blocks_of[other][index] = None
                                    dirty_of[other][index] = False
                                invalidations += 1
                        traffic += invalidations
                on_write += invalidations
                sharers.clear()
                sharers.add(cpu)
                entry.owner = cpu
                dirty = True

            # Install the block (on a write hit this only sets its dirty
            # bit).  A displaced block leaves the directory, and a dirty
            # one is written back.
            victim = blocks[index]
            dirty_flags = dirty_of[cpu]
            if victim is not None and victim != block:
                victim_entry = entries.get(victim)
                if victim_entry is not None:
                    victim_sharers = victim_entry.sharers
                    victim_sharers.discard(cpu)
                    if victim_entry.owner == cpu:
                        victim_entry.owner = None
                    if not victim_sharers:
                        del entries[victim]
                if dirty_flags[index]:
                    writebacks += 1
                    traffic += 1
            blocks[index] = block
            dirty_flags[index] = dirty

            if is_sync:
                sync_traffic += traffic
                if invalidations:
                    sync_invalidating += 1
            else:
                data_traffic += traffic
                if invalidations:
                    data_invalidating += 1

        for cache, hits, misses in zip(self.caches, cache_hits, cache_misses):
            cache.hits += hits
            cache.misses += misses
        hits = sum(cache_hits)
        misses = sum(cache_misses)
        stats.refs += refs
        stats.sync_refs += sync_refs
        stats.data_refs += refs - sync_refs
        stats.hits += hits
        stats.misses += misses
        stats.sync_traffic += sync_traffic
        stats.data_traffic += data_traffic
        stats.sync_refs_invalidating += sync_invalidating
        stats.data_refs_invalidating += data_invalidating
        stats.invalidations_on_write += on_write
        stats.invalidations_on_overflow += on_overflow
        stats.writebacks += writebacks

    # ------------------------------------------------------------------
    # Invariant checks (used by tests).
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if protocol invariants are violated."""
        for block in self.directory.tracked_blocks():
            entry = self.directory.peek(block)
            assert entry is not None
            assert len(entry.sharers) <= self.directory.num_pointers, (
                f"block {block}: {len(entry.sharers)} sharers exceed "
                f"{self.directory.num_pointers} pointers"
            )
            if entry.owner is not None:
                assert entry.sharers == {entry.owner}, (
                    f"block {block}: dirty owner {entry.owner} but sharers "
                    f"{sorted(entry.sharers)}"
                )
            for cpu in entry.sharers:
                assert self.caches[cpu].contains(block), (
                    f"block {block}: directory lists cpu {cpu} but the "
                    f"cache does not hold the block"
                )


def _columns(records: Iterable[TraceRecord]):
    """(cpus, op codes, addresses, sync flags) of ``records``."""
    columns = ([], [], [], [])
    for record in records:
        columns[0].append(record.cpu)
        columns[1].append(record.op.code)
        columns[2].append(record.address)
        columns[3].append(record.is_sync)
    return columns
