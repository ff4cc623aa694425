"""Direct-mapped write-back cache.

The paper's simulations "used direct-mapped caches of size 256KBytes and
block size 16 bytes"; those are the defaults here.  The cache operates
on *block numbers* (``address // block_bytes``); the coherence simulator
does the address-to-block translation so that the cache itself stays
trivially testable.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class DirectMappedCache:
    """A direct-mapped cache indexed by block number.

    Attributes:
        num_sets: number of cache lines.
        hits / misses: probe counters (maintained by :meth:`probe`, and
            by the coherence simulator's loop, which reads the block
            and dirty lists directly).
    """

    def __init__(self, size_bytes: int = 256 * 1024, block_bytes: int = 16) -> None:
        if size_bytes <= 0 or block_bytes <= 0:
            raise ValueError("cache and block sizes must be positive")
        if size_bytes % block_bytes:
            raise ValueError("size_bytes must be a multiple of block_bytes")
        self.size_bytes = size_bytes
        self.block_bytes = block_bytes
        self.num_sets = size_bytes // block_bytes
        # _blocks[s] is the block number resident in set s (or None).
        self._blocks: List[Optional[int]] = [None] * self.num_sets
        self._dirty: List[bool] = [False] * self.num_sets
        self.hits = 0
        self.misses = 0

    def _set_index(self, block: int) -> int:
        return block % self.num_sets

    def contains(self, block: int) -> bool:
        """True if ``block`` is resident (does not touch hit counters)."""
        return self._blocks[self._set_index(block)] == block

    def is_dirty(self, block: int) -> bool:
        """True if ``block`` is resident and dirty."""
        index = self._set_index(block)
        return self._blocks[index] == block and self._dirty[index]

    def probe(self, block: int) -> bool:
        """Look up ``block``, updating hit/miss counters."""
        if self.contains(block):
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, block: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install ``block``, evicting any conflicting resident block.

        Returns:
            ``(evicted_block, evicted_dirty)`` if a different block was
            displaced, else ``None``.
        """
        index = self._set_index(block)
        victim = self._blocks[index]
        evicted = None
        if victim is not None and victim != block:
            evicted = (victim, self._dirty[index])
        self._blocks[index] = block
        self._dirty[index] = dirty
        return evicted

    def mark_dirty(self, block: int) -> None:
        """Set the dirty bit of a resident block."""
        index = self._set_index(block)
        if self._blocks[index] != block:
            raise KeyError(f"block {block} not resident; cannot mark dirty")
        self._dirty[index] = True

    def mark_clean(self, block: int) -> None:
        """Clear the dirty bit of a resident block (after a writeback)."""
        index = self._set_index(block)
        if self._blocks[index] != block:
            raise KeyError(f"block {block} not resident; cannot mark clean")
        self._dirty[index] = False

    def invalidate(self, block: int) -> bool:
        """Remove ``block`` if resident.  Returns True if it was present."""
        index = self._set_index(block)
        if self._blocks[index] == block:
            self._blocks[index] = None
            self._dirty[index] = False
            return True
        return False

    def resident_blocks(self) -> List[int]:
        """All resident block numbers (test/debug helper)."""
        return [b for b in self._blocks if b is not None]

    @property
    def occupancy(self) -> int:
        return sum(1 for b in self._blocks if b is not None)

    def __repr__(self) -> str:
        return (
            f"DirectMappedCache(size={self.size_bytes}, block={self.block_bytes}, "
            f"occupancy={self.occupancy}/{self.num_sets})"
        )
