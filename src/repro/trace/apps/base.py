"""Shared helpers for the synthetic application builders."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.trace.program import AddressSpace, Ref
from repro.trace.record import Op

#: Bytes per matrix/grid element in the synthetic address maps.
WORD_BYTES = 8


def element_address(base: int, index: int) -> int:
    """Byte address of the ``index``-th word of a region."""
    return base + index * WORD_BYTES


def stride_body(
    base: int,
    start: int,
    count: int,
    reads_per_element: int = 1,
    writes_per_element: int = 1,
) -> List[Ref]:
    """A loop-iteration body that sweeps ``count`` consecutive elements.

    Models a stencil/butterfly inner loop: each element is read
    ``reads_per_element`` times and written ``writes_per_element``
    times, in element order.
    """
    pattern = (Op.READ,) * reads_per_element + (Op.WRITE,) * writes_per_element
    first = element_address(base, start)
    return [
        (op, address)
        for address in range(first, first + count * WORD_BYTES, WORD_BYTES)
        for op in pattern
    ]


def gather_body(
    rng: np.random.Generator,
    shared_base: int,
    shared_words: int,
    length: int,
    write_fraction: float = 0.3,
) -> List[Ref]:
    """A body of ``length`` references scattered over a shared region.

    Models irregular access (table lookups, coefficient reads): each
    reference picks a uniformly random word and is a write with
    probability ``write_fraction``.
    """
    indices = rng.integers(shared_words, size=length)
    writes = rng.random(length) < write_fraction
    return [
        (Op.WRITE if is_write else Op.READ, element_address(shared_base, index))
        for index, is_write in zip(indices.tolist(), writes.tolist())
    ]


def alloc_matrix(space: AddressSpace, name: str, words: int) -> int:
    """Reserve a region of ``words`` elements; returns the base address."""
    return space.alloc(name, words * WORD_BYTES)
