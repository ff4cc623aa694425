"""The multiprocessor trace record format.

A trace is a time-ordered sequence of :class:`TraceRecord` objects.  The
paper's traces carry the same information: which processor issued the
reference, whether it reads, writes or atomically read-modify-writes
(fetch&add), the address, and whether the reference is a
synchronization reference (barrier variables, barrier flags, loop index
variables) or ordinary data.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Op(Enum):
    """Memory operation kind."""

    READ = "read"
    WRITE = "write"
    RMW = "rmw"  # atomic read-modify-write (fetch&add)

    def __init__(self, value: str) -> None:
        #: Compact integer encoding used by trace columns: READ 0,
        #: WRITE 1, RMW 2.  A plain attribute, so converting a body to
        #: codes costs no enum hashing.
        self.code = ("read", "write", "rmw").index(value)

    @property
    def is_write_like(self) -> bool:
        """True for operations that need exclusive ownership."""
        return self is not Op.READ


@dataclass(frozen=True)
class TraceRecord:
    """One memory reference in a multiprocessor trace.

    Attributes:
        cpu: issuing processor id.
        op: operation kind.
        address: byte address.
        is_sync: True for synchronization references.
    """

    __slots__ = ("cpu", "op", "address", "is_sync")

    cpu: int
    op: Op
    address: int
    is_sync: bool

    def __post_init__(self) -> None:
        if self.cpu < 0:
            raise ValueError(f"cpu must be non-negative, got {self.cpu}")
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")
