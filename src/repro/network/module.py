"""The paper's memory-module contention model (Section 3).

    "We assume that in a network cycle only one processor can access the
    barrier variable or the barrier flag.  If a processor is denied
    access to the variable in a network cycle it repeats the access to
    the variable in the next network cycle."

A naive implementation steps every cycle and replays every denied
attempt.  :class:`MemoryModule` collapses that loop exactly: if a
processor starts requesting at cycle ``t`` and the module is serving
earlier requests until cycle ``g``, the processor was denied in cycles
``t .. g-1`` and granted at ``g`` — it made ``g - t + 1`` network
accesses.  Requests must therefore be presented in non-decreasing
ready-time order (the simulators do this with a global event heap),
which realises earliest-request-first arbitration; for processors that
continuously re-poll, this is equivalent to round-robin service.
"""

from __future__ import annotations

from typing import List, Tuple


class MemoryModule:
    """A memory module that grants exactly one access per network cycle.

    Attributes:
        name: label used in error messages and reports.
        next_free: the first cycle at which the module can grant a new
            access.
        total_accesses: network accesses made against this module,
            *including* denied (retried) cycles, per the paper's counting
            convention.
        total_grants: accesses that actually completed.
        busy_cycles: number of cycles in which the module granted an
            access (utilisation numerator).
        outage_cycles: denied cycles attributable to outage windows
            (fault injection) rather than contention.
    """

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.next_free = 0
        self.total_accesses = 0
        self.total_grants = 0
        self.busy_cycles = 0
        self.outage_cycles = 0
        self._last_ready = 0
        self._outages: List[Tuple[int, int]] = []

    def reset(self) -> None:
        """Return the module to its initial idle state (keeps no outages)."""
        self.next_free = 0
        self.total_accesses = 0
        self.total_grants = 0
        self.busy_cycles = 0
        self.outage_cycles = 0
        self._last_ready = 0
        self._outages = []

    # -- fault injection ----------------------------------------------

    def add_outage(self, start: int, end: int) -> None:
        """Declare the half-open cycle window ``[start, end)`` dead.

        During an outage the module grants nothing; a processor whose
        grant would land inside the window keeps retrying (each denied
        cycle is charged as a network access, per the paper's counting)
        and is granted at the first live cycle.  Zero-length windows
        (``end <= start``) are no-ops.
        """
        if start < 0:
            raise ValueError(f"outage start must be non-negative, got {start}")
        if end <= start:
            return
        self._outages.append((int(start), int(end)))
        self._outages.sort()

    @property
    def outages(self) -> Tuple[Tuple[int, int], ...]:
        """The declared outage windows, sorted by start cycle."""
        return tuple(self._outages)

    def _next_live_cycle(self, cycle: int) -> int:
        """The first cycle >= ``cycle`` outside every outage window."""
        for start, end in self._outages:
            if cycle < start:
                break
            if cycle < end:
                cycle = end
        return cycle

    def request(self, ready_time: int) -> Tuple[int, int]:
        """Serve one access that became ready at ``ready_time``.

        Args:
            ready_time: the cycle at which the processor first presents
                the access.  Must be >= every previously presented
                ready time (earliest-request-first arbitration).

        Returns:
            ``(grant_time, accesses)``: the cycle at which the access
            succeeds, and the number of network accesses consumed
            (1 plus the number of denied cycles).
        """
        if ready_time < 0:
            raise ValueError(f"ready_time must be non-negative, got {ready_time}")
        if ready_time < self._last_ready:
            raise ValueError(
                f"module {self.name!r}: requests must arrive in non-decreasing "
                f"ready-time order (got {ready_time} after {self._last_ready})"
            )
        self._last_ready = ready_time
        grant_time = max(ready_time, self.next_free)
        if self._outages:
            live = self._next_live_cycle(grant_time)
            self.outage_cycles += live - grant_time
            grant_time = live
        self.next_free = grant_time + 1
        accesses = grant_time - ready_time + 1
        self.total_accesses += accesses
        self.total_grants += 1
        self.busy_cycles += 1
        return grant_time, accesses

    def peek_grant_time(self, ready_time: int) -> int:
        """The grant time a request at ``ready_time`` would receive now."""
        grant_time = max(ready_time, self.next_free)
        if self._outages:
            grant_time = self._next_live_cycle(grant_time)
        return grant_time

    @property
    def contention_accesses(self) -> int:
        """Accesses wasted on denied cycles."""
        return self.total_accesses - self.total_grants

    def utilisation(self, horizon: int) -> float:
        """Fraction of cycles in [0, horizon) the module spent granting."""
        if horizon <= 0:
            return 0.0
        return min(self.busy_cycles, horizon) / horizon

    def __repr__(self) -> str:
        return (
            f"MemoryModule({self.name!r}, grants={self.total_grants}, "
            f"accesses={self.total_accesses})"
        )


def request_order_error(name: str, ready_time: int, last_ready: int) -> ValueError:
    """The error :meth:`MemoryModule.request` raises for a request at
    ``ready_time`` after one at ``last_ready``.

    For event loops that inline the module's grant arithmetic
    (``grant = max(ready, next_free)``, ``next_free = grant + 1``,
    ``accesses = grant - ready + 1``) and guard it with the single
    comparison ``ready_time < last_ready``, starting from
    ``last_ready = 0``.
    """
    if ready_time < 0:
        return ValueError(f"ready_time must be non-negative, got {ready_time}")
    return ValueError(
        f"module {name!r}: requests must arrive in non-decreasing "
        f"ready-time order (got {ready_time} after {last_ready})"
    )
