"""Circuit-switched multistage (Omega) network simulator.

Supports the Section 8 extension study: what happens when the *network
controller* backs off after a collision in an unbuffered
circuit-switched network, instead of resubmitting every cycle.

Topology and routing
--------------------

An Omega network with ``P = 2**n`` ports has ``n`` stages of 2x2
switches connected by perfect shuffles.  Destination-tag routing is
used: starting from position ``source``, at stage ``k`` the message
moves to line ``((pos << 1) & (P-1)) | bit_{n-1-k}(dest)``; after ``n``
stages the position equals ``dest``.  Each ``(stage, line)`` pair is a
link resource; a circuit claims all ``n`` links on its path for
``hold_time`` cycles (the round trip).  Two circuits that need the same
link at overlapping times collide; the loser learns the *depth* (number
of stages traversed) of the collision, consults its backoff policy, and
retries.

The simulation is event-driven over attempt times, so idle cycles cost
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import add
from typing import Dict, List, Optional, Tuple

from repro.faults.plan import GRANT_DROP, GRANT_DUP, get_fault_plan
from repro.network.netbackoff import (
    CollisionInfoMemo,
    ImmediateRetry,
    NetworkBackoffPolicy,
)
from repro.network.omega import omega_lines
from repro.obs.tracer import get_tracer
from repro.sim.stats import Histogram, RunningStats

#: Narrowest network whose hot-spot runs go to the numpy kernel; below
#: it the scalar loop is faster (docs/vectorization.md).
KERNEL_MIN_PORTS = 256


@dataclass
class NetworkMessage:
    """One memory request traversing the network."""

    source: int
    dest: int
    issue_time: int
    tries: int = 0
    completed_time: Optional[int] = None
    attempts: int = 0
    #: Flat ``stage * num_ports + line`` links of the route, computed on
    #: the message's first attempt after it enters the network.
    path: Optional[Tuple[int, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def latency(self) -> Optional[int]:
        if self.completed_time is None:
            return None
        return self.completed_time - self.issue_time


@dataclass
class NetworkRunResult:
    """Aggregate outcome of a multistage-network run."""

    horizon: int
    completed: int = 0
    collisions: int = 0
    attempts: int = 0
    #: Circuit grants lost to fault injection (the message retried).
    dropped_grants: int = 0
    #: Circuit grants duplicated by fault injection (extra attempt charged).
    duplicated_grants: int = 0
    latency: RunningStats = field(default_factory=RunningStats)
    attempts_per_message: RunningStats = field(default_factory=RunningStats)
    collision_depths: Histogram = field(default_factory=Histogram)

    @property
    def throughput(self) -> float:
        """Completed messages per cycle."""
        if self.horizon <= 0:
            return 0.0
        return self.completed / self.horizon

    @property
    def collision_rate(self) -> float:
        """Collisions per attempt."""
        if not self.attempts:
            return 0.0
        return self.collisions / self.attempts


class Workload:
    """Source of messages for :class:`MultistageNetwork`.

    Subclasses implement :meth:`initial_messages` (open-loop traffic
    and/or the first request of each closed-loop processor) and
    optionally :meth:`on_complete` to issue a follow-up request.
    """

    def initial_messages(self) -> List[NetworkMessage]:
        raise NotImplementedError

    def on_complete(
        self, message: NetworkMessage, time: int
    ) -> Optional[NetworkMessage]:
        """Called when ``message`` completes; may return a successor."""
        return None


class MultistageNetwork:
    """A ``P``-port circuit-switched Omega network."""

    def __init__(
        self,
        num_ports: int,
        hold_time: int = 4,
        backoff: Optional[NetworkBackoffPolicy] = None,
    ) -> None:
        if num_ports < 2 or num_ports & (num_ports - 1):
            raise ValueError(f"num_ports must be a power of two >= 2, got {num_ports}")
        if hold_time < 1:
            raise ValueError("hold_time must be >= 1")
        self.num_ports = num_ports
        self.num_stages = num_ports.bit_length() - 1
        self.hold_time = hold_time
        self.backoff = backoff if backoff is not None else ImmediateRetry()
        # busy_until[stage * P + line]: first cycle the link is free again.
        self._busy_until: List[int] = [0] * (self.num_stages * num_ports)
        self._stage_bases = range(0, self.num_stages * num_ports, num_ports)
        # Outstanding (issued, not completed) messages per destination:
        # the queue-length signal for feedback backoff.
        self._dest_pending: Dict[int, int] = {}

    def _lines(self, source: int, dest: int) -> List[int]:
        if not 0 <= source < self.num_ports:
            raise ValueError(f"source {source} out of range")
        if not 0 <= dest < self.num_ports:
            raise ValueError(f"dest {dest} out of range")
        return omega_lines(self.num_stages, source, dest)

    def route_lines(self, source: int, dest: int) -> List[Tuple[int, int]]:
        """The (stage, line) resources on the path from source to dest."""
        return list(enumerate(self._lines(source, dest)))

    def _flat_path(self, source: int, dest: int) -> Tuple[int, ...]:
        """The route as indices into the flat ``_busy_until`` list."""
        return tuple(map(add, self._stage_bases, self._lines(source, dest)))

    def run(self, workload: Workload, horizon: int) -> NetworkRunResult:
        """Drive ``workload`` through the network until ``horizon``.

        Messages still in flight at the horizon are abandoned (they count
        toward attempts/collisions but not completions).

        Attempts are visited in (due time, push order).  A calendar
        queue keeps that order: ``times`` is a heap of the distinct due
        times, and ``buckets[t]`` lists the messages due at ``t`` in the
        order they were pushed.  A successor the workload issues at or
        before the current time is visited exactly where a single
        ``(time, seq)`` heap would put it: at the current time it joins
        the end of the bucket being walked; earlier, the walk stops,
        the rest of the bucket is re-queued, and the earlier time runs
        first.

        An untraced, fault-free run of a plain ``HotspotWorkload`` on at
        least ``KERNEL_MIN_PORTS`` ports goes to the numpy kernel of
        :mod:`repro.network.kernel_circuit` when the episode backend
        resolves to numpy; it gives the same result and leaves the same
        state.  Narrower networks run faster on this loop.
        """
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        result = NetworkRunResult(horizon=horizon)
        tracer = get_tracer()
        trace_on = tracer.enabled
        plan = get_fault_plan()
        if self.num_ports >= KERNEL_MIN_PORTS and not trace_on and plan is None:
            from repro.network.kernel_circuit import maybe_run

            kernel_result = maybe_run(self, workload, horizon)
            if kernel_result is not None:
                return kernel_result
        hold = self.hold_time
        busy = self._busy_until
        dest_pending = self._dest_pending
        backoff = self.backoff
        add_latency = result.latency.add
        add_attempts = result.attempts_per_message.add
        # Collision depths in first-seen order, folded into the
        # histogram once the run ends.
        depths: Dict[int, int] = {}
        times: List[int] = []
        buckets: Dict[int, List[NetworkMessage]] = {}
        collision_info = CollisionInfoMemo(self.num_stages, hold).get

        def push(message: NetworkMessage, when: int) -> None:
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = [message]
                heappush(times, when)
            else:
                bucket.append(message)

        def enter(message: NetworkMessage) -> None:
            # The workload may hand back a reused message with a new
            # source or destination: route it afresh.
            message.path = None
            dest_pending[message.dest] = dest_pending.get(message.dest, 0) + 1
            push(message, message.issue_time)

        for message in workload.initial_messages():
            enter(message)

        attempts = completed = collisions = 0
        while times:
            now = heappop(times)
            if now >= horizon:
                break
            bucket = buckets[now]
            resume = 0
            for index, message in enumerate(bucket):
                message.attempts += 1
                attempts += 1
                path = message.path
                if path is None:
                    path = message.path = self._flat_path(
                        message.source, message.dest
                    )
                for link in path:
                    if busy[link] > now:
                        break
                else:
                    release = now + hold
                    for link in path:
                        busy[link] = release
                    if plan is not None:
                        outcome = plan.grant_outcome(
                            "network.grant", message.source, now
                        )
                        if outcome == GRANT_DROP:
                            # The grant (or its acknowledgement) is lost:
                            # the circuit held its links for the round
                            # trip but the requester saw nothing, so it
                            # retries afterwards.
                            result.dropped_grants += 1
                            push(message, release + 1)
                            continue
                        if outcome == GRANT_DUP:
                            # A duplicated grant: the duplicate consumed
                            # one extra network attempt's worth of
                            # resources.
                            result.duplicated_grants += 1
                            attempts += 1
                    message.completed_time = release
                    dest_pending[message.dest] -= 1
                    completed += 1
                    add_latency(release - message.issue_time)
                    add_attempts(message.attempts)
                    successor = workload.on_complete(message, release)
                    if successor is not None:
                        enter(successor)
                        if successor.issue_time < now:
                            resume = index + 1
                            break
                    continue
                depth = path.index(link) + 1
                message.tries += 1
                collisions += 1
                depths[depth] = depths.get(depth, 0) + 1
                queue_length = dest_pending.get(message.dest, 1) - 1
                delay = backoff.delay(
                    collision_info(depth, message.tries, queue_length)
                )
                if delay < 0:
                    raise ValueError(
                        f"backoff policy {backoff!r} returned negative delay"
                    )
                if trace_on:
                    tracer.count("network.collisions")
                    tracer.observe("network.hotspot_queue_length", queue_length)
                    tracer.observe("network.collision_depth", depth)
                when = now + 1 + delay
                bucket_at = buckets.get(when)
                if bucket_at is None:
                    buckets[when] = [message]
                    heappush(times, when)
                else:
                    bucket_at.append(message)
            if resume:
                del bucket[:resume]
                heappush(times, now)
            else:
                del buckets[now]
        result.attempts = attempts
        result.completed = completed
        result.collisions = collisions
        for depth, count in depths.items():
            result.collision_depths.add(depth, count)
        if trace_on:
            tracer.count("network.attempts", result.attempts)
            tracer.count("network.completions", result.completed)
            tracer.emit(
                "network.run",
                ports=self.num_ports,
                policy=backoff.name,
                horizon=horizon,
                completed=result.completed,
                collisions=result.collisions,
                attempts=result.attempts,
            )
        return result
