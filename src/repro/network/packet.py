"""Packet-switched multistage network with finite switch queues.

The paper's motivation rests on Pfister & Norton's hot-spot result:

    "a widely-shared synchronization variable (such as in a barrier
    synchronization) will result in heavy traffic to the same location
    in memory and cause hot-spot contention problems [19] ... only a
    small percentage of all data accesses to the same 'hot' module can
    cause tree saturation in the interconnection network and a
    corresponding severe drop in the effective memory bandwidth."

The circuit-switched simulator (:mod:`repro.network.multistage`) models
collisions; *tree saturation* is a buffered-network phenomenon, so this
module adds a packet-switched Omega network: every switch output port
has a FIFO queue of capacity ``queue_capacity``; a full queue
back-pressures the previous stage; the queues feeding the hot memory
module fill first and the congestion spreads backward in a tree,
throttling processors that never reference the hot module at all.

The Scott & Sohi feedback signal of Section 8 — "the state information
found in the queues at the memory modules" — is available here for
real: a blocked injection consults the destination module's queue
occupancy through its :class:`~repro.network.netbackoff.NetworkBackoffPolicy`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.network.netbackoff import (
    CollisionInfoMemo,
    ImmediateRetry,
    NetworkBackoffPolicy,
)
from repro.network.omega import omega_lines
from repro.sim.rng import spawn_stream
from repro.sim.stats import RunningStats

#: A packet in flight: ``(dest, injected_at)``.  Its route is implied by
#: ``dest``: from line ``l`` at stage ``k`` it moves to line
#: ``((l << 1) & (P-1)) | bit_{n-2-k}(dest)`` at stage ``k + 1``.
Packet = Tuple[int, int]


@dataclass
class PacketRunResult:
    """Outcome of one packet-switched network run."""

    horizon: int
    num_ports: int
    delivered_hot: int = 0
    delivered_cold: int = 0
    injected: int = 0
    injection_blocked: int = 0
    latency_hot: RunningStats = field(default_factory=RunningStats)
    latency_cold: RunningStats = field(default_factory=RunningStats)

    @property
    def delivered(self) -> int:
        return self.delivered_hot + self.delivered_cold

    @property
    def cold_throughput(self) -> float:
        """Delivered non-hot packets per port per cycle — the bandwidth
        everyone *else* gets, which tree saturation destroys."""
        if not self.horizon or not self.num_ports:
            return 0.0
        return self.delivered_cold / (self.horizon * self.num_ports)

    @property
    def hot_throughput(self) -> float:
        if not self.horizon:
            return 0.0
        return self.delivered_hot / self.horizon

    @property
    def blocked_fraction(self) -> float:
        attempts = self.injected + self.injection_blocked
        if not attempts:
            return 0.0
        return self.injection_blocked / attempts


class PacketSwitchedNetwork:
    """A buffered Omega network, stepped cycle by cycle.

    Args:
        num_ports: processors/modules (power of two).
        queue_capacity: per-switch-output FIFO depth (Pfister-Norton
            use small values; default 4).
        memory_service: packets a memory module consumes per cycle.
    """

    def __init__(
        self,
        num_ports: int,
        queue_capacity: int = 4,
        memory_service: int = 1,
    ) -> None:
        if num_ports < 2 or num_ports & (num_ports - 1):
            raise ValueError(f"num_ports must be a power of two >= 2, got {num_ports}")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if memory_service < 1:
            raise ValueError("memory_service must be >= 1")
        self.num_ports = num_ports
        self.num_stages = num_ports.bit_length() - 1
        self.queue_capacity = queue_capacity
        self.memory_service = memory_service
        # One FIFO per switch output, indexed ``stage * num_ports + line``.
        self._queues: List[Deque[Packet]] = [
            deque() for __ in range(self.num_stages * num_ports)
        ]

    def route(self, source: int, dest: int) -> Tuple[Tuple[int, int], ...]:
        """Queue sequence (stage, line) from source to dest."""
        return tuple(enumerate(omega_lines(self.num_stages, source, dest)))

    def dest_queue_length(self, dest: int) -> int:
        """Occupancy of the final-stage queue feeding module ``dest`` —
        the Scott & Sohi feedback signal."""
        return len(self._queues[(self.num_stages - 1) * self.num_ports + dest])

    def queued(self) -> List[Tuple[Packet, ...]]:
        """Every switch queue's ``(dest, injected_at)`` packets, head
        first, indexed ``stage * num_ports + line``."""
        return [tuple(queue) for queue in self._queues]

    def run(
        self,
        horizon: int,
        injection_rate: float,
        hot_fraction: float,
        backoff: Optional[NetworkBackoffPolicy] = None,
        proactive: bool = False,
        seed: int = 0,
    ) -> PacketRunResult:
        """Open-loop run: each port injects with ``injection_rate``.

        A processor whose injection is blocked (first-stage queue full)
        consults ``backoff`` for how long to pause before its next
        injection attempt; ``ImmediateRetry`` retries next cycle.

        With ``proactive=True`` the processor consults ``backoff``
        *before* injecting, using the destination module's queue
        occupancy — Section 8's Scott & Sohi throttle: "have the
        processors back off sending requests by some time proportional
        to the length of the queue".  Requests to congested modules are
        postponed instead of being pumped into the saturating tree.
        """
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 <= injection_rate <= 1.0:
            raise ValueError("injection_rate must be in [0, 1]")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        policy = backoff if backoff is not None else ImmediateRetry()
        rng = spawn_stream(seed, f"packet:{self.num_ports}:{hot_fraction}")
        random = rng.random
        integers = rng.integers
        result = PacketRunResult(horizon=horizon, num_ports=self.num_ports)
        add_hot = result.latency_hot.add
        add_cold = result.latency_cold.add

        ports = self.num_ports
        stages = self.num_stages
        capacity = self.queue_capacity
        service = self.memory_service
        mask = ports - 1
        queues = self._queues
        last_base = (stages - 1) * ports
        final_queues = queues[last_base:]
        # Forwarding hops, back to front: (stage's queues, next stage's
        # base index, shift of the dest bit that picks the next line).
        hops = [
            (
                queues[stage * ports:(stage + 1) * ports],
                (stage + 1) * ports,
                stages - 2 - stage,
            )
            for stage in range(stages - 2, -1, -1)
        ]
        # Stage-0 line of port p, before the dest's top bit is ORed in.
        entry_lines = [(port << 1) & mask for port in range(ports)]
        top_shift = stages - 1
        collision_info = CollisionInfoMemo(stages, 2 * stages).get

        # Per-port injection state.
        next_try = [0] * ports
        blocked_tries = [0] * ports
        pending: List[Optional[int]] = [None] * ports  # queued dest

        delivered_hot = delivered_cold = injected = blocked = 0
        for now in range(horizon):
            # 1. Memory modules drain their final-stage queues.
            for queue in final_queues:
                if not queue:
                    continue
                for __ in range(min(service, len(queue))):
                    dest, injected_at = queue.popleft()
                    if dest == 0:  # by convention the hot module is port 0
                        delivered_hot += 1
                        add_hot(now - injected_at + 1)
                    else:
                        delivered_cold += 1
                        add_cold(now - injected_at + 1)

            # 2. Forward packets stage by stage, back to front, one
            #    acceptance per queue per cycle (2x2 switch arbitration;
            #    the lower line wins).
            for stage_queues, next_base, shift in hops:
                accepted = set()
                for line, queue in enumerate(stage_queues):
                    if not queue:
                        continue
                    target = next_base + (
                        ((line << 1) & mask) | ((queue[0][0] >> shift) & 1)
                    )
                    if target in accepted:
                        continue
                    target_queue = queues[target]
                    if len(target_queue) >= capacity:
                        continue
                    target_queue.append(queue.popleft())
                    accepted.add(target)

            # 3. Injections.
            for port in range(ports):
                if now < next_try[port]:
                    continue
                dest = pending[port]
                if dest is None:
                    if random() >= injection_rate:
                        continue
                    dest = 0 if random() < hot_fraction else int(integers(ports))
                if proactive:
                    occupancy = len(queues[last_base + dest])
                    if occupancy:
                        delay = policy.delay(
                            collision_info(1, blocked_tries[port], occupancy)
                        )
                        if delay > 0:
                            pending[port] = dest
                            next_try[port] = now + delay
                            continue
                entry = queues[entry_lines[port] | (dest >> top_shift)]
                if len(entry) < capacity:
                    entry.append((dest, now))
                    injected += 1
                    pending[port] = None
                    blocked_tries[port] = 0
                else:
                    blocked += 1
                    pending[port] = dest
                    blocked_tries[port] += 1
                    info = collision_info(
                        1, blocked_tries[port], len(queues[last_base + dest])
                    )
                    next_try[port] = now + 1 + max(policy.delay(info), 0)
        result.delivered_hot = delivered_hot
        result.delivered_cold = delivered_cold
        result.injected = injected
        result.injection_blocked = blocked
        return result


def tree_saturation_sweep(
    num_ports: int = 64,
    hot_fractions: Sequence[float] = (0.0, 0.01, 0.02, 0.04, 0.08, 0.16),
    injection_rate: float = 0.4,
    horizon: int = 5_000,
    queue_capacity: int = 4,
    backoff: Optional[NetworkBackoffPolicy] = None,
    proactive: bool = False,
    seed: int = 0,
) -> Dict[float, PacketRunResult]:
    """Cold-traffic bandwidth vs hot-spot fraction (the Pfister-Norton curve)."""
    results: Dict[float, PacketRunResult] = {}
    for fraction in hot_fractions:
        network = PacketSwitchedNetwork(
            num_ports=num_ports, queue_capacity=queue_capacity
        )
        results[fraction] = network.run(
            horizon=horizon,
            injection_rate=injection_rate,
            hot_fraction=fraction,
            backoff=backoff,
            proactive=proactive,
            seed=seed,
        )
    return results


__all__ = [
    "PacketSwitchedNetwork",
    "PacketRunResult",
    "tree_saturation_sweep",
]
