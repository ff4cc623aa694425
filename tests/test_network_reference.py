"""Differential oracle: the Omega network simulators against their
reference loops.

``ReferenceMultistageNetwork`` and ``ReferencePacketNetwork`` below are
the simulators as first written: a ``(time, seq)`` event heap, a
``route_lines`` call on every attempt and a 2-D ``busy_until`` table
for the circuit-switched network; a dict of per-``(stage, line)``
deques of ``_Packet`` objects carrying their whole route for the
buffered one.  They are kept here, test-only and unchanged, as the
specification the fast loops in :mod:`repro.network.multistage` and
:mod:`repro.network.packet` must reproduce exactly: every result field
(running-statistic moments, histogram counts, grant faults, blocked
injections), the network state left behind, and the tracer's events,
counters and observations.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from unittest import mock
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.barrier.backend import backend_context
from repro.faults.plan import GRANT_DROP, GRANT_DUP, fault_injection, get_fault_plan
from repro.faults.spec import parse_plan
from repro.network.hotspot import HotspotWorkload
from repro.network import kernel_circuit
from repro.network.multistage import (
    KERNEL_MIN_PORTS,
    MultistageNetwork,
    NetworkMessage,
    NetworkRunResult,
    Workload,
)
from repro.network.netbackoff import (
    CollisionInfo,
    ConstantRoundTripBackoff,
    DepthProportionalBackoff,
    ExponentialRetryBackoff,
    ImmediateRetry,
    InverseDepthBackoff,
    NetworkBackoffPolicy,
    QueueFeedbackBackoff,
)
from repro.network.packet import PacketRunResult, PacketSwitchedNetwork
from repro.obs.tracer import Tracer, get_tracer, tracing
from repro.sim.rng import spawn_stream
from repro.sim.stats import Histogram, RunningStats

# ----------------------------------------------------------------------
# Reference implementations (verbatim copies of the original loops).
# ----------------------------------------------------------------------


class ReferenceMultistageNetwork:
    """The circuit-switched network as first written (reference copy)."""

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
        # busy_until[stage][line]: first cycle the link is free again.
        self._busy_until: List[List[int]] = [
            [0] * num_ports for _ in range(self.num_stages)
        ]
        # Outstanding (issued, not completed) messages per destination:
        # the queue-length signal for feedback backoff.
        self._dest_pending: Dict[int, int] = {}

    def route_lines(self, source: int, dest: int) -> List[Tuple[int, int]]:
        """The (stage, line) resources on the path from source to dest."""
        if not 0 <= source < self.num_ports:
            raise ValueError(f"source {source} out of range")
        if not 0 <= dest < self.num_ports:
            raise ValueError(f"dest {dest} out of range")
        mask = self.num_ports - 1
        pos = source
        lines = []
        for stage in range(self.num_stages):
            dest_bit = (dest >> (self.num_stages - 1 - stage)) & 1
            pos = ((pos << 1) & mask) | dest_bit
            lines.append((stage, pos))
        return lines

    def _attempt(self, message: NetworkMessage, time: int) -> Tuple[bool, int]:
        """Try to claim the full path at ``time``.

        Returns ``(success, depth)`` where depth is the number of stages
        traversed before the collision (== num_stages on success).
        """
        path = self.route_lines(message.source, message.dest)
        for depth, (stage, line) in enumerate(path, start=1):
            if self._busy_until[stage][line] > time:
                return False, depth
        release = time + self.hold_time
        for stage, line in path:
            self._busy_until[stage][line] = release
        return True, self.num_stages

    def run(self, workload: Workload, horizon: int) -> NetworkRunResult:
        """Drive ``workload`` through the network until ``horizon``.

        Messages still in flight at the horizon are abandoned (they count
        toward attempts/collisions but not completions).
        """
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        result = NetworkRunResult(horizon=horizon)
        heap: List[Tuple[int, int, NetworkMessage]] = []
        seq = 0
        tracer = get_tracer()
        trace_on = tracer.enabled
        plan = get_fault_plan()

        def push(message: NetworkMessage, when: int) -> None:
            nonlocal seq
            heapq.heappush(heap, (when, seq, message))
            seq += 1

        for message in workload.initial_messages():
            self._dest_pending[message.dest] = (
                self._dest_pending.get(message.dest, 0) + 1
            )
            push(message, message.issue_time)

        while heap:
            time, __, message = heapq.heappop(heap)
            if time >= horizon:
                break
            message.attempts += 1
            result.attempts += 1
            success, depth = self._attempt(message, time)
            if success and plan is not None:
                outcome = plan.grant_outcome("network.grant", message.source, time)
                if outcome == GRANT_DROP:
                    # The grant (or its acknowledgement) is lost: the
                    # circuit held its links for the round trip but the
                    # requester saw nothing, so it retries afterwards.
                    result.dropped_grants += 1
                    push(message, time + self.hold_time + 1)
                    continue
                if outcome == GRANT_DUP:
                    # A duplicated grant: the duplicate consumed one
                    # extra network attempt's worth of resources.
                    result.duplicated_grants += 1
                    result.attempts += 1
            if success:
                message.completed_time = time + self.hold_time
                self._dest_pending[message.dest] -= 1
                result.completed += 1
                result.latency.add(message.latency)  # type: ignore[arg-type]
                result.attempts_per_message.add(message.attempts)
                successor = workload.on_complete(message, message.completed_time)
                if successor is not None:
                    self._dest_pending[successor.dest] = (
                        self._dest_pending.get(successor.dest, 0) + 1
                    )
                    push(successor, successor.issue_time)
            else:
                message.tries += 1
                result.collisions += 1
                result.collision_depths.add(depth)
                info = CollisionInfo(
                    depth=depth,
                    stages=self.num_stages,
                    tries=message.tries,
                    round_trip=self.hold_time,
                    queue_length=self._dest_pending.get(message.dest, 1) - 1,
                )
                delay = self.backoff.delay(info)
                if delay < 0:
                    raise ValueError(
                        f"backoff policy {self.backoff!r} returned negative delay"
                    )
                if trace_on:
                    tracer.count("network.collisions")
                    tracer.observe("network.hotspot_queue_length", info.queue_length)
                    tracer.observe("network.collision_depth", depth)
                push(message, time + 1 + delay)
        if trace_on:
            tracer.count("network.attempts", result.attempts)
            tracer.count("network.completions", result.completed)
            tracer.emit(
                "network.run",
                ports=self.num_ports,
                policy=self.backoff.name,
                horizon=horizon,
                completed=result.completed,
                collisions=result.collisions,
                attempts=result.attempts,
            )
        return result


@dataclass
class _Packet:
    """One request packet in flight."""

    dest: int
    injected_at: int
    path: Tuple[Tuple[int, int], ...]
    hop: int = 0  # index into path of the queue currently holding it

    @property
    def is_hot(self) -> bool:
        return self.dest == 0  # by convention the hot module is port 0


class ReferencePacketNetwork:
    """The buffered network as first written (reference copy).

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
        self._queues: Dict[Tuple[int, int], Deque[_Packet]] = {}

    def _queue(self, stage: int, line: int) -> Deque[_Packet]:
        key = (stage, line)
        queue = self._queues.get(key)
        if queue is None:
            queue = deque()
            self._queues[key] = queue
        return queue

    def route(self, source: int, dest: int) -> Tuple[Tuple[int, int], ...]:
        """Queue sequence (stage, line) from source to dest."""
        mask = self.num_ports - 1
        pos = source
        path = []
        for stage in range(self.num_stages):
            dest_bit = (dest >> (self.num_stages - 1 - stage)) & 1
            pos = ((pos << 1) & mask) | dest_bit
            path.append((stage, pos))
        return tuple(path)

    def dest_queue_length(self, dest: int) -> int:
        """Occupancy of the final-stage queue feeding module ``dest`` —
        the Scott & Sohi feedback signal."""
        return len(self._queue(self.num_stages - 1, dest))

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
        result = PacketRunResult(horizon=horizon, num_ports=self.num_ports)

        # Per-port injection state.
        next_try = [0] * self.num_ports
        blocked_tries = [0] * self.num_ports
        pending: List[Optional[int]] = [None] * self.num_ports  # queued dest

        last_stage = self.num_stages - 1
        for now in range(horizon):
            # 1. Memory modules drain their final-stage queues.
            for line in range(self.num_ports):
                queue = self._queues.get((last_stage, line))
                if not queue:
                    continue
                for __ in range(min(self.memory_service, len(queue))):
                    packet = queue.popleft()
                    latency = now - packet.injected_at + 1
                    if packet.is_hot:
                        result.delivered_hot += 1
                        result.latency_hot.add(latency)
                    else:
                        result.delivered_cold += 1
                        result.latency_cold.add(latency)

            # 2. Forward packets stage by stage, back to front, one
            #    acceptance per queue per cycle (2x2 switch arbitration).
            for stage in range(last_stage - 1, -1, -1):
                accepted: Dict[Tuple[int, int], int] = {}
                for line in range(self.num_ports):
                    queue = self._queues.get((stage, line))
                    if not queue:
                        continue
                    packet = queue[0]
                    next_key = packet.path[packet.hop + 1]
                    target = self._queue(*next_key)
                    if accepted.get(next_key, 0) >= 1:
                        continue
                    if len(target) >= self.queue_capacity:
                        continue
                    queue.popleft()
                    packet.hop += 1
                    target.append(packet)
                    accepted[next_key] = accepted.get(next_key, 0) + 1

            # 3. Injections.
            for port in range(self.num_ports):
                if now < next_try[port]:
                    continue
                dest = pending[port]
                if dest is None:
                    if rng.random() >= injection_rate:
                        continue
                    dest = 0 if rng.random() < hot_fraction else int(
                        rng.integers(self.num_ports)
                    )
                if proactive:
                    occupancy = self.dest_queue_length(dest)
                    if occupancy:
                        info = CollisionInfo(
                            depth=1,
                            stages=self.num_stages,
                            tries=blocked_tries[port],
                            round_trip=2 * self.num_stages,
                            queue_length=occupancy,
                        )
                        delay = policy.delay(info)
                        if delay > 0:
                            pending[port] = dest
                            next_try[port] = now + delay
                            continue
                path = self.route(port, dest)
                entry = self._queue(*path[0])
                if len(entry) < self.queue_capacity:
                    entry.append(_Packet(dest=dest, injected_at=now, path=path))
                    result.injected += 1
                    pending[port] = None
                    blocked_tries[port] = 0
                else:
                    result.injection_blocked += 1
                    pending[port] = dest
                    blocked_tries[port] += 1
                    info = CollisionInfo(
                        depth=1,
                        stages=self.num_stages,
                        tries=blocked_tries[port],
                        round_trip=2 * self.num_stages,
                        queue_length=self.dest_queue_length(dest),
                    )
                    next_try[port] = now + 1 + max(policy.delay(info), 0)
        return result


# ----------------------------------------------------------------------
# State extraction: everything a run produces or leaves behind.
# ----------------------------------------------------------------------


def stats_state(stats: RunningStats):
    return (stats.count, stats._mean, stats._m2, stats.minimum, stats.maximum)


def histogram_state(histogram: Histogram):
    return (histogram.total, list(histogram._counts.items()))


def multistage_state(result: NetworkRunResult):
    return {
        "horizon": result.horizon,
        "completed": result.completed,
        "collisions": result.collisions,
        "attempts": result.attempts,
        "dropped_grants": result.dropped_grants,
        "duplicated_grants": result.duplicated_grants,
        "latency": stats_state(result.latency),
        "attempts_per_message": stats_state(result.attempts_per_message),
        "collision_depths": histogram_state(result.collision_depths),
    }


def packet_state(result: PacketRunResult):
    return {
        "horizon": result.horizon,
        "num_ports": result.num_ports,
        "delivered_hot": result.delivered_hot,
        "delivered_cold": result.delivered_cold,
        "injected": result.injected,
        "injection_blocked": result.injection_blocked,
        "latency_hot": stats_state(result.latency_hot),
        "latency_cold": stats_state(result.latency_cold),
    }


def busy_state(network):
    busy = network._busy_until
    if busy and isinstance(busy[0], list):
        busy = [cycle for row in busy for cycle in row]
    return list(busy), dict(network._dest_pending)


def queue_state(network):
    if isinstance(network, PacketSwitchedNetwork):
        return network.queued()
    return [
        tuple(
            (packet.dest, packet.injected_at)
            for packet in network._queues.get((stage, line), ())
        )
        for stage in range(network.num_stages)
        for line in range(network.num_ports)
    ]


def message_state(messages: List[NetworkMessage]):
    return [
        (m.source, m.dest, m.issue_time, m.tries, m.attempts, m.completed_time)
        for m in messages
    ]


def observed_run(run, trace: bool, plan_spec: Optional[str], plan_seed: int):
    """``run()`` under an optional tracer and fault plan; returns
    ``(result, tracer state, fault counts)``."""
    tracer = Tracer(run_id="oracle", ring_size=1 << 16)
    plan = parse_plan(plan_spec, seed=plan_seed) if plan_spec else None
    if trace:
        with tracing(tracer):
            result = _with_plan(run, plan)
        events = (tracer.snapshot(), tracer.recent())
    else:
        result = _with_plan(run, plan)
        events = None
    return result, events, plan.snapshot() if plan is not None else None


def _with_plan(run, plan):
    if plan is None:
        return run()
    with fault_injection(plan):
        return run()


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------


class RecordingHotspot(HotspotWorkload):
    """Hot-spot traffic that keeps every message it issues."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.messages: List[NetworkMessage] = []

    def initial_messages(self):
        messages = super().initial_messages()
        self.messages.extend(messages)
        return messages

    def on_complete(self, message, time):
        successor = super().on_complete(message, time)
        self.messages.append(successor)
        return successor


class ChainWorkload(Workload):
    """Open-loop seeds whose successors may be due before the attempt
    that completed their predecessor.

    ``on_complete`` receives ``time = grant + hold``; a successor is
    issued at ``time + offset`` with ``offset`` in ``[-back, 3]``, so
    with ``back > hold`` it can be due at the granting cycle or up to
    ``back - hold`` cycles before it.  Issue times are drawn from a
    narrow window, so ties are common.  With ``recycle`` the workload
    sometimes hands back the completed message object itself, rerouted.
    """

    def __init__(self, ports, count, spread, back, hold, recycle, seed):
        self.ports = ports
        self.count = count
        self.spread = spread
        self.back = back
        self.hold = hold
        self.recycle = recycle
        self.rng = random.Random(seed)
        self.messages: List[NetworkMessage] = []
        #: Successors issued before the grant that completed their
        #: predecessor (the calendar queue's time-travel case).
        self.backward = 0
        #: Successors issued at exactly that grant cycle.
        self.same_cycle = 0

    def _new(self, source, dest, issue_time):
        message = NetworkMessage(source=source, dest=dest, issue_time=issue_time)
        self.messages.append(message)
        return message

    def initial_messages(self):
        rng = self.rng
        return [
            self._new(
                rng.randrange(self.ports),
                rng.randrange(self.ports),
                rng.randrange(self.spread + 1),
            )
            for __ in range(self.count)
        ]

    def on_complete(self, message, time):
        rng = self.rng
        if rng.random() < 0.15:
            return None
        issue_time = time + rng.randint(-self.back, 3)
        grant = time - self.hold
        self.backward += issue_time < grant
        self.same_cycle += issue_time == grant
        dest = rng.randrange(self.ports)
        if self.recycle and rng.random() < 0.5:
            message.source = rng.randrange(self.ports)
            message.dest = dest
            message.issue_time = issue_time
            return message
        return self._new(message.source, dest, issue_time)


# ----------------------------------------------------------------------
# Pair runners.
# ----------------------------------------------------------------------


def run_multistage_pair(
    ports,
    hold,
    policy,
    make_workload,
    horizon,
    runs=2,
    trace=False,
    plan_spec=None,
    plan_seed=0,
):
    """Run reference and rewrite on fresh networks, ``runs`` times each
    (the later runs start from the link and pending state the earlier
    ones left), and assert every observable equal."""
    outcomes = []
    for cls in (ReferenceMultistageNetwork, MultistageNetwork):
        network = cls(num_ports=ports, hold_time=hold, backoff=policy)
        states = []
        for index in range(runs):
            workload = make_workload(index)
            result, events, faults = observed_run(
                lambda: network.run(workload, horizon),
                trace,
                plan_spec,
                plan_seed + index,
            )
            states.append(
                (
                    multistage_state(result),
                    events,
                    faults,
                    busy_state(network),
                    message_state(getattr(workload, "messages", [])),
                )
            )
        outcomes.append(states)
    reference, rewrite = outcomes
    for index, (expected, actual) in enumerate(zip(reference, rewrite)):
        for name, want, got in zip(
            ("result", "tracer", "faults", "links", "messages"), expected, actual
        ):
            assert got == want, f"run {index}: {name} differs"
    return reference


def run_packet_pair(ports, capacity, service, runs, trace=False):
    """Reference and rewrite over the same sequence of ``runs`` (each a
    ``run`` keyword dict) on one network apiece; queues carry over."""
    outcomes = []
    for cls in (ReferencePacketNetwork, PacketSwitchedNetwork):
        network = cls(
            num_ports=ports, queue_capacity=capacity, memory_service=service
        )
        states = []
        for options in runs:
            result, events, __ = observed_run(
                lambda: network.run(**options), trace, None, 0
            )
            states.append((packet_state(result), events, queue_state(network)))
        outcomes.append(states)
    reference, rewrite = outcomes
    for index, (expected, actual) in enumerate(zip(reference, rewrite)):
        for name, want, got in zip(("result", "tracer", "queues"), expected, actual):
            assert got == want, f"run {index}: {name} differs"
    return reference


# ----------------------------------------------------------------------
# Strategies.
# ----------------------------------------------------------------------

ALL_POLICIES = (
    ImmediateRetry,
    DepthProportionalBackoff,
    InverseDepthBackoff,
    ConstantRoundTripBackoff,
    ExponentialRetryBackoff,
    QueueFeedbackBackoff,
)

policies = st.one_of(
    st.just(ImmediateRetry()),
    st.builds(DepthProportionalBackoff, st.integers(1, 4)),
    st.builds(InverseDepthBackoff, st.integers(1, 4)),
    st.builds(ConstantRoundTripBackoff, st.sampled_from([0.25, 1.0, 2.5])),
    st.builds(ExponentialRetryBackoff, st.integers(2, 4), st.integers(1, 256)),
    st.builds(QueueFeedbackBackoff, st.integers(1, 3)),
)
port_counts = st.integers(1, 6).map(lambda exponent: 1 << exponent)
fractions = st.sampled_from([0.0, 0.01, 0.1, 0.25, 0.5, 1.0])
seeds = st.integers(0, 2**32 - 1)
ORACLE = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Circuit-switched network.
# ----------------------------------------------------------------------


class TestMultistageOracle:
    @ORACLE
    @given(
        ports=port_counts,
        hold=st.integers(1, 8),
        think=st.integers(0, 8),
        fraction=fractions,
        policy=policies,
        horizon=st.integers(1, 300),
        seed=seeds,
        trace=st.booleans(),
        lossy=st.booleans(),
    )
    def test_hotspot_grid(
        self, ports, hold, think, fraction, policy, horizon, seed, trace, lossy
    ):
        run_multistage_pair(
            ports,
            hold,
            policy,
            lambda index: RecordingHotspot(
                ports, fraction, think_time=think, seed=seed + index
            ),
            horizon,
            trace=trace,
            plan_spec="lossy-net" if lossy else None,
            plan_seed=seed,
        )

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    @pytest.mark.parametrize("lossy", [False, True])
    def test_every_policy_under_hotspot(self, policy_cls, lossy):
        run_multistage_pair(
            64,
            4,
            policy_cls(),
            lambda index: RecordingHotspot(64, 0.1, seed=11 + index),
            400,
            trace=True,
            plan_spec="lossy-net" if lossy else None,
            plan_seed=5,
        )

    def test_1024_ports(self):
        run_multistage_pair(
            1024,
            4,
            ExponentialRetryBackoff(),
            lambda index: RecordingHotspot(1024, 0.05, seed=3 + index),
            40,
            trace=True,
            plan_spec="lossy-net",
        )

    @ORACLE
    @given(
        ports=port_counts,
        hold=st.integers(1, 6),
        count=st.integers(1, 40),
        spread=st.integers(0, 3),
        extra_back=st.integers(-4, 4),
        recycle=st.booleans(),
        policy=policies,
        horizon=st.integers(1, 200),
        seed=seeds,
        lossy=st.booleans(),
    )
    def test_custom_workload_grid(
        self, ports, hold, count, spread, extra_back, recycle, policy, horizon,
        seed, lossy,
    ):
        run_multistage_pair(
            ports,
            hold,
            policy,
            lambda index: ChainWorkload(
                ports, count, spread, max(hold + extra_back, 0), hold, recycle,
                seed + index,
            ),
            horizon,
            trace=True,
            plan_spec="lossy-net" if lossy else None,
            plan_seed=seed,
        )

    @pytest.mark.parametrize("recycle", [False, True])
    def test_successor_due_at_or_before_current_cycle_keeps_heap_order(
        self, recycle
    ):
        """Pinned: the calendar queue reproduces the ``(time, seq)``
        heap's order exactly -- no error -- when a successor is due at
        the granting cycle (it joins the end of the bucket being
        walked) or before it (that earlier time runs next, then the
        rest of the bucket)."""
        hold = 3
        workloads = {}

        def make(index):
            workloads[index] = ChainWorkload(
                8, 24, 1, hold + 3, hold, recycle, 101 + index
            )
            return workloads[index]

        run_multistage_pair(8, hold, InverseDepthBackoff(1), make, 400, trace=True)
        # ``workloads`` now holds the rewrite's runs; both saw the same draws.
        assert sum(w.backward for w in workloads.values()) > 0
        assert sum(w.same_cycle for w in workloads.values()) > 0


# ----------------------------------------------------------------------
# The numpy circuit-network kernel.
# ----------------------------------------------------------------------


def kernel_state(network, workload, result):
    """Everything a hot-spot run produces or leaves behind, including
    the order of the pending-count keys and the workload's stream."""
    return (
        multistage_state(result),
        busy_state(network),
        list(network._dest_pending),
        workload._rng.bit_generator.state,
    )


def run_kernel_pair(
    ports, hold, policy, fraction, think, horizon, seed, runs=2, via_run=False
):
    """The reference loop against the kernel on one network apiece,
    ``runs`` consecutive runs each (later runs start from the state the
    earlier ones left).  The kernel is entered directly, or through
    ``MultistageNetwork.run`` with ``via_run``, where it must be taken."""
    outcomes = []
    for kernel in (False, True):
        cls = MultistageNetwork if kernel else ReferenceMultistageNetwork
        network = cls(num_ports=ports, hold_time=hold, backoff=policy)
        states = []
        for index in range(runs):
            workload = HotspotWorkload(
                ports, fraction, think_time=think, seed=seed + index
            )
            if not kernel:
                result = network.run(workload, horizon)
            elif via_run:
                with mock.patch.object(
                    kernel_circuit, "run_hotspot", wraps=kernel_circuit.run_hotspot
                ) as spy:
                    result = network.run(workload, horizon)
                assert spy.call_count == 1
            else:
                result = kernel_circuit.run_hotspot(network, workload, horizon)
            states.append(kernel_state(network, workload, result))
        outcomes.append(states)
    reference, kernel = outcomes
    for index, (expected, actual) in enumerate(zip(reference, kernel)):
        for name, want, got in zip(
            ("result", "links", "pending order", "stream"), expected, actual
        ):
            assert got == want, f"run {index}: {name} differs"
    return reference


class TestCircuitKernelOracle:
    @ORACLE
    @given(
        ports=st.integers(2, 6).map(lambda exponent: 1 << exponent),
        hold=st.integers(1, 8),
        think=st.integers(0, 8),
        fraction=fractions,
        policy=policies,
        horizon=st.integers(1, 300),
        seed=seeds,
    )
    def test_kernel_grid(self, ports, hold, think, fraction, policy, horizon, seed):
        run_kernel_pair(ports, hold, policy, fraction, think, horizon, seed)

    @settings(max_examples=6, deadline=None)
    @given(
        ports=st.sampled_from([256, 512, 1024]),
        hold=st.integers(1, 6),
        think=st.integers(0, 6),
        fraction=fractions,
        policy=policies,
        horizon=st.integers(1, 40),
        seed=seeds,
    )
    def test_wide_grid_through_run(
        self, ports, hold, think, fraction, policy, horizon, seed
    ):
        run_kernel_pair(
            ports, hold, policy, fraction, think, horizon, seed, via_run=True
        )

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    @pytest.mark.parametrize(
        "fraction, think, hold", [(0.0, 4, 4), (1.0, 4, 4), (0.1, 0, 1)]
    )
    def test_every_policy(self, policy_cls, fraction, think, hold):
        reference = run_kernel_pair(
            64, hold, policy_cls(), fraction, think, 300, 17
        )
        assert reference[-1][0]["collisions"] > 0

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_every_policy_at_256_ports_through_run(self, policy_cls):
        run_kernel_pair(256, 4, policy_cls(), 0.05, 4, 60, 5, via_run=True)

    def test_exponential_cap_and_deep_tries(self):
        # Hot traffic only: tries climb past the cap and past 32.
        run_kernel_pair(16, 4, ExponentialRetryBackoff(2, 64), 1.0, 0, 2000, 3)
        run_kernel_pair(8, 1, ExponentialRetryBackoff(3, 10**30), 1.0, 0, 300, 4)

    def test_custom_policy_through_the_base_class(self):
        class Mixed(NetworkBackoffPolicy):
            def delay(self, info: CollisionInfo) -> int:
                return (info.depth * 3 + info.tries) % 5 + info.queue_length % 2

        run_kernel_pair(32, 3, Mixed(), 0.25, 2, 300, 8)
        run_kernel_pair(256, 3, Mixed(), 0.25, 2, 40, 8, via_run=True)

    def test_subclass_that_overrides_delay_is_not_given_the_closed_form(self):
        class Shifted(DepthProportionalBackoff):
            def delay(self, info: CollisionInfo) -> int:
                return super().delay(info) + info.tries % 3

        run_kernel_pair(32, 4, Shifted(), 0.25, 4, 300, 9)

    def test_reused_network_after_a_scalar_run(self):
        # A network that first ran a custom workload on the scalar loop
        # carries its link times and pending counts into a kernel run.
        outcomes = []
        for kernel in (False, True):
            cls = MultistageNetwork if kernel else ReferenceMultistageNetwork
            network = cls(num_ports=64, hold_time=3, backoff=InverseDepthBackoff())
            network.run(ChainWorkload(64, 40, 3, 0, 3, False, 5), 50)
            workload = HotspotWorkload(64, 0.5, think_time=1, seed=2)
            run = kernel_circuit.run_hotspot if kernel else type(network).run
            outcomes.append(
                kernel_state(network, workload, run(network, workload, 30))
            )
        assert outcomes[0] == outcomes[1]

    def test_non_integer_delays_fall_back_to_the_scalar_loop(self):
        class Fractional(NetworkBackoffPolicy):
            def delay(self, info: CollisionInfo) -> float:
                return info.depth / 2

        states = []
        for backend in ("python", "auto"):
            network = MultistageNetwork(256, backoff=Fractional())
            workload = HotspotWorkload(256, 0.3, seed=4)
            with backend_context(backend):
                result = network.run(workload, 30)
            states.append(kernel_state(network, workload, result))
        assert states[0] == states[1]
        assert states[0][0]["collisions"] > 0
        network = MultistageNetwork(64, backoff=Fractional())
        workload = HotspotWorkload(64, 0.3, seed=4)
        before = workload._rng.bit_generator.state
        assert kernel_circuit.run_hotspot(network, workload, 30) is None
        assert workload._rng.bit_generator.state == before
        assert network._dest_pending == {}

    def test_negative_delay_raises_the_scalar_error(self):
        class Negative(NetworkBackoffPolicy):
            def delay(self, info: CollisionInfo) -> int:
                return -1

        for backend in ("python", "auto"):
            network = MultistageNetwork(256, backoff=Negative())
            with backend_context(backend), pytest.raises(
                ValueError, match="returned negative delay"
            ):
                network.run(HotspotWorkload(256, 0.5, seed=1), 50)

    def test_one_cycle_horizon(self):
        run_kernel_pair(4, 2, ImmediateRetry(), 0.0, 0, 1, 0)


class TestCircuitKernelDispatch:
    """Only untraced, fault-free runs of a plain ``HotspotWorkload`` on
    at least 256 ports with a numpy backend take the kernel."""

    def kernel_calls(self, run):
        with mock.patch.object(
            kernel_circuit, "run_hotspot", wraps=kernel_circuit.run_hotspot
        ) as spy:
            run()
        return spy.call_count

    def network_run(self, ports=256, workload_cls=HotspotWorkload):
        network = MultistageNetwork(ports)
        return lambda: network.run(workload_cls(ports, 0.05, seed=1), 20)

    @pytest.mark.parametrize("backend", ["auto", "numpy"])
    def test_wide_hotspot_takes_the_kernel(self, backend):
        with backend_context(backend):
            assert self.kernel_calls(self.network_run()) == 1

    def test_python_backend_takes_the_scalar_loop(self):
        with backend_context("python"):
            assert self.kernel_calls(self.network_run()) == 0

    def test_narrow_network_takes_the_scalar_loop(self):
        assert KERNEL_MIN_PORTS == 256
        assert self.kernel_calls(self.network_run(ports=128)) == 0

    def test_workload_subclass_takes_the_scalar_loop(self):
        assert self.kernel_calls(self.network_run(workload_cls=RecordingHotspot)) == 0

    def test_tracer_takes_the_scalar_loop(self):
        with tracing(Tracer(run_id="dispatch")):
            assert self.kernel_calls(self.network_run()) == 0

    def test_fault_plan_takes_the_scalar_loop(self):
        with fault_injection(parse_plan("lossy-net", seed=0)):
            assert self.kernel_calls(self.network_run()) == 0

    def test_scale1024_probe_same_on_both_backends(self):
        from repro.registry.experiments.scale import _release_probe

        probes = [
            _release_probe(300, 30, 7, backend) for backend in ("python", "numpy")
        ]
        assert probes[0] == probes[1]
        assert probes[0]["ports"] == 512


# ----------------------------------------------------------------------
# Buffered packet network.
# ----------------------------------------------------------------------

packet_runs = st.fixed_dictionaries(
    {
        "horizon": st.integers(1, 200),
        "injection_rate": st.sampled_from([0.0, 0.05, 0.3, 0.6, 1.0]),
        "hot_fraction": fractions,
        "backoff": st.one_of(st.none(), policies),
        "proactive": st.booleans(),
        "seed": seeds,
    }
)


class TestPacketOracle:
    @ORACLE
    @given(
        ports=port_counts,
        capacity=st.integers(1, 6),
        service=st.integers(1, 3),
        runs=st.lists(packet_runs, min_size=1, max_size=2),
        trace=st.booleans(),
    )
    def test_grid(self, ports, capacity, service, runs, trace):
        run_packet_pair(ports, capacity, service, runs, trace=trace)

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    @pytest.mark.parametrize("proactive", [False, True])
    def test_every_policy_saturated(self, policy_cls, proactive):
        runs = [
            dict(
                horizon=300,
                injection_rate=0.5,
                hot_fraction=0.2,
                backoff=policy_cls(),
                proactive=proactive,
                seed=9,
            )
        ]
        run_packet_pair(16, 2, 2, runs)

    def test_lossy_net_plan_installed(self):
        """Grant faults live in the circuit network only; a plan being
        installed must not perturb the packet network either."""
        with fault_injection(parse_plan("lossy-net", seed=1)):
            run_packet_pair(
                8, 4, 1, [dict(horizon=200, injection_rate=0.4, hot_fraction=0.1)]
            )

    def test_1024_ports(self):
        runs = [
            dict(
                horizon=20,
                injection_rate=0.4,
                hot_fraction=0.05,
                backoff=QueueFeedbackBackoff(2),
                proactive=True,
                seed=2,
            )
        ]
        run_packet_pair(1024, 4, 1, runs, trace=True)


class TestRouting:
    @given(ports=st.integers(1, 10).map(lambda e: 1 << e), data=st.data())
    def test_routes_match_reference(self, ports, data):
        source = data.draw(st.integers(0, ports - 1))
        dest = data.draw(st.integers(0, ports - 1))
        reference = ReferenceMultistageNetwork(ports).route_lines(source, dest)
        assert MultistageNetwork(ports).route_lines(source, dest) == reference
        assert (
            list(PacketSwitchedNetwork(ports).route(source, dest))
            == list(ReferencePacketNetwork(ports).route(source, dest))
            == reference
        )
