"""Conservation-law checks on simulator event streams and state.

Each invariant runs a handful of randomized barrier episodes (or
coherence traces) under a live tracer and cross-checks three views of
the same run against each other:

1. the **event stream** (``barrier.variable`` / ``barrier.flag_poll`` /
   ``barrier.flag_write`` events with per-grant costs),
2. the **module accounting** (:class:`~repro.network.module.MemoryModule`
   grant/access totals), and
3. the **result record** (:class:`~repro.barrier.metrics.BarrierRunResult`
   per-process accesses and waiting times).

Any bookkeeping bug that breaks one view against the others — a
miscounted retry, a double grant, a wait measured from the wrong epoch
— fails the corresponding conservation law here.

The Omega network simulators get the same treatment: circuit grants
observed at the fault-plan hook against the link budget and the run's
attempt accounting, and packet-network queue snapshots against the
injected/delivered totals, cycle by cycle.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.barrier.simulator import build_simulator
from repro.check.report import CheckContext, CheckFailure
from repro.core.backoff import (
    BackoffPolicy,
    ExponentialFlagBackoff,
    LinearFlagBackoff,
    NoBackoff,
    VariableBackoff,
)
from repro.faults.plan import GRANT_DROP, FaultPlan, fault_injection
from repro.faults.spec import parse_plan
from repro.memory.coherence import CoherenceConfig, CoherenceSimulator
from repro.network.hotspot import HotspotWorkload
from repro.network.model import NetworkModel
from repro.network.multistage import MultistageNetwork
from repro.network.netbackoff import ALL_STRATEGIES, NetworkBackoffPolicy
from repro.network.packet import PacketSwitchedNetwork
from repro.obs.tracer import Tracer, tracing
from repro.sim.rng import spawn_stream
from repro.trace.record import Op, TraceRecord

#: The invariant registry: name -> check function.
INVARIANT_CHECKS: Dict[str, Callable[[CheckContext], int]] = {}


def invariant(name: str):
    """Decorator registering a check under ``name``."""

    def register(fn: Callable[[CheckContext], int]):
        if name in INVARIANT_CHECKS:
            raise ValueError(f"duplicate invariant {name!r}")
        INVARIANT_CHECKS[name] = fn
        return fn

    return register


def random_policy(rng: np.random.Generator) -> BackoffPolicy:
    """One of the paper's policy shapes with randomized knobs."""
    choice = int(rng.integers(0, 4))
    if choice == 0:
        return NoBackoff()
    if choice == 1:
        return VariableBackoff(
            multiplier=int(rng.integers(0, 3)), offset=int(rng.integers(0, 4))
        )
    if choice == 2:
        return LinearFlagBackoff(step=int(rng.integers(1, 5)))
    return ExponentialFlagBackoff(base=int(rng.choice([2, 4, 8])))


def _traced_episode(rng: np.random.Generator):
    """One randomized episode; returns (result, tracer, network, n, single)."""
    n = int(rng.integers(2, 25))
    interval_a = int(rng.integers(0, 201))
    single = bool(rng.integers(0, 2))
    seed = int(rng.integers(0, 2**32))
    policy = random_policy(rng)
    simulator = build_simulator(
        n, interval_a, policy, seed=seed, single_variable=single
    )
    network = NetworkModel()
    tracer = Tracer(run_id="check-invariant", ring_size=1 << 15)
    with tracing(tracer):
        result = simulator.run_once(
            spawn_stream(seed, "barrier-rep-0"), network=network
        )
    return result, tracer, network, n, single


def _grants(events: List[dict]) -> List[int]:
    return [event["grant"] for event in events]


@invariant("module-single-grant")
def check_module_single_grant(ctx: CheckContext) -> int:
    """A module grants at most one access per cycle.

    Per-module grant times taken from the event stream must be strictly
    increasing in processing order, and their count must equal the
    module's own ``total_grants``.
    """
    rng = ctx.rng("module-single-grant")
    cases = 0
    for __ in range(ctx.budget.cases * 3):
        __, tracer, network, n, single = _traced_episode(rng)
        variable_events = tracer.recent(kind="barrier.variable")
        flag_events = sorted(
            tracer.recent(kind="barrier.flag_poll")
            + tracer.recent(kind="barrier.flag_write"),
            key=lambda event: event["seq"],
        )
        if single:
            # One module serves everything: the merged grant sequence
            # must still be one-per-cycle.
            streams = {
                "variable": sorted(
                    variable_events + flag_events,
                    key=lambda event: event["seq"],
                )
            }
        else:
            streams = {"variable": variable_events, "flag": flag_events}
        for module_name, events in streams.items():
            grants = _grants(events)
            for earlier, later in zip(grants, grants[1:]):
                if later <= earlier:
                    raise CheckFailure(
                        f"{module_name} module granted twice in one cycle "
                        f"(grants {earlier} then {later}; N={n}, "
                        f"single_variable={single})"
                    )
        observed = len(variable_events) + len(flag_events)
        if observed != network.total_grants:
            raise CheckFailure(
                f"event stream shows {observed} grants but modules "
                f"recorded {network.total_grants} (N={n})"
            )
        cases += 1
    return cases


@invariant("episode-traffic")
def check_episode_traffic(ctx: CheckContext) -> int:
    """Episode traffic = N increments + flag reads/writes + retries.

    Conservation across all three views: per-process access counts,
    per-event costs (``grant - ready + 1``), module totals and the obs
    counters must all describe the same traffic.
    """
    rng = ctx.rng("episode-traffic")
    cases = 0
    for __ in range(ctx.budget.cases * 3):
        result, tracer, network, n, single = _traced_episode(rng)
        variable_events = tracer.recent(kind="barrier.variable")
        flag_events = tracer.recent(kind="barrier.flag_poll") + tracer.recent(
            kind="barrier.flag_write"
        )
        if len(variable_events) != n:
            raise CheckFailure(
                f"expected exactly N={n} barrier-variable increments, "
                f"event stream shows {len(variable_events)}"
            )
        event_cost = sum(
            event["cost"] for event in variable_events + flag_events
        )
        per_process = sum(result.accesses_per_process)
        checks = [
            ("sum(accesses_per_process)", per_process),
            ("sum(event costs)", event_cost),
            (
                "module totals",
                network.total_accesses,
            ),
            (
                "counter barrier.accesses",
                int(tracer.counters.get("barrier.accesses", 0)),
            ),
            (
                "result.variable+flag" if not single else "result.variable",
                result.variable_accesses + result.flag_accesses,
            ),
        ]
        baseline_name, baseline = checks[0]
        for name, value in checks[1:]:
            if value != baseline:
                raise CheckFailure(
                    f"traffic not conserved: {baseline_name}={baseline} "
                    f"but {name}={value} (N={n}, A={result.interval_a}, "
                    f"policy={result.policy_name!r}, "
                    f"single_variable={single})"
                )
        denied = int(tracer.counters.get("barrier.denied_accesses", 0))
        if denied != network.contention_accesses:
            raise CheckFailure(
                f"denied-access counter {denied} != module contention "
                f"{network.contention_accesses} (N={n})"
            )
        cases += 1
    return cases


@invariant("wait-cycles")
def check_wait_cycles(ctx: CheckContext) -> int:
    """Per-process wait = departure − arrival, reconstructed from events.

    Each processor's arrival is the ``ready`` of its barrier-variable
    increment; its departure is the grant of its releasing event (a
    released flag poll, the last arrival's flag write, or — for the
    single-variable barrier — the final increment itself).  The
    reconstruction must match ``result.waiting_times`` exactly, and the
    completion time must be the maximum departure.
    """
    rng = ctx.rng("wait-cycles")
    cases = 0
    for __ in range(ctx.budget.cases * 3):
        result, tracer, __network, n, __single = _traced_episode(rng)
        arrival: Dict[int, int] = {}
        depart: Dict[int, int] = {}
        for event in tracer.recent(kind="barrier.variable"):
            arrival[event["cpu"]] = event["ready"]
            if event["value"] == n:
                depart[event["cpu"]] = event["grant"]
        for event in tracer.recent(kind="barrier.flag_write"):
            depart[event["cpu"]] = event["grant"]
        for event in tracer.recent(kind="barrier.flag_poll"):
            if event["released"]:
                depart[event["cpu"]] = event["grant"]
        if sorted(arrival) != list(range(n)) or sorted(depart) != list(range(n)):
            raise CheckFailure(
                f"event stream missing arrivals/departures: "
                f"{len(arrival)} arrivals, {len(depart)} departures for N={n}"
            )
        rebuilt = [depart[cpu] - arrival[cpu] for cpu in range(n)]
        if rebuilt != result.waiting_times:
            raise CheckFailure(
                "waiting times disagree with the event stream: "
                f"result={result.waiting_times} rebuilt={rebuilt} "
                f"(N={n}, A={result.interval_a}, "
                f"policy={result.policy_name!r})"
            )
        if result.completion_time != max(depart.values()):
            raise CheckFailure(
                f"completion_time={result.completion_time} != max departure "
                f"{max(depart.values())} (N={n})"
            )
        cases += 1
    return cases


@invariant("directory-pointer-state")
def check_directory_pointer_state(ctx: CheckContext) -> int:
    """Invalidations are consistent with Dir_i_NB pointer state.

    Random traces through the coherence simulator: the directory never
    tracks more sharers than it has pointers, dirty blocks have exactly
    one sharer, directory and caches agree (the simulator's own
    ``check_invariants``), and a full-map directory (i = num_cpus)
    performs zero overflow invalidations on the same trace.
    """
    rng = ctx.rng("directory-pointer-state")
    cases = 0
    for __ in range(ctx.budget.cases * 2):
        num_cpus = int(rng.integers(2, 9))
        pointers = int(rng.integers(1, num_cpus + 1))
        blocks = int(rng.integers(1, 6))
        trace = [
            TraceRecord(
                cpu=int(rng.integers(0, num_cpus)),
                op=Op(["read", "write", "rmw"][int(rng.integers(0, 3))]),
                address=int(rng.integers(0, blocks)) * 16,
                is_sync=bool(rng.integers(0, 2)),
            )
            for __ in range(int(rng.integers(20, 120)))
        ]
        limited = CoherenceSimulator(
            CoherenceConfig(
                num_cpus=num_cpus, cache_bytes=1024, num_pointers=pointers
            )
        )
        full = CoherenceSimulator(
            CoherenceConfig(
                num_cpus=num_cpus, cache_bytes=1024, num_pointers=num_cpus
            )
        )
        for simulator in (limited, full):
            for record in trace:
                simulator.process(record)
            try:
                simulator.check_invariants()
            except AssertionError as error:
                raise CheckFailure(
                    f"directory invariant violated with i={pointers}, "
                    f"C={num_cpus}: {error}"
                ) from None
        if full.stats.invalidations_on_overflow != 0:
            raise CheckFailure(
                f"full-map directory (i=C={num_cpus}) performed "
                f"{full.stats.invalidations_on_overflow} overflow "
                "invalidations; pointer overflow is impossible there"
            )
        if (
            limited.stats.invalidations_on_overflow
            < full.stats.invalidations_on_overflow
        ):
            raise CheckFailure(
                f"i={pointers} pointers produced fewer overflow "
                "invalidations than the full map on the same trace"
            )
        cases += 1
    return cases


def random_network_policy(rng: np.random.Generator) -> NetworkBackoffPolicy:
    """One of the six Section 8 network backoff strategies, default knobs."""
    return ALL_STRATEGIES[int(rng.integers(0, len(ALL_STRATEGIES)))]()


class _TrackedHotspot(HotspotWorkload):
    """Closed-loop hot-spot traffic that remembers each source's
    outstanding request (one per source at any time)."""

    def initial_messages(self):
        messages = super().initial_messages()
        self.outstanding = {message.source: message for message in messages}
        return messages

    def on_complete(self, message, time):
        successor = super().on_complete(message, time)
        self.outstanding[successor.source] = successor
        return successor


class _GrantLog(FaultPlan):
    """A fault plan that also records every circuit grant it is asked
    about: ``(source, dest, cycle, outcome)``."""

    def __init__(self, injectors, seed: int, workload: _TrackedHotspot) -> None:
        super().__init__(injectors, seed=seed, name="grant-log")
        self.workload = workload
        self.grants: List[Tuple[int, int, int, str]] = []

    def grant_outcome(self, site: str, actor: int, time: int) -> str:
        outcome = super().grant_outcome(site, actor, time)
        dest = self.workload.outstanding[actor].dest
        self.grants.append((actor, dest, time, outcome))
        return outcome


@invariant("network-link-exclusivity")
def check_network_link_exclusivity(ctx: CheckContext) -> int:
    """No two granted circuits hold one Omega link at the same time.

    Randomized hot-spot runs of the circuit-switched network, half of
    them under the ``lossy-net`` fault plan.  Every grant (completed,
    dropped or duplicated) passes the fault-plan hook, which sees the
    granting source and cycle; the closed-loop workload knows which
    request that source has outstanding, so the circuit's links follow
    from ``route_lines``.  On every ``(stage, line)`` the granted
    intervals ``[t, t + hold)`` must be disjoint.  The grant log, the
    result record and the tracer counters must also agree:
    attempts = completed + collisions + dropped + duplicated.
    """
    rng = ctx.rng("network-link-exclusivity")
    cases = 0
    for __ in range(ctx.budget.cases * 3):
        ports = 1 << int(rng.integers(2, 6))
        hold = int(rng.integers(1, 7))
        fraction = float(rng.choice([0.0, 0.05, 0.2, 0.5]))
        think = int(rng.integers(0, 7))
        horizon = int(rng.integers(100, 400))
        seed = int(rng.integers(0, 2**32))
        lossy = bool(rng.integers(0, 2))
        policy = random_network_policy(rng)
        where = (
            f"(ports={ports}, hold={hold}, hot={fraction}, think={think}, "
            f"horizon={horizon}, seed={seed}, policy={policy!r}, "
            f"lossy-net={lossy})"
        )
        network = MultistageNetwork(ports, hold_time=hold, backoff=policy)
        workload = _TrackedHotspot(ports, fraction, think_time=think, seed=seed)
        injectors = parse_plan("lossy-net", seed=seed).injectors if lossy else ()
        log = _GrantLog(injectors, seed, workload)
        tracer = Tracer(run_id="check-network", ring_size=16)
        with tracing(tracer), fault_injection(log):
            result = network.run(workload, horizon)

        holders: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        for source, dest, time, __ in sorted(log.grants, key=lambda g: g[2]):
            for link in network.route_lines(source, dest):
                previous = holders.get(link)
                if previous is not None and time < previous[2] + hold:
                    raise CheckFailure(
                        f"link {link} granted to {source}->{dest} at cycle "
                        f"{time} while {previous[0]}->{previous[1]} held it "
                        f"from cycle {previous[2]} {where}"
                    )
                holders[link] = (source, dest, time)

        counters = tracer.counters
        balances = [
            (
                "result.attempts",
                result.attempts,
                "completed + collisions + dropped + duplicated",
                result.completed
                + result.collisions
                + result.dropped_grants
                + result.duplicated_grants,
            ),
            (
                "result.attempts",
                result.attempts,
                "counter network.attempts",
                counters.get("network.attempts", 0),
            ),
            (
                "grants logged",
                len(log.grants),
                "completed + dropped",
                result.completed + result.dropped_grants,
            ),
            (
                "drops logged",
                sum(1 for grant in log.grants if grant[3] == GRANT_DROP),
                "result.dropped_grants",
                result.dropped_grants,
            ),
            (
                "result.collisions",
                result.collisions,
                "depth histogram total",
                result.collision_depths.total,
            ),
            (
                "result.collisions",
                result.collisions,
                "counter network.collisions",
                counters.get("network.collisions", 0),
            ),
        ]
        for name, value, other_name, other in balances:
            if value != other:
                raise CheckFailure(
                    f"circuit accounting not conserved: {name}={value} but "
                    f"{other_name}={other} {where}"
                )
        cases += 1
    return cases


def _fifo_step(
    before: Sequence, after: Sequence, max_out: int, max_in: int
) -> Optional[int]:
    """Arrivals at a FIFO over one cycle, or None if impossible.

    ``after`` must be ``before`` minus at most ``max_out`` packets from
    the head, plus at most ``max_in`` appended at the tail.  Returns the
    fewest arrivals that explain the step.
    """
    for left in range(0, min(max_out, len(before)) + 1):
        kept = len(before) - left
        arrived = len(after) - kept
        if 0 <= arrived <= max_in and tuple(after[:kept]) == tuple(before[left:]):
            return arrived
    return None


@invariant("packet-conservation")
def check_packet_conservation(ctx: CheckContext) -> int:
    """Packets are conserved and switches accept one packet per cycle.

    A packet-network run of ``h`` cycles is a prefix of the same run of
    ``h + 1`` cycles, so fresh runs at horizons ``1..H`` give the queue
    state after every cycle.  At each one: injected = delivered +
    queued; no queue exceeds its capacity; every queued packet sits on
    its destination-tag route and has had time to get there.  Between
    consecutive cycles each queue behaves as a FIFO that lost at most
    one packet from its head (the memory's service rate at the last
    stage) and accepted at most one packet at its tail (two at stage
    0, which two ports inject into).
    """
    rng = ctx.rng("packet-conservation")
    cases = 0
    for __ in range(ctx.budget.cases * 2):
        ports = 1 << int(rng.integers(1, 5))
        capacity = int(rng.integers(1, 5))
        service = int(rng.integers(1, 4))
        options = dict(
            injection_rate=float(rng.choice([0.1, 0.3, 0.6, 1.0])),
            hot_fraction=float(rng.choice([0.0, 0.1, 0.5, 1.0])),
            backoff=random_network_policy(rng) if rng.integers(0, 2) else None,
            proactive=bool(rng.integers(0, 2)),
            seed=int(rng.integers(0, 2**32)),
        )
        horizon = int(rng.integers(20, 50))
        where = (
            f"(ports={ports}, capacity={capacity}, service={service}, "
            + ", ".join(f"{key}={value!r}" for key, value in options.items())
            + ")"
        )
        stages = ports.bit_length() - 1
        previous = None
        for h in range(1, horizon + 1):
            network = PacketSwitchedNetwork(
                ports, queue_capacity=capacity, memory_service=service
            )
            result = network.run(h, **options)
            queues = network.queued()
            at = f"after cycle {h - 1} {where}"
            queued = sum(len(queue) for queue in queues)
            if result.injected != result.delivered + queued:
                raise CheckFailure(
                    f"packets not conserved: injected={result.injected} but "
                    f"delivered={result.delivered} + queued={queued} {at}"
                )
            for index, queue in enumerate(queues):
                stage, line = divmod(index, ports)
                if len(queue) > capacity:
                    raise CheckFailure(
                        f"queue ({stage}, {line}) holds {len(queue)} packets, "
                        f"capacity {capacity} {at}"
                    )
                for dest, injected_at in queue:
                    low = line & ((1 << (stage + 1)) - 1)
                    if low != dest >> (stages - stage - 1) or (
                        injected_at + stage > h - 1
                    ):
                        raise CheckFailure(
                            f"packet to {dest} injected at {injected_at} "
                            f"cannot be in queue ({stage}, {line}) {at}"
                        )
                if previous is None:
                    continue
                last = stage == stages - 1
                arrived = _fifo_step(
                    previous[index],
                    queue,
                    service if last else 1,
                    2 if stage == 0 else 1,
                )
                if arrived is None:
                    raise CheckFailure(
                        f"queue ({stage}, {line}) went from "
                        f"{list(previous[index])} to {list(queue)}: not a FIFO "
                        f"step with one acceptance {at}"
                    )
            previous = queues
        cases += 1
    return cases
