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
injected/delivered totals, cycle by cycle.  So does the post-mortem
trace scheduler: its per-cycle progress events split the trace into
cycles, which must issue round-robin.  The resource and queueing
models are checked from their result records alone: lock holds never
overlap, and every access is a module access or a queue operation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.barrier.arrivals import UniformArrivals
from repro.barrier.queueing import QueueingBarrierSimulator
from repro.barrier.resource import ResourceSimulator
from repro.barrier.simulator import build_simulator
from repro.check.report import CheckContext, CheckFailure
from repro.core.backoff import (
    BackoffPolicy,
    ExponentialFlagBackoff,
    LinearFlagBackoff,
    NoBackoff,
    ThresholdQueueBackoff,
    VariableBackoff,
)
from repro.core.barrier import BlockingBarrier, TangYewBarrier
from repro.core.locks import BackoffLock, TestAndSetLock, TestAndTestAndSetLock
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
from repro.trace.program import (
    AddressSpace,
    ParallelLoop,
    Program,
    ReplicateSection,
    SerialSection,
)
from repro.trace.record import Op, TraceRecord
from repro.trace.scheduler import PostMortemScheduler

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


def random_program(rng: np.random.Generator) -> Program:
    """A small SPMD program: loops with uneven (some empty) bodies,
    serial sections and replicate sections that some processors skip."""
    space = AddressSpace()
    data = space.alloc("data", 32 * 8)

    def body(length: int) -> List[Tuple[Op, int]]:
        return [
            (
                Op.WRITE if rng.integers(0, 3) == 0 else Op.READ,
                data + 8 * int(rng.integers(0, 32)),
            )
            for __ in range(length)
        ]

    program = Program("random", space)
    for number in range(int(rng.integers(1, 6))):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            iterations = int(rng.integers(1, 12))
            bodies = [body(int(rng.integers(0, 7))) for __ in range(iterations)]
            program.add(
                ParallelLoop(f"loop-{number}", iterations, bodies.__getitem__)
            )
        elif kind == 1:
            serial = body(int(rng.integers(1, 6)))
            program.add(SerialSection(f"serial-{number}", serial))
        else:
            per_cpu = [body(int(rng.integers(0, 5))) for __ in range(16)]
            program.add(ReplicateSection(f"local-{number}", per_cpu.__getitem__))
    return program


@invariant("trace-round-robin")
def check_trace_round_robin(ctx: CheckContext) -> int:
    """The post-mortem scheduler issues round-robin, one reference per
    processor per cycle, and its barriers release in order.

    Random small programs on 1-9 processors, flat and tree barriers,
    scheduled with ``sched.progress`` emitted every cycle: those events
    give the reference count and the active-processor count at every
    cycle boundary, which splits the trace into cycles.  In each cycle
    the issuing cpus ascend, no synchronization address is granted two
    fetch&adds, and every active processor issues unless it is stalled:
    its next reference is a fetch&add on an address a lower-numbered
    cpu was granted that cycle.  Stalls add up to ``sched.rmw_stalls``.
    A poller keeps polling until the cycle after the flag write it
    waits for, and every root flag is written after the last arrival.
    """
    rng = ctx.rng("trace-round-robin")
    cases = 0
    for __ in range(ctx.budget.cases * 3):
        num_cpus = int(rng.integers(1, 10))
        style = "tree" if rng.integers(0, 2) else "flat"
        degree = int(rng.integers(2, 5))
        program = random_program(rng)
        where = (
            f"(cpus={num_cpus}, barrier_style={style}, tree_degree={degree}, "
            f"sections={[section.name for section in program.sections]})"
        )
        scheduler = PostMortemScheduler(
            program, num_cpus, barrier_style=style, tree_degree=degree
        )
        scheduler.PROGRESS_INTERVAL = 1
        tracer = Tracer(run_id="check-trace", ring_size=1 << 16)
        with tracing(tracer):
            trace = scheduler.run()
        _check_round_robin(trace, tracer, num_cpus, where)
        cases += 1
    return cases


def _check_round_robin(trace, tracer, num_cpus: int, where: str) -> None:
    cpus, ops, addresses, sync = (list(column) for column in trace.raw_columns())
    progress = tracer.recent(kind="sched.progress")
    if [event["cycle"] for event in progress] != list(range(1, trace.cycles + 1)):
        raise CheckFailure(
            f"expected sched.progress at cycles 1..{trace.cycles}, got "
            f"{len(progress)} events {where}"
        )
    bounds = [0] + [event["refs"] for event in progress]
    if bounds[-1] != len(cpus) or bounds != sorted(bounds):
        raise CheckFailure(
            f"progress reference counts {bounds} do not split a trace of "
            f"{len(cpus)} references {where}"
        )
    last_cycle = {}
    for cycle in range(trace.cycles):
        for index in range(bounds[cycle], bounds[cycle + 1]):
            last_cycle[cpus[index]] = cycle
    rmw = Op.RMW.code
    stalls = 0
    for cycle in range(trace.cycles):
        span = range(bounds[cycle], bounds[cycle + 1])
        issued = [cpus[index] for index in span]
        if any(a >= b for a, b in zip(issued, issued[1:])):
            raise CheckFailure(
                f"cycle {cycle} issues cpus {issued}: not one each in "
                f"ascending order {where}"
            )
        granted = {}
        for index in span:
            if sync[index] and ops[index] == rmw:
                if addresses[index] in granted:
                    raise CheckFailure(
                        f"cycle {cycle} grants two fetch&adds on address "
                        f"{addresses[index]:#x} (cpus {granted[addresses[index]]} "
                        f"and {cpus[index]}) {where}"
                    )
                granted[addresses[index]] = cpus[index]
        active = [cpu for cpu, last in sorted(last_cycle.items()) if last >= cycle]
        reported = progress[cycle - 1]["active"] if cycle else None
        if reported is not None and reported != len(active):
            raise CheckFailure(
                f"cycle {cycle}: sched.progress reports {reported} active "
                f"processors, the trace shows {len(active)} {where}"
            )
        for cpu in sorted(set(active) - set(issued)):
            upcoming = next(
                index
                for index in range(bounds[cycle + 1], len(cpus))
                if cpus[index] == cpu
            )
            holder = granted.get(addresses[upcoming]) if sync[upcoming] else None
            if ops[upcoming] != rmw or holder is None or holder > cpu:
                raise CheckFailure(
                    f"active cpu {cpu} issued nothing in cycle {cycle} without "
                    f"being stalled on a fetch&add a lower cpu was granted {where}"
                )
            stalls += 1
    if stalls != tracer.counters.get("sched.rmw_stalls", 0):
        raise CheckFailure(
            f"{stalls} stalled processor-cycles in the trace but "
            f"sched.rmw_stalls={tracer.counters.get('sched.rmw_stalls', 0)} {where}"
        )
    _check_releases(trace, cpus, ops, addresses, sync, bounds, num_cpus, where)


def _check_releases(trace, cpus, ops, addresses, sync, bounds, num_cpus, where):
    """Pollers leave the cycle after their flag write; roots are written
    after the last arrival."""
    cycle_of = []
    for cycle in range(trace.cycles):
        cycle_of.extend([cycle] * (bounds[cycle + 1] - bounds[cycle]))
    writes: Dict[int, List[int]] = {}
    runs: Dict[Tuple[int, int], List[List[int]]] = {}
    for index, (cpu, op, address, is_sync) in enumerate(
        zip(cpus, ops, addresses, sync)
    ):
        if not is_sync:
            continue
        if op == Op.WRITE.code:
            writes.setdefault(address, []).append(cycle_of[index])
        elif op == Op.READ.code:
            cpu_runs = runs.setdefault((cpu, address), [])
            if cpu_runs and cpu_runs[-1][1] == cycle_of[index] - 1:
                cpu_runs[-1][1] = cycle_of[index]
            else:
                cpu_runs.append([cycle_of[index], cycle_of[index]])
    for (cpu, address), cpu_runs in sorted(runs.items()):
        for first, last in cpu_runs:
            written = [w for w in writes.get(address, ()) if w >= first]
            if not written or last != written[0] + 1:
                raise CheckFailure(
                    f"cpu {cpu} polled flag {address:#x} over cycles "
                    f"{first}..{last}, but the flag was written at "
                    f"{written[0] if written else 'no later cycle'}: a poller "
                    f"must leave the cycle after the write {where}"
                )
    for barrier in trace.barriers:
        arrived = sorted(cpu for cpu, __ in barrier.arrivals)
        if arrived != list(range(num_cpus)):
            raise CheckFailure(
                f"barrier {barrier.section_name}: arrivals {arrived} are not "
                f"one per processor {where}"
            )
        if barrier.flag_set_cycle is None or not (
            barrier.flag_set_cycle > barrier.last_arrival
            and barrier.flag_set_cycle in writes.get(barrier.flag_address, ())
        ):
            raise CheckFailure(
                f"barrier {barrier.section_name}: root flag written at "
                f"{barrier.flag_set_cycle}, last arrival "
                f"{barrier.last_arrival} {where}"
            )


#: Processor counts and arrival intervals of the resource and queueing
#: invariants.
_MODEL_PROCESSORS = (1, 2, 3, 7, 16, 64)
_MODEL_INTERVALS = (0, 1, 100, 1000)


@invariant("resource-lock-exclusivity")
def check_resource_lock_exclusivity(ctx: CheckContext) -> int:
    """No two processors hold the resource lock at once.

    Randomized resource episodes (TAS, TTAS and the adaptive backoff
    lock, no attempt bound, so all C = N x acquisitions complete).
    Each hold spans ``hold_time`` cycles from its acquire grant to its
    release grant, and the next acquire is granted after that release,
    so holds that never overlap need a makespan of at least
    ``C * (hold_time + 1) - 1`` cycles.  Each acquisition costs an
    acquire and a release access and each failed attempt at least one,
    so the processors' accesses add up to at least
    ``2 * C + failed_attempts``.
    """
    rng = ctx.rng("resource-lock-exclusivity")
    cases = 0
    for __ in range(ctx.budget.cases * 4):
        n = int(rng.choice(_MODEL_PROCESSORS))
        interval_a = int(rng.choice(_MODEL_INTERVALS))
        hold_time = int(rng.integers(1, 17))
        acquisitions = int(rng.integers(1, 4))
        seed = int(rng.integers(0, 2**32))
        lock = (TestAndSetLock, TestAndTestAndSetLock, BackoffLock)[
            int(rng.integers(0, 3))
        ]
        strategy = lock(hold_time=hold_time) if lock is BackoffLock else lock()
        where = (
            f"(N={n}, A={interval_a}, hold_time={hold_time}, "
            f"acquisitions={acquisitions}, lock={strategy.name}, seed={seed})"
        )
        simulator = ResourceSimulator(
            n,
            strategy,
            hold_time=hold_time,
            acquisitions=acquisitions,
            arrivals=UniformArrivals(interval_a),
            seed=seed,
        )
        result = simulator.run_once(spawn_stream(seed, "resource-rep-0"))
        if result.aborted:
            raise CheckFailure(
                f"processors {result.aborted} aborted an unbounded lock {where}"
            )
        completed = n * acquisitions
        floor = completed * (hold_time + 1) - 1
        if result.makespan < floor:
            raise CheckFailure(
                f"makespan {result.makespan} is below {floor} = "
                f"{completed} x (hold_time + 1) - 1: two holds overlapped "
                f"{where}"
            )
        accesses = sum(result.accesses_per_process)
        least = 2 * completed + result.failed_attempts
        if accesses < least:
            raise CheckFailure(
                f"lock accesses not conserved: {accesses} accesses for "
                f"{completed} acquisitions and {result.failed_attempts} "
                f"failed attempts (at least {least}) {where}"
            )
        cases += 1
    return cases


@invariant("queueing-access-conservation")
def check_queueing_access_conservation(ctx: CheckContext) -> int:
    """Every queueing-barrier access is a module access or a queue
    operation.

    Randomized spin, spin-then-queue and pure blocking episodes.  A
    process's accesses are its grants and denied cycles at the barrier
    variable and flag modules, plus two accesses to enqueue itself and
    one wake-up notification if it slept, so
    ``sum(accesses) = variable_accesses + flag_accesses
    + 3 * queued_processes``.
    """
    rng = ctx.rng("queueing-access-conservation")
    cases = 0
    for __ in range(ctx.budget.cases * 4):
        n = int(rng.choice(_MODEL_PROCESSORS))
        interval_a = int(rng.choice(_MODEL_INTERVALS))
        overhead = int(rng.choice([0, 1, 100]))
        seed = int(rng.integers(0, 2**32))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            barrier = BlockingBarrier(
                n, enqueue_overhead=overhead, wakeup_overhead=overhead
            )
            scheme = "blocking"
        else:
            policy = random_policy(rng)
            if kind == 1:
                policy = ThresholdQueueBackoff(policy, int(rng.integers(1, 257)))
            barrier = TangYewBarrier(n, backoff=policy)
            scheme = repr(policy)
        where = (
            f"(N={n}, A={interval_a}, overhead={overhead}, barrier={scheme}, "
            f"seed={seed})"
        )
        simulator = QueueingBarrierSimulator(
            barrier,
            UniformArrivals(interval_a),
            seed=seed,
            enqueue_overhead=overhead,
            wakeup_overhead=overhead,
        )
        result = simulator.run_once(spawn_stream(seed, "queue-rep-0"))
        accesses = sum(result.accesses_per_process)
        expected = (
            result.variable_accesses
            + result.flag_accesses
            + 3 * result.queued_processes
        )
        if accesses != expected:
            raise CheckFailure(
                f"queueing accesses not conserved: {accesses} per-process "
                f"accesses but variable {result.variable_accesses} + flag "
                f"{result.flag_accesses} + 3 x {result.queued_processes} "
                f"queued = {expected} {where}"
            )
        cases += 1
    return cases
