"""Differential oracle: the trace-driven layer against its reference
loops.

``ReferencePostMortemScheduler`` below is the post-mortem scheduler as
first written: a per-cycle loop that steps every processor through a
seven-state machine, one reference at a time, into a trace of Python
lists.  ``ReferenceCoherenceSimulator`` carries the Dir_i_NB protocol
as per-reference ``_process``/``_read``/``_write``/``_fill`` methods,
and ``ReferenceCoherentBarrierSimulator`` feeds each barrier episode to
its backend one reference at a time (its snoopy backend is the
reference protocol of ``tests/test_ext_reference.py``).  They are kept here, test-only
and unchanged, as the specification the event-driven scheduler in
:mod:`repro.trace.scheduler`, the inlined protocol loop in
:mod:`repro.memory.coherence` and the batched episodes of
:mod:`repro.barrier.coherent` must reproduce exactly: every trace
column, the cycle count, every barrier observation, the address-space
allocation order, the overrun error, the coherence statistics, the
cache and directory state left behind, and the tracer's events,
counters and observations.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.barrier.coherent import (
    _FLAG_ADDRESS,
    _VARIABLE_ADDRESS,
    CoherentBarrierResult,
    CoherentBarrierSimulator,
)
from repro.check.invariants import random_program
from repro.core.backoff import (
    ExponentialFlagBackoff,
    LinearFlagBackoff,
    NoBackoff,
    VariableBackoff,
)
from repro.memory.coherence import CoherenceConfig, CoherenceSimulator
from repro.memory.stats import CoherenceStats
from repro.obs.tracer import Tracer, get_tracer, tracing
from repro.sim.rng import spawn_stream
from repro.trace.apps import build_app
from repro.trace.program import (
    ParallelLoop,
    Program,
    ReplicateSection,
    SerialSection,
)
from repro.trace.record import Op, TraceRecord
from repro.trace.scheduler import (
    COLUMN_TYPES,
    BarrierObservation,
    PostMortemScheduler,
)
from tests.test_ext_reference import ReferenceSnoopySimulator

# ----------------------------------------------------------------------
# Reference implementations (verbatim copies of the original loops).
# ----------------------------------------------------------------------

_FETCH = 0  # issue F&A on the loop index variable
_BODY = 1  # issue the next body reference
_BAR_INC = 2  # issue F&A on the current barrier node's variable
_SET_FLAG = 3  # issue a flag write (node release)
_POLL = 4  # issue a flag read at the current barrier node
_TICKET = 5  # issue F&A on a serial-section ticket
_SERIAL_BODY = 6  # issue the next serial-body reference

_OP_CODES = {Op.READ: 0, Op.WRITE: 1, Op.RMW: 2}
_OPS = {0: Op.READ, 1: Op.WRITE, 2: Op.RMW}


class ReferenceScheduledTrace:
    """The output of the post-mortem scheduler.

    Stores the trace compactly (parallel lists of ints) and yields
    :class:`TraceRecord` objects on iteration.
    """

    def __init__(self, num_cpus: int, program_name: str) -> None:
        self.num_cpus = num_cpus
        self.program_name = program_name
        self._cpus: List[int] = []
        self._ops: List[int] = []
        self._addresses: List[int] = []
        self._sync: List[bool] = []
        self.barriers: List[BarrierObservation] = []
        self.cycles = 0
        self.sync_refs = 0

    def append(self, cpu: int, op: Op, address: int, is_sync: bool) -> None:
        self._cpus.append(cpu)
        self._ops.append(_OP_CODES[op])
        self._addresses.append(address)
        self._sync.append(is_sync)
        if is_sync:
            self.sync_refs += 1

    def __len__(self) -> int:
        return len(self._cpus)

    def __iter__(self) -> Iterator[TraceRecord]:
        for cpu, op, address, sync in zip(
            self._cpus, self._ops, self._addresses, self._sync
        ):
            yield TraceRecord(cpu=cpu, op=_OPS[op], address=address, is_sync=sync)

    def raw_columns(self) -> Tuple[List[int], List[int], List[int], List[bool]]:
        """The compact storage: (cpus, op codes, addresses, sync flags).

        Op codes follow ``{0: READ, 1: WRITE, 2: RMW}``.  Used by the
        trace persistence layer; most callers should iterate records.
        """
        return self._cpus, self._ops, self._addresses, self._sync

    @property
    def sync_fraction(self) -> float:
        """Fraction of references that are synchronization references."""
        if not self._cpus:
            return 0.0
        return self.sync_refs / len(self._cpus)

    # ------------------------------------------------------------------
    # Table 3 / Figure 3 measurements.
    # ------------------------------------------------------------------

    def interval_a_values(self) -> List[int]:
        """A for every barrier (first poll to flag set)."""
        return [barrier.interval_a for barrier in self.barriers]

    def interval_e_values(self) -> List[int]:
        """E between consecutive barriers (last arrival to next first arrival)."""
        values = []
        for previous, current in zip(self.barriers, self.barriers[1:]):
            values.append(max(current.first_arrival - previous.last_arrival, 0))
        return values

    def mean_interval_a(self) -> float:
        values = self.interval_a_values()
        return sum(values) / len(values) if values else 0.0

    def mean_interval_e(self) -> float:
        values = self.interval_e_values()
        return sum(values) / len(values) if values else 0.0

    def arrival_offsets(self) -> List[int]:
        """Pooled per-barrier arrival offsets (Figure 3 raw data)."""
        offsets: List[int] = []
        for barrier in self.barriers:
            offsets.extend(barrier.arrival_offsets())
        return offsets


class _BarrierNode:
    """One node of a barrier's (possibly one-node) combining tree."""

    __slots__ = (
        "parent",
        "expected",
        "count",
        "variable_address",
        "flag_address",
        "flag_set_cycle",
    )

    def __init__(
        self,
        parent: Optional[int],
        expected: int,
        variable_address: int,
        flag_address: int,
    ) -> None:
        self.parent = parent
        self.expected = expected
        self.count = 0
        self.variable_address = variable_address
        self.flag_address = flag_address
        self.flag_set_cycle: Optional[int] = None


class _BarrierTree:
    """Barrier instance state: nodes, leaf assignment, observation."""

    __slots__ = ("nodes", "leaf_of", "observation")

    def __init__(
        self,
        nodes: List[_BarrierNode],
        leaf_of: List[int],
        observation: BarrierObservation,
    ) -> None:
        self.nodes = nodes
        self.leaf_of = leaf_of
        self.observation = observation

    def child_toward(self, node_id: int, cpu: int) -> int:
        """The child of ``node_id`` on cpu's path up from its leaf."""
        current = self.leaf_of[cpu]
        while (
            self.nodes[current].parent is not None
            and self.nodes[current].parent != node_id
        ):
            current = self.nodes[current].parent
        if self.nodes[current].parent != node_id:
            raise AssertionError(
                f"cpu {cpu} is not a descendant of node {node_id}"
            )
        return current


class _SectionRuntime:
    """Shared state of one section instance (index counter + barrier)."""

    __slots__ = ("counter", "index_address", "tree")

    def __init__(self, index_address: int, tree: Optional[_BarrierTree]):
        self.counter = 0
        self.index_address = index_address
        self.tree = tree


class ReferencePostMortemScheduler:
    """Replays a :class:`~repro.trace.program.Program` onto P processors.

    Args:
        program: the SPMD program to schedule.
        num_cpus: processor count.
        barrier_style: ``"flat"`` (Tang-Yew, the paper's subject) or
            ``"tree"`` (software combining tree).
        tree_degree: fan-in of each combining-tree node (>= 2), used
            only when ``barrier_style="tree"``.
    """

    def __init__(
        self,
        program: Program,
        num_cpus: int,
        barrier_style: str = "flat",
        tree_degree: int = 4,
    ) -> None:
        if num_cpus < 1:
            raise ValueError("num_cpus must be >= 1")
        if barrier_style not in ("flat", "tree"):
            raise ValueError(
                f"barrier_style must be 'flat' or 'tree', got {barrier_style!r}"
            )
        if barrier_style == "tree" and tree_degree < 2:
            raise ValueError("tree_degree must be >= 2")
        self.program = program
        self.num_cpus = num_cpus
        self.barrier_style = barrier_style
        self.tree_degree = tree_degree if barrier_style == "tree" else num_cpus
        self._barrier_index = 0
        # Barrier node words, keyed (parity, level, group) and allocated
        # lazily: two alternating sets give sense-reversing reuse, so
        # the same words stay widely re-shared across the run.
        self._node_addresses: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        # Per-section synchronization words, allocated on first entry.
        self._section_sync_addr: Dict[int, int] = {}
        self._rmw_last_grant: Dict[int, int] = {}
        # Observability state, armed by run() when a tracer is active.
        self._trace_on = False
        self._rmw_stalls = 0

    #: Cycles between ``sched.progress`` events while tracing.
    PROGRESS_INTERVAL = 4096

    # ------------------------------------------------------------------
    # Address management.
    # ------------------------------------------------------------------

    def _sync_addr_for(self, section_idx: int, kind: str) -> int:
        if section_idx not in self._section_sync_addr:
            self._section_sync_addr[section_idx] = (
                self.program.address_space.alloc_sync(f"{kind}-{section_idx}")
            )
        return self._section_sync_addr[section_idx]

    def _node_addr(self, parity: int, level: int, group: int) -> Tuple[int, int]:
        key = (parity, level, group)
        if key not in self._node_addresses:
            space = self.program.address_space
            label = f"barrier-{parity}-L{level}G{group}"
            self._node_addresses[key] = (
                space.alloc_sync(f"{label}-var"),
                space.alloc_sync(f"{label}-flag"),
            )
        return self._node_addresses[key]

    def _build_barrier_tree(self, section_name: str) -> _BarrierTree:
        """Create the (possibly one-node) tree for a new barrier."""
        parity = self._barrier_index % 2
        self._barrier_index += 1
        degree = max(self.tree_degree, 2)
        nodes: List[_BarrierNode] = []
        level_start: List[int] = []
        level_shapes: List[Tuple[int, int]] = []  # (participants, groups)
        participants = self.num_cpus
        while True:
            groups = -(-participants // degree)
            level_shapes.append((participants, groups))
            if groups == 1:
                break
            participants = groups
        for level, (count, groups) in enumerate(level_shapes):
            level_start.append(len(nodes))
            for group in range(groups):
                lo = group * degree
                hi = min(lo + degree, count)
                var_addr, flag_addr = self._node_addr(parity, level, group)
                nodes.append(
                    _BarrierNode(
                        parent=None,
                        expected=hi - lo,
                        variable_address=var_addr,
                        flag_address=flag_addr,
                    )
                )
        for level in range(len(level_shapes) - 1):
            __, groups = level_shapes[level]
            for group in range(groups):
                child = nodes[level_start[level] + group]
                child.parent = level_start[level + 1] + group // degree
        leaf_of = [level_start[0] + cpu // degree for cpu in range(self.num_cpus)]
        root = nodes[level_start[-1]]
        observation = BarrierObservation(
            section_name=section_name,
            variable_address=nodes[leaf_of[0]].variable_address,
            flag_address=root.flag_address,
        )
        return _BarrierTree(nodes, leaf_of, observation)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 5_000_000) -> ReferenceScheduledTrace:
        """Execute the program; returns the multiprocessor trace.

        Raises RuntimeError if the program does not finish within
        ``max_cycles`` (a safety net against mis-specified programs).
        """
        program = self.program
        num_cpus = self.num_cpus
        trace = ReferenceScheduledTrace(num_cpus, program.name)
        sections = program.sections

        state = [0] * num_cpus
        section_idx = [0] * num_cpus
        body: List[Optional[List[Tuple[Op, int]]]] = [None] * num_cpus
        body_pos = [0] * num_cpus
        bar_node = [0] * num_cpus  # current barrier-tree node per cpu
        done = [False] * num_cpus
        runtimes: Dict[int, _SectionRuntime] = {}
        active = num_cpus

        def runtime_for(idx: int) -> _SectionRuntime:
            runtime = runtimes.get(idx)
            if runtime is None:
                section = sections[idx]
                if isinstance(section, (ParallelLoop, SerialSection)):
                    kind = "index" if isinstance(section, ParallelLoop) else "ticket"
                    index_address = self._sync_addr_for(idx, kind)
                    tree = self._build_barrier_tree(section.name)
                    trace.barriers.append(tree.observation)
                    runtime = _SectionRuntime(index_address, tree)
                else:
                    runtime = _SectionRuntime(index_address=0, tree=None)
                runtimes[idx] = runtime
            return runtime

        def enter_section(cpu: int, idx: int) -> None:
            nonlocal active
            if idx >= len(sections):
                done[cpu] = True
                active -= 1
                return
            section_idx[cpu] = idx
            section = sections[idx]
            if isinstance(section, ParallelLoop):
                state[cpu] = _FETCH
            elif isinstance(section, SerialSection):
                state[cpu] = _TICKET
            else:  # ReplicateSection
                refs = list(section.body_for(cpu))
                if refs:
                    body[cpu] = refs
                    body_pos[cpu] = 0
                    state[cpu] = _BODY
                else:
                    enter_section(cpu, idx + 1)

        for cpu in range(num_cpus):
            enter_section(cpu, 0)

        tracer = get_tracer()
        trace_on = tracer.enabled
        self._trace_on = trace_on
        self._rmw_stalls = 0

        cycle = 0
        while active:
            if cycle >= max_cycles:
                raise RuntimeError(
                    f"program {program.name!r} exceeded {max_cycles} cycles "
                    f"({active} processors still active)"
                )
            for cpu in range(num_cpus):
                if done[cpu]:
                    continue
                self._step(
                    cpu,
                    cycle,
                    trace,
                    sections,
                    state,
                    section_idx,
                    body,
                    body_pos,
                    bar_node,
                    runtime_for,
                    enter_section,
                )
            cycle += 1
            if trace_on and cycle % self.PROGRESS_INTERVAL == 0:
                tracer.emit(
                    "sched.progress",
                    cycle=cycle,
                    active=active,
                    refs=len(trace),
                    barriers=len(trace.barriers),
                )
        trace.cycles = cycle
        if trace_on:
            self._publish(tracer, trace)
        self._trace_on = False
        return trace

    def _publish(self, tracer, trace: ReferenceScheduledTrace) -> None:
        """Report the finished schedule to the active tracer."""
        tracer.count("sched.runs")
        tracer.count("sched.cycles", trace.cycles)
        tracer.count("sched.refs", len(trace))
        tracer.count("sched.sync_refs", trace.sync_refs)
        tracer.count("sched.rmw_stalls", self._rmw_stalls)
        tracer.count("sched.barriers", len(trace.barriers))
        issued: Dict[int, int] = {}
        for cpu in trace.raw_columns()[0]:
            issued[cpu] = issued.get(cpu, 0) + 1
        for cpu in range(self.num_cpus):
            tracer.observe("sched.refs_per_cpu", issued.get(cpu, 0))
        for observation in trace.barriers:
            if observation.flag_set_cycle is None or not observation.arrivals:
                continue
            tracer.observe("sched.barrier_interval_a", observation.interval_a)
            tracer.observe("sched.barrier_arrival_span", observation.arrival_span)
            tracer.emit(
                "sched.barrier",
                section=observation.section_name,
                arrivals=len(observation.arrivals),
                first_arrival=observation.first_arrival,
                last_arrival=observation.last_arrival,
                flag_set=observation.flag_set_cycle,
                interval_a=observation.interval_a,
            )
        tracer.emit(
            "sched.run",
            program=trace.program_name,
            cpus=self.num_cpus,
            barrier_style=self.barrier_style,
            cycles=trace.cycles,
            refs=len(trace),
            sync_refs=trace.sync_refs,
            rmw_stalls=self._rmw_stalls,
            barriers=len(trace.barriers),
        )

    def _enter_barrier(self, cpu: int, runtime: _SectionRuntime, state, bar_node):
        tree = runtime.tree
        assert tree is not None
        bar_node[cpu] = tree.leaf_of[cpu]
        state[cpu] = _BAR_INC

    def _step(
        self,
        cpu: int,
        cycle: int,
        trace: ReferenceScheduledTrace,
        sections,
        state,
        section_idx,
        body,
        body_pos,
        bar_node,
        runtime_for,
        enter_section,
    ) -> None:
        """Issue at most one reference for ``cpu`` at ``cycle``."""
        idx = section_idx[cpu]
        current = state[cpu]
        runtime = runtime_for(idx)
        section = sections[idx]

        if current == _FETCH:
            if not self._grant_rmw(runtime.index_address, cycle):
                return  # stalled on the atomic; retry next cycle
            trace.append(cpu, Op.RMW, runtime.index_address, True)
            iteration = runtime.counter
            runtime.counter += 1
            if iteration < section.iterations:
                refs = list(section.refs_for(iteration))
                if refs:
                    body[cpu] = refs
                    body_pos[cpu] = 0
                    state[cpu] = _BODY
                # An empty body loops straight back to _FETCH.
            else:
                self._enter_barrier(cpu, runtime, state, bar_node)
            return

        if current == _TICKET:
            if not self._grant_rmw(runtime.index_address, cycle):
                return  # stalled on the atomic; retry next cycle
            trace.append(cpu, Op.RMW, runtime.index_address, True)
            ticket = runtime.counter
            runtime.counter += 1
            if ticket == 0:
                body[cpu] = list(section.body)
                body_pos[cpu] = 0
                state[cpu] = _SERIAL_BODY
            else:
                self._enter_barrier(cpu, runtime, state, bar_node)
            return

        if current == _BODY or current == _SERIAL_BODY:
            refs = body[cpu]
            op, address = refs[body_pos[cpu]]
            trace.append(cpu, op, address, False)
            body_pos[cpu] += 1
            if body_pos[cpu] >= len(refs):
                body[cpu] = None
                if current == _SERIAL_BODY:
                    self._enter_barrier(cpu, runtime, state, bar_node)
                elif isinstance(section, ParallelLoop):
                    state[cpu] = _FETCH
                else:  # replicate section body finished
                    enter_section(cpu, idx + 1)
            return

        tree = runtime.tree
        assert tree is not None
        node = tree.nodes[bar_node[cpu]]
        observation = tree.observation

        if current == _BAR_INC:
            if not self._grant_rmw(node.variable_address, cycle):
                return  # stalled on the atomic; retry next cycle
            trace.append(cpu, Op.RMW, node.variable_address, True)
            if bar_node[cpu] == tree.leaf_of[cpu]:
                observation.arrivals.append((cpu, cycle))
            node.count += 1
            if node.count == node.expected:
                if node.parent is None:
                    state[cpu] = _SET_FLAG  # release the root
                else:
                    bar_node[cpu] = node.parent  # ascend
            else:
                state[cpu] = _POLL
            return

        if current == _SET_FLAG:
            trace.append(cpu, Op.WRITE, node.flag_address, True)
            node.flag_set_cycle = cycle
            if node.parent is None:
                observation.flag_set_cycle = cycle
            if bar_node[cpu] == tree.leaf_of[cpu]:
                enter_section(cpu, idx + 1)
            else:
                bar_node[cpu] = tree.child_toward(bar_node[cpu], cpu)
            return

        if current == _POLL:
            trace.append(cpu, Op.READ, node.flag_address, True)
            if observation.first_poll_cycle is None:
                observation.first_poll_cycle = cycle
            if node.flag_set_cycle is not None and node.flag_set_cycle < cycle:
                if bar_node[cpu] == tree.leaf_of[cpu]:
                    enter_section(cpu, idx + 1)
                else:
                    # A winner at an interior node: release the child
                    # it ascended from.
                    bar_node[cpu] = tree.child_toward(bar_node[cpu], cpu)
                    state[cpu] = _SET_FLAG
            return

        raise AssertionError(f"unknown scheduler state {current}")

    def _grant_rmw(self, address: int, cycle: int) -> bool:
        """Grant at most one fetch&add per variable per cycle.

        Processors are stepped in cpu order within a cycle, so ties go
        to the lowest-numbered contender — a deterministic stand-in for
        the unspecified arbitration of the paper's network model.
        """
        if self._rmw_last_grant.get(address) == cycle:
            if self._trace_on:
                self._rmw_stalls += 1
            return False
        self._rmw_last_grant[address] = cycle
        return True


class ReferenceCoherenceSimulator(CoherenceSimulator):
    """The directory simulator with its per-reference protocol methods
    (reference copy)."""

    def run(self, trace: Iterable[TraceRecord]) -> CoherenceStats:
        """Process every record of ``trace`` and return the statistics.

        A :class:`~repro.trace.scheduler.ScheduledTrace` is detected and
        routed through the column fast path (same results, roughly 2x
        faster on full-scale traces).
        """
        raw = getattr(trace, "raw_columns", None)
        if callable(raw):
            return self.run_columns(*raw())
        for record in trace:
            self.process(record)
        self._publish()
        return self.stats

    def run_columns(self, cpus, op_codes, addresses, sync_flags) -> CoherenceStats:
        """Process a trace given as parallel columns.

        ``op_codes`` follow the compact encoding ``{0: READ, 1: WRITE,
        2: RMW}`` used by :class:`~repro.trace.scheduler.ScheduledTrace`.
        """
        process = self._process
        for cpu, code, address, is_sync in zip(
            cpus, op_codes, addresses, sync_flags
        ):
            process(cpu, code == 0, address, is_sync)
        self._publish()
        return self.stats


    def process(self, record: TraceRecord) -> None:
        """Apply one reference to the memory system."""
        self._process(
            record.cpu, record.op is Op.READ, record.address, record.is_sync
        )

    def _process(self, cpu: int, is_read: bool, address: int, is_sync: bool) -> None:
        stats = self.stats
        stats.refs += 1
        if is_sync:
            stats.sync_refs += 1
        else:
            stats.data_refs += 1

        if is_sync and not self.config.cache_sync:
            # Uncacheable synchronization variable: request + response.
            stats.sync_traffic += 2
            return

        block = address >> self._block_shift

        if is_read:
            traffic, invalidations = self._read(cpu, block)
        else:  # WRITE and RMW both need exclusive ownership.
            traffic, invalidations = self._write(cpu, block)

        if is_sync:
            stats.sync_traffic += traffic
            if invalidations:
                stats.sync_refs_invalidating += 1
        else:
            stats.data_traffic += traffic
            if invalidations:
                stats.data_refs_invalidating += 1

    # ------------------------------------------------------------------
    # Protocol actions.  Each returns (transactions, invalidation_count).
    # ------------------------------------------------------------------

    def _read(self, cpu: int, block: int) -> tuple:
        cache = self.caches[cpu]
        if cache.probe(block):
            self.stats.hits += 1
            return 0, 0
        self.stats.misses += 1
        traffic = 2  # request + data
        invalidations = 0
        entry = self.directory.entry(block)

        if entry.owner is not None and entry.owner != cpu:
            # Recall the dirty copy; the owner keeps a clean copy.
            owner = entry.owner
            traffic += 2
            self.stats.writebacks += 1
            if self.caches[owner].contains(block):
                self.caches[owner].mark_clean(block)
            entry.owner = None

        for victim in self.directory.pointer_overflow_victims(block, cpu):
            self.caches[victim].invalidate(block)
            self.directory.remove_sharer(block, victim)
            self.stats.invalidations_on_overflow += 1
            traffic += 1
            invalidations += 1

        # remove_sharer may have deleted the entry; re-fetch it.
        entry = self.directory.entry(block)
        entry.sharers.add(cpu)
        traffic += self._fill(cpu, block, dirty=False)
        return traffic, invalidations

    def _write(self, cpu: int, block: int) -> tuple:
        cache = self.caches[cpu]
        entry = self.directory.entry(block)
        if cache.probe(block):
            self.stats.hits += 1
            if cache.is_dirty(block):
                return 0, 0  # already exclusive owner
            # Write hit to a previously clean block: the Figure 1 event.
            others = sorted(entry.sharers - {cpu})
            traffic = 1  # ownership request to the directory
            for other in others:
                self.caches[other].invalidate(block)
                self.stats.invalidations_on_write += 1
                traffic += 1
            self.stats.write_invalidation_histogram.add(len(others))
            entry.sharers.clear()
            entry.sharers.add(cpu)
            entry.owner = cpu
            cache.mark_dirty(block)
            return traffic, len(others)

        self.stats.misses += 1
        traffic = 2  # request + data
        invalidations = 0
        if entry.owner is not None and entry.owner != cpu:
            owner = entry.owner
            traffic += 2  # recall + writeback of the dirty copy
            self.stats.writebacks += 1
            self.caches[owner].invalidate(block)
            self.stats.invalidations_on_write += 1
            invalidations += 1
            entry.sharers.discard(owner)
            entry.owner = None
        else:
            for other in sorted(entry.sharers - {cpu}):
                self.caches[other].invalidate(block)
                self.stats.invalidations_on_write += 1
                traffic += 1
                invalidations += 1
                entry.sharers.discard(other)

        entry.sharers.clear()
        entry.sharers.add(cpu)
        entry.owner = cpu
        traffic += self._fill(cpu, block, dirty=True)
        return traffic, invalidations

    def _fill(self, cpu: int, block: int, dirty: bool) -> int:
        """Install ``block`` in cpu's cache; handle the replacement."""
        evicted = self.caches[cpu].fill(block, dirty=dirty)
        if evicted is None:
            return 0
        victim_block, victim_dirty = evicted
        self.directory.remove_sharer(victim_block, cpu)
        if victim_dirty:
            self.stats.writebacks += 1
            return 1  # writeback data transaction
        return 0

    # ------------------------------------------------------------------
    # Invariant checks (used by tests).
    # ------------------------------------------------------------------


class ReferenceCoherentBarrierSimulator(CoherentBarrierSimulator):
    """Barrier episodes fed to the backend one reference at a time
    (reference copy)."""

    def _make_backend(self):
        backend = super()._make_backend()
        if isinstance(backend, CoherenceSimulator):
            return ReferenceCoherenceSimulator(backend.config)
        return ReferenceSnoopySimulator(backend.config)

    def run_once(self, rng: np.random.Generator) -> CoherentBarrierResult:
        n = self.num_processors
        backend = self._make_backend()
        is_sync = True
        if self.interval_a == 0:
            arrivals = [0] * n
        else:
            arrivals = sorted(
                int(t) for t in rng.integers(0, self.interval_a + 1, size=n)
            )

        # Per-cpu state: -1 done; 0 awaiting arrival; 1 needs F&A;
        # 2 polling.
        AWAIT, FETCH, POLL, DONE = 0, 1, 2, -1
        state = [AWAIT] * n
        next_action = list(arrivals)
        polls = [0] * n
        count = 0
        flag_written_cycle: Optional[int] = None
        active = n
        cycle = 0
        guard = 0

        while active:
            guard += 1
            if guard > 10_000_000:
                raise RuntimeError("coherent barrier episode did not converge")
            fa_granted_this_cycle = False
            for cpu in range(n):
                if state[cpu] == DONE or next_action[cpu] > cycle:
                    continue
                if state[cpu] == AWAIT:
                    state[cpu] = FETCH
                if state[cpu] == FETCH:
                    if fa_granted_this_cycle:
                        continue  # the atomic is serialized; retry next cycle
                    fa_granted_this_cycle = True
                    backend._process(cpu, False, _VARIABLE_ADDRESS, is_sync)
                    count += 1
                    if count == n:
                        # Last arrival: write the flag next cycle.
                        backend._process(cpu, False, _FLAG_ADDRESS, is_sync)
                        flag_written_cycle = cycle + 1
                        state[cpu] = DONE
                        active -= 1
                    else:
                        wait = max(self.policy.variable_wait(count, n), 1)
                        state[cpu] = POLL
                        next_action[cpu] = cycle + wait
                    continue
                # POLL
                backend._process(cpu, True, _FLAG_ADDRESS, is_sync)
                if flag_written_cycle is not None and cycle >= flag_written_cycle:
                    state[cpu] = DONE
                    active -= 1
                else:
                    polls[cpu] += 1
                    wait = max(self.policy.flag_wait(polls[cpu]), 1)
                    next_action[cpu] = cycle + wait
            cycle += 1

        return CoherentBarrierResult(
            num_processors=n,
            scheme=self.scheme,
            transactions=self._transactions(backend),
            cycles=cycle,
        )



# ----------------------------------------------------------------------
# Comparison helpers.
# ----------------------------------------------------------------------

#: PROGRESS_INTERVAL for the oracle runs, low enough that every trace
#: emits ``sched.progress`` events.
PROGRESS = 16


def traced(run, trace: bool):
    """``run()`` under a fresh tracer if ``trace``; returns ``(result or
    RuntimeError text, tracer snapshot, events)``."""
    tracer = Tracer(run_id="oracle", ring_size=1 << 20)
    try:
        if trace:
            with tracing(tracer):
                result = run()
        else:
            result = run()
    except RuntimeError as error:
        result = str(error)
    return result, tracer.snapshot(), list(tracer.ring)


def trace_state(trace):
    cpus, ops, addresses, sync = trace.raw_columns()
    return {
        "num_cpus": trace.num_cpus,
        "program": trace.program_name,
        "cpus": list(cpus),
        "ops": list(ops),
        "addresses": list(addresses),
        "sync": [bool(flag) for flag in sync],
        "cycles": trace.cycles,
        "sync_refs": trace.sync_refs,
        "barriers": list(trace.barriers),
    }


def schedule_pair(make_program, cpus, style="flat", degree=4, trace=True, **run):
    """Schedule fresh copies of one program with both schedulers and
    assert they agree; returns ``(reference trace, trace)``."""
    outcomes = []
    for cls in (ReferencePostMortemScheduler, PostMortemScheduler):
        program = make_program()
        scheduler = cls(program, cpus, barrier_style=style, tree_degree=degree)
        scheduler.PROGRESS_INTERVAL = PROGRESS
        outcome = traced(lambda: scheduler.run(**run), trace)
        outcomes.append((outcome, program.address_space.regions))
    (ref, ref_regions), (new, new_regions) = outcomes
    assert new_regions == ref_regions
    assert new[1:] == ref[1:]
    if isinstance(ref[0], str):
        assert new[0] == ref[0]
        return None, None
    assert trace_state(new[0]) == trace_state(ref[0])
    for column, type_code in zip(new[0].raw_columns(), COLUMN_TYPES):
        assert column.typecode == type_code
    return ref[0], new[0]


def app_maker(app, scale):
    return lambda: build_app(app, scale=scale)


def coherence_state(simulator):
    stats = dict(vars(simulator.stats))
    histogram = stats.pop("write_invalidation_histogram")
    return {
        "stats": stats,
        "histogram": (histogram.items(), histogram.total),
        "directory": [
            (block, sorted(entry.sharers), entry.owner)
            for block, entry in simulator.directory._entries.items()
        ],
        "caches": [
            (cache._blocks, cache._dirty, cache.hits, cache.misses)
            for cache in simulator.caches
        ],
    }


def coherence_pair(config, feed_reference, feed, trace=True):
    """Apply the same references to both simulators and compare."""
    outcomes = []
    for cls, apply in (
        (ReferenceCoherenceSimulator, feed_reference),
        (CoherenceSimulator, feed),
    ):
        simulator = cls(config)
        result, snapshot, events = traced(lambda: apply(simulator), trace)
        outcomes.append((coherence_state(simulator), snapshot, events))
    assert outcomes[1] == outcomes[0]


ORACLE = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
apps = st.sampled_from(["FFT", "SIMPLE", "WEATHER"])
cpu_counts = st.sampled_from([1, 2, 3, 7, 16, 64])
scales = st.sampled_from([0.03, 0.06, 0.1, 0.2])
styles = st.sampled_from(["flat", "tree"])
degrees = st.integers(2, 8)


# ----------------------------------------------------------------------
# Post-mortem scheduler.
# ----------------------------------------------------------------------


class TestSchedulerOracle:
    @ORACLE
    @given(
        app=apps,
        cpus=cpu_counts,
        scale=scales,
        style=styles,
        degree=degrees,
        trace=st.booleans(),
    )
    def test_app_grid(self, app, cpus, scale, style, degree, trace):
        schedule_pair(app_maker(app, scale), cpus, style, degree, trace)

    @pytest.mark.parametrize("style", ["flat", "tree"])
    def test_128_cpus(self, style):
        schedule_pair(app_maker("WEATHER", 0.1), 128, style, 5)

    @ORACLE
    @given(
        seed=st.integers(0, 2**32 - 1),
        cpus=st.integers(1, 9),
        style=styles,
        degree=degrees,
    )
    def test_random_programs(self, seed, cpus, style, degree):
        """Empty loop bodies, serial sections, replicate sections some
        processors skip, back-to-back sections without barriers."""
        schedule_pair(
            lambda: random_program(spawn_stream(seed, "program")),
            cpus,
            style,
            degree,
        )

    @pytest.mark.parametrize("app", ["FFT", "SIMPLE", "WEATHER"])
    @pytest.mark.parametrize("style", ["flat", "tree"])
    def test_overrun_error_and_progress(self, app, style):
        make = app_maker(app, 0.05)
        __, full = schedule_pair(make, 7, style, 3)
        cycles = full.cycles
        for max_cycles in (0, 1, PROGRESS, cycles // 3, cycles - 1):
            schedule_pair(make, 7, style, 3, max_cycles=max_cycles)
        schedule_pair(make, 7, style, 3, max_cycles=cycles)

    def test_overrun_text(self):
        make = app_maker("SIMPLE", 0.05)
        ref, new = (
            traced(lambda: cls(make(), 5).run(max_cycles=50), trace=False)[0]
            for cls in (ReferencePostMortemScheduler, PostMortemScheduler)
        )
        assert new == ref
        assert new == "program 'SIMPLE' exceeded 50 cycles (5 processors still active)"

    def test_overrun_counts_processors_already_done(self):
        def make():
            program = random_program(spawn_stream(3, "program"))
            program.add(
                ReplicateSection("tail", lambda cpu: [(Op.READ, 8)] * (40 * cpu))
            )
            return program

        __, full = schedule_pair(make, 6)
        for max_cycles in range(full.cycles - 200, full.cycles + 1, 7):
            schedule_pair(make, 6, max_cycles=max_cycles)

    def test_repeated_runs_on_one_scheduler(self):
        """Grant history and barrier parity carry over between runs."""
        schedulers = [
            cls(build_app("WEATHER", scale=0.05), 7, barrier_style="tree")
            for cls in (ReferencePostMortemScheduler, PostMortemScheduler)
        ]
        for __ in range(3):
            ref, new = (scheduler.run() for scheduler in schedulers)
            assert trace_state(new) == trace_state(ref)
        assert (
            schedulers[1].program.address_space.regions
            == schedulers[0].program.address_space.regions
        )

    def test_program_without_work(self):
        def make():
            program = random_program(spawn_stream(0, "program"))
            program.sections = [ReplicateSection("idle", lambda cpu: [])]
            return program

        __, trace = schedule_pair(make, 4)
        assert trace.cycles == 0 and len(trace) == 0
        __, trace = schedule_pair(lambda: Program("empty", make().address_space), 3)
        assert trace.cycles == 0


# ----------------------------------------------------------------------
# Dir_i_NB coherence simulator.
# ----------------------------------------------------------------------


def records_of(columns):
    cpus, ops, addresses, sync = columns
    return [
        TraceRecord(cpu=cpu, op=tuple(Op)[op], address=address, is_sync=bool(flag))
        for cpu, op, address, flag in zip(cpus, ops, addresses, sync)
    ]


class TestCoherenceOracle:
    @ORACLE
    @given(
        app=apps,
        cpus=cpu_counts,
        scale=scales,
        style=styles,
        degree=degrees,
        cache_bytes=st.sampled_from([256, 4096, 256 * 1024]),
        cache_sync=st.booleans(),
        trace=st.booleans(),
        data=st.data(),
    )
    def test_app_traces(
        self, app, cpus, scale, style, degree, cache_bytes, cache_sync, trace, data
    ):
        ref_trace, new_trace = schedule_pair(
            app_maker(app, scale), cpus, style, degree, trace=False
        )
        config = CoherenceConfig(
            num_cpus=cpus,
            cache_bytes=cache_bytes,
            num_pointers=data.draw(st.integers(1, cpus)),
            cache_sync=cache_sync,
        )
        coherence_pair(
            config,
            lambda simulator: simulator.run(ref_trace),
            lambda simulator: simulator.run(new_trace),
            trace,
        )

    def test_128_cpus(self):
        ref_trace, new_trace = schedule_pair(app_maker("SIMPLE", 0.05), 128)
        for pointers in (1, 4, 128):
            coherence_pair(
                CoherenceConfig(num_cpus=128, num_pointers=pointers, cache_bytes=4096),
                lambda simulator: simulator.run(ref_trace),
                lambda simulator: simulator.run(new_trace),
            )

    @ORACLE
    @given(
        cpus=st.integers(1, 8),
        stream=st.lists(
            st.tuples(
                st.integers(0, 7),
                st.sampled_from(list(Op)),
                st.integers(0, 40),
                st.booleans(),
            ),
            max_size=300,
        ),
        cache_bytes=st.sampled_from([16, 64, 256]),
        cache_sync=st.booleans(),
        data=st.data(),
    )
    def test_record_streams(self, cpus, stream, cache_bytes, cache_sync, data):
        """Dense conflicts: tiny caches, few blocks, every pointer count,
        through ``run(records)``, ``process`` and repeated ``run``."""
        records = [
            TraceRecord(cpu=cpu % cpus, op=op, address=block * 16, is_sync=sync)
            for cpu, op, block, sync in stream
        ]
        config = CoherenceConfig(
            num_cpus=cpus,
            cache_bytes=cache_bytes,
            num_pointers=data.draw(st.integers(1, cpus)),
            cache_sync=cache_sync,
        )

        def in_pieces(simulator):
            half = len(records) // 2
            simulator.run(records[:half])
            for record in records[half:]:
                simulator.process(record)
            simulator.run(iter(records))

        coherence_pair(config, in_pieces, in_pieces)

    def test_run_columns_direct(self):
        ref_trace, new_trace = schedule_pair(app_maker("FFT", 0.1), 16)
        config = CoherenceConfig(num_cpus=16, num_pointers=2, cache_bytes=2048)
        coherence_pair(
            config,
            lambda simulator: simulator.run_columns(*ref_trace.raw_columns()),
            lambda simulator: simulator.run_columns(*new_trace.raw_columns()),
        )


# ----------------------------------------------------------------------
# Barrier episodes through the coherence protocols.
# ----------------------------------------------------------------------


class TestCoherentBarrierOracle:
    @pytest.mark.parametrize("scheme", CoherentBarrierSimulator.SCHEMES)
    @settings(max_examples=15, deadline=None)
    @given(
        processors=st.integers(1, 24),
        interval_a=st.sampled_from([0, 1, 10, 100]),
        policy=st.sampled_from(
            [
                NoBackoff(),
                VariableBackoff(multiplier=1, offset=2),
                LinearFlagBackoff(step=3),
                ExponentialFlagBackoff(base=2),
            ]
        ),
        pointers=st.sampled_from([None, 1, 2, 4]),
        seed=st.integers(0, 2**16),
    )
    def test_episodes(self, scheme, processors, interval_a, policy, pointers, seed):
        outcomes = []
        for cls in (ReferenceCoherentBarrierSimulator, CoherentBarrierSimulator):
            simulator = cls(
                processors,
                scheme=scheme,
                interval_a=interval_a,
                policy=policy,
                num_pointers=pointers,
                seed=seed,
            )
            outcomes.append(
                traced(
                    lambda: [
                        vars(simulator.run_once(spawn_stream(seed, f"rep-{rep}")))
                        for rep in range(3)
                    ],
                    trace=True,
                )
            )
        assert outcomes[1] == outcomes[0]
