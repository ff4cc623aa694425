"""Post-mortem scheduling of SPMD programs onto P processors.

Implements the paper's Appendix A methodology:

    "In EPEX/FORTRAN, synchronization constructs at the beginning of
    parallel and serial sections perform F&As on shared variables to
    determine task assignments to processes.  Barriers and waits at the
    end of loops and serial sections are simulated by arriving
    processors first incrementing a shared variable through a F&A and
    then polling a barrier flag until it is set by the last arriving
    processor. ... Our scheduler simulates a parallel execution of this
    trace, assigning processors references from the trace on a
    round-robin basis.  We assume that processors make a memory
    reference every cycle."

Every active processor issues exactly one memory reference per cycle.
Loop iterations are claimed by fetch&add on a per-loop index variable;
each loop and serial section ends in a barrier.  Two barrier styles are
supported:

- ``barrier_style="flat"`` (default): the Tang–Yew two-variable barrier
  the paper studies — fetch&add on the barrier variable, per-cycle
  polling of the barrier flag, last arrival writes the flag.
- ``barrier_style="tree"``: a software combining tree (Yew, Tseng &
  Lawrie) of Tang–Yew barriers with ``tree_degree``-way nodes.  The
  paper proposes this as the fix for directory-pointer overflow: "as
  long as the degree of the nodes in the combining tree is less than
  the number of pointers in the cache-directory, then synchronization
  variables will not result in extra invalidation traffic."

Internally the flat barrier *is* a one-node tree, so both styles share
one code path.  Barrier synchronization words alternate between two
address sets (the standard sense-reversal trick), so the same words are
re-shared across the whole run — exactly the widespread sharing the
paper studies.

Fetch&adds are atomic read-modify-writes of one memory word: only one
is granted per cycle per variable; a denied processor stalls and
retries, and only the granted operation enters the trace.  This is the
serialization the paper observes "at the loop index assignment" in FFT.

The scheduler records, per barrier: every processor's arrival time at
the (leaf) barrier variable, the first flag-poll time, and the
flag-set time.  These yield the paper's A and E intervals (Table 3)
and the arrival distribution within A (Figure 3).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.tracer import get_tracer
from repro.trace.program import ParallelLoop, Program, Ref, SerialSection
from repro.trace.record import Op, TraceRecord

# What a processor's next synchronization step is.
_FETCH = 0  # F&A on the loop index variable
_TICKET = 1  # F&A on a serial-section ticket
_BAR_INC = 2  # F&A on the current barrier node's variable
_SET_FLAG = 3  # flag write (node release)
_POLL = 4  # the flag read that sees the release

_READ, _WRITE, _RMW = Op.READ.code, Op.WRITE.code, Op.RMW.code
_OPS = tuple(Op)  # op code -> Op

#: ``array`` type codes of the trace columns: cpu, op code, address and
#: sync flag.
COLUMN_TYPES = ("i", "b", "q", "b")


def _typed_column(type_code: str, values) -> array:
    """``values`` (numpy array or int sequence) as a compact typed array."""
    column = array(type_code, [0]) * len(values)
    np.frombuffer(column, f"i{column.itemsize}")[:] = values
    return column


@dataclass
class BarrierObservation:
    """What the scheduler saw at one barrier instance.

    Arrivals are recorded at the *leaf* barrier variable (for a flat
    barrier, the only one); ``flag_set_cycle`` is the root release.
    """

    section_name: str
    variable_address: int
    flag_address: int
    arrivals: List[Tuple[int, int]] = field(default_factory=list)  # (cpu, cycle)
    first_poll_cycle: Optional[int] = None
    flag_set_cycle: Optional[int] = None

    @property
    def first_arrival(self) -> int:
        return min(cycle for __, cycle in self.arrivals)

    @property
    def last_arrival(self) -> int:
        return max(cycle for __, cycle in self.arrivals)

    @property
    def interval_a(self) -> int:
        """Paper's A: first flag poll to flag set (clamped at 0)."""
        if self.flag_set_cycle is None:
            raise ValueError("barrier never completed")
        if self.first_poll_cycle is None:
            return 0  # single processor: nobody polled
        return max(self.flag_set_cycle - self.first_poll_cycle, 0)

    @property
    def arrival_span(self) -> int:
        """Last arrival minus first arrival at the barrier variable."""
        return self.last_arrival - self.first_arrival

    def arrival_offsets(self) -> List[int]:
        """Per-processor arrival offsets from the first arrival (Fig. 3)."""
        first = self.first_arrival
        return sorted(cycle - first for __, cycle in self.arrivals)


class ScheduledTrace:
    """The output of the post-mortem scheduler.

    Stores the trace as four compact typed columns (see
    :data:`COLUMN_TYPES`) and yields :class:`TraceRecord` objects on
    iteration.
    """

    def __init__(self, num_cpus: int, program_name: str) -> None:
        self.num_cpus = num_cpus
        self.program_name = program_name
        self._cpus, self._ops, self._addresses, self._sync = (
            array(type_code) for type_code in COLUMN_TYPES
        )
        self.barriers: List[BarrierObservation] = []
        self.cycles = 0
        self.sync_refs = 0

    def set_columns(self, cpus, ops, addresses, sync) -> None:
        """Replace the trace with the given columns (typed arrays, numpy
        arrays or int sequences); ``sync_refs`` follows the sync column."""
        self._cpus, self._ops, self._addresses, self._sync = (
            values
            if isinstance(values, array) and values.typecode == type_code
            else _typed_column(type_code, values)
            for type_code, values in zip(
                COLUMN_TYPES, (cpus, ops, addresses, sync)
            )
        )
        self.sync_refs = len(self._sync) - self._sync.count(0)

    def __len__(self) -> int:
        return len(self._cpus)

    def __iter__(self) -> Iterator[TraceRecord]:
        for cpu, op, address, sync in zip(
            self._cpus, self._ops, self._addresses, self._sync
        ):
            yield TraceRecord(
                cpu=cpu, op=_OPS[op], address=address, is_sync=bool(sync)
            )

    def raw_columns(self) -> Tuple[array, array, array, array]:
        """The compact storage: (cpus, op codes, addresses, sync flags).

        Op codes follow :attr:`Op.code` (``{0: READ, 1: WRITE, 2: RMW}``);
        sync flags are 0 or 1.  Used by the simulators' column loops and
        the trace persistence layer; most callers should iterate records.
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
        "parked",
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
        # Pollers waiting for this node's flag, as the key
        # ``cycle * P + cpu`` of their first poll.
        self.parked: List[int] = []


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
    """Shared state of one loop or serial section (index counter +
    barrier)."""

    __slots__ = ("counter", "index_address", "tree")

    def __init__(self, index_address: int, tree: _BarrierTree):
        self.counter = 0
        self.index_address = index_address
        self.tree = tree


class PostMortemScheduler:
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
        # Cycle of the last fetch&add granted on each address.
        self._rmw_last_grant: Dict[int, int] = {}
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

    def run(self, max_cycles: int = 5_000_000) -> ScheduledTrace:
        """Execute the program; returns the multiprocessor trace.

        Raises RuntimeError if the program does not finish within
        ``max_cycles`` (a safety net against mis-specified programs).

        Event-driven: only synchronization steps (fetch&add grants and
        stalls, flag writes, the poll that sees a release) pass through
        a heap keyed ``cycle * P + cpu``, which is the order the
        per-cycle round-robin visits them.  A processor in a body issues
        its whole remaining body as one run.  A processor that must wait
        parks on its barrier node; the flag write at cycle ``f`` issues
        its polls ``start..f`` as one run (none of them can see the flag,
        which is written during ``f``), and it steps normally at
        ``f + 1``.  No other processor can observe a body or a parked
        poll, so issuing them early changes nothing; one stable sort on
        the key then restores round-robin order.
        """
        program = self.program
        num_cpus = self.num_cpus
        trace = ScheduledTrace(num_cpus, program.name)
        sections = program.sections
        last_section = len(sections)
        runtimes: List[Optional[_SectionRuntime]] = [None] * last_section
        created_at: List[int] = []  # first-step cycle of each barrier
        state = [_FETCH] * num_cpus
        section_idx = [0] * num_cpus
        bar_node = [0] * num_cpus
        # Cycle of each processor's last step; -1 if it had nothing to
        # issue, None while it is still running.
        done_at: List[Optional[int]] = [None] * num_cpus
        heap: List[int] = []
        # Issued references in issue order, keyed ``cycle * P + cpu``.
        keys, ops, addresses, sync = array("q"), array("b"), array("q"), array("b")
        last_grant = self._rmw_last_grant
        stalls = 0

        def issue_body(cpu: int, cycle: int, refs: Sequence[Ref]) -> int:
            """Issue ``refs`` from ``cycle`` on; returns the next cycle."""
            if not isinstance(refs, (list, tuple)):
                refs = list(refs)
            if refs:
                key = cycle * num_cpus + cpu
                keys.extend(range(key, key + len(refs) * num_cpus, num_cpus))
                ops.extend([op.code for op, __ in refs])
                addresses.extend([address for __, address in refs])
                sync.frombytes(bytes(len(refs)))
            return cycle + len(refs)

        def enter_section(cpu: int, idx: int, cycle: int) -> None:
            """``cpu`` starts section ``idx`` at ``cycle``."""
            while idx < last_section:
                section = sections[idx]
                if isinstance(section, ParallelLoop):
                    state[cpu] = _FETCH
                elif isinstance(section, SerialSection):
                    state[cpu] = _TICKET
                else:  # ReplicateSection: no synchronization at all
                    cycle = issue_body(cpu, cycle, section.body_for(cpu))
                    idx += 1
                    continue
                section_idx[cpu] = idx
                heappush(heap, cycle * num_cpus + cpu)
                return
            done_at[cpu] = cycle - 1

        def issue_sync(key: int, code: int, address: int) -> None:
            keys.append(key)
            ops.append(code)
            addresses.append(address)
            sync.append(1)

        def issue_polls(first: int, last: int, address: int) -> None:
            """One processor's polls at keys ``first..last``."""
            keys.extend(range(first, last + 1, num_cpus))
            polls = (last - first) // num_cpus + 1
            ops.frombytes(bytes([_READ]) * polls)
            addresses.extend(repeat(address, polls))
            sync.frombytes(b"\x01" * polls)

        for cpu in range(num_cpus):
            enter_section(cpu, 0, 0)

        limit = max_cycles * num_cpus
        while heap:
            key = heappop(heap)
            if key >= limit:
                break
            cycle, cpu = divmod(key, num_cpus)
            current = state[cpu]
            idx = section_idx[cpu]
            runtime = runtimes[idx]
            if runtime is None:  # the first step anyone takes in it
                runtime = runtimes[idx] = self._new_runtime(idx)
                trace.barriers.append(runtime.tree.observation)
                created_at.append(cycle)
            tree = runtime.tree

            if current <= _TICKET:
                address = runtime.index_address
                if last_grant.get(address) == cycle:
                    stalls += 1  # the atomic is taken; retry next cycle
                    heappush(heap, key + num_cpus)
                    continue
                last_grant[address] = cycle
                issue_sync(key, _RMW, address)
                claimed = runtime.counter
                runtime.counter += 1
                section = sections[idx]
                if current == _FETCH:
                    if claimed < section.iterations:
                        # An empty body loops straight back to _FETCH.
                        cycle = issue_body(cpu, cycle + 1, section.refs_for(claimed))
                        heappush(heap, cycle * num_cpus + cpu)
                        continue
                elif claimed == 0:  # the ticket holder runs the section
                    cycle = issue_body(cpu, cycle + 1, section.body) - 1
                bar_node[cpu] = tree.leaf_of[cpu]
                state[cpu] = _BAR_INC
                heappush(heap, (cycle + 1) * num_cpus + cpu)
                continue

            node_id = bar_node[cpu]
            node = tree.nodes[node_id]
            at_leaf = node_id == tree.leaf_of[cpu]

            if current == _BAR_INC:
                address = node.variable_address
                if last_grant.get(address) == cycle:
                    stalls += 1
                    heappush(heap, key + num_cpus)
                    continue
                last_grant[address] = cycle
                issue_sync(key, _RMW, address)
                observation = tree.observation
                if at_leaf:
                    observation.arrivals.append((cpu, cycle))
                node.count += 1
                if node.count < node.expected:
                    node.parked.append(key + num_cpus)  # polls from next cycle
                    if observation.first_poll_cycle is None:
                        observation.first_poll_cycle = cycle + 1
                    continue
                if node.parent is None:
                    state[cpu] = _SET_FLAG  # release the root
                else:
                    bar_node[cpu] = node.parent  # ascend
                heappush(heap, key + num_cpus)
                continue

            if current == _SET_FLAG:
                address = node.flag_address
                issue_sync(key, _WRITE, address)
                if node.parent is None:
                    tree.observation.flag_set_cycle = cycle
                end = key - cpu  # this cycle's first key
                for first in node.parked:
                    poller = first % num_cpus
                    issue_polls(first, end + poller, address)
                    state[poller] = _POLL
                    heappush(heap, end + num_cpus + poller)
                node.parked = []
            else:  # _POLL: the poll that sees the flag written last cycle
                issue_sync(key, _READ, node.flag_address)
                state[cpu] = _SET_FLAG
            if at_leaf:
                enter_section(cpu, idx + 1, cycle + 1)
            else:
                # Release the child this processor ascended from.
                bar_node[cpu] = tree.child_toward(node_id, cpu)
                heappush(heap, key + num_cpus)

        active = sum(1 for done in done_at if done is None or done >= max_cycles)
        if active:
            # Parked polls up to the horizon were issued too.
            for runtime in filter(None, runtimes):
                for node in runtime.tree.nodes:
                    for first in node.parked:
                        if first < limit:
                            poller = first % num_cpus
                            issue_polls(
                                first, limit - num_cpus + poller, node.flag_address
                            )
        order = np.argsort(np.frombuffer(keys, np.int64), kind="stable")
        sorted_keys = np.frombuffer(keys, np.int64)[order]
        del keys
        tracer = get_tracer()
        if tracer.enabled:
            horizon = max_cycles if active else max(done_at) + 1
            self._emit_progress(tracer, sorted_keys, done_at, created_at, horizon)
        if active:
            raise RuntimeError(
                f"program {program.name!r} exceeded {max_cycles} cycles "
                f"({active} processors still active)"
            )
        # Each staged column is replaced by its sorted copy in turn, so
        # only one column is ever held twice.
        cpus = _typed_column("i", sorted_keys % num_cpus)
        del sorted_keys
        ops = _typed_column("b", np.frombuffer(ops, np.int8)[order])
        addresses = _typed_column("q", np.frombuffer(addresses, np.int64)[order])
        sync = _typed_column("b", np.frombuffer(sync, np.int8)[order])
        trace.set_columns(cpus, ops, addresses, sync)
        trace.cycles = max(done_at, default=-1) + 1
        self._rmw_stalls = stalls
        if tracer.enabled:
            self._publish(tracer, trace)
        return trace

    def _new_runtime(self, idx: int) -> _SectionRuntime:
        """Sync words and barrier tree of loop or serial section ``idx``."""
        section = self.program.sections[idx]
        kind = "index" if isinstance(section, ParallelLoop) else "ticket"
        index_address = self._sync_addr_for(idx, kind)
        return _SectionRuntime(index_address, self._build_barrier_tree(section.name))

    def _emit_progress(self, tracer, keys, done_at, created_at, horizon) -> None:
        """``sched.progress`` every PROGRESS_INTERVAL cycles up to
        ``horizon``, as the per-cycle round-robin would have seen them."""
        num_cpus = self.num_cpus
        marks = np.arange(self.PROGRESS_INTERVAL, horizon + 1, self.PROGRESS_INTERVAL)
        refs = np.searchsorted(keys, marks * num_cpus).tolist()
        finished = np.searchsorted(
            np.sort(np.array([d for d in done_at if d is not None], np.int64)),
            marks,
        ).tolist()
        barriers = np.searchsorted(np.array(created_at, np.int64), marks).tolist()
        for mark, issued, left, built in zip(marks.tolist(), refs, finished, barriers):
            tracer.emit(
                "sched.progress",
                cycle=mark,
                active=num_cpus - left,
                refs=issued,
                barriers=built,
            )

    def _publish(self, tracer, trace: ScheduledTrace) -> None:
        """Report the finished schedule to the active tracer."""
        tracer.count("sched.runs")
        tracer.count("sched.cycles", trace.cycles)
        tracer.count("sched.refs", len(trace))
        tracer.count("sched.sync_refs", trace.sync_refs)
        tracer.count("sched.rmw_stalls", self._rmw_stalls)
        tracer.count("sched.barriers", len(trace.barriers))
        issued = np.bincount(
            np.frombuffer(trace.raw_columns()[0], np.int32),
            minlength=self.num_cpus,
        )
        for count in issued.tolist():
            tracer.observe("sched.refs_per_cpu", count)
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
