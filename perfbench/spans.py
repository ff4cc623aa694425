"""Wrapper spans around the public entry points of each simulator layer.

The benchmark's traced run installs these wrappers from its own files,
so nothing under ``src/`` changes.  Each wrapper opens a span (name,
start, end, parent, thread) with ``perf_counter_ns`` and adds counts
read from the call's returned result object.  A layer's *self time* is
its span duration minus the part of that interval its child spans
cover; :func:`layer_totals` sums it per layer name.

Spans of one layer nested directly inside the same layer (for example
``CoherenceSimulator.run`` delegating to ``run_columns``) are not
opened twice, so a call count is the number of outermost calls.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

#: One span: [name, start_ns, end_ns, parent_index (-1 = root), thread].
Span = List[Any]


class SpanRecorder:
    """In-memory span log with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def innermost(self) -> str:
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else ""

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = [name, time.perf_counter_ns(), 0, parent, threading.get_ident()]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack().pop()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(
        self,
        layer: str,
        function: Callable[..., Any],
        on_result: Callable[["SpanRecorder", tuple, Any], None] = None,
    ) -> Callable[..., Any]:
        """``function`` timed as a ``layer`` span, with result counts."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if self.innermost() == layer:
                return function(*args, **kwargs)
            index = self.open(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(index)
            self.count(layer + ".calls")
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper


def self_times(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append(end - start - covered)
    return result


def layer_totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time in seconds, summed per span name."""
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own / 1e9
    return dict(totals)


# -- the layer map -------------------------------------------------------


def _multistage(rec, args, result):
    rec.count("network.multistage.attempts", result.attempts)
    rec.count("network.multistage.completed", result.completed)


def _packet(rec, args, result):
    rec.count("network.packet.port_cycles", result.num_ports * result.horizon)
    rec.count("network.packet.delivered", result.delivered)


def _coherence(rec, args, result):
    rec.count("memory.coherence.refs", result.refs)
    rec.count("memory.coherence.invalidations", result.total_invalidations)


def _scheduler(rec, args, result):
    rec.count("trace.scheduler.refs", len(result))
    if rec.innermost() == "trace.memo":
        rec.count("trace.memo.misses")


def _kernel(rec, args, result):
    rec.count("barrier.kernel.episodes", len(result))


def _episode(rec, args, result):
    rec.count("barrier.event_loop.episodes")


def _fault_summary(rec, args, result):
    rec.count("faults.runner.points", len(result.records))
    rec.count("faults.runner.retried", result.retried)
    rec.count("faults.runner.degraded", result.degraded)


def _point(rec, args, result):
    rec.count("exec.engine.points")


def _patch_attr(owner: Any, attr: str, wrapper: Callable) -> Callable[[], None]:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, original)


def _patch_everywhere(
    function: Callable, wrapper: Callable, prefix: str = "repro"
) -> List[Callable[[], None]]:
    """Rebind ``function`` in every loaded module that imported it by name."""
    undo = []
    for name, module in list(sys.modules.items()):
        if not (name == prefix or name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                undo.append(_patch_attr(module, attr, wrapper))
    return undo


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer entry point; returns a function that unwraps."""
    from repro.barrier import kernel_numpy, kernel_tree_numpy
    from repro.barrier.application import ApplicationSimulator
    from repro.barrier.coherent import CoherentBarrierSimulator
    from repro.barrier.hardware import hardware_baselines
    from repro.barrier.queueing import QueueingBarrierSimulator
    from repro.barrier.resource import ResourceSimulator
    from repro.barrier.simulator import BarrierSimulator
    from repro.barrier.tree import TreeBarrierSimulator
    from repro.exec import engine
    from repro.faults import runner as fault_runner
    from repro.memory.coherence import CoherenceSimulator
    from repro.network.multistage import MultistageNetwork
    from repro.network.packet import PacketSwitchedNetwork
    from repro.registry import all_specs
    from repro.registry import common
    from repro.trace.scheduler import PostMortemScheduler

    undo: List[Callable[[], None]] = []

    def method(cls, attr, layer, on_result=None):
        wrapper = rec.wrap(layer, cls.__dict__[attr], on_result)
        undo.append(_patch_attr(cls, attr, wrapper))

    method(MultistageNetwork, "run", "network.multistage", _multistage)
    method(PacketSwitchedNetwork, "run", "network.packet", _packet)
    method(CoherenceSimulator, "run", "memory.coherence", _coherence)
    method(CoherenceSimulator, "run_columns", "memory.coherence", _coherence)
    method(PostMortemScheduler, "run", "trace.scheduler", _scheduler)
    method(BarrierSimulator, "run_once", "barrier.event_loop", _episode)
    method(TreeBarrierSimulator, "run_once", "barrier.event_loop", _episode)
    for cls in (
        ApplicationSimulator,
        ResourceSimulator,
        CoherentBarrierSimulator,
        QueueingBarrierSimulator,
    ):
        method(cls, "run", "barrier.ext")
    for module in (kernel_numpy, kernel_tree_numpy):
        wrapper = rec.wrap("barrier.kernel", module.shard_summaries, _kernel)
        undo.append(_patch_attr(module, "shard_summaries", wrapper))
    for module, attr, layer, on_result in (
        (engine, "execute_experiment_points", "exec.engine", None),
        (engine, "execute_barrier_points", "exec.engine", None),
        (fault_runner, "run_plan_resilient", "faults.runner", _fault_summary),
        (common, "scheduled_trace", "trace.memo", None),
    ):
        function = getattr(module, attr)
        undo.extend(
            _patch_everywhere(function, rec.wrap(layer, function, on_result))
        )
    undo.extend(
        _patch_everywhere(
            hardware_baselines, rec.wrap("barrier.ext", hardware_baselines)
        )
    )
    for spec in all_specs():
        for attr, layer, on_result in (
            ("run_point", "registry.run_point", _point),
            ("aggregate", "registry.aggregate", None),
        ):
            function = getattr(spec, attr)
            undo.append(
                _patch_attr(spec, attr, rec.wrap(layer, function, on_result))
            )

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


# -- per-layer metrics ----------------------------------------------------

#: Layers whose self time counts as attributed (the rest is
#: ``unattributed_s``).  ``trace.memo`` is the memo lookup around the
#: scheduler; its own time is bookkeeping and joins the scheduler's.
LAYERS = (
    "network.multistage",
    "network.packet",
    "memory.coherence",
    "trace.scheduler",
    "trace.memo",
    "barrier.kernel",
    "barrier.event_loop",
    "barrier.ext",
    "exec.engine",
    "registry.run_point",
    "registry.aggregate",
    "faults.runner",
)


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def layer_metrics(
    own: Dict[str, float], counts: Dict[str, float], wall_s: float
) -> Dict[str, float]:
    """The per-layer metric values of one traced pass.

    ``own`` is :func:`layer_totals` of the pass's spans, ``counts`` the
    recorder's counts merged with the program's counter deltas, and
    ``wall_s`` the traced time the layers' self times are a share of.
    """
    c = lambda name: float(counts.get(name, 0))  # noqa: E731
    s = lambda name: own.get(name, 0.0)  # noqa: E731
    attributed = sum(s(layer) for layer in LAYERS)
    scheduler_s = s("trace.scheduler") + s("trace.memo")
    lookups = c("trace.memo.calls")
    memo_hits = lookups - c("trace.memo.misses")
    shards = c("kernel.vectorized_shards") + c("kernel.fallback_shards")
    return {
        "network.multistage.calls": c("network.multistage.calls"),
        "network.multistage.self_s": s("network.multistage"),
        "network.multistage.attempts": c("network.multistage.attempts"),
        "network.multistage.completed": c("network.multistage.completed"),
        "network.multistage.completed_per_attempt": _ratio(
            c("network.multistage.completed"), c("network.multistage.attempts")
        ),
        "network.multistage.us_per_attempt": _ratio(
            s("network.multistage"), c("network.multistage.attempts"), 1e6
        ),
        "network.packet.calls": c("network.packet.calls"),
        "network.packet.self_s": s("network.packet"),
        "network.packet.port_cycles": c("network.packet.port_cycles"),
        "network.packet.delivered": c("network.packet.delivered"),
        "network.packet.ns_per_port_cycle": _ratio(
            s("network.packet"), c("network.packet.port_cycles"), 1e9
        ),
        "memory.coherence.calls": c("memory.coherence.calls"),
        "memory.coherence.self_s": s("memory.coherence"),
        "memory.coherence.refs": c("memory.coherence.refs"),
        "memory.coherence.invalidations": c("memory.coherence.invalidations"),
        "memory.coherence.ns_per_ref": _ratio(
            s("memory.coherence"), c("memory.coherence.refs"), 1e9
        ),
        "trace.scheduler.calls": c("trace.scheduler.calls"),
        "trace.scheduler.self_s": scheduler_s,
        "trace.scheduler.refs": c("trace.scheduler.refs"),
        "trace.scheduler.ns_per_ref": _ratio(
            s("trace.scheduler"), c("trace.scheduler.refs"), 1e9
        ),
        "trace.memo_hit_ratio": _ratio(memo_hits, lookups),
        "barrier.kernel.calls": c("barrier.kernel.calls"),
        "barrier.kernel.self_s": s("barrier.kernel"),
        "barrier.kernel.episodes": c("barrier.kernel.episodes"),
        "barrier.kernel.vectorized_share": _ratio(
            c("kernel.vectorized_shards"), shards
        ),
        "barrier.event_loop.calls": c("barrier.event_loop.calls"),
        "barrier.event_loop.self_s": s("barrier.event_loop"),
        "barrier.event_loop.episodes": c("barrier.event_loop.episodes"),
        "barrier.event_loop.us_per_episode": _ratio(
            s("barrier.event_loop"), c("barrier.event_loop.episodes"), 1e6
        ),
        "barrier.ext.self_s": s("barrier.ext"),
        "exec.engine.points": c("exec.engine.points"),
        "exec.engine.self_s": s("exec.engine") + s("registry.run_point"),
        "registry.aggregate.self_s": s("registry.aggregate"),
        "exec.cache.hits": c("exec.cache_hits"),
        "exec.cache.misses": c("exec.cache_misses"),
        "exec.cache.stores": c("exec.cache_stores"),
        "exec.cache.hit_ratio": _ratio(
            c("exec.cache_hits"), c("exec.cache_hits") + c("exec.cache_misses")
        ),
        "exec.supervisor.retries": c("exec.retries"),
        "faults.runner.self_s": s("faults.runner"),
        "faults.runner.points": c("faults.runner.points"),
        "faults.runner.retried": c("faults.runner.retried"),
        "faults.runner.degraded": c("faults.runner.degraded"),
        "unattributed_s": max(wall_s - attributed, 0.0),
    }


def counter_snapshot() -> Dict[str, float]:
    """The program's own exec and kernel counters, flattened."""
    from repro.barrier.backend import get_kernel_counters
    from repro.exec.context import get_stats

    kernel = get_kernel_counters()
    snapshot = {f"exec.{k}": float(v) for k, v in get_stats().as_dict().items()}
    snapshot["kernel.vectorized_shards"] = float(kernel.vectorized_shards)
    snapshot["kernel.fallback_shards"] = float(kernel.fallback_shards)
    return snapshot


def counter_delta(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in after}


def merge_counts(*parts: Iterable[Tuple[str, float]]) -> Dict[str, float]:
    merged: Dict[str, float] = defaultdict(float)
    for part in parts:
        for key, value in dict(part).items():
            merged[key] += value
    return dict(merged)
