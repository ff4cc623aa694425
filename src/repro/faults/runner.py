"""Resilient experiment execution: checkpoint/resume, timeouts, retries.

The registry experiments (:mod:`repro.analysis.experiments`) are
decomposed into independent sweep points; each point runs under the
requested fault plan with

- **per-point checkpointing** — every finished point is written to
  ``<checkpoint-dir>/points/<key>.json`` (manifest-style: jsonable
  payload plus a deterministic digest, see :mod:`repro.obs.manifest`),
  so a crashed or interrupted sweep resumes without recomputing
  completed points;
- **a wall-clock timeout** — each attempt is bounded by ``SIGALRM``
  (main thread; elsewhere the timeout degrades to unbounded) and
  cancelled cleanly;
- **bounded retry with exponential backoff** — a failed point is
  retried up to ``max_retries`` times, sleeping
  ``retry_backoff_seconds * 2**attempt`` between attempts, mirroring
  the paper's own retry discipline at the harness level.

Each point gets its *own* plan instance seeded from
``derive_seed(seed, point-key)``, so fault schedules are identical
whether the sweep runs straight through or resumes from a checkpoint.

The durability and recovery primitives themselves — ``time_limit``,
``PointRecord``, ``CheckpointStore``, the retry-wait schedule — moved
to :mod:`repro.exec.supervisor` (PR 7), where every execution path
shares them; this module re-exports them unchanged and keeps the
fault-plan-specific orchestration (per-point derived plans, the
degraded/failed classification, the resilience summary).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.exec.cache import ResultCache, cache_key
from repro.exec.context import get_exec_config, get_stats, validate_jobs
from repro.exec.supervisor import (
    CHECKPOINT_VERSION,
    COMPLETED,
    DEGRADED,
    FAILED,
    CheckpointMismatchError,
    CheckpointStore,
    PointRecord,
    PointTimeoutError,
    RetryPolicy,
    SupervisorConfig,
    config_digest as _supervisor_config_digest,
    record_digest as _record_digest,
    run_supervised,
    safe_filename as _safe_filename,
    time_limit,
)
from repro.faults.plan import FaultPlan, fault_injection
from repro.faults.spec import parse_plan
from repro.obs.manifest import jsonable
from repro.sim.rng import derive_seed

__all__ = [
    "CHECKPOINT_VERSION",
    "COMPLETED",
    "DEGRADED",
    "FAILED",
    "CheckpointMismatchError",
    "CheckpointStore",
    "PointRecord",
    "PointTimeoutError",
    "ResilienceSummary",
    "build_point_plan",
    "fault_point_cache_key",
    "run_experiment_resilient",
    "run_plan_resilient",
    "run_fault_point_task",
    "run_resilient_sweep",
    "time_limit",
]


@dataclass
class ResilienceSummary:
    """What happened to a resilient sweep, for reports and exit codes."""

    experiment_id: str
    plan_name: str
    total_points: int
    records: Dict[str, PointRecord] = field(default_factory=dict)
    resumed: int = 0
    retried: int = 0
    interrupted: bool = False
    checkpoint_dir: str = ""
    #: Worker processes the sweep ran with (1 = the serial path).
    jobs: int = 1
    #: Points satisfied from the content-addressed result cache.
    cache_hits: int = 0
    #: Freshly computed points written to the result cache.
    cache_stores: int = 0

    def _count(self, status: str) -> int:
        return sum(1 for r in self.records.values() if r.status == status)

    @property
    def completed(self) -> int:
        return self._count(COMPLETED)

    @property
    def degraded(self) -> int:
        return self._count(DEGRADED)

    @property
    def failed(self) -> int:
        return self._count(FAILED)

    @property
    def remaining(self) -> int:
        return self.total_points - len(self.records)

    @property
    def ok(self) -> bool:
        """True when nothing failed outright (degraded still counts ok)."""
        return self.failed == 0

    @property
    def fault_counts(self) -> Dict[str, int]:
        """Injected-fault totals aggregated over every point."""
        totals: Dict[str, int] = {}
        for record in self.records.values():
            for kind, count in record.fault_counts.items():
                totals[kind] = totals.get(kind, 0) + count
        return dict(sorted(totals.items()))

    def render(self) -> str:
        lines = [
            f"== resilience summary: {self.experiment_id} "
            f"under plan {self.plan_name!r} ==",
            f"points     : {self.total_points} total, "
            f"{self.resumed} resumed from checkpoint",
            f"completed  : {self.completed}",
            f"degraded   : {self.degraded}",
            f"failed     : {self.failed}",
            f"retries    : {self.retried}",
        ]
        if self.jobs > 1 or self.cache_hits or self.cache_stores:
            lines.append(
                f"execution  : jobs={self.jobs}, cache hits "
                f"{self.cache_hits}, cache stores {self.cache_stores}"
            )
        if self.interrupted:
            lines.append(
                f"interrupted: yes ({self.remaining} point(s) left; rerun "
                "to resume)"
            )
        faults = self.fault_counts
        if faults:
            lines.append("injected faults:")
            width = max(len(kind) for kind in faults)
            for kind, count in faults.items():
                lines.append(f"  {kind:<{width}} : {count}")
        else:
            lines.append("injected faults: none")
        for record in self.records.values():
            if record.status == FAILED:
                lines.append(f"  FAILED {record.key}: {record.error}")
        if self.checkpoint_dir:
            lines.append(f"checkpoint : {self.checkpoint_dir}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def run_resilient_sweep(
    points: Mapping[str, Callable[[], PointRecord]],
    store: Optional[CheckpointStore] = None,
    existing: Optional[Dict[str, PointRecord]] = None,
    timeout_seconds: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff_seconds: float = 0.05,
    max_points: Optional[int] = None,
    sleep: Callable[[float], None] = time.sleep,
    retry_policy: Optional[RetryPolicy] = None,
) -> "tuple[Dict[str, PointRecord], int, int, bool]":
    """Run ``points`` resiliently; returns (records, resumed, retried, interrupted).

    Each value in ``points`` is a zero-argument callable returning a
    :class:`PointRecord` (status already classified); exceptions and
    timeouts are caught here and turned into retries, then a FAILED
    record.  ``max_points`` bounds how many *new* points run (the
    crash-simulation hook the CI resume smoke test uses).

    ``retry_policy`` shapes the wait between attempts; the default —
    exponential from ``retry_backoff_seconds`` — reproduces the
    historical ``retry_backoff_seconds * 2**(attempt-1)`` schedule
    exactly (see :class:`repro.exec.supervisor.RetryPolicy`).
    """
    if max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    if retry_backoff_seconds < 0:
        raise ValueError("retry_backoff_seconds must be non-negative")
    if retry_policy is None:
        retry_policy = RetryPolicy(base_seconds=retry_backoff_seconds)
    existing = existing or {}
    records: Dict[str, PointRecord] = {}
    resumed = retried = 0
    ran = 0
    interrupted = False

    for key, point in points.items():
        prior = existing.get(key)
        if prior is not None and prior.done:
            records[key] = prior
            resumed += 1
            continue
        if max_points is not None and ran >= max_points:
            interrupted = True
            break
        ran += 1
        record: Optional[PointRecord] = None
        started = time.perf_counter()
        for attempt in range(max_retries + 1):
            if attempt:
                retried += 1
                sleep(retry_policy.wait_seconds(attempt))
            try:
                with time_limit(timeout_seconds):
                    record = point()
                break
            except KeyboardInterrupt:
                interrupted = True
                break
            except Exception as error:  # noqa: BLE001 - resilience boundary
                record = PointRecord(
                    key=key,
                    status=FAILED,
                    attempts=attempt + 1,
                    error=f"{type(error).__name__}: {error}",
                )
        if interrupted and record is None:
            break
        assert record is not None
        record.key = key
        record.attempts = max(record.attempts, 1)
        record.wall_time_seconds = time.perf_counter() - started
        records[key] = record
        if store is not None:
            store.save_point(record)
        if interrupted:
            break
    return records, resumed, retried, interrupted


def _config_digest(payload: Dict[str, Any]) -> str:
    return _supervisor_config_digest(payload)


def _execute_fault_point(
    experiment_id: str,
    plan_spec: str,
    seed: int,
    key: str,
    kwargs: Dict[str, Any],
) -> PointRecord:
    """Run one sweep point under its derived plan; shared by both the
    serial closure and the pool worker, so the two paths cannot drift.
    """
    from repro.registry import run as run_one

    # A fresh plan per point, seeded by the point key: fault schedules
    # do not depend on which points ran before, so a resumed (or
    # parallel) sweep equals an uninterrupted serial one.
    plan = build_point_plan(plan_spec, seed, experiment_id, key)
    with fault_injection(plan):
        result = run_one(experiment_id, **kwargs)
    degraded = plan.fault_counts.get("barrier.partial_arrival", 0) > 0
    # Round-trip through JSON so the in-memory record equals what a
    # resumed run loads from disk (e.g. int dict keys -> str).
    data = json.loads(
        json.dumps(
            jsonable({"title": result.title, "data": result.data}),
            sort_keys=True,
            default=str,
        )
    )
    return PointRecord(
        key=key,
        status=DEGRADED if degraded else COMPLETED,
        data=data,
        fault_counts=plan.snapshot(),
    )


def run_fault_point_task(task: Dict[str, Any]) -> PointRecord:
    """Pool-worker entry: execute one fault point from a picklable task.

    The worker applies the wall-clock limit itself (``SIGALRM`` works
    there — a pool worker's work runs on its main thread) and first
    drops the tracer / fault plan / exec config it inherited from the
    forked parent, so nested parallelism and sink corruption are
    impossible.
    """
    from repro.exec.shards import reset_worker_state

    reset_worker_state()
    started = time.perf_counter()
    with time_limit(task.get("timeout_seconds")):
        record = _execute_fault_point(
            task["experiment_id"],
            task["plan_spec"],
            task["seed"],
            task["key"],
            task["kwargs"],
        )
    record.wall_time_seconds = time.perf_counter() - started
    return record


def _run_fault_points_parallel(
    points_kwargs: "Dict[str, Dict[str, Any]]",
    existing: Dict[str, PointRecord],
    store: Optional[CheckpointStore],
    jobs: int,
    experiment_id: str,
    plan_spec: str,
    seed: int,
    timeout_seconds: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff_seconds: float = 0.05,
    max_points: Optional[int] = None,
    sleep: Callable[[float], None] = time.sleep,
    retry_policy_spec: str = "exponential",
) -> "tuple[Dict[str, PointRecord], int, int, bool]":
    """Point-level parallel version of :func:`run_resilient_sweep`.

    Fault plans are process-global and stateful across episodes, so
    repetition-level sharding is off the table here; instead whole
    points — already independent by construction (each derives its own
    plan from the point key) — are fanned across the supervised worker
    pool (:func:`repro.exec.supervisor.run_supervised`), which also
    survives worker death: a killed worker respawns the pool and
    re-dispatches only the lost points, without charging them a retry.
    """
    from repro.exec.engine import _discard_pool, _get_pool

    records: Dict[str, PointRecord] = {}
    resumed = 0
    interrupted = False
    pending: List[str] = []
    for key in points_kwargs:
        prior = existing.get(key)
        if prior is not None and prior.done:
            records[key] = prior
            resumed += 1
        else:
            pending.append(key)
    if max_points is not None and len(pending) > max_points:
        interrupted = True
        pending = pending[:max_points]

    stats = get_stats()
    supervisor = SupervisorConfig(
        retries=max_retries,
        deadline_seconds=timeout_seconds,
        backoff=retry_policy_spec,
        backoff_base_seconds=retry_backoff_seconds,
    )
    tasks = {
        key: {
            "experiment_id": experiment_id,
            "plan_spec": plan_spec,
            "seed": seed,
            "key": key,
            "kwargs": points_kwargs[key],
        }
        for key in pending
    }

    def _accept(key: str, record: PointRecord) -> None:
        record.key = key
        records[key] = record
        stats.parallel_points += 1
        if store is not None:
            store.save_point(record)

    retried = 0
    try:
        outcome = run_supervised(
            tasks,
            entry="fault_point",
            get_pool=lambda: _get_pool(jobs),
            discard_pool=lambda: _discard_pool(jobs),
            config=supervisor,
            on_result=_accept,
            sleep=sleep,
        )
    except KeyboardInterrupt:
        interrupted = True
    else:
        retried = outcome.retries
        for key in pending:
            if key in outcome.results:
                record = records[key]
                if record.attempts != outcome.attempts[key]:
                    # The point needed retries: refresh the durable
                    # record's attempt count (not part of its digest).
                    record.attempts = outcome.attempts[key]
                    if store is not None:
                        store.save_point(record)
            elif key in outcome.errors:
                error = outcome.errors[key]
                record = PointRecord(
                    key=key,
                    status=FAILED,
                    attempts=outcome.attempts[key],
                    error=f"{type(error).__name__}: {error}",
                )
                records[key] = record
                if store is not None:
                    store.save_point(record)
    ordered = {key: records[key] for key in points_kwargs if key in records}
    return ordered, resumed, retried, interrupted


def fault_point_cache_key(
    experiment_id: str,
    plan_spec: str,
    seed: int,
    key: str,
    kwargs: Dict[str, Any],
) -> str:
    """Content address of one fault point's durable record."""
    return cache_key(
        f"faults:{experiment_id}",
        {"plan_spec": plan_spec, "point": key, "kwargs": jsonable(kwargs)},
        seed,
    )


def run_experiment_resilient(
    experiment_id: str,
    plan_spec: str = "none",
    seed: int = 0,
    checkpoint_dir: Optional[str] = None,
    timeout_seconds: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff_seconds: float = 0.05,
    max_points: Optional[int] = None,
    fresh: bool = False,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    retry_policy: str = "exponential",
    params: Optional[Dict[str, Any]] = None,
    **overrides: Any,
) -> ResilienceSummary:
    """Run a registered experiment under a fault plan, resiliently.

    The engine behind ``python -m repro faults <experiment-id>``: the
    experiment is decomposed into sweep points (see
    :func:`repro.registry.experiment_points`), each point
    runs under its own deterministic plan instance, finished points are
    checkpointed, and the whole sweep resumes from disk after a crash
    or interrupt.

    ``jobs > 1`` fans the *points* across the exec worker pool (plans
    are per-point deterministic, so results — and their record digests
    — are identical to the serial sweep); ``use_cache`` consults the
    content-addressed result cache before running a point and stores
    fresh completed/degraded records into it.  Both default to the
    ambient :class:`repro.exec.ExecConfig`; ``fresh`` clears the
    checkpoint but never the cache (its key already encodes code and
    configuration).

    ``retry_policy`` names the wait schedule between attempts — one of
    the paper's own backoff shapes (``exponential`` / ``linear`` /
    ``none``, see :func:`repro.exec.supervisor.parse_backoff_spec`) —
    scaled from ``retry_backoff_seconds``.  The default reproduces the
    historical exponential schedule exactly.

    ``seed`` seeds the fault schedules.  Experiment parameters go in
    ``overrides``, or in ``params`` when their name is one of this
    function's own keywords (an experiment's ``seed`` parameter);
    ``overrides`` win where both name a parameter.
    """
    overrides = {**(params or {}), **overrides}
    # Fail on a typo'd policy before any point runs or checkpoint binds.
    serial_retry_policy = RetryPolicy.from_spec(
        retry_policy, base_seconds=retry_backoff_seconds
    )
    # Imported lazily: the registry's spec modules import the
    # simulators, which import repro.faults — a module-level import
    # here would cycle.
    from repro.registry import experiment_points

    # Validate the plan spec once, up front: a typo'd injector name
    # should be one usage error, not N failed points plus retries and
    # a checkpoint bound to a broken configuration.
    parse_plan(plan_spec, seed=seed)

    exec_config = get_exec_config()
    jobs = validate_jobs(jobs if jobs is not None else exec_config.jobs)
    use_cache = exec_config.cache if use_cache is None else bool(use_cache)
    cache_dir = cache_dir if cache_dir is not None else exec_config.cache_dir
    cache = ResultCache(cache_dir) if use_cache else None
    stats = get_stats()

    points_kwargs = experiment_points(experiment_id, **overrides)
    stats.points += len(points_kwargs)
    digest = _config_digest(
        {
            "experiment_id": experiment_id,
            "plan_spec": plan_spec,
            "seed": seed,
            "points": {k: v for k, v in points_kwargs.items()},
        }
    )
    store = CheckpointStore(
        checkpoint_dir
        if checkpoint_dir is not None
        else os.path.join("checkpoints", experiment_id)
    )
    if fresh:
        store.clear()
    existing = store.load(digest)
    store.write_meta(
        {
            "experiment_id": experiment_id,
            "plan_spec": plan_spec,
            "seed": seed,
            "config_digest": digest,
            "points": sorted(points_kwargs),
        }
    )

    # Cache pre-pass: a point whose durable record is already in the
    # content-addressed cache (same experiment, plan, kwargs, seed and
    # code) is replayed from it — checkpointed like a fresh result, but
    # never simulated.
    cached_records: Dict[str, PointRecord] = {}
    if cache is not None:
        for key, kwargs in points_kwargs.items():
            prior = existing.get(key)
            if prior is not None and prior.done:
                continue
            ckey = fault_point_cache_key(
                experiment_id, plan_spec, seed, key, kwargs
            )
            payload = cache.get(ckey)
            record = (
                PointRecord.from_dict(payload) if payload is not None else None
            )
            if record is not None and record.done:
                cached_records[key] = record
                stats.cache_hits += 1
                store.save_point(record)
            else:
                stats.cache_misses += 1
    merged = dict(existing)
    merged.update(cached_records)

    if jobs > 1:
        records, resumed, retried, interrupted = _run_fault_points_parallel(
            points_kwargs,
            merged,
            store,
            jobs,
            experiment_id,
            plan_spec,
            seed,
            timeout_seconds=timeout_seconds,
            max_retries=max_retries,
            retry_backoff_seconds=retry_backoff_seconds,
            max_points=max_points,
            retry_policy_spec=retry_policy,
        )
    else:

        def make_point(
            key: str, kwargs: Dict[str, Any]
        ) -> Callable[[], PointRecord]:
            def run_point() -> PointRecord:
                return _execute_fault_point(
                    experiment_id, plan_spec, seed, key, kwargs
                )

            return run_point

        callables = {
            key: make_point(key, kwargs)
            for key, kwargs in points_kwargs.items()
        }
        records, resumed, retried, interrupted = run_resilient_sweep(
            callables,
            store=store,
            existing=merged,
            timeout_seconds=timeout_seconds,
            max_retries=max_retries,
            retry_backoff_seconds=retry_backoff_seconds,
            max_points=max_points,
            retry_policy=serial_retry_policy,
        )

    cache_stores = 0
    if cache is not None:
        for key, record in records.items():
            if key in merged or not record.done:
                continue
            ckey = fault_point_cache_key(
                experiment_id, plan_spec, seed, key, points_kwargs[key]
            )
            cache.put(ckey, record.to_dict())
            cache_stores += 1
        stats.cache_stores += cache_stores

    return ResilienceSummary(
        experiment_id=experiment_id,
        plan_name=plan_spec,
        total_points=len(points_kwargs),
        records=records,
        resumed=resumed - len(cached_records),
        retried=retried,
        interrupted=interrupted,
        checkpoint_dir=store.directory,
        jobs=jobs,
        cache_hits=len(cached_records),
        cache_stores=cache_stores,
    )


def run_plan_resilient(plan) -> ResilienceSummary:
    """Execute a fault-plan :class:`~repro.exec.plan.RunPlan`.

    The RunPlan port of :func:`run_experiment_resilient`: the plan's
    ``fault_plan`` spec, seed, parameter overrides and
    :class:`~repro.exec.plan.FaultOptions` map onto the resilient
    runner's keyword surface, while ``jobs``/``cache`` resolve from the
    ambient exec config the plan installed via
    :meth:`RunPlan.contexts` — exactly how the CLI has always wired
    them, so record digests are pinned unchanged.
    """
    from repro.exec.plan import FaultOptions

    options = plan.faults if plan.faults is not None else FaultOptions()
    return run_experiment_resilient(
        plan.experiment_id,
        plan_spec=plan.fault_plan if plan.fault_plan is not None else "none",
        seed=plan.seed if plan.seed is not None else 0,
        checkpoint_dir=options.checkpoint_dir,
        timeout_seconds=options.timeout_seconds,
        max_retries=options.max_retries,
        retry_backoff_seconds=options.retry_backoff_seconds,
        max_points=options.max_points,
        fresh=options.fresh,
        retry_policy=options.retry_policy,
        params=plan.overrides(),
    )


def build_point_plan(
    plan_spec: str, seed: int, experiment_id: str, key: str
) -> FaultPlan:
    """The deterministic per-point plan for (spec, seed, experiment, key)."""
    return parse_plan(
        plan_spec,
        seed=derive_seed(seed, f"faults:{experiment_id}:{key}"),
    )
