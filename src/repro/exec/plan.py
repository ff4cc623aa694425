"""RunPlan: one declarative description of one experiment run.

Before this module existed the repository had four dispatch paths that
each re-derived the same execution state on their own: the registry
runner consulted the ambient :class:`~repro.exec.context.ExecConfig`,
``barrier.sweep`` resolved explicit ``jobs``/``cache`` arguments
against it, the faults runner merged its own ``jobs``/``use_cache``
parameters with the ambient config, and the CLI hand-assembled
``ExitStack(supervision, execution)`` per subcommand.  A capability
added to one path (checkpointing, retries, a backend knob) had to be
re-plumbed through the other three.

:class:`RunPlan` is the convergence point: one frozen dataclass
capturing *everything* that defines a run —

- the experiment id and its parameter overrides,
- the seed,
- the execution config (``jobs`` / ``cache`` / ``cache_dir``),
- the supervision config (retries / deadline / checkpoint / resume),
- an optional fault-injection plan spec plus its resilience options,
- the episode backend,

— and :func:`execute` is the single path that runs one.  The CLI
builds plans from argparse namespaces (:mod:`repro.cli.common`), the
scenario layer (:mod:`repro.scenario`) expands matrices into lists of
them, and both get fan-out, caching, supervision, fault injection and
digest reporting from exactly the same code.

Digest contract: :attr:`PlanOutcome.digest` covers the canonicalized
result data alone — never wall time, execution mode, or recovery
counters — so any two executions of the same plan can be compared with
one string equality, whatever ``jobs``/``cache``/backend they ran
under.  This is the same digest ``python -m repro run`` has always
printed.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, Mapping, Optional

from repro.barrier.backend import backend_context, validate_backend
from repro.exec.cache import canonical_params, payload_digest
from repro.exec.context import (
    ExecConfig,
    execution,
    get_exec_config,
    get_stats,
    reset_stats,
    validate_jobs,
)
from repro.exec.supervisor import SupervisorConfig, supervision
from repro.obs.manifest import jsonable
from repro.registry.spec import ParameterError

#: Seeds feed numpy Generators; this is the range every stream accepts.
#: (Historically defined in the CLI; the plan layer is now the single
#: owner and the CLI imports it from here.)
MAX_SEED = 2**32


#: Experiment ids that simulate barrier episodes: each episode needs at
#: least one repetition and one processor, and arrivals are spread over
#: a non-negative interval A.
BARRIER_FAMILY_IDS = frozenset({
    "figure4", "figure5", "figure6", "figure7", "figure8", "figure9",
    "figure10", "hardware", "schedules", "determinism", "combining",
    "coherent_barrier", "application", "queueing", "resource",
    "coupling", "scale1024",
})

#: Smallest valid value of each barrier-family size parameter (every
#: element, for the sequence kinds), and of the extension models' own
#: parameters: application rounds and work interval, the resource
#: hold time, the queueing threshold and enqueue/wakeup overhead.
BARRIER_PARAM_MINIMUMS = {
    "repetitions": 1,
    "num_processors": 1,
    "n_values": 1,
    "interval_a": 0,
    "a_values": 0,
    "rounds": 1,
    "work_interval": 1,
    "hold_time": 1,
    "threshold": 1,
    "overhead": 0,
}


def _check_barrier_param(name: str, value: Any) -> None:
    """Reject an out-of-range barrier-family parameter with one line."""
    if name == "jitter":  # the application's work-interval jitter fraction
        if isinstance(value, (int, float)) and not 0 <= value < 1:
            raise ParameterError(
                f"parameter 'jitter' must be in [0, 1), got {value}"
            )
        return
    if name == "points":  # (N, A) pairs
        checks = [("N", n, 1) for n, __ in value]
        checks += [("A", a, 0) for __, a in value]
    elif name in BARRIER_PARAM_MINIMUMS:
        values = value if isinstance(value, tuple) else (value,)
        checks = [(None, item, BARRIER_PARAM_MINIMUMS[name]) for item in values]
    else:
        return
    for part, item, minimum in checks:
        if isinstance(item, int) and item < minimum:
            what = f"parameter {name!r}" + (f" ({part})" if part else "")
            raise ParameterError(f"{what} must be >= {minimum}, got {item}")


def validate_seed(seed: int) -> int:
    """Validate a root seed; the single shared CLI/API/scenario helper.

    Mirrors :func:`repro.exec.context.validate_jobs`: a bad seed
    becomes one clear error instead of a numpy traceback from deep
    inside a simulator.
    """
    try:
        seed = int(seed)
    except (TypeError, ValueError):
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**32), got {seed}")
    return seed


def resolve_exec_config(
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
) -> ExecConfig:
    """The ambient exec config with any explicit overrides applied.

    Passing an override makes the result engine-routed even at
    ``jobs=1``, so explicit requests always go through the exec layer.
    (Moved here from :mod:`repro.barrier.sweep`, which re-exports it:
    every dispatch path now shares one resolution rule.)
    """
    base = get_exec_config()
    if jobs is None and cache is None and cache_dir is None:
        return base
    return ExecConfig(
        jobs=validate_jobs(jobs) if jobs is not None else base.jobs,
        cache=base.cache if cache is None else bool(cache),
        cache_dir=cache_dir if cache_dir is not None else base.cache_dir,
        force_engine=True,
    )


@dataclass(frozen=True)
class FaultOptions:
    """Resilient-runner knobs that only apply under a fault plan.

    Field-for-field the keyword surface of
    :func:`repro.faults.runner.run_experiment_resilient`; defaults
    match the historical ``python -m repro faults`` defaults.
    """

    checkpoint_dir: Optional[str] = None
    timeout_seconds: Optional[float] = None
    max_retries: int = 2
    retry_backoff_seconds: float = 0.05
    retry_policy: str = "exponential"
    max_points: Optional[int] = None
    fresh: bool = False


@dataclass(frozen=True)
class RunPlan:
    """Everything that defines one experiment run, as plain data."""

    experiment_id: str
    #: Parameter overrides, validated against the spec's Param schema.
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Root seed.  For plain runs it is injected as the ``seed``
    #: parameter when the spec declares one; under a fault plan it
    #: seeds the per-point fault schedules (the historical ``--seed``
    #: semantics of each subcommand).
    seed: Optional[int] = None
    #: Worker count / result cache; None = the ambient config.
    exec_config: Optional[ExecConfig] = None
    #: Retries / deadline / checkpoint / resume; None = unsupervised.
    supervisor: Optional[SupervisorConfig] = None
    #: Fault-injection plan spec (named plan or spec string).  None
    #: runs the plain path; any string — including ``"none"`` — routes
    #: through the resilient fault runner.
    fault_plan: Optional[str] = None
    #: Resilience options for the fault runner (ignored otherwise).
    faults: Optional[FaultOptions] = None
    #: Episode backend (``python``/``numpy``/``auto``); None = ambient.
    backend: Optional[str] = None

    # -- validation ------------------------------------------------------

    def validate(self) -> "RunPlan":
        """Check every field against its schema; returns self.

        Raises the same exceptions the CLI has always surfaced as
        exit-2 usage errors: ``UnknownExperimentError`` for the id,
        ``ParameterError`` for a bad override, ``ValueError`` for a
        bad seed, fault-plan spec, or backend.  Barrier-family ids also
        reject repetitions or processor counts below 1, negative
        arrival intervals and out-of-range extension-model parameters
        (:data:`BARRIER_PARAM_MINIMUMS`, ``jitter`` in [0, 1)) here,
        instead of deep inside a simulator.
        """
        from repro.registry import get_spec

        spec = get_spec(self.experiment_id)
        for name, value in self.params.items():
            value = spec.get_param(name).coerce(value)
            if self.experiment_id in BARRIER_FAMILY_IDS:
                _check_barrier_param(name, value)
        if self.seed is not None:
            validate_seed(self.seed)
        if self.backend is not None and self.backend != "":
            validate_backend(self.backend)
        if self.fault_plan is not None:
            from repro.faults.spec import parse_plan

            parse_plan(self.fault_plan, seed=self.seed or 0)
        return self

    # -- derived views ---------------------------------------------------

    def overrides(self) -> Dict[str, Any]:
        """The ``run_point`` keyword overrides this plan resolves to.

        The seed joins the overrides only for plain runs on specs that
        declare a ``seed`` parameter (the historical ``--seed``
        behaviour of ``run``); under a fault plan the seed drives the
        fault schedules instead and is passed to the runner directly.
        """
        from repro.registry import get_spec

        spec = get_spec(self.experiment_id)
        resolved = {
            name: spec.get_param(name).coerce(value)
            for name, value in self.params.items()
        }
        if (
            self.seed is not None
            and self.fault_plan is None
            and "seed" not in resolved
            and "seed" in spec.param_names()
        ):
            resolved["seed"] = self.seed
        return resolved

    def with_exec(self, exec_config: Optional[ExecConfig]) -> "RunPlan":
        """A copy of this plan under a different execution config."""
        return replace(self, exec_config=exec_config)

    @contextmanager
    def contexts(self) -> Iterator["RunPlan"]:
        """Install this plan's ambient state for the duration of a block.

        The one place backend / supervision / execution contexts are
        stacked — the ``ExitStack`` every CLI subcommand used to
        assemble by hand.  Fields left ``None`` leave the ambient state
        untouched, so plans compose with whatever the caller installed.
        """
        with ExitStack() as stack:
            if self.backend:
                stack.enter_context(backend_context(self.backend))
            if self.supervisor is not None:
                stack.enter_context(supervision(self.supervisor))
            if self.exec_config is not None:
                stack.enter_context(execution(self.exec_config))
            yield self


# -- serialization ------------------------------------------------------

#: The accepted top-level keys of a serialized plan (the HTTP
#: submission schema of ``repro serve`` and the round-trip contract of
#: :func:`plan_to_json` / :func:`plan_from_json`).
PLAN_JSON_KEYS = ("experiment", "params", "seed", "fault_plan", "backend")


def plan_to_json(plan: RunPlan) -> Dict[str, Any]:
    """The canonical JSON form of a plan's result-determining fields.

    Parameters are coerced through the spec's Param schema and
    normalised to JSON-native values, and fields left at their default
    are omitted, so any two plans that would produce the same result
    payload serialize identically — the property the round-trip tests
    pin and the serve dedupe key builds on.  Execution-only fields
    (``exec_config``, ``supervisor``, ``faults``) are deliberately not
    part of the form: they change how a run executes, never what it
    computes (the digest contract above).
    """
    from repro.registry import get_spec

    plan.validate()
    spec = get_spec(plan.experiment_id)
    params = {
        name: spec.get_param(name).coerce(value)
        for name, value in plan.params.items()
    }
    payload: Dict[str, Any] = {
        "experiment": plan.experiment_id,
        "params": canonical_params(params),
    }
    if plan.seed is not None:
        payload["seed"] = validate_seed(plan.seed)
    if plan.fault_plan is not None:
        payload["fault_plan"] = plan.fault_plan
    if plan.backend:
        payload["backend"] = plan.backend
    return payload


def plan_from_json(data: Any) -> RunPlan:
    """Parse a serialized plan back into a validated :class:`RunPlan`.

    The inverse of :func:`plan_to_json`, and the parser behind ``POST
    /jobs`` experiment submissions.  Raises exactly the exceptions the
    CLI maps to exit-2 usage errors (``UnknownExperimentError``,
    ``ParameterError``, ``ValueError``), so a bad HTTP submission and a
    bad command line produce the same error text.
    """
    if not isinstance(data, Mapping):
        raise ValueError(
            f"plan must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - set(PLAN_JSON_KEYS))
    if unknown:
        raise ValueError(
            "unknown plan key(s): "
            + ", ".join(repr(key) for key in unknown)
            + f"; expected {', '.join(PLAN_JSON_KEYS)}"
        )
    experiment_id = data.get("experiment")
    if not isinstance(experiment_id, str) or not experiment_id:
        raise ValueError("plan requires an 'experiment' id (string)")
    params = data.get("params", {})
    if not isinstance(params, Mapping):
        raise ValueError(
            f"plan params must be a JSON object, got {type(params).__name__}"
        )
    seed = data.get("seed")
    if seed is not None:
        seed = validate_seed(seed)
    fault_plan = data.get("fault_plan")
    if fault_plan is not None and not isinstance(fault_plan, str):
        raise ValueError("fault_plan must be a string plan spec")
    backend = data.get("backend")
    if backend is not None and not isinstance(backend, str):
        raise ValueError("backend must be a string")
    plan = RunPlan(
        experiment_id=experiment_id,
        params=dict(params),
        seed=seed,
        fault_plan=fault_plan,
        backend=backend or None,
    )
    return plan.validate()


def plan_cache_key(plan: RunPlan) -> str:
    """A stable content address for everything that determines results.

    SHA-256 over the canonical JSON form plus the process code digest
    — the dedupe key of the serve job store.  The backend is
    deliberately excluded: backends are bit-identical by the
    vectorization contract (docs/vectorization.md), so two clients
    asking for the same experiment on different backends share one
    computation, exactly as they share one cache entry.
    """
    from repro.exec.cache import code_digest

    payload = plan_to_json(plan)
    payload.pop("backend", None)
    return payload_digest({"plan": payload, "code": code_digest()})


@dataclass
class PlanOutcome:
    """What :func:`execute` produced: result, digest, wall time, stats."""

    plan: RunPlan
    #: The aggregate result (plain runs; None under a fault plan).
    result: Optional[Any] = None
    #: The resilience summary (fault runs; None otherwise).
    summary: Optional[Any] = None
    #: Digest of the canonicalized result data (see module docstring).
    digest: str = ""
    wall_time_seconds: float = 0.0
    #: Snapshot of the exec counters accumulated during this run.
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the run produced a complete, healthy result."""
        if self.summary is not None:
            return bool(self.summary.ok and not self.summary.interrupted)
        return self.result is not None

    @property
    def degraded(self) -> bool:
        """True when a fault run finished but some points degraded."""
        return self.summary is not None and self.summary.degraded > 0


def result_digest(result: Any) -> str:
    """The digest of a plain run's result data (CLI ``run`` contract)."""
    return payload_digest(jsonable(result.data))


def summary_digest(summary: Any) -> str:
    """The digest of a fault run's durable point records.

    Covers each record's status and data — never attempts, wall time,
    or fault counters' timing — so a resumed, retried, parallel or
    cache-warmed sweep digests identically to an undisturbed serial
    one.
    """
    payload = {
        key: {"status": record.status, "data": record.data}
        for key, record in summary.records.items()
    }
    return payload_digest(jsonable(payload))


def execute(plan: RunPlan, reset_counters: bool = False) -> PlanOutcome:
    """Run one plan; the single dispatch path every caller shares.

    Plain plans go through the registry runner (and, under an active
    exec config, the parallel cache-aware engine); plans with a
    ``fault_plan`` go through the resilient fault runner.  Both run
    inside :meth:`RunPlan.contexts`, so backend, supervision and
    execution state are installed uniformly.

    ``reset_counters=True`` zeroes the process-wide exec counters
    first, which makes :attr:`PlanOutcome.stats` a per-run snapshot
    (the CLI does this; library callers accumulating across runs
    should not).
    """
    plan.validate()
    if reset_counters:
        reset_stats()
    before = get_stats().as_dict()
    start = time.perf_counter()
    with plan.contexts():
        if plan.fault_plan is not None:
            from repro.faults.runner import run_plan_resilient

            summary = run_plan_resilient(plan)
            outcome = PlanOutcome(
                plan=plan,
                summary=summary,
                digest=summary_digest(summary),
            )
        else:
            from repro.registry.runner import run

            result = run(plan.experiment_id, **plan.overrides())
            outcome = PlanOutcome(
                plan=plan,
                result=result,
                digest=result_digest(result),
            )
    outcome.wall_time_seconds = time.perf_counter() - start
    after = get_stats().as_dict()
    outcome.stats = {
        key: after[key] - before.get(key, 0) for key in after
    }
    return outcome
