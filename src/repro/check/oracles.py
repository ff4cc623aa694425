"""Differential oracles: two ways of computing the same thing must agree.

Three families:

- **Analytic vs simulated** (`model-agreement`): the cycle-exact
  simulator must land within the paper's tolerances of Models 1 and 2
  in the regimes where each model is solid — at *randomized* operating
  points, not just the golden ones the claims suite pins.
- **Execution-mode parity** (`exec-parity`): the serial path, the
  ``--jobs N`` pool path and a cold/warm content-addressed cache must
  produce digest-identical results on randomized experiment configs
  drawn from the schema fuzz domains.
- **Metamorphic relations** (`metamorphic-*`): transformations of a
  backoff policy with a known effect — zero backoff degenerates to the
  base polling loop bit-for-bit; traffic predictions are monotone in N;
  exponential waits are monotone in polls, base and cap and never
  exceed the cap; flag backoff strictly beats no backoff when A >> N.
- **Backend parity** (`backend-parity`): the pure-python event loop and
  the vectorized numpy kernel must produce bit-identical episode
  summaries and experiment digests on randomized barrier configurations
  — the executable form of the equivalence contract in
  ``docs/vectorization.md``.  Skipped (0 cases) when numpy is absent.
- **Tree backend parity** (`tree-backend-parity`): the same contract
  for the combining-tree family — the event loop of
  :mod:`repro.barrier.tree` vs the batched kernel of
  :mod:`repro.barrier.kernel_tree_numpy`, on randomized (N, degree,
  A, policy, degraded-mode bounds) configurations.
- **Network kernel parity** (`network-kernel-parity`): the scalar
  Omega circuit loop of :mod:`repro.network.multistage` vs the numpy
  kernel of :mod:`repro.network.kernel_circuit`, on randomized hot-spot
  runs.
"""

from __future__ import annotations

import tempfile
from typing import Callable, Dict

from repro.barrier.models import model1_accesses, model2_accesses
from repro.barrier.simulator import build_simulator, simulate_barrier
from repro.check.fuzz import run_repro_command, sample_kwargs
from repro.check.report import CheckContext, CheckFailure
from repro.core.backoff import (
    ExponentialFlagBackoff,
    NoBackoff,
    VariableBackoff,
)
from repro.obs.tracer import NULL_TRACER, tracing
from repro.sim.rng import spawn_stream

#: The differential-oracle registry: name -> check function.
DIFFERENTIAL_CHECKS: Dict[str, Callable[[CheckContext], int]] = {}

#: Experiments the exec-parity oracle samples from by default: cheap at
#: fuzz-domain sizes and covering every dispatch shape (axis sweeps,
#: single-point experiments, and the stateful-policy ``determinism``
#: study that must bypass the cache).
DEFAULT_PARITY_IDS = (
    "combining",
    "coupling",
    "determinism",
    "figure4",
    "figure5",
    "figure6",
    "queueing",
    "resource",
)


def differential(name: str):
    """Decorator registering a differential oracle under ``name``."""

    def register(fn: Callable[[CheckContext], int]):
        if name in DIFFERENTIAL_CHECKS:
            raise ValueError(f"duplicate differential check {name!r}")
        DIFFERENTIAL_CHECKS[name] = fn
        return fn

    return register


@differential("model-agreement")
def check_model_agreement(ctx: CheckContext) -> int:
    """Simulator vs analytic Models 1-2 at randomized solid-regime points.

    Model 1 (A << N): simultaneous arrivals, prediction ``2.5 N``; the
    claims suite pins error < 5% at N=128, so randomized large-N points
    get a small cushion.  Model 2 (A >> N): prediction
    ``A(N-1)/(N+1)/2 + 1.5 N``; the paper reports ~8% error at the
    golden point, and the check budget averages far fewer episodes than
    the paper's 100, so the tolerance adds sampling slack.
    """
    rng = ctx.rng("model-agreement")
    cases = 0
    for __ in range(ctx.budget.cases):
        # -- Model 1 regime: A = 0 (deterministic simulation).
        n = int(rng.choice([48, 64, 96, 128]))
        aggregate = simulate_barrier(n, 0, NoBackoff(), repetitions=2)
        predicted = model1_accesses(n)
        error = abs(aggregate.mean_accesses - predicted) / predicted
        if error >= 0.06:
            raise CheckFailure(
                f"Model 1 disagreement at N={n}, A=0: simulated "
                f"{aggregate.mean_accesses:.2f} vs predicted "
                f"{predicted:.2f} ({100 * error:.1f}% error)"
            )
        # -- Model 2 regime: A >> N.
        n = int(rng.integers(8, 25))
        interval_a = int(rng.integers(800, 3001))
        seed = int(rng.integers(0, 2**32))
        aggregate = simulate_barrier(
            n,
            interval_a,
            NoBackoff(),
            repetitions=ctx.budget.repetitions,
            seed=seed,
        )
        predicted = model2_accesses(n, interval_a)
        error = abs(aggregate.mean_accesses - predicted) / predicted
        if error >= 0.15:
            raise CheckFailure(
                f"Model 2 disagreement at N={n}, A={interval_a}, "
                f"seed={seed}: simulated {aggregate.mean_accesses:.2f} vs "
                f"predicted {predicted:.2f} ({100 * error:.1f}% error)"
            )
        cases += 1
    return cases


@differential("exec-parity")
def check_exec_parity(ctx: CheckContext) -> int:
    """Serial vs ``--jobs 2`` vs cold/warm cache on randomized configs.

    The digest covers the canonicalized result data alone, so all four
    execution modes of the same (experiment, config, seed) must agree
    exactly; a cold cache run that stored entries must make the warm
    rerun hit them.
    """
    from repro.exec import (
        ExecConfig,
        execution,
        get_stats,
        payload_digest,
        reset_stats,
    )
    from repro.obs.manifest import jsonable
    from repro.registry import get_spec, run

    rng = ctx.rng("exec-parity")
    candidates = [
        experiment_id
        for experiment_id in (ctx.ids or DEFAULT_PARITY_IDS)
    ]
    cases = 0
    for __ in range(ctx.budget.cases):
        experiment_id = candidates[int(rng.integers(0, len(candidates)))]
        spec = get_spec(experiment_id)
        kwargs = sample_kwargs(spec, rng)
        repro = run_repro_command(experiment_id, kwargs, spec) + " --jobs 2"

        digests = {}
        digests["serial"] = payload_digest(
            jsonable(run(experiment_id, **kwargs).data)
        )
        with execution(ExecConfig(jobs=2, force_engine=True)):
            digests["jobs=2"] = payload_digest(
                jsonable(run(experiment_id, **kwargs).data)
            )
        with tempfile.TemporaryDirectory(prefix="repro-check-cache-") as tmp:
            cached = ExecConfig(cache=True, cache_dir=tmp, force_engine=True)
            reset_stats()
            with execution(cached):
                digests["cache-cold"] = payload_digest(
                    jsonable(run(experiment_id, **kwargs).data)
                )
            stores = get_stats().cache_stores
            reset_stats()
            with execution(cached):
                digests["cache-warm"] = payload_digest(
                    jsonable(run(experiment_id, **kwargs).data)
                )
            warm_hits = get_stats().cache_hits
        if len(set(digests.values())) != 1:
            raise CheckFailure(
                f"execution modes disagree on {experiment_id} "
                f"with {kwargs}: {digests}",
                repro=repro,
            )
        if stores and not warm_hits:
            raise CheckFailure(
                f"cold run stored {stores} cache entr(ies) for "
                f"{experiment_id} but the warm rerun hit none",
                repro=repro + " --cache",
            )
        cases += 1
    return cases


@differential("backend-parity")
def check_backend_parity(ctx: CheckContext) -> int:
    """python vs numpy episode backends, pinned summary-by-summary.

    The contract (docs/vectorization.md): for every configuration the
    kernel accepts, episode summaries — and therefore aggregates,
    experiment payloads and result digests — are *bit-identical* to the
    reference event loop; configurations it cannot accept must fall
    back to the loop, which makes parity trivial but still checks the
    dispatch path.  The oracle fails if the kernel never actually
    vectorized a shard (a silently-vacuous pass), and is skipped with
    zero cases when numpy itself is unavailable.
    """
    from repro.barrier.backend import (
        get_kernel_counters,
        numpy_available,
    )
    from repro.core.backoff import LinearFlagBackoff

    if not numpy_available():
        return 0

    rng = ctx.rng("backend-parity")
    policies = (
        NoBackoff(),
        VariableBackoff(),
        LinearFlagBackoff(step=2),
        ExponentialFlagBackoff(base=2),
        ExponentialFlagBackoff(base=8),
    )
    before = get_kernel_counters().vectorized_shards
    cases = 0
    for __ in range(ctx.budget.cases * 2):
        # Half the draws reach N >= 128, where the kernel's guarded
        # rounds carry the dense regime of figures 6-10, and A = 10000
        # is the sparse regime the scalar tail finishes (`schedules`).
        if rng.random() < 0.5:
            n = int(rng.integers(1, 65))
        else:
            n = int(rng.integers(65, 513))
        interval_a = int(
            rng.choice([0, int(rng.integers(1, 301)), 1000, 10000])
        )
        seed = int(rng.integers(0, 2**32))
        policy = policies[int(rng.integers(0, len(policies)))]
        reps = max(2, ctx.budget.repetitions)
        simulator = build_simulator(n, interval_a, policy, seed=seed)
        # Mirror the exec engine: simulator-level tracing is suppressed
        # while a backend owns the shard (the kernel refuses traced
        # configurations, which would make every case fall back).
        with tracing(NULL_TRACER):
            loop = simulator.run_shard(0, reps, backend="python")
            kernel = simulator.run_shard(0, reps, backend="numpy")
        mismatches = [
            rep
            for rep, (a, b) in enumerate(zip(loop, kernel))
            if a.as_tuple() != b.as_tuple()
        ]
        if mismatches:
            rep = mismatches[0]
            raise CheckFailure(
                f"backends disagree at N={n}, A={interval_a}, "
                f"policy={policy!r}, seed={seed}, rep={rep}: "
                f"python {loop[rep].as_tuple()} vs "
                f"numpy {kernel[rep].as_tuple()} "
                f"({len(mismatches)}/{reps} episode(s) differ)",
                repro=(
                    'PYTHONPATH=src python -c "'
                    "from repro.barrier.simulator import build_simulator; "
                    "from repro.core.backoff import *; "
                    f"s = build_simulator({n}, {interval_a}, {policy!r}, "
                    f"seed={seed}); "
                    "print([[e.as_tuple() for e in s.run_shard("
                    f"0, {reps}, backend=b)] for b in ('python', 'numpy')])"
                    '"'
                ),
            )
        cases += 1
    if get_kernel_counters().vectorized_shards == before:
        raise CheckFailure(
            "backend-parity ran without the numpy kernel vectorizing a "
            "single shard — every configuration fell back to the event "
            "loop, so the oracle checked nothing"
        )

    # One registry-level pin: the whole figure4 pipeline (sweep, engine,
    # aggregation, canonicalization) digests identically per backend.
    from repro.exec import payload_digest
    from repro.obs.manifest import jsonable
    from repro.registry import run

    kwargs = dict(repetitions=3, n_values=(2, 8, 32), a_values=(0, 100))
    digests = {
        backend: payload_digest(
            jsonable(run("figure4", backend=backend, **kwargs).data)
        )
        for backend in ("python", "numpy")
    }
    if digests["python"] != digests["numpy"]:
        raise CheckFailure(
            f"figure4 digests diverge across backends: {digests}",
            repro="python -m repro run figure4 -p repetitions=3 "
                  "-p n_values=2,8,32 -p a_values=0,100 --backend numpy",
        )
    return cases + 1


@differential("tree-backend-parity")
def check_tree_backend_parity(ctx: CheckContext) -> int:
    """python vs numpy tree backends, pinned summary-by-summary.

    The combining-tree analogue of ``backend-parity``: randomized
    (N, degree, A, policy, bounds) configurations must produce
    bit-identical episode summaries across the event loop and the
    batched kernel, including degraded-mode poll budgets and timeouts
    (where a mid-descent giving-up winner changes who writes — or
    whether anyone writes — every flag below).  Fails if the kernel
    never vectorized a shard; skipped (0 cases) when numpy is absent.
    """
    from repro.barrier.backend import get_kernel_counters, numpy_available
    from repro.barrier.tree import build_tree_simulator
    from repro.core.backoff import AdaptiveBackoff, LinearFlagBackoff

    if not numpy_available():
        return 0

    rng = ctx.rng("tree-backend-parity")
    policies = (
        NoBackoff(),
        VariableBackoff(),
        LinearFlagBackoff(step=2),
        ExponentialFlagBackoff(base=2),
        AdaptiveBackoff(multiplier=1, flag_base=2),
    )
    before = get_kernel_counters().vectorized_shards
    cases = 0
    for __ in range(ctx.budget.cases * 2):
        n = int(rng.integers(1, 65))
        degree = int(rng.choice([2, 3, 4, 8, 16]))
        interval_a = int(rng.choice([0, int(rng.integers(1, 301)), 1000]))
        seed = int(rng.integers(0, 2**32))
        policy = policies[int(rng.integers(0, len(policies)))]
        poll_budget = None
        timeout_cycles = None
        bounds = int(rng.integers(0, 4))
        if bounds & 1:
            poll_budget = int(rng.integers(1, 9))
        if bounds & 2:
            timeout_cycles = int(rng.integers(20, 400))
        reps = max(2, ctx.budget.repetitions)
        simulator = build_tree_simulator(
            n, interval_a, policy, degree=degree, seed=seed,
            poll_budget=poll_budget, timeout_cycles=timeout_cycles,
        )
        with tracing(NULL_TRACER):
            loop = simulator.run_shard(0, reps, backend="python")
            kernel = simulator.run_shard(0, reps, backend="numpy")
        mismatches = [
            rep
            for rep, (a, b) in enumerate(zip(loop, kernel))
            if a.as_tuple() != b.as_tuple()
        ]
        if mismatches:
            rep = mismatches[0]
            raise CheckFailure(
                f"tree backends disagree at N={n}, degree={degree}, "
                f"A={interval_a}, policy={policy!r}, seed={seed}, "
                f"poll_budget={poll_budget}, "
                f"timeout_cycles={timeout_cycles}, rep={rep}: "
                f"python {loop[rep].as_tuple()} vs "
                f"numpy {kernel[rep].as_tuple()} "
                f"({len(mismatches)}/{reps} episode(s) differ)"
            )
        cases += 1
    if get_kernel_counters().vectorized_shards == before:
        raise CheckFailure(
            "tree-backend-parity ran without the tree kernel vectorizing "
            "a single shard — every configuration fell back to the event "
            "loop, so the oracle checked nothing"
        )

    # One registry-level pin: the scale1024 pipeline digests identically
    # per backend (probe disabled; network-kernel-parity covers it).
    from repro.exec import payload_digest
    from repro.obs.manifest import jsonable
    from repro.registry import run

    kwargs = dict(
        repetitions=2, n_values=(4, 16), probe_horizon=0, interval_a=50
    )
    digests = {
        backend: payload_digest(
            jsonable(run("scale1024", backend=backend, **kwargs).data)
        )
        for backend in ("python", "numpy")
    }
    if digests["python"] != digests["numpy"]:
        raise CheckFailure(
            f"scale1024 digests diverge across backends: {digests}",
            repro="python -m repro run scale1024 -p repetitions=2 "
                  "-p n_values=4,16 -p probe_horizon=0 -p interval_a=50 "
                  "--backend numpy",
        )
    return cases + 1


@differential("metamorphic-zero-backoff")
def check_zero_backoff_degenerates(ctx: CheckContext) -> int:
    """Zero-amount backoff is bit-identical to the base polling loop.

    ``VariableBackoff(multiplier=0, offset=0)`` waits zero cycles
    everywhere, exactly like ``NoBackoff``; episodes simulated with
    identical seeds must match in every per-process field.
    """
    rng = ctx.rng("metamorphic-zero-backoff")
    cases = 0
    for __ in range(ctx.budget.cases * 2):
        n = int(rng.integers(2, 33))
        interval_a = int(rng.integers(0, 501))
        seed = int(rng.integers(0, 2**32))
        single = bool(rng.integers(0, 2))
        results = []
        for policy in (NoBackoff(), VariableBackoff(multiplier=0, offset=0)):
            simulator = build_simulator(
                n, interval_a, policy, seed=seed, single_variable=single
            )
            results.append(
                simulator.run_once(spawn_stream(seed, "barrier-rep-0"))
            )
        base, degenerate = results
        same = (
            base.accesses_per_process == degenerate.accesses_per_process
            and base.waiting_times == degenerate.waiting_times
            and base.completion_time == degenerate.completion_time
            and base.flag_set_time == degenerate.flag_set_time
        )
        if not same:
            raise CheckFailure(
                f"zero backoff diverged from base polling at N={n}, "
                f"A={interval_a}, seed={seed}, single_variable={single}: "
                f"accesses {base.accesses_per_process} vs "
                f"{degenerate.accesses_per_process}"
            )
        cases += 1
    return cases


@differential("metamorphic-monotonicity")
def check_monotonicity(ctx: CheckContext) -> int:
    """Monotone relations in N and in the backoff bound.

    More processors can never predict less traffic (Models 1-2 are
    monotone in N; the A=0 deterministic simulation agrees); an
    exponential flag wait is monotone in polls, base and cap, and never
    exceeds its cap; and flag backoff saves traffic vs no backoff in
    the A >> N regime where the paper claims the largest wins.
    """
    rng = ctx.rng("metamorphic-monotonicity")
    cases = 0
    for __ in range(ctx.budget.cases):
        # -- analytic monotonicity in N.
        interval_a = int(rng.integers(0, 2001))
        smaller = int(rng.integers(1, 128))
        larger = smaller + int(rng.integers(1, 65))
        for model, label in (
            (model1_accesses, "Model 1"),
            (lambda n: model2_accesses(n, interval_a), "Model 2"),
        ):
            if model(larger) < model(smaller):
                raise CheckFailure(
                    f"{label} not monotone in N: f({smaller})="
                    f"{model(smaller):.2f} > f({larger})={model(larger):.2f} "
                    f"at A={interval_a}"
                )
        # -- simulated monotonicity at A=0 (deterministic).
        small_sim = simulate_barrier(smaller % 48 + 2, 0, NoBackoff(),
                                     repetitions=1)
        large_sim = simulate_barrier(smaller % 48 + 2 + 8, 0, NoBackoff(),
                                     repetitions=1)
        if large_sim.mean_accesses < small_sim.mean_accesses:
            raise CheckFailure(
                "simulated A=0 traffic decreased when N grew: "
                f"N={smaller % 48 + 2} -> {small_sim.mean_accesses:.2f}, "
                f"N={smaller % 48 + 10} -> {large_sim.mean_accesses:.2f}"
            )
        # -- exponential wait bounded by cap, monotone in polls/base/cap.
        base = int(rng.choice([2, 4, 8]))
        cap = int(rng.integers(4, 1 << 12))
        policy = ExponentialFlagBackoff(base=base, cap=cap)
        wider = ExponentialFlagBackoff(base=base, cap=2 * cap)
        steeper = ExponentialFlagBackoff(base=2 * base, cap=cap)
        previous = 0
        for polls in range(1, 20):
            wait = policy.flag_wait(polls)
            if wait > cap:
                raise CheckFailure(
                    f"exponential wait {wait} exceeds cap {cap} "
                    f"(base={base}, polls={polls})"
                )
            if wait < previous:
                raise CheckFailure(
                    f"exponential wait not monotone in polls at "
                    f"base={base}, cap={cap}, polls={polls}"
                )
            if wider.flag_wait(polls) < wait:
                raise CheckFailure(
                    f"raising the cap lowered the wait at base={base}, "
                    f"polls={polls}"
                )
            if steeper.flag_wait(polls) < wait:
                raise CheckFailure(
                    f"raising the base lowered the wait at cap={cap}, "
                    f"polls={polls}"
                )
            previous = wait
        # -- backoff saves traffic in the A >> N regime.
        n = int(rng.integers(16, 65))
        interval_a = int(rng.integers(1000, 3001))
        seed = int(rng.integers(0, 2**32))
        baseline = simulate_barrier(
            n, interval_a, NoBackoff(),
            repetitions=ctx.budget.repetitions, seed=seed,
        )
        backed_off = simulate_barrier(
            n, interval_a, ExponentialFlagBackoff(base=2),
            repetitions=ctx.budget.repetitions, seed=seed,
        )
        if backed_off.mean_accesses >= baseline.mean_accesses:
            raise CheckFailure(
                f"base-2 flag backoff saved nothing at N={n}, "
                f"A={interval_a}, seed={seed}: "
                f"{backed_off.mean_accesses:.2f} vs baseline "
                f"{baseline.mean_accesses:.2f}"
            )
        cases += 1
    return cases


def network_kernel_case(
    ports, fraction, think, hold, horizon, policy_index, seed, kernel
):
    """Everything two consecutive hot-spot runs on one Omega network
    produce and leave behind: on the numpy circuit kernel (``kernel``)
    or on the scalar loop under ``backend=python``."""
    from repro.barrier.backend import backend_context
    from repro.network.hotspot import HotspotWorkload
    from repro.network.kernel_circuit import run_hotspot
    from repro.network.multistage import MultistageNetwork
    from repro.network.netbackoff import ALL_STRATEGIES

    network = MultistageNetwork(
        ports, hold_time=hold, backoff=ALL_STRATEGIES[policy_index]()
    )
    states = []
    for index in range(2):
        workload = HotspotWorkload(
            ports, fraction, think_time=think, seed=seed + index
        )
        if kernel:
            result = run_hotspot(network, workload, horizon)
            if result is None:
                return "the kernel handed the run back to the scalar loop"
        else:
            with backend_context("python"):
                result = network.run(workload, horizon)
        moments = [
            (stats.count, stats._mean, stats._m2, stats.minimum, stats.maximum)
            for stats in (result.latency, result.attempts_per_message)
        ]
        states.append(
            (
                result.completed,
                result.collisions,
                result.attempts,
                moments,
                list(result.collision_depths._counts.items()),
                list(network._busy_until),
                list(network._dest_pending.items()),
                workload._rng.bit_generator.state,
            )
        )
    return states


@differential("network-kernel-parity")
def check_network_kernel_parity(ctx: CheckContext) -> int:
    """Scalar Omega circuit loop vs the numpy circuit kernel.

    Randomized (ports, hot fraction, think, hold, horizon, policy,
    seed) hot-spot cases run twice in a row on one network each way and
    must agree on every result field and running-statistic moment, the
    collision-depth histogram in first-seen order, the link and pending
    state left behind, and the workload's stream (the equivalence
    contract of docs/vectorization.md).
    """
    from repro.network.netbackoff import ALL_STRATEGIES

    rng = ctx.rng("network-kernel-parity")
    cases = 0
    for __ in range(ctx.budget.cases * 2):
        ports = 1 << int(rng.integers(2, 11))
        args = (
            ports,
            float(rng.choice([0.0, 0.05, 0.25, 1.0])),
            int(rng.integers(0, 9)),
            int(rng.integers(1, 9)),
            int(rng.integers(1, 201 if ports <= 64 else 41)),
            int(rng.integers(0, len(ALL_STRATEGIES))),
            int(rng.integers(0, 2**32)),
        )
        scalar = network_kernel_case(*args, kernel=False)
        kernel = network_kernel_case(*args, kernel=True)
        if scalar != kernel:
            raise CheckFailure(
                "the circuit kernel disagrees with the scalar loop at "
                "(ports, fraction, think, hold, horizon, policy, seed) = "
                f"{args}",
                repro=(
                    'PYTHONPATH=src python -c "'
                    "from repro.check.oracles import network_kernel_case as c; "
                    f"a = {args}; "
                    "print(c(*a, kernel=False) == c(*a, kernel=True))"
                    '"'
                ),
            )
        cases += 1
    return cases
