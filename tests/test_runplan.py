"""RunPlan: golden parity through the single execute() spine.

The acceptance bar for the dispatch-path convergence: every
pre-refactor registry digest (``tests/goldens/registry_parity.json``)
must come out of ``execute(RunPlan(...))`` byte-identical, the faults
port must produce the same resilience records as calling
``run_experiment_resilient`` directly, and one plan must digest
identically serial / parallel / cache-warmed.
"""

import dataclasses

import pytest

from repro.exec.context import ExecConfig, get_exec_config
from repro.exec.plan import (
    FaultOptions,
    MAX_SEED,
    RunPlan,
    execute,
    resolve_exec_config,
    summary_digest,
    validate_seed,
)
from repro.registry import ParameterError, UnknownExperimentError
from tests.test_experiments import FAST_KWARGS
from tests.test_registry_parity import GOLDENS, data_digest, text_digest


class TestGoldenParity:
    """The RunPlan port is digest-transparent for every experiment."""

    @pytest.mark.parametrize("experiment_id", sorted(GOLDENS))
    def test_execute_matches_pre_refactor_golden(self, experiment_id):
        plan = RunPlan(
            experiment_id=experiment_id, params=FAST_KWARGS[experiment_id]
        )
        outcome = execute(plan)
        assert outcome.ok
        assert (
            data_digest(outcome.result.data)
            == GOLDENS[experiment_id]["data_sha256"]
        )
        assert (
            text_digest(outcome.result)
            == GOLDENS[experiment_id]["text_sha256"]
        )

    def test_jobs2_plan_matches_golden(self):
        plan = RunPlan(
            experiment_id="figure5",
            params=FAST_KWARGS["figure5"],
            exec_config=ExecConfig(jobs=2, force_engine=True),
        )
        outcome = execute(plan)
        assert (
            data_digest(outcome.result.data) == GOLDENS["figure5"]["data_sha256"]
        )

    def test_serial_jobs2_warm_cache_digests_identical(self, tmp_path):
        base = RunPlan(
            experiment_id="determinism",
            params={"repetitions": 3, "points": ((2, 0), (4, 0)), "base": 2},
            seed=0,
        )
        serial = execute(base)
        cached = ExecConfig(
            jobs=2, cache=True, cache_dir=str(tmp_path), force_engine=True
        )
        cold = execute(base.with_exec(cached))
        warm = execute(base.with_exec(cached))
        assert serial.digest == cold.digest == warm.digest
        assert warm.stats.get("cache_hits", 0) > 0


class TestValidation:
    def test_unknown_experiment(self):
        with pytest.raises(UnknownExperimentError):
            RunPlan(experiment_id="figure99").validate()

    def test_unknown_parameter(self):
        with pytest.raises(ParameterError):
            RunPlan(experiment_id="figure5", params={"bogus": 1}).validate()

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            RunPlan(experiment_id="figure5", seed=MAX_SEED).validate()

    def test_bad_backend(self):
        with pytest.raises(ValueError):
            RunPlan(experiment_id="figure5", backend="fortran").validate()

    def test_bad_fault_plan(self):
        with pytest.raises(ValueError):
            RunPlan(
                experiment_id="figure5", fault_plan="meteor-strike"
            ).validate()

    def test_validate_seed_bounds(self):
        assert validate_seed(0) == 0
        assert validate_seed(MAX_SEED - 1) == MAX_SEED - 1
        with pytest.raises(ValueError):
            validate_seed(-1)
        with pytest.raises(ValueError):
            validate_seed("nope")


class TestSeedSemantics:
    """Plain runs inject --seed as a param when declared; fault runs
    pass it to the fault schedules instead (the historical CLI split)."""

    def test_seed_injected_when_declared(self):
        plan = RunPlan(
            experiment_id="figure5", params={"n_values": (2,)}, seed=7
        )
        assert plan.overrides()["seed"] == 7

    def test_explicit_param_wins(self):
        plan = RunPlan(
            experiment_id="figure5", params={"seed": 3}, seed=7
        )
        assert plan.overrides()["seed"] == 3

    def test_seed_not_injected_under_fault_plan(self):
        plan = RunPlan(experiment_id="figure5", seed=7, fault_plan="none")
        assert "seed" not in plan.overrides()

    def test_seed_not_injected_when_undeclared(self):
        plan = RunPlan(experiment_id="figure1", seed=7)
        assert "seed" not in plan.overrides()


class TestFaultPortParity:
    """run_plan_resilient reproduces run_experiment_resilient exactly."""

    def test_plan_and_direct_runner_digest_identically(self, tmp_path):
        from repro.faults.runner import run_experiment_resilient

        direct = run_experiment_resilient(
            "figure5",
            plan_spec="stragglers:probability=0.3",
            seed=1,
            checkpoint_dir=str(tmp_path / "direct"),
            n_values=(2, 4),
            repetitions=1,
        )
        plan = RunPlan(
            experiment_id="figure5",
            params={"n_values": (2, 4), "repetitions": 1},
            seed=1,
            fault_plan="stragglers:probability=0.3",
            faults=FaultOptions(checkpoint_dir=str(tmp_path / "plan")),
        )
        outcome = execute(plan)
        assert outcome.summary is not None and outcome.result is None
        assert outcome.digest == summary_digest(direct)
        assert {k: r.status for k, r in outcome.summary.records.items()} == {
            k: r.status for k, r in direct.records.items()
        }

    def test_none_plan_still_routes_resiliently(self, tmp_path):
        plan = RunPlan(
            experiment_id="figure5",
            params={"n_values": (2,), "repetitions": 1},
            fault_plan="none",
            faults=FaultOptions(checkpoint_dir=str(tmp_path)),
        )
        outcome = execute(plan)
        assert outcome.summary is not None
        assert outcome.ok and not outcome.degraded


    def test_seed_param_seeds_experiment_and_plan_seed_seeds_faults(
        self, tmp_path
    ):
        """A fault plan whose params also set ``seed``: the param seeds
        the experiment, the plan seed seeds the fault schedules."""

        def digest(name, param_seed, plan_seed):
            params = {"num_ports": 8, "hot_fractions": [0.1], "horizon": 200}
            if param_seed is not None:
                params["seed"] = param_seed
            outcome = execute(
                RunPlan(
                    experiment_id="netbackoff",
                    params=params,
                    seed=plan_seed,
                    fault_plan="lossy-net",
                    faults=FaultOptions(checkpoint_dir=str(tmp_path / name)),
                )
            )
            assert outcome.ok
            return outcome.digest

        base = digest("base", 5, 3)
        assert digest("again", 5, 3) == base
        assert digest("param", 6, 3) != base
        assert digest("plan", 5, 4) != base
        # seed=0 is the spec default, so naming it changes nothing.
        assert digest("default", 0, 3) == digest("implicit", None, 3)

    def test_seed_param_reaches_the_direct_runner(self, tmp_path):
        from repro.faults.runner import run_experiment_resilient

        plan = RunPlan(
            experiment_id="netbackoff",
            params={"num_ports": 8, "hot_fractions": [0.1], "horizon": 200,
                    "seed": 5},
            seed=3,
            fault_plan="lossy-net",
            faults=FaultOptions(checkpoint_dir=str(tmp_path / "plan")),
        )
        direct = run_experiment_resilient(
            "netbackoff",
            plan_spec="lossy-net",
            seed=3,
            checkpoint_dir=str(tmp_path / "direct"),
            params={"seed": 5},
            num_ports=8,
            hot_fractions=[0.1],
            horizon=200,
        )
        assert execute(plan).digest == summary_digest(direct)


class TestContexts:
    def test_plan_is_frozen_and_with_exec_copies(self):
        plan = RunPlan(experiment_id="figure5")
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.experiment_id = "figure4"
        copy = plan.with_exec(ExecConfig(jobs=2, force_engine=True))
        assert plan.exec_config is None
        assert copy.exec_config.jobs == 2

    def test_contexts_installs_exec_config(self):
        config = ExecConfig(jobs=2, force_engine=True)
        plan = RunPlan(experiment_id="figure5", exec_config=config)
        with plan.contexts():
            assert get_exec_config() is config
        assert get_exec_config() is not config

    def test_contexts_leaves_ambient_backend_alone(self):
        # A plan without a backend must not reset an ambient choice.
        from repro.barrier.backend import backend_context, get_default_backend

        plan = RunPlan(experiment_id="figure5")
        with backend_context("python"):
            with plan.contexts():
                assert get_default_backend() == "python"


class TestResolveExecConfig:
    def test_no_overrides_returns_ambient(self):
        assert resolve_exec_config() is get_exec_config()

    def test_any_override_forces_engine(self):
        config = resolve_exec_config(jobs=1)
        assert config.force_engine and config.jobs == 1

    def test_sweep_reexport_still_importable(self):
        # barrier.sweep re-exports the helper it used to own.
        from repro.barrier.sweep import resolve_exec_config as reexported

        assert reexported is resolve_exec_config
