"""Tests for the repro.check verification subsystem.

Covers the budget/report plumbing, the schema-derived strategy
construction for every registered experiment, the runner's artifact
output, and — the critical property — that a deliberately broken
traffic counter is caught by the invariants suite with a usable
single-line repro command.
"""

import json
import os
import subprocess

import pytest

from repro.check import (
    BUDGETS,
    CheckContext,
    CheckFailure,
    INVARIANT_CHECKS,
    SUITES,
    kwargs_strategy,
    resolve_budget,
    run_checks,
    run_registered_checks,
    run_repro_command,
    sample_kwargs,
    strategy_for_domain,
)
from repro.registry import UnknownExperimentError, all_specs, get_spec
from repro.sim.rng import spawn_stream


class TestBudgets:
    def test_named_profiles(self):
        for name in ("small", "default", "large"):
            budget = resolve_budget(name)
            assert budget.name == name
            assert budget is BUDGETS[name]
        assert BUDGETS["small"].cases < BUDGETS["large"].cases

    def test_integer_budget(self):
        budget = resolve_budget(3)
        assert budget.cases == 3
        assert budget.examples == 3
        assert budget.repetitions >= 8

    def test_budget_passthrough(self):
        assert resolve_budget(BUDGETS["small"]) is BUDGETS["small"]

    def test_unknown_budget_rejected(self):
        with pytest.raises(ValueError, match="unknown budget"):
            resolve_budget("huge")
        with pytest.raises(ValueError, match=">= 1"):
            resolve_budget(0)


class TestContext:
    def test_named_streams_are_independent_and_stable(self):
        ctx = CheckContext(seed=7, budget=BUDGETS["small"])
        first = ctx.rng("alpha").integers(0, 2**31)
        again = ctx.rng("alpha").integers(0, 2**31)
        other = ctx.rng("beta").integers(0, 2**31)
        assert first == again
        assert first != other

    def test_suite_repro_is_a_single_line(self):
        ctx = CheckContext(seed=3, budget=BUDGETS["small"])
        repro = ctx.suite_repro("invariants")
        assert "\n" not in repro
        assert "--suite invariants" in repro
        assert "--seed 3" in repro
        assert "--budget small" in repro


class TestSchemaStrategies:
    """Every registered experiment derives strategies from its schema."""

    def test_every_spec_builds_a_strategy(self):
        specs = all_specs()
        assert len(specs) >= 27
        for spec in specs:
            kwargs_strategy(spec)  # must not raise

    def test_no_spec_falls_back_to_const_defaults(self):
        # A const fallback means fuzzing would only ever test the
        # production default — every parameter must have a real domain
        # (name-keyed table or per-spec override).
        for spec in all_specs():
            for param in spec.params:
                domain = param.fuzz_domain()
                assert domain["type"] != "const", (
                    f"{spec.id}.{param.name} has no fuzz domain"
                )

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.id)
    def test_sampled_kwargs_are_complete_and_parseable(self, spec):
        rng = spawn_stream(0, f"test-sample:{spec.id}")
        kwargs = sample_kwargs(spec, rng)
        assert set(kwargs) == set(spec.param_names())
        # Round-trip through the CLI formatting the repro command uses.
        for name, value in kwargs.items():
            text = spec.get_param(name).format(value)
            assert spec.get_param(name).parse(text) == value

    def test_unknown_domain_type_rejected(self):
        with pytest.raises(ValueError, match="unknown fuzz domain"):
            strategy_for_domain({"type": "mystery"})

    def test_repro_command_is_one_line_and_ordered(self):
        spec = get_spec("figure5")
        rng = spawn_stream(1, "test-repro")
        kwargs = sample_kwargs(spec, rng)
        command = run_repro_command("figure5", kwargs, spec)
        assert command.startswith("PYTHONPATH=src python -m repro run figure5")
        assert "\n" not in command
        for name in kwargs:
            assert f"-p {name}=" in command


class TestRunRegisteredChecks:
    def _ctx(self):
        return CheckContext(seed=0, budget=BUDGETS["small"])

    def test_failure_keeps_the_run_alive(self):
        def passing(ctx):
            return 2

        def failing(ctx):
            raise CheckFailure("broken thing", repro="echo repro-me")

        outcomes = run_registered_checks(
            "invariants", {"b-fail": failing, "a-pass": passing}, self._ctx()
        )
        assert [o.check for o in outcomes] == ["a-pass", "b-fail"]
        assert outcomes[0].passed and outcomes[0].cases == 2
        assert not outcomes[1].passed
        assert outcomes[1].detail == "broken thing"
        assert outcomes[1].repro == "echo repro-me"

    def test_crash_becomes_failed_outcome_with_suite_repro(self):
        def crashing(ctx):
            raise RuntimeError("boom")

        outcomes = run_registered_checks(
            "differential", {"crash": crashing}, self._ctx()
        )
        assert not outcomes[0].passed
        assert "check crashed" in outcomes[0].detail
        assert "boom" in outcomes[0].detail
        assert "--suite differential" in outcomes[0].repro

    def test_failure_without_repro_gets_the_suite_repro(self):
        def failing(ctx):
            raise CheckFailure("no repro attached")

        outcomes = run_registered_checks(
            "invariants", {"f": failing}, self._ctx()
        )
        assert "--suite invariants" in outcomes[0].repro


class TestNetworkKernelParity:
    def _run(self):
        from repro.check.oracles import DIFFERENTIAL_CHECKS

        name = "network-kernel-parity"
        return run_registered_checks(
            "differential",
            {name: DIFFERENTIAL_CHECKS[name]},
            CheckContext(seed=0, budget=BUDGETS["small"]),
        )[0]

    def test_passes_on_the_shipped_kernel(self):
        outcome = self._run()
        assert outcome.passed, outcome.detail
        assert outcome.cases == 2 * BUDGETS["small"].cases

    def test_broken_kernel_is_caught_with_a_one_line_repro(self, monkeypatch):
        """A kernel that grants every circuit whose links were free at
        the step's start, ignoring claims made earlier in the same step,
        must be caught; the repro reruns the case in a fresh process."""
        import numpy as np

        from repro.network import kernel_circuit

        def greedy_claim(links, free, first, owner):
            winners = np.flatnonzero(free)
            owner[links[winners]] = winners[:, None]
            return free.copy()

        monkeypatch.setattr(kernel_circuit, "_claim", greedy_claim)
        outcome = self._run()
        assert not outcome.passed
        assert "disagrees with the scalar loop" in outcome.detail
        assert "\n" not in outcome.repro
        assert outcome.repro.startswith("PYTHONPATH=src python -c ")
        # The command reruns the case in a fresh, unpatched process.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        rerun = subprocess.run(
            outcome.repro, shell=True, cwd=root, capture_output=True, text=True
        )
        assert rerun.stdout.strip() == "True", rerun.stderr


class TestInvariantSuite:
    def test_invariants_pass_at_small_budget(self):
        report = run_checks(
            suites=["invariants"], budget="small", seed=0, out_dir=None
        )
        assert report.ok, report.render()
        assert {o.check for o in report.outcomes} == set(INVARIANT_CHECKS)
        assert all(o.cases > 0 for o in report.outcomes)

    def test_broken_traffic_counter_is_caught(self, monkeypatch):
        """The acceptance criterion: a module that under-counts retried
        accesses must fail the episode-traffic conservation law, and
        the failure must carry a single-line repro command."""
        from repro.network.module import MemoryModule

        real_request = MemoryModule.request

        def lossy_request(self, ready_time):
            grant, cost = real_request(self, ready_time)
            if cost > 1:  # drop one access per contended grant
                self.total_accesses -= 1
            return grant, cost

        monkeypatch.setattr(MemoryModule, "request", lossy_request)
        report = run_checks(
            suites=["invariants"], budget="small", seed=0, out_dir=None
        )
        assert not report.ok
        failed = {o.check for o in report.failures}
        assert "episode-traffic" in failed
        traffic = next(
            o for o in report.failures if o.check == "episode-traffic"
        )
        assert "traffic not conserved" in traffic.detail
        assert "\n" not in traffic.repro
        assert traffic.repro.startswith("PYTHONPATH=src python -m repro check")

    def test_double_grant_is_caught(self, monkeypatch):
        from repro.network.module import MemoryModule

        real_request = MemoryModule.request

        def eager_request(self, ready_time):
            grant, cost = real_request(self, ready_time)
            self.next_free = grant  # allow a second grant in this cycle
            return grant, cost

        monkeypatch.setattr(MemoryModule, "request", eager_request)
        report = run_checks(
            suites=["invariants"], budget="small", seed=0, out_dir=None
        )
        assert not report.ok
        assert "module-single-grant" in {o.check for o in report.failures}


    def test_half_claimed_circuit_is_caught(self, monkeypatch):
        """A circuit that claims only its first-stage link lets two
        circuits hold a deeper link at once."""
        from repro.network.multistage import MultistageNetwork

        real_path = MultistageNetwork._flat_path
        monkeypatch.setattr(
            MultistageNetwork,
            "_flat_path",
            lambda self, source, dest: real_path(self, source, dest)[:1],
        )
        report = run_checks(
            suites=["invariants"], budget="small", seed=0, out_dir=None
        )
        failed = {o.check: o for o in report.failures}
        assert set(failed) == {"network-link-exclusivity"}
        assert "granted to" in failed["network-link-exclusivity"].detail

    def test_overfull_switch_queue_is_caught(self, monkeypatch):
        from repro.network.packet import PacketSwitchedNetwork

        real_init = PacketSwitchedNetwork.__init__

        def roomy_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            self.queue_capacity += 1

        monkeypatch.setattr(PacketSwitchedNetwork, "__init__", roomy_init)
        report = run_checks(
            suites=["invariants"], budget="small", seed=0, out_dir=None
        )
        failed = {o.check: o for o in report.failures}
        assert set(failed) == {"packet-conservation"}
        assert "capacity" in failed["packet-conservation"].detail


    def test_double_fetch_and_add_grant_is_caught(self, monkeypatch):
        """A scheduler that forgets its fetch&add grants lets two
        processors claim one synchronization word in the same cycle."""
        from repro.trace.scheduler import PostMortemScheduler

        class Forgetful(dict):
            def get(self, key, default=None):
                return default

        real_init = PostMortemScheduler.__init__

        def forgetful_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            self._rmw_last_grant = Forgetful()

        monkeypatch.setattr(PostMortemScheduler, "__init__", forgetful_init)
        report = run_checks(
            suites=["invariants"], budget="small", seed=0, out_dir=None
        )
        failed = {o.check: o for o in report.failures}
        assert set(failed) == {"trace-round-robin"}
        assert "two fetch&adds" in failed["trace-round-robin"].detail

    def test_early_lock_release_is_caught(self, monkeypatch):
        """A resource simulator that ends every hold after one cycle lets
        the next holder in while the configured hold is still running."""
        from repro.barrier.resource import ResourceSimulator

        real_init = ResourceSimulator.__init__

        def short_hold_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            self.hold_time = 1

        monkeypatch.setattr(ResourceSimulator, "__init__", short_hold_init)
        report = run_checks(
            suites=["invariants"], budget="small", seed=0, out_dir=None
        )
        failed = {o.check: o for o in report.failures}
        assert set(failed) == {"resource-lock-exclusivity"}
        outcome = failed["resource-lock-exclusivity"]
        assert "two holds overlapped" in outcome.detail
        assert "\n" not in outcome.repro
        assert outcome.repro.startswith("PYTHONPATH=src python -m repro check")

    def test_forgotten_sleeper_is_caught(self, monkeypatch):
        """A queueing result that loses count of one sleeper no longer
        accounts for its enqueue and wake-up accesses."""
        from repro.barrier.queueing import QueueingBarrierSimulator

        real_run_once = QueueingBarrierSimulator.run_once

        def forgetful_run_once(self, rng):
            result = real_run_once(self, rng)
            if result.queued_processes:
                result.queued_processes -= 1
            return result

        monkeypatch.setattr(
            QueueingBarrierSimulator, "run_once", forgetful_run_once
        )
        report = run_checks(
            suites=["invariants"], budget="small", seed=0, out_dir=None
        )
        failed = {o.check: o for o in report.failures}
        assert set(failed) == {"queueing-access-conservation"}
        outcome = failed["queueing-access-conservation"]
        assert "queueing accesses not conserved" in outcome.detail
        assert "\n" not in outcome.repro
        assert outcome.repro.startswith("PYTHONPATH=src python -m repro check")


class TestRunner:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_checks(suites=["vibes"], out_dir=None)

    def test_unknown_id_rejected_with_suggestion(self):
        with pytest.raises(UnknownExperimentError, match="did you mean"):
            run_checks(suites=["invariants"], ids=["figure55"], out_dir=None)

    def test_report_and_manifest_written(self, tmp_path):
        out = tmp_path / "checks"
        report = run_checks(
            suites=["invariants"], budget="small", seed=5, out_dir=str(out)
        )
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk == report.as_dict()
        assert on_disk["ok"] is True
        assert on_disk["seed"] == 5
        assert on_disk["checks_run"] == len(INVARIANT_CHECKS)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment_id"] == "check"
        assert manifest["config"]["suites"] == ["invariants"]
        assert report.manifest_digest
        assert manifest["counters"]["check.passed"] == len(INVARIANT_CHECKS)

    def test_suite_order_is_canonical(self):
        report = run_checks(
            suites=["differential", "invariants"], budget="small", seed=0,
            out_dir=None,
        )
        suites_seen = []
        for outcome in report.outcomes:
            if outcome.suite not in suites_seen:
                suites_seen.append(outcome.suite)
        assert suites_seen == [s for s in SUITES if s in suites_seen]
        assert suites_seen == ["invariants", "differential"]

    def test_fuzz_suite_covers_requested_ids(self):
        report = run_checks(
            suites=["fuzz"], budget="small", seed=0,
            ids=["figure4", "table1"], out_dir=None,
        )
        assert report.ok, report.render()
        assert {o.check for o in report.outcomes} == {"figure4", "table1"}

    def test_render_mentions_failures_with_repro(self):
        from repro.check.report import CheckOutcome, CheckReport

        report = CheckReport(seed=0, budget="small", suites=["invariants"])
        report.outcomes.append(
            CheckOutcome(
                suite="invariants", check="x", passed=False,
                detail="first line\nsecond line", repro="echo hi",
            )
        )
        text = report.render()
        assert "FAIL  invariants/x" in text
        assert "second line" in text
        assert "repro: echo hi" in text


class TestFuzzShrinking:
    def test_fuzzer_shrinks_to_a_minimal_config(self, monkeypatch):
        """A seeded failure must come back as shrunk kwargs plus error."""
        import repro.registry as registry
        from repro.check.fuzz import fuzz_experiment
        from repro.registry.result import ExperimentResult
        from repro.registry.spec import ExperimentSpec, Param

        spec = ExperimentSpec(
            id="_fuzz_shrink_probe",
            title="probe",
            section="test",
            summary="test-only spec, never registered",
            params=(
                Param("knob", "int", 0, fuzz={"type": "int", "lo": 0,
                                              "hi": 100}),
                Param("seed", "int", 0),
            ),
            run_point=lambda knob, seed: {"knob": knob},
            aggregate=lambda points, params: points,
        )

        def fake_run(experiment_id, **kwargs):
            if kwargs["knob"] > 3:
                raise ValueError(f"knob too hot: {kwargs['knob']}")
            return ExperimentResult(
                experiment_id, "probe", "ok", {"knob": kwargs["knob"]}
            )

        monkeypatch.setattr(registry, "run", fake_run)
        cases, failure = fuzz_experiment(spec, root_seed=0, max_examples=30)
        assert failure is not None
        shrunk, error = failure
        assert isinstance(error, ValueError)
        # hypothesis shrinks the int domain to the boundary.
        assert shrunk["knob"] == 4
        command = run_repro_command(spec.id, shrunk, spec)
        assert "-p knob=4" in command
