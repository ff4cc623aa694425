"""Tests for the extension features: randomized backoff, tree barriers
in the scheduler, trace persistence, validation, CLI."""

import numpy as np
import pytest

from repro.barrier.simulator import simulate_barrier
from repro.barrier.validation import validate_uniform_model
from repro.core.backoff import (
    ExponentialFlagBackoff,
    RandomizedExponentialBackoff,
)
from repro.memory.coherence import CoherenceConfig, CoherenceSimulator
from repro.trace.apps import build_app
from repro.trace.io import load_trace, save_trace
from repro.trace.program import AddressSpace, ParallelLoop, Program
from repro.trace.record import Op
from repro.trace.scheduler import PostMortemScheduler


class TestRandomizedBackoff:
    def test_wait_within_window(self):
        policy = RandomizedExponentialBackoff(base=2, seed=1)
        for polls in range(1, 12):
            wait = policy.flag_wait(polls)
            assert 1 <= wait <= 2**polls

    def test_reproducible_given_seed(self):
        a = RandomizedExponentialBackoff(base=2, seed=5)
        b = RandomizedExponentialBackoff(base=2, seed=5)
        assert [a.flag_wait(k) for k in range(1, 10)] == [
            b.flag_wait(k) for k in range(1, 10)
        ]

    def test_different_seeds_differ(self):
        a = RandomizedExponentialBackoff(base=2, seed=1)
        b = RandomizedExponentialBackoff(base=2, seed=2)
        assert [a.flag_wait(k) for k in range(1, 12)] != [
            b.flag_wait(k) for k in range(1, 12)
        ]

    def test_reseed(self):
        policy = RandomizedExponentialBackoff(base=2, seed=1)
        first = [policy.flag_wait(k) for k in range(1, 8)]
        policy.reseed(1)
        second = [policy.flag_wait(k) for k in range(1, 8)]
        assert first == second

    def test_cap_bounds_window(self):
        policy = RandomizedExponentialBackoff(base=8, cap=64, seed=0)
        assert all(policy.flag_wait(20) <= 64 for __ in range(20))

    def test_includes_variable_backoff(self):
        policy = RandomizedExponentialBackoff(base=2)
        assert policy.variable_wait(1, 16) == 15

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RandomizedExponentialBackoff(base=1)
        with pytest.raises(ValueError):
            RandomizedExponentialBackoff(base=2, cap=0)
        with pytest.raises(ValueError):
            RandomizedExponentialBackoff(base=2).flag_wait(0)

    def test_deterministic_beats_randomized(self):
        # The paper's Section 4.2 determinism argument.
        det = simulate_barrier(
            64, 1000, ExponentialFlagBackoff(2), repetitions=30
        )
        rnd = simulate_barrier(
            64, 1000, RandomizedExponentialBackoff(2, seed=0), repetitions=30
        )
        assert det.mean_accesses < rnd.mean_accesses


class TestSchedulerTreeBarriers:
    def make_trace(self, style, degree=3, cpus=16):
        program = Program(
            "t",
            AddressSpace(),
            [ParallelLoop("l", 24, [(Op.READ, 0x100), (Op.WRITE, 0x110)])],
        )
        return PostMortemScheduler(
            program, cpus, barrier_style=style, tree_degree=degree
        ).run()

    def test_tree_barrier_completes(self):
        trace = self.make_trace("tree")
        assert len(trace.barriers) == 1
        assert trace.barriers[0].flag_set_cycle is not None
        assert len(trace.barriers[0].arrivals) == 16

    def test_flat_and_tree_execute_same_work(self):
        flat = self.make_trace("flat")
        tree = self.make_trace("tree")
        count = lambda t: sum(1 for r in t if not r.is_sync)
        assert count(flat) == count(tree) == 48  # 24 iterations x 2 refs

    def test_tree_uses_more_sync_addresses(self):
        flat = self.make_trace("flat")
        tree = self.make_trace("tree", degree=3)
        addresses = lambda t: {r.address for r in t if r.is_sync}
        assert len(addresses(tree)) > len(addresses(flat))

    def test_tree_limits_flag_sharing(self):
        # No flag address may be polled by more than (degree - 1)
        # distinct processors in a tree barrier.
        degree = 3
        trace = self.make_trace("tree", degree=degree)
        pollers = {}
        for record in trace:
            if record.is_sync and record.op is Op.READ:
                pollers.setdefault(record.address, set()).add(record.cpu)
        assert pollers
        for address, cpus in pollers.items():
            assert len(cpus) <= degree - 1, hex(address)

    def test_tree_reduces_sync_invalidations_when_degree_below_pointers(self):
        program = build_app("SIMPLE", scale=0.15)
        flat = PostMortemScheduler(program, 32).run()
        tree = PostMortemScheduler(
            build_app("SIMPLE", scale=0.15), 32, barrier_style="tree", tree_degree=3
        ).run()

        def sync_inval(trace):
            sim = CoherenceSimulator(
                CoherenceConfig(num_cpus=32, num_pointers=4)
            )
            return sim.run(trace).sync_invalidation_pct

        assert sync_inval(tree) < sync_inval(flat) / 3

    def test_invalid_style(self):
        program = Program("t", AddressSpace(), [])
        with pytest.raises(ValueError):
            PostMortemScheduler(program, 4, barrier_style="ring")

    def test_invalid_degree(self):
        program = Program("t", AddressSpace(), [])
        with pytest.raises(ValueError):
            PostMortemScheduler(program, 4, barrier_style="tree", tree_degree=1)

    def test_single_cpu_tree(self):
        trace = self.make_trace("tree", cpus=1)
        assert trace.barriers[0].flag_set_cycle is not None


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        trace = PostMortemScheduler(build_app("FFT", scale=0.15), 8).run()
        path = tmp_path / "fft.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        assert loaded.num_cpus == trace.num_cpus
        assert loaded.program_name == trace.program_name
        assert loaded.cycles == trace.cycles
        assert loaded.sync_refs == trace.sync_refs
        assert list(loaded) == list(trace)

    def test_barriers_preserved(self, tmp_path):
        trace = PostMortemScheduler(build_app("FFT", scale=0.15), 8).run()
        path = tmp_path / "fft.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded.barriers) == len(trace.barriers)
        assert loaded.mean_interval_a() == trace.mean_interval_a()
        assert loaded.mean_interval_e() == trace.mean_interval_e()
        assert loaded.arrival_offsets() == trace.arrival_offsets()

    def test_loaded_trace_drives_coherence(self, tmp_path):
        trace = PostMortemScheduler(build_app("FFT", scale=0.15), 8).run()
        path = tmp_path / "fft.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        original = CoherenceSimulator(
            CoherenceConfig(num_cpus=8, num_pointers=2)
        ).run(trace)
        replayed = CoherenceSimulator(
            CoherenceConfig(num_cpus=8, num_pointers=2)
        ).run(loaded)
        assert replayed.total_traffic == original.total_traffic
        assert replayed.total_invalidations == original.total_invalidations

    def test_loaded_trace_equals_scheduled_one(self, tmp_path):
        """Same typed columns, sync_refs, barriers and coherence stats."""
        trace = PostMortemScheduler(
            build_app("WEATHER", scale=0.1), 8, barrier_style="tree",
            tree_degree=3,
        ).run()
        path = tmp_path / "weather.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        for saved, restored in zip(trace.raw_columns(), loaded.raw_columns()):
            assert type(restored) is type(saved)
            assert restored.typecode == saved.typecode
            assert restored == saved
        assert loaded.sync_refs == trace.sync_refs
        assert loaded.barriers == trace.barriers

        def stats_of(replayed):
            stats = CoherenceSimulator(
                CoherenceConfig(num_cpus=8, num_pointers=2, cache_bytes=1024)
            ).run(replayed)
            fields = dict(vars(stats))
            histogram = fields.pop("write_invalidation_histogram")
            return fields, histogram.items()

        assert stats_of(loaded) == stats_of(trace)

    def test_version_check(self, tmp_path):
        import json

        import numpy as np

        path = tmp_path / "bad.npz"
        meta = {"version": 99, "num_cpus": 1, "program_name": "x", "cycles": 0,
                "barriers": []}
        np.savez_compressed(
            path,
            cpus=np.asarray([], dtype=np.int32),
            ops=np.asarray([], dtype=np.int8),
            addresses=np.asarray([], dtype=np.int64),
            sync=np.asarray([], dtype=np.bool_),
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
        with pytest.raises(ValueError):
            load_trace(path)


class TestValidation:
    def test_validation_runs(self):
        trace = PostMortemScheduler(build_app("WEATHER", scale=0.2), 8).run()
        result = validate_uniform_model(trace, repetitions=10)
        assert result.uniform.mean_accesses > 0
        assert result.empirical.mean_accesses > 0
        assert result.access_error_pct >= 0.0

    def test_agreement_when_arrivals_uniformish(self):
        trace = PostMortemScheduler(build_app("WEATHER", scale=0.2), 8).run()
        result = validate_uniform_model(trace, repetitions=20)
        assert 0.3 < result.access_ratio < 3.0

    def test_policy_forwarded(self):
        trace = PostMortemScheduler(build_app("WEATHER", scale=0.2), 8).run()
        result = validate_uniform_model(
            trace, policy=ExponentialFlagBackoff(2), repetitions=10
        )
        assert result.uniform.policy_name == "exponential-flag"

    def test_requires_barriers(self):
        from repro.trace.program import ReplicateSection
        from repro.trace.program import Program as P

        program = P("r", AddressSpace(),
                    [ReplicateSection("r", lambda cpu: [(Op.READ, 0)])])
        trace = PostMortemScheduler(program, 4).run()
        with pytest.raises(ValueError):
            validate_uniform_model(trace)


class TestCLI:
    def run_cli(self, *argv):
        from repro.__main__ import main

        return main(list(argv))

    def test_list(self, capsys):
        assert self.run_cli("list") == 0
        out = capsys.readouterr().out
        assert "figure5" in out
        assert "determinism" in out

    def test_barrier_command(self, capsys):
        code = self.run_cli(
            "barrier", "--n", "8", "--interval-a", "100",
            "--policy", "exponential", "--repetitions", "5",
        )
        assert code == 0
        assert "accesses/process" in capsys.readouterr().out

    def test_trace_command(self, capsys, tmp_path):
        path = str(tmp_path / "t.npz")
        code = self.run_cli(
            "trace", "--app", "FFT", "--cpus", "8", "--scale", "0.15",
            "--save", path,
        )
        assert code == 0
        assert "sync fraction" in capsys.readouterr().out
        assert load_trace(path).num_cpus == 8

    def test_advise_command(self, capsys):
        code = self.run_cli(
            "advise", "--app", "FFT", "--cpus", "8", "--scale", "0.15",
            "--no-simulate",
        )
        assert code == 0
        assert "analytic" in capsys.readouterr().out

    def test_experiment_command(self, capsys):
        code = self.run_cli(
            "experiment", "figure5", "--repetitions", "2",
        )
        assert code == 0
        assert "Figure 5" in capsys.readouterr().out
