"""Tests for the synthetic application builders."""

import pytest

from repro.trace.apps import APP_BUILDERS, build_app, build_fft, build_simple, build_weather
from repro.trace.program import ParallelLoop, ReplicateSection, SerialSection
from repro.trace.scheduler import PostMortemScheduler


class TestBuildAppScale:
    @pytest.mark.parametrize("app", ["FFT", "SIMPLE", "WEATHER"])
    @pytest.mark.parametrize("scale", [0, -1, -0.5])
    def test_non_positive_scale_rejected(self, app, scale):
        with pytest.raises(ValueError, match="scale must be positive"):
            build_app(app, scale=scale)

    def test_unknown_name_checked_before_scale(self):
        with pytest.raises(KeyError):
            build_app("LU", scale=0)


class TestFFT:
    def test_two_loops(self):
        program = build_fft(problem_size=16)
        assert len(program.sections) == 2
        assert all(isinstance(s, ParallelLoop) for s in program.sections)

    def test_loop_parallelism_equals_problem_size(self):
        program = build_fft(problem_size=16)
        assert all(s.iterations == 16 for s in program.sections)

    def test_iteration_bodies_identical_length(self):
        program = build_fft(problem_size=16)
        loop = program.sections[0]
        lengths = {len(loop.refs_for(i)) for i in range(16)}
        assert len(lengths) == 1

    def test_invalid_problem_size(self):
        with pytest.raises(ValueError):
            build_fft(problem_size=1)


class TestSimple:
    def test_twenty_loops_five_serials(self):
        program = build_simple(scale=0.2)
        loops = [s for s in program.sections if isinstance(s, ParallelLoop)]
        serials = [s for s in program.sections if isinstance(s, SerialSection)]
        replicates = [
            s for s in program.sections if isinstance(s, ReplicateSection)
        ]
        assert len(loops) == 20
        assert len(serials) == 5
        assert len(replicates) == 20

    def test_iteration_lengths_vary(self):
        program = build_simple(scale=1.0)
        loop = next(s for s in program.sections if isinstance(s, ParallelLoop))
        lengths = {len(loop.refs_for(i)) for i in range(loop.iterations)}
        assert len(lengths) > 1

    def test_deterministic_given_seed(self):
        a = build_simple(scale=0.2, seed=5)
        b = build_simple(scale=0.2, seed=5)
        loop_a = next(s for s in a.sections if isinstance(s, ParallelLoop))
        loop_b = next(s for s in b.sections if isinstance(s, ParallelLoop))
        assert loop_a.refs_for(0) == loop_b.refs_for(0)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            build_simple(scale=0)


class TestWeather:
    def test_row_and_col_loops_per_pass(self):
        program = build_weather(scale=0.25, num_passes=2)
        loops = [s for s in program.sections if isinstance(s, ParallelLoop)]
        assert len(loops) == 4

    def test_grid_extents_not_multiples_of_64(self):
        program = build_weather(scale=1.0, num_passes=1)
        loops = [s for s in program.sections if isinstance(s, ParallelLoop)]
        assert loops[0].iterations == 108
        assert loops[1].iterations == 72

    def test_invalid_passes(self):
        with pytest.raises(ValueError):
            build_weather(num_passes=0)


class TestBuildApp:
    def test_known_names(self):
        for name in APP_BUILDERS:
            assert build_app(name, scale=0.1).name == name

    def test_case_insensitive(self):
        assert build_app("fft", scale=0.1).name == "FFT"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_app("SPLASH")


class TestCalibratedStructure:
    """The structural relationships the paper's measurements rely on."""

    @pytest.fixture(scope="class")
    def traces(self):
        return {
            name: PostMortemScheduler(build_app(name, scale=0.25), 16).run()
            for name in ("FFT", "SIMPLE", "WEATHER")
        }

    def test_fft_has_lowest_sync_fraction(self, traces):
        assert traces["FFT"].sync_fraction < traces["SIMPLE"].sync_fraction
        assert traces["FFT"].sync_fraction < traces["WEATHER"].sync_fraction

    def test_fft_has_small_a_relative_to_e(self, traces):
        trace = traces["FFT"]
        assert trace.mean_interval_a() < trace.mean_interval_e() / 5

    def test_all_programs_complete(self, traces):
        for trace in traces.values():
            assert len(trace) > 0
            for barrier in trace.barriers:
                assert barrier.flag_set_cycle is not None
