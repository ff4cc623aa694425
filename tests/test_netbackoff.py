"""Tests for the five Section 8 network backoff strategies."""

import pytest

from repro.network.netbackoff import (
    ALL_STRATEGIES,
    CollisionInfo,
    CollisionInfoMemo,
    ConstantRoundTripBackoff,
    DepthProportionalBackoff,
    ExponentialRetryBackoff,
    ImmediateRetry,
    InverseDepthBackoff,
    QueueFeedbackBackoff,
)


def info(depth=1, stages=6, tries=1, round_trip=4, queue_length=0):
    return CollisionInfo(
        depth=depth,
        stages=stages,
        tries=tries,
        round_trip=round_trip,
        queue_length=queue_length,
    )


class TestImmediateRetry:
    def test_zero_delay_always(self):
        policy = ImmediateRetry()
        assert policy.delay(info(depth=1)) == 0
        assert policy.delay(info(depth=6, tries=50)) == 0


class TestDepthProportional:
    def test_scales_with_depth(self):
        policy = DepthProportionalBackoff(factor=3)
        assert policy.delay(info(depth=1)) == 3
        assert policy.delay(info(depth=4)) == 12

    def test_deeper_collision_waits_longer(self):
        policy = DepthProportionalBackoff()
        assert policy.delay(info(depth=5)) > policy.delay(info(depth=1))

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            DepthProportionalBackoff(factor=0)


class TestInverseDepth:
    def test_deeper_collision_waits_less(self):
        policy = InverseDepthBackoff()
        assert policy.delay(info(depth=5)) < policy.delay(info(depth=1))

    def test_collision_at_last_stage_minimal(self):
        policy = InverseDepthBackoff(factor=2)
        assert policy.delay(info(depth=6, stages=6)) == 2

    def test_never_negative(self):
        policy = InverseDepthBackoff()
        assert policy.delay(info(depth=10, stages=6)) >= 0


class TestConstantRoundTrip:
    def test_proportional_to_rtt(self):
        policy = ConstantRoundTripBackoff(multiple=2.0)
        assert policy.delay(info(round_trip=4)) == 8

    def test_minimum_one(self):
        policy = ConstantRoundTripBackoff(multiple=0.1)
        assert policy.delay(info(round_trip=4)) == 1

    def test_invalid_multiple(self):
        with pytest.raises(ValueError):
            ConstantRoundTripBackoff(multiple=0)


class TestExponentialRetry:
    def test_doubles_per_try(self):
        policy = ExponentialRetryBackoff(base=2, cap=10_000)
        assert policy.delay(info(tries=1)) == 2
        assert policy.delay(info(tries=2)) == 4
        assert policy.delay(info(tries=3)) == 8

    def test_cap_applies(self):
        policy = ExponentialRetryBackoff(base=2, cap=16)
        assert policy.delay(info(tries=10)) == 16

    def test_huge_tries_do_not_overflow(self):
        policy = ExponentialRetryBackoff(base=8, cap=1024)
        assert policy.delay(info(tries=10_000)) == 1024

    def test_invalid_base(self):
        with pytest.raises(ValueError):
            ExponentialRetryBackoff(base=1)


class TestQueueFeedback:
    def test_scales_with_queue(self):
        policy = QueueFeedbackBackoff(factor=2)
        assert policy.delay(info(queue_length=0)) == 0
        assert policy.delay(info(queue_length=7)) == 14


class TestCommonProperties:
    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_nonnegative_delays(self, strategy_cls):
        policy = strategy_cls()
        for depth in (1, 3, 6):
            for tries in (1, 5, 20):
                for queue in (0, 4):
                    delay = policy.delay(
                        info(depth=depth, tries=tries, queue_length=queue)
                    )
                    assert delay >= 0

    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_has_name(self, strategy_cls):
        assert strategy_cls().name


class TestCollisionInfoMemo:
    def test_equal_collisions_share_one_record(self):
        memo = CollisionInfoMemo(stages=6, round_trip=4)
        first = memo.get(2, 3, 5)
        assert first == info(depth=2, tries=3, queue_length=5)
        assert memo.get(2, 3, 5) is first
        assert memo.get(2, 3, 6) == info(depth=2, tries=3, queue_length=6)

    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(CollisionInfoMemo, "limit", 2)
        memo = CollisionInfoMemo(stages=6, round_trip=4)
        first = memo.get(1, 1, 0)
        memo.get(1, 2, 0)
        memo.get(1, 3, 0)  # full: the memo starts over
        assert len(memo._infos) == 1
        again = memo.get(1, 1, 0)
        assert again == first and again is not first
