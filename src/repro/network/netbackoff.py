"""Network-access backoff strategies (Section 8).

The paper sketches five ways a network controller can pick a backoff
interval after a collision in an unbuffered circuit-switched network:

1. proportional to the network depth the message traversed before
   colliding ("the deeper a message travels, the greater the network
   resource that it ties up");
2. *inversely* proportional to the depth traversed ("the deeper a
   message travels before colliding, the less congested the network is
   expected to be");
3. a constant proportional to the average round-trip time to memory;
4. exponential in the number of previous unsuccessful tries;
5. proportional to the memory-module queue length, using feedback in
   the style of Scott & Sohi.

Each strategy is a :class:`NetworkBackoffPolicy`; the multistage network
simulator (:mod:`repro.network.multistage`) calls
:meth:`NetworkBackoffPolicy.delay` with a :class:`CollisionInfo`
describing the failed attempt and waits the returned number of cycles
before retrying.  :meth:`NetworkBackoffPolicy.delays` is the same map
over arrays of collisions, for the circuit-network kernel
(:mod:`repro.network.kernel_circuit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np


@dataclass(frozen=True)
class CollisionInfo:
    """Everything a backoff policy may condition on after a collision.

    Attributes:
        depth: stages the message traversed before colliding (1-based;
            a collision in the first stage has depth 1).
        stages: total number of stages in the network.
        tries: unsuccessful attempts so far, including this one.
        round_trip: the network's average round-trip time in cycles.
        queue_length: occupancy of the destination module's queue at the
            time of the attempt (0 if the network does not model queues).
    """

    depth: int
    stages: int
    tries: int
    round_trip: int
    queue_length: int = 0


class CollisionInfoMemo:
    """Hands out one shared :class:`CollisionInfo` per distinct collision.

    The simulators build a collision record for every failed attempt.
    The record is frozen, so all collisions with equal fields can share
    one instance.  The memo forgets everything once it holds ``limit``
    records, which bounds its memory on large networks.
    """

    limit = 4096

    def __init__(self, stages: int, round_trip: int) -> None:
        self.stages = stages
        self.round_trip = round_trip
        self._infos: Dict[Tuple[int, int, int], CollisionInfo] = {}

    def get(self, depth: int, tries: int, queue_length: int) -> CollisionInfo:
        key = (depth, tries, queue_length)
        info = self._infos.get(key)
        if info is None:
            if len(self._infos) >= self.limit:
                self._infos.clear()
            info = self._infos[key] = CollisionInfo(
                depth=depth,
                stages=self.stages,
                tries=tries,
                round_trip=self.round_trip,
                queue_length=queue_length,
            )
        return info


def _exact_array(values) -> np.ndarray:
    """``values`` as int64, or as objects when not all are int64 ints
    (numpy would otherwise round big ints and mixed floats to float64)."""
    array = np.array(values)
    return array if array.dtype == np.int64 else np.array(values, dtype=object)


class NetworkBackoffPolicy:
    """Base class: maps a collision to a non-negative retry delay."""

    name = "abstract"

    def delay(self, info: CollisionInfo) -> int:
        raise NotImplementedError

    def delays(
        self,
        depth: np.ndarray,
        tries: np.ndarray,
        queue_length: np.ndarray,
        stages: int,
        round_trip: int,
    ) -> np.ndarray:
        """:meth:`delay` for each collision of three parallel int arrays.

        Element ``i`` is ``delay(CollisionInfo(depth[i], stages,
        tries[i], round_trip, queue_length[i]))``.  This base version
        calls :meth:`delay` once per distinct ``(depth, tries,
        queue_length)`` triple, so it assumes, as every strategy here
        does, that the delay is a function of the collision alone.  The
        built-in strategies override it with closed forms.  The result
        is int64 when every delay is an int that fits, else an object
        array of the delays themselves.
        """
        if not len(depth):
            return np.zeros(0, np.int64)
        triples, inverse = np.unique(
            np.stack((depth, tries, queue_length)), axis=1, return_inverse=True
        )
        values = [
            self.delay(CollisionInfo(d, stages, t, round_trip, q))
            for d, t, q in zip(*triples.tolist())
        ]
        return _exact_array(values)[inverse.reshape(-1)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ImmediateRetry(NetworkBackoffPolicy):
    """No backoff: resubmit on the next cycle (the baseline)."""

    name = "immediate"

    def delay(self, info: CollisionInfo) -> int:
        return 0

    def delays(self, depth, tries, queue_length, stages, round_trip):
        return np.zeros(len(depth), np.int64)


class DepthProportionalBackoff(NetworkBackoffPolicy):
    """Strategy 1: wait ``factor * depth`` cycles.

    Rationale: a message that collided deep in the network tied up many
    stage resources; delaying it longer relieves the congested path.
    """

    name = "depth-proportional"

    def __init__(self, factor: int = 2) -> None:
        if factor < 1:
            raise ValueError("factor must be >= 1")
        self.factor = factor

    def delay(self, info: CollisionInfo) -> int:
        return self.factor * info.depth

    def delays(self, depth, tries, queue_length, stages, round_trip):
        return _exact_array([self.factor * d for d in range(stages + 1)])[depth]

    def __repr__(self) -> str:
        return f"DepthProportionalBackoff(factor={self.factor})"


class InverseDepthBackoff(NetworkBackoffPolicy):
    """Strategy 2: wait ``factor * (stages - depth + 1)`` cycles.

    Rationale: surviving many stages before colliding suggests a lightly
    loaded network, so retry sooner.
    """

    name = "inverse-depth"

    def __init__(self, factor: int = 2) -> None:
        if factor < 1:
            raise ValueError("factor must be >= 1")
        self.factor = factor

    def delay(self, info: CollisionInfo) -> int:
        remaining = max(info.stages - info.depth + 1, 1)
        return self.factor * remaining

    def delays(self, depth, tries, queue_length, stages, round_trip):
        table = [self.factor * max(stages - d + 1, 1) for d in range(stages + 1)]
        return _exact_array(table)[depth]

    def __repr__(self) -> str:
        return f"InverseDepthBackoff(factor={self.factor})"


class ConstantRoundTripBackoff(NetworkBackoffPolicy):
    """Strategy 3: wait a constant multiple of the round-trip time."""

    name = "round-trip"

    def __init__(self, multiple: float = 1.0) -> None:
        if multiple <= 0:
            raise ValueError("multiple must be positive")
        self.multiple = multiple

    def delay(self, info: CollisionInfo) -> int:
        return max(int(self.multiple * info.round_trip), 1)

    def delays(self, depth, tries, queue_length, stages, round_trip):
        value = max(int(self.multiple * round_trip), 1)
        return _exact_array([value])[np.zeros(len(depth), np.intp)]

    def __repr__(self) -> str:
        return f"ConstantRoundTripBackoff(multiple={self.multiple})"


class ExponentialRetryBackoff(NetworkBackoffPolicy):
    """Strategy 4: wait ``base ** tries`` cycles, optionally capped.

    This is the classic Ethernet-style exponential backoff, made
    deterministic per the paper's argument that determinism preserves
    the serialization established by the first contention episode.
    """

    name = "exponential"

    def __init__(self, base: int = 2, cap: int = 4096) -> None:
        if base < 2:
            raise ValueError("base must be >= 2")
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.base = base
        self.cap = cap

    def delay(self, info: CollisionInfo) -> int:
        exponent = min(info.tries, 32)
        return min(self.base**exponent, self.cap)

    def delays(self, depth, tries, queue_length, stages, round_trip):
        table = [min(self.base**exponent, self.cap) for exponent in range(33)]
        return _exact_array(table)[np.minimum(tries, 32)]

    def __repr__(self) -> str:
        return f"ExponentialRetryBackoff(base={self.base}, cap={self.cap})"


class QueueFeedbackBackoff(NetworkBackoffPolicy):
    """Strategy 5: wait proportionally to the destination queue length.

    Models the Scott & Sohi feedback scheme: the memory module exports
    its queue occupancy, and processors damp their request rate when the
    queue is long.
    """

    name = "queue-feedback"

    def __init__(self, factor: int = 1) -> None:
        if factor < 1:
            raise ValueError("factor must be >= 1")
        self.factor = factor

    def delay(self, info: CollisionInfo) -> int:
        return self.factor * info.queue_length

    def delays(self, depth, tries, queue_length, stages, round_trip):
        longest = int(np.abs(queue_length).max()) if len(queue_length) else 0
        if self.factor * longest >= 1 << 62:
            # The product could leave int64: take the exact scalar path.
            return super().delays(depth, tries, queue_length, stages, round_trip)
        return self.factor * queue_length

    def __repr__(self) -> str:
        return f"QueueFeedbackBackoff(factor={self.factor})"


ALL_STRATEGIES = (
    ImmediateRetry,
    DepthProportionalBackoff,
    InverseDepthBackoff,
    ConstantRoundTripBackoff,
    ExponentialRetryBackoff,
    QueueFeedbackBackoff,
)
