"""Circuit-network kernel: a hot-spot run of the Omega network as port arrays.

:meth:`MultistageNetwork.run <repro.network.multistage.MultistageNetwork.run>`
hands a run to :func:`maybe_run` when the network has at least
``KERNEL_MIN_PORTS`` ports and neither a tracer nor a fault plan is
active; :func:`maybe_run` takes it when the workload is exactly a
:class:`~repro.network.hotspot.HotspotWorkload` and the episode backend
resolves to numpy.  Every other run stays on the scalar loop, which is
the reference semantics.

A ``HotspotWorkload`` keeps exactly one message in flight per source,
so the whole run is a few arrays over the message slots: destination,
due time, issue time, tries, attempts and a push sequence number.  The
link table is the network's flat ``stage * P + line`` ``busy_until``
list and the pending count per destination is its ``_dest_pending``
dict; both are read at the start and written back at the end, so a
reused network continues exactly as under the scalar loop.

Each distinct due time is one step:

- the slots due now, ordered by push sequence number, are the scalar
  loop's bucket in visit order;
- routes come from :func:`~repro.network.omega.omega_lines`' closed
  form, broadcast over (message, stage);
- the greedy link claims are settled in rounds: the first undecided
  user of each link is found with ``np.minimum.at``; a candidate that
  is first on all of its links wins; an undecided candidate that shares
  a link with a new winner loses;
- a loser's collision depth is its first link that was busy before the
  step or claimed by an *earlier* winner, and its queue length is the
  step-start pending count of its destination, moved by the earlier
  winners (one less for each winner's old destination, one more for
  its successor's new one);
- the ``RunningStats`` adds and each successor's destination draw stay
  scalar, in visit order, so Welford's float bits and the workload's
  stream match the scalar loop; retry delays come from the policy's
  array :meth:`~repro.network.netbackoff.NetworkBackoffPolicy.delays`.

The arrays are int64.  When a value could overflow them, or a policy
returns a delay that is not an integer, :func:`run_hotspot` rewinds the
workload's stream and returns None before it has touched the network,
and the scalar loop runs the whole run instead.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

import numpy as np

from repro.network.multistage import MultistageNetwork, NetworkRunResult
from repro.network.netbackoff import NetworkBackoffPolicy

#: Bound on horizons, hold and think times, link times, pending counts
#: and delays: sums of three of them stay inside int64.
_LIMIT = 1 << 60
#: "No message" in the per-link scratch tables.
_NONE = np.iinfo(np.int64).max


def maybe_run(
    network: MultistageNetwork, workload, horizon: int
) -> Optional[NetworkRunResult]:
    """The kernel's result for a run it takes, else None."""
    from repro.barrier.backend import resolve_backend
    from repro.network.hotspot import HotspotWorkload

    if type(workload) is not HotspotWorkload or resolve_backend() != "numpy":
        return None
    return run_hotspot(network, workload, horizon)


def _vector_delays(policy: NetworkBackoffPolicy) -> Callable[..., np.ndarray]:
    """``policy.delays``, or the base class's per-triple form when a
    subclass overrides ``delay`` below the class that defines
    ``delays`` (an inherited closed form would not match it)."""
    for klass in type(policy).__mro__:
        if "delays" in vars(klass):
            return policy.delays
        if "delay" in vars(klass):
            break
    return partial(NetworkBackoffPolicy.delays, policy)


def _first_seen(values: np.ndarray, seen: np.ndarray, order: List[int]) -> None:
    """Append the values not yet ``seen`` to ``order`` in first-seen order."""
    fresh = values[~seen[values]]
    if fresh.size:
        unique, first = np.unique(fresh, return_index=True)
        unique = unique[np.argsort(first)]
        seen[unique] = True
        order.extend(unique.tolist())


def _claim(
    links: np.ndarray, free: np.ndarray, first: np.ndarray, owner: np.ndarray
) -> np.ndarray:
    """Settle the step's greedy link claims; returns the winners' mask.

    ``links`` is (message, stage) in visit order and ``free`` marks the
    messages whose links were all free at the step's start.  Message
    ``i`` wins when no earlier winner claimed one of its links.  On
    return ``owner[link]`` is the position of the winner that claimed
    ``link``; ``first`` is left as it was found (all ``_NONE``).
    """
    stages = links.shape[1]
    won = np.zeros(len(links), bool)
    undecided = free.nonzero()[0]
    while undecided.size:
        used = links[undecided]
        if undecided.size == 1:
            leader = np.ones(1, bool)
        else:
            np.minimum.at(first, used.ravel(), np.repeat(undecided, stages))
            leader = (first[used] == undecided[:, None]).all(axis=1)
            first[used] = _NONE
        winners = undecided[leader]
        won[winners] = True
        owner[links[winners]] = winners[:, None]
        rest = ~leader
        undecided = undecided[rest]
        if undecided.size:
            # Every undecided user of a new winner's link comes after it.
            undecided = undecided[(owner[used[rest]] == _NONE).all(axis=1)]
    return won


def run_hotspot(
    network: MultistageNetwork, workload, horizon: int
) -> Optional[NetworkRunResult]:
    """Run ``workload`` (a ``HotspotWorkload``) through ``network`` until
    ``horizon``, bit-identical to the scalar ``MultistageNetwork.run``.

    Returns None, with the workload's stream rewound and the network
    untouched, when the run does not fit the int64 arrays; the caller
    then runs the scalar loop.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    ports = network.num_ports
    stages = network.num_stages
    hold = network.hold_time
    think = workload.think_time
    if max(horizon, hold, think) > _LIMIT:
        return None
    busy = np.array(network._busy_until)
    if busy.dtype != np.int64 or busy.max() > _LIMIT:
        return None
    pending = network._dest_pending
    counts = np.zeros(ports, np.int64)
    known = np.zeros(ports, bool)
    if not all(isinstance(key, (int, np.integer)) for key in pending):
        return None
    held = [key for key in pending if 0 <= key < ports]
    for key in held:
        value = pending[key]
        if type(value) is not int or abs(value) > _LIMIT:
            return None
        counts[key] = value
        known[key] = True
    stream = workload._rng.bit_generator
    saved = stream.state

    def fall_back() -> None:
        stream.state = saved

    messages = workload.initial_messages()
    source = np.array([m.source for m in messages], np.int64)
    dest = np.array([m.dest for m in messages], np.int64)
    issue = np.array([m.issue_time for m in messages], np.int64)
    if min(source.min(), dest.min()) < 0 or max(source.max(), dest.max()) >= ports:
        # Out-of-range routes fail in the scalar loop, at its own time.
        fall_back()
        return None
    new_keys: List[int] = []
    unknown = ports - len(held)
    np.add.at(counts, dest, 1)
    _first_seen(dest, known, new_keys)

    result = NetworkRunResult(horizon=horizon)
    add_latency = result.latency.add
    add_attempts = result.attempts_per_message.add
    pick = workload._pick_dest
    backoff = network.backoff
    delays = _vector_delays(backoff)
    due = issue.copy()
    tries = np.zeros(len(messages), np.int64)
    attempts = np.zeros(len(messages), np.int64)
    seq = np.arange(len(messages), dtype=np.int64)
    next_seq = len(messages)
    shifts = np.arange(1, stages + 1)
    downs = stages - shifts
    bases = np.arange(stages) * ports
    mask = ports - 1

    def route(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Flat ``stage * P + line`` links, one row per message."""
        lines = ((src[:, None] << shifts) | (dst[:, None] >> downs)) & mask
        return lines + bases

    routes = route(source, dest)
    first = np.full(stages * ports, _NONE)
    owner = np.full(stages * ports, _NONE)
    depth_counts = np.zeros(stages + 1, np.int64)
    depth_seen = np.zeros(stages + 1, bool)
    depth_order: List[int] = []
    total = completed = collisions = 0
    while True:
        now = int(due.min())
        if now >= horizon:
            break
        visit = (due == now).nonzero()[0]
        if visit.size > 1:
            visit = visit[np.argsort(seq[visit])]
        size = visit.size
        seq[visit] = np.arange(next_seq, next_seq + size)
        next_seq += size
        total += size
        tried = attempts[visit] + 1
        heads = dest[visit]
        links = routes[visit]
        was_busy = busy[links] > now
        won = _claim(links, ~was_busy.any(axis=1), first, owner)
        win = won.nonzero()[0]
        lost = (~won).nonzero()[0]
        winner_links = links[win]
        old = heads[win]
        new = np.zeros(0, np.int64)
        if win.size:
            release = now + hold
            lat = (release - issue[visit[win]]).tolist()
            drawn = []
            for latency, count in zip(lat, tried[win].tolist()):
                add_latency(latency)
                add_attempts(count)
                drawn.append(pick())
            new = np.array(drawn, np.int64)
        if lost.size:
            losers = visit[lost]
            dests = heads[lost]
            hit = was_busy[lost] | (owner[links[lost]] < lost[:, None])
            depth = hit.argmax(axis=1) + 1
            queue = counts[dests] - 1
            moved = np.zeros(ports, bool)
            moved[old] = moved[new] = True
            near = moved[dests].nonzero()[0]
            if near.size:
                # Keys ``dest * size + position`` order the winners'
                # moves by destination, then visit order.
                starts = dests[near] * size
                keys = starts + lost[near]
                came = np.sort(new * size + win)
                gone = np.sort(old * size + win)
                queue[near] += (
                    came.searchsorted(keys) - came.searchsorted(starts)
                ) - (gone.searchsorted(keys) - gone.searchsorted(starts))
            tries_now = tries[losers] + 1
            wait = delays(depth, tries_now, queue, stages, hold)
            if wait.dtype != np.int64 or wait.max() > _LIMIT:
                fall_back()
                return None
            if wait.min() < 0:
                raise ValueError(
                    f"backoff policy {backoff!r} returned negative delay"
                )
            due[losers] = now + 1 + wait
            tries[losers] = tries_now
            attempts[losers] = tried[lost]
            collisions += lost.size
            depth_counts += np.bincount(depth, minlength=stages + 1)
            if len(depth_order) < stages:
                _first_seen(depth, depth_seen, depth_order)
        if win.size:
            owner[winner_links] = _NONE
            busy[winner_links] = release
            slots = visit[win]
            dest[slots] = new
            routes[slots] = route(source[slots], new)
            issue[slots] = due[slots] = release + think
            tries[slots] = 0
            attempts[slots] = 0
            completed += win.size
            np.subtract.at(counts, old, 1)
            np.add.at(counts, new, 1)
            if len(new_keys) < unknown:
                _first_seen(new, known, new_keys)
    network._busy_until[:] = busy.tolist()
    for key in held + new_keys:
        pending[key] = int(counts[key])
    result.attempts = total
    result.completed = completed
    result.collisions = collisions
    for depth_value in depth_order:
        result.collision_depths.add(depth_value, int(depth_counts[depth_value]))
    return result


__all__ = ["maybe_run", "run_hotspot"]
