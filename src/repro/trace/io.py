"""Trace persistence: save/load scheduled traces as compressed npz.

Scheduling a full-scale application takes seconds and several
experiments reuse the same trace; persisting it makes runs across
processes (and papers-worth of pointer configurations) cheap.  The
format stores the compact column representation plus the barrier
observations, and round-trips exactly: a loaded trace has the same typed
columns, ``sync_refs`` and barriers as the one saved.
"""

from __future__ import annotations

import json
from typing import Union

import numpy as np

from repro.trace.scheduler import BarrierObservation, ScheduledTrace

#: Format version written into every file (bump on layout changes).
FORMAT_VERSION = 1


def save_trace(trace: ScheduledTrace, path: Union[str, "os.PathLike"]) -> None:
    """Write ``trace`` to ``path`` (numpy .npz, compressed)."""
    cpus, ops, addresses, sync = trace.raw_columns()
    barriers = [
        {
            "section_name": barrier.section_name,
            "variable_address": barrier.variable_address,
            "flag_address": barrier.flag_address,
            "arrivals": barrier.arrivals,
            "first_poll_cycle": barrier.first_poll_cycle,
            "flag_set_cycle": barrier.flag_set_cycle,
        }
        for barrier in trace.barriers
    ]
    meta = {
        "version": FORMAT_VERSION,
        "num_cpus": trace.num_cpus,
        "program_name": trace.program_name,
        "cycles": trace.cycles,
        "barriers": barriers,
    }
    np.savez_compressed(
        path,
        cpus=np.asarray(cpus, dtype=np.int32),
        ops=np.asarray(ops, dtype=np.int8),
        addresses=np.asarray(addresses, dtype=np.int64),
        sync=np.asarray(sync, dtype=np.bool_),
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
    )


def load_trace(path: Union[str, "os.PathLike"]) -> ScheduledTrace:
    """Read a trace written by :func:`save_trace`."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {meta.get('version')!r} "
                f"(expected {FORMAT_VERSION})"
            )
        trace = ScheduledTrace(meta["num_cpus"], meta["program_name"])
        trace.cycles = meta["cycles"]
        trace.set_columns(
            data["cpus"], data["ops"], data["addresses"], data["sync"]
        )
    for record in meta["barriers"]:
        observation = BarrierObservation(
            section_name=record["section_name"],
            variable_address=record["variable_address"],
            flag_address=record["flag_address"],
            arrivals=[tuple(pair) for pair in record["arrivals"]],
            first_poll_cycle=record["first_poll_cycle"],
            flag_set_cycle=record["flag_set_cycle"],
        )
        trace.barriers.append(observation)
    return trace
