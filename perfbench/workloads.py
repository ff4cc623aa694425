"""Seeded workload generation for the repository benchmark.

A workload is an ordered list of *operations*.  Each operation is one
serialized :class:`repro.exec.plan.RunPlan` (the ``plan_to_json`` form
that ``repro serve`` accepts) plus a unique name.  The benchmark seed is
an argument of the generator only: the program under test receives the
generated plans and nothing else.

Run length is sized through each experiment's own parameters
(horizons, repetitions, probe lengths, pointer lists).  Port counts,
processor counts N and trace ``scale`` stay at their paper values, so
every call works on the data size users run: 64-port Omega networks
and full-size traces against the modelled 256 KB caches.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

WORKLOADS = ("regen-net", "regen-coherence", "regen-barrier", "serve-mixed")

#: regen-net: (experiment, sizing params).  Horizons and the scale1024
#: repetitions/probe length are cut from the paper-scale defaults;
#: num_ports and the N values stay at their defaults.
NET_OPS = (
    ("netbackoff", {"horizon": 500}),
    ("tree_saturation", {"horizon": 250}),
    ("scale1024", {"repetitions": 2, "probe_horizon": 40}),
)

#: regen-coherence, in report order so the in-process trace memo is
#: shared exactly as ``repro report`` shares it.  Every trace keeps its
#: paper scale and CPU count; the run is cut by pointer counts and apps.
#: SIMPLE, the largest trace (782k references at 64 CPUs), is scheduled
#: and replayed by figure1; the other ids use FFT and WEATHER, and
#: Tables 1-2 keep one limited-pointer directory (Dir4NB).
COHERENCE_APPS = ["FFT", "WEATHER"]
COHERENCE_OPS = (
    ("table1", {"pointers": [4], "apps": COHERENCE_APPS}),
    ("table2", {"pointers": [4], "apps": COHERENCE_APPS}),
    ("table3", {"apps": COHERENCE_APPS}),
    ("figure1", {}),
    ("figure3", {"apps": COHERENCE_APPS}),
    ("bus_vs_directory", {"app": "WEATHER", "pointers": [4]}),
    ("tree_coherence", {"app": "WEATHER", "degrees": [8]}),
    ("validation", {"apps": COHERENCE_APPS, "repetitions": 50}),
    ("fft_traffic", {"repetitions": 50}),
)

#: regen-barrier: every remaining id at a quarter of its default
#: repetitions; the N values, A values and policies stay.
BARRIER_OPS = (
    ("figure4", 25), ("figure5", 25), ("figure6", 25), ("figure7", 25),
    ("figure8", 25), ("figure9", 25), ("figure10", 25),
    ("hardware", 25), ("schedules", 12), ("determinism", 12),
    ("combining", 12), ("coherent_barrier", 5), ("application", 5),
    ("queueing", 12), ("resource", 12), ("coupling", 12),
)

#: Ids whose spec takes a ``seed`` parameter (the others are
#: deterministic programs: their traces depend on no random draw).
SEEDED = {
    "netbackoff", "tree_saturation", "scale1024", "validation",
    "fft_traffic",
} | {name for name, _ in BARRIER_OPS}

#: serve-mixed: small plans.  Plain plans run on the numpy kernels;
#: fault plans force the python event loop and the fault runner.
SERVE_PLAIN = (
    ("figure5", {"n_values": [2, 4, 8, 16, 32], "repetitions": 10}),
    ("figure6", {"n_values": [2, 4, 8, 16], "repetitions": 5}),
    ("figure8", {"n_values": [2, 4, 8, 16, 32], "repetitions": 10}),
    ("resource", {"n_values": [4, 8, 16], "repetitions": 10}),
)
SERVE_FAULT = (
    ("figure5", "chaos"),
    ("figure8", "stragglers"),
    ("figure6", "hot-module"),
    ("figure9", "lossy-net"),
)
SERVE_FAULT_PARAMS = {"n_values": [2, 4, 8], "repetitions": 4}
#: Originals per pass: each plain template and each fault template this
#: many times; half as many duplicates again.  Plain plans get fresh
#: seeds.  Fault plans take the fixed seeds 0..SERVE_COPIES-1, so every
#: workload seed serves the same fault schedules: their event volume is
#: heavy-tailed in the seed (one template ranged from 4.5k to 32k
#: events), which would make time and memory depend more on the seed
#: than on the code.  The workload seed still sets the plain seeds, the
#: job order and which jobs are duplicated.
SERVE_COPIES = 5


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _op(name: str, plan: Dict[str, Any], dup_of: Optional[str] = None):
    return {"name": name, "plan": plan, "dup_of": dup_of}


def _regen(ops, rng: random.Random) -> List[Dict[str, Any]]:
    out = []
    for experiment, params in ops:
        plan: Dict[str, Any] = {"experiment": experiment, "params": dict(params)}
        if experiment in SEEDED:
            plan["seed"] = _seed(rng)
        out.append(_op(experiment, plan))
    return out


def _serve(rng: random.Random) -> List[Dict[str, Any]]:
    originals = []
    for copy in range(SERVE_COPIES):
        for experiment, params in SERVE_PLAIN:
            originals.append(
                {
                    "experiment": experiment,
                    "params": dict(params, seed=_seed(rng)),
                }
            )
        for experiment, fault_plan in SERVE_FAULT:
            originals.append(
                {
                    "experiment": experiment,
                    # Under a fault plan the plan seed seeds the run; a
                    # ``seed`` param as well is refused by the runner.
                    "params": dict(SERVE_FAULT_PARAMS),
                    "seed": copy,
                    "fault_plan": fault_plan,
                }
            )
    rng.shuffle(originals)
    ops = [
        _op(f"j{index:03d}-{plan['experiment']}", plan)
        for index, plan in enumerate(originals)
    ]
    # About a third of all jobs are exact duplicates.  Each one is
    # placed after its original, and the client submits it only once
    # the original's result is back, so it is a pure warm dedupe hit.
    duplicates = rng.sample(range(len(ops)), len(ops) // 2)
    out = list(ops)
    for index in sorted(duplicates):
        original = ops[index]
        position = rng.randrange(out.index(original) + 1, len(out) + 1)
        out.insert(
            position,
            _op(original["name"] + "-dup", dict(original["plan"]),
                dup_of=original["name"]),
        )
    return out


def generate(workload: str, seed: int) -> List[Dict[str, Any]]:
    """The operation list of ``workload`` for ``seed`` (deterministic)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "regen-net":
        return _regen(NET_OPS, rng)
    if workload == "regen-coherence":
        return _regen(COHERENCE_OPS, rng)
    if workload == "regen-barrier":
        return _regen(
            [(name, {"repetitions": reps}) for name, reps in BARRIER_OPS], rng
        )
    if workload == "serve-mixed":
        return _serve(rng)
    raise ValueError(
        f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}"
    )
