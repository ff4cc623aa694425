"""Scaling study beyond the paper's 256 processors: the 1024+ regime.

The paper stops its sweeps at a few hundred processors.  Later work
(hierarchical barriers on 1024-core clusters, synchronization offload
near memory) shows the interesting regime for barrier design starts
where this paper's figures end.  The ``scale1024`` family extends the
Figure 4-10 methodology to N = 256..4096 and asks three questions:

- how far do the Section 5.1 analytic models (Model 1's ``5N/2``,
  Model 2's ``r/2 + 3N/2``) track the flat adaptive-backoff barrier
  as N grows past the paper's range?
- how much of the linear-in-N access cost do combining trees (degree
  4) and flatter *hierarchical* trees (degree 16, the two-level
  cluster shape) absorb, with memory-module counts scaling with N?
- what does the release broadcast cost in the interconnect itself,
  with :mod:`repro.network.multistage` Omega stages scaled as log2(N)?

Every barrier point dispatches through the exec engine (see
:func:`repro.barrier.sweep.sweep` / :func:`~repro.barrier.sweep
.sweep_tree`), so ``--jobs``, ``--cache``, checkpoint/resume and the
vectorized numpy kernels apply unchanged; N = 4096 is only reachable
in reasonable time because the tree points ride the batched kernel of
:mod:`repro.barrier.kernel_tree_numpy`.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, List

from repro.analysis.tables import render_table
from repro.barrier.models import model1_accesses, model2_accesses, model_prediction
from repro.registry.result import ExperimentResult
from repro.registry.spec import ExperimentSpec, Param, register


def _policy(flag_base: int):
    from repro.core.backoff import AdaptiveBackoff

    return AdaptiveBackoff(multiplier=1, flag_base=flag_base)


def _tree_modules(n: int, degree: int) -> int:
    """Memory modules a degree-``degree`` combining tree over N uses.

    Two modules per tree node (counter variable + release flag), so the
    module count scales with N instead of staying at the flat
    barrier's fixed pair — the "modules scaled with N" axis of the
    study.
    """
    from repro.core.barrier import CombiningTreeBarrier

    tree = CombiningTreeBarrier(n, degree=degree)
    return 2 * sum(tree.level_sizes())


def _release_probe(
    n: int, horizon: int, seed: int, backend: str = ""
) -> Dict[str, Any]:
    """One Omega-network hot-spot probe at ``num_ports`` = N.

    Models the release-wave read storm: every processor's final flag
    read targets one module, so the switch tree feeding it saturates
    (Pfister & Norton).  Stages scale as log2(N) — the network-side
    cost the barrier-side access counts do not show.  ``backend``
    (``''`` = the ambient default) picks the scalar loop or the numpy
    circuit kernel; both give the same result.
    """
    from repro.barrier.backend import backend_context
    from repro.network.hotspot import HotspotWorkload
    from repro.network.multistage import MultistageNetwork

    ports = 2
    while ports < n:
        ports *= 2
    network = MultistageNetwork(num_ports=ports, hold_time=4)
    workload = HotspotWorkload(
        num_ports=ports, hot_fraction=0.05, think_time=4, seed=seed
    )
    with backend_context(backend) if backend else contextlib.nullcontext():
        result = network.run(workload, horizon)
    return {
        "ports": ports,
        "stages": network.num_stages,
        "collision_rate": result.collision_rate,
        "attempts_per_message": result.attempts_per_message.mean,
        "throughput": result.throughput,
    }


def _scale_point(
    repetitions,
    n_values,
    interval_a,
    tree_degree,
    hier_degree,
    flag_base,
    probe_horizon,
    seed,
    backend="",
):
    (n,) = n_values
    from repro.barrier.simulator import simulate_barrier
    from repro.barrier.tree import simulate_tree_barrier

    flat = simulate_barrier(
        n, interval_a, _policy(flag_base), repetitions=repetitions, seed=seed,
        backend=backend or None,
    )
    barriers: List[list] = [
        ["flat", flat.mean_accesses, flat.mean_waiting_time, 2, 1],
    ]
    for label, degree in (("tree", tree_degree), ("hier", hier_degree)):
        point = simulate_tree_barrier(
            n,
            interval_a,
            degree=degree,
            policy=_policy(flag_base),
            repetitions=repetitions,
            seed=seed,
            backend=backend or None,
        )
        from repro.core.barrier import CombiningTreeBarrier

        depth = CombiningTreeBarrier(n, degree=degree).depth
        barriers.append(
            [
                f"{label}-{degree}",
                point.mean_accesses,
                point.mean_waiting_time,
                _tree_modules(n, degree),
                depth,
            ]
        )
    payload: Dict[str, Any] = {
        "barriers": barriers,
        "models": [
            model1_accesses(n),
            model2_accesses(n, interval_a),
            model_prediction(n, interval_a),
        ],
    }
    if probe_horizon > 0:
        payload["network"] = _release_probe(n, probe_horizon, seed, backend)
    return payload


def _scale_aggregate(points, params):
    rows = []
    data: Dict[str, Dict[int, Any]] = {"model": {}}
    network_rows = []
    for n in params["n_values"]:
        payload = points[f"N={n}"]
        prediction = payload["models"][2]
        data["model"][n] = prediction
        for label, accesses, waiting, modules, depth in payload["barriers"]:
            data.setdefault(label, {})[n] = accesses
            ratio = accesses / prediction if prediction else 0.0
            rows.append([label, n, accesses, waiting, modules, depth, ratio])
        probe = payload.get("network")
        if probe:
            data.setdefault("network", {})[n] = probe
            network_rows.append(
                [
                    n,
                    probe["stages"],
                    probe["collision_rate"],
                    probe["attempts_per_message"],
                ]
            )
    text = render_table(
        ["Barrier", "N", "accesses/proc", "waiting", "modules", "depth",
         "sim/model"],
        rows,
        title=(
            f"Scaling to N={max(params['n_values'])}: flat adaptive "
            f"(base {params['flag_base']}) vs combining-tree "
            f"(degree {params['tree_degree']}) vs hierarchical "
            f"(degree {params['hier_degree']}), A={params['interval_a']}"
        ),
        float_format="%.1f",
    )
    text += (
        "\nsim/model is flat simulation over max(Model 1, Model 2); tree "
        "rows show how much of the linear-in-N term the hierarchy absorbs "
        "(modules scale with N instead of staying at one hot pair)."
    )
    if network_rows:
        text += "\n\n" + render_table(
            ["N", "Omega stages", "collision rate", "attempts/msg"],
            network_rows,
            title="Release-broadcast probe: hot-spot traffic, stages = log2(N)",
            float_format="%.2f",
        )
    return ExperimentResult(
        "scale1024", "scaling beyond the paper", text, data
    )


register(
    ExperimentSpec(
        id="scale1024",
        title="scaling beyond the paper",
        section="Extension (1024+ processors)",
        summary=(
            "Extension: N=256..4096 — flat adaptive backoff vs combining-"
            "tree vs hierarchical barriers, with Model 1/2 break points."
        ),
        params=(
            Param("repetitions", "int", 20),
            Param("n_values", "ints", (256, 512, 1024, 2048, 4096)),
            Param("interval_a", "int", 100, "arrival interval A"),
            Param("tree_degree", "int", 4, "combining-tree fan-in",
                  fuzz={"type": "choice", "values": [2, 3, 4]}),
            Param("hier_degree", "int", 16,
                  "hierarchical (cluster-level) fan-in",
                  fuzz={"type": "choice", "values": [2, 4, 8]}),
            Param("flag_base", "int", 2, "adaptive flag-backoff base",
                  fuzz={"type": "choice", "values": [2, 3, 4]}),
            Param("probe_horizon", "int", 400,
                  "Omega hot-spot probe horizon in cycles; 0 disables",
                  fuzz={"type": "int", "lo": 0, "hi": 120}),
            Param("seed", "int", 0),
            Param("backend", "str", "",
                  "episode engine: python|numpy|auto; '' = the ambient "
                  "--backend default"),
        ),
        axis="n_values",
        run_point=_scale_point,
        aggregate=_scale_aggregate,
    )
)
