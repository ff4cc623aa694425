"""The repository benchmark: one workload, timed and checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload regen-net --seed 0 --seconds 30 --trace 0

Each pass runs in a fresh process with a fresh temporary directory
(see ``passes.py``); passes repeat until ``--seconds`` is spent.  Times
are rescaled for the host's speed (``calib.py``).  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json`` (medians over
the passes); with ``--trace 1`` passes alternate between
untraced and traced, and the metrics are the per-layer ones from the
traced passes, plus the tracing overhead.  Every operation's result
digest is checked: against the other passes of the run, against the
pinned digests in ``digests.json`` when the seed has pins, and, for
served duplicates, against the original job's digest.

Before the final line, the benchmark prints every metric by name with
its unit, and one ``record:`` JSON line stamped with ``cpu_count``, the
Python and numpy versions, the code digest, the seed and every
operation's digest, so that runs on any seed can be diffed between two
commits.  The last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import passes  # noqa: E402
import workloads  # noqa: E402

PINS_PATH = os.path.join(HERE, "digests.json")
SCRATCH_DIR = ".perfbench-tmp"
#: Hard cap on one invocation, under the 180 s a run may take.
BUDGET_S = 165.0
#: Set-up is sampled at least this many times per untraced run.
SETUP_SAMPLES = 7
#: A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def pass_wall(runs: List[Dict[str, Any]], key: str = "norm") -> float:
    """The time of one pass over the workload.

    Timings are rescaled for the host's speed (calib.py); ``key="raw"``
    gives the unscaled figure.  For regen workloads this is the sum over
    operations of each operation's median across the passes; a served
    pass is one closed loop over all jobs and is taken whole.
    """
    if not runs:
        return 0.0
    if "norm_s" in runs[0]["ops"][0]:
        field = "norm_s" if key == "norm" else "wall_s"
        return sum(
            statistics.median(run["ops"][i][field] for run in runs)
            for i in range(len(runs[0]["ops"]))
        )
    field = "norm_wall_s" if key == "norm" else "wall_s"
    return statistics.median(run[field] for run in runs)


def percentile(values: List[float], share: float) -> Optional[float]:
    """The nearest-rank ``share`` quantile, or None without
    ``TAIL_SAMPLES`` samples beyond it."""
    ordered = sorted(values)
    index = max(math.ceil(round(share * len(ordered), 9)) - 1, 0)
    if len(ordered) - index - 1 < TAIL_SAMPLES:
        return None
    return ordered[index]


def check_digests(
    runs: List[Dict[str, Any]], pins: Optional[Dict[str, str]]
) -> Dict[str, Any]:
    """Count failed operations; returns attempted, failed and the digests.

    An operation fails when it raised, returned a non-ok outcome or an
    HTTP error, or when its digest differs from the pinned digest, from
    the same operation's digest in the run's first pass, or (served
    duplicates) from its original job's digest in the same pass.
    """
    attempted = failed = 0
    reference: Dict[str, str] = {}
    errors: List[str] = []
    for run in runs:
        by_name = {op["name"]: op for op in run["ops"]}
        for op in run["ops"]:
            attempted += 1
            digest = op.get("digest")
            reason = None
            if not op.get("ok"):
                reason = op.get("error", "outcome not ok")
            elif pins is not None and pins.get(op["name"]) != digest:
                reason = f"digest {digest} != pinned {pins.get(op['name'])}"
            elif reference.setdefault(op["name"], digest) != digest:
                reason = f"digest {digest} != first pass {reference[op['name']]}"
            elif op.get("dup_of") and by_name[op["dup_of"]].get("digest") != digest:
                reason = "duplicate digest differs from its original"
            if reason is not None:
                failed += 1
                errors.append(f"{op['name']}: {reason}")
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digests": reference,
    }


def serve_stats(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Cold/warm round trips and server-side job timings, pooled."""
    cold, warm, queue, run_s, overhead = [], [], [], [], []
    dedupe_hits = http_errors = 0
    for run in runs:
        for op in run["ops"]:
            http_errors += bool(op.get("http_error"))
            if "run_s" not in op:
                continue
            if op["dup_of"]:
                warm.append(op["latency_s"])
                dedupe_hits += bool(op.get("deduplicated"))
            else:
                cold.append(op["latency_s"])
                queue.append(op["queue_wait_s"])
                run_s.append(op["run_s"])
                overhead.append(op["latency_s"] - op["run_s"])
    return {
        "cold": cold,
        "warm": warm,
        "serve.queue_wait_p50_s": _median(queue),
        "serve.run_p50_s": _median(run_s),
        "serve.overhead_p50_s": _median(overhead),
        "serve.dedupe_hits": float(dedupe_hits),
        "serve.http_errors": float(http_errors),
    }


def latency_metrics(stats: Dict[str, Any]) -> Dict[str, Any]:
    out = {}
    for kind in ("cold", "warm"):
        values = stats[kind]
        out[f"serve.{kind}_p50_s"] = statistics.median(values) if values else None
        out[f"serve.{kind}_p90_s"] = percentile(values, 0.9)
        out[f"serve.{kind}_samples"] = len(values)
    return out


def metric_units() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end"|"per_layer": {name: unit}}`` from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def run_workload(args) -> int:
    ops = workloads.generate(args.workload, args.seed)
    serve = args.workload == "serve-mixed"
    one_pass = passes.serve_pass if serve else passes.worker_pass
    os.makedirs(os.path.join(ROOT, SCRATCH_DIR), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, SCRATCH_DIR))
    started = time.perf_counter()
    modes = [False, True] if args.trace else [False]
    runs: List[Dict[str, Any]] = []
    setups: List[float] = []
    setup_record: Dict[str, Any] = {}
    try:
        while True:
            remaining = BUDGET_S - (time.perf_counter() - started)
            traced = modes[len(runs) % len(modes)]
            runs.append(one_pass(ROOT, scratch, ops, traced, False, remaining))
            elapsed = time.perf_counter() - started
            if len(runs) >= len(modes) and (
                elapsed * (len(runs) + 1) / len(runs) > args.seconds
                or elapsed > BUDGET_S / 2
            ):
                break
        setups = [run["norm_setup_s"] for run in runs if not run["traced"]]
        wanted = SETUP_SAMPLES if not args.trace else 1
        while len(setups) < wanted or (serve and not setup_record):
            remaining = BUDGET_S - (time.perf_counter() - started)
            if serve and len(setups) < wanted:
                setups.append(
                    passes.serve_pass(ROOT, scratch, ops, False, True, remaining)[
                        "norm_setup_s"
                    ]
                )
            else:
                setup_record = passes.worker_pass(
                    ROOT, scratch, [], False, True, remaining
                )
                if not serve:
                    setups.append(setup_record["norm_setup_s"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, SCRATCH_DIR))
        except OSError:
            pass

    stamp_source = setup_record if serve else runs[0]
    pins = _load_pins().get(args.workload, {}).get(str(args.seed))
    check = check_digests(runs, pins)
    untraced = [run for run in runs if not run["traced"]]
    traced = [run for run in runs if run["traced"]]
    end_to_end = {
        "wall_s": pass_wall(untraced),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([run["peak_rss_mb"] for run in untraced]),
    }
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp_source["stamp"],
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_samples": len(setups),
        "fail_rate": check["failed"] / check["attempted"],
        "end_to_end": end_to_end,
        "raw": {
            "wall_s": pass_wall(untraced, "raw"),
            "setup_s": _median([run["setup_s"] for run in untraced]),
        },
        "digests": check["digests"],
        "errors": check["errors"][:20],
    }
    if serve:
        stats = serve_stats(untraced)
        record["serve"] = latency_metrics(stats)
    if args.trace:
        layers = _layer_metrics(args.workload, untraced, traced, setup_record)
        record["per_layer"] = layers
        units = metric_units()["per_layer"]
        metrics = {name: layers.get(name, 0.0) for name in units}
    else:
        units = metric_units()["end_to_end"]
        metrics = {name: end_to_end[name] for name in units}

    if args.write_pins and check["failed"] == 0:
        _write_pins(args.workload, args.seed, check["digests"])

    extras = dict(record.get("serve", {}), fail_rate=record["fail_rate"])
    for name, value in sorted(metrics.items()) + sorted(extras.items()):
        unit = units.get(name, "ratio" if name == "fail_rate" else "s")
        if name.endswith("_samples"):
            unit = "count"
        print(f"{name:45s} {value!r:>24} {unit}")
    for error in check["errors"][:20]:
        print("error:", error)
    print("record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": check["failed"] == 0,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _layer_metrics(workload, untraced, traced, setup_record) -> Dict[str, Any]:
    """Median per-layer metrics of the traced passes, plus overheads."""
    serve = workload == "serve-mixed"
    per_pass = []
    for run in traced:
        if serve:
            from spans import layer_metrics

            busy = sum(op.get("run_s", 0.0) for op in run["ops"] if not op["dup_of"])
            per_pass.append(
                layer_metrics(run["spans"]["own"], run["spans"]["counts"], busy)
            )
        else:
            per_pass.append(run["layers"])
    layers = {
        name: _median([values[name] for values in per_pass])
        for name in per_pass[0]
    }
    layers["trace.overhead_s"] = pass_wall(traced) - pass_wall(untraced)
    if serve:
        stats = serve_stats(untraced)
        layers.update(
            {k: v for k, v in stats.items() if k.startswith("serve.")}
        )
        for name, value in latency_metrics(stats).items():
            layers[name] = value if value is not None else 0.0
        layers["setup.server_start_s"] = _median(
            [run["setup_s"] for run in untraced]
        )
        source = [setup_record]
    else:
        source = untraced
    layers["setup.import_s"] = _median([run["import_s"] for run in source])
    layers["setup.load_specs_s"] = _median([run["load_specs_s"] for run in source])
    return layers


def _load_pins() -> Dict[str, Any]:
    try:
        with open(PINS_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def _write_pins(workload: str, seed: int, digests: Dict[str, str]) -> None:
    pins = _load_pins()
    pins.setdefault(workload, {})[str(seed)] = dict(sorted(digests.items()))
    with open(PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-pins", action="store_true",
        help="store this run's digests as the pins for its seed",
    )
    args = parser.parse_args(argv)
    # A stop request unwinds through the passes' cleanup, which stops
    # and reaps every child process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        return run_workload(args)
    except passes.PassError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
