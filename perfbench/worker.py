"""One pass of a regen workload, in a fresh process.

``run.py`` starts this script once per pass, with ``PYTHONPATH``
pointing at the checkout's ``src`` and a fresh temporary directory as
the working directory, so fault checkpoints, caches and the in-process
trace memo never carry over from one pass to the next.

Protocol: after set-up (imports and registry load) the worker prints
``ready`` on stdout, so the parent can time set-up from process start.
It then runs every operation of the list in order through
``repro.exec.plan.execute`` and writes one JSON document to ``--out``.

Usage: python worker.py --ops OPS.json --out OUT.json [--trace] [--setup-only]
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ops", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy

    import repro
    from repro.exec.cache import code_digest
    from repro.exec.plan import execute, plan_from_json
    from repro.registry import load_specs

    imported = time.perf_counter()
    load_specs()
    loaded = time.perf_counter()
    print("ready", flush=True)
    import calib

    loop = calib.loop_time()
    record = {
        "import_s": imported - _T0,
        "load_specs_s": loaded - imported,
        "loop_s": loop,
        "stamp": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "code_digest": code_digest(),
            "repro": getattr(repro, "__version__", ""),
        },
    }
    if args.setup_only:
        _write(args.out, record)
        return 0

    with open(args.ops) as handle:
        ops = json.load(handle)
    recorder = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
        uninstall = spans.install(recorder)
        before = spans.counter_snapshot()
    results = []
    for op in ops:
        # Each operation is timed between two runs of the reference
        # loop, which rescale it for the host's speed (see calib.py).
        op_start = time.perf_counter()
        entry = {"name": op["name"]}
        try:
            outcome = execute(plan_from_json(op["plan"]))
        except Exception as error:  # an operation failure, not a crash
            entry.update(ok=False, error=f"{type(error).__name__}: {error}")
        else:
            entry.update(ok=outcome.ok, digest=outcome.digest)
        entry["wall_s"] = time.perf_counter() - op_start
        after = calib.loop_time()
        entry["norm_s"] = calib.rescale(entry["wall_s"], loop, after)
        loop = after
        results.append(entry)
    wall = sum(entry["wall_s"] for entry in results)
    record.update(ops=results, wall_s=wall)
    if recorder is not None:
        uninstall()
        counts = spans.merge_counts(
            recorder.counts,
            spans.counter_delta(before, spans.counter_snapshot()),
        )
        record["layers"] = spans.layer_metrics(
            spans.layer_totals(recorder.spans), counts, wall
        )
    _write(args.out, record)
    return 0


def _write(path: str, record: dict) -> None:
    with open(path, "w") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main())
