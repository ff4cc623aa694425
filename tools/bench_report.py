#!/usr/bin/env python
"""Collect benchmark records into a single ``BENCH_sweeps.json``.

Every ``bench_*.py`` run writes a machine-readable record next to its
text report (``benchmarks/reports/<id>.json`` — see
``benchmarks/_util.py``).  This tool gathers them into one artifact:

- per-experiment wall time and the knobs each run used,
- the serial-vs-``--jobs`` comparison from ``parallel_sweep.json``
  (speedup, worker count, digest equality),
- the python-vs-numpy backend comparisons from
  ``vectorized_kernel.json`` (the flat barrier) and
  ``tree_kernel.json`` (the combining-tree family) — speedup, shard
  counters, digest equality (see docs/vectorization.md),
- the N=256..4096 scaling study from ``scale_sweep.json``
  (per-N accesses vs the Model 1/2 prediction — see
  docs/performance.md),
- the ``cpu_count`` of the host that produced the records, taken from
  the records themselves, so a <= 1x speedup on a one-core CI box is
  not mistaken for a regression (``parallel_sweep`` omits the speedup
  entirely and records pool overhead when cpu_count < jobs).  When the
  records disagree the tool warns, ``cpu_count`` is null and
  ``cpu_counts`` lists every value seen; the collecting host's own
  count is never used.

Usage::

    python tools/bench_report.py [--reports-dir benchmarks/reports]
                                 [--output BENCH_sweeps.json]

Exits non-zero when the reports directory holds no records, so CI
fails loudly if the bench step silently produced nothing.

``--perfbench FILE...`` instead adds repository-benchmark runs to the
output's ``perfbench`` section and leaves its other sections alone.
Each FILE is the saved output of ``perfbench/run.py``; every
``record:`` line in it becomes one entry under its workload, holding
``end_to_end``, ``per_layer`` (empty for an untraced run), ``trace``,
``cpu_count``, ``code_digest`` and ``seed``.  The code digest tells the
runs of two commits apart, so a before/after pair is two sets of
entries.  Entries already in the section are kept, and a record added
twice is stored once::

    python tools/bench_report.py --perfbench parent-*.txt change-*.txt
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

DEFAULT_REPORTS_DIR = os.path.join("benchmarks", "reports")
DEFAULT_OUTPUT = "BENCH_sweeps.json"


def collect(reports_dir: str) -> Dict[str, Any]:
    """Read every ``<id>.json`` record under ``reports_dir``."""
    experiments: Dict[str, Any] = {}
    comparison: Dict[str, Any] = {}
    registry_overhead: Dict[str, Any] = {}
    vectorized: Dict[str, Any] = {}
    tree_kernel: Dict[str, Any] = {}
    scale: Dict[str, Any] = {}
    cpu_counts = set()
    for path in sorted(glob.glob(os.path.join(reports_dir, "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"skipping unreadable record {path}: {error}",
                  file=sys.stderr)
            continue
        if isinstance(record, dict) and record.get("cpu_count") is not None:
            cpu_counts.add(record["cpu_count"])
        if name == "parallel_sweep":
            comparison = record
        elif name == "registry_overhead":
            registry_overhead = record
        elif name == "vectorized_kernel":
            vectorized = record
        elif name == "tree_kernel":
            tree_kernel = record
        elif name == "scale_sweep":
            scale = record
        else:
            experiments[name] = record
    report = {
        "cpu_count": next(iter(cpu_counts)) if len(cpu_counts) == 1 else None,
        "experiments": experiments,
        "python_vs_numpy": vectorized,
        "python_vs_numpy_tree": tree_kernel,
        "registry_overhead": registry_overhead,
        "scale1024": scale,
        "serial_vs_jobs": comparison,
    }
    if len(cpu_counts) > 1:
        report["cpu_counts"] = sorted(cpu_counts)
        print(
            f"warning: the records disagree on cpu_count "
            f"({', '.join(map(str, sorted(cpu_counts)))}); "
            "cpu_count is left null",
            file=sys.stderr,
        )
    return report


#: Prefix of the one JSON record line ``perfbench/run.py`` prints.
PERFBENCH_PREFIX = "record: "


def perfbench_entries(text: str) -> List[Tuple[str, Dict[str, Any]]]:
    """``(workload, entry)`` for every perfbench record line in ``text``."""
    entries = []
    for line in text.splitlines():
        if not line.startswith(PERFBENCH_PREFIX):
            continue
        record = json.loads(line[len(PERFBENCH_PREFIX):])
        stamp = record.get("stamp", {})
        entries.append(
            (
                record["workload"],
                {
                    "code_digest": stamp.get("code_digest"),
                    "cpu_count": stamp.get("cpu_count"),
                    "end_to_end": record.get("end_to_end", {}),
                    "per_layer": record.get("per_layer", {}),
                    "seed": record.get("seed"),
                    "trace": record.get("trace"),
                },
            )
        )
    return entries


def add_perfbench(output: str, paths: List[str]) -> int:
    """Merge the perfbench records in ``paths`` into ``output``."""
    report: Dict[str, Any] = {}
    if os.path.exists(output):
        with open(output, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    section = report.setdefault("perfbench", {})
    added = 0
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            entries = perfbench_entries(handle.read())
        if not entries:
            print(f"no perfbench record line in {path}", file=sys.stderr)
            return 1
        for workload, entry in entries:
            runs = section.setdefault(workload, [])
            if entry not in runs:
                runs.append(entry)
                added += 1

    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}: {added} new perfbench record(s)")
    for workload, runs in sorted(section.items()):
        by_code: Dict[str, List[float]] = {}
        for entry in runs:
            wall = entry["end_to_end"].get("wall_s")
            if isinstance(wall, (int, float)) and not entry.get("trace"):
                by_code.setdefault(str(entry["code_digest"])[:12], []).append(wall)
        for code, walls in sorted(by_code.items()):
            print(
                f"  {workload:<16} code {code}: {len(walls)} untraced run(s), "
                f"median wall_s {statistics.median(walls):.3f}"
            )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Collect benchmark records into BENCH_sweeps.json",
    )
    parser.add_argument("--reports-dir", default=DEFAULT_REPORTS_DIR)
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--perfbench",
        nargs="+",
        metavar="FILE",
        help="add the record lines of saved perfbench/run.py outputs to "
        "the output's perfbench section (other sections are left as is)",
    )
    args = parser.parse_args(argv)

    if args.perfbench:
        return add_perfbench(args.output, args.perfbench)

    report = collect(args.reports_dir)
    if (not report["experiments"] and not report["serial_vs_jobs"]
            and not report["python_vs_numpy"]):
        print(
            f"no benchmark records found under {args.reports_dir}; "
            "run `python -m pytest benchmarks/` first",
            file=sys.stderr,
        )
        return 1

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    comparison = report["serial_vs_jobs"]
    print(f"wrote {args.output}: {len(report['experiments'])} experiment "
          f"record(s)")
    for name, record in sorted(report["experiments"].items()):
        wall = record.get("wall_time_seconds")
        jobs = record.get("jobs", 1)
        if isinstance(wall, (int, float)):
            print(f"  {name:<24} {wall:8.3f}s  jobs={jobs}")
    overhead = report["registry_overhead"]
    if overhead:
        fraction = overhead.get("overhead_fraction")
        if isinstance(fraction, (int, float)):
            print(
                f"  registry dispatch overhead: {100 * fraction:.2f}% "
                f"of {overhead.get('registry_seconds', 0.0):.3f}s "
                f"({overhead.get('experiment_id')}, budget "
                f"{100 * overhead.get('max_overhead_fraction', 0.02):.0f}%)"
            )
    vectorized = report["python_vs_numpy"]
    if vectorized:
        speedup = vectorized.get("speedup")
        print(
            f"  backend python vs numpy ({vectorized.get('experiment_id')}): "
            f"{vectorized.get('python_seconds', 0.0):.3f}s -> "
            f"{vectorized.get('numpy_seconds', 0.0):.3f}s "
            f"({speedup:.1f}x, {vectorized.get('vectorized_shards', 0)} "
            f"vectorized shard(s))"
            if isinstance(speedup, (int, float)) else
            "  backend python vs numpy comparison incomplete"
        )
    tree_kernel = report["python_vs_numpy_tree"]
    if tree_kernel:
        speedup = tree_kernel.get("speedup")
        print(
            f"  tree kernel python vs numpy: "
            f"{tree_kernel.get('python_seconds', 0.0):.3f}s -> "
            f"{tree_kernel.get('numpy_seconds', 0.0):.3f}s "
            f"({speedup:.1f}x, {tree_kernel.get('vectorized_shards', 0)} "
            f"vectorized shard(s))"
            if isinstance(speedup, (int, float)) else
            "  tree kernel comparison incomplete"
        )
    scale = report["scale1024"]
    if scale:
        n_values = scale.get("n_values", [])
        print(
            f"  scale1024: N={min(n_values)}..{max(n_values)} in "
            f"{scale.get('wall_time_seconds', 0.0):.1f}s "
            f"({scale.get('repetitions')} rep(s), backend "
            f"{scale.get('backend')})"
            if n_values else "  scale1024 record incomplete"
        )
    if comparison:
        speedup = comparison.get("speedup")
        if isinstance(speedup, (int, float)):
            print(
                f"  serial vs jobs={comparison.get('jobs')}: "
                f"{comparison.get('serial_seconds', 0.0):.3f}s -> "
                f"{comparison.get('parallel_seconds', 0.0):.3f}s "
                f"({speedup:.2f}x on {comparison.get('cpu_count')} cpu(s))"
            )
        elif comparison.get("speedup_note"):
            print(f"  serial vs jobs: {comparison['speedup_note']}")
        else:
            print("  serial vs jobs comparison incomplete")
    return 0


if __name__ == "__main__":
    sys.exit(main())
