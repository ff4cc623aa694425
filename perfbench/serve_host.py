"""``python -m repro serve`` with the benchmark's layer spans installed.

The traced serve-mixed pass runs the server through this script instead
of ``python -m repro serve``: it installs the wrapper spans of
:mod:`spans` in the server process, hands the remaining arguments to the
repository's own CLI, and when the server stops (SIGTERM, which takes
the CLI's ^C path) writes each layer's self time and the counts to
``OUT.json``.

Usage: python serve_host.py OUT.json serve --port 0 [serve options...]
"""

import json
import signal
import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from repro.cli import main as cli_main
    from repro.registry import load_specs

    load_specs()
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    before = spans.counter_snapshot()
    try:
        return cli_main(argv)
    finally:
        uninstall()
        counts = spans.merge_counts(
            recorder.counts,
            spans.counter_delta(before, spans.counter_snapshot()),
        )
        with open(out, "w") as handle:
            json.dump(
                {"own": spans.layer_totals(recorder.spans), "counts": counts},
                handle,
            )


if __name__ == "__main__":
    sys.exit(main())
