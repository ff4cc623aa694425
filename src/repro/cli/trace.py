"""``trace``: schedule an application and report its sync statistics."""

from __future__ import annotations

import sys


def add_parser(sub) -> None:
    p = sub.add_parser("trace", help="schedule an application")
    p.add_argument("--app", choices=("FFT", "SIMPLE", "WEATHER"),
                   default="SIMPLE")
    p.add_argument("--cpus", type=int, default=64)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--barrier-style", choices=("flat", "tree"),
                   default="flat")
    p.add_argument("--degree", type=int, default=4, help="tree fan-in")
    p.add_argument("--save", default=None,
                   help="write trace to this .npz path")
    p.set_defaults(fn=cmd)


def cmd(args) -> int:
    from repro.trace.apps import build_app
    from repro.trace.scheduler import PostMortemScheduler

    if args.cpus < 1:
        return _usage_error(f"--cpus must be >= 1, got {args.cpus}")
    if args.scale <= 0:
        return _usage_error(f"--scale must be > 0, got {args.scale}")
    if args.degree < 2:
        return _usage_error(f"--degree must be >= 2, got {args.degree}")
    program = build_app(args.app, scale=args.scale)
    scheduler = PostMortemScheduler(
        program,
        args.cpus,
        barrier_style=args.barrier_style,
        tree_degree=args.degree,
    )
    trace = scheduler.run()
    print(
        f"{args.app} x{args.cpus} (scale {args.scale}, "
        f"{args.barrier_style} barriers):"
    )
    print(f"  references       : {len(trace):,} over {trace.cycles:,} cycles")
    print(f"  sync fraction    : {100 * trace.sync_fraction:.2f}%")
    print(f"  barriers         : {len(trace.barriers)}")
    print(f"  mean A / mean E  : {trace.mean_interval_a():.0f} / "
          f"{trace.mean_interval_e():.0f} cycles")
    if args.save:
        from repro.trace.io import save_trace

        save_trace(trace, args.save)
        print(f"  saved to         : {args.save}")
    return 0


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2
