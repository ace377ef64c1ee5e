"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve-powerlaw --seed 1 --seconds 28 --trace 0

Run it from the repository root.  The program is imported from ``src/``
of the checkout this file sits in, never from an installed copy; without
that source tree the command exits with status 2 before measuring.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics from
a traced run (spans are also written to ``perfbench/out/``).  The exit
status is 1 when any answer fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("solve-powerlaw", "solve-peel", "serve-mixed")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    # Keep every file the run creates inside the checkout: multiprocessing
    # puts its manager socket under the temp dir, and a relative "." keeps
    # that socket path short whatever the checkout's path is.
    os.chdir(out_dir)
    os.environ["TMPDIR"] = "."
    tempfile.tempdir = None
    trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
    traced = bool(args.trace)
    if args.workload == "serve-mixed":
        from serve import run_serve

        result = run_serve(args.seed, args.seconds, traced)
    else:
        from solve import run_solve

        result = run_solve(args.workload, args.seed, args.seconds, traced)

    for key in ("ladder", "repeats"):
        if key in result:
            print(f"# {key}: {result[key]}")
    for name, value in result.get("raw", {}).items():
        print(f"# {name}: {value:.6g}")
    for note in result.get("phases", ()):
        print(f"# phase {note}")
    tracer = result.get("tracer")
    if tracer is not None:
        for name, seconds in sorted(tracer.self_time_by_name().items(), key=lambda kv: -kv[1]):
            print(f"# self {name}: {seconds * 1e3:.1f} ms")
    for error in result["errors"][:20]:
        print(f"# FAILED {error}")
    attempted, failed = int(result["attempted"]), int(result["failed"])
    print(f"# fail_ratio: {failed / max(attempted, 1):.6f} ratio ({failed}/{attempted})")
    metrics = {}
    for name, (value, unit) in result["metrics"].items():
        print(f"# {name}: {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    for name, (value, unit, why) in result.get("printed", {}).items():
        print(f"# {name}: {value:.6g} {unit} (printed only: {why})")
    if tracer is not None:
        tracer.write(trace_path)
        print(f"# trace written to {os.path.relpath(trace_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
