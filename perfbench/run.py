"""The NaLIX benchmark: one workload, one seed, one line of JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload xmp-paper --seed 1 --seconds 20 --trace 0

Workloads: xmp-paper, nl-mixed, xmp-reload, serve-keepalive (see
README.md).  Progress and per-layer tables go to stderr; the last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, and the spans are written under
``perfbench/.out/``.
"""

import argparse
import json
import pathlib
import signal
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / ".out"
WORKLOADS = ("xmp-paper", "nl-mixed", "xmp-reload", "serve-keepalive")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run it "
              "from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    # SIGTERM unwinds like an exception, so a started server is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "serve-keepalive":
        import serving
        tally, metrics = serving.run(args.seed, args.seconds, args.trace,
                                     ROOT, OUT)
    else:
        import workloads
        tally, metrics = workloads.run(args.workload, args.seed, args.seconds,
                                       args.trace, OUT)
    for reason in tally.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
