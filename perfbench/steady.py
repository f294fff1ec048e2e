"""Steadiness check: run each workload repeatedly and report the spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --first-seed 101 --save a.json
    python3 perfbench/steady.py --runs 10 --first-seed 201 --against a.json

Every workload in BENCHMARK.json runs for its ``run_seconds``.  Runs
alternate between workloads, one seed per pass (``first-seed``,
``first-seed + 1``, ...), with the workload order reversed on every
other pass.  For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, against the metric's bound in BENCHMARK.json
("steady" when the spread is under a third of the bound), and each
workload's share of failed questions in every run.  ``--against FILE``
also compares the medians with an earlier ``--save`` of the same check.
The exit code is 1 when a spread or a median's move passes its bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900


def run_once(workload, seed):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--save", metavar="FILE",
                        help="write every run's result as JSON")
    parser.add_argument("--against", metavar="FILE",
                        help="compare medians with an earlier --save")
    args = parser.parse_args(argv)
    names = [workload["name"] for workload in SPEC["workloads"]]
    bounds = {metric["name"]: metric for metric in SPEC["end_to_end"]}
    earlier = json.loads(pathlib.Path(args.against).read_text()) \
        if args.against else None

    results = {name: [] for name in names}
    for index in range(args.runs):
        order = names if index % 2 == 0 else names[::-1]
        for name in order:
            result = run_once(name, args.first_seed + index)
            results[name].append(result)
            print(f"run {index + 1}/{args.runs} {name}: "
                  f"failed {result['failed']}/{result['attempted']} " + " ".join(
                      f"{key}={value['value']:.4g}"
                      for key, value in result["metrics"].items()),
                  file=sys.stderr, flush=True)
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(results, indent=1))

    worst, over = 0.0, False
    for name in names:
        runs = results[name]
        shares = sorted({run["failed"] / run["attempted"] for run in runs})
        print(f"\n{name}: failed share per run {shares}, "
              f"correct in every run: {all(run['correct'] for run in runs)}")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for metric, limit in bounds.items():
            values = [run["metrics"][metric]["value"] for run in runs]
            median, q1, q3, share = spread(values)
            bound = limit["bound"]
            worst = max(worst, share / bound)
            over = over or share > bound
            verdict = ("steady" if share < bound / 3 else
                       "within bound" if share <= bound else "TOO WIDE")
            if earlier is not None:
                before = statistics.median(
                    run["metrics"][metric]["value"] for run in earlier[name])
                change = (median - before) / before
                if limit["better"] == "higher":
                    change = -change
                over = over or change > bound
                verdict += (f"; {change:+.1%} worse than before"
                            + (" (OVER BOUND)" if change > bound else ""))
            print(f"  {metric:18} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{share:8.3f} {bound:6.2f}  {verdict}")
    print(f"\nwidest spread is {worst:.2f} of its bound")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
