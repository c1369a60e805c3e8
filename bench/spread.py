"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload count-1e7 --runs 10 [--first-seed 1]
    python3 bench/spread.py --workload count-1e7 --first-seed 11 \
        --against bench/out/spread-count-1e7-seed1.json

For every end-to-end metric it prints the median of the runs and the
distance between their first and third quartiles (statistics.quantiles,
n=4) as a share of that median, next to the metric's bound in
BENCHMARK.json.  A spread above a third of the bound is marked, except on
setup_s: set-up time is gated only on its median from one set of runs to
the next, not on its spread.  With --against, an earlier set's record,
it also prints how far each median moved from that set's and marks a
move in the worse direction by more than the bound.  Runs are sequential,
one process at a time; the values go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(before: float, after: float, better: str) -> float:
    """Share by which `after` is worse than `before` (negative if better)."""
    change = (after - before) / before
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}\n"
                  f"{proc.stderr}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}-seed{args.first_seed}.json").write_text(json.dumps(values))
    for name, vals in values.items():
        bound = metrics[name]["bound"]
        median = statistics.median(vals)
        line = f"{name:16s} median {median:<12.6g} spread {spread(vals):7.2%}  bound {bound}"
        if name != "setup_s" and not spread(vals) < bound / 3:
            line += "  <-- spread above a third of the bound"
        if name in earlier:
            before = statistics.median(earlier[name])
            worse = worse_by(before, median, metrics[name]["better"])
            line += f"  | earlier median {before:<12.6g} worse by {worse:7.2%}"
            if worse > bound:
                line += "  <-- beyond the bound"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
