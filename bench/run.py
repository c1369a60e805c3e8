"""Benchmark of the klehmer command line, end to end and layer by layer.

    python3 bench/run.py --workload count-1e7 --seed 1 --seconds 40 --trace 0

Run from the root of a klehmer checkout.  The program is driven only
through `klehmer.cli.main(argv)`, in process, with stdout captured; every
output is checked for exact correctness outside the timed region.  The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
of BENCHMARK.json, from the workload's untraced window; with --trace 1
they are the per-layer ones, from windows traced by `spans`, a pooled
window and the seeded classify pass.  The line before it holds the run
context.  The full record, with the
spans of a traced run, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import spans
from workloads import POOL_WORKERS, WORKLOADS, Operation, Workload, classify_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_SAMPLES = 15
MIN_TAIL_BEYOND = 10
P99_MIN_REQUESTS = 1100  # keeps at least 10 request latencies beyond p99
WALL_CAP_S = 150.0  # a run stops measuring after this much wall time rather
# than overrun its 180 s budget; a classify pass cut short of its p99 samples
# then fails tail_check
SETUP_CODE = (
    "import time; t = time.perf_counter(); import klehmer; "
    "print(time.perf_counter() - t); print(klehmer.__file__)"
)


def load_program():
    """Import klehmer.cli from this checkout's src/, never from elsewhere."""
    init = SRC / "klehmer" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a klehmer checkout")
    sys.path.insert(0, str(SRC))
    import klehmer.cli

    if Path(klehmer.cli.__file__).resolve().parent != init.parent.resolve():
        sys.exit(f"error: imported klehmer from {klehmer.cli.__file__}, not {SRC}")
    return klehmer.cli


def call(cli, argv) -> tuple[int, str, str, float]:
    """One in-process CLI request: exit code, stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # an uncaught error is a failed request
            rc = -1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), elapsed


@dataclass
class Window:
    """What one measured window saw: operation times and failures."""

    op_times: list[float] = field(default_factory=list)
    requests: int = 0
    values: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.op_times)

    def run(self, cli, op, tracer: spans.Tracer | None = None) -> None:
        """Time one operation's requests, then gate their outputs."""
        spent = 0.0
        for req in op.requests:
            if tracer is not None:
                tracer.request = self.requests
            rc, out, err, elapsed = call(cli, req.argv)
            spent += elapsed
            self.requests += 1
            errors = [f"exit code {rc}: {err.strip()}"] if rc else req.check(out)
            if errors:
                self.failed += 1
                self.errors += [f"{' '.join(req.argv)}: {e}" for e in errors[:3]]
        self.op_times.append(spent)
        self.values += op.values


def measure(cli, ops: Iterator[Operation], seconds: float, deadline: float,
            min_requests: int = 1, tracer: spans.Tracer | None = None,
            after_op: Callable[[float], None] | None = None) -> tuple[Window, Window]:
    """Run operations until `seconds` of untraced request time and
    `min_requests` requests have accumulated, or perf_counter passes
    `deadline`.  `after_op`, if given, is called after each operation,
    outside the timed region, with the share of `seconds` done.

    With a tracer, each operation runs untraced and then traced, so the
    two windows see the same inputs at nearly the same moment and their
    difference is the tracing overhead.  Gates run outside the timed region.
    """
    plain, traced = Window(), Window()
    for op in ops:
        plain.run(cli, op)
        if tracer is not None:
            with spans.instrument(tracer):
                traced.run(cli, op, tracer)
        if after_op is not None:
            after_op(plain.busy / seconds)
        done = plain.busy >= seconds and plain.requests >= min_requests
        if done or time.perf_counter() > deadline:
            break
    return plain, traced


def bulk(workload: Workload, workers: int = 1) -> Iterator[Operation]:
    return itertools.repeat(workload.operation(workers))


def nearest_rank(samples, level: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(level * len(ordered)) - 1)]


def beyond(samples, level: float) -> int:
    """How many samples lie beyond the nearest-rank percentile `level`."""
    return len(samples) - max(1, math.ceil(level * len(samples)))


def tail_level(samples, levels=(0.999, 0.995, 0.99, 0.95, 0.9, 0.75, 0.5)):
    """Highest level with at least MIN_TAIL_BEYOND samples beyond it, or None."""
    for level in levels:
        if beyond(samples, level) >= MIN_TAIL_BEYOND:
            return level
    return None


def values_per_s(window: Window) -> float:
    """Bulk operations are identical, so their rate comes from the median
    operation time."""
    return window.values / (statistics.median(window.op_times) * len(window.op_times))


def peak_rss_mib() -> float:
    """ru_maxrss of this process.  The set-up interpreters are children,
    so the children's figure would be theirs, not the program's."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_time() -> float:
    """Seconds that `import klehmer` takes in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    seconds, where = proc.stdout.split("\n")[:2]
    if not Path(where).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: fresh interpreter imported klehmer from {where}")
    return float(seconds)


def keep_pace(setup: list[float], progress: float) -> None:
    """Take set-up samples until `progress` (0..1) of SETUP_SAMPLES are in,
    so that they spread over the run rather than come in one burst."""
    while len(setup) < min(SETUP_SAMPLES, math.ceil(progress * SETUP_SAMPLES)):
        setup.append(setup_time())


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(window: Window, rss_mib: float, setup: list[float]) -> dict:
    return {
        "values_per_s": metric(values_per_s(window), "1/s"),
        "peak_rss_mib": metric(rss_mib, "MiB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }


def base_primes_probe(limit: int) -> float:
    """Median seconds of public base_primes(isqrt(limit))."""
    from klehmer.sieve import base_primes

    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        base_primes(math.isqrt(limit))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def call_figures(s, plain: Window, traced: Window) -> dict:
    """Per-request layer figures of one traced window (spans `s`) and the
    tracing overhead against its untraced twin `plain`."""
    requests = max(traced.requests, 1)
    main_busy = spans.busy(s, "cli.main")
    cli_self = spans.self_time(s, {"cli.main"})
    plain_per_request = plain.busy / plain.requests
    traced_per_request = traced.busy / requests
    return {
        "lehmer.lehmer_index.calls": metric(spans.calls(s, "lehmer.lehmer_index"), "count"),
        "lehmer.lehmer_index.busy_s":
            metric(spans.busy(s, "lehmer.lehmer_index") / requests, "s"),
        "arith.factorize.calls": metric(spans.calls(s, "arith.factorize"), "count"),
        "arith.factorize.calls_per_request":
            metric(spans.calls(s, "arith.factorize") / requests, "count"),
        "arith.factorize.busy_s": metric(spans.busy(s, "arith.factorize") / requests, "s"),
        "arith.is_prime.calls_per_request":
            metric(spans.calls(s, "arith.is_prime") / requests, "count"),
        "carmichael.korselt_test.busy_s":
            metric(spans.busy(s, "carmichael.korselt_test") / requests, "s"),
        "carmichael.pseudoprime_base.busy_s":
            metric(spans.busy(s, "carmichael.pseudoprime_base") / requests, "s"),
        "cli.requests": metric(traced.requests, "count"),
        "cli.self_s": metric(cli_self / requests, "s"),
        "cli.self_share": metric(cli_self / main_busy if main_busy else 0.0, "ratio"),
        "trace.overhead_s": metric(traced_per_request - plain_per_request, "s"),
        "trace.overhead_share":
            metric(traced_per_request / plain_per_request - 1.0, "ratio"),
    }


def sieve_figures(s, traced: Window, probe_s: float) -> dict:
    requests = max(traced.requests, 1)
    sieve_runs = spans.measured(s, "sieve.totient_sieve")
    sieved = sum(v for v, _ in sieve_runs)
    totient_busy = spans.busy(s, "sieve.totient_sieve")
    index_self = spans.self_time(s, {"sieve.count_table"}, {"sieve.totient_sieve"})
    indexed = sum(spans.measured(s, "sieve.count_table"))
    korselt_self = spans.self_time(
        s, {"sieve.enumerate_carmichael", "sieve.alpha_search"},
        {"lehmer.lehmer_index", "arith.factorize"})
    return {
        "sieve.totient_sieve.calls": metric(len(sieve_runs), "count"),
        "sieve.totient_sieve.busy_s": metric(totient_busy / requests, "s"),
        "sieve.totient_sieve.ns_per_value":
            metric(totient_busy / sieved * 1e9 if sieved else 0.0, "ns"),
        "sieve.totient_sieve.out_bytes":
            metric(sum(b for _, b in sieve_runs) / requests, "bytes"),
        "sieve.index.self_s": metric(index_self / requests, "s"),
        "sieve.index.ns_per_value":
            metric(index_self / indexed * 1e9 if indexed else 0.0, "ns"),
        "sieve.base_primes.probe_s": metric(probe_s, "s"),
        "sieve.korselt.self_s": metric(korselt_self / requests, "s"),
    }


def classify_figures(s, plain: Window, traced: Window) -> dict:
    """The classify pass: its latency and throughput, untraced, and its
    layer figures, traced."""
    figures = {
        "classify.requests_per_s": metric(plain.requests / plain.busy, "1/s"),
        "classify.latency_p50_ms": metric(statistics.median(plain.op_times) * 1e3, "ms"),
        "classify.latency_p99_ms": metric(nearest_rank(plain.op_times, 0.99) * 1e3, "ms"),
        "classify.sieve.totient_sieve.calls":
            metric(spans.calls(s, "sieve.totient_sieve"), "count"),
    }
    for name, value in call_figures(s, plain, traced).items():
        figures["classify." + name] = value
    return figures


def per_layer(workload: Workload, windows: dict, recorded: dict) -> dict:
    plain, traced, pool = windows["untraced"], windows["traced"], windows["pool"]
    serial_rate, pool_rate = values_per_s(plain), values_per_s(pool)
    return {
        **sieve_figures(recorded["workload"], traced,
                        base_primes_probe(workload.sieve_limit)),
        **call_figures(recorded["workload"], plain, traced),
        "pool.speedup": metric(pool_rate / serial_rate, "ratio"),
        "pool.serial_values_per_s": metric(serial_rate, "1/s"),
        "pool.pool_values_per_s": metric(pool_rate, "1/s"),
        **classify_figures(recorded["classify"], windows["classify-untraced"],
                           windows["classify-traced"]),
    }


# Span counts a traced run must see, by workload or pass.  BYPASS names the
# layers it never calls (exactly 0): later changes cite these as "this
# workload bypasses the change".  REQUIRED names the layers it must run
# through (above 0), so that a renamed, moved or inlined function reads as
# a failed check rather than as a bypass.
BYPASS = {
    "count-1e7": ("arith.factorize",),
    "carmichael-alpha": ("sieve.totient_sieve",),
    "classify": ("sieve.totient_sieve",),
}
REQUIRED = {
    "count-1e7": ("sieve.count_table", "sieve.totient_sieve"),
    "carmichael-alpha": ("sieve.enumerate_carmichael", "sieve.alpha_search",
                         "lehmer.lehmer_index", "arith.factorize"),
    "classify": ("cli.classification_report", "lehmer.lehmer_index",
                 "arith.factorize"),
}


def layer_checks(name: str, recorded) -> tuple[int, list[str]]:
    """(checks run, failures) of the BYPASS and REQUIRED span counts of
    the workload or pass `name`."""
    bypass, required = BYPASS[name], REQUIRED[name]
    errors = [f"{name} bypass check: {layer} calls = {spans.calls(recorded, layer)}, "
              "expected 0" for layer in bypass if spans.calls(recorded, layer) != 0]
    errors += [f"{name} layer check: {layer} calls = 0, expected > 0"
               for layer in required if spans.calls(recorded, layer) == 0]
    return len(bypass) + len(required), errors


def tail_check(window: Window) -> tuple[int, list[str]]:
    """(checks run, failures): the classify pass's p99 needs MIN_TAIL_BEYOND
    samples beyond it, which WALL_CAP_S can cut short."""
    n = beyond(window.op_times, 0.99)
    if n >= MIN_TAIL_BEYOND:
        return 1, []
    return 1, [f"latency check: {n} samples beyond p99, expected >= {MIN_TAIL_BEYOND}"]


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def context(args, windows: dict, setup: list[float]) -> dict:
    import numpy

    ctx = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": bool(args.trace),  # only by the classify pass
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "pool_workers": POOL_WORKERS if args.trace else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "windows": {
            name: {"operations": len(w.op_times), "requests": w.requests,
                   "values": w.values, "busy_s": w.busy, "failed": w.failed}
            for name, w in windows.items()
        },
        "median_samples": len(windows["untraced"].op_times),
        "setup_samples": len(setup),
    }
    if "classify-untraced" in windows:
        times = windows["classify-untraced"].op_times
        level = tail_level(times)
        ctx["classify_latency"] = {
            "samples": len(times),
            "beyond_p99": beyond(times, 0.99),
            "tail": None if level is None else {
                "level": level, "ms": nearest_rank(times, level) * 1e3,
                "beyond": beyond(times, level)},
        }
    return ctx


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    cli = load_program()
    deadline = time.perf_counter() + WALL_CAP_S

    windows, recorded, setup = {}, {}, []
    if not args.trace:
        windows["untraced"] = measure(
            cli, bulk(workload), args.seconds, deadline,
            after_op=lambda progress: keep_pace(setup, progress))[0]
        keep_pace(setup, 1.0)
        metrics = end_to_end(windows["untraced"], peak_rss_mib(), setup)
        checks_run, checks = 0, []
    else:
        # Three windows of the workload (untraced and traced in pairs, then
        # pooled), each a quarter of --seconds, and the classify pass, itself
        # in traced pairs.
        quarter = args.seconds / 4
        tracer = spans.Tracer()
        windows["untraced"], windows["traced"] = measure(
            cli, bulk(workload), quarter, deadline, tracer=tracer)
        windows["pool"] = measure(cli, bulk(workload, POOL_WORKERS), quarter, deadline)[0]
        recorded["workload"] = tracer.spans
        tracer = spans.Tracer()
        windows["classify-untraced"], windows["classify-traced"] = measure(
            cli, classify_ops(args.seed), 0.0, deadline, P99_MIN_REQUESTS, tracer)
        recorded["classify"] = tracer.spans
        metrics = per_layer(workload, windows, recorded)
        checks_run, checks = tail_check(windows["classify-untraced"])
        for name, key in ((workload.name, "workload"), ("classify", "classify")):
            ran, errors = layer_checks(name, recorded[key])
            checks_run, checks = checks_run + ran, checks + errors

    errors = checks + [e for w in windows.values() for e in w.errors]
    failed = len(checks) + sum(w.failed for w in windows.values())
    attempted = checks_run + sum(w.requests for w in windows.values())
    ctx = context(args, windows, setup)
    ctx["error_rate"] = failed / attempted
    ctx["errors"] = errors[:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = {"context": ctx, "result": result,
              "op_times": {name: w.op_times for name, w in windows.items()},
              "setup_times": setup, "spans": recorded or None}
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))
    for line in errors[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
