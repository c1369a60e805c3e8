"""Layer tracing from outside the program.

`instrument` swaps the module-global names that klehmer's layers call
through (for example `klehmer.sieve.totient_sieve`, or `factorize` as
bound in cli, lehmer, carmichael and sieve) for wrappers that record a
span per call, and restores them afterwards.  A span is a list
[name, start, end, parent, request, measure]: times from perf_counter,
the index of the enclosing span (-1 at top level), the id of the CLI
request it belongs to, and an optional figure taken from the result.
Spans stay in memory; the caller writes them out when the run ends.
Calls made inside forked pool workers are not seen.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time


def _sieve_values(segment) -> int:
    return segment.hi - segment.lo


def _sieve_bytes(segment) -> int:
    spf = segment.spf
    return segment.phi.nbytes + (0 if spf is None else spf.nbytes)


# (span name, defining module, function, figure taken from the result)
TRACED = (
    ("cli.main", "cli", "main", None),
    ("cli.classification_report", "cli", "classification_report", None),
    ("sieve.count_table", "sieve", "count_table", lambda table: table.limit),
    ("sieve.enumerate_carmichael", "sieve", "enumerate_carmichael", None),
    ("sieve.alpha_search", "sieve", "alpha_search", None),
    ("sieve.verify_alpha_entry", "sieve", "verify_alpha_entry", None),
    ("sieve.totient_sieve", "sieve", "totient_sieve",
     lambda seg: (_sieve_values(seg), _sieve_bytes(seg))),
    ("lehmer.lehmer_index", "lehmer", "lehmer_index", None),
    ("carmichael.korselt_test", "carmichael", "korselt_test", None),
    ("carmichael.pseudoprime_base", "carmichael", "pseudoprime_base", None),
    ("arith.factorize", "arith", "factorize", None),
    ("arith.is_prime", "arith", "is_prime", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, measure=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[5] = measure(result)
            return result

        return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every call in TRACED through `tracer` until the block exits.

    Each function is swapped wherever it is bound, in every loaded
    klehmer module, so a caller in a new module is traced as well.
    """
    originals = [getattr(importlib.import_module(f"klehmer.{owner}"), attr)
                 for _, owner, attr, _ in TRACED]
    modules = [m for key, m in list(sys.modules.items())
               if key == "klehmer" or key.startswith("klehmer.")]
    saved = []
    try:
        for (name, _, attr, measure), original in zip(TRACED, originals):
            wrapper = tracer.wrap(name, original, measure)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _children(spans) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            kids[span[3]].append(i)
    return kids


def busy(spans, name: str) -> float:
    """Time covered by spans of one name (nested repeats counted once)."""
    return covered([(s[1], s[2]) for s in spans if s[0] == name])


def self_time(spans, names, minus=None) -> float:
    """Total duration of spans named in `names` minus the time their
    descendants named in `minus` (all descendants if None) cover."""
    kids = _children(spans)
    total = 0.0
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        below = []
        todo = list(kids[i])
        while todo:
            j = todo.pop()
            if minus is None or spans[j][0] in minus:
                below.append((spans[j][1], spans[j][2]))
            todo.extend(kids[j])
        total += span[2] - span[1] - covered(below)
    return total


def calls(spans, name: str) -> int:
    return sum(1 for s in spans if s[0] == name)


def measured(spans, name: str) -> list:
    return [s[5] for s in spans if s[0] == name and s[5] is not None]
