"""Tests of the benchmark's own helpers: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import oracle
import run
import spans
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def test_tail_level_is_highest_with_ten_samples_beyond():
    assert run.tail_level(list(range(1000))) == 0.99
    assert run.beyond(list(range(1000)), 0.99) == 10
    assert run.tail_level(list(range(999))) == 0.95
    assert run.tail_level(list(range(2000))) == 0.995
    assert run.tail_level(list(range(10))) is None
    assert run.nearest_rank([5.0, 1.0, 3.0], 0.5) == 3.0
    assert run.nearest_rank([5.0, 1.0, 3.0], 0.99) == 5.0


def test_self_time_subtracts_time_covered_by_children():
    recorded = [
        ["parent", 0.0, 10.0, -1, 0, None],
        ["child", 1.0, 3.0, 0, 0, None],
        ["child", 2.0, 5.0, 0, 0, None],  # overlaps the first child
        ["grandchild", 2.5, 4.0, 2, 0, None],  # inside a child, counted once
        ["other", 6.0, 7.0, 0, 0, None],
    ]
    assert spans.covered([(1.0, 3.0), (2.0, 5.0), (2.5, 4.0)]) == 4.0
    assert spans.self_time(recorded, {"parent"}) == 5.0
    assert spans.self_time(recorded, {"parent"}, {"child"}) == 6.0
    assert spans.self_time(recorded, {"parent"}, {"grandchild"}) == 8.5
    assert spans.busy(recorded, "child") == 4.0
    assert spans.calls(recorded, "child") == 2


def test_instrument_records_nested_spans_and_restores_names():
    import klehmer.cli
    import klehmer.lehmer

    original = klehmer.lehmer.factorize
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert klehmer.lehmer.factorize is not original
        klehmer.cli.lehmer_index(561)
    assert klehmer.lehmer.factorize is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "lehmer.lehmer_index"
    assert names.count("arith.factorize") == 2
    assert all(s[3] == 0 for s in tracer.spans if s[0] == "arith.factorize")


def test_classify_generator_is_deterministic_per_seed():
    def first(seed):
        return list(itertools.islice(workloads.classify_inputs(seed), 66))

    assert first(7) == first(7)
    assert first(7) != first(8)
    items = first(7)
    assert [items[20], items[42], items[64]] == list(oracle.ALPHA_ROWS[:3])
    assert [items[21][0], items[43][0], items[65][0]] == [561, 2821, 838201]
    for item in items:
        if len(item) == 2:
            n, factors = item
            assert n == math.prod(p**e for p, e in factors)
            assert all(oracle.is_prime_u32(p) for p, _ in factors)


def _reference_csv() -> str:
    lines = ["k,X,count"]
    for k, row in oracle.COUNT_REFERENCE.items():
        lines += [f"{k},{10**j},{c}" for j, c in enumerate(row, start=1)]
    return "\n".join(lines) + "\n"


def test_count_gate_rejects_one_count_off_by_one():
    good = _reference_csv()
    assert oracle.check_count_csv(good) == []
    bad = good.replace("3,100000,9714", "3,100000,9715")
    assert bad != good
    assert oracle.check_count_csv(bad) == ["C_3(10^5) = 9715, expected 9714"]


def test_classify_gate_recomputes_from_known_factors():
    n, factors = 561, ((3, 1), (11, 1), (17, 1))
    payload = {
        "n": "561", "factorization": [["3", 1], ["11", 1], ["17", 1]],
        "phi": "320", "lambda": "80", "rad_phi": "10", "lehmer_index": 2,
        "is_carmichael": True, "pseudoprime_base": str(pow(2, 32, 561)),
        "base_degenerate": False,
    }
    assert oracle.check_classify_json(json.dumps(payload), n, factors) == []
    payload["lehmer_index"] = 3
    assert oracle.check_classify_json(json.dumps(payload), n, factors) != []


def test_instrument_wraps_names_in_any_loaded_klehmer_module():
    import types

    import klehmer.arith

    module = types.ModuleType("klehmer._elsewhere")
    module.factorize = klehmer.arith.factorize
    sys.modules[module.__name__] = module
    try:
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            module.factorize(15)
        assert module.factorize is klehmer.arith.factorize
        assert spans.calls(tracer.spans, "arith.factorize") == 1
    finally:
        del sys.modules[module.__name__]


def test_layer_checks_fail_on_a_bypass_broken_or_a_layer_gone():
    seen = [["sieve.count_table", 0.0, 2.0, -1, 0, None],
            ["sieve.totient_sieve", 0.0, 1.0, 0, 0, None]]
    assert run.layer_checks("count-1e7", seen) == (3, [])
    ran, errors = run.layer_checks("count-1e7", seen[:1])  # the sieve was inlined away
    assert errors == ["count-1e7 layer check: sieve.totient_sieve calls = 0, expected > 0"]
    ran, errors = run.layer_checks(
        "count-1e7", seen + [["arith.factorize", 0.5, 0.6, 1, 0, None]])
    assert errors == ["count-1e7 bypass check: arith.factorize calls = 1, expected 0"]
    ran, errors = run.layer_checks("classify", seen)
    assert ran == 4 and len(errors) == 4


def test_every_workload_and_pass_has_layer_checks():
    assert set(run.BYPASS) == set(run.REQUIRED) == set(workloads.WORKLOADS) | {"classify"}


def test_tail_check_fails_a_classify_pass_short_of_p99_samples():
    assert run.tail_check(run.Window(op_times=[0.001] * 1000)) == (1, [])
    ran, errors = run.tail_check(run.Window(op_times=[0.001] * 999))
    assert ran == 1 and errors


def test_bulk_rate_comes_from_the_median_operation():
    window = run.Window(op_times=[1.0, 2.0, 10.0], values=30)
    assert run.values_per_s(window) == 5.0
