"""The benchmark's view of the library.

bench/spans.py looks up the functions it traces by name and reads fields
of the totient sieve's result, so a library change can break a traced
benchmark run while the rest of this suite stays green.  These tests
execute spans.py from its source (nothing is written under bench/) and
check both, and which commands reach the totient sieve.
"""

import importlib
import types
from pathlib import Path

import pytest

from klehmer import cli
from klehmer.sieve import _classify_scan

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves(spans):
    missing = [
        f"klehmer.{owner}.{attr}"
        for _, owner, attr, _ in spans.TRACED
        if not callable(getattr(importlib.import_module(f"klehmer.{owner}"), attr, None))
    ]
    assert missing == []


def test_sieve_figures_read_a_real_segment(spans):
    # _sieve_bytes reads SieveSegment.spf, so the field stays while it does.
    # The segment is the one a classify scan over [1000, 3001) sieves, and
    # its phi holds the totients of that window's settled members alone.
    c = next(_classify_scan([(1000, 3001)]))
    seg = c.seg
    assert seg.spf is None
    assert seg.phi.size == c.pos.size > 0
    assert spans._sieve_values(seg) == 2001
    assert spans._sieve_bytes(seg) == seg.phi.nbytes
    measure = {name: m for name, _, _, m in spans.TRACED}["sieve.totient_sieve"]
    assert measure(seg) == (2001, seg.phi.nbytes)


# bench/run.py checks these layers in traced runs (REQUIRED and BYPASS):
# the count must reach the totient sieve through the name spans.py swaps,
# and the Korselt scan and the per-number path must never call it.
# alpha-verify reaches its traced name only through the binding that
# klehmer.sieve imports from klehmer.carmichael and keeps for spans.py.
@pytest.mark.parametrize("argv, sieved", [
    (["count", "--limit", "1e3"], True),
    (["list", "--set", "carmichael", "--limit", "1e4"], False),
    (["alpha", "--k", "2", "--limit", "1e4"], False),
    (["classify", "561"], False),
    (["alpha-verify", "--k", "4", "--n", "41471521"], False),
], ids=["count", "list-carmichael", "alpha", "classify", "alpha-verify"])
def test_totient_sieve_spans_per_command(spans, capsys, argv, sieved):
    with spans.instrument(spans.Tracer()) as tracer:
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert (spans.calls(tracer.spans, "sieve.totient_sieve") > 0) == sieved
    verified = spans.calls(tracer.spans, "sieve.verify_alpha_entry")
    assert verified == (argv[0] == "alpha-verify")
