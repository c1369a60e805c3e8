"""The benchmark's view of the library.

bench/spans.py looks up the functions it traces by name and reads fields
of the totient sieve's result, so a library change can break a traced
benchmark run while the rest of this suite stays green.  These tests
execute spans.py from its source (nothing is written under bench/) and
check both.
"""

import importlib
import types
from pathlib import Path

import pytest

from klehmer.sieve import totient_sieve

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


@pytest.mark.parametrize("with_spf", [False, True])
def test_sieve_figures_read_a_real_segment(spans, with_spf):
    # _sieve_bytes reads SieveSegment.spf, so the field stays while it does.
    seg = totient_sieve(1000, 3001, with_spf=with_spf)
    spf_bytes = seg.spf.nbytes if with_spf else 0
    assert spans._sieve_values(seg) == 2001
    assert spans._sieve_bytes(seg) == seg.phi.nbytes + spf_bytes
    measure = {name: m for name, _, _, m in spans.TRACED}["sieve.totient_sieve"]
    assert measure(seg) == (2001, seg.phi.nbytes + spf_bytes)
