import importlib

import pytest


@pytest.mark.parametrize("module", [
    "klehmer", "klehmer.arith", "klehmer.lehmer", "klehmer.carmichael",
    "klehmer.sieve", "klehmer.cli",
])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
