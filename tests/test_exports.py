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


def test_package_exports_every_submodule_name_once():
    # The package's lazy table names the sieve's exports by hand; this
    # keeps it equal to sieve.__all__.
    import klehmer
    from klehmer import arith, carmichael, lehmer, sieve

    parts = [arith.__all__, carmichael.__all__, lehmer.__all__, sieve.__all__]
    names = [name for part in parts for name in part]
    assert len(set(names)) == len(names)
    cli_names = {"ClassificationReport", "classification_report", "emit_bfile"}
    assert set(klehmer.__all__) == set(names) | cli_names
    # The classify scan's building blocks stay in klehmer.sieve, unexported.
    internal = {"SieveSegment", "totient_sieve", "base_primes"}
    assert not internal & set(klehmer.__all__)
    assert all(callable(getattr(sieve, name)) for name in internal)
