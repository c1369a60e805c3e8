"""Classification of integers by the k-Lehmer property phi(n) | (n-1)^k.

Membership predicates for the sets L_k and L_inf, Carmichael-number
tests, Chernick's product construction, Fermat-pseudoprime bases, and
segmented sieves that reproduce the counting tables C_k(10^j) and the
alpha sequence (least Carmichael number outside L_k) at bulk scale.
"""

from .arith import *
from .carmichael import *
from .lehmer import *

from . import arith, carmichael, lehmer

# Loaded on first use: the sieve imports numpy, which the per-number API
# never needs, and `python -m klehmer.cli` warns if cli is imported.
_LAZY = {
    **dict.fromkeys(("ClassificationReport", "classification_report", "emit_bfile"), "cli"),
    **dict.fromkeys((
        "CountTable", "classify_range", "count_table", "enumerate_Lk_composites",
        "enumerate_carmichael", "alpha_search",
    ), "sieve"),
}

__all__ = [
    *arith.__all__,
    *carmichael.__all__,
    *lehmer.__all__,
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
