"""Classification of integers by the k-Lehmer property phi(n) | (n-1)^k.

Membership predicates for the sets L_k and L_inf, Carmichael-number
tests, Chernick's product construction, Fermat-pseudoprime bases, and
segmented sieves that reproduce the counting tables C_k(10^j) and the
alpha sequence (least Carmichael number outside L_k) at bulk scale.
"""

from .arith import *
from .carmichael import *
from .lehmer import *
from .sieve import *

from . import arith, carmichael, lehmer, sieve

_CLI_NAMES = ("ClassificationReport", "classification_report", "emit_bfile")

__all__ = [
    *arith.__all__,
    *carmichael.__all__,
    *_CLI_NAMES,
    *lehmer.__all__,
    *sieve.__all__,
]

__version__ = "0.1.0"


def __getattr__(name):
    # Loaded on first use: `python -m klehmer.cli` warns if it is imported.
    if name not in _CLI_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import cli
    return getattr(cli, name)
