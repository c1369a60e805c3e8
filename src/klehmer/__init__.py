"""Classification of integers by the k-Lehmer property phi(n) | (n-1)^k.

Membership predicates for the sets L_k and L_inf, Carmichael-number
tests, Chernick's product construction, Fermat-pseudoprime bases, and
segmented sieves that reproduce the counting tables C_k(10^j) and the
alpha sequence (least Carmichael number outside L_k) at bulk scale.
"""

from .arith import (
    MAX_NATURAL,
    FactoredInteger,
    carmichael_lambda,
    euler_phi,
    factorize,
    is_prime,
    mod_pow,
    radical,
    valuation,
)
from .carmichael import (
    CarmichaelVerdict,
    ChernickCandidate,
    carmichael_verdict,
    chernick,
    chernick_factors,
    fermat_test,
    korselt_test,
    lambda_test,
    pseudoprime_base,
    radical_korselt_test,
)
from .lehmer import (
    K_CAP,
    NOT_IN_LINF,
    FamilyPairResult,
    FamilyParityError,
    FamilyPrimalityError,
    LehmerIndex,
    SemiprimeDecomposition,
    fermat_family_pair,
    in_Linf,
    in_Lk,
    in_Lk_valuation,
    is_cyclic,
    lehmer_index,
    semiprime_decompose,
    semiprime_in_Lk,
)
from .sieve import (
    DEFAULT_MAX_LIMIT,
    LARGE_MAX_LIMIT,
    MEMORY_ENV_VAR,
    AlphaNotFound,
    AlphaRecord,
    CountTable,
    LehmerMembershipError,
    LimitExceededError,
    MemoryBudgetError,
    NotCarmichaelError,
    SieveSegment,
    VerificationFailure,
    alpha_search,
    base_primes,
    classify_range,
    count_table,
    enumerate_carmichael,
    enumerate_Lk_composites,
    totient_sieve,
    verify_alpha_entry,
)

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
