"""Carmichael-number tests and constructions.

Three equivalent characterizations of Carmichael numbers are exposed
side by side: Korselt's squarefree divisibility criterion, the
lambda-divides test, and the radical variant that trades the explicit
squarefree condition for rad(phi(n)) | n-1.  On composite input they
agree everywhere (the suite checks this exhaustively); primes and 1
are never Carmichael and return False from all three.

Also here: the Chernick product construction with its Lehmer-index
classification, the explicit Fermat-pseudoprime base that every
composite member of L_inf admits, and the direct check of a claimed
alpha(k) entry (a Carmichael number outside L_k) from one factorization,
with the record and errors that the sieve's alpha search shares.
"""

from __future__ import annotations

from .arith import (
    MAX_NATURAL,
    FactoredInteger,
    _Record,
    _as_natural,
    _coerce_factored,
    carmichael_lambda,
    factorize,
    is_prime,
    mod_pow,
    radical,
)
from .lehmer import LehmerIndex, lehmer_index

__all__ = [
    "ChernickCandidate",
    "CarmichaelVerdict",
    "AlphaRecord",
    "AlphaNotFound",
    "VerificationFailure",
    "NotCarmichaelError",
    "LehmerMembershipError",
    "korselt_test",
    "lambda_test",
    "radical_korselt_test",
    "carmichael_verdict",
    "chernick",
    "chernick_factors",
    "pseudoprime_base",
    "fermat_test",
    "verify_alpha_entry",
]


class VerificationFailure(Exception):
    """A claimed alpha-table property did not hold."""


class NotCarmichaelError(VerificationFailure):
    """The value under verification is not a Carmichael number."""


class LehmerMembershipError(VerificationFailure):
    """The value under verification lies in L_k although it must not."""


class CarmichaelVerdict(_Record):
    """The three characterizations evaluated on one n."""

    n: int
    korselt: bool
    lambda_divides: bool
    radical_korselt: bool

    @property
    def unanimous(self) -> bool:
        return self.korselt == self.lambda_divides == self.radical_korselt


class ChernickCandidate(_Record):
    """U_k(m) = (6m+1)(12m+1) * prod_{i=1..k-2} (9*2^i*m + 1), classified.

    ``guaranteed_index_k`` marks the cases (all factors prime, 2^(k-4) | m,
    m not a power of two) where the construction is guaranteed to land in
    L_k but not L_{k-1}; ``observed_index`` is only computed when every
    factor is prime.
    """

    k: int
    m: int
    factors: tuple[int, ...]
    value: int
    all_prime: bool
    divisibility_ok: bool
    is_carmichael: bool
    guaranteed_index_k: bool
    observed_index: LehmerIndex | None


class AlphaRecord(_Record):
    """A Carmichael number outside L_k: alpha(k) when found by search.

    ``bound`` is the exhaustive search limit, or 0 when the value was
    checked directly (direct checks do not establish minimality).
    """

    k: int
    n: int
    omega: int
    in_next: bool
    bound: int


class AlphaNotFound(_Record):
    """Search outcome: no Carmichael number outside L_k up to ``bound``."""

    k: int
    bound: int


def korselt_test(n) -> bool:
    """Korselt's criterion: n composite, squarefree, p-1 | n-1 for p | n."""
    f = _coerce_factored(n)
    if not f.is_composite or not f.is_squarefree:
        return False
    return all((f.value - 1) % (p - 1) == 0 for p in f.primes())


def lambda_test(n) -> bool:
    """Carmichael's criterion: n composite and lambda(n) | n-1."""
    f = _coerce_factored(n)
    return f.is_composite and (f.value - 1) % carmichael_lambda(f) == 0


def radical_korselt_test(n) -> bool:
    """n composite, rad(phi(n)) | n-1 and p-1 | n-1 for every p | n.

    No explicit squarefree check: rad(phi(n)) | n-1 already forces
    gcd(n, phi(n)) = 1 and with it squarefreeness.
    """
    f = _coerce_factored(n)
    if not f.is_composite:
        return False
    nm1 = f.value - 1
    if nm1 % radical(f.totient) != 0:
        return False
    return all(nm1 % (p - 1) == 0 for p in f.primes())


def carmichael_verdict(n) -> CarmichaelVerdict:
    f = _coerce_factored(n)
    return CarmichaelVerdict(
        f.value, korselt_test(f), lambda_test(f), radical_korselt_test(f)
    )


def chernick_factors(k: int, m: int) -> tuple[int, ...]:
    """The factor list (6m+1, 12m+1, 9*2*m+1, ..., 9*2^(k-2)*m+1)."""
    k = _as_natural(k, minimum=3, name="k")
    m = _as_natural(m, minimum=1, name="m")
    coeffs = [6, 12] + [9 << i for i in range(1, k - 1)]
    return tuple(c * m + 1 for c in coeffs)


def chernick(k: int, m: int) -> ChernickCandidate:
    """Build and classify the Chernick candidate U_k(m).

    Raises OverflowError when the product leaves the 127-bit domain.
    """
    k = _as_natural(k, minimum=3, name="k")
    m = _as_natural(m, minimum=1, name="m")
    # Every factor is at least 7 and 7^46 > 2^127, so a larger k overflows;
    # raising first spares building its factor list, quadratic in k.
    if k > 45:
        raise OverflowError(f"U_{k}({m}) exceeds 2**127 - 1")
    factors = chernick_factors(k, m)
    value = 1
    for f in factors:
        value *= f
        if value > MAX_NATURAL:
            raise OverflowError(f"U_{k}({m}) exceeds 2**127 - 1")
    all_prime = all(is_prime(f) for f in factors)
    # Factor each factor, not the product; two factors can share a prime.
    counts: dict[int, int] = {}
    for f in factors:
        for p, e in ((f, 1),) if all_prime else factorize(f):
            counts[p] = counts.get(p, 0) + e
    n = FactoredInteger(value, tuple(sorted(counts.items())))
    divisibility_ok = k <= 4 or m % (1 << (k - 4)) == 0
    power_of_two = m & (m - 1) == 0
    return ChernickCandidate(
        k=k,
        m=m,
        factors=factors,
        value=value,
        all_prime=all_prime,
        divisibility_ok=divisibility_ok,
        is_carmichael=korselt_test(n),
        guaranteed_index_k=all_prime and divisibility_ok and not power_of_two,
        observed_index=lehmer_index(n) if all_prime else None,
    )


def pseudoprime_base(n) -> int:
    """The base b = 2^(phi(n)/rad(phi(n))) mod n for composite n in L_inf.

    Fermat's congruence b^(n-1) = 1 (mod n) is guaranteed for this b.  For
    some n the construction degenerates to b = 1 (e.g. n = 15); the value
    is returned verbatim, callers may flag b in {1, n-1} themselves.
    """
    f = _coerce_factored(n)
    n = f.value
    if not f.is_composite:
        raise ValueError(f"n = {n} must be composite")
    r = radical(f.totient)
    if (n - 1) % r != 0:
        raise ValueError(f"n = {n} is not in L_inf")
    return mod_pow(2, f.totient.value // r, n)


def fermat_test(n, b) -> bool:
    """True iff b^(n-1) = 1 (mod n)."""
    n = _as_natural(n, minimum=2)
    b = _as_natural(b, name="b")
    return pow(b, n - 1, n) == 1


def _alpha_record(k: int, f: FactoredInteger, bound: int) -> AlphaRecord | None:
    """The record of the Carmichael number f for k, or None if f is in L_k."""
    idx = lehmer_index(f)
    if idx <= k:
        return None
    return AlphaRecord(k=k, n=f.value, omega=f.omega(), in_next=idx <= k + 1, bound=bound)


def verify_alpha_entry(k: int, n) -> AlphaRecord:
    """Check a claimed alpha(k) value directly, with no search.

    Confirms (from n's factorization, the only one it needs) that n is a
    Carmichael number and not in L_k, and reports its distinct-prime count
    and whether it lands in L_{k+1}.  Minimality is NOT established;
    ``bound`` is 0 to say so.  Failures raise NotCarmichaelError /
    LehmerMembershipError.
    """
    k = _as_natural(k, minimum=1, name="k")
    f = factorize(n)
    if not korselt_test(f):
        raise NotCarmichaelError(f"{f.value} fails Korselt's criterion")
    record = _alpha_record(k, f, bound=0)
    if record is None:
        raise LehmerMembershipError(f"{f.value} lies in L_{k}")
    return record
