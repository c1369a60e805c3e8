"""Membership predicates for the sets L_k = {n : phi(n) | (n-1)^k}.

The composite members of L_1 would be Lehmer's elusive totient-divisor
numbers; for k >= 2 the sets have plenty of composite members (561 is the
first in L_2).  L_inf = union of all L_k consists exactly of the n with
rad(phi(n)) | n-1, and the least qualifying k is the Lehmer index.

The index is computed one way, as the bulk sieve does: from phi(n) alone,
which needs only n's primes, by a power certificate and then iterated
multiplication (n-1)^k mod phi(n).  `lehmer_index`, `in_Lk` and `in_Linf`
all answer through it.  `in_Lk_valuation` keeps the valuation formula on
the factorization of phi(n) as an independent oracle for the test suite.
"""

from __future__ import annotations

import math

from .arith import (FactoredInteger, _Record, _as_natural, _coerce_factored, _vp,
                    euler_phi, factorize, is_prime)

__all__ = [
    "K_CAP",
    "LehmerIndex",
    "NOT_IN_LINF",
    "SemiprimeDecomposition",
    "FamilyPairResult",
    "FamilyParityError",
    "FamilyPrimalityError",
    "lehmer_index",
    "in_Lk",
    "in_Lk_valuation",
    "in_Linf",
    "is_cyclic",
    "semiprime_decompose",
    "semiprime_in_Lk",
    "fermat_family_pair",
]

# A finite index never exceeds log2(phi(n)) < 127 on this domain, so
# membership in L_k for any k above the cap is membership in L_inf.
K_CAP = 127


class LehmerIndex(_Record):
    """Least k with phi(n) | (n-1)^k, or the marker for "no such k"."""

    k: int | None

    @classmethod
    def finite(cls, k: int) -> "LehmerIndex":
        if k < 1:
            raise ValueError("a finite Lehmer index is a positive integer")
        return _INDEXES[k] if k <= K_CAP else cls(k)

    @property
    def is_finite(self) -> bool:
        return self.k is not None

    def __le__(self, bound: int) -> bool:
        return self.k is not None and self.k <= bound

    def __str__(self) -> str:
        return "not in L_inf" if self.k is None else f"L_{self.k}"


NOT_IN_LINF = LehmerIndex(None)

# Entry k is the index k for k = 1..K_CAP, and entry 0 is NOT_IN_LINF, as
# in the bulk path's index arrays: LehmerIndex.finite and classify_range
# look an index up here rather than construct one.
_INDEXES = (NOT_IN_LINF, *map(LehmerIndex, range(1, K_CAP + 1)))


class FamilyParityError(ValueError):
    """Exponent gap M - N of a 3*2^r + 1 pair must be odd."""


class FamilyPrimalityError(ValueError):
    """A requested 3*2^r + 1 family member is composite."""


class SemiprimeDecomposition(_Record):
    """The normalized shape p = 2^a*d*alpha + 1, q = 2^b*d*beta + 1.

    d, alpha, beta odd with gcd(alpha, beta) = 1, which forces
    d = gcd(oddpart(p-1), oddpart(q-1)); inputs are swapped so a <= b.
    """

    p: int
    q: int
    a: int
    b: int
    d: int
    alpha: int
    beta: int


class FamilyPairResult(_Record):
    """A product of two primes 3*2^N + 1 and 3*2^M + 1 with its index K."""

    N: int
    M: int
    pN: int
    pM: int
    n: int
    K: int


def lehmer_index(n) -> LehmerIndex:
    """Least k with phi(n) | (n-1)^k, from phi(n) alone.

    Every prime exponent of phi(n) is at most cut = bitlength(phi) - 1,
    and so is a finite index: (n-1)^cut mod phi(n) is nonzero exactly when
    n lies outside L_inf.  Otherwise the index is the first k at which
    (n-1)^k mod phi(n), one multiplication at a time, reaches 0.
    phi = 1 (n = 1, 2) divides everything, so those n land in L_1.
    """
    f = _coerce_factored(n)
    phi = euler_phi(f)
    base = (f.value - 1) % phi
    if pow(base, max(phi.bit_length() - 1, 1), phi):
        return NOT_IN_LINF
    return LehmerIndex.finite(_power_index(base, phi))


def _power_index(base: int, phi: int) -> int:
    """Least k >= 1 with base^k = 0 (mod phi), for 0 <= base < phi: one
    multiplication at a time, to the first zero.  A finite index is below
    bitlength(phi), so the loop stops there and gives 0 when base has none,
    which a member never does.  The bulk path runs its certified members
    through it as well; a wrong totient there reads 0, not a hang."""
    acc = base
    for k in range(1, phi.bit_length() + 1):
        if not acc:
            return k
        acc = acc * base % phi
    return 0


def in_Lk_valuation(n, k: int) -> bool:
    """Membership n in L_k from the valuations over phi(n)'s factorization.

    The index is the max over primes p | phi(n) of ceil(v_p(phi) / v_p(n-1)),
    or none when some such p misses n - 1; n = 1 lands in L_1 through
    v_p(0) = +inf.  This factors every p - 1 (``f.totient``), and is kept
    as the oracle that the tests compare lehmer_index against.
    """
    f = _coerce_factored(n)
    k = _as_natural(k, minimum=1, name="k")
    nm1 = f.value - 1
    index = 1
    for p, e in f.totient.factors:
        v = _vp(nm1, p)
        if v == 0:
            return False
        if v is not math.inf:
            index = max(index, -(-e // v))
    return index <= k


def in_Lk(n, k: int) -> bool:
    """True iff phi(n) divides (n-1)^k, decided by lehmer_index."""
    k = _as_natural(k, minimum=1, name="k")
    return lehmer_index(n) <= k


def in_Linf(n) -> bool:
    """True iff phi(n) divides some (n-1)^k, i.e. rad(phi(n)) | n - 1."""
    return lehmer_index(n).is_finite


def is_cyclic(n) -> bool:
    """True iff gcd(n, phi(n)) = 1 (such n are squarefree)."""
    f = _coerce_factored(n)
    return math.gcd(f.value, euler_phi(f)) == 1


def semiprime_decompose(p, q) -> SemiprimeDecomposition:
    """Normalized decomposition of two distinct odd primes.

    Writes p - 1 = 2^a * d * alpha and q - 1 = 2^b * d * beta with odd
    coprime alpha, beta and odd d; the pair is swapped when needed so
    that a <= b (ties broken by p < q, making the result order-free).
    """
    p = _as_natural(p, minimum=3, name="p")
    q = _as_natural(q, minimum=3, name="q")
    if p == q:
        raise ValueError("p and q must be distinct")
    if p % 2 == 0 or q % 2 == 0:
        raise ValueError("p and q must be odd")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    a = ((p - 1) & (1 - p)).bit_length() - 1
    b = ((q - 1) & (1 - q)).bit_length() - 1
    if a > b or (a == b and p > q):
        p, q, a, b = q, p, b, a
    odd_p = (p - 1) >> a
    odd_q = (q - 1) >> b
    d = math.gcd(odd_p, odd_q)
    return SemiprimeDecomposition(p, q, a, b, d, odd_p // d, odd_q // d)


def semiprime_in_Lk(dec: SemiprimeDecomposition, k: int) -> bool:
    """Criterion for pq in L_k (k >= 2): a+b <= k*a and alpha*beta | d^(k-2).

    The divisibility is checked prime-by-prime on valuations, never by
    expanding d^(k-2).  The coprime alpha and beta are factored apart:
    their product can be a balanced semiprime even when each is prime.
    """
    k = _as_natural(k, minimum=2, name="k")
    if dec.a + dec.b > k * dec.a:
        return False
    for part in (dec.alpha, dec.beta):
        for r, e in factorize(part).factors:
            if e > (k - 2) * _vp(dec.d, r):
                return False
    return True


def fermat_family_pair(N: int, M: int) -> FamilyPairResult:
    """Product of the primes 3*2^N + 1 and 3*2^M + 1 with predicted index.

    After normalizing N < M the exponent gap must be odd and both family
    members prime; then n = pN * pM has Lehmer index exactly
    K = min{k : k*N >= M + N} = 1 + ceil(M / N), which is re-verified
    by lehmer_index on the known factorization before returning.
    """
    N = _as_natural(N, minimum=1, name="N")
    M = _as_natural(M, minimum=1, name="M")
    if N == M:
        raise ValueError("N and M must differ")
    if N > M:
        N, M = M, N
    pN = 3 * (1 << N) + 1
    pM = 3 * (1 << M) + 1
    _as_natural(pM, name="3*2^M + 1")
    for r, pr in ((N, pN), (M, pM)):
        if not is_prime(pr):
            raise FamilyPrimalityError(f"3*2^{r} + 1 = {pr} is not prime")
    if (M - N) % 2 == 0:
        raise FamilyParityError(f"M - N = {M - N} must be odd")
    n = _as_natural(pN * pM, name="pN*pM")
    K = 1 + -(-M // N)
    observed = lehmer_index(FactoredInteger(n, ((pN, 1), (pM, 1))))
    if observed != LehmerIndex.finite(K):
        raise ArithmeticError(
            f"index of {n} is {observed}, expected L_{K}"
        )  # would indicate a bug, not bad input
    return FamilyPairResult(N, M, pN, pM, n, K)
