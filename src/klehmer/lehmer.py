"""Membership predicates for the sets L_k = {n : phi(n) | (n-1)^k}.

The composite members of L_1 would be Lehmer's elusive totient-divisor
numbers; for k >= 2 the sets have plenty of composite members (561 is the
first in L_2).  L_inf = union of all L_k consists exactly of the n with
rad(phi(n)) | n-1, and the least qualifying k is the Lehmer index.

Two independent membership routes are exposed: a valuation comparison on
the factorizations (`in_Lk_valuation`) and iterated modular multiplication
(`in_Lk_modular`).  They are cross-checked in the test suite and `in_Lk`
answers via the valuation route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import (FactoredInteger, _as_natural, _coerce_factored, _vp, euler_phi,
                    factorize, is_prime, radical)

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
    "in_Lk_modular",
    "in_Linf",
    "is_cyclic",
    "semiprime_decompose",
    "semiprime_in_Lk",
    "fermat_family_pair",
]

# A finite index never exceeds log2(phi(n)) < 127 on this domain, so any
# request with k above the cap is answered as an L_inf question.
K_CAP = 127


@dataclass(frozen=True)
class LehmerIndex:
    """Least k with phi(n) | (n-1)^k, or the marker for "no such k"."""

    k: int | None

    @classmethod
    def finite(cls, k: int) -> "LehmerIndex":
        if k < 1:
            raise ValueError("a finite Lehmer index is a positive integer")
        return cls(k)

    @property
    def is_finite(self) -> bool:
        return self.k is not None

    def __le__(self, bound: int) -> bool:
        return self.k is not None and self.k <= bound

    def __str__(self) -> str:
        return "not in L_inf" if self.k is None else f"L_{self.k}"


NOT_IN_LINF = LehmerIndex(None)


class FamilyParityError(ValueError):
    """Exponent gap M - N of a 3*2^r + 1 pair must be odd."""


class FamilyPrimalityError(ValueError):
    """A requested 3*2^r + 1 family member is composite."""


@dataclass(frozen=True)
class SemiprimeDecomposition:
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


@dataclass(frozen=True)
class FamilyPairResult:
    """A product of two primes 3*2^N + 1 and 3*2^M + 1 with its index K."""

    N: int
    M: int
    pN: int
    pM: int
    n: int
    K: int


def lehmer_index(n) -> LehmerIndex:
    """Least k with phi(n) | (n-1)^k via per-prime valuations.

    NOT_IN_LINF exactly when some prime of phi(n) misses n-1; otherwise
    the index is max over primes p | phi(n) of ceil(v_p(phi) / v_p(n-1)).
    n = 1 lands in L_1 because every power divides n - 1 = 0.
    """
    f = _coerce_factored(n)
    nm1 = f.value - 1
    k = 1
    for p, e in f.totient.factors:
        v = _vp(nm1, p)
        if v == 0:
            return NOT_IN_LINF
        if v is not math.inf:
            k = max(k, -(-e // v))
    return LehmerIndex.finite(k)


def in_Lk_valuation(n, k: int) -> bool:
    """Membership n in L_k decided from the Lehmer index."""
    f = _coerce_factored(n)
    k = _as_natural(k, minimum=1, name="k")
    if k > K_CAP:
        return in_Linf(f)
    idx = lehmer_index(f)
    return idx.is_finite and idx.k <= k


def in_Lk_modular(n, k: int) -> bool:
    """Membership n in L_k by k-fold modular multiplication.

    Computes (n-1)^k mod phi(n) one multiplication at a time and compares
    to 0; factorization-free, hence an independent check on the
    valuation route.
    """
    f = _coerce_factored(n)
    k = _as_natural(k, minimum=1, name="k")
    k = min(k, K_CAP)
    phi = euler_phi(f)
    base = (f.value - 1) % phi
    acc = base
    if acc == 0:
        return True
    for _ in range(k - 1):
        acc = acc * base % phi
        if acc == 0:
            return True
    return False


def in_Lk(n, k: int) -> bool:
    """True iff phi(n) divides (n-1)^k (k above 127 asks about L_inf)."""
    return in_Lk_valuation(n, k)


def in_Linf(n) -> bool:
    """True iff rad(phi(n)) divides n - 1."""
    f = _coerce_factored(n)
    return (f.value - 1) % radical(f.totient) == 0


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
    against the valuation route before returning.
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
