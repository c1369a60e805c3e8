"""Exact integer arithmetic on naturals below 2**127.

Primality, factorization, the multiplicative functions phi / lambda / rad,
p-adic valuations and modular exponentiation.  Everything here is a pure,
deterministic function of its inputs: the same value factors the same way
on every run, so downstream classifications are reproducible.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "MAX_NATURAL",
    "LimitExceededError",
    "FactoredInteger",
    "is_prime",
    "factorize",
    "euler_phi",
    "carmichael_lambda",
    "radical",
    "valuation",
    "mod_pow",
]

# Upper bound of the supported domain.  Wide enough for a product of two
# 64-bit values, and for every alpha-sequence entry handled here.
MAX_NATURAL = 2**127 - 1


class LimitExceededError(Exception):
    """Requested bound is above the allowed maximum."""


# Witness policy: below each bound, the listed Miller-Rabin bases decide
# primality with no error (Jaeschke / Sinclair verified sets, cf. OEIS
# A014233).  Above 2**64 there is no fixed proven set; a base-2 strong
# probable prime test combined with a strong Lucas test (Selfridge
# parameters) is used instead, which has no known composite passing it.
# is_prime settles every n < 67^2 by trial division before it reads this.
_WITNESS_TIERS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (1 << 64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def _sieve_small_primes(limit: int) -> tuple[int, ...]:
    bs = bytearray(b"\x01") * (limit + 1)
    bs[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if bs[p]:
            start = p * p
            bs[start :: p] = b"\x00" * (((limit - start) // p) + 1)
    return tuple(i for i in range(2, limit + 1) if bs[i])


# Trial-division base for factorize(); fully factors anything < 4096**2.
_SMALL_PRIMES = _sieve_small_primes(4096)


def _as_natural(x, minimum: int = 0, name: str = "n") -> int:
    """Coerce to a plain int and check the [minimum, 2**127 - 1] domain."""
    n = operator.index(x)
    if n < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {n}")
    if n > MAX_NATURAL:
        raise ValueError(f"{name} exceeds 2**127 - 1")
    return n


@dataclass(frozen=True)
class FactoredInteger:
    """An integer together with its full prime factorization.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes whose product recomposes ``value``; 1 carries an
    empty tuple.  Construct via :func:`factorize` rather than by hand.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _as_natural(self.value, minimum=1, name="value")
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("factor primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be positive")
            if not is_prime(p):
                raise ValueError(f"listed factor {p} is not prime")
            prod *= p**e
            last = p
        if prod != self.value:
            raise ValueError(f"factors recompose to {prod}, not {self.value}")

    def omega(self) -> int:
        """Number of distinct prime factors (d(n))."""
        return len(self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    @property
    def is_prime(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1

    @property
    def is_composite(self) -> bool:
        return self.value > 1 and not self.is_prime

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @cached_property
    def totient(self) -> "FactoredInteger":
        """phi(n) factored, merged from p^(e-1) and the primes of p - 1
        over p^e || n, so phi(n) itself never reaches factorize."""
        counts: dict[int, int] = {}
        for p, e in self.factors:
            if e > 1:
                counts[p] = counts.get(p, 0) + e - 1
            for q, d in factorize(p - 1).factors:
                counts[q] = counts.get(q, 0) + d
        return FactoredInteger(euler_phi(self), tuple(sorted(counts.items())))

    def __iter__(self):
        return iter(self.factors)


def _strong_probable_prime(n: int, base: int) -> bool:
    a = base % n
    if a == 0:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    # n odd and positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    # Selfridge parameter search: first D in 5, -7, 9, -11, ... with
    # Jacobi(D, n) = -1; requires n to be a non-square odd integer.
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and n != abs(D):
            return False
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4

    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    # Lucas chain for U_d, V_d mod n; halving steps add n to keep them even.
    U, V, Qk = 0, 2, 1
    for bit in bin(d)[2:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            t = U + V
            if t & 1:
                t += n
            u_next = (t >> 1) % n
            t = D * U + V
            if t & 1:
                t += n
            U, V = u_next, (t >> 1) % n
            Qk = Qk * Q % n

    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_prime(n) -> bool:
    """Primality test, deterministic below 2**64.

    Below 2**64 the witness tiers above give a proven answer; above,
    the base-2 strong test plus a strong Lucas test is applied (no
    composite number is known to fool the combination).
    """
    n = _as_natural(n)
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 67 * 67:
        return True
    if n < 1 << 64:
        for bound, witnesses in _WITNESS_TIERS:
            if n < bound:
                return all(_strong_probable_prime(n, a) for a in witnesses)
    if not _strong_probable_prime(n, 2):
        return False
    r = math.isqrt(n)
    if r * r == n:
        return False
    return _strong_lucas_probable_prime(n)


def _pollard_brent(n: int, c: int) -> int | None:
    """One Brent-cycle attempt at a nontrivial factor of odd composite n.

    Iterates x -> x^2 + c (mod n) from x = 2 with batched gcds; returns a
    proper factor or None if this c fails.  Fully deterministic.
    """
    y, r, q = 2, 1, 1
    g = 1
    x = ys = y
    m = 128
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += m
        r <<= 1
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g if g != n else None


def _split_composite(n: int) -> int:
    """Some nontrivial factor of a composite n with no small prime factor."""
    r = math.isqrt(n)
    if r * r == n:
        return r
    # Fixed retry schedule c = 1, 2, 3, ... keeps runs reproducible.
    for c in range(1, 200):
        g = _pollard_brent(n, c)
        if g is not None and 1 < g < n:
            return g
    raise ArithmeticError(f"failed to split {n}")  # unreachable in practice


def factorize(n) -> FactoredInteger:
    """Full prime factorization.

    Trial division by primes < 4096, then Brent's cycle-finding rho on
    whatever survives, recursing until all cofactors pass is_prime.
    Rejects 0; factorize(1) has an empty factor list.
    """
    n = _as_natural(n, minimum=1)
    counts: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            counts[p] = e
    if m > 1:
        if m < _SMALL_PRIMES[-1] ** 2:
            counts[m] = counts.get(m, 0) + 1
        else:
            stack = [m]
            while stack:
                c = stack.pop()
                if is_prime(c):
                    counts[c] = counts.get(c, 0) + 1
                    continue
                g = _split_composite(c)
                stack.append(g)
                stack.append(c // g)
    return FactoredInteger(n, tuple(sorted(counts.items())))


def _coerce_factored(f) -> FactoredInteger:
    if isinstance(f, FactoredInteger):
        return f
    return factorize(f)


def euler_phi(f) -> int:
    """Euler's totient from a factorization (plain ints are factorized)."""
    f = _coerce_factored(f)
    out = 1
    for p, e in f.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def carmichael_lambda(f) -> int:
    """Carmichael's function: lambda(2)=1, lambda(4)=2, lambda(2^k)=2^(k-2)
    for k >= 3, lambda(p^k)=phi(p^k) for odd p, lcm over prime powers."""
    f = _coerce_factored(f)
    parts = []
    for p, e in f.factors:
        if p == 2:
            parts.append(1 if e == 1 else 2 if e == 2 else 1 << (e - 2))
        else:
            parts.append(p ** (e - 1) * (p - 1))
    return math.lcm(*parts)


def radical(f) -> int:
    """Squarefree kernel: product of the distinct primes."""
    f = _coerce_factored(f)
    out = 1
    for p, _ in f.factors:
        out *= p
    return out


def _vp(n: int, p: int) -> int | float:
    """p-adic valuation with no primality re-check; v_p(0) = +inf."""
    if n == 0:
        return math.inf
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def valuation(n, p) -> int | float:
    """Largest e with p^e | n, for prime p; valuation(0, p) = +inf.

    The infinity convention makes n = 1 (where n - 1 = 0) fall out of the
    Lehmer-index formulas without a special case.
    """
    n = _as_natural(n)
    p = _as_natural(p, minimum=2, name="p")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return _vp(n, p)


def mod_pow(base, exponent, modulus) -> int:
    """base**exponent mod modulus, exact for the full 127-bit domain."""
    base = _as_natural(base, name="base")
    exponent = _as_natural(exponent, name="exponent")
    modulus = _as_natural(modulus, minimum=1, name="modulus")
    return pow(base, exponent, modulus)
