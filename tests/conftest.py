"""Shared independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths: totients
come from the classic in-place divisor sieve, primality from a boolean
sieve, factorizations from plain trial division.  Library results are
always compared against these, never against themselves.  The
exceptions, ``swap_arith`` and the ``factorize_calls`` fixture built on
it, watch the library's own factorize and is_prime calls.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest


def sieve_phi(limit: int) -> np.ndarray:
    """phi(0..limit) via the in-place phi[p::p] -= phi[p::p]//p sieve."""
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    return phi


def sieve_prime_mask(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def sieve_spf(limit: int) -> np.ndarray:
    """Smallest prime factor of 0..limit (0 for n < 2)."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if spf[p] == 0:
            view = spf[p::p]
            view[view == 0] = p
    return spf


# Alpha-table rows (k, alpha(k), omega), up to the 128-bit alpha(9).
ALPHA_ROWS = (
    (1, 561, 3),
    (2, 2821, 3),
    (3, 838201, 4),
    (4, 41471521, 5),
    (5, 45496270561, 6),
    (6, 776388344641, 7),
    (7, 344361421401361, 8),
    (8, 375097930710820681, 9),
    (9, 330019822807208371201, 10),
)


def trial_factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def factors_from_spf(n: int, spf: np.ndarray) -> dict[int, int]:
    out: dict[int, int] = {}
    while n > 1:
        p = int(spf[n])
        out[p] = out.get(p, 0) + 1
        n //= p
    return out


def index_oracle(n: int, phi: int, k_cap: int = 200) -> int | None:
    """Least k with phi | (n-1)^k by exact big-integer powering."""
    if phi == 1:
        return 1
    for k in range(1, k_cap + 1):
        if (n - 1) ** k % phi == 0:
            return k
    return None


@pytest.fixture(scope="session")
def phi_100k() -> np.ndarray:
    return sieve_phi(100_000)


@pytest.fixture(scope="session")
def prime_mask_200k() -> np.ndarray:
    return sieve_prime_mask(200_000)


@pytest.fixture(scope="session")
def spf_200k() -> np.ndarray:
    return sieve_spf(200_000)


def swap_arith(monkeypatch, attr: str, wrapper) -> None:
    """Route every call of ``klehmer.arith.<attr>`` (factorize, is_prime)
    through ``wrapper(original, n)``, wherever the name is bound.

    Like the benchmark's tracer, this swaps the name in every loaded
    klehmer module, so calls routed through arith's helpers count too.
    """
    from klehmer import arith

    original = getattr(arith, attr)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "klehmer" and module.__dict__.get(attr) is original:
            monkeypatch.setattr(module, attr, lambda n: wrapper(original, n))


@pytest.fixture
def factorize_calls(monkeypatch) -> list[int]:
    """The argument of every factorize call, in order."""
    calls: list[int] = []

    def recording(original, n):
        calls.append(int(n))
        return original(n)

    swap_arith(monkeypatch, "factorize", recording)
    return calls
