#!/usr/bin/env python3
"""Walk through the classification of a handful of interesting integers.

For each n we show the factorization, phi(n), lambda(n), rad(phi(n)),
the Lehmer index (least k with phi(n) | (n-1)^k, if any), and whether
n is a Carmichael number.  Every function below takes n or its
factorization, so each n is factored once and the result passed on.
"""

from klehmer import (
    carmichael_lambda,
    euler_phi,
    factorize,
    korselt_test,
    lehmer_index,
    pseudoprime_base,
    radical,
)

INTERESTING = [
    (15, "smallest composite in any L_k (it lands in L_3)"),
    (51, "phi = 2^5 against v_2(50) = 1 pushes the index up to 5"),
    (9, "not squarefree, so rad(phi) = 6 cannot divide 8"),
    (97, "primes always sit in L_1: phi(p) = p - 1"),
    (561, "smallest Carmichael number; member of L_2"),
    (2821, "smallest Carmichael number outside L_2"),
    (8481, "member of L_2 that is NOT Carmichael"),
    (46657, "13 * 37 * 97, the 14th composite member of L_2"),
]


def describe(n: int) -> None:
    f = factorize(n)
    phi = euler_phi(f)
    idx = lehmer_index(f)
    pretty = " * ".join(
        f"{p}^{e}" if e > 1 else str(p) for p, e in f.factors
    ) or "1"
    print(f"n = {n} = {pretty}")
    print(f"  phi = {phi}, lambda = {carmichael_lambda(f)}, "
          f"rad(phi) = {radical(f.totient)}")
    print(f"  Lehmer index: {idx}")
    print(f"  Carmichael:   {korselt_test(f)}")
    if f.is_composite and idx.is_finite:
        b = pseudoprime_base(f)
        tag = " (degenerate)" if b in (1, n - 1) else ""
        print(f"  Fermat-pseudoprime base: {b}{tag}")
    print()


if __name__ == "__main__":
    for n, why in INTERESTING:
        print(f"--- {why}")
        describe(n)
