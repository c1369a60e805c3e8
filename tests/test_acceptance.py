"""Acceptance suite: one test per exit criterion, at stated tolerances.

Every check here is exact (integer equality); the only tolerances are the
wall-clock budgets, which are asserted where stated.  Each criterion
prints a PASS line on success (visible with ``pytest -s`` or ``-rP``).
"""

import csv
import io
import math
import time

import pytest

from klehmer.arith import euler_phi, factorize, is_prime
from klehmer.carmichael import (
    carmichael_verdict,
    chernick,
    fermat_test,
    pseudoprime_base,
)
from klehmer.cli import main
from klehmer.lehmer import (
    fermat_family_pair,
    in_Linf,
    in_Lk_valuation,
    lehmer_index,
    semiprime_decompose,
    semiprime_in_Lk,
)
from klehmer.sieve import (
    alpha_search,
    count_table,
    enumerate_Lk_composites,
    verify_alpha_entry,
)

from conftest import ALPHA_ROWS, sieve_prime_mask

# Reference values C_k(10^j), j = 1..7 (j = 7 is the tagged slow column).
COUNT_REFERENCE = {
    2: (5, 26, 170, 1236, 9613, 78535, 664667),
    3: (5, 29, 179, 1266, 9714, 78841, 665538),
    4: (5, 29, 182, 1281, 9784, 79077, 666390),
    5: (5, 30, 184, 1303, 9861, 79346, 667282),
    math.inf: (5, 30, 188, 1333, 10015, 80058, 670225),
}

# The documented 13-term prefix of A173703.  Its next term, 46657 =
# 13 * 37 * 97 (a Carmichael number), also lies below 50000; membership
# is triple-checked in criterion 5(b), so the enumeration must report it.
A173703_PREFIX = (561, 1105, 1729, 2465, 6601, 8481, 12801, 15841, 16705,
                  19345, 22321, 30889, 41041)


def _report(cid: str, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: PASS ({detail})")


def _run_cli(capsys, *args) -> str:
    rc = main(list(args))
    out = capsys.readouterr().out
    assert rc == 0, f"exit code {rc} for {args}"
    return out


def test_c1_counting_table_to_1e6(capsys):
    t0 = time.monotonic()
    out = _run_cli(capsys, "count", "--limit", "1e6", "--k", "2,3,4,5,inf",
                   "--format", "csv")
    elapsed = time.monotonic() - t0
    rows = {}
    for rec in csv.DictReader(io.StringIO(out)):
        k = math.inf if rec["k"] == "inf" else int(rec["k"])
        rows[(k, int(rec["X"]))] = int(rec["count"])
    checked = 0
    for k, reference in COUNT_REFERENCE.items():
        for j, expected in enumerate(reference[:6], start=1):
            assert rows[(k, 10**j)] == expected, (k, 10**j)
            checked += 1
    assert checked == 30
    table = count_table(10**6, (2, 3, 4, 5, math.inf))
    for k, reference in COUNT_REFERENCE.items():
        assert table.counts[k] == reference[:6], k
    assert elapsed < 120.0, f"counting took {elapsed:.1f}s"
    _report("C1", f"30 table entries exact, {elapsed:.1f}s")


@pytest.mark.slow
def test_c1_stretch_counting_table_to_1e7():
    t0 = time.monotonic()
    table = count_table(10**7, (2, 3, 4, 5, math.inf))
    elapsed = time.monotonic() - t0
    for k, reference in COUNT_REFERENCE.items():
        assert table.counts[k] == reference, k
    assert elapsed < 900.0, f"counting took {elapsed:.1f}s"
    _report("C1-stretch", f"10^7 column exact, {elapsed:.1f}s")


def test_c2_a173703_prefix(capsys):
    out = _run_cli(capsys, "list", "--set", "l2-composites", "--limit", "50000",
                   "--format", "csv")
    values = [int(row["n"]) for row in csv.DictReader(io.StringIO(out))]
    assert tuple(values[: len(A173703_PREFIX)]) == A173703_PREFIX
    # full correctness of the enumeration below the bound
    assert values == list(A173703_PREFIX) + [46657]
    _report("C2", "13-term prefix exact, plus the next term 46657")


def test_c3_alpha_search():
    t0 = time.monotonic()
    r1 = alpha_search(1, 10**4)
    r2 = alpha_search(2, 10**4)
    r3 = alpha_search(3, 10**6)
    elapsed = time.monotonic() - t0
    assert (r1.n, r1.omega) == (561, 3)
    assert (r2.n, r2.omega) == (2821, 3)
    assert (r3.n, r3.omega) == (838201, 4)
    assert elapsed < 60.0, f"searches took {elapsed:.1f}s"
    _report("C3", f"alpha(1..3) found, {elapsed:.1f}s")


@pytest.mark.slow
def test_c3_stretch_alpha4():
    r = alpha_search(4, 5 * 10**7)
    assert (r.n, r.omega) == (41471521, 5)
    _report("C3-stretch", "alpha(4) = 41471521 below 5e7")


def test_c4_alpha_verification():
    t0 = time.monotonic()
    for k, n, omega in ALPHA_ROWS:
        rec = verify_alpha_entry(k, n)
        assert rec.omega == omega, k
        assert rec.in_next, k  # empirical: alpha(k) lands in L_{k+1}
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"verification took {elapsed:.1f}s"
    _report("C4", f"9 rows verified incl. 128-bit entry, {elapsed:.1f}s")


def test_c5a_three_characterizations_agree(prime_mask_200k):
    checked = 0
    for n in range(2, 100_001):
        if prime_mask_200k[n]:
            continue
        v = carmichael_verdict(n)
        assert v.unanimous, n
        checked += 1
    _report("C5a", f"{checked} composites, three tests unanimous")


def test_c5b_membership_paths_agree(phi_100k):
    for n in range(1, 100_001):
        f = factorize(n)
        idx = lehmer_index(f)
        phi = int(phi_100k[n])
        for k in range(1, 7):
            by_valuation = in_Lk_valuation(f, k)
            by_index = idx <= k
            by_big_product = (n - 1) ** k % phi == 0  # fits well in 127 bits
            assert by_valuation == by_index == by_big_product, (n, k)
    _report("C5b", "valuation, index and big-product paths agree to 1e5")


def _odd_primes_below_500():
    mask = sieve_prime_mask(500)
    return [p for p in range(3, 500) if mask[p]]


def test_c5c_semiprime_criterion_equals_direct():
    primes = _odd_primes_below_500()
    pairs = 0
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            dec = semiprime_decompose(p, q)
            idx = lehmer_index(p * q)
            for k in range(2, 9):
                assert semiprime_in_Lk(dec, k) == (idx <= k), (p, q, k)
            pairs += 1
    assert pairs == len(primes) * (len(primes) - 1) // 2
    _report("C5c", f"{pairs} pairs, k = 2..8")


def test_c5d_no_semiprime_in_L2():
    primes = _odd_primes_below_500()
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            assert not semiprime_in_Lk(semiprime_decompose(p, q), 2), (p, q)
            assert not (lehmer_index(p * q) <= 2), (p, q)
    _report("C5d", "no product of two distinct odd primes lies in L_2")


def test_c6a_chernick_construction():
    identity_hits = 0
    applicable_hits = 0
    for k in range(3, 7):
        for m in range(1, 201):
            cand = chernick(k, m)
            if not cand.all_prime:
                continue
            identity_hits += 1
            expected_phi = 2 ** ((k * k - 3 * k + 8) // 2) * 3 ** (2 * k - 2) * m**k
            assert euler_phi(factorize(cand.value)) == expected_phi, (k, m)
            if cand.guaranteed_index_k:
                applicable_hits += 1
                assert cand.observed_index.k == k, (k, m)
    # k = 3: m in {1,6,35,45,51,55,56,100,121,195}; k = 4: {1,45,56,121};
    # k = 5: {1,121}; k = 6: none below 200
    assert identity_hits == 16 and applicable_hits == 12
    _report("C6a", f"{identity_hits} totient identities, "
                   f"{applicable_hits} exact-index cases")


def test_c6b_family_pairs_match_direct_index():
    exps = [r for r in range(1, 20)
            if 3 * 2**r + 1 < 10**6 and is_prime(3 * 2**r + 1)]
    pairs = 0
    for i, N in enumerate(exps):
        for M in exps[i + 1 :]:
            if (M - N) % 2 == 0:
                continue
            res = fermat_family_pair(N, M)
            idx = lehmer_index(res.n)
            assert idx.k == res.K, (N, M)
            pairs += 1
    assert pairs == 10
    _report("C6b", f"{pairs} valid pairs, predicted K = observed index")


def test_c6c_pseudoprime_base_guarantee():
    members = enumerate_Lk_composites(100_000, 127)  # composite part of L_inf
    assert len(members) > 400
    for n in members:
        assert in_Linf(n)
        b = pseudoprime_base(n)
        assert fermat_test(n, b), n
    _report("C6c", f"{len(members)} composite members of L_inf to 1e5")
