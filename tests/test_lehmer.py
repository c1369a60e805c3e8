import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from klehmer.arith import MAX_NATURAL, FactoredInteger, euler_phi, factorize, is_prime
from klehmer.carmichael import (
    carmichael_verdict,
    korselt_test,
    lambda_test,
    pseudoprime_base,
    radical_korselt_test,
)
from klehmer.lehmer import (
    K_CAP,
    NOT_IN_LINF,
    FamilyParityError,
    FamilyPrimalityError,
    LehmerIndex,
    fermat_family_pair,
    in_Linf,
    in_Lk,
    in_Lk_valuation,
    is_cyclic,
    lehmer_index,
    semiprime_decompose,
    semiprime_in_Lk,
)
from klehmer.sieve import classify_range

from conftest import ALPHA_ROWS, index_oracle, sieve_phi, sieve_prime_mask, swap_arith


def odd_primes_below(limit):
    mask = sieve_prime_mask(limit)
    return [int(p) for p in np.flatnonzero(mask) if p > 2]


class TestLehmerIndexType:
    def test_construction(self):
        assert LehmerIndex.finite(3).k == 3
        assert not NOT_IN_LINF.is_finite
        with pytest.raises(ValueError):
            LehmerIndex.finite(0)

    def test_bound_comparison(self):
        assert LehmerIndex.finite(3) <= 3
        assert not (LehmerIndex.finite(3) <= 2)
        assert not (NOT_IN_LINF <= 10**6)

    def test_str(self):
        assert str(LehmerIndex.finite(5)) == "L_5"
        assert str(NOT_IN_LINF) == "not in L_inf"


class TestLehmerIndex:
    def test_examples(self):
        assert lehmer_index(15) == LehmerIndex.finite(3)
        assert lehmer_index(2821) == LehmerIndex.finite(3)
        assert lehmer_index(51) == LehmerIndex.finite(5)
        assert lehmer_index(9) == NOT_IN_LINF
        assert lehmer_index(561) == LehmerIndex.finite(2)

    def test_primes_have_index_one(self):
        for p in (2, 3, 5, 7, 97, 786433, 2**61 - 1):
            assert lehmer_index(p) == LehmerIndex.finite(1)

    def test_n_equals_one(self):
        # phi(1) = 1 divides (1 - 1)^1 = 0
        assert lehmer_index(1) == LehmerIndex.finite(1)

    def test_prime_with_hard_n_minus_1(self, monkeypatch):
        # n = 2mPQ + 1 with two 60-bit primes P and Q: factoring n - 1 means
        # running rho on the balanced PQ for many minutes, but the index
        # needs only phi(n) = n - 1.
        def next_prime(x):
            while not is_prime(x):
                x += 1
            return x

        P, Q = next_prime(2**59 + 2**57), next_prime(2**59 + 3 * 2**57)
        n = next(2 * m * P * Q + 1 for m in range(1, 64) if is_prime(2 * m * P * Q + 1))
        assert n <= MAX_NATURAL

        def only_n(original, x):
            assert x == n, f"factorize({x}) called"
            return original(x)

        swap_arith(monkeypatch, "factorize", only_n)
        t0 = time.monotonic()
        assert lehmer_index(n) == LehmerIndex.finite(1)
        assert in_Lk(n, 1)
        assert time.monotonic() - t0 < 1.0

    def test_big_integer_oracle_to_3000(self):
        phi = sieve_phi(3000)
        for n in range(1, 3001):
            expected = index_oracle(n, int(phi[n]))
            got = lehmer_index(n)
            assert got.k == expected, n


class TestMembership:
    def test_examples(self):
        assert in_Lk(561, 2)
        assert not in_Lk(2821, 2)
        for k in (1, 2, 7, 50):
            assert in_Lk(1, k)

    def test_paths_agree_to_1e4(self, phi_100k):
        # acceptance covers 1e5; the module check stays snappy at 1e4
        for n in range(1, 10_001):
            f = factorize(n)
            phi = int(phi_100k[n])
            for k in range(1, 7):
                val = in_Lk_valuation(f, k)
                assert in_Lk(f, k) == val, (n, k)
                assert (n - 1) ** k % phi == 0 if val else (n - 1) ** k % phi != 0, (n, k)

    def test_monotone_in_k(self):
        for n in range(1, 2001):
            members = [in_Lk(n, k) for k in range(1, 9)]
            assert members == sorted(members), n  # False... then True forever

    def test_k_above_cap_answers_Linf(self):
        for n in (9, 15, 51, 561, 97):
            assert in_Lk(n, K_CAP + 50) == in_Linf(n)
            assert in_Lk_valuation(n, K_CAP + 50) == in_Linf(n)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            in_Lk(15, 0)

    def test_in_Linf_examples(self):
        assert in_Linf(15)
        assert not in_Linf(9)
        assert in_Linf(561)
        assert in_Linf(1) and in_Linf(2)

    def test_Linf_matches_index_at_log_cutoff(self, phi_100k):
        for n in range(1, 5001):
            phi = int(phi_100k[n])
            cutoff = max(1, math.ceil(math.log2(phi))) if phi > 1 else 1
            assert in_Linf(n) == in_Lk(n, cutoff), n


# Primes whose p - 1 is smooth, so that products of them often land in
# some L_k: Fermat primes 2^r + 1, primes 3 * 2^r + 1 and two Mersenne
# primes.  At most one factor above 2^20 keeps every factorization fast.
_FAMILY = [3 * 2**r + 1 for r in (1, 2, 5, 6, 8, 12, 18, 30, 36, 41, 66)]
_SMOOTH = [3, 5, 17, 257, 65537] + [p for p in _FAMILY if p < 2**20]
_SMALL = sorted(set(_SMOOTH + odd_primes_below(200)) | {2})
_LARGE = [p for p in _FAMILY if p > 2**20] + [2**31 - 1, 2**61 - 1]


def _factor_lists(pool, max_exp):
    # Every pool prime is below 2^20 and every _LARGE prime above, so the
    # sorted list has strictly increasing primes.
    return st.builds(
        lambda small, large: sorted(small + large),
        st.lists(st.tuples(st.sampled_from(pool), st.integers(1, max_exp)),
                 min_size=2, max_size=6, unique_by=lambda t: t[0]),
        st.lists(st.tuples(st.sampled_from(_LARGE), st.just(1)), max_size=1),
    )


def _value(factors):
    n = 1
    for p, e in factors:
        n *= p**e
    return n


# Squarefree products of smooth primes are often in L_k; the mixed ones
# with repeated factors mostly are not.
factor_lists = st.one_of(_factor_lists(_SMOOTH, 1), _factor_lists(_SMALL, 3))
products = factor_lists.map(_value)


def _assert_routes_agree(n):
    assume(n <= MAX_NATURAL)
    f = factorize(n)
    idx = lehmer_index(f)
    for k in range(1, K_CAP + 2):
        assert (idx <= k) == in_Lk_valuation(f, k), (n, k)


def _with_alpha_rows(test):
    for _, n, _ in ALPHA_ROWS:
        test = example(n=n)(test)
    return test


class TestMembershipRoutes:
    """lehmer_index, from phi(n) alone, agrees with the valuation route on
    products of known primes anywhere in the 127-bit domain, for every k."""

    @settings(max_examples=40, deadline=None)
    @given(n=products)
    @_with_alpha_rows
    @example(n=2**127 - 1)
    @example(n=(3 * 2**30 + 1) * (3 * 2**36 + 1))
    @example(n=3 * 5 * 17 * 257 * 65537 * (2**61 - 1))
    def test_modular_equals_valuation(self, n):
        _assert_routes_agree(n)

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(n=products)
    def test_modular_equals_valuation_long(self, n):
        _assert_routes_agree(n)


class TestDerivedTotient:
    """phi(n) merged from n's primes equals phi(n) factored directly."""

    @settings(max_examples=60, deadline=None)
    @given(n=products.filter(lambda n: n < 2**64))
    @example(n=2**127 - 1)
    @example(n=561)
    @example(n=2821)
    @example(n=838201)
    @example(n=41471521)
    @example(n=45496270561)
    @example(n=776388344641)
    @example(n=344361421401361)
    @example(n=375097930710820681)
    @example(n=330019822807208371201)
    def test_matches_factorized_phi(self, n):
        assert factorize(n).totient == factorize(euler_phi(n))


# Every per-number function that takes n or its FactoredInteger; the ks
# cover the index and valuation routes, and k above K_CAP.
_PER_NUMBER = (lehmer_index, in_Linf, is_cyclic, korselt_test, lambda_test,
               radical_korselt_test, carmichael_verdict, pseudoprime_base)
_PER_NUMBER_K = (in_Lk, in_Lk_valuation)
_ALL_KS = (1, 2, 3, 5, K_CAP + 1)


def _outcomes(n, ks=_ALL_KS):
    def outcome(fn, *args):
        try:
            return fn(*args)
        except ValueError as exc:  # pseudoprime_base outside L_inf
            return str(exc)

    return ([outcome(fn, n) for fn in _PER_NUMBER]
            + [outcome(fn, n, k) for fn in _PER_NUMBER_K for k in ks])


class TestFactoredInput:
    """Passing n or its FactoredInteger gives the same answer, whether the
    factorization comes from factorize or is built by hand."""

    def test_factorize_of_n_to_1e4(self):
        for n in range(1, 10**4 + 1):
            assert _outcomes(n, (2, K_CAP + 1)) == _outcomes(factorize(n), (2, K_CAP + 1)), n

    @pytest.mark.slow
    def test_factorize_of_n_to_1e4_every_k(self):
        for n in range(1, 10**4 + 1):
            assert _outcomes(n) == _outcomes(factorize(n)), n

    @settings(max_examples=30, deadline=None)
    @given(factors=factor_lists.filter(lambda f: _value(f) < 2**64))
    @example(factors=[(3, 1), (11, 1), (17, 1)])
    @example(factors=[(3 * 2**12 + 1, 1), (3 * 2**41 + 1, 1)])  # in L_5
    def test_hand_built(self, factors):
        n = _value(factors)
        assert _outcomes(n) == _outcomes(FactoredInteger(n, tuple(factors)))

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(factors=factor_lists.filter(lambda f: _value(f) < 2**64))
    def test_hand_built_long(self, factors):
        n = _value(factors)
        assert _outcomes(n) == _outcomes(FactoredInteger(n, tuple(factors)))


class TestCyclicNumbers:
    def test_examples(self):
        assert is_cyclic(15)
        assert not is_cyclic(9)
        for p in (2, 3, 97, 786433):
            assert is_cyclic(p)

    def test_chain_to_1e6(self):
        # in_Linf => cyclic => squarefree, in bulk
        limit = 1_000_000
        phi = sieve_phi(limit)
        n = np.arange(limit + 1, dtype=np.int64)
        cyclic = np.gcd(n[1:], phi[1:]) == 1
        squarefree = np.ones(limit + 1, dtype=bool)
        for p in range(2, math.isqrt(limit) + 1):
            squarefree[p * p :: p * p] = False
        in_linf = np.zeros(limit + 1, dtype=bool)
        for m, idx in classify_range(1, limit + 1):
            in_linf[m] = idx.is_finite
        assert np.all(cyclic[in_linf[1:]])
        assert np.all(squarefree[1:][cyclic])

    def test_is_cyclic_matches_gcd_definition(self, phi_100k):
        for n in range(1, 2001):
            assert is_cyclic(n) == (math.gcd(n, int(phi_100k[n])) == 1)


class TestSemiprimeDecomposition:
    def test_examples(self):
        d = semiprime_decompose(7, 13)
        assert (d.a, d.b, d.d, d.alpha, d.beta) == (1, 2, 3, 1, 1)
        d = semiprime_decompose(3, 5)
        assert (d.a, d.b, d.d, d.alpha, d.beta) == (1, 2, 1, 1, 1)
        d = semiprime_decompose(5, 13)
        assert (d.a, d.b, d.d, d.alpha, d.beta) == (2, 2, 1, 1, 3)

    def test_shape_invariants(self):
        primes = odd_primes_below(300)
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                d = semiprime_decompose(p, q)
                assert d.a <= d.b
                assert d.d % 2 == 1 and d.alpha % 2 == 1 and d.beta % 2 == 1
                assert math.gcd(d.alpha, d.beta) == 1
                assert d.p - 1 == 2**d.a * d.d * d.alpha
                assert d.q - 1 == 2**d.b * d.d * d.beta
                assert semiprime_decompose(q, p) == d  # order-free

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            semiprime_decompose(7, 7)
        with pytest.raises(ValueError):
            semiprime_decompose(2, 7)
        with pytest.raises(ValueError):
            semiprime_decompose(9, 7)

    def test_criterion_examples(self):
        assert semiprime_in_Lk(semiprime_decompose(3, 5), 3)
        assert not semiprime_in_Lk(semiprime_decompose(7, 13), 2)
        dec = semiprime_decompose(5, 13)
        assert all(not semiprime_in_Lk(dec, k) for k in range(2, 9))
        assert not in_Linf(65)

    def test_criterion_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            semiprime_in_Lk(semiprime_decompose(3, 5), 1)

    def test_criterion_equals_direct_below_200(self):
        primes = odd_primes_below(200)
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                dec = semiprime_decompose(p, q)
                idx = lehmer_index(p * q)
                for k in range(2, 9):
                    assert semiprime_in_Lk(dec, k) == (idx <= k), (p, q, k)


class TestFermatFamily:
    def family_exponents(self, limit=10**6):
        return [r for r in range(1, 20) if 3 * 2**r + 1 < limit and is_prime(3 * 2**r + 1)]

    def test_examples(self):
        r = fermat_family_pair(1, 2)
        assert (r.pN, r.pM, r.n, r.K) == (7, 13, 91, 3)
        r = fermat_family_pair(2, 5)
        assert (r.pN, r.pM, r.n, r.K) == (13, 97, 1261, 4)

    def test_error_values_are_distinct(self):
        with pytest.raises(FamilyPrimalityError):
            fermat_family_pair(1, 3)  # 3*2^3 + 1 = 25 = 5^2
        with pytest.raises(FamilyParityError):
            fermat_family_pair(1, 5)  # both prime but the gap is even
        with pytest.raises(ValueError):
            fermat_family_pair(4, 4)

    def test_product_never_factored(self, factorize_calls):
        r = fermat_family_pair(36, 41)
        assert (r.pN, r.pM, r.K) == (3 * 2**36 + 1, 3 * 2**41 + 1, 3)
        assert r.n not in factorize_calls

    def test_normalization_is_symmetric(self):
        assert fermat_family_pair(2, 1) == fermat_family_pair(1, 2)

    def test_predicted_index_over_all_valid_pairs(self):
        exps = self.family_exponents()
        assert exps == [1, 2, 5, 6, 8, 12, 18]
        checked = 0
        for i, N in enumerate(exps):
            for M in exps[i + 1 :]:
                if (M - N) % 2 == 0:
                    continue
                res = fermat_family_pair(N, M)
                # K really is the least k with k*N >= M + N
                assert res.K == min(k for k in range(1, 100) if k * N >= M + N)
                assert lehmer_index(res.n) == LehmerIndex.finite(res.K)
                assert not in_Lk(res.n, res.K - 1) if res.K > 1 else True
                checked += 1
        assert checked == 10

    def test_respects_127_bit_bound(self):
        # 3*2^189 + 1 is far beyond 2^127 - 1
        with pytest.raises(ValueError):
            fermat_family_pair(66, 189)
