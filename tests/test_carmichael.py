import pytest

from klehmer.arith import euler_phi, factorize, is_prime
from klehmer.carmichael import (
    carmichael_verdict,
    chernick,
    chernick_factors,
    fermat_test,
    korselt_test,
    lambda_test,
    pseudoprime_base,
    radical_korselt_test,
)
from klehmer.lehmer import LehmerIndex, in_Linf, lehmer_index
from klehmer.sieve import enumerate_carmichael

from conftest import sieve_phi


class TestKorselt:
    def test_examples(self):
        assert korselt_test(561)
        assert korselt_test(1729)
        assert not korselt_test(15)  # p = 5: 4 does not divide 14

    def test_primes_and_one_are_not_carmichael(self):
        for n in (1, 2, 3, 97, 561 + 2):  # 563 is prime
            assert not korselt_test(n)

    def test_squarefree_required(self):
        assert not korselt_test(4)
        assert not korselt_test(1729 * 7)


class TestLambdaTest:
    def test_examples(self):
        assert lambda_test(561)
        assert not lambda_test(4)
        assert lambda_test(2465)


class TestRadicalKorselt:
    def test_examples(self):
        assert radical_korselt_test(561)
        assert radical_korselt_test(1105)
        assert not radical_korselt_test(8481)  # in L_2 but not Carmichael

    def test_8481_is_the_interesting_case(self):
        # composite member of L_2 that fails the Carmichael tests
        assert lehmer_index(8481) == LehmerIndex.finite(2)
        assert not korselt_test(8481) and not lambda_test(8481)


class TestThreeWayEquivalence:
    def test_agree_on_composites_to_2e4(self, prime_mask_200k):
        # acceptance re-runs this to 1e5
        for n in range(2, 20_001):
            if prime_mask_200k[n]:
                continue
            v = carmichael_verdict(n)
            assert v.unanimous, n

    def test_carmichael_subset_of_Linf_to_1e5(self):
        carms = enumerate_carmichael(100_000)
        assert carms[:5] == [561, 1105, 1729, 2465, 2821]
        for n in carms:
            assert korselt_test(n)
            assert in_Linf(n)


class TestChernick:
    def test_factor_shape(self):
        assert chernick_factors(3, 1) == (7, 13, 19)
        assert chernick_factors(4, 1) == (7, 13, 19, 37)
        assert chernick_factors(5, 2) == (13, 25, 37, 73, 145)

    def test_example_k3_m1(self):
        c = chernick(3, 1)
        assert c.value == 1729 and c.factors == (7, 13, 19)
        assert c.all_prime and c.is_carmichael and c.divisibility_ok
        assert not c.guaranteed_index_k  # m = 1 = 2^0 is a power of two
        assert c.observed_index == LehmerIndex.finite(2)

    def test_example_k3_m6(self):
        c = chernick(3, 6)
        assert c.value == 294409 and c.factors == (37, 73, 109)
        assert c.guaranteed_index_k
        assert c.observed_index == LehmerIndex.finite(3)

    def test_example_k4_m1(self):
        c = chernick(4, 1)
        assert c.value == 63973 and c.is_carmichael
        assert not c.guaranteed_index_k
        assert c.observed_index == LehmerIndex.finite(3)

    @pytest.mark.parametrize("k, m, index", [(3, 1, 2), (4, 1, 3), (3, 1073742435, 3)])
    def test_all_prime_product_never_factored(self, factorize_calls, k, m, index):
        c = chernick(k, m)
        assert c.all_prime and c.is_carmichael
        assert c.observed_index == LehmerIndex.finite(index)
        # neither the product nor any p - 1 of its known primes is factored
        assert not factorize_calls

    @pytest.mark.parametrize("k, m, carmichael", [(3, 3, False), (3, 5, True), (4, 14, False)])
    def test_composite_factors_factored_apart(self, factorize_calls, k, m, carmichael):
        # U_3(5) = 31 * 61 * (7 * 13) is a Carmichael number; in U_4(14)
        # the factors 85 = 5 * 17 and 505 = 5 * 101 share the prime 5.
        c = chernick(k, m)
        assert not c.all_prime and c.is_carmichael == carmichael
        # each factor is factored, the product never
        assert factorize_calls == list(c.factors)
        assert korselt_test(c.value) == carmichael

    @pytest.mark.parametrize("k", [45, 46, 100_000, 10**20])
    def test_overflowing_k_raises_before_building_factors(self, k):
        # 7^46 > 2^127; a factor list for k = 10^20 would not fit in memory.
        with pytest.raises(OverflowError, match="exceeds 2"):
            chernick(k, 1)

    def test_observed_index_absent_when_factor_composite(self):
        c = chernick(5, 2)  # 25 = 5^2 in the factor list
        assert not c.all_prime and c.observed_index is None

    def test_totient_identity_and_classification_m_to_60(self):
        # phi(U_k(m)) = 2^((k^2-3k+8)/2) * 3^(2k-2) * m^k whenever all
        # factors are prime; index exactly k in the applicable cases
        hits = 0
        for k in range(3, 7):
            for m in range(1, 61):
                c = chernick(k, m)
                if not c.all_prime:
                    continue
                hits += 1
                expected = 2 ** ((k * k - 3 * k + 8) // 2) * 3 ** (2 * k - 2) * m**k
                assert euler_phi(factorize(c.value)) == expected, (k, m)
                if c.guaranteed_index_k:
                    assert c.observed_index == LehmerIndex.finite(k), (k, m)
        assert hits >= 10

    def test_divisibility_vacuous_below_k5(self):
        assert chernick(3, 5).divisibility_ok
        assert chernick(4, 7).divisibility_ok
        assert not chernick(5, 3).divisibility_ok
        assert chernick(6, 12).divisibility_ok

    def test_rejects_small_k_and_overflow(self):
        with pytest.raises(ValueError):
            chernick(2, 1)
        with pytest.raises(OverflowError):
            chernick(40, 10**6)


class TestPseudoprimeBase:
    def test_examples(self):
        assert pseudoprime_base(561) == 103
        assert pseudoprime_base(1105) == 256
        assert pseudoprime_base(15) == 1  # degenerate base

    def test_degenerate_cases(self):
        # the construction can collapse to b = 1; reported verbatim
        for n in (15, 91):
            b = pseudoprime_base(n)
            assert b == 1
            assert fermat_test(n, b)

    def test_rejects_primes_and_non_members(self):
        with pytest.raises(ValueError):
            pseudoprime_base(97)
        with pytest.raises(ValueError):
            pseudoprime_base(9)  # not in L_inf

    def test_guarantee_to_1e4(self):
        phi = sieve_phi(10_000)
        for n in range(4, 10_001):
            if is_prime(n) or not in_Linf(n):
                continue
            b = pseudoprime_base(n)
            assert fermat_test(n, b), n
            assert 1 <= b < n


class TestFermatTest:
    def test_examples(self):
        assert fermat_test(15, 1)
        assert fermat_test(7, 1) and fermat_test(10**6, 1)
        assert fermat_test(561, 103)
        assert not fermat_test(15, 7)  # 7^14 = 4 (mod 15)

    def test_zero_base(self):
        assert not fermat_test(10, 0)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            fermat_test(1, 2)
