import math
import random

import numpy as np
import pytest

from klehmer.arith import (
    FactoredInteger,
    carmichael_lambda,
    euler_phi,
    factorize,
    is_prime,
    mod_pow,
    radical,
    valuation,
)

from conftest import factors_from_spf, sieve_prime_mask, sieve_spf, trial_factorize


class TestIsPrime:
    def test_examples(self):
        assert is_prime(2)
        assert not is_prime(561)  # smallest Carmichael number, composite
        assert is_prime(97)

    def test_small_edge_cases(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_agrees_with_sieve(self, prime_mask_200k):
        for n in range(200_000 + 1):
            assert is_prime(n) == bool(prime_mask_200k[n]), n

    @pytest.mark.slow
    def test_agrees_with_sieve_to_1e6(self):
        mask = sieve_prime_mask(1_000_000)
        for n in range(1_000_000 + 1):
            assert is_prime(n) == bool(mask[n]), n

    def test_known_strong_pseudoprimes_rejected(self):
        # each fools at least one fixed witness set below its own tier
        for n in (2047, 1373653, 25326001, 3215031751, 3825123056546413051):
            assert not is_prime(n), n

    def test_square_overflow_and_bounds(self):
        assert is_prime(2**89 - 1)
        assert not is_prime(2**87 - 1)
        assert is_prime(2**127 - 1)
        assert not is_prime(3 * (2**89 - 1))
        with pytest.raises(ValueError):
            is_prime(2**127)
        with pytest.raises(ValueError):
            is_prime(-1)

    def test_bpsw_range_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20260810)
        for _ in range(150):
            n = rng.randrange(2**64 + 1, 2**70) | 1
            assert is_prime(n) == sympy.isprime(n), n

    def test_perfect_squares_above_64_bits(self):
        for p in (4294967311, 2**61 - 1):
            assert not is_prime(p * p)


class TestFactorize:
    def test_examples(self):
        assert factorize(1).factors == ()
        assert factorize(91).factors == ((7, 1), (13, 1))
        assert factorize(561).factors == ((3, 1), (11, 1), (17, 1))

    def test_rejects_zero_and_overflow(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(2**127)

    def test_exhaustive_against_spf_sieve(self, spf_200k):
        for n in range(1, 200_001):
            f = factorize(n)
            assert dict(f.factors) == factors_from_spf(n, spf_200k), n
            assert f.value == n

    @pytest.mark.slow
    def test_exhaustive_to_1e6(self):
        spf = sieve_spf(1_000_000)
        for n in range(1, 1_000_001):
            f = factorize(n)
            assert dict(f.factors) == factors_from_spf(n, spf), n
            assert math.prod(p**e for p, e in f.factors) == n
            assert all(is_prime(p) for p, _ in f.factors)

    def test_large_values(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(99)
        samples = [rng.randrange(2, 2**48) for _ in range(40)]
        samples += [330019822807208371201, 375097930710820681, 2**64 + 1]
        for n in samples:
            f = factorize(n)
            assert math.prod(p**e for p, e in f.factors) == n
            assert dict(f.factors) == dict(sympy.factorint(n)), n

    def test_deterministic(self):
        n = 330019822807208371201
        assert factorize(n) == factorize(n)

    def test_semiprime_roundtrip(self):
        p, q = 4294967311, 4294967357  # both prime, product needs rho
        f = factorize(p * q)
        assert f.factors == ((p, 1), (q, 1))

    def test_prime_power_splitting(self):
        p = 1000003
        assert factorize(p**3).factors == ((p, 3),)

    def test_omega_counts_distinct_primes(self):
        assert factorize(1).omega() == 0
        assert factorize(8).omega() == 1
        assert factorize(561).omega() == 3


class TestFactoredIntegerInvariants:
    def test_structure_validation(self):
        with pytest.raises(ValueError):
            FactoredInteger(6, ((3, 1), (2, 1)))  # primes out of order
        with pytest.raises(ValueError):
            FactoredInteger(6, ((2, 1), (3, 2)))  # wrong product
        with pytest.raises(ValueError):
            FactoredInteger(6, ((6, 1),))  # 6 is not prime
        with pytest.raises(ValueError):
            FactoredInteger(4, ((2, 0), (2, 2)))

    def test_unit(self):
        one = FactoredInteger(1, ())
        assert one.omega() == 0 and one.is_squarefree and not one.is_composite

    def test_value_inside_domain(self):
        # A hand-built instance must not carry a value that factorize rejects.
        with pytest.raises(ValueError, match="2\\*\\*127 - 1"):
            FactoredInteger(2**127, ((2, 127),))
        with pytest.raises(ValueError):
            FactoredInteger(0, ())
        top = FactoredInteger(2**127 - 1, ((2**127 - 1, 1),))
        assert top.is_prime and euler_phi(top) == 2**127 - 2

    def test_totient_is_cached_and_not_a_field(self):
        f = factorize(561)
        before = (repr(f), hash(f))
        assert f.totient is f.totient
        assert f.totient == FactoredInteger(320, ((2, 6), (5, 1)))
        assert (repr(f), hash(f)) == before and f == FactoredInteger(561, f.factors)


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(91) == 72
        assert euler_phi(561) == 320

    def test_accepts_factored_input(self):
        assert euler_phi(factorize(561)) == 320

    def test_gcd_count_oracle_to_1e4(self):
        for n in range(1, 10_001):
            expected = int(np.count_nonzero(np.gcd(np.arange(1, n + 1), n) == 1))
            assert euler_phi(n) == expected, n
            assert dict(factorize(n).totient.factors) == trial_factorize(expected), n


class TestCarmichaelLambda:
    def test_examples(self):
        assert carmichael_lambda(4) == 2
        assert carmichael_lambda(8) == 2
        assert carmichael_lambda(561) == 80

    def test_two_power_cases(self):
        assert carmichael_lambda(1) == 1
        assert carmichael_lambda(2) == 1
        assert [carmichael_lambda(2**k) for k in range(3, 8)] == [2, 4, 8, 16, 32]

    def test_universal_exponent_minimality_to_2000(self):
        for n in range(1, 2001):
            lam = carmichael_lambda(n)
            coprime = [b for b in range(1, n) if math.gcd(b, n) == 1] or [0]
            if n == 1:
                assert lam == 1
                continue
            assert all(pow(b, lam, n) == 1 for b in coprime), n
            # minimality: every maximal proper divisor lam // r must fail
            for r in {p for p, _ in factorize(lam).factors}:
                assert any(pow(b, lam // r, n) != 1 for b in coprime), (n, lam, r)


class TestRadical:
    def test_examples(self):
        assert radical(1) == 1
        assert radical(72) == 6
        assert radical(320) == 10

    def test_divides_and_squarefree(self, spf_200k):
        for n in range(1, 200_001, 17):
            r = radical(n)
            assert n % r == 0
            assert all(e == 1 for e in factors_from_spf(r, spf_200k).values())

    @pytest.mark.slow
    def test_divides_and_squarefree_to_1e6(self):
        spf = sieve_spf(1_000_000)
        for n in range(1, 1_000_001):
            r = radical(n)
            assert n % r == 0
            assert all(e == 1 for e in factors_from_spf(r, spf).values())


class TestValuation:
    def test_examples(self):
        assert valuation(0, 3) == math.inf
        assert valuation(72, 2) == 3
        assert valuation(90, 3) == 2

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            valuation(10, 4)
        with pytest.raises(ValueError):
            valuation(10, 1)

    def test_exactness(self):
        for p in (2, 3, 5, 97):
            for e in range(0, 6):
                assert valuation(p**e * 11, p) == e


class TestModPow:
    def test_examples(self):
        assert mod_pow(5, 0, 7) == 1
        assert mod_pow(2, 10, 561) == 463
        assert mod_pow(103, 560, 561) == 1

    def test_modulus_zero_rejected(self):
        with pytest.raises(ValueError):
            mod_pow(2, 3, 0)

    def test_against_iterated_multiplication(self):
        for b in range(0, 101, 3):
            for m in range(1, 101, 3):
                for e in range(0, 21):
                    acc = 1 % m
                    for _ in range(e):
                        acc = acc * b % m
                    assert mod_pow(b, e, m) == acc, (b, e, m)

    def test_wide_operands(self):
        m = 2**127 - 1
        assert mod_pow(m - 1, 2, m) == 1  # (-1)^2
