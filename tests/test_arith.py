import copy
import math
import pickle
import random
from functools import cached_property

import numpy as np
import pytest

from klehmer import arith
from klehmer.arith import (
    FactoredInteger,
    _Record,
    carmichael_lambda,
    euler_phi,
    factorize,
    is_prime,
    mod_pow,
    radical,
    valuation,
)
from klehmer.carmichael import (AlphaNotFound, AlphaRecord, CarmichaelVerdict,
                                ChernickCandidate)
from klehmer.cli import ClassificationReport
from klehmer.lehmer import FamilyPairResult, LehmerIndex, SemiprimeDecomposition
from klehmer.sieve import CountTable, SieveSegment, _SievePlan

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

    def test_square_splits_without_rho(self, monkeypatch):
        # Rho on the square of a 62-bit prime runs for tens of seconds; the
        # perfect-square shortcut in _split_composite splits it at once.
        def no_rho(n, c):
            raise AssertionError(f"rho called on {n}")

        monkeypatch.setattr(arith, "_pollard_brent", no_rho)
        p = 4611686018427388039
        assert factorize(p * p).factors == ((p, 2),)

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

    def test_totient_is_cached(self):
        # TestRecords reads it before checking repr, hash and equality.
        f = factorize(561)
        assert f.totient is f.totient
        assert f.totient == FactoredInteger(320, ((2, 6), (5, 1)))


# Every record with one instance's fields, in declared order, and its repr.
# Records do not check field types: CountTable.counts, a dict in use, is a
# tuple here so that the instance hashes.
_RECORDS = [
    (FactoredInteger, {"value": 15, "factors": ((3, 1), (5, 1))},
     "FactoredInteger(value=15, factors=((3, 1), (5, 1)))"),
    (LehmerIndex, {"k": 3}, "LehmerIndex(k=3)"),
    (SemiprimeDecomposition,
     {"p": 7, "q": 13, "a": 1, "b": 2, "d": 3, "alpha": 1, "beta": 1},
     "SemiprimeDecomposition(p=7, q=13, a=1, b=2, d=3, alpha=1, beta=1)"),
    (FamilyPairResult, {"N": 1, "M": 2, "pN": 7, "pM": 13, "n": 91, "K": 3},
     "FamilyPairResult(N=1, M=2, pN=7, pM=13, n=91, K=3)"),
    (CarmichaelVerdict,
     {"n": 561, "korselt": True, "lambda_divides": True, "radical_korselt": True},
     "CarmichaelVerdict(n=561, korselt=True, lambda_divides=True, radical_korselt=True)"),
    (ChernickCandidate,
     {"k": 3, "m": 1, "factors": (7, 13, 19), "value": 1729, "all_prime": True,
      "divisibility_ok": True, "is_carmichael": True, "guaranteed_index_k": False,
      "observed_index": LehmerIndex(2)},
     "ChernickCandidate(k=3, m=1, factors=(7, 13, 19), value=1729, all_prime=True, "
     "divisibility_ok=True, is_carmichael=True, guaranteed_index_k=False, "
     "observed_index=LehmerIndex(k=2))"),
    (AlphaRecord, {"k": 1, "n": 561, "omega": 3, "in_next": True, "bound": 0},
     "AlphaRecord(k=1, n=561, omega=3, in_next=True, bound=0)"),
    (AlphaNotFound, {"k": 9, "bound": 1000}, "AlphaNotFound(k=9, bound=1000)"),
    (ClassificationReport,
     {"n": 561, "factorization": ((3, 1), (11, 1), (17, 1)), "phi": 320, "lam": 80,
      "rad_phi": 10, "lehmer_index": LehmerIndex(2), "is_carmichael": True,
      "pseudoprime_base": 103, "base_degenerate": False},
     "ClassificationReport(n=561, factorization=((3, 1), (11, 1), (17, 1)), phi=320, "
     "lam=80, rad_phi=10, lehmer_index=LehmerIndex(k=2), is_carmichael=True, "
     "pseudoprime_base=103, base_degenerate=False)"),
    (SieveSegment, {"lo": 1, "hi": 5, "phi": (1, 2), "spf": None},
     "SieveSegment(lo=1, hi=5, phi=(1, 2), spf=None)"),
    (CountTable, {"limit": 10, "ks": (2,), "powers": (10,), "counts": ((2, (5,)),)},
     "CountTable(limit=10, ks=(2,), powers=(10,), counts=((2, (5,)),))"),
    (_SievePlan, {"p": (3,), "first_hit": (4,), "inverse": (2863311531,),
                  "bound": (1431655765,)},
     "_SievePlan(p=(3,), first_hit=(4,), inverse=(2863311531,), bound=(1431655765,))"),
]


class TestRecords:
    @pytest.mark.parametrize("cls, fields, text", _RECORDS,
                             ids=[cls.__name__ for cls, *_ in _RECORDS])
    def test_record_contract(self, cls, fields, text):
        values = tuple(fields.values())
        a = cls(*values)
        # Cached properties (FactoredInteger.totient) are not fields.
        for name, attr in vars(cls).items():
            if isinstance(attr, cached_property):
                getattr(a, name)
        assert a == cls(**fields) and not a != cls(**fields)
        with pytest.raises(TypeError):
            cls(*values, 0)
        with pytest.raises(TypeError):
            cls(**fields, extra=0)
        assert [getattr(a, f) for f in fields] == list(values)
        assert repr(a) == text
        assert hash(a) == hash(cls(**fields)) == hash(values)

        # An instance that differs in the last field only, written into a
        # copy as FactoredInteger's constructor checks its fields.
        b = copy.copy(a)
        vars(b)[list(fields)[-1]] = "changed"
        assert a != b and not a == b
        # Equal fields do not make instances of two classes equal.
        twin = type(cls.__name__, (_Record,), {"__annotations__": cls.__annotations__})
        assert a != twin(*values) and twin(*values) == twin(*values)

        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, list(fields)[0])
        assert repr(a) == text

        for other in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert type(other) is cls and other == a and repr(other) == text

    def test_default_field(self):
        assert SieveSegment(1, 5, (1, 2)) == SieveSegment(1, 5, (1, 2), None)
        assert SieveSegment(lo=1, hi=5, phi=(1, 2)).spf is None


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
