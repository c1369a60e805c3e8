import functools
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from klehmer.arith import LimitExceededError, euler_phi, factorize, is_prime
from klehmer.carmichael import (
    AlphaNotFound,
    LehmerMembershipError,
    NotCarmichaelError,
    korselt_test,
    verify_alpha_entry,
)
from klehmer.lehmer import K_CAP, NOT_IN_LINF, LehmerIndex, _power_index, in_Lk, lehmer_index
from klehmer.sieve import (
    _BYTES_PER_VALUE,
    _INT64_SAFE_HI,
    _LOOP_HITS,
    _PATTERN_PERIOD,
    _TOTIENT_PERIOD,
    _classify_arrays,
    _korselt_scan,
    _histogram_scan,
    _lehmer_indexes,
    _lk_scan,
    _segment_bounds,
    alpha_search,
    base_primes,
    classify_range,
    count_table,
    enumerate_carmichael,
    enumerate_Lk_composites,
    totient_sieve,
)

from conftest import segments_of, sieve_phi, sieve_prime_mask, trial_factorize


A173703_BELOW_50000 = [
    561, 1105, 1729, 2465, 6601, 8481, 12801, 15841, 16705, 19345,
    22321, 30889, 41041, 46657,
]


class TestTotientSieve:
    def test_first_ten(self):
        seg = totient_sieve(1, 11)
        assert seg.first == 1
        assert seg.phi.tolist() == [1, 2, 4, 6, 6]  # n = 1, 3, 5, 7, 9

    def test_cross_checks_against_arith(self):
        seg = totient_sieve(90, 92)
        assert (seg.first, seg.phi.tolist()) == (91, [72])
        seg = totient_sieve(561, 562)
        assert (seg.first, seg.phi.tolist()) == (561, [320])
        seg = totient_sieve(99_990, 100_010)
        for i, n in enumerate(range(seg.first, seg.hi, 2)):
            assert seg.phi[i] == euler_phi(factorize(n)), n

    def test_agrees_with_oracle_sieve(self):
        phi = sieve_phi(50_000)
        assert np.array_equal(totient_sieve(1, 50_001).phi, phi[1::2])
        assert np.array_equal(totient_sieve(30_000, 40_000).phi, phi[30_001:40_000:2])

    # 512 MiB at 12 bytes per odd value (the former memory budget's
    # default); hi - lo may be twice it.
    MAX_ODD = 44_739_242

    @pytest.mark.parametrize("lo", [10**6, 10**6 + 1])
    def test_refuses_above_the_cap_before_allocating(self, lo):
        assert (512 << 20) // _BYTES_PER_VALUE == self.MAX_ODD
        tracemalloc.start()
        try:
            with pytest.raises(LimitExceededError) as err:
                totient_sieve(lo, lo + 2 * self.MAX_ODD + 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(2 * self.MAX_ODD) in str(err.value)
        # One segment of the cap would take about 360 MB.
        assert peak < 64 << 10

    def test_cap_counts_odd_values(self, monkeypatch):
        # A range of 2 * cap values holds cap odd ones, whatever lo's parity.
        cap = 500
        monkeypatch.setattr("klehmer.sieve._SIEVE_MAX_ODD", cap)
        for lo in (10**6, 10**6 + 1):
            assert totient_sieve(lo, lo + 2 * cap).phi.size == cap
            with pytest.raises(LimitExceededError):
                totient_sieve(lo, lo + 2 * cap + 2)
        # One value more adds an odd one only when lo is odd.
        assert totient_sieve(10**6, 10**6 + 2 * cap + 1).phi.size == cap
        with pytest.raises(LimitExceededError):
            totient_sieve(10**6 + 1, 10**6 + 2 * cap + 2)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            totient_sieve(5, 5)
        with pytest.raises(ValueError):
            totient_sieve(0, 10)

    @pytest.mark.parametrize("run", [
        totient_sieve,
        lambda lo, hi: next(classify_range(lo, hi)),
    ], ids=["totient_sieve", "classify_range"])
    def test_int64_bound_is_inclusive(self, run):
        # Both share one range check: hi = _INT64_SAFE_HI itself is fine.
        run(_INT64_SAFE_HI - 1, _INT64_SAFE_HI)
        with pytest.raises(LimitExceededError) as err:
            run(_INT64_SAFE_HI - 1, _INT64_SAFE_HI + 1)
        assert str(err.value) == f"hi must not exceed {_INT64_SAFE_HI}"


def factorized_phi(lo: int, hi: int) -> np.ndarray:
    """phi(n) of every n in [lo, hi), by factorize."""
    return np.array([euler_phi(factorize(n)) for n in range(lo, hi)], dtype=np.int64)


class TestOddTotientSieve:
    """totient_sieve equals the odd entries of full-range oracle totients:
    the conftest sieves below 10^5, factorization above."""

    @pytest.mark.parametrize("lo, hi", [
        (1000, 3000), (1001, 3000), (1000, 3001), (1001, 3001),
        (2, 3), (3, 4), (8, 9),
        (1, 20_000), (2, 20_000),
        (_INT64_SAFE_HI - 10_000, _INT64_SAFE_HI),
    ])
    def test_matches_full_sieve(self, lo, hi, phi_100k):
        phi = phi_100k[lo:hi] if hi <= phi_100k.size else factorized_phi(lo, hi)
        seg = totient_sieve(lo, hi)
        first = lo | 1
        assert (seg.lo, seg.hi, seg.first) == (lo, hi, first)
        assert np.array_equal(seg.phi, phi[first - lo :: 2])

    def test_agrees_with_oracle_sieve(self):
        phi = sieve_phi(50_000)
        assert np.array_equal(totient_sieve(1, 50_001).phi, phi[1::2])
        assert np.array_equal(totient_sieve(30_000, 40_000).phi, phi[30_001:40_000:2])


def totient_sieve_int64(lo: int, hi: int) -> np.ndarray:
    """Totients of the odd n in [lo, hi) by a plain int64 prime-power sieve
    over the conftest prime mask, dividing with //: the reference for
    totient_sieve's uint32 rem and phi, sharing no code with it."""
    first = lo | 1
    rem = np.arange(first, hi, 2, dtype=np.int64)
    phi = np.ones(rem.size, dtype=np.int64)
    for p in np.flatnonzero(sieve_prime_mask(math.isqrt(hi - 1)))[1:].tolist():
        pe, e = p, 1
        while pe < hi:
            # The first odd multiple of pe at or above first.
            m = -(-first // pe) * pe
            m += pe * (m % 2 == 0)
            s = slice((m - first) // 2, None, pe)
            rem[s] //= p
            phi[s] *= p if e > 1 else p - 1
            pe *= p
            e += 1
    return phi * np.maximum(rem - 1, 1)


class TestUint32TotientSieve:
    """totient_sieve's uint32 arrays against the int64 reference and
    against factorization."""

    def test_uint32_fits_below_int64_ceiling(self):
        # Every n sieved is below _INT64_SAFE_HI, so uint32 holds n and phi(n).
        assert _INT64_SAFE_HI < 2**32
        assert totient_sieve(1, 10).phi.dtype == np.uint32

    @pytest.mark.parametrize("lo, hi", [
        (1, 20_001),
        (2**31 - 10_000, 2**31 + 10_000),
        (_INT64_SAFE_HI - 20_000, _INT64_SAFE_HI),
    ])
    def test_matches_int64_reference(self, lo, hi):
        assert np.array_equal(totient_sieve(lo, hi).phi, totient_sieve_int64(lo, hi))

    def test_matches_factorization_across_2_31(self):
        # TestOddTotientSieve checks the window ending at _INT64_SAFE_HI.
        lo, hi = 2**31 - 10_000, 2**31 + 10_000
        phi = totient_sieve(lo, hi).phi
        assert phi.tolist() == [euler_phi(factorize(n)) for n in range(lo | 1, hi, 2)]


class TestTiledTotientPatterns:
    """3, 5, 7, 11 and 13 enter totient_sieve from patterns of period
    _TOTIENT_PERIOD in odd-index space, and only their powers through the
    prime-power loop, which starts them at p^2."""

    @pytest.mark.parametrize("m", [0, 1, 33])
    @pytest.mark.parametrize("r", [0, 1, _TOTIENT_PERIOD - 1])
    def test_windows_on_the_pattern_seam(self, m, r, phi_100k):
        # The first odd index (n - 1) / 2 of the window is r mod the period:
        # a short window against the conftest sieves (factorization above
        # them), and one of four periods, which the sieve fills by doubling
        # copies, against the int64 reference.
        first = 2 * (m * _TOTIENT_PERIOD + r) + 1
        short, long = first + 3000, first + 2 * (4 * _TOTIENT_PERIOD + 100)
        phi = phi_100k[first:short] if short <= phi_100k.size else factorized_phi(first, short)
        assert np.array_equal(totient_sieve(first, short).phi, phi[::2])
        assert np.array_equal(totient_sieve(first, long).phi, totient_sieve_int64(first, long))

    def test_windows_at_tiled_prime_powers(self):
        # Windows of 1 and 7 values starting from 3 below to 2 above each
        # power p^2 .. p^7 of a tiled prime, where the loop takes over.
        for p in (3, 5, 7, 11, 13):
            for e in range(2, 8):
                for lo in range(p**e - 3, p**e + 3):
                    for hi in (lo + 1, lo + 7):
                        assert np.array_equal(totient_sieve(lo, hi).phi,
                                              totient_sieve_int64(lo, hi)), (lo, hi)

    def test_every_window_below_200(self, phi_100k):
        # Here the tiled primes can lie above isqrt(hi - 1), where the loop
        # never reaches them: their phi comes from the patterns alone.
        for hi in range(2, 201):
            for lo in range(1, hi):
                seg = totient_sieve(lo, hi)
                first = lo | 1
                assert np.array_equal(seg.phi, phi_100k[first:hi:2]), (lo, hi)


class TestPrimeShortcut:
    """_classify_arrays gives every odd prime index 1 from phi(n) = n - 1
    alone; every other n keeps the index lehmer_index gives."""

    @pytest.mark.parametrize("lo, hi", [
        (1, 5_001),  # holds the tiled primes 3, 5, 7, 11 and 13 themselves
        (2**31 - 5_000, 2**31 + 5_000),
        (_INT64_SAFE_HI - 10_000, _INT64_SAFE_HI),
    ])
    def test_primes_index_one_at_the_edges(self, lo, hi):
        _, index = _classify_arrays(lo, hi)
        for n, ix in zip(range(lo, hi), index.tolist()):
            if n % 2 and is_prime(n):
                assert ix == 1, n
            else:
                idx = lehmer_index(n)
                assert ix == (idx.k if idx.is_finite else 0), n


class TestClassifyRange:
    def test_singletons(self):
        assert list(classify_range(1, 2)) == [(1, LehmerIndex.finite(1))]
        assert list(classify_range(561, 562)) == [(561, LehmerIndex.finite(2))]
        # segments without an odd n
        assert list(classify_range(2, 3)) == [(2, LehmerIndex.finite(1))]
        assert list(classify_range(4, 5)) == [(4, NOT_IN_LINF)]

    def test_composites_below_100(self):
        finite_composites = {}
        for n, idx in classify_range(2, 100):
            if idx.is_finite and not is_prime(n):
                finite_composites[n] = idx.k
        assert finite_composites == {15: 3, 51: 5, 85: 3, 91: 3}

    def test_agrees_with_lehmer_index_to_1e5(self):
        with segments_of(37_123):
            for n, idx in classify_range(1, 100_001):
                assert idx == lehmer_index(n), n

    def test_validation(self):
        for lo, hi in ((0, 10), (5, 5)):
            with pytest.raises(ValueError):
                next(classify_range(lo, hi))
        with pytest.raises(LimitExceededError):
            next(classify_range(1, _INT64_SAFE_HI + 1))

    @settings(max_examples=8, deadline=None)
    @given(lo=st.integers(1, _INT64_SAFE_HI - 2000), w=st.integers(1, 2000))
    @example(lo=_INT64_SAFE_HI - 2000, w=2000)
    def test_agrees_with_lehmer_index_anywhere(self, lo, w):
        for n, idx in classify_range(lo, lo + w):
            assert idx == lehmer_index(n), n


def linear_index(lo: int, hi: int, phi: np.ndarray) -> np.ndarray:
    """Indexes by the plain iteration acc <- acc * (n-1) mod phi alone,
    over the odd n of [lo, hi) with their totients ``phi``, each stopped
    at its cutoff bitlength(phi) - 1.  Even n get index 0, except 2."""
    first = lo | 1
    n = np.arange(first, hi, 2, dtype=np.int64)
    phi = phi.astype(np.int64)
    cut = np.frexp(phi.astype(np.float64))[1] - 1
    base = (n - 1) % phi
    acc = base.copy()
    odd_index = np.zeros(n.size, dtype=np.uint8)
    for k in range(1, int(cut.max()) + 1):
        odd_index[(acc == 0) & (odd_index == 0) & (k <= cut)] = k
        acc = acc * base % phi
    odd_index[n == 1] = 1
    index = np.zeros(hi - lo, dtype=np.uint8)
    index[first - lo :: 2] = odd_index
    if lo <= 2 < hi:
        index[2 - lo] = 1
    return index


class TestSquaringCertificate:
    """The squaring pre-filter must leave every index exactly as the
    linear iteration alone computes it."""

    @pytest.mark.parametrize("lo", [1, 10**7 - 10**4, 10**8 - 10**6, _INT64_SAFE_HI - 20_000])
    def test_matches_linear_iteration(self, lo):
        hi = lo + 20_000
        _, index = _classify_arrays(lo, hi)
        assert np.array_equal(index, linear_index(lo, hi, totient_sieve(lo, hi).phi))

    @pytest.mark.parametrize("n", [1, 15, 255, 65535])
    def test_index_at_the_squaring_cutoff(self, n):
        # A singleton window squares up to its own cutoff.  15, 255 and
        # 65535 are products of Fermat primes: phi(n) = 2^c and the index
        # is c, the cutoff itself, so one squaring fewer certifies them
        # outside L_inf.  For n = 1 the window's largest phi is 1.
        idx = lehmer_index(n)
        assert idx.k == max(1, euler_phi(n).bit_length() - 1)
        assert list(classify_range(n, n + 1)) == [(n, idx)]


def least_power_index(base: int, phi: int) -> int:
    """The least k >= 1 with phi | base^k, by exact powers, or 0 when no k
    up to 64 works (a finite index below 2^32 is at most 31): the
    reference for _power_index, sharing no code with it."""
    return next((k for k in range(1, 65) if pow(base, k, phi) == 0), 0)


class TestPowerIndex:
    """_power_index, the one loop that lehmer_index and the bulk path
    share, against exact powers rather than against itself."""

    def test_every_certified_member_near_1e7(self):
        # All odd n of the window go through the certificate, primes too.
        lo, hi = 10**7 - 10**4, 10**7
        phi = totient_sieve(lo, hi).phi.astype(np.int64).tolist()
        first = lo | 1
        expected = {}
        for i, ph in enumerate(phi):
            k = least_power_index((first + 2 * i - 1) % ph, ph)
            if k:
                expected[i] = k
        pos, index = _lehmer_indexes(np.array(phi, dtype=np.uint32), first,
                                     np.arange(len(phi)))
        assert dict(zip(pos.tolist(), index.tolist())) == expected
        composites = [i for i in expected if not is_prime(first + 2 * i)]
        assert len(composites) > 1 and max(expected.values()) > 2
        for i, k in expected.items():
            ph = phi[i]
            assert _power_index((first + 2 * i - 1) % ph, ph) == k

    def test_phi_one(self):
        # n = 1 and n = 2: phi = 1 divides base^1 = 0.
        assert _power_index(0, 1) == least_power_index(0, 1) == 1
        assert lehmer_index(1) == lehmer_index(2) == LehmerIndex.finite(1)
        pos, index = _lehmer_indexes(np.array([1], dtype=np.uint32), 1, np.arange(1))
        assert (pos.tolist(), index.tolist()) == ([0], [1])


def assert_window_matches_linear(q: int, r: int, lo: int, w: int, lo_even: bool):
    # Move the window so that its first odd n is r (mod q).
    first = lo | 1
    first += 2 * ((r - first) * pow(2, -1, q) % q)
    lo = max(1, first - lo_even)
    hi = first + w
    _, index = _classify_arrays(lo, hi)
    assert (lo | 1) % q == r
    assert np.array_equal(index, linear_index(lo, hi, totient_sieve(lo, hi).phi))


class TestExclusionFilter:
    """The 3·5·7 exclusion filter leaves every index as the linear iteration
    alone computes it, whatever residue the window's first odd n has mod q."""

    @pytest.mark.parametrize("q", [3, 5, 7])
    @pytest.mark.parametrize("r", [0, 1, 2])
    @settings(max_examples=4, deadline=None)
    @given(lo=st.integers(1, _INT64_SAFE_HI - 3000), w=st.integers(1, 2000),
           lo_even=st.booleans())
    @example(lo=1, w=2000, lo_even=False)
    @example(lo=10**7, w=2000, lo_even=True)
    @example(lo=_INT64_SAFE_HI - 2100, w=2000, lo_even=True)
    def test_matches_linear_iteration(self, q, r, lo, w, lo_even):
        assert_window_matches_linear(q, r, lo, w, lo_even)

    @pytest.mark.slow
    @settings(max_examples=300, deadline=None)
    @given(q=st.sampled_from([3, 5, 7]), r=st.integers(0, 2),
           lo=st.integers(1, _INT64_SAFE_HI - 12_000), w=st.integers(1, 10_000),
           lo_even=st.booleans())
    def test_matches_linear_iteration_long(self, q, r, lo, w, lo_even):
        assert_window_matches_linear(q, r, lo, w, lo_even)


class TestCountTable:
    def test_reference_columns_to_1e2(self):
        table = count_table(100, (2,))
        assert table.count(2, 10) == 5
        assert table.count(2, 100) == 26

    def test_k5_at_1e4(self):
        assert count_table(10_000, (5,)).count(5, 10_000) == 1303

    def test_inf_always_present(self):
        table = count_table(1000, (2,))
        assert table.counts[math.inf] == (5, 30, 188)
        assert table.ks == (2,)

    def test_monotone_in_k_and_bounded_by_inf(self):
        table = count_table(100_000, (2, 3, 4, 5, math.inf))
        for power in table.powers:
            row = [table.count(k, power) for k in (2, 3, 4, 5)]
            assert row == sorted(row)
            assert row[-1] <= table.count(math.inf, power)

    def test_counts_match_classify_stream_to_1e4(self):
        indexes = dict(classify_range(1, 10_001))
        table = count_table(10_000, (2, 3, 4, 5, math.inf))
        for power in (10, 100, 1000, 10_000):
            for k in (2, 3, 4, 5):
                expected = sum(
                    1 for n in range(1, power + 1) if indexes[n] <= k
                )
                assert table.count(k, power) == expected
            expected_inf = sum(
                1 for n in range(1, power + 1) if indexes[n].is_finite
            )
            assert table.count(math.inf, power) == expected_inf

    @pytest.mark.parametrize("lo, hi", [(1, 10_001), (10**7 - 10**4, 10**7)])
    def test_segment_histogram_counts_every_value(self, lo, hi):
        _, index = _classify_arrays(lo, hi)
        expected = np.bincount(index, minlength=K_CAP + 1)
        assert np.array_equal(next(_histogram_scan([(lo, hi)])), expected)

    def test_ks_ascend_once_each_with_inf_last(self):
        assert count_table(1000, (math.inf, 200, 5, 2, 2)).ks == (2, 5, 200, math.inf)

    def test_huge_k_counts_as_inf(self):
        table = count_table(1000, (500,))
        assert table.counts[500] == table.counts[math.inf]

    def test_deterministic_across_segments_and_workers(self):
        reference = count_table(100_000, (2, 5))
        for seg in (7_777, 33_333):
            with segments_of(seg):
                assert count_table(100_000, (2, 5)).counts == reference.counts
        assert count_table(100_000, (2, 5), workers=2).counts == reference.counts

    @settings(max_examples=8, deadline=None)
    @given(segment_size=st.integers(1, 20_000))
    def test_segment_size_invariant(self, segment_size):
        reference = count_table(10**4)
        with segments_of(segment_size):
            assert count_table(10**4).counts == reference.counts

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            count_table(5000, (2,))  # not a power of ten
        with pytest.raises(LimitExceededError):
            count_table(10**10, (2,))  # past the int64 bound
        count_table(10, (2,))  # smallest accepted

    def test_raised_ceiling(self):
        # The library has no desk-scale ceiling (the CLI keeps that): a
        # limit past 10^7 gets through to the power-of-ten check.
        with pytest.raises(ValueError, match="power of 10"):
            count_table(2 * 10**7, (2,))

    def test_empty_k_list_rejected(self):
        with pytest.raises(ValueError):
            count_table(100, ())


class TestLimitBounds:
    """The library's one bound on a limit is the int64 one, limit <
    _INT64_SAFE_HI; the desk-scale ceilings belong to the CLI."""

    @pytest.mark.parametrize("run", [
        lambda: count_table(10**10),
        lambda: enumerate_Lk_composites(_INT64_SAFE_HI, 2),
        lambda: enumerate_carmichael(_INT64_SAFE_HI),
        lambda: alpha_search(4, _INT64_SAFE_HI),
    ], ids=["count_table", "enumerate_Lk_composites", "enumerate_carmichael",
            "alpha_search"])
    def test_int64_bound_raises_before_sieving(self, monkeypatch, run):
        def refuse(*args, **kwargs):
            raise AssertionError("sieved past the int64 bound")

        for name in ("totient_sieve", "_korselt_scan", "_segment_bounds"):
            monkeypatch.setattr(f"klehmer.sieve.{name}", refuse)
        with pytest.raises(LimitExceededError) as err:
            run()
        assert str(err.value) == f"limit must stay below {_INT64_SAFE_HI}"

    def test_carmichael_past_1e7(self):
        below = enumerate_carmichael(10**7)
        got = enumerate_carmichael(2 * 10**7)
        assert len(below) == 105 and got[:105] == below
        assert len(got) > 105
        assert all(korselt_test(n) for n in got)


class TestEnumerate:
    def test_l2_composites(self):
        assert enumerate_Lk_composites(50_000, 2) == A173703_BELOW_50000
        assert enumerate_Lk_composites(500, 2) == []
        assert enumerate_Lk_composites(100, 3) == [15, 85, 91]

    def test_members_check_out(self):
        for n in enumerate_Lk_composites(20_000, 4):
            assert not is_prime(n) and n > 1
            assert in_Lk(n, 4)

    def test_carmichael_lists(self):
        assert enumerate_carmichael(3000) == [561, 1105, 1729, 2465, 2821]
        assert enumerate_carmichael(500) == []
        assert enumerate_carmichael(10_000) == [561, 1105, 1729, 2465, 2821, 6601, 8911]

    def test_carmichael_against_korselt_to_1e5(self):
        carms = set(enumerate_carmichael(100_000))
        assert len(carms) == 16
        for n in carms:
            assert korselt_test(n), n
        # spot-check the complement on a stride
        for n in range(3, 100_001, 101):
            assert (n in carms) == korselt_test(n), n

    def test_deterministic(self):
        with segments_of(9_999):
            a = enumerate_carmichael(50_000)
        assert a == enumerate_carmichael(50_000)


def korselt_by_trial_division(lo: int, hi: int) -> list[int]:
    out = []
    for n in range(max(lo, 2), hi):
        f = trial_factorize(n)
        if (sum(f.values()) >= 2 and all(e == 1 for e in f.values())
                and all((n - 1) % (p - 1) == 0 for p in f)):
            out.append(n)
    return out


def assert_sieve_matches_korselt_test(lo: int, hi: int):
    got = next(_korselt_scan([(lo, hi)])).tolist()
    assert got == [n for n in range(lo, hi) if korselt_test(n)]


class TestOddKorseltSieve:
    """The odd-only Korselt sieve against trial factorization and korselt_test."""

    @pytest.mark.parametrize("lo, hi", [
        (2, 4), (561, 562), (560, 562), (560, 10_000), (561, 10_001),
        (1, 10),  # 1 is not a Carmichael number
        (2, 10_000),  # holds the base primes 3..97 themselves
        (41_470_000, 41_473_000),  # holds alpha(4) = 41471521
    ])
    def test_matches_trial_division(self, lo, hi):
        got = next(_korselt_scan([(lo, hi)])).tolist()
        assert got == korselt_by_trial_division(lo, hi)

    def test_window_ending_at_int64_ceiling(self):
        assert_sieve_matches_korselt_test(_INT64_SAFE_HI - 2000, _INT64_SAFE_HI)

    @settings(max_examples=8, deadline=None)
    @given(lo=st.integers(1, _INT64_SAFE_HI - 500), w=st.integers(1, 500))
    @example(lo=2_998_467_901 - 250, w=500)  # the last Carmichael number below 3e9
    def test_agrees_with_korselt_test_anywhere(self, lo, w):
        assert_sieve_matches_korselt_test(lo, lo + w)

    @pytest.mark.slow
    @settings(max_examples=200, deadline=None)
    @given(lo=st.integers(1, _INT64_SAFE_HI - 5000), w=st.integers(1, 5000))
    def test_agrees_with_korselt_test_anywhere_long(self, lo, w):
        assert_sieve_matches_korselt_test(lo, lo + w)

    @settings(max_examples=6, deadline=None)
    @given(segment_size=st.integers(100, 100_000))
    def test_segment_size_invariant(self, segment_size):
        reference = enumerate_carmichael(10**5)
        with segments_of(segment_size):
            assert enumerate_carmichael(10**5) == reference

    @pytest.mark.slow
    def test_count_to_1e8(self):
        assert len(enumerate_carmichael(10**8)) == 255


def korselt_residue_product_int64(lo: int, hi: int) -> list[int]:
    """The int64 residue product with one strided pass per odd base prime:
    the reference for _korselt_scan's uint32 product and scatter."""
    first = max(lo, 2) | 1
    n = np.arange(first, hi, 2, dtype=np.int64)
    prod = np.ones(n.size, dtype=np.int64)
    for p in base_primes(math.isqrt(hi - 1))[1:].tolist():
        period = p * (p - 1)
        start = max(first, p + 2)
        start += (p - start) % period
        prod[(start - first) // 2 :: period // 2] *= p
    return n[prod == n].tolist()


@functools.cache
def carmichael_multiples_below_1e6(p: int) -> list[int]:
    return [n for n in korselt_residue_product_int64(2, 10**6) if n % p == 0]


class TestKorseltResidueOracle:
    """_korselt_scan against the int64 residue product."""

    def test_uint32_product_fits_below_int64_ceiling(self):
        # prod divides n < _INT64_SAFE_HI, so its uint32 dtype relies on this.
        assert _INT64_SAFE_HI < 2**32

    @pytest.mark.parametrize("lo, hi", [
        (2, 10**6 + 2),
        (9 * 10**6, 10**7),
        (_INT64_SAFE_HI - 2000, _INT64_SAFE_HI),
        pytest.param(4 * 10**7, 4 * 10**7 + 10**6, marks=pytest.mark.slow),
        pytest.param(99 * 10**6, 10**8, marks=pytest.mark.slow),
        # holds 2998467901, the last Carmichael number below 3e9
        pytest.param(2_998_000_000, 2_999_000_000, marks=pytest.mark.slow),
    ])
    def test_matches_reference(self, lo, hi):
        assert next(_korselt_scan([(lo, hi)])).tolist() == korselt_residue_product_int64(lo, hi)

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([5, 7, 11, 13, 17, 97]), hits=st.sampled_from([1, _LOOP_HITS]),
           d=st.integers(-2, 2), i=st.integers(0, 30), offset=st.integers(0, 5000),
           lo_even=st.booleans(), hi_even=st.booleans())
    @example(p=5, hits=1, d=1, i=0, offset=5000, lo_even=False, hi_even=False)
    @example(p=97, hits=1, d=1, i=1, offset=5000, lo_even=True, hi_even=True)
    @example(p=17, hits=_LOOP_HITS, d=0, i=0, offset=0, lo_even=False, hi_even=False)
    @example(p=17, hits=_LOOP_HITS, d=1, i=0, offset=0, lo_even=False, hi_even=False)
    def test_windows_around_each_stride(self, p, hits, d, i, offset, lo_even, hi_even):
        # A window of `size` odd values holding a Carmichael multiple c of p.
        # 5, 7, 11 and 13 come from the tiled pattern.  Any other p is
        # looped when its stride p(p-1)/2 fits more than _LOOP_HITS times
        # into the window (hits = _LOOP_HITS, d >= 1) and scattered, with up
        # to _LOOP_HITS hits, otherwise.  With d = 1 and c last, p also hits
        # the first value.  A window that would reach below 3 starts at 3.
        size = hits * (p * (p - 1) // 2) + d
        multiples = carmichael_multiples_below_1e6(p)
        c = multiples[i % len(multiples)]
        first = max(c - 2 * min(offset, size - 1), 3)
        lo, hi = first - lo_even, first + 2 * size - hi_even
        got = next(_korselt_scan([(lo, hi)])).tolist()
        assert c in got
        assert got == korselt_residue_product_int64(lo, hi)

    @pytest.mark.parametrize("m", [0, 1, 33])
    @pytest.mark.parametrize("r", [0, 1, _PATTERN_PERIOD - 1])
    def test_windows_on_the_pattern_seam(self, m, r):
        # The first odd index (n - 1) / 2 of the window is r mod the
        # pattern's period: a short window against trial division, and one
        # of four periods, which the scan fills by doubling copies, against
        # the int64 product.
        first = 2 * (m * _PATTERN_PERIOD + r) + 1
        short, long = first + 3000, first + 2 * (4 * _PATTERN_PERIOD + 100)
        assert (next(_korselt_scan([(first, short)])).tolist()
                == korselt_by_trial_division(first, short))
        assert (next(_korselt_scan([(first, long)])).tolist()
                == korselt_residue_product_int64(first, long))

    def test_small_segments_around_the_tiled_primes(self):
        # The n = 3, 5, 7, 11, 13 that the tiled pattern must skip fall in
        # different segments of each scan from lo with segments of 1..40.
        hi = 600  # holds 561 = 3 * 11 * 17
        reference = korselt_by_trial_division(2, hi)
        assert reference == korselt_residue_product_int64(2, hi) == [561]
        for lo in range(2, 16):
            for size in range(1, 41):
                with segments_of(size):
                    got = np.concatenate(list(_korselt_scan(_segment_bounds(lo, hi))))
                assert got.tolist() == reference, (lo, size)

    def test_scan_without_segments(self):
        assert enumerate_carmichael(1) == []
        assert alpha_search(1, 1) == AlphaNotFound(k=1, bound=1)

    def test_short_last_segment(self):
        # The scan's buffer is sized for segments of 10 000 values and the
        # last one holds 1039; the Carmichael number 41041 lies just past it.
        with segments_of(10_000):
            assert _segment_bounds(2, 41_041)[-1] == (40_002, 41_041)
            got = enumerate_carmichael(41_040)
        assert got == korselt_residue_product_int64(2, 41_041) == korselt_by_trial_division(2, 41_041)

    def test_pad_ignores_buffer_garbage(self, monkeypatch):
        # Each fresh uint32 buffer reads n = 3 + 2i at index i, the n of the
        # segment from 2, so an unzeroed pad entry past hi reads as a hit.
        empty = np.empty

        def odd_n(shape, dtype=float):
            buf = empty(shape, dtype)
            if np.dtype(dtype) == np.uint32:
                buf[...] = (3 + 2 * np.arange(buf.size, dtype=np.uint32)).reshape(buf.shape)
            return buf

        monkeypatch.setattr(np, "empty", odd_n)
        assert enumerate_carmichael(2000) == [561, 1105, 1729]


class TestAlphaSearch:
    def test_examples(self):
        r = alpha_search(1, 10_000)
        assert (r.n, r.omega, r.bound) == (561, 3, 10_000)
        r = alpha_search(2, 10_000)
        assert (r.n, r.omega) == (2821, 3)

    def test_not_found_carries_bound(self):
        r = alpha_search(9, 10_000)
        assert isinstance(r, AlphaNotFound)
        assert r.bound == 10_000 and r.k == 9

    def test_search_agrees_with_verify(self):
        for k in (1, 2):
            found = alpha_search(k, 10_000)
            checked = verify_alpha_entry(k, found.n)
            assert (checked.n, checked.omega, checked.in_next) == (
                found.n, found.omega, found.in_next,
            )
            assert checked.bound == 0 and found.bound == 10_000

    def test_minimality_below_bound(self):
        r = alpha_search(2, 10_000)
        for n in enumerate_carmichael(r.n - 1):
            assert in_Lk(n, 2)


class TestVerifyAlpha:
    def test_direct_rows(self):
        rec = verify_alpha_entry(4, 41471521)
        assert (rec.omega, rec.in_next, rec.bound) == (5, True, 0)
        rec = verify_alpha_entry(9, 330019822807208371201)
        assert (rec.omega, rec.in_next) == (10, True)

    def test_factors_n_once(self, factorize_calls):
        n = 330019822807208371201
        verify_alpha_entry(9, n)
        # the index needs only phi(n), which n's primes give: no p - 1 is factored
        assert factorize_calls == [n]

    def test_conjectural_flags_for_k3(self):
        rec = verify_alpha_entry(3, 838201)
        assert rec.in_next  # 838201 lies in L_4

    def test_failure_values_are_distinct(self):
        with pytest.raises(NotCarmichaelError):
            verify_alpha_entry(1, 15)
        with pytest.raises(NotCarmichaelError):
            verify_alpha_entry(1, 97)  # prime
        with pytest.raises(LehmerMembershipError):
            verify_alpha_entry(2, 561)  # 561 is in L_2
        with pytest.raises(ValueError):
            verify_alpha_entry(0, 561)


class TestBasePrimes:
    def test_agrees_with_oracle_mask(self):
        assert base_primes(100).tolist() == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
            61, 67, 71, 73, 79, 83, 89, 97,
        ]
        assert np.array_equal(base_primes(10_000), np.flatnonzero(sieve_prime_mask(10_000)))
        assert base_primes(1).size == 0
        with pytest.raises(ValueError):
            base_primes(-1)

    def test_cap_raises_before_allocating(self, monkeypatch):
        # The cap is totient_sieve's largest hi - lo; with a small one
        # patched in, a 2**100 limit must raise, never reach np.ones.
        cap = 500
        monkeypatch.setattr("klehmer.sieve._SIEVE_MAX_ODD", cap)
        assert base_primes(2 * cap).size == 168
        for limit in (2 * cap + 1, 2**100):
            with pytest.raises(LimitExceededError) as err:
                base_primes(limit)
            assert str(2 * cap) in str(err.value)


class TestSegmentMemory:
    """Measured peaks stay under _BYTES_PER_VALUE per value."""

    LO, HI = 10**7, 10**7 + 200_000

    # (run, bytes per value, step of the values counted): the totient sieve
    # is bounded per odd value it sieves, a bulk segment per value of the range.
    # totient_sieve_odd starts the window on an odd lo, which holds as many
    # odd values as the even-started window.
    @pytest.mark.parametrize("run, per_value, step", [
        (lambda lo, hi: totient_sieve(lo, hi), _BYTES_PER_VALUE, 2),
        (lambda lo, hi: totient_sieve(lo + 1, hi), _BYTES_PER_VALUE, 2),
        (lambda lo, hi: _classify_arrays(lo, hi), _BYTES_PER_VALUE, 1),
        (lambda lo, hi: next(_lk_scan([(lo, hi)], 3)), _BYTES_PER_VALUE, 1),
        (lambda lo, hi: next(_korselt_scan([(lo, hi)])), _BYTES_PER_VALUE, 1),
    ], ids=["totient_sieve", "totient_sieve_odd", "classify_arrays", "lk_members", "carmichael"])
    def test_peak_within_budget(self, run, per_value, step):
        tracemalloc.start()
        try:
            run(self.LO, self.HI)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_value * len(range(self.LO, self.HI, step))

    def test_korselt_scan_charged_once(self):
        # A scan of 50 segments holds one plan and one buffer, sized by the
        # segment and not by the range: a tile of all 5 * 10^6 odd n below
        # 10^7 would take 20 MB.
        size = 200_000
        tracemalloc.start()
        try:
            with segments_of(size):
                found = enumerate_carmichael(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found) == 105
        assert peak <= _BYTES_PER_VALUE * size

    def test_count_scan_charged_once(self):
        # A count of 5 segments holds one plan: the rem and phi buffers and
        # two masks, sized by the segment and not by the range.
        size = 200_000
        tracemalloc.start()
        try:
            with segments_of(size):
                table = count_table(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.count(math.inf, 10**6) == 80058
        assert peak <= _BYTES_PER_VALUE * size

    def test_direct_sieve_owns_its_totients(self):
        # A scan's segments share its buffers; a direct call's do not.
        lo, hi = 10**6, 10**6 + 2_000
        seg = totient_sieve(lo, hi)
        kept = seg.phi.copy()
        again = totient_sieve(lo, hi)
        count_table(10**4)
        assert not np.shares_memory(seg.phi, again.phi)
        assert np.array_equal(seg.phi, kept)
        assert np.array_equal(again.phi, kept)

    def test_count_merges_histograms_as_they_arrive(self):
        # 1000 segments of 1 value: holding every segment's histogram of
        # K_CAP + 1 int64 counts until the merge would take about 1 MiB.
        tracemalloc.start()
        try:
            with segments_of(1):
                count_table(10**3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1000 * (K_CAP + 1) * 8 // 4


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool by one that records its size and maps in process."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, iterable):
            return map(func, iterable)

    monkeypatch.setattr("klehmer.sieve.ProcessPoolExecutor", SerialPool)
    return sizes


class TestWorkerPool:
    SEGMENTS_TO_1E4 = 4  # count_table splits at 10, 100 and 1000

    def test_pool_capped_by_cores_and_segments(self, pool_sizes):
        table = count_table(10**4, workers=64)
        assert table.counts == count_table(10**4).counts
        for size in pool_sizes:
            assert size <= (os.cpu_count() or 1)
            assert size <= self.SEGMENTS_TO_1E4

    @pytest.mark.parametrize("cores, expected", [(1, []), (3, [3]), (64, [SEGMENTS_TO_1E4])])
    def test_pool_size_for_core_count(self, pool_sizes, monkeypatch, cores, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        count_table(10**4, workers=64)
        assert pool_sizes == expected

    def test_korselt_sieve_starts_no_pool(self, pool_sizes):
        reference = enumerate_carmichael(10**5)
        with segments_of(9_999):
            assert enumerate_carmichael(10**5) == reference
        with pytest.raises(TypeError):
            enumerate_carmichael(10**5, workers=2)
        # Segment sizes are the library's own choice.
        with pytest.raises(TypeError):
            enumerate_carmichael(10**5, segment_size=9_999)
        with pytest.raises(TypeError):
            count_table(10**3, segment_size=1)
        assert pool_sizes == []


class TestWorkerValidation:
    """``workers`` is checked on entry, before any segment is sieved or any
    pool is asked for; cpu_count is patched so that the value itself, not
    the machine, would size a pool."""

    @pytest.mark.parametrize("workers, error, message", [
        (0, ValueError, "workers must be >= 1, got 0"),
        (-3, ValueError, "workers must be >= 1, got -3"),
        (2.5, TypeError, "'float' object cannot be interpreted as an integer"),
    ])
    @pytest.mark.parametrize("run", [
        lambda w: count_table(10**4, (2,), workers=w),
        lambda w: enumerate_Lk_composites(10**4, 2, workers=w),
    ], ids=["count_table", "enumerate_Lk_composites"])
    def test_bad_workers_rejected_up_front(self, pool_sizes, monkeypatch, run,
                                           workers, error, message):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        sieved = []
        original = totient_sieve
        monkeypatch.setattr("klehmer.sieve.totient_sieve",
                            lambda *a, **kw: sieved.append(a) or original(*a, **kw))
        with pytest.raises(error) as err:
            run(workers)
        assert str(err.value) == message
        assert (sieved, pool_sizes) == ([], [])


class TestBufferReuse:
    """A scan reuses its buffers from segment to segment.  A count's
    segments grow from the cuts at 11, 101, ... and the last one shrinks, so
    a stale value from an earlier or longer segment would show up as a
    difference between segmentations, in process or in a pool worker's run
    of segments.  The classify windows start at an even and an odd lo."""

    @staticmethod
    def outputs(workers: int):
        return (
            count_table(10**4, workers=workers).counts,
            enumerate_Lk_composites(10**4, 3, workers=workers),
            [list(classify_range(lo, lo + 3_000)) for lo in (10**6, 10**6 + 1)],
        )

    @pytest.fixture(scope="class")
    def reference(self):
        return self.outputs(1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("size", [1, 7_777, None])
    def test_same_under_any_segmentation(self, pool_sizes, monkeypatch, reference,
                                         size, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        if size is None:
            got = self.outputs(workers)
        else:
            with segments_of(size):
                got = self.outputs(workers)
        assert got == reference
        # Every run that has two segments or more takes a pool of 2.
        assert set(pool_sizes) == ({2} if workers == 2 else set())


@pytest.mark.slow
class TestWorkerCount:
    """One worker and a real two-process pool give identical results.

    Limits of at least 2*10^5 over segments of at most 10^5 values give
    every run two segments or more, so the pool is really used.
    """

    @settings(max_examples=4, deadline=None)
    @given(limit=st.sampled_from([10**5, 10**6]), segment_size=st.integers(5_000, 100_000))
    def test_count_table(self, limit, segment_size):
        with segments_of(segment_size):
            one, two = (count_table(limit, workers=w) for w in (1, 2))
        assert one == two

    @settings(max_examples=4, deadline=None)
    @given(limit=st.integers(2 * 10**5, 10**6), k=st.integers(1, 6),
           segment_size=st.integers(5_000, 100_000))
    def test_enumerate_Lk_composites(self, limit, k, segment_size):
        with segments_of(segment_size):
            one, two = (enumerate_Lk_composites(limit, k, workers=w) for w in (1, 2))
        assert one == two


@pytest.mark.slow
class TestLargeRange:
    def test_count_table_1e7_column(self):
        table = count_table(10**7, (2, 3, 4, 5, math.inf))
        assert table.count(2, 10**7) == 664667
        assert table.count(3, 10**7) == 665538
        assert table.count(4, 10**7) == 666390
        assert table.count(5, 10**7) == 667282
        assert table.count(math.inf, 10**7) == 670225

    def test_count_table_1e8(self):
        table = count_table(10**8)
        assert table.counts == {
            2: (5, 26, 170, 1236, 9613, 78535, 664667, 5761621),
            3: (5, 29, 179, 1266, 9714, 78841, 665538, 5763967),
            4: (5, 29, 182, 1281, 9784, 79077, 666390, 5766571),
            5: (5, 30, 184, 1303, 9861, 79346, 667282, 5769413),
            math.inf: (5, 30, 188, 1333, 10015, 80058, 670225, 5780785),
        }

    def test_alpha4_below_5e7(self):
        r = alpha_search(4, 50_000_000)
        assert r.n == 41471521 and r.omega == 5 and r.in_next
