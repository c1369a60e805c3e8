import functools
import math
import os
import tracemalloc
from unittest import mock

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
    _BLOCK,
    _BYTES_PER_VALUE,
    _DEFAULT_SEGMENT,
    _INT64_SAFE_HI,
    _LOOP_HITS,
    _RUN_SHARE,
    _TILED_PRIMES,
    _TILED_RAD,
    _TOTIENT_PERIOD,
    _apply_steps,
    _classify_arrays,
    _classify_scan,
    _dense_index,
    _LOG_EDGES,
    _korselt_bar,
    _korselt_scan,
    _histogram_scan,
    _lehmer_indexes,
    _linf_steps,
    _lk_scan,
    _log8,
    _segment_bounds,
    _walk_steps,
    alpha_search,
    base_primes,
    classify_range,
    count_table,
    enumerate_carmichael,
    enumerate_Lk_composites,
    totient_sieve,
)

from conftest import (
    factors_from_spf, segments_of, sieve_phi, sieve_prime_mask, trial_factorize,
)


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


def scattered_hits(lo: int, hi: int) -> int:
    """How many hits the walk's steps of at most _LOOP_HITS hits make
    on the odd n in [lo, hi), counted from the conftest prime mask."""
    first, total = lo | 1, 0
    for p in np.flatnonzero(sieve_prime_mask(math.isqrt(hi - 1)))[1:].tolist():
        pe = p * p if p in _TILED_PRIMES else p
        while pe < hi:
            # The first odd multiple of pe at or above first.
            m = -(-first // pe) * pe
            m += pe * (m % 2 == 0)
            hits = len(range(m, hi, 2 * pe))
            total += hits if hits <= _LOOP_HITS else 0
            pe *= p
    return total


class TestWalkScatter:
    """The walk's strided steps and its np.multiply.at runs, against the
    int64 reference: at the loop threshold, across runs, and where two
    scattered steps hit one n."""

    @pytest.mark.parametrize("pe", [1009, 31**2])
    @pytest.mark.parametrize("hits", [_LOOP_HITS, _LOOP_HITS + 1])
    def test_step_at_the_loop_threshold(self, pe, hits):
        # From an odd multiple of pe near 10^7 to just past its hits-th.
        first = pe * (10**7 // pe | 1)
        for lo, hi in ((first, first + 2 * pe * (hits - 1) + 1),
                       (first - 1, first + 2 * pe * (hits - 1) + 2)):
            assert len(range(first, hi, 2 * pe)) == hits
            assert pe <= math.isqrt(hi - 1)
            assert np.array_equal(totient_sieve(lo, hi).phi, totient_sieve_int64(lo, hi))

    @pytest.mark.parametrize("lo, hi", [
        (99 * 10**6, 99 * 10**6 + _DEFAULT_SEGMENT // 8),
        (10**7 - 12_345, 10**7 + 543_210),
    ])
    def test_scatter_cut_into_runs(self, lo, hi):
        # More scattered hits than one run holds, so at least two runs.
        length = len(range(lo | 1, hi, 2))
        assert scattered_hits(lo, hi) > 2 * max(length // _RUN_SHARE, _LOOP_HITS)
        assert np.array_equal(totient_sieve(lo, hi).phi, totient_sieve_int64(lo, hi))

    @pytest.mark.parametrize("lo, hi", [
        (1, 20_001), (123_456, 180_001), (10**7 + 1, 10**7 + 40_000),
        (_INT64_SAFE_HI - 40_001, _INT64_SAFE_HI),
    ])
    def test_runs_at_the_smallest_cap(self, monkeypatch, lo, hi):
        # A share above the length cuts runs of at most _LOOP_HITS hits,
        # so most steps head a run of their own.
        monkeypatch.setattr("klehmer.sieve._RUN_SHARE", hi)
        assert scattered_hits(lo, hi) > 4 * _LOOP_HITS
        assert np.array_equal(totient_sieve(lo, hi).phi, totient_sieve_int64(lo, hi))

    @pytest.mark.parametrize("n, p, q", [
        (3 * 1009 * 1013, 1009, 1013),
        (3 * 1009**2, 1009, 1009**2),
        (1301 * 1303 * 1307, 1303, 1307),
    ])
    def test_two_scattered_steps_hit_one_n(self, n, p, q):
        # p and q divide n, each hits the window once and lies below
        # sqrt(hi), so both steps are scattered onto n's entry.
        lo, hi = n - 1000, n + 1000
        assert p <= math.isqrt(hi - 1) and n % p == n % q == 0
        assert len(range(lo | 1, hi, 2)) < p
        seg = totient_sieve(lo, hi)
        assert seg.phi[(n - seg.first) // 2] == euler_phi(factorize(n))
        assert np.array_equal(seg.phi, totient_sieve_int64(lo, hi))

    @pytest.mark.slow
    def test_segment_ending_at_the_int64_ceiling(self):
        lo, hi = _INT64_SAFE_HI - 10**6, _INT64_SAFE_HI
        assert scattered_hits(lo, hi) > 2 * (len(range(lo | 1, hi, 2)) // _RUN_SHARE)
        assert np.array_equal(totient_sieve(lo, hi).phi, totient_sieve_int64(lo, hi))


def apply_steps_by_position(op, bufs, values, first_hit, stride, j0):
    """_apply_steps one position at a time in Python ints: for each step,
    every index first_hit + m * stride inside [j0, j0 + length) takes the
    step's value into each buffer by ``op``."""
    out = [buf.tolist() for buf in bufs]
    length = len(out[0])
    for s, (f, h) in enumerate(zip(first_hit, stride)):
        for j in range(f, j0 + length, h):
            if j >= j0:
                for o, vals in zip(out, values):
                    o[j - j0] = op(o[j - j0], vals[s])
    return out


# (numpy op, its reference op in Python ints, buffer dtypes): the totient
# walk's multiply on rem and phi, and the Korselt scan's add on one byte.
APPLY_OPS = {
    "multiply": (np.multiply, lambda a, b: a * b % 2**32, (np.uint32, np.uint32)),
    "add": (np.add, lambda a, b: (a + b) % 2**8, (np.uint8,)),
}


# The window's first odd index and the loop threshold of the table cases.
J0, LOOP_HITS = 100, 3


class TestApplySteps:
    """_apply_steps, the step applier of both scans, against a per-position
    Python loop, with _LOOP_HITS patched to a small threshold.  With a
    window shorter than _RUN_SHARE times that threshold the scatter runs
    take the smallest cap, the threshold's hits.  The scans' own windows
    of length 0, such as totient_sieve(2, 3), are in TestOddTotientSieve."""

    def check(self, kind, steps, length, j0=J0, loop_hits=LOOP_HITS):
        op, reference, dtypes = APPLY_OPS[kind]
        rng = np.random.default_rng(len(steps) * 1000 + length)
        first_hit = np.array([f for f, _ in steps], dtype=np.int64)
        stride = np.array([h for _, h in steps], dtype=np.int64)
        bufs = [rng.integers(0, np.iinfo(t).max, length, dtype=t, endpoint=True) for t in dtypes]
        values = [rng.integers(1, np.iinfo(t).max, len(steps), dtype=t, endpoint=True)
                  for t in dtypes]
        expected = apply_steps_by_position(reference, bufs, [v.tolist() for v in values],
                                           first_hit.tolist(), stride.tolist(), j0)
        # Patched in the body, as hypothesis takes no function-scoped fixture.
        with mock.patch("klehmer.sieve._LOOP_HITS", loop_hits):
            _apply_steps(op, bufs, values, first_hit, stride, j0)
        assert [buf.tolist() for buf in bufs] == expected

    @pytest.mark.parametrize("kind", APPLY_OPS)
    @pytest.mark.parametrize("steps, length", [
        # Exactly loop_hits hits (scattered) and loop_hits + 1 (looped).
        ([(J0, 7), (J0 + 1, 6)], 20),
        ([(J0 + 5, 7)], 20),
        # First hits below j0, one far below, and one past the window.
        ([(J0 - 10, 7), (3, 5), (J0 + 20, 4)], 20),
        # A first hit on the window's last entry, and one on the next.
        ([(J0 + 19, 1), (J0 + 20, 1)], 20),
        # Two one-hit steps on entry 5, in one run of at most loop_hits hits.
        ([(J0 + 5, 50), (J0 + 5, 60)], 20),
        # A step of loop_hits hits fills a run; the next hits its entry 5.
        ([(J0 + 2, 3), (J0 + 5, 100)], 9),
        # Many scattered steps over several runs, with looped ones between.
        ([(J0 - 17 * h, h) for h in range(3, 40)], 40),
        # No steps, and windows of length 0 and 1.
        ([], 20),
        ([(J0, 3), (J0 - 1, 2)], 0),
        ([(J0, 3), (J0 - 1, 2), (J0 - 2, 2)], 1),
    ])
    def test_matches_per_position_loop(self, kind, steps, length):
        self.check(kind, steps, length)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(APPLY_OPS)),
           steps=st.lists(st.tuples(st.integers(0, 300), st.integers(1, 60)), max_size=30),
           length=st.integers(0, 200), j0=st.integers(0, 200), loop_hits=st.integers(1, 10))
    def test_random_tables(self, kind, steps, length, j0, loop_hits):
        self.check(kind, steps, length, j0, loop_hits)


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
    """The classify scan leaves every index exactly as the linear iteration
    alone computes it, at the edges of its range and where the index is
    the cutoff itself."""

    @pytest.mark.parametrize("lo", [1, 10**7 - 10**4, 10**8 - 10**6, _INT64_SAFE_HI - 20_000])
    def test_matches_linear_iteration(self, lo):
        hi = lo + 20_000
        _, index = _classify_arrays(lo, hi)
        assert np.array_equal(index, linear_index(lo, hi, totient_sieve(lo, hi).phi))

    @pytest.mark.parametrize("n", [1, 15, 255, 65535])
    def test_index_at_the_squaring_cutoff(self, n):
        # 15, 255 and 65535 are products of Fermat primes: phi(n) = 2^c and
        # the index is c, the cutoff bitlength(phi) - 1 itself.  255 = 3 * 5
        # * 17 and 65535 = 3 * 5 * 17 * 257 have their largest prime above
        # sqrt(n), so a singleton window finds them only through the L_inf
        # pass's large primes.  n = 1 has index 1.
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
        # Every odd n of the window with an index, primes too, by exact
        # powers: the classify scan finds exactly these, and
        # _lehmer_indexes gives each its index.
        lo, hi = 10**7 - 10**4, 10**7
        phi = totient_sieve(lo, hi).phi.astype(np.int64).tolist()
        first = lo | 1
        expected = {}
        for i, ph in enumerate(phi):
            k = least_power_index((first + 2 * i - 1) % ph, ph)
            if k:
                expected[i] = k
        c = next(_classify_scan([(lo, hi)]))
        assert set(np.flatnonzero(c.prime).tolist()) | set(c.pos.tolist()) == set(expected)
        pos = np.array(sorted(expected))
        index = _lehmer_indexes(np.array(phi, dtype=np.uint32), first, pos)
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
        index = _lehmer_indexes(np.array([1], dtype=np.uint32), 1, np.arange(1))
        assert index.tolist() == [1]


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
    """The classify scan leaves every index as the linear iteration alone
    computes it, whatever residue the window's first odd n has mod q: the
    L_inf pass's tiled pattern holds 3, 5 and 7 with odd-index strides 3, 5
    and 21."""

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


def linf_primes_by_rad_sieve(top: int) -> list[tuple[int, int]]:
    """(p, rad(p - 1)) for every prime p > 13 with p (1 + rad(p - 1)) < top,
    ascending, from a radical sieve over 0..top // 3 and the conftest prime
    mask: the reference for _linf_steps, sharing no code with it."""
    limit = top // 3
    mask = sieve_prime_mask(limit)
    rad = np.ones(limit + 1, dtype=np.int64)
    for q in np.flatnonzero(mask).tolist():
        rad[q::q] *= q
    p = np.flatnonzero(mask)
    p = p[p > 13]
    r = rad[p - 1]
    keep = p * (1 + r) < top
    return list(zip(p[keep].tolist(), r[keep].tolist()))


def assert_window_matches_lehmer_index(lo: int, hi: int, top: int | None = None):
    """The classify scan's indexes over [lo, hi), with the plan of a scan
    whose last segment ends at ``top`` (hi when None), equal lehmer_index."""
    bounds = [(lo, hi)] if top is None else [(lo, hi), (hi, top)]
    c = next(_classify_scan(bounds))
    index = _dense_index(c).tolist()
    for n, ix in zip(range(lo, hi), index):
        idx = lehmer_index(n)
        assert ix == (idx.k if idx.is_finite else 0), n


class TestLinfResiduePass:
    """The classify scan's residue pass with modulus p rad(p - 1): its step
    table, its tiled pattern and the members whose largest prime lies
    above sqrt(hi), which only its large primes find."""

    def test_tiled_rad(self):
        assert _TILED_RAD == tuple(math.prod(trial_factorize(t - 1)) for t in _TILED_PRIMES)

    @pytest.mark.parametrize("top", [10**6, 10**7 + 1])
    def test_large_primes_match_rad_sieve(self, top):
        steps = _linf_steps(top)
        # first_hit = p (1 + m) // 2 and stride = p m / 2 give p and m back.
        p = 2 * (steps.first_hit - steps.stride) + 1
        m = 2 * steps.stride // p
        expected = linf_primes_by_rad_sieve(top)
        assert list(zip(p.tolist(), m.tolist())) == expected
        assert steps.weight.tolist() == [floor_8_log2(q) for q, _ in expected]
        large = [q for q, _ in expected if q > math.isqrt(top - 1)]
        assert len(large) == {10**6: 196, 10**7 + 1: 617}[top]

    @pytest.mark.parametrize("n, k", [
        (3 * 65537, 17), (5 * 65537, 9), (3 * 5 * 17 * 257, 15), (3 * 257, 9),
    ])
    def test_members_with_a_prime_above_the_root(self, n, k):
        assert max(trial_factorize(n)) > math.isqrt(n)
        assert lehmer_index(n) == LehmerIndex.finite(k)
        assert list(classify_range(n, n + 1)) == [(n, LehmerIndex.finite(k))]
        assert_window_matches_lehmer_index(n - 600, n + 600)

    def test_window_below_the_int64_ceiling(self):
        # 2999699977 = 2029 * 1478413 lies in L_8, its prime 1478413 far
        # above sqrt(3e9); the plan is the one for hi = _INT64_SAFE_HI.
        n = 2_999_699_977
        assert trial_factorize(n) == {2029: 1, 1478413: 1}
        assert lehmer_index(n) == LehmerIndex.finite(8)
        assert_window_matches_lehmer_index(n - 1500, n + 1500, _INT64_SAFE_HI)

    @pytest.mark.parametrize("m", [0, 1, 33])
    @pytest.mark.parametrize("r", [0, 1, _TOTIENT_PERIOD - 1])
    def test_windows_on_the_tile_seam(self, m, r):
        # The pattern of 3, 5, 7, 11 and 13 repeats with period 15015 in
        # odd-index space, and the window's first odd index is r mod it: a
        # short window against lehmer_index, one of four periods against
        # the linear iteration alone.
        first = 2 * (m * _TOTIENT_PERIOD + r) + 1
        short, long = first + 3000, first + 2 * (4 * _TOTIENT_PERIOD + 100)
        assert_window_matches_lehmer_index(first, short)
        _, index = _classify_arrays(first, long)
        assert np.array_equal(index, linear_index(first, long, totient_sieve(first, long).phi))


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
    the reference for _korselt_scan's log sums and scatter."""
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


def floor_8_log2(n: int) -> int:
    """floor(8 log2 n), exactly: n^8 has floor(8 log2 n) + 1 bits."""
    return (n**8).bit_length() - 1


def assert_log_margins(n: int, primes) -> bool:
    """Whether the odd n >= 3 is a Carmichael number, from its ``primes``,
    asserting that the log sum of its passing primes (those with p - 1 |
    n - 1, n = p itself excepted) keeps the margins the Korselt scan
    relies on: at least two above _korselt_bar(n) when they multiply to n,
    at least three below it otherwise."""
    passing = [p for p in primes if p != n and (n - 1) % (p - 1) == 0]
    acc = sum(map(floor_8_log2, passing))
    bar = int(_korselt_bar(np.uint32(n)))
    if math.prod(passing) == n:
        assert bar + 2 <= acc <= floor_8_log2(n), n
        return True
    assert acc <= bar - 3, n
    return False


class TestKorseltLogBound:
    """The facts that make the Korselt scan's uint8 log sums exact: the sum
    at a Carmichael number n is at least floor(8 log2 n) - 7, and at any
    other odd n at most floor(8 log2 n) - 12, on either side of the bar
    floor(8 log2 n) - 9."""

    def test_at_most_eight_odd_primes_below_int64_ceiling(self):
        # The product of the first nine odd primes exceeds every n sieved.
        assert math.prod(base_primes(29)[1:].tolist()) > _INT64_SAFE_HI
        assert math.prod(base_primes(23)[1:].tolist()) < _INT64_SAFE_HI

    def test_log_sum_fits_a_byte(self):
        # A sum is at most 8 log2 of a divisor of n < _INT64_SAFE_HI.
        assert 8 * math.log2(_INT64_SAFE_HI) < 256
        assert floor_8_log2(_INT64_SAFE_HI) < 255

    def test_log_weight_is_floor_of_8_log2(self):
        # The weights that the scan's plan, its tiled pattern and its n = p
        # fix-up take from _log8, for every odd prime a scan can use.
        p = base_primes(math.isqrt(_INT64_SAFE_HI))[1:]
        weight = _log8(p)
        assert weight.dtype == np.uint8
        assert weight.tolist() == [floor_8_log2(x) for x in p.tolist()]
        assert weight.tolist() == [math.floor(8 * math.log2(x)) for x in p.tolist()]

    def test_bar_is_floor_of_8_log2_less_9(self):
        edges = _LOG_EDGES.astype(np.int64)
        n = np.unique(np.concatenate([
            np.arange(3, 5000), edges[edges >= 3], edges[edges > 3] - 1,
            np.linspace(5000, _INT64_SAFE_HI + 2 * _BLOCK, 4001).astype(np.int64),
        ]))
        assert (_korselt_bar(n.astype(np.uint32)).tolist()
                == [floor_8_log2(m) - 9 for m in n.tolist()])

    def test_margins_at_every_carmichael_number_to_1e8(self):
        found = enumerate_carmichael(10**8)
        assert len(found) == 255
        for n in found:
            assert assert_log_margins(n, trial_factorize(n)), n

    def test_margins_at_every_odd_n_below_2e5(self, spf_200k):
        # The nearest misses lie at small n: 3, 9 and 45 = 3^2 * 5 come
        # within 3 or 4 of the bar, and no n below 10^6 comes nearer.
        hits = [n for n in range(3, 200_000, 2)
                if assert_log_margins(n, factors_from_spf(n, spf_200k))]
        assert hits == enumerate_carmichael(200_000)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, (_INT64_SAFE_HI - 1) // 2).map(lambda m: 2 * m + 1))
    @example(n=_INT64_SAFE_HI - 1)
    @example(n=2_998_467_901)  # the last Carmichael number below 3e9
    def test_margins_at_sampled_odd_n(self, n):
        assert assert_log_margins(n, trial_factorize(n)) == korselt_test(n)


# The period of the Korselt scan's tiled pattern in odd-index space.
KORSELT_PERIOD = math.lcm(*(p * (p - 1) // 2 for p in _TILED_PRIMES))


class TestKorseltResidueOracle:
    """_korselt_scan against the int64 residue product."""

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
    @example(p=97, hits=9, d=1, i=0, offset=0, lo_even=False, hi_even=False)
    def test_windows_around_each_stride(self, p, hits, d, i, offset, lo_even, hi_even):
        # A window of `size` odd values holding a Carmichael multiple c of p.
        # 5, 7, 11 and 13 come from the tiled pattern.  Any other p is
        # looped when its stride p(p-1)/2 fits more than _LOOP_HITS times
        # into the window (hits = _LOOP_HITS, d >= 1) and scattered, with up
        # to _LOOP_HITS hits, otherwise (97 with hits = 9 and d = 1 hits ten
        # times).  With d = 1 and c last, p also hits the first value.  A
        # window that would reach below 3 starts at 3.
        size = hits * (p * (p - 1) // 2) + d
        multiples = carmichael_multiples_below_1e6(p)
        c = multiples[i % len(multiples)]
        first = max(c - 2 * min(offset, size - 1), 3)
        lo, hi = first - lo_even, first + 2 * size - hi_even
        got = next(_korselt_scan([(lo, hi)])).tolist()
        assert c in got
        assert got == korselt_residue_product_int64(lo, hi)

    @pytest.mark.parametrize("m", [0, 1, 33])
    @pytest.mark.parametrize("r", [0, 1, KORSELT_PERIOD - 1])
    def test_windows_on_the_pattern_seam(self, m, r):
        # The first odd index (n - 1) / 2 of the window is r mod the
        # pattern's period: a short window against trial division, and one
        # of four periods, which the scan fills by doubling copies, against
        # the int64 product.
        first = 2 * (m * KORSELT_PERIOD + r) + 1
        short, long = first + 3000, first + 2 * (4 * KORSELT_PERIOD + 100)
        assert (next(_korselt_scan([(first, short)])).tolist()
                == korselt_by_trial_division(first, short))
        assert (next(_korselt_scan([(first, long)])).tolist()
                == korselt_residue_product_int64(first, long))

    # A Carmichael number c at odd index i of a segment of 10^6 values:
    # the first and the last n of block 0, the same of block 1, and the
    # first and the last n of the last block.  Each block is searched only
    # where its maximum reaches its own first n.
    @pytest.mark.parametrize("c, i", [
        (c, i) for c in (561, 41_041, 825_265, 41_471_521)
        for i in (0, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1,
                  (10**6 // 2 - 1) // _BLOCK * _BLOCK, 10**6 // 2 - 1)
        if c - 2 * i >= 3
    ])
    def test_hit_at_a_block_edge(self, c, i):
        lo = c - 2 * i
        got = next(_korselt_scan([(lo, lo + 10**6)])).tolist()
        assert c in got
        assert got == korselt_residue_product_int64(lo, lo + 10**6)

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
        # Each fresh uint8 buffer reads 255, above the bar of every n below
        # 2^32, so an unzeroed pad entry past hi reads as a hit.
        empty = np.empty

        def full(shape, dtype=float):
            buf = empty(shape, dtype)
            if np.dtype(dtype) == np.uint8:
                buf[...] = 255
            return buf

        monkeypatch.setattr(np, "empty", full)
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

    def test_korselt_segment_from_2(self):
        # Most blocks below 10^6 hold a log sum above the bar of the
        # segment's first n, 3; only those that hold a Carmichael number
        # reach the bar of their own first n.  One byte per odd n is half a
        # byte per value; 0.83 was measured, on the first call of a process.
        lo, hi = 2, 10**6 + 2
        tracemalloc.start()
        try:
            found = next(_korselt_scan([(lo, hi)]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found.size == 43
        assert peak <= hi - lo

    def test_korselt_scan_charged_once(self):
        # A scan of 50 segments holds one plan and one buffer, sized by the
        # segment and not by the range: a byte for each of the 5 * 10^6 odd
        # n below 10^7 would take 5 MB.  1.40 per value of a segment was
        # measured, on the first call of a process.
        size = 200_000
        tracemalloc.start()
        try:
            with segments_of(size):
                found = enumerate_carmichael(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found) == 105
        assert peak <= 2 * size

    @pytest.mark.slow
    def test_direct_sieve_below_the_int64_ceiling(self):
        # The densest scatter: 10^6 values over the 5571 base primes below
        # sqrt(_INT64_SAFE_HI), with the step table built inside the call.
        lo, hi = _INT64_SAFE_HI - 10**6, _INT64_SAFE_HI
        _walk_steps.cache_clear()
        tracemalloc.start()
        try:
            totient_sieve(lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _BYTES_PER_VALUE * len(range(lo | 1, hi, 2))

    def test_count_scan_in_classify_segments(self):
        # A classify scan takes segments of _DEFAULT_SEGMENT // 8 values,
        # so its plan, charged for that length, is all the count holds.
        tracemalloc.start()
        try:
            table = count_table(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.count(math.inf, 10**7) == 670225
        assert peak <= _BYTES_PER_VALUE * _DEFAULT_SEGMENT // 8

    def test_count_scan_charged_once(self):
        # A count of 5 segments holds one plan: the rem and phi buffers, the
        # prime mask and the log buffer, sized by the segment and not by the
        # range.  A classify scan takes an eighth of the Korselt scan's
        # segment.
        size = 200_000
        tracemalloc.start()
        try:
            with segments_of(8 * size):
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


def allow_cpus(monkeypatch, cores: int) -> None:
    """Let the process run on ``cores`` CPUs, by its affinity mask where the
    platform has one, and otherwise by os.cpu_count."""
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


class TestWorkerPool:
    SEGMENTS_TO_1E4 = 4  # count_table splits at 10, 100 and 1000

    def test_pool_capped_by_cores_and_segments(self, pool_sizes):
        table = count_table(10**4, workers=64)
        assert table.counts == count_table(10**4).counts
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        for size in pool_sizes:
            assert size <= (cpus or 1)
            assert size <= self.SEGMENTS_TO_1E4

    @pytest.mark.parametrize("cores, expected", [(1, []), (3, [3]), (64, [SEGMENTS_TO_1E4])])
    def test_pool_size_for_core_count(self, pool_sizes, monkeypatch, cores, expected):
        allow_cpus(monkeypatch, cores)
        count_table(10**4, workers=64)
        assert pool_sizes == expected

    def test_pool_capped_by_cpu_count_without_a_mask(self, pool_sizes, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        count_table(10**4, workers=64)
        assert pool_sizes == [3]

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
    pool is asked for; the usable CPUs are patched so that the value
    itself, not the machine, would size a pool."""

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
        allow_cpus(monkeypatch, 8)
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
        allow_cpus(monkeypatch, 2)
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
