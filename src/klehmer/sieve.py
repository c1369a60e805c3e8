"""Bulk classification by segmented sieving.

Reproduces the counting table C_k(10^j) = #{n <= 10^j : phi(n) | (n-1)^k},
enumerates L_k composites and Carmichael numbers, and searches the alpha
sequence (smallest Carmichael number outside L_k).  Checking one claimed
alpha entry is per-number work, in carmichael.verify_alpha_entry; this is
the one module that imports numpy.

The bulk route never factors anything and sieves odd n only (even n > 2
lie outside every L_k, and no even n is a Carmichael number).  Both of the
paper's criteria are residue tests with one modulus per prime p: n is a
Carmichael number when it is a squarefree composite with p - 1 | n - 1 for
every prime p | n (Korselt), and a composite n lies in L_inf exactly when
it is squarefree with rad(p - 1) | n - 1 for every prime p | n, that is,
when rad(phi(n)) | n - 1.  With m(p) = p - 1 or rad(p - 1), "p | n and
m(p) | n - 1" holds exactly when n = p (mod p m(p)), by the Chinese
remainder theorem.  A residue pass (_residue_hits) adds floor(8 log2 p)
into one uint8 byte per odd n for every prime p that passes there (3, 5,
7, 11 and 13 from a tiled pattern, n = p itself excepted), and n is a hit
exactly where the byte reaches floor(8 log2 n) - 9: an odd n < 3e9 has at
most 8 primes, so a product of passing primes equal to n sums to at least
floor(8 log2 n) - 7, and any other, a divisor of n at most n / 3, to at
most floor(8 log2 n) - 12.  It searches only the blocks whose largest
byte reaches the bar of the block's own first n.  The two passes share
that code and differ only in their step tables: the Korselt scan's holds
the odd primes up to sqrt(hi) (each prime of a Carmichael number lies
below sqrt(n)); the L_inf pass's holds those with m = rad(p - 1), plus
every prime P above sqrt(hi) with P (1 + rad(P - 1)) < hi, as a member
n = m P has m = 1 (mod rad(P - 1)) and m > 1 (_linf_steps).

The count, the L_k lists and classify_range consume one classify scan.  A
segmented uint32 totient sieve over the odd n supplies phi(n): it copies
the first level of 3, 5, 7, 11 and 13 from two tiled patterns (the product
of their inverses mod 2^32, which divides them out of the remainder
exactly, and the product of their p - 1); then a walk over the odd base
primes multiplies in p - 1 at the multiples of every other p and p at the
multiples of each higher power, dividing p out of the remainder by a
multiply with p^-1 mod 2^32.  The walk and both residue passes apply their
steps through one _apply_steps: a step that hits a segment more than
_LOOP_HITS times takes a strided op, and the rest share a few op.at
scatters, so a scan pays numpy's call overhead on few steps.  An odd n > 1
is prime exactly when phi(n) = n - 1, so the primes get index 1 from that
compare alone; the L_inf pass finds the composite members (and n = 1 is
one), and only those take lehmer_index's own iteration acc <- acc * (n-1)
mod phi(n) to its first zero.  Every other odd n is outside L_inf.  Each
scan plans once (its step tables, cached per limit for the classify scan,
and buffers that every segment reuses, in segments an eighth as long for
the classify scan as for the Korselt scan, so that both fill 2 MB), and
each classify segment yields its prime mask and its few composite
members, so only classify_range builds a per-n index.  Carmichael numbers
come from one ascending Korselt scan, which enumerate_carmichael lists
and alpha_search walks.  With a worker pool each worker scans one
contiguous run of segments; results are merged in ascending order as
they arrive, so they are identical for any worker count or segmentation.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator, NamedTuple

import numpy as np

from .arith import LimitExceededError, _Record, _as_natural, factorize, is_prime
from .carmichael import AlphaNotFound, AlphaRecord, _alpha_record
# Imported, not exported: bench/spans.py traces it as sieve.verify_alpha_entry.
from .carmichael import verify_alpha_entry
from .lehmer import _INDEXES, K_CAP, LehmerIndex, _power_index

__all__ = [
    "SieveSegment",
    "CountTable",
    "base_primes",
    "totient_sieve",
    "classify_range",
    "count_table",
    "enumerate_Lk_composites",
    "enumerate_carmichael",
    "alpha_search",
]

# A segment of _DEFAULT_SEGMENT values holds half as many odd n, so one
# byte over each of them takes 2 MB, the L2 cache of one core on the
# 2-core machine measured; _segment_bounds gives a scan of more bytes per
# odd n shorter segments.
_DEFAULT_SEGMENT = 4_000_000

# acc * (n-1) must stay inside int64: hi^2 < 2^63 caps hi at ~3.03e9.
_INT64_SAFE_HI = 3_000_000_000

# Peak bytes (tracemalloc on 10^6 segments at 10^7, 9.9e7 and just below
# _INT64_SAFE_HI, checked by the tests): a direct totient_sieve call
# 8.9-9.4 per odd value it sieves, rem and phi plus one run of
# _apply_steps's scatter (9.9 on a first call near _INT64_SAFE_HI, which
# builds the step table of its 5571 base primes); a classify scan of one
# segment (_classify_arrays, _histogram_scan and _lk_scan alike), rem,
# phi, the prime mask, the log buffer and one scatter run, 6.1-6.6 on
# 10^6 values and 6.5-7.8 on 5*10^5 (7.8 just below _INT64_SAFE_HI, where
# the scan builds _linf_steps's 14 143 primes before its buffers); or a
# Korselt scan 0.54-0.81 (0.81 on 10^6 values just below _INT64_SAFE_HI,
# whose plan holds 5571 base primes; 4*10^6 values take 0.54-0.58) per
# value of hi - lo, each on the first call of a process.  12 is at least
# 20% above each of these peaks.  A scan of many segments allocates its
# buffers once, for its longest.
_BYTES_PER_VALUE = 12

# A direct totient_sieve call sieves at most this many odd values (512 MiB
# at _BYTES_PER_VALUE each), so hi - lo up to twice it; bulk segments are at
# most _DEFAULT_SEGMENT values, far below.
_SIEVE_MAX_ODD = (512 << 20) // _BYTES_PER_VALUE


class SieveSegment(_Record):
    """Totients of the odd n in [lo, hi).

    Entry i belongs to n = first + 2i, first being the first odd n >= lo.
    ``phi`` is uint32 (every n is below _INT64_SAFE_HI < 2^32).  In a
    scan it is a view of the scan's buffer, overwritten by the next segment.
    """

    lo: int
    hi: int
    phi: np.ndarray
    # Always None; bench/spans.py reads it, and it goes when that stops.
    spf: None = None

    @property
    def first(self) -> int:
        return self.lo | 1


class CountTable(_Record):
    """Counts C_k(10^j) for each requested k (the inf row is always kept)."""

    limit: int
    ks: tuple
    powers: tuple[int, ...]
    counts: dict

    def count(self, k, power: int) -> int:
        return self.counts[k][self.powers.index(power)]


def base_primes(limit: int) -> np.ndarray:
    """All primes <= limit.  Raises LimitExceededError, before allocating,
    above 2 * _SIEVE_MAX_ODD, the largest hi - lo of one totient_sieve."""
    limit = _as_natural(limit, name="limit")
    if limit > 2 * _SIEVE_MAX_ODD:
        raise LimitExceededError(
            f"limit {limit} is too large for one sieve; use limit <= {2 * _SIEVE_MAX_ODD}"
        )
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


# 3, 5, 7, 11 and 13 enter every scan from cached patterns, which each
# segment copies (_fill_tiled) instead of taking a strided pass per prime.
# Their log weights in a residue pass repeat with period lcm(p m(p) / 2) in
# odd-index space: 30030 (30 KB of uint8) for Korselt's m = p - 1, 15015
# for L_inf's m = rad(p - 1).  On a 4*10^6-value Korselt segment near 4e7,
# a copy took 0.06 ms against 0.61-0.64 ms for the five strided adds;
# adding 17 made the period 2 042 040, whose copy took 0.15 ms against 0.09
# ms for the 30030 copy plus 17's own add.  Their first level in the
# totient sieve (which of them divide n) repeats with period 3*5*7*11*13 =
# 15015.
_TILED_PRIMES = (3, 5, 7, 11, 13)
_TOTIENT_PERIOD = math.prod(_TILED_PRIMES)
# rad(t - 1) for each t of _TILED_PRIMES, their m in the L_inf pass.
_TILED_RAD = (2, 2, 6, 10, 6)


@functools.cache
def _tiled_pattern(moduli: tuple[int, ...]) -> np.ndarray:
    """The log weights _TILED_PRIMES add in a residue pass where p passes at
    the odd n = 2j + 1 = p (mod p m), m being p's entry of ``moduli``, by j
    mod the lcm of their strides p m / 2; n = p itself is included."""
    strides = [p * m // 2 for p, m in zip(_TILED_PRIMES, moduli)]
    pattern = np.zeros(math.lcm(*strides), dtype=np.uint8)
    for p, h in zip(_TILED_PRIMES, strides):
        # n = p (mod p m) for n = 2j + 1 is j = (p-1)/2 (mod p m / 2).
        pattern[(p - 1) // 2 :: h] += _log8(p)
    pattern.flags.writeable = False
    return pattern


@functools.cache
def _totient_patterns() -> tuple[np.ndarray, np.ndarray]:
    """The products of p^-1 mod 2^32 and of p - 1 over the p in
    _TILED_PRIMES that divide the odd n = 2j + 1, by j mod _TOTIENT_PERIOD."""
    inverse = np.ones(_TOTIENT_PERIOD, dtype=np.uint32)
    totient = np.ones(_TOTIENT_PERIOD, dtype=np.uint32)
    for p in _TILED_PRIMES:
        # p | 2j + 1 is j = (p-1)/2 (mod p).
        inverse[(p - 1) // 2 :: p] *= np.uint32(pow(p, -1, 1 << 32))
        totient[(p - 1) // 2 :: p] *= p - 1
    inverse.flags.writeable = False
    totient.flags.writeable = False
    return inverse, totient


def _fill_tiled(buf: np.ndarray, j0: int, length: int, pattern: np.ndarray) -> None:
    """Set buf[:length] to the periodic ``pattern`` from odd index j0 on: one
    rotated copy of the pattern, then copies that double the filled part."""
    period = pattern.size
    r = j0 % period
    head = min(period - r, length)
    buf[:head] = pattern[r : r + head]
    tail = min(r, length - head)
    buf[head : head + tail] = pattern[:tail]
    # From here on the filled length is a multiple of the period.
    filled = head + tail
    while filled < length:
        step = min(filled, length - filled)
        buf[filled : filled + step] = buf[:step]
        filled += step


def _fill_steps(buf: np.ndarray, start: int) -> None:
    """Set buf[i] = start + 2i without a temporary: one value, then copies
    that double the filled part, each shifted past it."""
    if buf.size:
        buf[0] = start
    filled = 1
    while filled < buf.size:
        step = min(filled, buf.size - filled)
        np.add(buf[:step], 2 * filled, out=buf[filled : filled + step])
        filled += step


@functools.lru_cache(maxsize=8)
def _walk_steps(root: int) -> tuple[np.ndarray, ...]:
    """The totient sieve's prime powers for every hi <= (root + 1)^2, as
    arrays (p^e, p^e // 2, p^-1 mod 2^32, factor of phi): each odd prime
    p <= root, from p^2 for _TILED_PRIMES and from p for the rest, with
    factor p - 1 at p itself and p above.  p^e // 2 is the odd index of
    n = p^e, the step's first hit.  Cached per root, so that repeated runs
    to one limit build it once; the arrays are read-only."""
    pe, inv, factor = [], [], []
    for p in base_primes(root)[1:].tolist():
        q, f = (p * p, p) if p in _TILED_PRIMES else (p, p - 1)
        v = pow(p, -1, 1 << 32)
        # hi <= (root + 1)^2 puts every n below (root + 1)^2.
        while q < (root + 1) ** 2:
            pe.append(q)
            inv.append(v)
            factor.append(f)
            q *= p
            f = p
    steps = (np.array(pe, dtype=np.int64),)
    steps += (steps[0] // 2, np.array(inv, dtype=np.uint32),
              np.array(factor, dtype=np.uint32))
    for a in steps:
        a.flags.writeable = False
    return steps


class _SievePlan(_Record):
    """What totient_sieve reuses across the segments of one scan: the step
    table of _walk_steps and the uint32 rem and phi buffers, sized to the
    longest segment.  Each segment overwrites both buffers."""

    steps: tuple[np.ndarray, ...]
    rem: np.ndarray
    phi: np.ndarray


def _sieve_plan(top: int, longest: int) -> _SievePlan:
    """A plan for segments with hi <= top of at most ``longest`` odd n."""
    return _SievePlan(_walk_steps(math.isqrt(top - 1)),
                      np.empty(longest, dtype=np.uint32),
                      np.empty(longest, dtype=np.uint32))


def _check_range(lo, hi) -> tuple[int, int]:
    """[lo, hi) as ints, with 1 <= lo < hi <= _INT64_SAFE_HI."""
    lo = _as_natural(lo, minimum=1, name="lo")
    hi = _as_natural(hi, minimum=lo + 1, name="hi")
    if hi > _INT64_SAFE_HI:
        raise LimitExceededError(f"hi must not exceed {_INT64_SAFE_HI}")
    return lo, hi


# A step with more than _LOOP_HITS hits in a segment takes a strided op in
# _apply_steps, and one scatter run of either scan may hit at most a
# _RUN_SHARE-th of a segment's odd values, which keeps a run's int64
# positions inside the _BYTES_PER_VALUE charge.  On count_table(10**7),
# 125 to 1000 hits and shares of 8 or 16 did not tell apart.  On one
# 4*10^6-value Korselt segment near 4*10^7 (849 primes, 24 looped) the call
# took 0.20-0.30 ms at 125 to 500 hits against 0.24-0.41 ms at 8 (medians
# of 41, 5 rounds), and enumerate_carmichael(10**8) took 10.3-11.5 ms
# against 11.7-14.6 ms at 8.
_LOOP_HITS = 250
_RUN_SHARE = 16


def _apply_steps(op: np.ufunc, bufs: tuple[np.ndarray, ...], values: tuple[np.ndarray, ...],
                 first_hit: np.ndarray, stride: np.ndarray, j0: int) -> None:
    """buf[i] = op(buf[i], vals[s]) for each step s and each buffer ``buf``
    of ``bufs`` with its ``vals`` of ``values``, at every i >= 0 below
    bufs[0].size with j0 + i = first_hit[s] + m * stride[s] for some m >= 0.

    A step with more than _LOOP_HITS hits takes one strided op per buffer;
    below that an op costs numpy's call overhead more than its arithmetic,
    so the others share op.at over runs of consecutive steps with at most
    max(length // _RUN_SHARE, _LOOP_HITS) hits.  op.at is unbuffered, so
    an entry that two of the steps hit gets both values.
    """
    length = bufs[0].size
    start = first_hit - j0
    # A step that began below j0 first hits at start mod stride.
    start = np.maximum(start, start % stride)
    count = (length - 1 - start) // stride + 1
    looped = count > _LOOP_HITS
    # Python int positions slice fastest; numpy scalar values keep the dtype.
    at, step = start[looped].tolist(), stride[looped].tolist()
    for buf, vals in zip(bufs, values):
        for i, h, x in zip(at, step, vals[looped]):
            view = buf[i::h]
            op(view, x, view)

    few = np.flatnonzero((count > 0) & ~looped)
    start, stride, count = start[few], stride[few], count[few]
    few_values = [vals[few] for vals in values]
    cap = max(length // _RUN_SHARE, _LOOP_HITS)
    ends = np.cumsum(count)
    # Each run takes the most steps whose hits fit in cap, at least one.
    edges = [0]
    while edges[-1] < ends.size:
        a = edges[-1]
        edges.append(np.searchsorted(ends, ends[a] - count[a] + cap, side="right"))
    for a, b in zip(edges, edges[1:]):
        s, h, c = start[a:b], stride[a:b], count[a:b]
        # A cumulative sum over the repeated strides, where each step's
        # first entry holds the jump from the previous step's last hit.
        where = np.repeat(h, c)
        jump = s.copy()
        jump[1:] -= s[:-1] + h[:-1] * (c[:-1] - 1)
        where[np.cumsum(c) - c] = jump
        np.cumsum(where, out=where)
        for buf, vals in zip(bufs, few_values):
            op.at(buf, where, np.repeat(vals[a:b], c))
        # Freed before the next run's positions are built, not after.
        del where


def totient_sieve(lo: int, hi: int, *, plan: _SievePlan | None = None) -> SieveSegment:
    """Exact totients of the odd n in [lo, hi) by a segmented sieve.

    ``phi[i]`` is phi(first + 2i), first being the first odd n >= lo.
    The first level of _TILED_PRIMES comes from two tiled patterns: their
    inverses mod 2^32 divide them out of rem, and their p - 1 start phi.
    The walk then takes the odd base primes p <= sqrt(hi - 1) and their
    powers p^e < hi, from p^2 for _TILED_PRIMES and from p for the rest
    (_walk_steps): at the multiples of p^e, phi picks up one factor of p
    (p - 1 at the first level) and rem loses one, by a multiply with p^-1
    mod 2^32, all through one _apply_steps call.  Whatever remains in rem
    is 1 or a single prime above sqrt(hi), contributing rem - 1.  Raises
    LimitExceededError, before allocating anything, when [lo, hi) holds
    more than _SIEVE_MAX_ODD odd values; the message names the largest
    workable hi - lo.

    A scan hands in its ``plan`` (_sieve_plan, with a top at least hi):
    then ``phi`` is a view of the plan's buffer, valid until the next
    segment.  Without one, the call makes its own and the caller owns phi.
    """
    lo, hi = _check_range(lo, hi)
    first = lo | 1
    length = len(range(first, hi, 2))
    if length > _SIEVE_MAX_ODD:
        # hi - lo = 2 * _SIEVE_MAX_ODD holds that many odd values for any lo.
        raise LimitExceededError(
            f"hi - lo = {hi - lo} is too many values for one sieve; "
            f"use hi - lo <= {2 * _SIEVE_MAX_ODD}"
        )
    if plan is None:
        plan = _sieve_plan(hi, length)

    # n < hi <= _INT64_SAFE_HI < 2^32, and every partial product of phi
    # divides phi(n) < n, so uint32 cannot overflow.  For odd p, a multiply
    # by p^-1 mod 2^32 divides a multiple of p exactly.
    rem, phi = plan.rem[:length], plan.phi[:length]
    _fill_steps(rem, first)
    # phi holds the inverse pattern first, so no third array is needed.
    inverse, totient = _totient_patterns()
    _fill_tiled(phi, first // 2, length, inverse)
    rem *= phi
    _fill_tiled(phi, first // 2, length, totient)

    # The odd multiples of pe are 2 pe apart, so the stride in index space
    # is pe, from n = pe itself.  A plan made for a larger hi also holds
    # p^e >= hi, which never reach i < length, and primes above
    # sqrt(hi - 1), which leave rem at 1 where they divide n and so give
    # the same phi.
    pe, first_hit, inv, factor = plan.steps
    _apply_steps(np.multiply, (rem, phi), (inv, factor), first_hit, pe, first // 2)

    # rem is 1 or the one prime above sqrt(hi), so rem - 1 clamped at 1
    # is exactly that prime's factor of phi.
    rem -= 1
    np.maximum(rem, 1, out=rem)
    phi *= rem
    return SieveSegment(lo, hi, phi)


# The least n with n^8 >= 2^k, floor((2^k - 1)^(1/8)) + 1, for k = 1..255:
# the edges at most n count floor(8 log2 n) for every n below 3.9e9.
_LOG_EDGES = np.array([math.isqrt(math.isqrt(math.isqrt((1 << k) - 1))) + 1
                       for k in range(1, 256)], dtype=np.uint32)


def _log8(n) -> np.ndarray:
    """floor(8 log2 n) as uint8, for each 1 <= n < 3.9e9: a residue pass's
    log weight of a prime n, and its bar plus 9."""
    return np.searchsorted(_LOG_EDGES, n, side="right").astype(np.uint8)


def _korselt_bar(n: np.ndarray) -> np.ndarray:
    """floor(8 log2 n) - 9 as uint8, for each n >= 3: the bar of both
    residue passes (_residue_hits)."""
    return _log8(n) - np.uint8(9)


# The bar rises with n, so the hit search looks inside only the blocks of
# _BLOCK entries whose maximum reaches the bar of their own first n.  On
# five 4*10^6-value segments from 4e7, a segment took 0.44 ms at 4096 and
# 8192, 0.45 at 16384, 0.48 at 2048 and 0.49 at 1024 (medians of 8 rounds).
_BLOCK = 4096
_BLOCK_STEPS = np.arange(0, 2 * _BLOCK, 2, dtype=np.uint32)


class _ResidueSteps(NamedTuple):
    """A residue pass's step table (_residue_steps): the tiled pattern of
    _TILED_PRIMES, then for each other prime p its log weight, the odd
    index of its first hit and its stride in odd-index space."""

    tile: np.ndarray
    weight: np.ndarray
    first_hit: np.ndarray
    stride: np.ndarray


def _residue_steps(p: np.ndarray, m: np.ndarray, tiled: tuple[int, ...]) -> _ResidueSteps:
    """The steps of a residue pass in which each prime p of ``p``, with its
    m of ``m`` (an even divisor of p - 1), passes at the odd n = p (mod p m),
    and _TILED_PRIMES with theirs, ``tiled``, come from their pattern.
    n = p (mod p m) is "p | n and m | n - 1", as m is prime to p."""
    # p (1 + m) is the first n != p in p's class.
    return _ResidueSteps(_tiled_pattern(tiled), _log8(p), p * (1 + m) // 2, p * m // 2)


def _log_buffer(bounds: list[tuple[int, int]]) -> np.ndarray:
    """_residue_hits's uint8 buffer for the longest of ``bounds``, padded to
    whole blocks of _BLOCK entries."""
    longest = max(len(range(max(lo, 2) | 1, hi, 2)) for lo, hi in bounds)
    return np.empty(-(-longest // _BLOCK) * _BLOCK, dtype=np.uint8)


def _residue_hits(steps: _ResidueSteps, buf: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The odd n >= 3 in [lo, hi) at which the primes that pass by ``steps``
    multiply to n, ascending, as uint32; ``buf`` is a _log_buffer.

    Each passing prime adds its log weight floor(8 log2 p) to n's byte.
    The passing primes are distinct primes of n, and an odd n < 3e9 has at
    most 8 (3 * 5 * ... * 29 > 3e9), so the byte lies in (8 log2 prod - 8,
    8 log2 prod], below 252, and never wraps.  prod == n gives at least
    floor(8 log2 n) - 7; any other prod, a proper divisor of the odd n and
    so at most n / 3, gives at most floor(8 log2 n) - 12.  So n is a hit
    exactly where its byte reaches _korselt_bar(n) = floor(8 log2 n) - 9.
    _TILED_PRIMES come from the tiled pattern (n = p taken out again), and
    the other steps add theirs through one _apply_steps call.  Each block
    of _BLOCK entries is then screened against the bar of its own first n.
    """
    first = max(lo, 2) | 1  # n = 1 has no primes and a bar below 0
    length = len(range(first, hi, 2))
    j0 = first // 2
    _fill_tiled(buf, j0, length, steps.tile)
    for t in _TILED_PRIMES:
        if first <= t < hi:  # n = t itself is prime
            buf[(t - first) // 2] -= _log8(t)

    _apply_steps(np.add, (buf[:length],), (steps.weight,), steps.first_hit, steps.stride, j0)

    size = -(-length // _BLOCK) * _BLOCK
    # The last block's pad may hold np.empty garbage or stale sums.
    buf[length:size] = 0
    blocks = buf[:size].reshape(-1, _BLOCK)
    # n < hi + 2 * _BLOCK < 2^32 stays inside uint32.
    head = np.arange(first, first + 2 * size, 2 * _BLOCK, dtype=np.uint32)
    bar = _korselt_bar(head)
    rows = np.flatnonzero(blocks.max(axis=1) >= bar)
    # Only the entries at their block's bar or above can reach their own.
    acc = blocks[rows]
    r, i = np.divmod(np.flatnonzero(acc >= bar[rows, None]), _BLOCK)
    n = head[rows[r]] + _BLOCK_STEPS[i]
    return n[acc[r, i] >= _korselt_bar(n)]


@functools.lru_cache(maxsize=8)
def _linf_steps(top: int) -> _ResidueSteps:
    """The L_inf pass's steps for every hi <= top: each prime p > 13 with
    p (1 + rad(p - 1)) < top, with m = rad(p - 1).  That holds for every
    p <= sqrt(top - 1), as rad(p - 1) < p, and a prime P above it can lie
    in a member n < top only so: n = m P with m = 1 (mod rad(P - 1)) and
    m > 1 gives n >= P (1 + rad(P - 1)).  A depth-first walk finds them
    all, over the even M = p - 1 with (M + 1)(rad(M) + 1) < top: it adds
    each odd prime's powers in ascending order of the primes, stops where
    the bound fails (it grows with every factor), and tests each M + 1 with
    is_prime above sqrt(top - 1).  Cached per top, so that repeated runs to
    one limit build it once; the arrays are read-only.
    """
    root = math.isqrt(top - 1)
    odd = base_primes(root)[1:].tolist()
    small = set(odd)
    found = []
    # (M, rad(M), i): the walk extends M by powers of odd[i] and above.  An
    # odd prime q of M has (2q + 1)^2 < top, so odd holds every one.
    stack = [(1 << a, 2, 0) for a in range(1, top.bit_length()) if ((1 << a) + 1) * 3 < top]
    while stack:
        even, r, i = stack.pop()
        p = even + 1
        if p > _TILED_PRIMES[-1] and (p in small if p <= root else is_prime(p)):
            found.append((p, r))
        for j in range(i, len(odd)):
            q = odd[j]
            if (even * q + 1) * (r * q + 1) >= top:
                break
            eq = even * q
            while (eq + 1) * (r * q + 1) < top:
                stack.append((eq, r * q, j + 1))
                eq *= q
    p, m = np.array(sorted(found), dtype=np.int64).reshape(-1, 2).T
    steps = _residue_steps(p, m, _TILED_RAD)
    for a in steps:
        a.flags.writeable = False
    return steps


class _Classified(NamedTuple):
    """One segment of a classify scan, over its odd n = seg.first + 2i: the
    totients, the mask of primes (index 1), and the positions ``pos`` and
    indexes ``index`` of the other odd n in L_inf (n = 1 among them).
    Every other odd n, and every even n but 2, is outside L_inf."""

    seg: SieveSegment
    prime: np.ndarray
    pos: np.ndarray
    index: np.ndarray


def _lehmer_indexes(phi: np.ndarray, first: int, pos: np.ndarray) -> np.ndarray:
    """The Lehmer indexes of the odd n = first + 2 pos, all of them in
    L_inf, as uint8: lehmer_index's own loop (_power_index) on (n - 1) mod
    phi(n), to its first zero."""
    ph = phi[pos].astype(np.int64)
    # Every operand is >= 0 and phi >= 1, so the truncating fmod equals %.
    base = 2 * pos + (first - 1)
    np.fmod(base, ph, out=base)
    index = map(_power_index, base.tolist(), ph.tolist())
    return np.fromiter(index, dtype=np.uint8, count=pos.size)


def _classify_scan(bounds: list[tuple[int, int]]) -> Iterator[_Classified]:
    """Lehmer indexes over each of the ascending segments ``bounds``; one
    _Classified per segment, whose arrays stay valid until the next one.

    The plan is made once per scan: _walk_steps up to sqrt of the last hi,
    _linf_steps for it, the rem and phi buffers of totient_sieve and a
    prime mask, sized to the longest segment, and a _log_buffer.  The
    totients cover the odd n only: even n above 2 are settled without them
    (phi even, n-1 odd), and 2 has index 1.  The odd n with phi(n) = n - 1
    are exactly the odd primes, index 1.  An odd composite n lies in L_inf
    exactly when it is squarefree with rad(p - 1) | n - 1, that is n = p
    (mod p rad(p - 1)), for each of its primes p: then those primes
    multiply to n, and their log sum reaches floor(8 log2 n) - 7, while at
    any other n the primes that pass multiply to at most n / 3 and sum to
    at most floor(8 log2 n) - 12 (_residue_hits).  A member's prime P
    above sqrt(hi) has P (1 + rad(P - 1)) <= n < hi, and _linf_steps holds
    every such P, so the pass's hits are exactly the composite members.
    n = 1 is one more, with index 1; only they go to _lehmer_indexes.
    """
    if not bounds:  # limit 1 leaves no segment
        return
    top = bounds[-1][1]
    # Built before the buffers, so that the walk's lists are freed first.
    steps = _linf_steps(top)
    longest = max(len(range(lo | 1, hi, 2)) for lo, hi in bounds)
    plan = _sieve_plan(top, longest)
    logs = _log_buffer(bounds)
    prime = np.empty(longest, dtype=bool)
    for lo, hi in bounds:
        # Through the module global, which the benchmark's tracer swaps.
        seg = totient_sieve(lo, hi, plan=plan)
        phi, first = seg.phi, seg.first
        # totient_sieve is done with rem, so it serves as scratch here.
        work, pr = plan.rem[: phi.size], prime[: phi.size]
        _fill_steps(work, first - 1)
        np.equal(phi, work, out=pr)
        pos = (_residue_hits(steps, logs, lo, hi).astype(np.int64) - first) // 2
        if first == 1:  # phi(1) = 1 divides (1 - 1)^1
            pos = np.concatenate(([0], pos))
        yield _Classified(seg, pr, pos, _lehmer_indexes(phi, first, pos))


def _dense_index(c: _Classified) -> np.ndarray:
    """The Lehmer index of every n in the segment (0 = not in L_inf)."""
    lo, hi = c.seg.lo, c.seg.hi
    index = np.zeros(hi - lo, dtype=np.uint8)
    if lo <= 2 < hi:
        index[2 - lo] = 1
    # A view: writing odd_index[i] sets the index of first + 2i.
    odd_index = index[c.seg.first - lo :: 2]
    odd_index[:] = c.prime
    odd_index[c.pos] = c.index
    return index


def _classify_arrays(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Odd-n totients and per-n Lehmer indexes for [lo, hi); index 0 = not
    in L_inf.  A scan of the one segment (_classify_scan)."""
    c = next(_classify_scan([(lo, hi)]))
    return c.seg.phi, _dense_index(c)


def _segment_bounds(
    lo: int, hi: int, cuts: tuple[int, ...] = (), buffers: int = 1
) -> list[tuple[int, int]]:
    """The segments every bulk path runs on, between consecutive edges of
    [lo, hi): lo + i * size, each of ``cuts`` inside the range, and hi.
    The one place that picks the size: a scan whose buffers take
    ``buffers`` bytes per odd n of a segment (1 for the Korselt scan's
    uint8 log sums, 8 for a classify scan's uint32 rem and phi) takes
    _DEFAULT_SEGMENT // buffers values, read at call time, so that its
    buffers fill 2 MB together.  Results never depend on the size, only
    speed and peak memory do.
    """
    size = max(_DEFAULT_SEGMENT // buffers, 1)
    edges = sorted({*range(lo, hi, size),
                    *(c for c in cuts if lo < c < hi), hi})
    return list(zip(edges, edges[1:]))


def _listed(scan, bounds) -> list:
    return list(scan(bounds))


def _map_scans(scan, bounds: list[tuple[int, int]], workers: int) -> Iterator:
    """Yield scan's per-segment results over ``bounds`` in order, as they
    arrive, so that callers merge them without holding a list of them.

    With a pool, each worker runs one scan over a contiguous run of
    segments, about an equal share of the values, and returns its run's
    results as a list.
    """
    # A fork-based pool starts all of its workers up front, so never ask
    # for more than there are segments or CPUs this process may run on.
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count()
    size = min(workers, len(bounds), cpus or 1)
    if size <= 1:
        yield from scan(bounds)
        return
    # A segment joins the run its midpoint falls in.
    lo, total = bounds[0][0], bounds[-1][1] - bounds[0][0]
    runs: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for a, b in bounds:
        runs[(a + b - 2 * lo) * size // (2 * total)].append((a, b))
    with ProcessPoolExecutor(max_workers=size) as pool:
        for results in pool.map(functools.partial(_listed, scan), filter(None, runs)):
            yield from results


def _check_limit(limit) -> int:
    limit = _as_natural(limit, minimum=1, name="limit")
    if limit >= _INT64_SAFE_HI:
        raise LimitExceededError(f"limit must stay below {_INT64_SAFE_HI}")
    return limit


def classify_range(lo: int, hi: int) -> Iterator[tuple[int, LehmerIndex]]:
    """Yield (n, LehmerIndex) for every n in [lo, hi), factorization-free.

    The same algorithm as lehmer_index, on sieved totients in bulk, so it
    agrees with lehmer_index everywhere.
    """
    lo, hi = _check_range(lo, hi)
    for c in _classify_scan(_segment_bounds(lo, hi, buffers=8)):
        index = _dense_index(c)
        for i, ix in enumerate(index.tolist()):
            yield c.seg.lo + i, _INDEXES[ix]


def _histogram_scan(bounds: list[tuple[int, int]]) -> Iterator[np.ndarray]:
    """Per segment of one classify scan, how many n have each Lehmer index
    (0 = not in L_inf), as K_CAP + 1 int64 counts."""
    for c in _classify_scan(bounds):
        lo, hi = c.seg.lo, c.seg.hi
        hist = np.bincount(c.index, minlength=K_CAP + 1).astype(np.int64)
        hist[1] += np.count_nonzero(c.prime) + (lo <= 2 < hi)
        hist[0] = hi - lo - hist.sum()
        yield hist


def _normalize_ks(ks) -> tuple:
    keys = {math.inf if k == math.inf else _as_natural(k, minimum=1, name="k")
            for k in ks}
    if not keys:
        raise ValueError("at least one k is required")
    return tuple(sorted(keys))


def count_table(limit, ks=(2, 3, 4, 5, math.inf), *, workers: int = 1) -> CountTable:
    """Exact counts C_k(10^j) for every power of ten up to ``limit``.

    ``limit`` must itself be a power of ten.  The inf row (membership in
    L_inf) is always computed alongside the requested ks; requested k
    beyond 127 count as inf.  Deterministic for any worker count.
    Raises LimitExceededError for a limit of _INT64_SAFE_HI or more.
    Each p + 1 is a segment edge, where the running histogram's cumulative
    sum over indexes 1..K_CAP holds C_k(p) at entry min(k, K_CAP) - 1.
    """
    limit = _check_limit(limit)
    workers = _as_natural(workers, minimum=1, name="workers")
    j = round(math.log10(limit))
    if 10**j != limit or j < 1:
        raise ValueError(f"limit must be a power of 10 >= 10, got {limit}")
    requested = _normalize_ks(ks)
    powers = tuple(10**i for i in range(1, j + 1))

    bounds = _segment_bounds(1, limit + 1, cuts=tuple(p + 1 for p in powers), buffers=8)
    hists = _map_scans(_histogram_scan, bounds, workers)

    running = np.zeros(K_CAP + 1, dtype=np.int64)
    cumulative = []
    for (_, hi), hist in zip(bounds, hists):
        running += hist
        if hi - 1 in powers:
            cumulative.append(np.cumsum(running[1:]).tolist())
    counts = {k: tuple(row[min(k, K_CAP) - 1] for row in cumulative)
              for k in (*requested, math.inf)}
    return CountTable(limit=limit, ks=requested, powers=powers, counts=counts)


def _lk_scan(bounds: list[tuple[int, int]], k: int) -> Iterator[np.ndarray]:
    """Per segment of one classify scan, its composite members of L_k.

    Even n are never composite members: 2 is prime, and even n > 2 lie
    outside L_inf.  The odd primes are not among the settled n, so only
    n = 1 is left to drop."""
    for c in _classify_scan(bounds):
        n = c.seg.first + 2 * c.pos[c.index <= min(k, K_CAP)]
        yield n[n > 1]


def enumerate_Lk_composites(limit, k: int, *, workers: int = 1) -> list[int]:
    """All composite n <= limit with phi(n) | (n-1)^k, ascending."""
    limit = _check_limit(limit)
    k = _as_natural(k, minimum=1, name="k")
    workers = _as_natural(workers, minimum=1, name="workers")
    bounds = _segment_bounds(1, limit + 1, buffers=8)
    chunks = _map_scans(functools.partial(_lk_scan, k=k), bounds, workers)
    out: list[int] = []
    for chunk in chunks:
        out.extend(chunk.tolist())
    return out


def _korselt_scan(bounds: list[tuple[int, int]]) -> Iterator[np.ndarray]:
    """Carmichael numbers of each of the ascending segments ``bounds``, by
    Korselt's criterion in residue form; one uint32 array per segment.

    Only odd n are sieved: an odd prime p of an even n needs the even p-1
    to divide the odd n-1, and 2^e is not a squarefree composite.  For odd
    p, "p | n and p-1 | n-1" holds exactly when n = p (mod p(p-1)), and
    each prime p of a Carmichael n = p*m is below sqrt(n) (p-1 | m-1 gives
    m >= p, and m = p is not squarefree).  So n is a Carmichael number
    exactly when the odd p <= sqrt(hi-1) that pass at n, p = n excepted,
    multiply to n, which _residue_hits decides exactly by log sums.

    The plan is made once per scan: the base primes above _TILED_PRIMES up
    to sqrt of the last hi, as residue steps with m = p - 1, and one
    _log_buffer that every segment reuses.  A prime p never hits a segment
    below p^2, since n = p (mod p(p-1)) with n != p forces n >= p + p(p-1)
    = p^2, so that one prime list is exact for every segment.
    """
    if not bounds:  # limit 1 leaves no segment
        return
    p = base_primes(math.isqrt(bounds[-1][1] - 1))
    p = p[p > _TILED_PRIMES[-1]]
    steps = _residue_steps(p, p - 1, tuple(t - 1 for t in _TILED_PRIMES))
    buf = _log_buffer(bounds)
    for lo, hi in bounds:
        yield _residue_hits(steps, buf, lo, hi)


def _carmichael_numbers(limit: int) -> Iterator[int]:
    """Carmichael numbers <= limit in ascending order, one segment at a time."""
    for found in _korselt_scan(_segment_bounds(2, limit + 1)):
        yield from found.tolist()


def enumerate_carmichael(limit) -> list[int]:
    """All Carmichael numbers <= limit, ascending.

    One Korselt scan (_korselt_scan) in process: its plan and buffer are
    made once for all segments, and a segment costs less than starting a
    worker pool does.
    """
    return list(_carmichael_numbers(_check_limit(limit)))


def alpha_search(k: int, limit) -> AlphaRecord | AlphaNotFound:
    """Smallest Carmichael number <= limit outside L_k, if any.

    Scans Carmichael numbers serially in ascending order, factors each
    one and takes its index from phi(n) (lehmer_index), so a returned
    record is minimal below the bound by construction.
    """
    k = _as_natural(k, minimum=1, name="k")
    limit = _check_limit(limit)
    for n in _carmichael_numbers(limit):
        record = _alpha_record(k, factorize(n), bound=limit)
        if record is not None:
            return record
    return AlphaNotFound(k=k, bound=limit)
