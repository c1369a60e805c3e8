"""Bulk classification by segmented sieving.

Reproduces the counting table C_k(10^j) = #{n <= 10^j : phi(n) | (n-1)^k},
enumerates L_k composites and Carmichael numbers, and searches the alpha
sequence (smallest Carmichael number outside L_k).  Checking one claimed
alpha entry is per-number work, in carmichael.verify_alpha_entry; this is
the one module that imports numpy.

The bulk route never calls factorize and sieves odd n only (even n > 2
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
n = m P has m = 1 (mod rad(P - 1)) and m > 1 (_classify_steps).

The count, the L_k lists and classify_range consume one classify scan.
Every prime has index 1, and no list or count needs them one by one:
count_table takes pi(10^j) from a prime count (_prime_counts, Lucy's
form of the Legendre-Meissel recurrence), and only classify_range marks
them, by a segmented odd-only sieve of Eratosthenes (_prime_mask): 3, 5,
7, 11 and 13 clear their multiples from a tile of period 15015, and
every other odd p <= sqrt(hi) clears every p-th entry from n = p^2.  The
L_inf pass finds the composite members, and n = 1 is one more; only
these settled members take a totient (totient_sieve), by trial division
over the same odd primes, and then the iteration acc <- acc * (n-1) mod
phi(n) to its first zero, in one uint64 loop over all of a segment's
members.  Every other odd n is outside L_inf.  The prime sieve and both
residue passes apply their steps through one _apply_steps: a step that
hits a segment more than _LOOP_HITS times takes a strided op, and the
rest share a few op.at scatters, so a scan pays numpy's call overhead on
few steps.  Each scan plans once (its step tables, cached per root for
the classify scan, and one uint8 buffer that every segment reuses), and
each classify segment yields its few members alone, so only
classify_range builds a per-n index.
Carmichael numbers come from one ascending Korselt scan, which
enumerate_carmichael lists and alpha_search walks.  With a worker pool
each worker scans one contiguous run of segments; results are merged in
ascending order as they arrive, so they are identical for any worker
count or segmentation.
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
from .carmichael import verify_alpha_entry
from .lehmer import _INDEXES, K_CAP, LehmerIndex

# SieveSegment, totient_sieve and base_primes keep these names, unexported,
# and verify_alpha_entry stays imported: bench/spans.py traces and reads
# them under sieve's name, and bench/run.py times base_primes.
__all__ = [
    "CountTable",
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

# A classify segment's traced peak per value of hi - lo, on the first call
# of a process: the log buffer, one scatter run of _apply_steps or the hit
# search's copy of its blocks, and the step tables when the call builds
# them.  TestSegmentMemory pins it, per odd value for a classify segment,
# and a Korselt scan below one byte per value.  A scan of many segments
# allocates its buffer once, for its longest.
_BYTES_PER_VALUE = 12


class SieveSegment(_Record):
    """Totients of the settled members of [lo, hi), one segment of a
    classify scan: ``phi[i]`` is phi(n) of its i-th settled member n, in
    ascending order (n = 1, where the segment holds it, and the composite
    members of L_inf, _classify_scan).  uint32, as every n is below
    _INT64_SAFE_HI < 2^32.  ``first`` is the first odd n >= lo.
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
    """All primes <= limit, as int64."""
    limit = _as_natural(limit, name="limit")
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
# for L_inf's m = rad(p - 1).  A copy beats the five strided adds, and 17
# stays out, as its period would be 2 042 040 (ROADMAP, "Measured and set
# aside": "Larger Korselt tiles").  Their multiples, which the prime sieve
# clears, repeat with period 3*5*7*11*13 = 15015.
_TILED_PRIMES = (3, 5, 7, 11, 13)
_TILE_PERIOD = math.prod(_TILED_PRIMES)
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
def _prime_tile() -> np.ndarray:
    """1 where no p of _TILED_PRIMES divides the odd n = 2j + 1 and 0 where
    one does (p itself too), by j mod _TILE_PERIOD, as uint8."""
    tile = np.ones(_TILE_PERIOD, dtype=np.uint8)
    for p in _TILED_PRIMES:
        # p | 2j + 1 is j = (p-1)/2 (mod p).
        tile[(p - 1) // 2 :: p] = 0
    tile.flags.writeable = False
    return tile


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


class _SievePlan(_Record):
    """The classify scan's odd primes p <= root (_classify_steps), which
    the prime sieve takes as steps, totient_sieve as trial divisors and
    the prime count as its primes:
    p (int64), the odd index p^2 // 2 of its first composite multiple,
    p^-1 mod 2^32 and (2^32 - 1) // p (both uint32).  Read-only."""

    p: np.ndarray
    first_hit: np.ndarray
    inverse: np.ndarray
    bound: np.ndarray


# A step with more than _LOOP_HITS hits in a segment takes a strided op in
# _apply_steps, and one scatter run of either scan may hit at most a
# _RUN_SHARE-th of a segment's odd values, which keeps a run's int64
# positions inside the _BYTES_PER_VALUE charge.  Thresholds from 125 to
# 1000 and shares of 8 or 16 tied, and 8 hits lost (ROADMAP, "Measured and
# set aside": "More micro-work on the count segment's walk and filter").
_LOOP_HITS = 250
_RUN_SHARE = 16


def _apply_steps(op: np.ufunc, buf: np.ndarray, values: np.ndarray,
                 first_hit: np.ndarray, stride: np.ndarray, j0: int) -> None:
    """buf[i] = op(buf[i], values[s]) for each step s, at every i >= 0
    below buf.size with j0 + i = first_hit[s] + m * stride[s] for some
    m >= 0.

    A step with more than _LOOP_HITS hits takes one strided op; below that
    an op costs numpy's call overhead more than its arithmetic, so the
    others share op.at over runs of consecutive steps with at most
    max(length // _RUN_SHARE, _LOOP_HITS) hits.  op.at is unbuffered, so
    an entry that two of the steps hit gets both values.
    """
    length = buf.size
    start = first_hit - j0
    # A step that began below j0 first hits at start mod stride.
    start = np.maximum(start, start % stride)
    count = (length - 1 - start) // stride + 1
    looped = count > _LOOP_HITS
    # Python int positions slice fastest; numpy scalar values keep the dtype.
    for i, h, x in zip(start[looped].tolist(), stride[looped].tolist(), values[looped]):
        view = buf[i::h]
        op(view, x, view)

    few = np.flatnonzero((count > 0) & ~looped)
    start, stride, count, values = start[few], stride[few], count[few], values[few]
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
        op.at(buf, where, np.repeat(values[a:b], c))
        # Freed before the next run's positions are built, not after.
        del where


# totient_sieve divides every member by the first _FIRST_STAGE odd primes
# (3 to 167), and then only the members whose cofactor still holds two
# primes or more by the rest, _CELLS trial divisions at a time, so that a
# stage's matrix stays far below a segment's charge.  Other stages and
# sizes tied or lost (ROADMAP, "Measured and set aside": "Member totient
# stages").
_FIRST_STAGE = 38
_CELLS = 1 << 13


def totient_sieve(lo: int, hi: int, plan: _SievePlan, members: np.ndarray) -> SieveSegment:
    """Totients of ``members``, the settled members of the segment [lo, hi)
    of a classify scan, whose ``plan`` is exact for hi: squarefree odd n
    below 2^32, each with at most one prime above the plan's primes (a
    squarefree n < (root + 1)^2 has no two primes above root).

    Trial division by the plan's primes: for odd p and n < 2^32, p | n
    exactly when n p^-1 mod 2^32 <= (2^32 - 1) // p, and then that multiply
    divides p out of n's cofactor while phi picks up p - 1.  After each
    stage only the members whose cofactor reaches the next prime's square
    go on.  Every cofactor is then 1 or a single prime P, which gives
    P - 1.
    """
    rem = members.astype(np.uint32)
    phi = np.ones(rem.size, dtype=np.uint32)
    live = np.arange(rem.size)
    a, b = 0, _FIRST_STAGE
    while live.size and a < plan.p.size:
        i, j = np.nonzero(rem[live, None] * plan.inverse[a:b] <= plan.bound[a:b])
        j += a
        # Unbuffered, so a member that two primes divide gets both.
        np.multiply.at(rem, live[i], plan.inverse[j])
        np.multiply.at(phi, live[i], (plan.p[j] - 1).astype(np.uint32))
        a = b
        if a < plan.p.size:
            # A cofactor below the next prime's square is 1 or a prime.
            live = live[rem[live] >= plan.p[a] ** 2]
        b = a + max(_CELLS // max(live.size, 1), 1)

    # rem - 1 clamped at 1 is the factor of phi of the cofactor 1 or P.
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
# _BLOCK entries whose maximum reaches the bar of their own first n.  4096
# and 8192 tied, and blocks from 1024 to 16384 differed by a tenth at most
# (ROADMAP, "Measured and set aside": "Other hit-search block sizes").
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
    """_residue_hits's uint8 buffer for the longest of ``bounds``, a byte
    for each odd n, padded to whole blocks of _BLOCK entries."""
    longest = max(len(range(lo | 1, hi, 2)) for lo, hi in bounds)
    return np.empty(-(-longest // _BLOCK) * _BLOCK, dtype=np.uint8)


def _residue_hits(steps: _ResidueSteps, buf: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The odd n >= 3 in [lo, hi) at which the primes that pass by ``steps``
    multiply to n, ascending, as uint32; ``buf`` is a _log_buffer, left
    holding scratch.

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

    _apply_steps(np.add, buf[:length], steps.weight, steps.first_hit, steps.stride, j0)

    size = -(-length // _BLOCK) * _BLOCK
    # The last block's pad may hold np.empty garbage or stale sums.
    buf[length:size] = 0
    blocks = buf[:size].reshape(-1, _BLOCK)
    # n < hi + 2 * _BLOCK < 2^32 stays inside uint32.
    head = np.arange(first, first + 2 * size, 2 * _BLOCK, dtype=np.uint32)
    bar = _korselt_bar(head)
    rows = np.flatnonzero(blocks.max(axis=1) >= bar)
    # Only the entries at their block's bar or above can reach their own.
    # Once those blocks are copied out, buf's head holds their mask.
    acc = blocks[rows]
    near = buf[: acc.size].view(bool).reshape(acc.shape)
    np.greater_equal(acc, bar[rows, None], out=near)
    r, i = np.divmod(np.flatnonzero(near), _BLOCK)
    n = head[rows[r]] + _BLOCK_STEPS[i]
    return n[acc[r, i] >= _korselt_bar(n)]


@functools.lru_cache(maxsize=8)
def _classify_steps(root: int) -> tuple[_SievePlan, _ResidueSteps]:
    """The classify scan's two tables, exact for every hi <= top = (root +
    1)^2 and both from one base_primes(root): the _SievePlan of its odd
    primes and the L_inf pass's steps.  Cached per root, so that every
    scan whose last hi - 1 has that root builds them once; the arrays are
    read-only.

    The L_inf pass's hold each prime p > 13 with p (1 + rad(p - 1)) < top,
    with m = rad(p - 1).  That holds for every p <= root, as rad(p - 1) <
    p, and a prime P above it can lie in a member n < top only so: n = m P
    with m = 1 (mod rad(P - 1)) and m > 1 gives n >= P (1 + rad(P - 1)).
    A depth-first walk finds them all, over the even M = p - 1 with (M + 1)
    (rad(M) + 1) < top: it adds each odd prime's powers in ascending order
    of the primes, stops where the bound fails (it grows with every
    factor), and tests each M + 1 with is_prime above the root.
    """
    top = (root + 1) ** 2
    primes = base_primes(root)[1:]
    odd = primes.tolist()
    inverse = np.array([pow(q, -1, 1 << 32) for q in odd], dtype=np.uint32)
    plan = _SievePlan(primes, primes * primes // 2, inverse,
                      ((1 << 32) - 1) // primes.astype(np.uint32))

    small = set(odd)
    # Flat lists of (p, rad(p - 1)) pairs and of (M, rad(M), i) triples: a
    # tuple per entry would outlive the build in CPython's tuple free list.
    found = []
    # The walk extends M by powers of odd[i] and above.  An odd prime q of M
    # has (2q + 1)^2 < top, so odd holds every one.
    stack = [x for a in range(1, top.bit_length()) if ((1 << a) + 1) * 3 < top
             for x in (1 << a, 2, 0)]
    while stack:
        i, r, even = stack.pop(), stack.pop(), stack.pop()
        p = even + 1
        if p > _TILED_PRIMES[-1] and (p in small if p <= root else is_prime(p)):
            found += p, r
        for j in range(i, len(odd)):
            q = odd[j]
            if (even * q + 1) * (r * q + 1) >= top:
                break
            eq = even * q
            while (eq + 1) * (r * q + 1) < top:
                stack += eq, r * q, j + 1
                eq *= q
    pm = np.array(found, dtype=np.int64).reshape(-1, 2)
    p, m = pm[pm[:, 0].argsort()].T
    linf = _residue_steps(p, m, _TILED_RAD)
    for a in (*plan._astuple(), *linf):
        a.flags.writeable = False
    return plan, linf


class _Classified(NamedTuple):
    """One segment of a classify scan, over its odd n = seg.first + 2i:
    the positions ``pos``, totients ``seg.phi`` and indexes ``index`` of
    its odd n in L_inf other than the primes (n = 1 among them).  Every
    odd prime has index 1 (_prime_mask marks them, _prime_counts counts
    them), and every other odd n, and every even n but 2, is outside
    L_inf."""

    seg: SieveSegment
    pos: np.ndarray
    index: np.ndarray


def _prime_mask(plan: _SievePlan, buf: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Which odd n in [lo, hi) are prime, as a bool view of ``buf`` (uint8,
    one entry per odd n; left holding 1 at the primes and 0 elsewhere), by
    an odd-only sieve of Eratosthenes with a ``plan`` exact for hi.
    _TILED_PRIMES clear their multiples by the tile, which clears each of
    them too, so they are set back (and n = 1 cleared); every other p
    clears every p-th entry from n = p^2 on, through one _apply_steps
    call.  A plan made for a larger hi also holds p with p^2 >= hi, which
    never reach the segment."""
    first = lo | 1
    length = len(range(first, hi, 2))
    mask = buf[:length]
    _fill_tiled(mask, first // 2, length, _prime_tile())
    for t in _TILED_PRIMES:
        if first <= t < hi:
            mask[(t - first) // 2] = 1
    if first == 1:
        mask[0] = 0
    p, first_hit = plan.p[len(_TILED_PRIMES):], plan.first_hit[len(_TILED_PRIMES):]
    _apply_steps(np.multiply, mask, np.zeros(p.size, dtype=np.uint8), first_hit, p, first // 2)
    return mask.view(bool)


# A finite index of n below 2^32 is below bitlength(phi(n)) <= 32.
_INDEX_STEPS = 32


def _lehmer_indexes(phi: np.ndarray, first: int, pos: np.ndarray) -> np.ndarray:
    """The Lehmer indexes of the odd n = first + 2 pos, all of them in
    L_inf, with their totients ``phi``, as uint8: lehmer_index's own loop
    (_power_index) on base = (n - 1) mod phi(n), acc <- acc * base mod
    phi to the first zero, for all of them at once.  In uint64 this is
    exact, as acc and base are below phi < 2^32.  A zero stays zero, so
    the index is 1 plus the number of nonzero powers.  After
    _INDEX_STEPS powers an n whose acc is still nonzero, which only a
    wrong totient gives, reads 0, as in _power_index."""
    ph = phi.astype(np.uint64)
    base = (2 * pos + (first - 1)).astype(np.uint64) % ph
    acc = base.copy()
    index = np.ones(pos.size, dtype=np.uint8)
    for _ in range(_INDEX_STEPS - 1):
        nonzero = acc != 0
        if not nonzero.any():
            break
        index += nonzero
        acc *= base
        acc %= ph
    index[acc != 0] = 0
    return index


def _classify_scan(bounds: list[tuple[int, int]]) -> Iterator[_Classified]:
    """The members of L_inf other than the primes, with their Lehmer
    indexes, over each of the ascending segments ``bounds``; one
    _Classified per segment, whose arrays stay valid until the next one.

    The plan is made once per scan: both tables of _classify_steps for the
    last hi and a _log_buffer, sized to the longest segment.  Only odd n
    are sieved: even n above 2 are settled without a totient (phi even,
    n-1 odd), and 2 has index 1.  The odd primes have index 1.  An odd
    composite n lies in L_inf exactly when it is squarefree with
    rad(p - 1) | n - 1, that is n = p (mod p rad(p - 1)), for each of its
    primes p: then those primes multiply to n, and their log sum reaches
    floor(8 log2 n) - 7, while at any other n the primes that pass
    multiply to at most n / 3 and sum to at most floor(8 log2 n) - 12
    (_residue_hits).  A member's prime P above sqrt(hi) has
    P (1 + rad(P - 1)) <= n < hi, and _classify_steps holds every such P,
    so the pass's hits are exactly the composite members.  n = 1 is one
    more, with index 1; only they take a totient and go to
    _lehmer_indexes.
    """
    if not bounds:  # limit 1 leaves no segment
        return
    plan, steps = _classify_steps(math.isqrt(bounds[-1][1] - 1))
    logs = _log_buffer(bounds)
    for lo, hi in bounds:
        first = lo | 1
        members = _residue_hits(steps, logs, lo, hi)
        if first == 1:  # phi(1) = 1 divides (1 - 1)^1
            members = np.concatenate(([1], members))
        # Through the module global, which the benchmark's tracer swaps.
        seg = totient_sieve(lo, hi, plan, members)
        pos = (members.astype(np.int64) - first) // 2
        yield _Classified(seg, pos, _lehmer_indexes(seg.phi, first, pos))


def _member_scan(bounds: list[tuple[int, int]]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per segment of one classify scan, its members of L_inf other than
    the primes, ascending (int64), and their Lehmer indexes (uint8)."""
    for c in _classify_scan(bounds):
        yield c.seg.first + 2 * c.pos, c.index


def _dense_index(c: _Classified, plan: _SievePlan) -> np.ndarray:
    """The Lehmer index of every n in the segment (0 = not in L_inf), with
    the primes marked by _prime_mask under ``plan``, one exact for the
    segment's hi."""
    lo, hi = c.seg.lo, c.seg.hi
    index = np.zeros(hi - lo, dtype=np.uint8)
    if lo <= 2 < hi:
        index[2 - lo] = 1
    # A view: writing odd_index[i] sets the index of first + 2i.  The
    # prime mask leaves 1, the primes' index, in place.
    odd_index = index[c.seg.first - lo :: 2]
    _prime_mask(plan, odd_index, lo, hi)
    odd_index[c.pos] = c.index
    return index


def _segment_bounds(lo: int, hi: int, buffers: int = 1) -> list[tuple[int, int]]:
    """The segments every bulk path runs on, between consecutive edges
    lo + i * size of [lo, hi), and hi.  The one place that picks the
    size: a scan whose buffers take ``buffers`` bytes per odd n of a
    segment takes _DEFAULT_SEGMENT // buffers values, read at call time,
    so that its buffers fill 2 MB together: 1 for the Korselt scan's log
    sums, and 2 for a classify scan, whose log buffer and scatter runs
    peak near two bytes per odd n (ROADMAP, "Measured and set aside":
    "Classify segment length").  Results never depend on the size, only
    speed and peak memory do.
    """
    size = max(_DEFAULT_SEGMENT // buffers, 1)
    edges = [*range(lo, hi, size), hi]
    return list(zip(edges, edges[1:]))


def _listed(scan, bounds) -> list:
    return list(scan(bounds))


def _map_scans(scan, bounds: list[tuple[int, int]], workers: int) -> Iterator:
    """Yield scan's per-segment results over ``bounds`` in order, as they
    arrive, so that callers merge them without holding a list of them.

    With a pool, each worker runs one scan over a contiguous run of
    segments, about an equal share of the values, and returns its run's
    results as a list.  Only classify scans take a pool, and their tables
    are built before the fork, so that every worker inherits them from
    _classify_steps's cache instead of building them cold.
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
    _classify_steps(math.isqrt(bounds[-1][1] - 1))
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
    lo = _as_natural(lo, minimum=1, name="lo")
    hi = _as_natural(hi, minimum=lo + 1, name="hi")
    if hi > _INT64_SAFE_HI:
        raise LimitExceededError(f"hi must not exceed {_INT64_SAFE_HI}")
    # The scan's own plan, cached for the root of its last hi.
    plan, _ = _classify_steps(math.isqrt(hi - 1))
    for c in _classify_scan(_segment_bounds(lo, hi, buffers=2)):
        index = _dense_index(c, plan)
        for i, ix in enumerate(index.tolist()):
            yield c.seg.lo + i, _INDEXES[ix]


def _icbrt(x: int) -> int:
    """floor(x^(1/3)) for x >= 0."""
    c = round(x ** (1 / 3))
    while c**3 > x:
        c -= 1
    while (c + 1) ** 3 <= x:
        c += 1
    return c


def _prime_counts(x: int) -> list[int]:
    """pi(10^j) for j = 1..J, where x = 10^J, by Lucy's form of the
    Legendre-Meissel recurrence, over the odd primes <= sqrt(x) of the
    classify plan for that root, and 2.

    S(v) counts the n in 2..v that are prime or have no prime factor
    among the primes taken so far.  It starts at v - 1, and a prime p
    takes S(v) -= S(v // p) - S(p - 1) at every v >= p^2, from
    the S of the primes below p (at v < p^2 it changes nothing).  Once
    every p <= sqrt(v) is taken, S(v) = pi(v).  Only the values x // d
    are ever read: small[v] holds S(v) for v <= r = isqrt(x), large[d]
    holds S(x // d) for d <= r, and x // d // p = x // (d p).

    The primes p <= cbrt(x) are taken one by one over every value: a
    strided slice of large where d p <= r, and a gather from small
    otherwise.  Each prime p above cbrt(x) reads S(v // p) at v <= x,
    and v // p <= x / p < x^(2/3) < q^2 for every prime q > cbrt(x), so
    no later prime changes what it reads: after the first phase
    S(v // p) is already as p needs it, and S(p - 1) = pi(p - 1) is p's
    rank among the primes.  So each 10^j takes these primes in one
    vectorised sum, pi(v) = S(v) - sum over cbrt(x) < p <= sqrt(v) of
    (S(v // p) - rank(p)), exactly.
    """
    r = math.isqrt(x)
    primes = np.concatenate(([2], _classify_steps(r)[0].p))
    values = np.arange(r + 1, dtype=np.int64)
    small = values - 1
    large = np.zeros(r + 1, dtype=np.int64)
    large[1:] = x // values[1:] - 1
    first = int(np.searchsorted(primes, _icbrt(x), side="right"))
    for p in primes[:first].tolist():
        below = small[p - 1]
        # The d with x // d >= p^2, and among them those with d p <= r.
        top = min(x // (p * p), r)
        strided = min(r // p, top)
        large[1 : strided + 1] -= large[p : strided * p + 1 : p] - below
        large[strided + 1 : top + 1] -= small[x // (values[strided + 1 : top + 1] * p)] - below
        small[p * p :] -= small[values[p * p :] // p] - below
    batch = primes[first:]
    rank = np.arange(first, primes.size)
    counts = []
    for j in range(1, round(math.log10(x)) + 1):
        v, d = 10**j, x // 10**j
        m = int(np.searchsorted(batch, math.isqrt(v), side="right"))
        p = batch[:m]
        q = v // p
        # S(q) is large[d p] above r, where d p <= r, and small[q] below.
        read = np.where(q > r, large[np.minimum(d * p, r)], small[np.minimum(q, r)])
        counts.append(int((large[d] if d <= r else small[v]) - (read - rank[:m]).sum()))
    return counts


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
    Every prime has index 1, so C_k(10^j) is pi(10^j) (_prime_counts)
    plus the scan's other members up to 10^j of index at most k: each
    member goes to the bucket of the least 10^j at or above it, and the
    sums over buckets and over indexes 1..K_CAP hold C_k(10^j) at entry
    min(k, K_CAP) - 1 of row j.
    """
    limit = _check_limit(limit)
    workers = _as_natural(workers, minimum=1, name="workers")
    j = round(math.log10(limit))
    if 10**j != limit or j < 1:
        raise ValueError(f"limit must be a power of 10 >= 10, got {limit}")
    requested = _normalize_ks(ks)
    powers = tuple(10**i for i in range(1, j + 1))

    bounds = _segment_bounds(1, limit + 1, buffers=2)
    hist = np.zeros((j, K_CAP + 1), dtype=np.int64)
    for n, index in _map_scans(_member_scan, bounds, workers):
        np.add.at(hist, (np.searchsorted(powers, n), index), 1)
    cumulative = np.cumsum(np.cumsum(hist[:, 1:], axis=0), axis=1)
    cumulative += np.array(_prime_counts(limit))[:, None]
    rows = cumulative.tolist()
    counts = {k: tuple(row[min(k, K_CAP) - 1] for row in rows)
              for k in (*requested, math.inf)}
    return CountTable(limit=limit, ks=requested, powers=powers, counts=counts)


def _lk_scan(bounds: list[tuple[int, int]], k: int) -> Iterator[np.ndarray]:
    """Per segment of one classify scan, its composite members of L_k.

    Even n are never composite members: 2 is prime, and even n > 2 lie
    outside L_inf.  The odd primes are not among the scan's members, so
    only n = 1 is left to drop."""
    for n, index in _member_scan(bounds):
        n = n[index <= min(k, K_CAP)]
        yield n[n > 1]


def enumerate_Lk_composites(limit, k: int, *, workers: int = 1) -> list[int]:
    """All composite n <= limit with phi(n) | (n-1)^k, ascending."""
    limit = _check_limit(limit)
    k = _as_natural(k, minimum=1, name="k")
    workers = _as_natural(workers, minimum=1, name="workers")
    bounds = _segment_bounds(1, limit + 1, buffers=2)
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
