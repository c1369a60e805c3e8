"""Bulk classification by segmented sieving.

Reproduces the counting table C_k(10^j) = #{n <= 10^j : phi(n) | (n-1)^k},
enumerates L_k composites and Carmichael numbers, and searches the alpha
sequence (smallest Carmichael number outside L_k).  Checking one claimed
alpha entry is per-number work, in carmichael.verify_alpha_entry; this is
the one module that imports numpy.

The bulk route never factors anything and sieves odd n only (even n > 2
lie outside every L_k, and no even n is a Carmichael number): a segmented
uint32 totient sieve over the odd n supplies phi(n).  It copies the first
level of 3, 5, 7, 11 and 13 from two tiled patterns (the product of their
inverses mod 2^32, which divides them out of the remainder exactly, and
the product of their p - 1); then one loop over the odd base primes
multiplies in p - 1 at the multiples of every other p and p at the
multiples of each higher power, dividing p out of the remainder by a
multiply with p^-1 mod 2^32.  An odd n > 1 is prime exactly
when phi(n) = n - 1, so the primes get index 1 from that compare alone.
Every other odd n is settled in two steps.  First, an exclusion filter
drops the odd n with q | phi(n) but q not dividing n-1 for some q in
{3, 5, 7} (~72% of them near 10^7); only the composites left go to
int64, where j <= 5 squarings compute (n-1)^(2^j) mod phi(n) with 2^j
at least every bitlength(phi) - 1 (no prime exponent of phi(n) exceeds
it).  A nonzero result certifies n is outside L_inf, and a zero puts n
in L_(2^j); so only the ~0.07% of odd n that survive both (composites,
and n = 1) take lehmer_index's own iteration acc <- acc * (n-1) mod
phi(n), which reaches zero within 2^j <= 32 steps.  Carmichael numbers
come from one ascending Korselt scan,
which enumerate_carmichael lists and alpha_search walks: it plans once
(base primes, strides, one reused uint32 product buffer), and each
segment copies the tiled product of 3, 5, 7, 11 and 13, multiplies in
the larger primes by strided passes or one scatter, and searches for
hits block by block.  The count, the L_k lists and classify_range consume
one classify scan, which also plans once (the walk's step table, cached
per limit, and rem, phi and two masks that every segment reuses),
and each segment yields its prime mask and the few composites that the
iteration settles, so only classify_range builds a per-n index.  With a
worker pool each worker scans one contiguous run of segments; results are
merged in ascending order as they arrive, so they are identical for any
worker count or segmentation.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .arith import LimitExceededError, _as_natural, factorize
from .carmichael import AlphaNotFound, AlphaRecord, _alpha_record
# Imported, not exported: bench/spans.py traces it as sieve.verify_alpha_entry.
from .carmichael import verify_alpha_entry
from .lehmer import K_CAP, NOT_IN_LINF, LehmerIndex, _power_index

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

_DEFAULT_SEGMENT = 1_000_000

# acc * (n-1) must stay inside int64: hi^2 < 2^63 caps hi at ~3.03e9.
_INT64_SAFE_HI = 3_000_000_000

# Peak bytes (tracemalloc on 10^6 segments at 10^7, 9.9e7 and just below
# _INT64_SAFE_HI, checked by the tests): a direct totient_sieve call
# 8.1-8.6 per odd value it sieves (9.4 on a first call near
# _INT64_SAFE_HI, which builds the step table of its 5570 base primes); a
# classify scan of one segment at most 7.8 (_classify_arrays,
# _histogram_scan, _lk_scan) or a Korselt scan 2.4 (6.6 on the segment
# from 2, where most blocks of the hit search reach first) per value of
# hi - lo.  12 is at least 27% above each of these peaks.  A scan of many
# segments allocates its buffers once, for its longest.
_BYTES_PER_VALUE = 12

# A direct totient_sieve call sieves at most this many odd values (512 MiB
# at _BYTES_PER_VALUE each), so hi - lo up to twice it; bulk segments are
# _DEFAULT_SEGMENT values, far below.
_SIEVE_MAX_ODD = (512 << 20) // _BYTES_PER_VALUE


@dataclass
class SieveSegment:
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


@dataclass(frozen=True)
class CountTable:
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


# 3, 5, 7, 11 and 13 enter both sieves from cached patterns, which each
# segment copies (_fill_tiled) instead of taking a strided pass per prime.
# Their product in the Korselt scan repeats with period lcm(p(p-1)/2) =
# 30030 in odd-index space (each entry at most 15015 and a divisor of n):
# per 10^6 segment near 4e7, 0.08 ms against 0.09 ms for np.ones plus
# 0.26-0.33 ms for the five passes.  Adding 17 makes that period 2 042 040
# (8 MB) and lost.  Their first level in the totient sieve (which of them
# divide n) repeats with period 3*5*7*11*13 = 15015.
_TILED_PRIMES = (3, 5, 7, 11, 13)
_PATTERN_PERIOD = math.lcm(*(p * (p - 1) // 2 for p in _TILED_PRIMES))
_TOTIENT_PERIOD = math.prod(_TILED_PRIMES)


@functools.cache
def _inverse32(p: int) -> np.uint32:
    """p^-1 mod 2^32 for odd p: a uint32 multiple of p times it is the
    exact quotient.  Cached, as the exclusion filter asks for it in every
    segment; its arguments are _TILED_PRIMES and _EXCLUSION_PRIMES."""
    return np.uint32(pow(p, -1, 1 << 32))


@functools.cache
def _tiled_pattern() -> np.ndarray:
    """The product _TILED_PRIMES contribute to the Korselt scan at the odd
    n = 2j + 1, by j mod _PATTERN_PERIOD; n = p itself is included."""
    pattern = np.ones(_PATTERN_PERIOD, dtype=np.uint32)
    for p in _TILED_PRIMES:
        # n = p (mod p(p-1)) for n = 2j + 1 is j = (p-1)/2 (mod p(p-1)/2).
        pattern[(p - 1) // 2 :: p * (p - 1) // 2] *= p
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
        inverse[(p - 1) // 2 :: p] *= _inverse32(p)
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
    arrays (p^e, (p^e + 1) // 2, p^-1 mod 2^32, factor of phi): each odd
    prime p <= root, from p^2 for _TILED_PRIMES and from p for the rest,
    with factor p - 1 at p itself and p above.  Cached per root, so that
    repeated runs to one limit build it once; the arrays are read-only."""
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
    # (pe + 1) // 2 is the inverse of 2 mod the odd pe.
    steps += ((steps[0] + 1) // 2, np.array(inv, dtype=np.uint32),
              np.array(factor, dtype=np.uint32))
    for a in steps:
        a.flags.writeable = False
    return steps


@dataclass(frozen=True)
class _SievePlan:
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


def totient_sieve(lo: int, hi: int, *, plan: _SievePlan | None = None) -> SieveSegment:
    """Exact totients of the odd n in [lo, hi) by a segmented sieve.

    ``phi[i]`` is phi(first + 2i), first being the first odd n >= lo.
    The first level of _TILED_PRIMES comes from two tiled patterns: their
    inverses mod 2^32 divide them out of rem, and their p - 1 start phi.
    The walk then takes the odd base primes p <= sqrt(hi - 1) and their
    powers p^e < hi, from p^2 for _TILED_PRIMES and from p for the rest
    (_walk_steps): at the multiples of p^e, phi picks up one factor of p
    (p - 1 at the first level) and rem loses one, by a multiply with p^-1
    mod 2^32.  Whatever remains in rem is 1 or a single prime above
    sqrt(hi), contributing rem - 1.  Raises LimitExceededError, before
    allocating anything, when [lo, hi) holds more than _SIEVE_MAX_ODD odd
    values; the message names the largest workable hi - lo.

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
    # is pe, from the i with first + 2i = 0 (mod pe).  A plan made for a
    # larger hi also holds p^e >= hi, which never reach i < length, and
    # primes above sqrt(hi - 1), which leave rem at 1 where they divide n
    # and so give the same phi.
    pe, half, inv, factor = plan.steps
    start = -first * half % pe
    hit = np.flatnonzero(start < length)
    for i, h, v, f in zip(start[hit], pe[hit], inv[hit], factor[hit]):
        rem[i::h] *= v
        phi[i::h] *= f

    # rem is 1 or the one prime above sqrt(hi), so rem - 1 clamped at 1
    # is exactly that prime's factor of phi.
    rem -= 1
    np.maximum(rem, 1, out=rem)
    phi *= rem
    return SieveSegment(lo, hi, phi)


# q | phi(n) with q not dividing n - 1 puts n outside L_inf: q never
# divides (n-1)^k.  This settles ~72% of odd n near 10^7 before any int64
# work; on count_table(10^7), dropping 7 was slower and adding 11 or 13
# gained nothing measurable.
_EXCLUSION_PRIMES = (3, 5, 7)


def _may_be_in_linf(phi: np.ndarray, first: int, keep: np.ndarray,
                    prod: np.ndarray, ok: np.ndarray) -> None:
    """Set the mask ``keep`` over the odd n = first + 2i: False where some q
    in _EXCLUSION_PRIMES divides phi(n) (uint32) but not n - 1.  ``prod``
    (uint32) and ``ok`` (bool) are scratch of the same size."""
    for j, q in enumerate(_EXCLUSION_PRIMES):
        # The first q writes keep itself, the others go through ok.
        out = ok if j else keep
        # For odd q, phi * q^-1 mod 2^32 <= (2^32 - 1) // q iff q | phi.
        np.multiply(phi, _inverse32(q), out=prod)
        np.greater(prod, np.uint32(0xFFFFFFFF // q), out=out)
        # The n = 1 (mod q) are every q-th entry, from i = (1 - first) / 2 mod q.
        out[(1 - first) * pow(2, -1, q) % q :: q] = True
        if j:
            keep &= ok


class _Classified(NamedTuple):
    """One segment of a classify scan, over its odd n = seg.first + 2i: the
    totients, the mask of primes (index 1), and the positions ``pos`` and
    indexes ``index`` of the other odd n in L_inf (n = 1 among them).
    Every other odd n, and every even n but 2, is outside L_inf."""

    seg: SieveSegment
    prime: np.ndarray
    pos: np.ndarray
    index: np.ndarray


def _lehmer_indexes(phi: np.ndarray, first: int,
                    pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The odd n = first + 2 pos that lie in L_inf, as (positions, indexes).

    j squarings of n - 1 mod phi in int64, with 2^j >= the largest cutoff
    bitlength(phi) - 1 among them (at most 31, as phi < 2^32), come first:
    no prime exponent of phi exceeds its cutoff, so phi divides some
    (n-1)^k exactly when it divides (n-1)^(2^j), and a nonzero result
    certifies index 0.  A zero puts n in L_(2^j), so each survivor's
    index comes from lehmer_index's own loop (_power_index) within 2^j
    steps.
    """
    ph = phi[pos].astype(np.int64)
    # Every operand is >= 0 and phi >= 1, so the truncating fmod equals %.
    base_val = 2 * pos
    base_val += first - 1
    np.fmod(base_val, ph, out=base_val)

    # The cutoff grows with phi, so the largest is that of ph.max() (-1
    # when nothing is left, and then there is nothing to square).
    top_cut = int(ph.max(initial=0)).bit_length() - 1
    # sq < phi < hi <= _INT64_SAFE_HI keeps sq * sq inside int64.
    sq = base_val.copy()
    for _ in range((top_cut - 1).bit_length()):
        sq *= sq
        np.fmod(sq, ph, out=sq)
    keep = np.flatnonzero(sq == 0)
    index = map(_power_index, base_val[keep].tolist(), ph[keep].tolist())
    return pos[keep], np.fromiter(index, dtype=np.uint8, count=keep.size)


def _classify_scan(bounds: list[tuple[int, int]]) -> Iterator[_Classified]:
    """Lehmer indexes over each of the ascending segments ``bounds``; one
    _Classified per segment, whose arrays stay valid until the next one.

    The plan is made once per scan: _walk_steps up to sqrt of the last hi,
    and the rem and phi buffers of totient_sieve, a keep and a prime mask,
    all sized to the longest segment.  The totients cover the odd n only:
    even n above 2 are settled without them (phi even, n-1 odd), and 2
    has index 1.  The odd n with phi(n) = n - 1 are exactly the odd
    primes, index 1; _may_be_in_linf excludes most other odd n; only the
    few left go to _lehmer_indexes.
    """
    if not bounds:  # limit 1 leaves no segment
        return
    longest = max(len(range(lo | 1, hi, 2)) for lo, hi in bounds)
    plan = _sieve_plan(bounds[-1][1], longest)
    keep = np.empty(longest, dtype=bool)
    prime = np.empty(longest, dtype=bool)
    for lo, hi in bounds:
        # Through the module global, which the benchmark's tracer swaps.
        seg = totient_sieve(lo, hi, plan=plan)
        phi, first = seg.phi, seg.first
        # totient_sieve is done with rem, so it serves as scratch here.
        work, kp, pr = plan.rem[: phi.size], keep[: phi.size], prime[: phi.size]
        _may_be_in_linf(phi, first, kp, work, pr)
        _fill_steps(work, first - 1)
        np.equal(phi, work, out=pr)
        # keep and not prime, in place.
        np.greater(kp, pr, out=kp)
        pos, index = _lehmer_indexes(phi, first, np.flatnonzero(kp))
        yield _Classified(seg, pr, pos, index)


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
    lo: int, hi: int, cuts: tuple[int, ...] = ()
) -> list[tuple[int, int]]:
    """The segments every bulk path runs on, between consecutive edges of
    [lo, hi): lo + i * _DEFAULT_SEGMENT (read at call time, the one place
    that picks the segment size), each of ``cuts`` inside the range, and
    hi.  Results never depend on the size, only speed and peak memory do.
    """
    edges = sorted({*range(lo, hi, _DEFAULT_SEGMENT),
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
    # for more than there are segments or cores.
    size = min(workers, len(bounds), os.cpu_count() or 1)
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
    for c in _classify_scan(_segment_bounds(lo, hi)):
        index = _dense_index(c)
        for i, ix in enumerate(index.tolist()):
            yield c.seg.lo + i, (LehmerIndex(ix) if ix else NOT_IN_LINF)


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

    bounds = _segment_bounds(1, limit + 1, cuts=tuple(p + 1 for p in powers))
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
    bounds = _segment_bounds(1, limit + 1)
    chunks = _map_scans(functools.partial(_lk_scan, k=k), bounds, workers)
    out: list[int] = []
    for chunk in chunks:
        out.extend(chunk.tolist())
    return out


# A base prime whose stride fits more than _LOOP_HITS times into a
# segment keeps its strided multiply; the others share one np.multiply.at
# of at most _LOOP_HITS hits each.  Per 10^6 segment near 4e7 both together
# took 0.13-0.18 ms at 8 (65 primes looped), 0.15-0.23 ms at 4 and
# 0.12-0.17 ms at 16-64, against 0.42 ms for one strided pass per prime of
# stride < 5e5.  Whole scans to 5e7 did not settle 8 against 16 or 32 (32
# faster in 6 of 8 rounds, median -9%, inside the round-to-round spread).
_LOOP_HITS = 8
_HIT_STEPS = np.arange(_LOOP_HITS)

# prod == n needs prod >= first, so the hit search takes the maximum of
# each _BLOCK entries and compares prod == n only in the blocks that reach
# first.  Per 10^6 segment near 4e7: 0.14-0.18 ms at 4096, 0.11-0.14 ms at
# 1024-2048, 0.20-0.24 ms at 8192 and 0.31-0.36 ms at 16384, against
# 0.18-0.27 ms for a full bool compare and flatnonzero; whole scans to 5e7
# did not tell 1024, 2048 and 4096 apart.
_BLOCK = 4096
_BLOCK_STEPS = np.arange(0, 2 * _BLOCK, 2, dtype=np.uint32)


def _korselt_scan(bounds: list[tuple[int, int]]) -> Iterator[np.ndarray]:
    """Carmichael numbers of each of the ascending segments ``bounds``, by
    Korselt's criterion in residue form; one uint32 array per segment.

    Only odd n are sieved: an odd prime p of an even n needs the even p-1
    to divide the odd n-1, and 2^e is not a squarefree composite.  For odd
    p, "p | n and p-1 | n-1" holds exactly when n = p (mod p(p-1)), and
    each prime p of a Carmichael n = p*m is below sqrt(n) (p-1 | m-1 gives
    m >= p, and m = p is not squarefree).  So every odd p <= sqrt(hi-1)
    multiplies prod by p at those n, p itself excepted: prod == n exactly
    when n is a product of two or more distinct primes that all pass.
    prod is a product of distinct primes of n, so it divides n < hi < 2^32
    (uint32 cannot overflow) and can equal n only where prod >= first.

    The plan is made once per scan: the base primes up to sqrt of the last
    hi, their strides and one uint32 buffer that every segment reuses.  A
    prime p never hits a segment below p^2, since n = p (mod p(p-1)) with
    n != p forces n >= p + p(p-1) = p^2, so that one prime list is exact
    for every segment.  In a segment, _TILED_PRIMES come from the tiled
    pattern (n = p divided out again), the primes with more than
    _LOOP_HITS hits take one strided multiply each and the rest one
    np.multiply.at; hits are then searched block by block (_BLOCK).
    """
    if not bounds:  # limit 1 leaves no segment
        return
    top = bounds[-1][1]
    p = base_primes(math.isqrt(top - 1))
    p = p[p > _TILED_PRIMES[-1]]
    q = p.astype(np.uint32)
    stride = p * (p - 1) // 2
    loop_bound = _LOOP_HITS * stride
    # The odd index of p^2, the first n != p with n = p (mod p(p-1)).
    first_hit = (p * p - 1) // 2
    longest = max(len(range(max(lo, 2) | 1, hi, 2)) for lo, hi in bounds)
    buf = np.empty(-(-longest // _BLOCK) * _BLOCK, dtype=np.uint32)

    for lo, hi in bounds:
        first = max(lo, 2) | 1  # prod starts at 1, so n = 1 would pass
        length = len(range(first, hi, 2))
        j0 = first // 2
        _fill_tiled(buf, j0, length, _tiled_pattern())
        for t in _TILED_PRIMES:
            if first <= t < hi:  # n = t itself is prime
                buf[(t - first) // 2] //= t

        start = np.maximum(first_hit, j0)
        start += (first_hit - start) % stride
        idx = start - j0
        looped = np.searchsorted(loop_bound, length)
        for i, h, f in zip(idx[:looped].tolist(), stride[:looped].tolist(),
                           p[:looped].tolist()):
            buf[i:length:h] *= f
        near = idx[looped:] < length
        where = idx[looped:][near, None] + stride[looped:][near, None] * _HIT_STEPS
        inside = where < length
        factor = np.broadcast_to(q[looped:][near, None], where.shape)
        np.multiply.at(buf, where[inside], factor[inside])

        size = -(-length // _BLOCK) * _BLOCK
        # The last block's pad may hold np.empty garbage or stale products.
        buf[length:size] = 0
        blocks = buf[:size].reshape(-1, _BLOCK)
        rows = np.flatnonzero(blocks.max(axis=1) >= first).astype(np.uint32)
        # n < hi + 2 * _BLOCK < 2^32 stays inside uint32.
        n = rows[:, None] * np.uint32(2 * _BLOCK) + (first + _BLOCK_STEPS)
        yield n[blocks[rows] == n]


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
