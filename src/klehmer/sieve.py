"""Bulk classification by segmented sieving.

Reproduces the counting table C_k(10^j) = #{n <= 10^j : phi(n) | (n-1)^k},
enumerates L_k composites and Carmichael numbers, and searches/verifies
the alpha sequence (smallest Carmichael number outside L_k).

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
The index of every other odd n is found by iterated modular
multiplication acc <- acc * (n-1) mod phi(n), stopping at the first zero
or after bitlength(phi) - 1 steps (every prime exponent in phi(n) is
below that, so no finite index can hide past it).  First, an exclusion
filter drops the odd n with q | phi(n) but q not dividing n-1 for some q
in {3, 5, 7} (~72% of them near 10^7); only the composites left go to
int64, where j <= 5 squarings compute (n-1)^(2^j) mod phi(n) with 2^j at
least every cutoff.  A nonzero result certifies n is outside L_inf, so
only the ~0.07% of odd n that survive both (composites, and n = 1) run
the iteration.  Carmichael numbers come from one ascending Korselt scan,
which enumerate_carmichael lists and alpha_search walks: it plans once
(base primes, strides, one reused uint32 product buffer), and each
segment copies the tiled product of 3, 5, 7, 11 and 13, multiplies in
the larger primes by strided passes or one scatter, and searches for
hits block by block.  Count and L_k segments are independent work units,
merged in ascending order as they arrive (from a worker pool or not), so
results are identical for any worker count or segment size.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .arith import _as_natural, factorize
from .carmichael import korselt_test
from .lehmer import K_CAP, NOT_IN_LINF, LehmerIndex, lehmer_index

__all__ = [
    "DEFAULT_MAX_LIMIT",
    "LARGE_MAX_LIMIT",
    "MEMORY_ENV_VAR",
    "SieveSegment",
    "CountTable",
    "AlphaRecord",
    "AlphaNotFound",
    "LimitExceededError",
    "MemoryBudgetError",
    "VerificationFailure",
    "NotCarmichaelError",
    "LehmerMembershipError",
    "base_primes",
    "totient_sieve",
    "classify_range",
    "count_table",
    "enumerate_Lk_composites",
    "enumerate_carmichael",
    "alpha_search",
    "verify_alpha_entry",
]

# Desk-scale default; the 10^8 ceiling is opt-in (CLI --allow-large) and
# needs a few hundred MB of segment headroom.
DEFAULT_MAX_LIMIT = 10**7
LARGE_MAX_LIMIT = 10**8

MEMORY_ENV_VAR = "KLEHMER_MEMORY_MIB"
_DEFAULT_MEMORY_MIB = 512

_DEFAULT_SEGMENT = 1_000_000

# acc * (n-1) must stay inside int64: hi^2 < 2^63 caps hi at ~3.03e9.
_INT64_SAFE_HI = 3_000_000_000

# Peak bytes (tracemalloc on 10^6 segments at 10^7, 9.9e7 and just below
# _INT64_SAFE_HI, checked by the tests): totient_sieve 8.2-8.5 per odd
# value it sieves (9.8 on a first call near _INT64_SAFE_HI, which caches
# the inverses of its 5570 base primes); a bulk segment at most 6.5
# (_classify_arrays, _segment_lk_members) or 2.4 (a Korselt scan of one
# segment; 6.6 on the segment from 2, where most blocks of the hit search
# reach first) per value of hi - lo.  12 is at least 22% above each of
# these peaks.
_BYTES_PER_VALUE = 12


class LimitExceededError(Exception):
    """Requested bound is above the configured maximum."""


class MemoryBudgetError(LimitExceededError):
    """Segment would not fit the memory budget; carries a workable size."""

    def __init__(self, requested: int, budget_mib: int, suggested: int):
        self.requested = requested
        self.budget_mib = budget_mib
        self.suggested = suggested
        super().__init__(
            f"segment of {requested} values exceeds the {budget_mib} MiB "
            f"budget ({MEMORY_ENV_VAR}); use segments of at most {suggested}"
        )


class VerificationFailure(Exception):
    """A claimed alpha-table property did not hold."""


class NotCarmichaelError(VerificationFailure):
    """The value under verification is not a Carmichael number."""


class LehmerMembershipError(VerificationFailure):
    """The value under verification lies in L_k although it must not."""


@dataclass
class SieveSegment:
    """Totients of the odd n in [lo, hi).

    Entry i belongs to n = first + 2i, first being the first odd n >= lo.
    ``phi`` is uint32 (every n is below _INT64_SAFE_HI < 2^32).
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


@dataclass(frozen=True)
class AlphaRecord:
    """A Carmichael number outside L_k: alpha(k) when found by search.

    ``bound`` is the exhaustive search limit, or 0 when the value was
    checked directly (direct checks do not establish minimality).
    """

    k: int
    n: int
    omega: int
    in_next: bool
    bound: int


@dataclass(frozen=True)
class AlphaNotFound:
    """Search outcome: no Carmichael number outside L_k up to ``bound``."""

    k: int
    bound: int


def _memory_budget_mib() -> int:
    raw = os.environ.get(MEMORY_ENV_VAR)
    if raw is None:
        return _DEFAULT_MEMORY_MIB
    try:
        mib = int(raw)
    except ValueError:
        raise ValueError(f"{MEMORY_ENV_VAR} must be an integer, got {raw!r}")
    if mib < 1:
        raise ValueError(f"{MEMORY_ENV_VAR} must be positive, got {mib}")
    return mib


def _budget_segment_cap() -> int:
    return max(1024, _memory_budget_mib() * (1 << 20) // _BYTES_PER_VALUE)


def base_primes(limit: int) -> np.ndarray:
    """All primes <= limit."""
    limit = _as_natural(limit, name="limit")
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
    exact quotient.  Cached, as the totient sieve asks for it in every
    segment; its arguments are odd primes below sqrt(_INT64_SAFE_HI)."""
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


def totient_sieve(lo: int, hi: int) -> SieveSegment:
    """Exact totients of the odd n in [lo, hi) by a segmented sieve.

    ``phi[i]`` is phi(first + 2i), first being the first odd n >= lo.
    The first level of _TILED_PRIMES comes from two tiled patterns: their
    inverses mod 2^32 divide them out of rem, and their p - 1 start phi.
    One loop then walks the odd base primes p <= sqrt(hi - 1) and their
    powers p^e < hi, from p^2 for _TILED_PRIMES and from p for the rest:
    at the multiples of p^e, phi picks up one factor of p (p - 1 at the
    first level) and rem loses one, by a multiply with p^-1 mod 2^32.
    Whatever remains in rem is 1 or a single prime above sqrt(hi),
    contributing rem - 1.  Raises MemoryBudgetError when the segment
    cannot fit the configured budget, with a workable segment size in
    the message.
    """
    lo = _as_natural(lo, minimum=1, name="lo")
    hi = _as_natural(hi, minimum=lo + 1, name="hi")
    if hi > _INT64_SAFE_HI:
        raise LimitExceededError(f"hi must stay below {_INT64_SAFE_HI}")
    first = lo | 1
    # The budget caps the odd values sieved: hi - lo = 2 * cap holds cap of them.
    cap = _budget_segment_cap()
    length = len(range(first, hi, 2))
    if length > cap:
        raise MemoryBudgetError(hi - lo, _memory_budget_mib(), 2 * cap)

    # n < hi <= _INT64_SAFE_HI < 2^32, and every partial product of phi
    # divides phi(n) < n, so uint32 cannot overflow.  For odd p, a multiply
    # by p^-1 mod 2^32 divides a multiple of p exactly.
    rem = np.arange(first, hi, 2, dtype=np.uint32)
    # phi holds the inverse pattern first, so no third array is needed.
    phi = np.empty(length, dtype=np.uint32)
    inverse, totient = _totient_patterns()
    _fill_tiled(phi, first // 2, length, inverse)
    rem *= phi
    _fill_tiled(phi, first // 2, length, totient)

    for p in base_primes(math.isqrt(hi - 1))[1:].tolist():
        pe, factor = (p * p, p) if p in _TILED_PRIMES else (p, p - 1)
        inv = _inverse32(p)
        while pe < hi:
            # Consecutive odd multiples of pe are 2 pe apart, so the stride
            # in index space is pe, from the i with first + 2i = 0 (mod pe);
            # (pe + 1) // 2 is the inverse of 2 mod the odd pe.
            i = -first * ((pe + 1) // 2) % pe
            if i >= length:
                break
            rem[i::pe] *= inv
            phi[i::pe] *= factor
            pe *= p
            factor = p

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


def _may_be_in_linf(phi: np.ndarray, first: int) -> np.ndarray:
    """Mask over the odd n = first + 2i: False where some q in
    _EXCLUSION_PRIMES divides phi(n) (uint32) but not n - 1."""
    keep = np.ones(phi.size, dtype=bool)
    prod = np.empty_like(phi)
    ok = np.empty(phi.size, dtype=bool)
    for q in _EXCLUSION_PRIMES:
        # For odd q, phi * q^-1 mod 2^32 <= (2^32 - 1) // q iff q | phi.
        np.multiply(phi, _inverse32(q), out=prod)
        np.greater(prod, np.uint32(0xFFFFFFFF // q), out=ok)
        # The n = 1 (mod q) are every q-th entry, from i = (1 - first) / 2 mod q.
        ok[(1 - first) * pow(2, -1, q) % q :: q] = True
        keep &= ok
    return keep


def _classify_arrays(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Odd-n totients and per-n Lehmer indexes for [lo, hi); index 0 = not in L_inf.

    The totients cover the odd n only (totient_sieve): even n above 2 are
    settled without them (phi even, n-1 odd), and 2 has index 1.  The odd
    primes, phi(n) = n - 1, have index 1, and the odd n that
    _may_be_in_linf excludes have index 0; the rest take j
    squarings of n-1 mod phi in int64, with 2^j >= the largest per-n
    cutoff bitlength(phi) - 1 (at most 31, as phi < 2^32).
    phi | (n-1)^k for some k <= cutoff implies phi | (n-1)^(2^j), so a
    nonzero result certifies index 0.  The survivors run the modular
    iteration against their cutoff, which gives the exact index.
    """
    seg = totient_sieve(lo, hi)
    phi = seg.phi
    index = np.zeros(hi - lo, dtype=np.uint8)
    if lo <= 2 < hi:
        index[2 - lo] = 1
    # A view: writing odd_index[i] sets the index of first + 2i.
    odd_index = index[seg.first - lo :: 2]

    # An odd n > 1 is prime exactly when phi(n) = n - 1, and then has index
    # 1; odd_index is still all 0, so a plain copy of the mask sets them.
    prime = phi == np.arange(seg.first - 1, hi - 1, 2, dtype=np.uint32)
    odd_index[:] = prime
    keep = _may_be_in_linf(phi, seg.first)
    keep &= ~prime
    pos = np.flatnonzero(keep)
    ph = phi[pos].astype(np.int64)
    # Every operand is >= 0 and phi >= 1, so the truncating fmod equals %.
    base_val = 2 * pos
    base_val += seg.first - 1
    np.fmod(base_val, ph, out=base_val)

    # The cutoff grows with phi, so the largest is that of phi.max()
    # (-1 for a segment without odd n, which has nothing to square).
    top_cut = int(phi.max(initial=0)).bit_length() - 1
    # sq < phi < hi <= _INT64_SAFE_HI keeps sq * sq inside int64.
    sq = base_val.copy()
    for _ in range((top_cut - 1).bit_length()):
        sq *= sq
        np.fmod(sq, ph, out=sq)
    keep = np.flatnonzero(sq == 0)
    pos, base_val, ph = pos[keep], base_val[keep], ph[keep]
    cut = np.frexp(ph.astype(np.float64))[1].astype(np.int64) - 1

    acc = base_val.copy()
    k = 1
    while pos.size:
        # acc = (n-1)^k mod phi: a zero gives index k, a cutoff of k ends n.
        zero = acc == 0
        odd_index[pos[zero]] = k
        alive = ~zero & (cut > k)
        pos = pos[alive]
        acc = acc[alive]
        base_val = base_val[alive]
        ph = ph[alive]
        cut = cut[alive]
        k += 1
        acc *= base_val
        np.fmod(acc, ph, out=acc)
    return phi, index


def _segment_bounds(
    lo: int, hi: int, size: int, cuts: tuple[int, ...] = ()
) -> list[tuple[int, int]]:
    """Split [lo, hi) into chunks of at most ``size``, aligned on ``cuts``."""
    marks = sorted({c for c in cuts if lo < c < hi})
    bounds = []
    start = lo
    while start < hi:
        end = min(start + size, hi)
        for c in marks:
            if start < c < end:
                end = c
                break
        bounds.append((start, end))
        start = end
    return bounds


def _auto_segment_size(segment_size: int | None) -> int:
    if segment_size is not None:
        segment_size = _as_natural(segment_size, minimum=1, name="segment_size")
    return min(segment_size or _DEFAULT_SEGMENT, _budget_segment_cap())


def _map_segments(func, args_list, workers: int) -> Iterator:
    """Yield func(a) for each a in args_list in order, as results arrive,
    so that callers merge them without holding a list of them."""
    # A fork-based pool starts all of its workers up front, so never ask
    # for more than there are segments or cores.
    size = min(workers, len(args_list), os.cpu_count() or 1)
    if size <= 1:
        yield from map(func, args_list)
        return
    with ProcessPoolExecutor(max_workers=size) as pool:
        yield from pool.map(func, args_list)


def _check_limit(limit, max_limit: int | None) -> int:
    limit = _as_natural(limit, minimum=1, name="limit")
    ceiling = DEFAULT_MAX_LIMIT if max_limit is None else max_limit
    if limit > ceiling:
        raise LimitExceededError(
            f"limit {limit} exceeds the configured maximum {ceiling}"
        )
    if limit >= _INT64_SAFE_HI:
        raise LimitExceededError(f"limit must stay below {_INT64_SAFE_HI}")
    return limit


def classify_range(
    lo: int, hi: int, *, segment_size: int | None = None
) -> Iterator[tuple[int, LehmerIndex]]:
    """Yield (n, LehmerIndex) for every n in [lo, hi), factorization-free.

    The same algorithm as lehmer_index, on sieved totients in bulk, so it
    agrees with lehmer_index everywhere.
    """
    lo = _as_natural(lo, minimum=1, name="lo")
    hi = _as_natural(hi, minimum=lo + 1, name="hi")
    if hi > _INT64_SAFE_HI:
        raise LimitExceededError(f"hi must stay below {_INT64_SAFE_HI}")
    size = _auto_segment_size(segment_size)
    for a, b in _segment_bounds(lo, hi, size):
        _, index = _classify_arrays(a, b)
        for i, ix in enumerate(index.tolist()):
            yield a + i, (LehmerIndex(ix) if ix else NOT_IN_LINF)


def _segment_histogram(bounds: tuple[int, int]) -> np.ndarray:
    lo, hi = bounds
    _, index = _classify_arrays(lo, hi)
    # bincount widens its input to int64; the members of L_inf are few, so
    # widening only them spares a transient 8 bytes per value of hi - lo.
    members = index[index != 0]
    hist = np.bincount(members, minlength=K_CAP + 1).astype(np.int64)
    hist[0] = index.size - members.size
    return hist


def _normalize_ks(ks) -> tuple:
    seen = []
    for k in ks:
        if k == math.inf:
            key = math.inf
        else:
            key = _as_natural(k, minimum=1, name="k")
        if key not in seen:
            seen.append(key)
    if not seen:
        raise ValueError("at least one k is required")
    return tuple(sorted(seen, key=lambda v: (v == math.inf, v)))


def count_table(
    limit,
    ks=(2, 3, 4, 5, math.inf),
    *,
    segment_size: int | None = None,
    workers: int = 1,
    max_limit: int | None = None,
) -> CountTable:
    """Exact counts C_k(10^j) for every power of ten up to ``limit``.

    ``limit`` must itself be a power of ten.  The inf row (membership in
    L_inf) is always computed alongside the requested ks; requested k
    beyond 127 count as inf.  Deterministic for any worker count and
    segment size.
    """
    limit = _check_limit(limit, max_limit)
    j = round(math.log10(limit))
    if 10**j != limit or j < 1:
        raise ValueError(f"limit must be a power of 10 >= 10, got {limit}")
    requested = _normalize_ks(ks)
    powers = tuple(10**i for i in range(1, j + 1))

    size = _auto_segment_size(segment_size)
    bounds = _segment_bounds(1, limit + 1, size, cuts=tuple(p + 1 for p in powers))
    hists = _map_segments(_segment_histogram, bounds, workers)

    running = np.zeros(K_CAP + 1, dtype=np.int64)
    snapshots = {}
    want = {p + 1 for p in powers}
    for (lo, hi), hist in zip(bounds, hists):
        running += hist
        if hi in want:
            snapshots[hi - 1] = running.copy()

    counts: dict = {}
    for k in requested + ((math.inf,) if math.inf not in requested else ()):
        row = []
        for p in powers:
            snap = snapshots[p]
            if k == math.inf:
                row.append(int(snap[1:].sum()))
            else:
                row.append(int(snap[1 : min(k, K_CAP) + 1].sum()))
        counts[k] = tuple(row)
    return CountTable(limit=limit, ks=requested, powers=powers, counts=counts)


def _segment_lk_members(args: tuple[int, int, int]) -> np.ndarray:
    # Even n are never composite members: 2 is prime, and even n > 2
    # lie outside L_inf.
    lo, hi, k = args
    phi, index = _classify_arrays(lo, hi)
    first = lo | 1
    index = index[first - lo :: 2]
    pos = np.flatnonzero((index >= 1) & (index <= min(k, K_CAP)))
    n = first + 2 * pos
    return n[(n > 1) & (phi[pos] != n - 1)]


def enumerate_Lk_composites(
    limit,
    k: int,
    *,
    segment_size: int | None = None,
    workers: int = 1,
    max_limit: int | None = None,
) -> list[int]:
    """All composite n <= limit with phi(n) | (n-1)^k, ascending."""
    limit = _check_limit(limit, max_limit)
    k = _as_natural(k, minimum=1, name="k")
    size = _auto_segment_size(segment_size)
    bounds = _segment_bounds(1, limit + 1, size)
    chunks = _map_segments(_segment_lk_members, [(a, b, k) for a, b in bounds], workers)
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


def _carmichael_numbers(limit: int, segment_size: int | None) -> Iterator[int]:
    """Carmichael numbers <= limit in ascending order, one segment at a time."""
    bounds = _segment_bounds(2, limit + 1, _auto_segment_size(segment_size))
    for found in _korselt_scan(bounds):
        yield from found.tolist()


def enumerate_carmichael(
    limit,
    *,
    segment_size: int | None = None,
    max_limit: int | None = None,
) -> list[int]:
    """All Carmichael numbers <= limit, ascending.

    One Korselt scan (_korselt_scan) in process: its plan and buffer are
    made once for all segments, and a segment costs less than starting a
    worker pool does.
    """
    return list(_carmichael_numbers(_check_limit(limit, max_limit), segment_size))


def alpha_search(
    k: int,
    limit,
    *,
    segment_size: int | None = None,
    max_limit: int | None = None,
) -> AlphaRecord | AlphaNotFound:
    """Smallest Carmichael number <= limit outside L_k, if any.

    Scans Carmichael numbers serially in ascending order, factors each
    one and takes its index from phi(n) (lehmer_index), so a returned
    record is minimal below the bound by construction.
    """
    k = _as_natural(k, minimum=1, name="k")
    limit = _check_limit(limit, max_limit)
    for n in _carmichael_numbers(limit, segment_size):
        f = factorize(n)
        idx = lehmer_index(f)
        if not idx <= k:
            return AlphaRecord(
                k=k,
                n=n,
                omega=f.omega(),
                in_next=idx <= k + 1,
                bound=limit,
            )
    return AlphaNotFound(k=k, bound=limit)


def verify_alpha_entry(k: int, n) -> AlphaRecord:
    """Check a claimed alpha(k) value directly, with no search.

    Confirms (from n's factorization, the only one it needs) that n is a
    Carmichael number and not in L_k, and reports its distinct-prime count and whether it lands
    in L_{k+1}.  Minimality is NOT established; ``bound`` is 0 to say so.
    Failures raise NotCarmichaelError / LehmerMembershipError.
    """
    k = _as_natural(k, minimum=1, name="k")
    f = factorize(n)
    n = f.value
    if not korselt_test(f):
        raise NotCarmichaelError(f"{n} fails Korselt's criterion")
    idx = lehmer_index(f)
    if idx <= k:
        raise LehmerMembershipError(f"{n} lies in L_{k}")
    return AlphaRecord(k=k, n=n, omega=f.omega(), in_next=idx <= k + 1, bound=0)
