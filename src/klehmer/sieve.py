"""Bulk classification by segmented sieving.

Reproduces the counting table C_k(10^j) = #{n <= 10^j : phi(n) | (n-1)^k},
enumerates L_k composites and Carmichael numbers, and searches/verifies
the alpha sequence (smallest Carmichael number outside L_k).

The bulk route never factors anything and sieves odd n only (even n > 2
lie outside every L_k, and no even n is a Carmichael number): a segmented
uint32 totient sieve over the odd n supplies phi(n), and the Lehmer index
of every odd n in a segment is found by iterated modular multiplication
acc <- acc * (n-1) mod phi(n), stopping at the first zero or after
bitlength(phi) - 1 steps (every prime exponent in
phi(n) is below that, so no finite index can hide past it).  First, an
exclusion filter drops the odd n with q | phi(n) but q not dividing n-1
for some q in {3, 5, 7} (~72% of them near 10^7); only the rest go to
int64, where j <= 5 squarings compute (n-1)^(2^j) mod phi(n) with 2^j at
least every cutoff.  A nonzero result certifies n is outside L_inf, so
only the ~12% of odd n that survive both run the iteration.  Carmichael
numbers come from one ascending Korselt scan, which enumerate_carmichael
lists and alpha_search walks.  Segments are independent work units; with
a worker pool they are merged in ascending order, so results are
identical for any worker count or segment size.
"""

from __future__ import annotations

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
# _INT64_SAFE_HI, checked by the tests): totient_sieve at most 8.5 per
# odd value it sieves (18.0 with spf, charged 12 + 8); a bulk segment at
# most 9.4 (_classify_arrays, _segment_lk_members) or 2.7
# (_segment_carmichael) per value of hi - lo.  12 is at least 27% above
# each of these peaks, and 12 + 8 is 11% above the spf sieve's.
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
    """Totients (and optionally smallest prime factors) of the odd n in [lo, hi).

    Entry i belongs to n = first + 2i, first being the first odd n >= lo.
    ``phi`` is uint32 (every n is below _INT64_SAFE_HI < 2^32); ``spf``
    is int64.
    """

    lo: int
    hi: int
    phi: np.ndarray
    spf: np.ndarray | None = None

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


def _budget_segment_cap(bytes_per_elem: int) -> int:
    return max(1024, _memory_budget_mib() * (1 << 20) // bytes_per_elem)


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


def _prime_power_walk(first: int, hi: int) -> Iterator[tuple[int, int, slice]]:
    """Yield (p, e, s) for every odd prime power p^e < hi, where s selects
    the multiples of p^e among the odd n = first + 2i < hi (totient_sieve).

    Consecutive odd multiples of p^e are 2 p^e apart, so the stride in
    index space is p^e, from the i with first + 2i = 0 (mod p^e).
    """
    length = len(range(first, hi, 2))
    for p in base_primes(math.isqrt(hi - 1))[1:].tolist():
        pe, e = p, 1
        while pe < hi:
            # (pe + 1) // 2 is the inverse of 2 mod the odd pe.
            i = -first * ((pe + 1) // 2) % pe
            if i >= length:
                break
            yield p, e, slice(i, length, pe)
            pe *= p
            e += 1


def totient_sieve(lo: int, hi: int, with_spf: bool = False) -> SieveSegment:
    """Exact totients of the odd n in [lo, hi) by a segmented sieve.

    ``phi[i]`` is phi(first + 2i), first being the first odd n >= lo.
    For every odd prime power p^e below hi the multiples of p^e pick up
    one factor of p (of p-1 at the first level); whatever remains after
    all base primes is a single prime above sqrt(hi), contributing rem - 1.
    Raises MemoryBudgetError when the segment cannot fit the configured
    budget, with a workable segment size in the message.
    """
    lo = _as_natural(lo, minimum=1, name="lo")
    hi = _as_natural(hi, minimum=lo + 1, name="hi")
    if hi > _INT64_SAFE_HI:
        raise LimitExceededError(f"hi must stay below {_INT64_SAFE_HI}")
    first = lo | 1
    # The budget caps the odd values sieved: hi - lo = 2 * cap holds cap of them.
    cap = _budget_segment_cap(_BYTES_PER_VALUE + (8 if with_spf else 0))
    if len(range(first, hi, 2)) > cap:
        raise MemoryBudgetError(hi - lo, _memory_budget_mib(), 2 * cap)

    # n < hi <= _INT64_SAFE_HI < 2^32, and every partial product of phi
    # divides phi(n) < n, so uint32 cannot overflow.
    rem = np.arange(first, hi, 2, dtype=np.uint32)
    phi = np.ones(rem.size, dtype=np.uint32)
    spf = np.zeros(rem.size, dtype=np.int64) if with_spf else None

    for p, e, s in _prime_power_walk(first, hi):
        rem[s] //= p
        if e > 1:
            phi[s] *= p
            continue
        phi[s] *= p - 1
        if spf is not None:
            view = spf[s]
            view[view == 0] = p

    if spf is not None:
        missing = (spf == 0) & (rem > 1)
        spf[missing] = rem[missing]
    # rem is 1 or the one prime above sqrt(hi), so rem - 1 clamped at 1
    # is exactly that prime's factor of phi.
    rem -= 1
    np.maximum(rem, 1, out=rem)
    phi *= rem
    return SieveSegment(lo, hi, phi, spf)


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
        np.multiply(phi, np.uint32(pow(q, -1, 1 << 32)), out=prod)
        np.greater(prod, np.uint32(0xFFFFFFFF // q), out=ok)
        # The n = 1 (mod q) are every q-th entry, from i = (1 - first) / 2 mod q.
        ok[(1 - first) * pow(2, -1, q) % q :: q] = True
        keep &= ok
    return keep


def _classify_arrays(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Odd-n totients and per-n Lehmer indexes for [lo, hi); index 0 = not in L_inf.

    The totients cover the odd n only (totient_sieve): even n above 2 are
    settled without them (phi even, n-1 odd), and 2 has index 1.  The odd
    n that _may_be_in_linf excludes have index 0; the rest take j
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

    pos = np.flatnonzero(_may_be_in_linf(phi, seg.first))
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
    return min(segment_size or _DEFAULT_SEGMENT, _budget_segment_cap(_BYTES_PER_VALUE))


def _map_segments(func, args_list, workers: int):
    # A fork-based pool starts all of its workers up front, so never ask
    # for more than there are segments or cores.
    size = min(workers, len(args_list), os.cpu_count() or 1)
    if size <= 1:
        return [func(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(func, args_list))


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


def _segment_carmichael(bounds: tuple[int, int]) -> np.ndarray:
    """Carmichael numbers in [lo, hi) by Korselt's criterion in residue form.

    Only odd n are sieved: an odd prime p of an even n needs the even p-1
    to divide the odd n-1, and 2^e is not a squarefree composite.  For odd
    p, "p | n and p-1 | n-1" holds exactly when n = p (mod p(p-1)), and
    each prime p of a Carmichael n = p*m is below sqrt(n) (p-1 | m-1 gives
    m >= p, and m = p is not squarefree).  So every odd p <= sqrt(hi-1)
    multiplies prod by p at those n, p itself excepted: prod == n exactly
    when n is a product of two or more distinct primes that all pass.
    prod is a product of distinct primes of n, so it divides n < hi < 2^32
    (uint32 cannot overflow) and can equal n only where prod >= first.
    """
    lo, hi = bounds
    first = max(lo, 2) | 1  # prod starts at 1, so n = 1 would pass
    prod = np.ones(len(range(first, hi, 2)), dtype=np.uint32)
    p = base_primes(math.isqrt(hi - 1))[1:]
    period = p * (p - 1)
    start = np.maximum(first, p + 2)  # n = p itself is prime
    start += (p - start) % period
    idx, stride = (start - first) // 2, period // 2
    # A prime whose stride spans the segment hits at most one n; one
    # unbuffered scatter applies them all, repeated indexes included.
    once = stride >= prod.size
    hit = once & (idx < prod.size)
    np.multiply.at(prod, idx[hit], p[hit].astype(np.uint32))
    for i, h, q in zip(idx[~once].tolist(), stride[~once].tolist(), p[~once].tolist()):
        prod[i::h] *= q
    pos = np.flatnonzero(prod >= first)
    n = first + 2 * pos
    return n[prod[pos] == n]


def _carmichael_numbers(limit: int, segment_size: int | None) -> Iterator[int]:
    """Carmichael numbers <= limit in ascending order, one segment at a time."""
    for bounds in _segment_bounds(2, limit + 1, _auto_segment_size(segment_size)):
        yield from _segment_carmichael(bounds).tolist()


def enumerate_carmichael(
    limit,
    *,
    segment_size: int | None = None,
    max_limit: int | None = None,
) -> list[int]:
    """All Carmichael numbers <= limit, ascending.

    Segments are sieved in process: a Korselt segment costs less than
    starting a worker pool does.
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
