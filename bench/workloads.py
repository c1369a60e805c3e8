"""The benchmark's workloads and its classify pass: the CLI requests they
send and the gates that check them.

An operation is the unit that is repeated and timed: one `count` command,
the `list` + `alpha` pair, or a single `classify` / `alpha-verify` request
of the classify pass.  Each request carries the gate that checks its stdout.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import oracle

COUNT_LIMIT = 10**7
CARMICHAEL_LIMIT = 10**7
ALPHA_K = 4
ALPHA_LIMIT = 5 * 10**7


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]


@dataclass(frozen=True)
class Operation:
    requests: tuple[Request, ...]
    values: int  # integers the operation examines


@dataclass(frozen=True)
class Workload:
    """A bulk workload: one identical operation, repeated."""

    name: str
    sieve_limit: int  # largest limit the workload sieves to
    operation: Callable[[int], Operation]  # worker count -> operation


def _count_op(workers: int) -> Operation:
    argv = ("count", "--limit", "1e7", "--k", "2,3,4,5,inf", "--format", "csv",
            "--workers", str(workers))
    return Operation((Request(argv, oracle.check_count_csv),), COUNT_LIMIT)


def _carmichael_alpha_op(workers: int) -> Operation:
    listing = Request(
        ("list", "--set", "carmichael", "--limit", "1e7", "--format", "csv",
         "--workers", str(workers)),
        lambda out: oracle.check_carmichael_csv(out, CARMICHAEL_LIMIT),
    )
    alpha = Request(
        ("alpha", "--k", str(ALPHA_K), "--limit", "5e7", "--allow-large",
         "--workers", str(workers)),
        lambda out: oracle.check_alpha_json(out, ALPHA_K, ALPHA_LIMIT),
    )
    # The alpha search stops at the segment holding alpha(4) = 41471521.
    alpha_n = oracle.ALPHA_ROWS[ALPHA_K - 1][1]
    return Operation((listing, alpha), CARMICHAEL_LIMIT + alpha_n)


def _random_prime(rng: random.Random, bits: int, avoid=()) -> int:
    while True:
        p = rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1
        if p not in avoid and oracle.is_prime_u32(p):
            return p


def _product(rng: random.Random, sizes) -> tuple[int, tuple[tuple[int, int], ...]]:
    primes: list[int] = []
    for bits in sizes:
        primes.append(_random_prime(rng, bits, primes))
    primes.sort()
    n = 1
    for p in primes:
        n *= p
    return n, tuple((p, 1) for p in primes)


def _small(rng):
    n = rng.randrange(2, 10**6)
    return n, oracle.trial_factor(n)


def _odd64(rng):
    while True:
        n, factors = _product(rng, (21, 21, 22))
        if n.bit_length() == 64:
            return n, factors


def classify_inputs(seed: int) -> Iterator[tuple]:
    """Deterministic stream of classify inputs (n, factors) and alpha rows.

    Each cycle of 22 requests holds 5 small n below 10^6, 5 balanced
    semiprimes, 5 products of 3-5 primes of 14-25 bits (many above 2^64,
    hence the BPSW branch), 5 odd 64-bit n of three 21-22-bit primes, one
    alpha-verify row (rows rotate k = 1..9) and a classify of that row's
    Carmichael number, whose finite index takes the report through
    pseudoprime_base (random inputs almost never do).  Semiprime factor sizes
    step through 16..26 bits and product lengths through 3..5 rather than
    being drawn, so that every seed does comparable work; the seed picks
    the primes.
    """
    rng = random.Random(seed)
    slot = itertools.count()
    for row in itertools.cycle(oracle.ALPHA_ROWS):
        for i in itertools.islice(slot, 5):
            yield _small(rng)
            yield _product(rng, (16 + i % 11,) * 2)
            yield _product(rng, [rng.randint(14, 25) for _ in range(3 + i % 3)])
            yield _odd64(rng)
        yield row
        yield row[1], oracle.trial_factor(row[1])


def _classify_request(item) -> Request:
    if len(item) == 3:
        k, n, _ = item
        return Request(("alpha-verify", "--k", str(k), "--n", str(n)),
                       lambda out: oracle.check_alpha_verify_json(out, item))
    n, factors = item
    return Request(("classify", str(n)),
                   lambda out: oracle.check_classify_json(out, n, factors))


def classify_ops(seed: int) -> Iterator[Operation]:
    """The classify pass: one request per operation, in a closed loop."""
    for item in classify_inputs(seed):
        yield Operation((_classify_request(item),), 1)


POOL_WORKERS = min(2, os.cpu_count() or 1)

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("count-1e7", COUNT_LIMIT, _count_op),
        Workload("carmichael-alpha", ALPHA_LIMIT, _carmichael_alpha_op),
    )
}
