"""Reference values and correctness gates for the benchmark.

Everything here is independent of the klehmer package: primality is a
deterministic Miller-Rabin below 3.2e9, factorizations are plain trial
division or the factors an input was built from, and Lehmer indexes are
recomputed by iterated modular multiplication (klehmer's per-number path
uses p-adic valuations instead).  Each gate returns a list of error
strings; an empty list means the output is exact.
"""

from __future__ import annotations

import csv
import io
import json
import math

# C_k(10^j) for j = 1..7, copied from the acceptance suite's reference table.
COUNT_REFERENCE = {
    "2": (5, 26, 170, 1236, 9613, 78535, 664667),
    "3": (5, 29, 179, 1266, 9714, 78841, 665538),
    "4": (5, 29, 182, 1281, 9784, 79077, 666390),
    "5": (5, 30, 184, 1303, 9861, 79346, 667282),
    "inf": (5, 30, 188, 1333, 10015, 80058, 670225),
}

# (k, alpha(k), omega(alpha(k))), OEIS A207080, copied from the acceptance suite.
ALPHA_ROWS = (
    (1, 561, 3),
    (2, 2821, 3),
    (3, 838201, 4),
    (4, 41471521, 5),
    (5, 45496270561, 6),
    (6, 776388344641, 7),
    (7, 344361421401361, 8),
    (8, 375097930710820681, 9),
    (9, 330019822807208371201, 10),
)

# Number of Carmichael numbers <= 10^j (OEIS A055553).
CARMICHAEL_COUNTS = {10**3: 1, 10**4: 7, 10**5: 16, 10**6: 43, 10**7: 105}

K_CAP = 127


def is_prime_u32(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3,215,031,751 (bases 2, 3, 5, 7)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    if n >= 3_215_031_751:
        raise ValueError("is_prime_u32 is only proven below 3215031751")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trial_factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division (meant for n below ~2^40)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def phi_of(factors) -> int:
    out = 1
    for p, e in factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def lambda_of(factors) -> int:
    parts = [1]
    for p, e in factors:
        if p == 2:
            parts.append(1 if e == 1 else 2 if e == 2 else 1 << (e - 2))
        else:
            parts.append(p ** (e - 1) * (p - 1))
    return math.lcm(*parts)


def rad_phi_of(factors) -> int:
    """rad(phi(n)) from the factors of n, trial-factoring each p - 1."""
    primes = set()
    for p, e in factors:
        if e > 1:
            primes.add(p)
        primes.update(q for q, _ in trial_factor(p - 1))
    return math.prod(primes)


def lehmer_index_modular(n: int, phi: int) -> int | None:
    """Least k <= 127 with phi | (n-1)^k, by repeated multiplication."""
    base = (n - 1) % phi
    acc = base
    for k in range(1, K_CAP + 1):
        if acc == 0:
            return k
        acc = acc * base % phi
    return None


def is_korselt(n: int, factors) -> bool:
    """Korselt's criterion on a known factorization."""
    if n < 2 or len(factors) < 2 or any(e != 1 for _, e in factors):
        return False
    return all((n - 1) % (p - 1) == 0 for p, _ in factors)


def check_count_csv(text: str) -> list[str]:
    """`count --limit 1e7 --k 2,3,4,5,inf --format csv` against the table."""
    rows = {}
    try:
        for rec in csv.DictReader(io.StringIO(text)):
            rows[(rec["k"], int(rec["X"]))] = int(rec["count"])
    except (KeyError, ValueError) as exc:
        return [f"unparsable count table: {exc!r}"]
    errors = []
    for k, reference in COUNT_REFERENCE.items():
        for j, expected in enumerate(reference, start=1):
            got = rows.pop((k, 10**j), None)
            if got != expected:
                errors.append(f"C_{k}(10^{j}) = {got}, expected {expected}")
    if rows:
        errors.append(f"unexpected rows {sorted(rows)}")
    return errors


def check_carmichael_csv(text: str, limit: int) -> list[str]:
    """`list --set carmichael --format csv`: every Carmichael number <= limit.

    Each value is Korselt-checked from its trial-division factorization;
    with a strictly ascending list that matches the known count at every
    power of ten, the list is complete as well as sound.
    """
    lines = text.splitlines()
    if not lines or lines[0] != "n":
        return ["missing csv header"]
    try:
        values = [int(v) for v in lines[1:]]
    except ValueError as exc:
        return [f"unparsable value: {exc}"]
    errors = []
    if any(b <= a for a, b in zip(values, values[1:])):
        errors.append("values are not strictly ascending")
    if values and not 1 < values[0] <= values[-1] <= limit:
        errors.append(f"values outside [2, {limit}]")
    errors += [f"{n} is not a Carmichael number" for n in values
               if not is_korselt(n, trial_factor(n))]
    for bound, expected in CARMICHAEL_COUNTS.items():
        if bound <= limit:
            got = sum(1 for v in values if v <= bound)
            if got != expected:
                errors.append(f"{got} Carmichael numbers <= {bound}, expected {expected}")
    return errors


def _alpha_row_errors(payload: dict, k: int, n: int, omega: int, bound: int) -> list[str]:
    want = {"k": k, "found": True, "n": str(n), "omega": omega,
            "in_next": True, "bound": str(bound)}
    return [f"alpha {key} = {payload.get(key)!r}, expected {value!r}"
            for key, value in want.items() if payload.get(key) != value]


def check_alpha_json(text: str, k: int, bound: int) -> list[str]:
    """`alpha --k <k> --limit <bound>` finds the tabulated alpha(k)."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"unparsable alpha output: {exc}"]
    _, n, omega = ALPHA_ROWS[k - 1]
    errors = _alpha_row_errors(payload, k, n, omega, bound)
    if not is_korselt(n, trial_factor(n)):
        errors.append(f"reference alpha({k}) = {n} fails Korselt")
    return errors


def check_alpha_verify_json(text: str, row) -> list[str]:
    """`alpha-verify --k <k> --n <alpha(k)>` confirms the table row."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"unparsable alpha-verify output: {exc}"]
    k, n, omega = row
    return _alpha_row_errors(payload, k, n, omega, 0)


def check_classify_json(text: str, n: int, factors) -> list[str]:
    """`classify <n>` against the factors n was built from."""
    try:
        got = json.loads(text)
    except ValueError as exc:
        return [f"unparsable classify output: {exc}"]
    phi = phi_of(factors)
    rad = rad_phi_of(factors)
    index = lehmer_index_modular(n, phi)
    composite = n > 1 and factors != ((n, 1),)
    want = {
        "n": str(n),
        "factorization": [[str(p), e] for p, e in factors],
        "phi": str(phi),
        "lambda": str(lambda_of(factors)),
        "rad_phi": str(rad),
        "lehmer_index": "none" if index is None else index,
        "is_carmichael": is_korselt(n, factors),
    }
    if composite and index is not None:
        base = pow(2, phi // rad, n)
        want["pseudoprime_base"] = str(base)
        want["base_degenerate"] = base in (1, n - 1)
    else:
        want["base_degenerate"] = False
    if got != want:
        diff = sorted(key for key in set(got) | set(want) if got.get(key) != want.get(key))
        return [f"classify {n}: fields {diff} differ from the known factors"]
    return []
