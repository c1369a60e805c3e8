#!/usr/bin/env python3
"""Reproduce the counting table C_k(10^j) = #{n <= 10^j : phi(n) | (n-1)^k}.

The counts include 1 and the primes (which all sit in L_1); composites
are the rare part.  Runs to 10^6 in a couple of seconds; pass a higher
power of ten on the command line for the larger columns.
"""

import math
import sys
import time

from klehmer import count_table

LIMIT = int(float(sys.argv[1])) if len(sys.argv) > 1 else 10**6

if __name__ == "__main__":
    t0 = time.time()
    table = count_table(LIMIT, (2, 3, 4, 5, math.inf))
    elapsed = time.time() - t0

    header = ["k \\ X"] + [f"10^{round(math.log10(p))}" for p in table.powers]
    widths = [8] * len(header)
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for k in (2, 3, 4, 5, math.inf):
        label = "inf" if k == math.inf else str(k)
        cells = [f"C_{label}"] + [str(c) for c in table.counts[k]]
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))

    print(f"\ncomputed in {elapsed:.2f}s "
          f"(segmented totient sieve + iterated modular multiplication)")

    # the rows are nested: L_2 within L_3 within ... within L_inf
    for a, b in ((2, 3), (3, 4), (4, 5)):
        assert all(x <= y for x, y in zip(table.counts[a], table.counts[b]))
    print("row monotonicity C_2 <= C_3 <= C_4 <= C_5 <= C_inf: OK")
