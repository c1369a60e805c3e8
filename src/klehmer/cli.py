"""Command-line front end with machine-readable output.

Subcommands: classify, count, list, alpha, alpha-verify, chernick,
semiprime, pseudo-base.  JSON is the default format (csv everywhere,
bfile for list).  Value fields that can exceed 64 bits are emitted as
decimal strings so downstream JSON consumers cannot lose precision;
small structural fields (k, exponents, counts, indexes) stay numeric.
Each handler returns its records (a JSON payload, a CSV header and rows)
and main alone renders them in the chosen format.

Exit codes: 0 success, 1 usage error, 2 bound or memory budget exceeded
(or an arithmetic failure such as an overflow or an unsplit factor),
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass

from .arith import (
    _as_natural,
    carmichael_lambda,
    factorize,
    radical,
)
from .carmichael import chernick, korselt_test, pseudoprime_base, fermat_test
from .lehmer import (
    LehmerIndex,
    lehmer_index,
    semiprime_decompose,
    semiprime_in_Lk,
)
from .sieve import (
    LARGE_MAX_LIMIT,
    LimitExceededError,
    VerificationFailure,
    alpha_search,
    AlphaNotFound,
    count_table,
    enumerate_carmichael,
    enumerate_Lk_composites,
    verify_alpha_entry,
)

__all__ = [
    "ClassificationReport",
    "classification_report",
    "emit_bfile",
    "main",
    "console_main",
]


# chernick --m-max classifies every m up to it and holds every candidate
# until it prints: 10^5 takes 9.2 s and 330 MiB for k = 3 on one core.
_CHERNICK_M_MAX = 10**5


@dataclass(frozen=True)
class ClassificationReport:
    """Everything the library knows about a single n."""

    n: int
    factorization: tuple[tuple[int, int], ...]
    phi: int
    lam: int
    rad_phi: int
    lehmer_index: LehmerIndex
    is_carmichael: bool
    pseudoprime_base: int | None
    base_degenerate: bool

    def to_dict(self) -> dict:
        out = {
            "n": str(self.n),
            "factorization": [[str(p), e] for p, e in self.factorization],
            "phi": str(self.phi),
            "lambda": str(self.lam),
            "rad_phi": str(self.rad_phi),
            "lehmer_index": _index_json(self.lehmer_index),
            "is_carmichael": self.is_carmichael,
        }
        if self.pseudoprime_base is not None:
            out["pseudoprime_base"] = str(self.pseudoprime_base)
        out["base_degenerate"] = self.base_degenerate
        return out


def classification_report(n) -> ClassificationReport:
    f = factorize(n)
    n = f.value
    idx = lehmer_index(f)
    base = None
    degenerate = False
    if f.is_composite and idx.is_finite:
        base = pseudoprime_base(f)
        degenerate = base in (1, n - 1)
    return ClassificationReport(
        n=n,
        factorization=f.factors,
        phi=f.totient.value,
        lam=carmichael_lambda(f),
        rad_phi=radical(f.totient),
        lehmer_index=idx,
        is_carmichael=korselt_test(f),
        pseudoprime_base=base,
        base_degenerate=degenerate,
    )


def emit_bfile(sequence, offset: int = 1) -> str:
    """OEIS b-file text: one "index value" line per term, from ``offset``."""
    values = [int(v) for v in sequence]
    for a, b in zip(values, values[1:]):
        if b <= a:
            raise ValueError("sequence must be strictly ascending")
    return "".join(f"{offset + i} {v}\n" for i, v in enumerate(values))


def _index_json(idx: LehmerIndex | None):
    if idx is None:
        return None
    return idx.k if idx.is_finite else "none"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(value)
    return "" if value is None else str(value)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([[_csv_cell(row.get(h)) for h in header] for row in rows])
    return buf.getvalue()


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}")


def _parse_limit(text: str) -> int:
    """Accept plain integers and scientific notation like 1e6."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        x = float(text)
    except ValueError:
        raise ValueError(f"invalid limit {text!r}")
    if not x.is_integer() or abs(x) > 1e18:
        raise ValueError(f"invalid limit {text!r}")
    return int(x)


def _parse_ks(text: str) -> tuple:
    ks = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "inf":
            ks.append(math.inf)
        else:
            ks.append(_parse_int(part, "k"))
    if not ks:
        raise ValueError("empty k list")
    return tuple(ks)


def _fmt_k(k) -> str | int:
    return "inf" if k == math.inf else int(k)


class _Parser(argparse.ArgumentParser):
    # The interface contract reserves exit status 2 for exceeded bounds,
    # so usage problems must leave with status 1 instead of argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_format(p: argparse.ArgumentParser, choices=("json", "csv")) -> None:
    p.add_argument("--format", choices=choices, default="json")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _bulk_limits(args) -> dict:
    return dict(segment_size=args.segment_size,
                max_limit=LARGE_MAX_LIMIT if args.allow_large else None)


def _add_bulk_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--segment-size", type=int, default=None)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--allow-large", action="store_true",
                   help="raise the limit ceiling from 1e7 to 1e8")


def build_parser() -> argparse.ArgumentParser:
    # Not from __doc__, which python -OO strips.
    parser = _Parser(prog="klehmer",
                     description="Command-line front end with machine-readable output.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full report for a single n")
    p.add_argument("n")
    _add_format(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("count", help="counting table C_k(10^j)")
    p.add_argument("--limit", required=True)
    p.add_argument("--k", default="2,3,4,5,inf")
    _add_format(p)
    _add_bulk_options(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("list", help="enumerate a membership set")
    p.add_argument("--set", required=True, dest="set_name",
                   help="l2-composites | lk-composites:<k> | carmichael")
    p.add_argument("--limit", required=True)
    _add_format(p, choices=("json", "csv", "bfile"))
    _add_bulk_options(p)
    p.set_defaults(handler=_cmd_list)

    p = sub.add_parser("alpha", help="search the least Carmichael number outside L_k")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--limit", required=True)
    _add_format(p)
    _add_bulk_options(p)
    p.set_defaults(handler=_cmd_alpha)

    p = sub.add_parser("alpha-verify", help="verify a claimed alpha(k) value")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--n", required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_alpha_verify)

    p = sub.add_parser("chernick", help="build Chernick candidates U_k(m)")
    p.add_argument("--k", required=True, type=int)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m")
    group.add_argument("--m-max")
    _add_format(p)
    p.set_defaults(handler=_cmd_chernick)

    p = sub.add_parser("semiprime", help="decompose p*q and test L_k membership")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--k", type=int, default=None)
    _add_format(p)
    p.set_defaults(handler=_cmd_semiprime)

    p = sub.add_parser("pseudo-base", help="Fermat-pseudoprime base for n in L_inf")
    p.add_argument("n")
    _add_format(p)
    p.set_defaults(handler=_cmd_pseudo_base)

    return parser


# Every handler returns (payload, csv_header, rows): the JSON object, and
# rows of JSON scalars (a list cell is joined by spaces) for CSV and b-file.
def _cmd_classify(args):
    payload = classification_report(int(args.n)).to_dict()
    row = {**payload, "factorization": [f"{p}^{e}" for p, e in payload["factorization"]]}
    header = ["n", "factorization", "phi", "lambda", "rad_phi", "lehmer_index",
              "is_carmichael", "pseudoprime_base", "base_degenerate"]
    return payload, header, [row]


def _cmd_count(args):
    table = count_table(_parse_limit(args.limit), _parse_ks(args.k),
                        workers=args.workers, **_bulk_limits(args))
    rows = [
        {"k": _fmt_k(k), "X": power, "count": table.count(k, power)}
        for k in table.ks
        for power in table.powers
    ]
    return {"limit": table.limit, "rows": rows}, ["k", "X", "count"], rows


def _parse_set(name: str):
    if name == "l2-composites":
        return ("lk", 2)
    if name.startswith("lk-composites:"):
        return ("lk", _parse_int(name.split(":", 1)[1], "k"))
    if name == "carmichael":
        return ("carmichael", None)
    raise ValueError(f"unknown set {name!r}")


def _cmd_list(args):
    limit = _parse_limit(args.limit)
    kind, k = _parse_set(args.set_name)
    if kind == "lk":
        values = enumerate_Lk_composites(limit, k, workers=args.workers,
                                         **_bulk_limits(args))
    else:
        # The Korselt sieve runs in process, so --workers has no effect here.
        values = enumerate_carmichael(limit, **_bulk_limits(args))
    strings = [str(v) for v in values]
    payload = {"set": args.set_name, "limit": limit, "count": len(values),
               "values": strings}
    return payload, ["n"], [{"n": v} for v in strings]


_ALPHA_HEADER = ["k", "found", "n", "omega", "in_next", "bound"]


def _alpha_payload(record) -> dict:
    if isinstance(record, AlphaNotFound):
        return {"k": record.k, "found": False, "bound": str(record.bound)}
    return {
        "k": record.k,
        "found": True,
        "n": str(record.n),
        "omega": record.omega,
        "in_next": record.in_next,
        "bound": str(record.bound),
    }


def _cmd_alpha(args):
    record = alpha_search(args.k, _parse_limit(args.limit), **_bulk_limits(args))
    payload = _alpha_payload(record)
    return payload, _ALPHA_HEADER, [payload]


def _cmd_alpha_verify(args):
    payload = _alpha_payload(verify_alpha_entry(args.k, int(args.n)))
    return payload, _ALPHA_HEADER, [payload]


def _candidate_payload(cand) -> dict:
    return {
        "k": cand.k,
        "m": str(cand.m),
        "factors": [str(f) for f in cand.factors],
        "value": str(cand.value),
        "all_prime": cand.all_prime,
        "divisibility_ok": cand.divisibility_ok,
        "is_carmichael": cand.is_carmichael,
        "guaranteed_index_k": cand.guaranteed_index_k,
        "observed_index": _index_json(cand.observed_index),
    }


def _cmd_chernick(args):
    if args.m is not None:
        candidates = [chernick(args.k, _parse_limit(args.m))]
    else:
        m_max = _parse_limit(args.m_max)
        _as_natural(m_max, minimum=1, name="m-max")
        if m_max > _CHERNICK_M_MAX:
            raise LimitExceededError(
                f"m-max {m_max} exceeds the maximum {_CHERNICK_M_MAX}"
            )
        # U_k(m) grows with m: classifying the largest m first raises an
        # overflow before the scan spends its time on the ones that fit.
        candidates = [chernick(args.k, m) for m in range(m_max, 0, -1)][::-1]
    rows = [_candidate_payload(c) for c in candidates]
    payload = rows[0] if args.m is not None else {"k": args.k, "candidates": rows}
    header = ["k", "m", "value", "factors", "all_prime", "divisibility_ok",
              "is_carmichael", "guaranteed_index_k", "observed_index"]
    return payload, header, rows


def _cmd_semiprime(args):
    dec = semiprime_decompose(int(args.p), int(args.q))
    payload = {
        "p": str(dec.p),
        "q": str(dec.q),
        "a": dec.a,
        "b": dec.b,
        "d": str(dec.d),
        "alpha": str(dec.alpha),
        "beta": str(dec.beta),
    }
    if args.k is not None:
        payload["k"] = args.k
        payload["criterion"] = semiprime_in_Lk(dec, args.k)
        # phi(pq) | (pq - 1)^k by definition: p and q were proved prime once,
        # in semiprime_decompose, and pq must stay in the 127-bit domain.
        n = _as_natural(dec.p * dec.q, name="value")
        payload["direct"] = pow(n - 1, args.k, (dec.p - 1) * (dec.q - 1)) == 0
    return payload, list(payload), [payload]


def _cmd_pseudo_base(args):
    n = int(args.n)
    base = pseudoprime_base(n)
    payload = {
        "n": str(n),
        "base": str(base),
        "degenerate": base in (1, n - 1),
        "fermat_to_base": fermat_test(n, base),
    }
    return payload, list(payload), [payload]


# One argparse tree per process: building one takes over a millisecond.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, header, rows = args.handler(args)
        if args.format == "json":
            text = _json_text(payload)
        elif args.format == "csv":
            text = _csv_text(header, rows)
        else:
            text = emit_bfile(row[header[0]] for row in rows)
    except (LimitExceededError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
