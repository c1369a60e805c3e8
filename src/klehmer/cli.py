"""Command-line front end with machine-readable output.

Subcommands: classify, count, list, alpha, alpha-verify, chernick,
semiprime, pseudo-base.  JSON is the default format (csv everywhere,
bfile for list).  Value fields that can exceed 64 bits are emitted as
decimal strings so downstream JSON consumers cannot lose precision;
small structural fields (k, exponents, counts, indexes) stay numeric.
Each handler returns its records (a JSON payload, a CSV header and rows)
and main alone renders them in the chosen format.

Exit codes: 0 success, 1 usage error, 2 bound exceeded or arithmetic
failure (such as an overflow or an unsplit factor), 3 verification
failure.  Exit 1 has two shapes on stderr: a malformed argument gets the
subcommand's usage and "klehmer <cmd>: error: argument <name>: ...",
and a well-formed value outside the domain (such as a p that is not
prime) gets one "error: ..." line.  The library picks the segments:
4*10^6 values for the Korselt scan (list --set carmichael, alpha), in
process, and 5*10^5 for the classify scan (count, the other list sets),
where each --workers process scans its own run of segments.  It takes
any limit below 3*10^9; the CLI caps a bulk --limit at 10^7, or 10^8
with --allow-large.  Only the bulk commands count, list and alpha import
the sieve, and with it numpy; the per-number commands never load it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from .arith import (
    LimitExceededError,
    _Record,
    _as_natural,
    carmichael_lambda,
    factorize,
    radical,
)
from .carmichael import (AlphaNotFound, VerificationFailure, chernick, fermat_test,
                         korselt_test, pseudoprime_base, verify_alpha_entry)
from .lehmer import (
    LehmerIndex,
    lehmer_index,
    semiprime_decompose,
    semiprime_in_Lk,
)

__all__ = [
    "ClassificationReport",
    "classification_report",
    "emit_bfile",
    "main",
    "console_main",
]


# chernick --m-max classifies every m up to it and holds every candidate
# until it prints, so the bound caps the command's time and memory
# (ROADMAP, "Measured and set aside": "A chernick --m-max above 10^5";
# TestChernick::test_m_max_ceiling_is_inclusive pins it).
_CHERNICK_M_MAX = 10**5


class ClassificationReport(_Record):
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


# The argparse types below parse every argument's text, so a handler's
# ValueError is always a domain error.  Each raises ArgumentTypeError:
# argparse names a type's plain ValueError by the function's name.
def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _limit(text: str) -> int:
    """An integer, or a whole float such as 1e6 of size at most 1e18."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        x = float(text)
        if x.is_integer() and abs(x) <= 1e18:
            return int(x)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be an integer or a whole float up to 1e18, got {text!r}")


def _k_list(text: str) -> tuple:
    """Comma-separated ks, each an integer or inf; empty entries are skipped."""
    parts = [part.strip() for part in text.split(",")]
    ks = tuple(math.inf if part == "inf" else _integer(part) for part in parts if part)
    if not ks:
        raise argparse.ArgumentTypeError("empty k list")
    return ks


def _set(text: str) -> tuple[str, int | None]:
    """The set's name as given, and its k (None for carmichael)."""
    if text == "l2-composites":
        return text, 2
    if text.startswith("lk-composites:"):
        k = text.split(":", 1)[1]
        try:
            return text, int(k)
        except ValueError:
            raise argparse.ArgumentTypeError(f"k must be an integer, got {k!r}")
    if text == "carmichael":
        return text, None
    raise argparse.ArgumentTypeError(f"unknown set {text!r}")


def _bulk_limit(args, limit: int) -> int:
    """A bulk command's ``limit``, checked against the domain and then the
    desk-scale ceiling: 10^7, or 10^8 (ten times as long, in the same
    segments) with --allow-large."""
    limit = _as_natural(limit, minimum=1, name="limit")
    ceiling = 10**8 if args.allow_large else 10**7
    if limit > ceiling:
        raise LimitExceededError(f"limit {limit} exceeds the configured maximum {ceiling}")
    return limit


def _add_bulk_options(p: argparse.ArgumentParser) -> None:
    # alpha and list --set carmichael ignore --workers but keep accepting
    # it: the benchmark's carmichael-alpha command lines pass it to both.
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--allow-large", action="store_true",
                   help="raise the limit ceiling from 1e7 to 1e8")


def build_parser() -> argparse.ArgumentParser:
    # Not from __doc__, which python -OO strips.
    parser = _Parser(prog="klehmer",
                     description="Command-line front end with machine-readable output.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        # main reports a subcommand's unknown arguments through ``parser``.
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, parser=p)
        return p

    p = command("classify", _cmd_classify, "full report for a single n")
    p.add_argument("n", type=_integer)
    _add_format(p)

    p = command("count", _cmd_count, "counting table C_k(10^j)")
    p.add_argument("--limit", required=True, type=_limit)
    p.add_argument("--k", default="2,3,4,5,inf", type=_k_list)
    _add_format(p)
    _add_bulk_options(p)

    p = command("list", _cmd_list, "enumerate a membership set")
    p.add_argument("--set", required=True, dest="set_name", type=_set,
                   help="l2-composites | lk-composites:<k> | carmichael")
    p.add_argument("--limit", required=True, type=_limit)
    _add_format(p, choices=("json", "csv", "bfile"))
    _add_bulk_options(p)

    p = command("alpha", _cmd_alpha, "search the least Carmichael number outside L_k")
    p.add_argument("--k", required=True, type=_integer)
    p.add_argument("--limit", required=True, type=_limit)
    _add_format(p)
    _add_bulk_options(p)

    p = command("alpha-verify", _cmd_alpha_verify, "verify a claimed alpha(k) value")
    p.add_argument("--k", required=True, type=_integer)
    p.add_argument("--n", required=True, type=_integer)
    _add_format(p)

    p = command("chernick", _cmd_chernick, "build Chernick candidates U_k(m)")
    p.add_argument("--k", required=True, type=_integer)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=_limit)
    group.add_argument("--m-max", type=_limit)
    _add_format(p)

    p = command("semiprime", _cmd_semiprime, "decompose p*q and test L_k membership")
    p.add_argument("p", type=_integer)
    p.add_argument("q", type=_integer)
    p.add_argument("--k", type=_integer, default=None)
    _add_format(p)

    p = command("pseudo-base", _cmd_pseudo_base, "Fermat-pseudoprime base for n in L_inf")
    p.add_argument("n", type=_integer)
    _add_format(p)

    return parser


# Every handler returns (payload, csv_header, rows): the JSON object, and
# rows of JSON scalars (a list cell is joined by spaces) for CSV and b-file.
def _cmd_classify(args):
    payload = classification_report(args.n).to_dict()
    row = {**payload, "factorization": [f"{p}^{e}" for p, e in payload["factorization"]]}
    header = ["n", "factorization", "phi", "lambda", "rad_phi", "lehmer_index",
              "is_carmichael", "pseudoprime_base", "base_degenerate"]
    return payload, header, [row]


def _cmd_count(args):
    from .sieve import count_table
    table = count_table(_bulk_limit(args, args.limit), args.k, workers=args.workers)
    rows = [
        {"k": _fmt_k(k), "X": power, "count": table.count(k, power)}
        for k in table.ks
        for power in table.powers
    ]
    return {"limit": table.limit, "rows": rows}, ["k", "X", "count"], rows


def _cmd_list(args):
    from .sieve import enumerate_carmichael, enumerate_Lk_composites
    name, k = args.set_name
    limit = _bulk_limit(args, args.limit)
    if k is not None:
        values = enumerate_Lk_composites(limit, k, workers=args.workers)
    else:
        # The Korselt sieve runs in process, so --workers has no effect here.
        values = enumerate_carmichael(limit)
    strings = [str(v) for v in values]
    payload = {"set": name, "limit": limit, "count": len(values),
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
    from .sieve import alpha_search
    record = alpha_search(args.k, _bulk_limit(args, args.limit))
    payload = _alpha_payload(record)
    return payload, _ALPHA_HEADER, [payload]


def _cmd_alpha_verify(args):
    payload = _alpha_payload(verify_alpha_entry(args.k, args.n))
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
        candidates = [chernick(args.k, args.m)]
    else:
        m_max = _as_natural(args.m_max, minimum=1, name="m-max")
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
    dec = semiprime_decompose(args.p, args.q)
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
    n = args.n
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            # Tokens before the subcommand are the root's unknown options;
            # otherwise the subcommand reports its own, with its usage.
            owner = parser if argv.index(args.command) > 0 else args.parser
            owner.error(f"unrecognized arguments: {' '.join(extras)}")
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
