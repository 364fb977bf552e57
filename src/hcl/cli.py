"""Command line entry point.

Subcommands wrap the library operations; the Hurwitz table cache is a CSV
file (header `D,twelveH`) whose default location can be overridden with the
HCL_TABLE environment variable or the --table flag.  A missing or too-short
cache is rebuilt automatically with a warning on stderr.  The cache is
written atomically (a temporary file beside it, then a rename) and checked on
every load; a damaged cache is never overwritten: the command exits 2 with a
message naming the defect and asking to delete the file or rebuild it with
`hcl table`.

Exit codes: 0 success, 1 congruence fails / verdict inconclusive,
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import holproj
from .arith import PRIME_SEARCH_CAP, check_ell
from .congruence import (
    certificate_to_json,
    check_progression,
    check_search_range,
    check_u_max,
    ord_bound_report,
    search,
    square_class_check,
    verify_congruence,
)
from .dichotomy import DichotomyCase, check_max_rows, classify, report_to_json
from .hurwitz import HurwitzTable, build_table, read_table_csv, write_table_csv

DEFAULT_TABLE = "hurwitz_table.csv"
DEFAULT_N_MAX = 10**6


def _common(args) -> tuple[str, int]:
    """The table cache path and n_max of a subcommand with the common options."""
    if args.n_max < 1:
        raise ValueError("n_max must be >= 1")
    return args.table or os.environ.get("HCL_TABLE") or DEFAULT_TABLE, args.n_max


def _load_table(path: str, n_max: int) -> HurwitzTable:
    """Read and check the table cache, rebuilding (and persisting) it when
    missing or short.  A cache that fails its checks is left in place and
    raises ValueError."""
    if os.path.exists(path):
        try:
            table = read_table_csv(path)
        except ValueError as exc:
            raise ValueError(f"{exc}; delete the file or rebuild it with `hcl table`") from None
        if table.n_max >= n_max:
            return table
        print(f"warning: cache {path} covers {table.n_max} < {n_max}; rebuilding", file=sys.stderr)
    else:
        print(f"warning: no table cache at {path}; building to {n_max}", file=sys.stderr)
    table = build_table(n_max)
    try:
        write_table_csv(table, path)
    except OSError as exc:
        print(f"warning: could not persist table cache: {exc}", file=sys.stderr)
    return table


def cmd_table(args) -> int:
    table = build_table(args.n_max)
    write_table_csv(table, args.out)
    print(f"wrote {args.out}: D = 0..{table.n_max}")
    return 0


def cmd_verify(args) -> int:
    path, n_max = _common(args)
    check_ell(args.ell)
    check_progression(args.a, args.b)
    table = _load_table(path, n_max)
    ok, counterexample = verify_congruence(args.ell, args.a, args.b, n_max, table)
    payload = {
        "ell": args.ell,
        "a": args.a,
        "b": args.b,
        "n_max": n_max,
        "ok": ok,
        "counterexample": counterexample,
    }
    if args.format == "json":
        print(json.dumps(payload))
    elif args.format == "csv":
        print("ell,a,b,n_max,ok,counterexample")
        print(f"{args.ell},{args.a},{args.b},{n_max},{int(ok)},"
              f"{'' if counterexample is None else counterexample}")
    else:
        if ok:
            print(f"H({args.a}n+{args.b}) == 0 (mod {args.ell}) verified for values <= {n_max}")
        else:
            print(f"congruence fails: 12*H({counterexample}) != 0 (mod {args.ell})")
    return 0 if ok else 1


def cmd_search(args) -> int:
    path, n_max = _common(args)
    check_ell(args.ell)
    check_search_range(args.a_max, n_max)
    table = _load_table(path, n_max)
    certs = search(args.ell, args.a_max, n_max, table)
    if args.format == "json":
        print("[" + ", ".join(certificate_to_json(c) for c in certs) + "]")
    elif args.format == "csv":
        print("ell,a,b,n_max,class,maximal")
        for c in certs:
            print(f"{c.ell},{c.progression.a},{c.progression.b},{c.n_max_checked},"
                  f"{c.holomorphic_class.value},{int(c.maximal_up_to_check)}")
    else:
        for c in certs:
            print(f"H({c.progression.a}n+{c.progression.b}) == 0 (mod {c.ell})"
                  f"  [{c.holomorphic_class.value}, checked to {c.n_max_checked}]")
        print(f"{len(certs)} maximal progression(s) found")
    return 0


def cmd_square_class(args) -> int:
    path, n_max = _common(args)
    check_ell(args.ell)
    check_progression(args.a, args.b)
    check_u_max(args.u_max)
    table = _load_table(path, n_max)
    ok, failures = square_class_check(args.ell, args.a, args.b, args.u_max, n_max, table)
    if failures and failures[0][0] == 1:  # u = 1, the base progression, is always the first u
        print(f"base congruence fails at {failures[0][1]}", file=sys.stderr)
        return 1
    bounds = ord_bound_report(args.a, args.b)
    payload = {
        "ell": args.ell,
        "a": args.a,
        "b": args.b,
        "u_max": args.u_max,
        "n_max": n_max,
        "ok": ok,
        "failures": failures,
        "ord_report": {str(p): e for p, e in sorted(bounds.orders.items())},
        "ord_within_bounds": bounds.within_bounds,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        state = "holds" if ok else f"fails for u in {[u for u, _ in failures]}"
        print(f"square classes of {args.b} mod {args.a}: congruence {state}")
        print(f"ord_p(a/gcd(a,b)): {payload['ord_report']} (within bounds: {bounds.within_bounds})")
    return 0 if ok else 1


def cmd_dichotomy(args) -> int:
    path, n_max = _common(args)
    check_ell(args.ell)
    check_progression(args.a, args.b)
    check_max_rows(args.max_rows)
    table = _load_table(path, n_max)
    report = classify(args.ell, args.a, args.b, n_max, table)
    print(report_to_json(report, max_rows=args.max_rows))
    return 0 if report.case != DichotomyCase.INCONCLUSIVE else 1


def cmd_holproj(args) -> int:
    path, n_max = _common(args)
    payload: dict = {"a": args.a, "b": args.b, "beta": args.beta, "n": args.n}
    value = holproj.nonhol_coefficient(args.a, args.b, args.beta, args.n)
    payload["nonholomorphic_coefficient"] = str(value)
    try:
        dec = holproj.q_subset_decomposition(args.a, args.b, args.beta, args.n)
        payload["q_subsets"] = {
            "{" + ",".join(str(p) for p in sorted(q)) + "}": v
            for q, v in sorted(dec.contributions.items(), key=lambda kv: sorted(kv[0]))
        }
    except ValueError as exc:
        payload["q_subsets_error"] = str(exc)
    if args.projection:
        table = _load_table(path, max(n_max, args.a * args.n))
        proj = holproj.exact_projection_coefficient(args.a, args.b, args.beta, args.n, table)
        payload["exact_projection"] = f"{proj.numerator}/{proj.denominator}"
    print(json.dumps(payload))
    return 0


def cmd_subprogression(args) -> int:
    witness = holproj.subprogression_construct(args.a_tilde, args.b_tilde, args.beta)
    conditions = holproj.subprogression_conditions(witness)
    primes = holproj.find_distinguished_primes(witness, cap=args.cap)
    payload = {
        "a_tilde": witness.a_tilde,
        "b_tilde": witness.b_tilde,
        "beta": witness.beta,
        "a": witness.a,
        "b": witness.b,
        "p_big": witness.p_big,
        "conditions": conditions,
        "a_prime": primes.a_prime,
        "degenerate": primes.degenerate,
        "p": primes.p,
        "p_prime": primes.p_prime,
    }
    print(json.dumps(payload))
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--table", help="table cache path (default: $HCL_TABLE or ./hurwitz_table.csv)")
    p.add_argument("--n-max", type=int, default=DEFAULT_N_MAX, help="largest value checked")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcl",
        description="Hurwitz class number congruence toolkit (exact arithmetic)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="build and persist the Hurwitz table cache")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="verify H(an+b) == 0 (mod ell) up to n-max")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    _add_common(p)
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="search maximal congruence progressions with a <= a-max")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--a-max", type=int, required=True)
    _add_common(p)
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("square-class", help="check the congruence on the square class of b")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--u-max", type=int, default=50)
    _add_common(p)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_square_class)

    p = sub.add_parser("dichotomy", help="classify a verified congruence")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--max-rows", type=int, default=20)
    _add_common(p)
    p.set_defaults(func=cmd_dichotomy)

    p = sub.add_parser("holproj", help="projected-product coefficient combinatorics")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--projection", action="store_true",
                   help="also evaluate the full projected-product coefficient")
    _add_common(p)
    p.set_defaults(func=cmd_holproj)

    p = sub.add_parser("subprogression", help="construct a refined progression witness")
    p.add_argument("--a-tilde", type=int, required=True)
    p.add_argument("--b-tilde", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--cap", type=int, default=PRIME_SEARCH_CAP)
    p.set_defaults(func=cmd_subprogression)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
