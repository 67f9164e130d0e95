"""Command-line interface.

Subcommands expose the library's decision procedures with stable, scriptable
I/O: stdout carries exactly one JSON document or one CSV table per run,
diagnostics go to stderr, and the exit code is 0 for a positive answer, 1 for
a negative answer, 2 for contract, capacity, or parse errors and for
internal errors.  The commands that run the rank oracle (certify,
verify-conjecture, crosscheck) take --seed and are bit-reproducible given it.

`main` may be called repeatedly in one process: the parser is built once, on
the first call, and each call looks its handler up by name (cmd_<command>).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import traceback
from pathlib import Path

from .census import certify, known_facts_crosscheck, verify_conjecture
from .errors import DetmatroidError, GenericityError, ParseError
from .fields import DEFAULT_PRIME, PrimeField, Rationals
from .grassmann import complete_matrix
from .oracle import DEFAULT_TRIALS
from .partition import parse_certificate, partition_search, validate_certificate
from .patterns import Slmf, parse_pattern
from .slmf import RelaxedParams, is_relaxed_slmf, is_slmf


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _load_pattern(args):
    return parse_pattern(_read(args.pattern))


def cmd_check_slmf(args) -> int:
    pattern = _load_pattern(args)
    ok, bad_cols = is_slmf(Slmf.from_pattern(pattern, args.r))
    _emit_json({
        "slmf": ok,
        "witness_columns": list(bad_cols) if bad_cols is not None else None,
    })
    return 0 if ok else 1


def cmd_check_relaxed(args) -> int:
    pattern = _load_pattern(args)
    nu = args.nu if args.nu is not None else args.r
    ok, witness = is_relaxed_slmf(pattern, RelaxedParams(nu, args.r))
    _emit_json({
        "relaxed": ok,
        "nu": nu,
        "r": args.r,
        "witness": witness.as_dict() if witness is not None else None,
    })
    return 0 if ok else 1


def cmd_partition(args) -> int:
    pattern = _load_pattern(args)
    if args.certificate is not None:
        cert = parse_certificate(_read(args.certificate))
        validate_certificate(pattern, cert, args.r)
        _emit_json({"valid": True, "certificate": cert.as_dict()})
        return 0
    cert = partition_search(pattern, args.r)
    size, dim = pattern.size(), args.r * (pattern.m + pattern.n - args.r)
    if size != dim:
        print("note: pattern size %d differs from r(m+n-r) = %d; a partition "
              "cannot certify a base" % (size, dim), file=sys.stderr)
    if cert is None:
        _emit_json({"found": False})
        return 1
    _emit_json({"found": True, "certificate": cert.as_dict()})
    return 0


def cmd_certify(args) -> int:
    payload = certify(_load_pattern(args), args.r, args.prime, args.trials,
                      args.seed)
    _emit_json(payload)
    if "bug" in payload:
        # only the necessity check fires on an oracle base
        kind = ("necessity" if payload["stages"]["oracle"]["verdict"] == "base"
                else "sufficiency")
        print("%s contradiction at r=%d" % (kind, args.r), file=sys.stderr)
        return 2
    return 0 if payload["certified"] else 1


def _parse_observations(text: str, field) -> dict:
    observed = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ParseError("observations line %d: expected i,j,value" % lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("observations line %d: bad indices" % lineno) from None
        if (i, j) in observed:
            raise ParseError("observations line %d: duplicate entry (%d,%d)"
                             % (lineno, i, j))
        observed[(i, j)] = field.parse(parts[2])
    return observed


def cmd_complete(args) -> int:
    pattern = _load_pattern(args)
    field = Rationals() if args.rationals else PrimeField(args.prime)
    cert = parse_certificate(_read(args.certificate))
    observed = _parse_observations(_read(args.observations), field)
    matrix = complete_matrix(pattern, args.r, cert, observed, field)
    out = csv.writer(sys.stdout, lineterminator="\n")
    for row in matrix:
        out.writerow([str(x) for x in row])
    return 0


CENSUS_FIELDS = ["m", "n", "r", "columns", "is_relaxed_rrm", "has_partition",
                 "oracle_base", "consistent", "reduction_log", "witness"]


def cmd_verify_conjecture(args) -> int:
    report = verify_conjecture(args.m, args.n, args.r, prime=args.prime,
                               trials=args.trials, seed=args.seed,
                               col_size=args.col_size, filter=args.filter,
                               jobs=args.jobs)
    if args.format == "json":
        _emit_json({
            "m": args.m,
            "n": args.n,
            "r": args.r,
            "consistent": report.consistent,
            "rows": [row.as_dict() for row in report.rows],
            "counterexamples": list(report.counterexamples),
        })
    else:
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(CENSUS_FIELDS)
        for row in report.rows:
            d = dict(row.as_dict(), consistent=row.consistent)
            out.writerow([json.dumps(d[key]) for key in CENSUS_FIELDS])
    if not report.consistent:
        print("%d counterexample candidate(s) survived re-verification"
              % len(report.counterexamples), file=sys.stderr)
        return 1
    return 0


def cmd_crosscheck(args) -> int:
    report = known_facts_crosscheck(args.m, args.n, args.r, prime=args.prime,
                                    trials=args.trials, seed=args.seed)
    _emit_json(report.as_dict())
    return 0 if report.consistent else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detmatroid",
        description="Decide, certify, and exploit membership in the algebraic "
                    "matroid of bounded-rank matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pattern=True, rank=True, oracle=False):
        if pattern:
            p.add_argument("--pattern", required=True,
                           help="pattern file (indicator grid or JSON)")
        if rank:
            p.add_argument("--r", type=int, required=True, help="target rank")
        if oracle:
            p.add_argument("--seed", type=int, default=0,
                           help="root seed for all randomness (default 0)")
            p.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                           help="field modulus (default 2^31-1)")
            p.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                           help="most rank oracle attempts; they stop "
                                "early at the counting ceiling (default %d)"
                                % DEFAULT_TRIALS)

    p = sub.add_parser("check-slmf", help="decide the union lower bounds for "
                                          "a column-size-(r+1) pattern")
    common(p)

    p = sub.add_parser("check-relaxed", help="decide the relaxed (nu,r,m) "
                                             "counting condition")
    common(p)
    p.add_argument("--nu", type=int, default=None,
                   help="slack parameter (default: r)")

    p = sub.add_parser("partition", help="search for a partition into r "
                                         "relaxed (1,r,m) groups, or validate "
                                         "a given certificate")
    common(p)
    p.add_argument("--certificate", default=None,
                   help="validate this certificate instead of searching")

    p = sub.add_parser("certify", help="run the full pipeline: size, relaxed "
                                       "condition, reduction, partition, "
                                       "rank oracle")
    common(p, oracle=True)

    p = sub.add_parser("complete", help="uniquely complete observed entries "
                                        "to a rank-r matrix")
    common(p)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                   help="field modulus (default 2^31-1)")
    p.add_argument("--certificate", required=True,
                   help="partition certificate JSON file")
    p.add_argument("--observations", required=True,
                   help="CSV file of observed entries: i,j,value")
    p.add_argument("--rationals", action="store_true",
                   help="work over the rationals instead of GF(prime)")

    p = sub.add_parser("verify-conjecture", help="census a small grid and "
                                                 "compare all three "
                                                 "classifications")
    common(p, pattern=False, rank=False, oracle=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--col-size", type=int, default=None,
                   help="pin every column support size")
    p.add_argument("--filter", choices=["base_size_and_mindeg", "all"],
                   default="base_size_and_mindeg")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for classification")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("crosscheck", help="compare the rank oracle with the "
                                          "closed-form characterizations at "
                                          "r=1 and r=min(m,n)-1")
    common(p, pattern=False, rank=False, oracle=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return int(handler(args))
    except GenericityError as exc:
        detail = "" if exc.phi is None else " (phi=%s)" % (list(exc.phi),)
        print("not generic: %s%s" % (exc, detail), file=sys.stderr)
        return 1
    except DetmatroidError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: exit 1 would read as a negative answer
        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
