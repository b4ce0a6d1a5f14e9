"""Command-line front end: sequence printing, claim verification, suite runs.

Exit codes: 0 no counterexample (a claim whose every point was skipped, or
that has no points in the range, reports "skipped"); 1 at least one
counterexample (witnesses are in the report output); 2 usage errors (unknown
sequence, claim, suite, malformed flags or ranges, --jobs below 1, or an
--out path that cannot be written); 3 an internal error (an exception raised
while checking, or while seq computes or prints a value), reported as one
"error: internal error: ..." line and its traceback on stderr, never as a
refutation.  --jobs above the number of usable CPUs is lowered to it;
reports do not depend on --jobs.  --stop-on-first ends the run at the first
counterexample: no later claim is checked, for verify with several ids as
for suite, and a serial run checks no later point of that claim (with
--jobs, each pool task of the claim stops at its own first counterexample).
"""
from __future__ import annotations

import argparse
import os
import sys
import traceback

from . import sequences as seq
from .reports import (InvalidRange, _digits, format_report_human, reports_to_csv,
                      reports_to_json)
from .verify import SUITES, UnknownClaim, UnknownSuite, run_claims, suite_claims

_SEQUENCES = {
    "motzkin": (0, seq.motzkin),
    "trinomial": (0, seq.central_trinomial),
    "catalan": (0, seq.catalan),
    "delannoy": (0, seq.delannoy),
    "schroder-little": (1, seq.schroder_little),
    "schroder-large": (0, seq.schroder_large),
    "W": (0, seq.motzkin_analog_w),
}

_GENERALIZED = {
    "motzkin": seq.gen_motzkin,
    "trinomial": seq.gen_trinomial,
}


_SET_MAX = 10 ** 4  # values in one --b-set or --c-set


def _int_set(text: str) -> tuple[int, ...]:
    """Parse '1,2,3' or '-4..4' (or a mix: '-4..-1,1..4') into a tuple of at
    most _SET_MAX values, counted from the bounds before any is built; a
    repeated value is kept once, where it first occurs."""
    bounds = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo_s, hi_s = token.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty range {token!r}")
            bounds.append((lo, hi))
        elif token:
            bounds.append((int(token), int(token)))
    if not bounds:
        raise argparse.ArgumentTypeError(f"no integers in {text!r}")
    if sum(hi - lo + 1 for lo, hi in bounds) > _SET_MAX:
        raise argparse.ArgumentTypeError(f"{text!r} has more than {_SET_MAX} values")
    return tuple(dict.fromkeys(value for lo, hi in bounds for value in range(lo, hi + 1)))


def _add_range_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-max", type=int, default=None, help="upper bound for n")
    p.add_argument("--prime-max", type=int, default=None, help="upper bound for primes")
    p.add_argument("--prime-min", type=int, default=None, help="lower bound for primes")
    p.add_argument("--b-set", type=_int_set, default=None,
                   help="b grid, e.g. --b-set=-4..4 or --b-set 1,2,3 "
                        "(use the = form when the value starts with '-')")
    p.add_argument("--c-set", type=_int_set, default=None, help="c grid")
    p.add_argument("--h-max", type=int, default=None, help="upper bound for exponent h")
    p.add_argument("--m-max", type=int, default=None, help="upper bound for power m")
    p.add_argument("--a-max", type=int, default=None,
                   help="upper bound for the first q-binomial exponent")
    p.add_argument("--b-exp-max", type=int, default=None,
                   help="upper bound for the second q-binomial exponent")
    p.add_argument("--format", choices=("human", "json", "csv"), default="human")
    p.add_argument("--out", default=None, help="write the report to this path")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    p.add_argument("--stop-on-first", action="store_true",
                   help="stop at the first counterexample")


def _overrides_from(args) -> dict:
    mapping = (("n_max", args.n_max), ("prime_hi", args.prime_max),
               ("prime_lo", args.prime_min), ("b_set", args.b_set),
               ("c_set", args.c_set), ("h_max", args.h_max), ("m_max", args.m_max),
               ("qexp_a_max", args.a_max), ("qexp_b_max", args.b_exp_max))
    return {key: value for key, value in mapping if value is not None}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motzkinlab",
        description="Exact computation and mechanical verification of Motzkin / "
                    "central-trinomial sequence identities, congruences, and conjectures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="print a sequence table")
    p_seq.add_argument("name", help=f"one of {', '.join(_SEQUENCES)}")
    p_seq.add_argument("--max", type=int, default=10, dest="n_max",
                       help="largest index to print")
    p_seq.add_argument("--b", type=int, default=None)
    p_seq.add_argument("--c", type=int, default=None)

    p_verify = sub.add_parser("verify", help="verify one or more claims by id")
    p_verify.add_argument("claims", nargs="+", metavar="CLAIM")
    p_verify.set_defaults(deep=False)
    _add_range_flags(p_verify)

    p_suite = sub.add_parser("suite", help="run a named suite of claims")
    p_suite.add_argument("name", help=f"one of {', '.join(SUITES)}")
    p_suite.add_argument("--deep", action="store_true",
                         help="use the extended parameter ranges")
    _add_range_flags(p_suite)

    return parser


def _cmd_seq(args) -> int:
    name = args.name
    if name not in _SEQUENCES:
        print(f"error: unknown sequence {name!r}; choose from {', '.join(_SEQUENCES)}",
              file=sys.stderr)
        return 2
    lo, fn = _SEQUENCES[name]
    if args.n_max < lo:
        print(f"error: --max must be >= {lo} for {name!r}", file=sys.stderr)
        return 2
    if args.b is not None or args.c is not None:
        if name not in _GENERALIZED:
            print(f"error: sequence {name!r} does not take --b/--c", file=sys.stderr)
            return 2
        if args.b is None or args.c is None:
            print("error: --b and --c must be given together", file=sys.stderr)
            return 2
        gen = _GENERALIZED[name]
        fn = lambda n: gen(n, args.b, args.c)
    for n in range(lo, args.n_max + 1):
        print(f"{n}\t{_digits(fn(n))}")
    return 0


def _emit(reports, args, out) -> int:
    if args.format == "json":
        text = reports_to_json(reports)
    elif args.format == "csv":
        text = reports_to_csv(reports)
    else:
        text = "\n".join(format_report_human(r) for r in reports) + "\n"
    if out is not None:
        out.write(text)
        summary = ", ".join(f"{r.claim}: {r.status}" for r in reports)
        print(f"wrote {args.out} ({summary})")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return _exit_code(reports)


def _exit_code(reports) -> int:
    return 1 if any(r.status == "counterexample" for r in reports) else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = None
    try:
        if args.command == "seq":
            return _cmd_seq(args)
        if args.jobs < 1:
            print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
            return 2
        # a process pool starts all its workers at its first task
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
        args.jobs = min(args.jobs, usable)
        if args.out is not None:
            try:  # like a shell redirection, --out is opened before any claim runs
                out = open(args.out, "w")
            except OSError as exc:
                print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
                return 2
        claim_ids = args.claims if args.command == "verify" else suite_claims(args.name)
        reports = run_claims(claim_ids, _overrides_from(args) or None, deep=args.deep,
                             stop_on_first=args.stop_on_first, jobs=args.jobs)
        return _emit(reports, args, out)
    except (UnknownClaim, UnknownSuite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidRange as exc:
        print(f"error: invalid range: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as a counterexample (exit 1)
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3
    finally:
        if out is not None:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
