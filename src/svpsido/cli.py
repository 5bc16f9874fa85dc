"""Command-line front end: property verification and a symbol calculator.

`svpsido verify` runs the exhaustive suites and exits 0 exactly when
every case passes; `svpsido eval` evaluates one calculator expression
and prints the resulting symbol with its trust annotation.

Each command loads only what it runs.  At import this module loads the
calculator (textio, and through it the ring, the symbols and the
transforms); `verify` imports the suites, and with them the Lie-algebra,
Poisson, cocycle and operator layers, when it runs.  So a one-expression
`eval` never pays for the verifier.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .ring import GaussRat
from .textio import eval_expr, parse_floor, parse_rational, symbol_str
from .transforms import check_floor_depth

# suites.SUITE_NAMES, in its order, for --suite; a copy, so that parsing
# the command line does not import the suites (a test pins the two equal)
SUITE_NAMES = (
    "psido-axioms",
    "theta",
    "timeshift",
    "cocycles",
    "lemma26",
    "lemma33",
    "theorem51",
    "theorem61",
    "dpi-rep",
    "dsigma-rep",
    "poisson-lemma71",
    "nu-scan",
)


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


# a Gaussian rational with an imaginary part: i, -3/4*i, 2-i, 1/2+3/4*i
_GAUSS = re.compile(r"(?P<re>[-+]?\d+(?:/\d+)?(?=[-+]))?(?P<sign>[-+]?)(?:(?P<im>\d+(?:/\d+)?)\*?)?i")


def _gauss(text: str) -> GaussRat:
    m = _GAUSS.fullmatch(text.strip())
    if m is None:
        return GaussRat(_rational(text))
    try:
        im = Fraction(m["im"] or 1)
        return GaussRat(Fraction(m["re"] or 0), -im if m["sign"] == "-" else im)
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"not a Gaussian rational: {text!r}") from exc


def _floor(text: str):
    try:
        floor = parse_floor(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a half-integer floor: {text!r}") from exc
    if floor is None:  # "exact" parses but the harness needs a finite window
        raise argparse.ArgumentTypeError("the floor must be a half-integer like -7/2")
    return floor


# argparse only recognizes integer/decimal negatives as values; teach it
# the fractional and Gaussian ones so "--floor -7/2" and "--nu -1-i" work
# without the = form
_NEGATIVE_VALUE = re.compile(r"^-[\di][\d/*+i-]*$")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svpsido",
        description="exact verification of the truncated symbol calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run property suites")
    verify._negative_number_matcher = _NEGATIVE_VALUE
    verify.add_argument(
        "--suite",
        action="append",
        default=[],
        choices=SUITE_NAMES,
        metavar="NAME",
        help=f"suite to run, repeatable; all when omitted (choices: {', '.join(SUITE_NAMES)})",
    )
    verify.add_argument("--floor", type=_floor, default=None, help="truncation floor, default -7/2")
    verify.add_argument("--range", dest="index_range", type=int, default=3,
                        help="index bound for the monomial boxes, default 3")
    verify.add_argument("--c", type=_gauss, default=None, help="central charge, default 2")
    verify.add_argument("--nu", type=_gauss, default=None,
                        help="transform deformation, a Gaussian rational like 1/2 or 2-i, default 0")
    verify.add_argument("--mu", type=_rational, default=None,
                        help="extra module weight for the representation suites")
    verify.add_argument("--normalize-mass", action="store_true",
                        help="render reported values with the mass normalized to -2iM = 1")
    verify.add_argument("--report", choices=("json", "text"), default="text")
    verify.add_argument("--random", dest="random_cases", type=int, default=0,
                        help="extra random soak cases per suite")
    verify.add_argument("--seed", type=int, default=0, help="seed for the soak cases")
    verify.add_argument("--threads", type=int, default=None,
                        help="processes that share each suite's cases, this one and the "
                             "workers it forks; at most 64, default the usable CPU count "
                             "(at most 8)")

    ev = sub.add_parser("eval", help="evaluate a calculator expression")
    ev._negative_number_matcher = _NEGATIVE_VALUE
    ev.add_argument("expr", metavar="EXPR")
    ev.add_argument("--floor", type=_floor, default=None, help="truncation floor, default -4")
    return parser


def _run_verify(args) -> int:
    from .suites import VerifyConfig, report_json, report_text, run_suites

    kwargs = dict(
        index_range=args.index_range,
        mu=args.mu,
        normalize_mass=args.normalize_mass,
        random_cases=args.random_cases,
        seed=args.seed,
        threads=args.threads,
    )
    if args.floor is not None:
        kwargs["floor"] = args.floor
    if args.c is not None:
        kwargs["c"] = args.c
    if args.nu is not None:
        kwargs["nu"] = args.nu
    cfg = VerifyConfig(**kwargs)
    try:
        reports = run_suites(args.suite, cfg)
    except ValueError as exc:
        print(f"svpsido: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a worker process died
        print(f"svpsido: {exc}", file=sys.stderr)
        return 1
    if args.report == "json":
        print(report_json(reports))
    else:
        print(report_text(reports))
    return 0 if all(r.ok for r in reports) else 1


def _run_eval(args) -> int:
    try:
        if args.floor is not None:
            check_floor_depth(args.floor)
        result = eval_expr(args.expr, floor=args.floor)
        text = symbol_str(result)  # the canonical form carries its own trust tag
    except (ValueError, ZeroDivisionError) as exc:
        # rendering can fail too, e.g. on Python's int-to-str digit limit
        print(f"svpsido: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # the parser descends once per nesting level
        print("svpsido: expression nests too deeply", file=sys.stderr)
        return 2
    print(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    run = _run_verify if args.command == "verify" else _run_eval
    try:
        code = run(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
    except BrokenPipeError:
        # point stdout at devnull so that the flush at exit cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
