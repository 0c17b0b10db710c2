"""gsc: the command-line front end.

Subcommands: eval, classify, eq, sum, oracle, check.  Output is plain,
line-oriented, deterministic text; the exit code is 0 exactly when no
error line and no FAIL line was emitted.  An error's detail message, when
it has one, goes to stderr, not beside its `error: <Name>` line on stdout.
GSC_SEED fixes the seed of the randomized verification suites.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import expr as expr_mod
from .errors import Error, InvalidArgument, NumberTooLarge, ZeroDivisor
from .oracle import FiniteConfig, run_oracle
from .quotient import Scalar, classify, scalar_eq
from .seqrep import BSeqVerdict
from .series import partial_sums
from .sets_filters import FilterDescriptor
from .suites import SUITE_NAMES, run_suite

DEFAULT_SEED = 1729

# `gsc sum` names a series by the verdict on its partial sums.
SERIES_VERDICTS = {
    BSeqVerdict.CONVERGENT: "ConvergentSum",
    BSeqVerdict.BOUNDED_DIVERGENT: "BoundedDivergent",
    BSeqVerdict.UNBOUNDED: "UnboundedDivergent",
}


def parse_filter_flag(text: str) -> FilterDescriptor:
    if text == "frechet":
        return FilterDescriptor.frechet()
    name, colon, set_text = text.partition(":")
    if colon and name in ("frechet", "principal"):
        base = expr_mod.eval_set(expr_mod.parse_set(set_text))
        return FilterDescriptor(base, cofinite=name == "frechet")
    raise InvalidArgument(f"unknown filter {text!r}; use frechet, frechet:<set> or principal:<set>")


def render_value(value) -> str:
    if isinstance(value, Scalar):
        return f"{expr_mod.render_rseq(value.rep)} [{classify(value)}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return expr_mod.number_text(value)
    return str(value)


def error_line(err: Error) -> str:
    if isinstance(err, ZeroDivisor):
        return f"error: ZeroDivisor witness={expr_mod.render_rseq(err.witness.rep)}"
    if isinstance(err, expr_mod.SyntaxError):
        line = f"error: SyntaxError line={err.line} column={err.column}"
        if err.expected:
            line += " expected=" + ",".join(err.expected)
        return line
    return f"error: {err.name}"


def _seed_from_env() -> int:
    raw = os.environ.get("GSC_SEED", "")
    if not raw:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidArgument(f"GSC_SEED must be an integer, got {raw!r}") from exc


def _emit_reports(reports, out) -> bool:
    ok = True
    for report in reports:
        print(report.render(), file=out)
        ok = ok and report.ok
    return ok


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(
        prog="gsc",
        description="exact non-Archimedean scalar algebra over sequences of rationals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_filter_flag(p):
        p.add_argument("--filter", default="frechet", metavar="FILTER",
                       help="frechet (default), frechet:<set> (sets holding all but finitely many "
                            "points of <set>) or principal:<set> (supersets of <set>)")

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expression")
    add_filter_flag(p_eval)

    p_classify = sub.add_parser("classify", help="classify a scalar expression")
    p_classify.add_argument("expression")
    add_filter_flag(p_classify)

    p_eq = sub.add_parser("eq", help="decide equality of two scalar expressions")
    p_eq.add_argument("left")
    p_eq.add_argument("right")
    add_filter_flag(p_eq)

    p_sum = sub.add_parser("sum", help="series verdict and generalized value")
    p_sum.add_argument("expression")
    add_filter_flag(p_sum)

    p_oracle = sub.add_parser("oracle", help="exhaustive finite verification")
    p_oracle.add_argument("--lambda", dest="lambda_size", type=int, default=3)
    p_oracle.add_argument("--field", type=int, default=2)
    p_oracle.add_argument("--check", default="all", choices=["galois", "maximal-prime", "all"])

    p_check = sub.add_parser("check", help="run a named verification suite")
    p_check.add_argument("suite", choices=[*SUITE_NAMES, "all"])
    p_check.add_argument("--kmax", type=int, default=1000)

    args = parser.parse_args(argv)

    try:
        if args.command == "oracle":
            cfg = FiniteConfig(args.lambda_size, args.field)
            return 0 if _emit_reports(run_oracle(cfg, args.check), out) else 1
        if args.command == "check":
            seed = _seed_from_env()
            return 0 if _emit_reports(run_suite(args.suite, seed, kmax=args.kmax), out) else 1
        filt = parse_filter_flag(args.filter)
        if args.command == "eval":
            value = expr_mod.evaluate(expr_mod.parse(args.expression), filt)
            print(render_value(value), file=out)
        elif args.command == "classify":
            [scalar] = expr_mod.evaluate_scalars([args.expression], filt)
            print(classify(scalar), file=out)
        elif args.command == "sum":
            [scalar] = expr_mod.evaluate_scalars([args.expression], filt)
            sums = partial_sums(scalar.rep)
            verdict = sums.classify_bounded()
            total = "" if verdict.limit is None else f"({expr_mod.number_text(verdict.limit)})"
            value = render_value(Scalar(sums, filt))
            print(f"verdict: {SERIES_VERDICTS[verdict.kind]}{total}", file=out)
            print(f"value: {value}", file=out)
        else:
            left, right = expr_mod.evaluate_scalars([args.left, args.right], filt)
            print("true" if scalar_eq(left, right) else "false", file=out)
        return 0
    except Error as err:
        try:
            line = error_line(err)
        except NumberTooLarge as big:  # a ZeroDivisor witness too large to print
            line, err = error_line(big), big
        print(line, file=out)
        if str(err):
            print(err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
