import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from test_golden import NAMED

from gscalars import cli, exactnum, expr, series, sets_filters
from gscalars.cli import main, parse_filter_flag
from gscalars.errors import Error
from gscalars.exactnum import MAX_DEGREE
from gscalars.expr import MAX_DEPTH, parse, render
from gscalars.seqrep import MAX_OVERRIDES, RSeq
from gscalars.sets_filters import FilterDescriptor, SetDescriptor


DIGIT_LIMIT = sys.get_int_max_str_digits()


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestFilterFlag:
    def test_frechet(self):
        assert parse_filter_flag("frechet") == FilterDescriptor.frechet()

    def test_principal(self):
        f = parse_filter_flag("principal:0 mod 2")
        assert f == FilterDescriptor.principal(SetDescriptor.evens())
        g = parse_filter_flag("principal:{2,4}")
        assert g.base == SetDescriptor.finite({2, 4})

    def test_bad_flag(self):
        with pytest.raises(Error):
            parse_filter_flag("ultra")

    def test_frechet_on_a_set(self):
        assert parse_filter_flag("frechet:0 mod 2") == FilterDescriptor(SetDescriptor.evens(), cofinite=True)
        assert parse_filter_flag("frechet:0 mod 1") == FilterDescriptor.frechet()

    @pytest.mark.parametrize("text", ["frechet", "frechet:0 mod 2", "principal:0 mod 2", "principal:{2,4}"])
    def test_render_reads_back(self, text):
        assert parse_filter_flag(text).render() == text


class TestEval:
    def test_classification_of_divergent_sum(self):
        code, text = run_cli("eval", "class(sum(1))")
        assert code == 0
        assert text == "Infinite\n"

    def test_shift_witness(self):
        code, text = run_cli("eval", "eq(shift(n) - n, 1)")
        assert code == 0
        assert text == "true\n"

    def test_scalar_rendering_includes_classification(self):
        code, text = run_cli("eval", "sum(1)")
        assert code == 0
        assert text == "n + 1 [Infinite]\n"

    def test_zero_divisor_diagnostic(self):
        code, text = run_cli("eval", "invert(ind(0 mod 2))")
        assert code == 1
        assert text == "error: ZeroDivisor witness=ind(1 mod 2)\n"

    def test_syntax_error_diagnostic(self):
        code, text = run_cli("eval", "1 + + 2")
        assert code == 1
        assert text.startswith("error: SyntaxError line=1 column=5")
        assert run_cli("eval", "1 + " + "7" * (DIGIT_LIMIT + 1)) == (1, "error: SyntaxError line=1 column=5\n")

    def test_zero_scalar_error(self):
        code, text = run_cli("eval", "1 / 0")
        assert code == 1
        assert text == "error: ZeroScalar\n"

    def test_filter_flag_changes_result(self):
        code, text = run_cli("eval", "eq(ind(0 mod 2), 1)", "--filter=principal:0 mod 2")
        assert (code, text) == (0, "true\n")
        code, text = run_cli("eval", "eq(ind(0 mod 2), 1)")
        assert (code, text) == (0, "false\n")


class TestSubcommands:
    def test_classify(self):
        assert run_cli("classify", "1/(n+1)") == (0, "Infinitesimal\n")
        assert run_cli("classify", "sum(n)") == (0, "Infinite\n")

    def test_eq(self):
        assert run_cli("eq", "shift(n) - n", "1") == (0, "true\n")
        assert run_cli("eq", "ind(0 mod 2)", "0") == (0, "false\n")

    def test_sum(self):
        code, text = run_cli("sum", "1")
        assert code == 0
        assert text.splitlines() == ["verdict: UnboundedDivergent", "value: n + 1 [Infinite]"]
        code, text = run_cli("sum", "0 except {0: 1/2, 2: 1/3}")
        assert code == 0
        assert text.splitlines()[0] == "verdict: ConvergentSum(5/6)"

    # The verdict is that of the partial sums, so it is the same under every filter.
    @pytest.mark.parametrize("filt", ["frechet", "principal:0 mod 2"])
    @pytest.mark.parametrize("expression,verdict", [
        ("0 except {0: 1/2, 2: 1/3}", "ConvergentSum(5/6)"),
        ("ind(0 mod 2) - ind(1 mod 2)", "BoundedDivergent"),
        ("1", "UnboundedDivergent"),
    ])
    def test_sum_verdict_names(self, filt, expression, verdict):
        code, text = run_cli("sum", f"--filter={filt}", "--", expression)
        assert code == 0
        assert text.splitlines()[0] == f"verdict: {verdict}"

    def test_sum_computes_the_partial_sums_once(self, monkeypatch):
        calls = 0
        partial_sums = series.partial_sums

        def counting(s):
            nonlocal calls
            calls += 1
            return partial_sums(s)

        for module in (cli, expr, series):
            if hasattr(module, "partial_sums"):
                monkeypatch.setattr(module, "partial_sums", counting)
        assert run_cli("sum", "n") == (0, "verdict: UnboundedDivergent\nvalue: 1 / 2 * n * n + 1 / 2 * n [Infinite]\n")
        assert calls == 1

    def test_a_rendered_value_computes_one_zero_set(self, monkeypatch):
        # Under Frechet the zero test reads the branch tails and walks no
        # sign set; under a principal filter it walks exactly one.
        calls = 0
        sign_set = RSeq.sign_set

        def counting(x, signs):
            nonlocal calls
            calls += 1
            return sign_set(x, signs)

        monkeypatch.setattr(RSeq, "sign_set", counting)
        assert run_cli("eval", "n*n - 3*n + 2") == (0, "n * n - 3 * n + 2 [Infinite]\n")
        assert calls == 0
        code, _ = run_cli("eval", "n*n - 3*n + 2", "--filter=principal:{1,2,5}")
        assert (code, calls) == (0, 1)

    def test_archimedean_check_isolates_no_roots(self, monkeypatch):
        calls = 0
        root_breaks = exactnum.root_breaks

        def counting(p):
            nonlocal calls
            calls += 1
            return root_breaks(p)

        monkeypatch.setattr(exactnum, "root_breaks", counting)
        code, text = run_cli("check", "archimedean", "--kmax", "100")
        assert code == 0 and "FAIL" not in text
        assert calls == 0

    @pytest.mark.parametrize("argv", [
        ("check", "archimedean", "--kmax", "100"),
        ("eval", "2"),
        ("eval", "n*n - 3*n + 2"),
    ])
    def test_constant_sides_take_no_gcd(self, monkeypatch, argv):
        """A canonical form with a constant numerator or denominator runs no
        remainder sequence: these commands build only such forms."""
        calls = 0
        remainder_sequence = exactnum._remainder_sequence

        def counting(a, b):
            nonlocal calls
            calls += 1
            return remainder_sequence(a, b)

        monkeypatch.setattr(exactnum, "_remainder_sequence", counting)
        code, text = run_cli(*argv)
        assert code == 0 and "FAIL" not in text
        assert calls == 0

    def test_oracle(self):
        code, text = run_cli("oracle", "--lambda", "2", "--field", "2", "--check", "galois")
        assert code == 0
        assert "ideal count = 3" in text
        assert "FAIL" not in text

    def test_check_shift_impossibility(self):
        code, text = run_cli("check", "shift-impossibility")
        assert code == 0
        assert "CONCLUSION" in text
        assert text.count("PASS") == 4

    def test_check_archimedean_small(self):
        code, text = run_cli("check", "archimedean", "--kmax", "25")
        assert code == 0
        assert "1..25" in text
        assert "negative-control" in text

    def test_check_archimedean_rejects_nonpositive_kmax(self):
        for kmax in ("0", "-3"):
            code, text = run_cli("check", "archimedean", "--kmax", kmax)
            assert (code, text) == (1, "error: InvalidArgument\n")

    def test_sum_requires_polynomial_terms(self):
        code, text = run_cli("sum", "1/(n+1)")
        assert (code, text) == (1, "error: NonPolynomialTerms\n")

    def test_limit_of_divergent_sequence(self):
        code, text = run_cli("eval", "limit(ind(0 mod 2))")
        assert (code, text) == (1, "error: NotConvergent\n")

    def test_st_of_oscillating_class(self):
        code, text = run_cli("eval", "st(ind(0 mod 2))")
        assert (code, text) == (1, "error: NotStandardizable\n")

    def test_empty_principal_filter(self):
        code, text = run_cli("eval", "1", "--filter=principal:{}")
        assert (code, text) == (1, "error: InvalidFilter\n")

    def test_unknown_filter_kind(self):
        assert run_cli("eval", "1", "--filter=ultra") == (1, "error: InvalidArgument\n")

    def test_non_integer_seed(self, monkeypatch):
        monkeypatch.setenv("GSC_SEED", "12x")
        assert run_cli("check", "shift-impossibility") == (1, "error: InvalidArgument\n")


class TestFilterShapes:
    """Classes and standard parts agree with the order and equality of the
    algebra: Q^evens under principal:evens, the cofinite sets of the evens
    under frechet:evens."""

    CASES = {
        "principal-ramp": ("principal:evens", "class(n)", "Mixed"),
        "principal-ramp-bound": ("principal:evens", "le(1000000, n)", "false"),
        "principal-harmonic": ("principal:evens", "class(1/(n+1))", "Appreciable"),
        "principal-harmonic-st": ("principal:evens", "st(1/(n+1))", "error: NotStandardizable"),
        "principal-override": ("principal:evens", "class(0 except {0: 7})", "Appreciable"),
        "cofinite-ramp": ("frechet:evens", "class(n)", "Infinite"),
        "cofinite-ramp-bound": ("frechet:evens", "le(1000000, n)", "true"),
        "cofinite-harmonic": ("frechet:evens", "class(1/(n+1))", "Infinitesimal"),
        "cofinite-harmonic-st": ("frechet:evens", "st(1/(n+1))", "0"),
        "cofinite-override": ("frechet:evens", "class(0 except {0: 7})", "Zero"),
        "cofinite-finite-base": ("frechet:{1,2}", "1", "error: InvalidFilter"),
    }

    @pytest.mark.parametrize("filt,expression,expected", CASES.values(), ids=CASES.keys())
    def test_answer(self, filt, expression, expected):
        code, text = run_cli("eval", f"--filter={filt}", expression)
        assert (code, text) == (int(expected.startswith("error:")), expected + "\n")


def _squared(text: str, times: int) -> str:
    for _ in range(times):
        text = f"(({text})*({text}))"
    return text


class TestLongResults:
    """Results whose canonical form is a long left-deep chain render
    without recursing once per operator."""

    CASES = {
        "sum-over-1000-classes": (
            "n + n*ind(0 mod 1000)",
            "ind(0 mod 1000) * (2 * n)"
            + "".join(f" + ind({r} mod 1000) * n" for r in range(1, 1000))
            + " [Infinite]\n",
        ),
        "union-of-999-classes": (
            "ind(~(0 mod 1000))",
            "ind(" + "|".join(f"{r} mod 1000" for r in range(1, 1000)) + ") [Appreciable]\n",
        ),
    }

    @pytest.mark.parametrize("expression,expected", CASES.values(), ids=CASES.keys())
    def test_one_result_line(self, expression, expected):
        assert run_cli("eval", "--", expression) == (0, expected)


class TestNestingLimit:
    PROBES = {
        "parentheses": "(" * 400 + "1" + ")" * 400,
        "unary-minus": "0+" + "-" * 3000 + "1",
        "shift-calls": "shift(" * 300 + "n" + ")" * 300,
        "set-complements": "ind(" + "~" * 3000 + "evens)",
    }

    @pytest.mark.parametrize("expression", PROBES.values(), ids=PROBES.keys())
    def test_deep_nesting_is_one_named_error(self, expression):
        assert run_cli("eval", "--", expression) == (1, "error: NestingTooDeep\n")

    def test_filter_flag_is_limited_too(self):
        code, text = run_cli("eval", "1", "--filter=principal:" + "~" * 3000 + "evens")
        assert (code, text) == (1, "error: NestingTooDeep\n")

    def test_expressions_at_the_limit_evaluate(self):
        depth = MAX_DEPTH
        assert run_cli("eval", "(" * (depth - 1) + "2" + ")" * (depth - 1)) == (0, "2 [Appreciable]\n")
        assert run_cli("eval", "+".join(["1"] * depth)) == (0, f"{depth} [Appreciable]\n")
        assert run_cli("eval", "(" * depth + "2" + ")" * depth) == (1, "error: NestingTooDeep\n")

    LEVELS = {
        "unary-minus": ("-" * (MAX_DEPTH - 1) + "1", "-1 [Appreciable]\n"),
        "shift-calls": ("shift(" * (MAX_DEPTH - 1) + "n" + ")" * (MAX_DEPTH - 1), f"n + {MAX_DEPTH - 1} [Infinite]\n"),
        "right-nested-sums": ("1+(" * (MAX_DEPTH - 1) + "1" + ")" * (MAX_DEPTH - 1), f"{MAX_DEPTH} [Appreciable]\n"),
        "set-complements": ("ind(" + "~" * (MAX_DEPTH - 2) + "evens)", "ind(0 mod 2) [Appreciable]\n"),
    }

    @pytest.mark.parametrize("expression,expected", LEVELS.values(), ids=LEVELS.keys())
    def test_each_kind_of_nesting_evaluates_at_the_limit(self, expression, expected):
        assert run_cli("eval", "--", expression) == (0, expected)

    CHAINS = {
        "sum-chain": ("+".join(["1"] * 1500), "1500 [Appreciable]\n"),
        "set-union-chain": ("ind(" + "|".join(["evens"] * 1500) + ")", "ind(0 mod 2) [Appreciable]\n"),
        "sum-chain-past-the-limit": ("+".join(["1"] * (MAX_DEPTH + 1)), f"{MAX_DEPTH + 1} [Appreciable]\n"),
        "except-chain": ("1" + " except {0: 1}" * 3000, "ind(0 mod 1) [Appreciable]\n"),
    }

    @pytest.mark.parametrize("expression,expected", CHAINS.values(), ids=CHAINS.keys())
    def test_operator_chains_of_any_length_evaluate(self, expression, expected):
        """Only nesting counts toward MAX_DEPTH; a chain opens no level."""
        assert run_cli("eval", "--", expression) == (0, expected)

    def test_long_except_chain_renders(self):
        text = "1" + " except {0: 1}" * 3000
        assert render(parse(text)) == text

    def test_rendered_value_past_the_limit_round_trips(self):
        """A value whose canonical form is a chain longer than MAX_DEPTH
        re-evaluates to the same class."""
        expression = "n + n*ind(0 mod 120)"
        code, text = run_cli("eval", "--", expression)
        rendered = text.rsplit(" [", 1)[0]
        assert code == 0 and rendered.count(" + ") == 119
        assert run_cli("eq", "--", rendered, expression) == (0, "true\n")


class TestOrderAtScale:
    """The order reads set descriptors whose deviation runs are segments,
    so its cost does not grow with where two sequences cross."""

    def test_le_far_crossing_answers(self):
        assert run_cli("eval", "le(n, 100000000)") == (0, "false\n")
        assert run_cli("eval", "le(100000000, n)") == (0, "true\n")

    @pytest.mark.parametrize("filt, expected", [("principal:0 mod 2", "false"), ("principal:{1,2}", "true")])
    def test_le_against_a_long_period(self, filt, expected):
        # Each of the 4000 branches gives the sign set a run below 8000, and the runs overlap.
        assert run_cli("eval", f"--filter={filt}", "le(n, 8000 + ind(0 mod 4000))") == (0, expected + "\n")

    def test_archimedean_at_ten_thousand_passes(self):
        code, text = run_cli("check", "archimedean", "--kmax", "10000")
        checks = [line for line in text.splitlines() if not line.endswith(" passed, 0 failed")]
        assert code == 0 and len(checks) == 4
        assert all(line.startswith("PASS ") for line in checks), text

    def test_round_trip_of_a_long_sum_skips_zero_gcds(self, monkeypatch):
        """Adding or multiplying by the zero function takes no gcd: the
        200-term rendered value re-evaluates with few gcd calls."""
        expression = "n + n*ind(0 mod 200)"
        rendered = run_cli("eval", "--", expression)[1].rsplit(" [", 1)[0]
        calls = 0
        gcd = exactnum.poly_gcd

        def counting(a, b):
            nonlocal calls
            calls += 1
            return gcd(a, b)

        monkeypatch.setattr(exactnum, "poly_gcd", counting)
        assert run_cli("eq", "--", rendered, expression) == (0, "true\n")
        assert calls < 2000


class TestOverrideLimit:
    # The sums walk the partial sums to N; the lists hold every override.
    PROBES = {
        "sum-at-the-limit": f"sum(n except {{{MAX_OVERRIDES}: 1}})",
        "sum-at-a-huge-index": "sum(n except {" + "9" * DIGIT_LIMIT + ": 1})",
        "override-list": "0 except {" + ", ".join(f"{k}: 1" for k in range(MAX_OVERRIDES + 1)) + "}",
        # Each list is under the limit; their sum holds every override of both.
        "sum-of-override-lists": " + ".join(
            "(0 except {" + ", ".join(f"{k}: 1" for k in keys) + "})"
            for keys in (range(0, 3 * MAX_OVERRIDES // 5), range(3 * MAX_OVERRIDES // 5, 6 * MAX_OVERRIDES // 5))
        ),
    }

    @pytest.mark.parametrize("expression", PROBES.values(), ids=PROBES.keys())
    def test_one_error_line_at_once(self, expression):
        start = time.perf_counter()
        assert run_cli("eval", expression) == (1, "error: TooManyOverrides\n")
        assert time.perf_counter() - start < 1

    def test_sums_below_the_limit_evaluate(self):
        code, text = run_cli("eval", f"sum(n except {{{MAX_OVERRIDES - 1}: 1}})")
        assert code == 0 and text.endswith(" [Infinite]\n")


class TestCofiniteComparisons:
    """Under a cofinite filter `eq` and `le` never build the difference of
    their operands (tests/golden/cofinite-comparisons.txt holds the answers
    that this makes possible); elsewhere the limits still apply."""

    PRINCIPAL = {
        "eq-override-lists": (["eq", "{A}", "{B}"], "TooManyOverrides"),
        "le-override-lists": (["eval", "le({A}, {B})"], "TooManyOverrides"),
        "eq-past-the-degree-limit": (["eq", "1/({p}+1)", "1/({p}+2)"], "DegreeTooLarge"),
        "le-past-the-degree-limit": (["eval", "le(1/({p}+1), 1/({p}+2))"], "DegreeTooLarge"),
    }

    @pytest.mark.parametrize("argv,error", PRINCIPAL.values(), ids=PRINCIPAL.keys())
    def test_principal_filter_keeps_its_error_line(self, argv, error):
        operands = [a.format(**NAMED) for a in argv[1:]]
        assert run_cli(argv[0], "--filter=principal:{1,2}", "--", *operands) == (1, f"error: {error}\n")

    def test_the_lcm_of_the_moduli_is_still_refused(self):
        assert run_cli("eq", "ind(0 mod 9973)", "ind(0 mod 9967)") == (1, "error: ModulusTooLarge\n")

    def test_a_tie_whose_cross_multiplication_passes_the_degree_limit_is_refused(self):
        # Equal degrees and leading coefficients: the numerators are
        # cross-multiplied over coprime denominators of degree 13.
        left, right = "({p}+1)/({p}+2)".format(**NAMED), "({p}+3)/({p}+4)".format(**NAMED)
        assert run_cli("eq", left, right) == (1, "error: DegreeTooLarge\n")
        assert run_cli("eval", f"le({left}, {right})") == (1, "error: DegreeTooLarge\n")


class TestDegreeLimit:
    # (n+1) squared seven times, minus 3*n + 2, has degree 128; n squared
    # nine times has degree 512; and the partial sums of n^MAX_DEGREE have
    # degree MAX_DEGREE + 1.
    PROBES = {
        "classify-degree-128": ["classify", _squared("n+1", 7) + " - (3*n + 2)"],
        "sum-degree-128": ["sum", _squared("n+1", 7) + " - (3*n + 2)"],
        "eval-n-to-the-512": ["eval", _squared("n", 9)],
        "sum-past-the-limit": ["sum", "*".join(["n"] * MAX_DEGREE)],
    }

    @pytest.mark.parametrize("argv", PROBES.values(), ids=PROBES.keys())
    def test_one_error_line_at_once(self, capsys, argv):
        start = time.perf_counter()
        assert run_cli(*argv) == (1, "error: DegreeTooLarge\n")
        assert time.perf_counter() - start < 1
        assert f"above the limit of {MAX_DEGREE}" in capsys.readouterr().err

    # p = n^13 + 1: a sum over the cross-multiplied denominators would
    # have degree 26 or 27, over their lcm it has degree 13 or 14.
    P = "n*n*n*n*n*n*n*n*n*n*n*n*n + 1"

    def test_equal_denominators_add_numerators(self):
        assert run_cli("eval", f"invert({self.P}) - invert({self.P})") == (0, "0 [Zero]\n")

    def test_sums_are_built_over_the_lcm_of_denominators(self):
        code, text = run_cli("eval", f"invert(({self.P}) * (n + 2)) - invert({self.P})")
        assert code == 0 and text.startswith("-1 * invert(") and text.endswith(" [Infinitesimal]\n")

    def test_degrees_at_the_limit_evaluate(self):
        power = " * ".join(["n"] * MAX_DEGREE)
        assert run_cli("eval", power) == (0, power + " [Infinite]\n")
        code, text = run_cli("sum", "*".join(["n"] * (MAX_DEGREE - 1)))
        assert code == 0 and text.startswith("verdict: UnboundedDivergent\nvalue: ")


class TestErrorDetail:
    def test_detail_goes_to_stderr_only(self, capsys):
        assert main(["eval", "st(n)"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "error: NotStandardizable\n"
        assert "an infinite branch blocks the standard part" in captured.err

    @pytest.mark.parametrize("expression, shown", [("class(n) + 1", "Infinite"), ("eq(n, n) + 1", "true")])
    def test_type_mismatch_names_the_value_as_printed(self, capsys, expression, shown):
        assert main(["eval", expression]) == 1
        captured = capsys.readouterr()
        assert captured.out == "error: TypeMismatch\n"
        assert captured.err == f"expected a scalar, got {shown}\n"

    @pytest.mark.parametrize("expression", ["ind(0 mod 1000000)", "ind(0 mod 9973) * ind(0 mod 9967)"])
    def test_modulus_above_the_limit(self, capsys, expression):
        assert main(["eval", expression]) == 1
        captured = capsys.readouterr()
        assert captured.out == "error: ModulusTooLarge\n"
        assert "above the limit of 100000" in captured.err

    # A set modulus, a set lcm, and the lcm that a principal filter's
    # membership test takes of its base's and a zero set's moduli.
    SET_MODULI = {
        "set-modulus": ["eval", "ind(0 mod 3000000)"],
        "set-union": ["eval", "ind(0 mod 9973 | 0 mod 9967)"],
        "eq-9973-9967": ["eq", "--filter=principal:0 mod 9973", "ind(0 mod 9967)", "0"],
        "eq-997-991": ["eq", "--filter=principal:0 mod 997", "ind(0 mod 991)", "0"],
        "classify-997-991": ["classify", "--filter=principal:0 mod 997", "ind(0 mod 991)"],
    }

    @pytest.mark.parametrize("argv", SET_MODULI.values(), ids=SET_MODULI.keys())
    def test_no_set_pattern_is_built_past_the_limit(self, monkeypatch, argv):
        spread = sets_filters._spread

        def guarded(mask, p, q):
            if q > sets_filters.MAX_MODULUS:
                raise AssertionError(f"a {q}-bit pattern was built")
            return spread(mask, p, q)

        monkeypatch.setattr(sets_filters, "_spread", guarded)
        assert run_cli(*argv) == (1, "error: ModulusTooLarge\n")

    # N * N has more digits than the interpreter converts to text, N has not.
    N = "9" * (DIGIT_LIMIT // 2 + 1)
    M = "9" * DIGIT_LIMIT
    TEN = "1" + "0" * (DIGIT_LIMIT // 2 + 1)
    BIG_NUMBERS = {
        "product": ["eval", f"{N}*{N}"],
        "standard-part": ["eval", f"st({N}*{N} + 1/(n+1))"],
        "sum-value": ["sum", f"{N}*{N}"],
        "sum-verdict": ["sum", f"0 except {{0: {M}, 1: {M}}}"],
        "zero-divisor-witness": ["eval", "--filter=principal:evens", f"invert(n - {TEN}*{TEN})"],
    }

    @pytest.mark.parametrize("argv", BIG_NUMBERS.values(), ids=BIG_NUMBERS.keys())
    def test_number_past_the_digit_limit(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "error: NumberTooLarge\n"
        assert f"more than {DIGIT_LIMIT} digits" in captured.err

    def test_number_at_the_digit_limit_prints(self):
        assert run_cli("eval", f"{self.M} + 0") == (0, f"{self.M} [Appreciable]\n")
        assert run_cli("eval", f"st(1/{self.M})") == (0, f"1/{self.M}\n")


class TestDeterminism:
    def _spawn(self, *args, seed="4242"):
        # pyproject's pytest `pythonpath` does not reach a child process.
        path = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, GSC_SEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "gscalars.cli", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        return proc.returncode, proc.stdout

    def test_check_galois_roundtrip_byte_identical(self):
        first = self._spawn("check", "galois-roundtrip")
        second = self._spawn("check", "galois-roundtrip")
        assert first == second
        assert first[0] == 0

    def test_seed_changes_sampling(self):
        a = self._spawn("check", "banach-bounds", seed="1")
        b = self._spawn("check", "banach-bounds", seed="2")
        assert a[0] == b[0] == 0

    def test_oracle_byte_identical(self):
        first = self._spawn("oracle", "--lambda", "3", "--field", "2")
        second = self._spawn("oracle", "--lambda", "3", "--field", "2")
        assert first == second
        assert first[0] == 0


# -- grammar fuzzer -------------------------------------------------------------

_INTS = st.integers(0, 50).map(str)
_BRACES = st.lists(_INTS, max_size=3).map(lambda xs: "{" + ",".join(xs) + "}")

_SET_EXPRS = st.recursive(
    st.one_of(
        st.builds("{} mod {}".format, _INTS, st.integers(1, 6)),
        st.sampled_from(["evens", "odds"]),
        _BRACES,
        _BRACES.map("cofinite~{}".format),
    ),
    lambda inner: st.one_of(
        inner.map("~({})".format),
        st.builds("{}{}{}".format, inner, st.sampled_from("|&"), inner),
    ),
    max_leaves=3,
)

_OVERRIDES = st.lists(
    st.builds("{}: {}{}/{}".format, _INTS, st.sampled_from(["", "-"]), _INTS, st.integers(1, 9)),
    max_size=3,
).map(lambda items: "{" + ", ".join(items) + "}")

_SCALAR_EXPRS = st.recursive(
    st.one_of(_INTS, st.just("n"), _SET_EXPRS.map("ind({})".format)),
    lambda inner: st.one_of(
        inner.map("-({})".format),
        st.builds("({}) {} ({})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("{}({})".format, st.sampled_from(["shift", "sum", "st", "class", "invert", "limit"]), inner),
        st.builds("{}({}, {})".format, st.sampled_from(["eq", "le"]), inner, inner),
        st.builds("({} except {})".format, inner, _OVERRIDES),
    ),
    max_leaves=6,
)


@st.composite
def _one_char_inserted(draw):
    """A generated expression with one character inserted anywhere: numeric
    characters that are no decimal digit, a decimal digit of another
    script, a no-break space, a character outside the grammar or a newline."""
    text = draw(_SCALAR_EXPRS)
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(["\u00b2", "\u00bd", "\u216b", "\u0661", "\u00a0", "?", "\n"])) + text[at:]


_FILTERS = st.one_of(
    st.just("frechet"), _SET_EXPRS.map("frechet:{}".format), _SET_EXPRS.map("principal:{}".format)
)


class TestGrammarFuzz:
    @settings(deadline=None)
    @given(st.one_of(_SCALAR_EXPRS, _one_char_inserted()), _FILTERS, st.sampled_from(["eval", "classify"]))
    def test_one_line_and_a_matching_exit_code(self, expression, filt, command):
        code, text = run_cli(command, f"--filter={filt}", "--", expression)
        lines = text.split("\n")
        assert len(lines) == 2 and lines[1] == "", text
        assert (code == 0) == (not lines[0].startswith("error:")), text

    @given(_SCALAR_EXPRS)
    def test_render_round_trips(self, expression):
        tree = parse(expression)
        assert parse(render(tree)) == tree
