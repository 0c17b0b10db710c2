import random
import sys
from fractions import Fraction

import pytest
from gen import random_rseq
from hypothesis import given, settings, strategies as st

from gscalars import expr as ex
from gscalars.errors import TypeMismatch, ZeroDivisor
from gscalars.quotient import Classification, Scalar, scalar_eq
from gscalars.seqrep import indicator, make_constant, make_identity
from gscalars.sets_filters import FilterDescriptor, SetDescriptor

FRECHET = FilterDescriptor.frechet()


def run(text, f=FRECHET):
    return ex.evaluate(ex.parse(text), f)


class TestParse:
    def test_sum_of_ones(self):
        node = ex.parse("sum(1)")
        assert node == ex.Call("sum", (ex.Lit(1),))

    def test_indicator_product(self):
        node = ex.parse("ind(0 mod 2) * ind(1 mod 2)")
        assert node == ex.BinOp("*", ex.Call("ind", (ex.SetMod(0, 2),)), ex.Call("ind", (ex.SetMod(1, 2),)))

    def test_shift_witness(self):
        node = ex.parse("shift(n) - n")
        assert node == ex.BinOp("-", ex.Call("shift", (ex.Var(),)), ex.Var())

    def test_precedence(self):
        assert ex.parse("1 + 2 * n") == ex.BinOp(
            "+", ex.Lit(1), ex.BinOp("*", ex.Lit(2), ex.Var())
        )
        assert ex.parse("(1 + 2) * n") == ex.BinOp(
            "*", ex.BinOp("+", ex.Lit(1), ex.Lit(2)), ex.Var()
        )

    def test_except_map(self):
        node = ex.parse("n except {0: 5, 3: -1/2}")
        assert node == ex.Except(
            ex.Var(), ((0, Fraction(5)), (3, Fraction(-1, 2)))
        )

    def test_set_sugar(self):
        assert ex.parse_set("evens") == ex.SetMod(0, 2)
        assert ex.parse_set("odds") == ex.SetMod(1, 2)
        assert ex.parse_set("cofinite~{3}") == ex.Unary("~", ex.SetLit((3,)))
        assert ex.parse_set("{3,5}") == ex.SetLit((3, 5))
        assert ex.parse_set("~{1}&{1,2}") == ex.BinOp(
            "&", ex.Unary("~", ex.SetLit((1,))), ex.SetLit((1, 2))
        )

    def test_syntax_error_positions(self):
        with pytest.raises(ex.SyntaxError) as err:
            ex.parse("1 + + 2")
        assert err.value.line == 1
        assert err.value.column == 5
        assert err.value.expected
        with pytest.raises(ex.SyntaxError):
            ex.parse("shift(n")
        with pytest.raises(ex.SyntaxError):
            ex.parse("ind(0 mod 0)")
        with pytest.raises(ex.SyntaxError):
            ex.parse("n except {0: 1/0}")

    @pytest.mark.parametrize("text", ["\u00b2", "1\u00b2", "\u00bd", "\u216b", "ind({\u00b2})"])
    def test_numeric_characters_that_are_not_decimal_digits(self, text):
        """Superscripts, fractions and Roman numerals are no integer literal."""
        with pytest.raises(ex.SyntaxError):
            ex.parse(text)

    def test_other_decimal_digits_are_literals(self):
        assert run("\u0661\u0662").rep == make_constant(12)

    def test_literal_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert ex.parse("7" * limit) == ex.Lit(int("7" * limit))
        with pytest.raises(ex.SyntaxError) as err:
            ex.parse("1 + " + "7" * (limit + 1))
        assert (err.value.line, err.value.column) == (1, 5)

    @pytest.mark.parametrize("text,position", [("1 +\n2 *\n  )", (3, 3)), ("1 +\n\n  ", (3, 3)), ("1 +  ", (1, 6))])
    def test_lines_and_columns(self, text, position):
        """Lines are counted at each newline; the end of input is past the last character."""
        with pytest.raises(ex.SyntaxError) as err:
            ex.parse(text)
        assert (err.value.line, err.value.column) == position


class TestRenderRoundTrip:
    CASES = [
        "sum(1)",
        "ind(0 mod 2) * ind(1 mod 2)",
        "shift(n) - n",
        "class(sum(1))",
        "eq(shift(n) - n, 1)",
        "1 + 2 * n - n * n",
        "-(n + 1) * 3",
        "n except {0: 5, 3: -1/2}",
        "invert(n except {0: 1})",
        "ind((0 mod 4|2 mod 8)&~{2})",
        "st(1 / (n + 1) + 7)",
        "le(5, sum(1))",
        "(n - 3) * invert((n + 1) except {0: 2})",
        "-(n * 2) + -n / -(n - 1)",
        "n - (1 - n) + (n + 1)",
        "n + (2 + n) - (n - 1)",
        "n / (n * 2) * (n / 3)",
        "n * (n / 2) / (n * 3)",
        "(n except {0: 1}) + -(n except {1: 2})",
        "ind(({1}|{2})&({3}&{4})|({5}|{6}))",
        "ind(~(0 mod 2&{1})|~({2}|{3})&~~{4})",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_render_parse(self, text):
        first = ex.parse(text)
        rendered = ex.render(first)
        assert ex.parse(rendered) == first

    def test_render_is_canonical_for_sets(self):
        node = ex.parse_set("(0 mod 2|1 mod 2)&~{4}")
        assert ex.parse_set(ex.render(node)) == node


# Random trees of both grammars, four levels deep, in the forms the parser
# builds: literals are nonnegative (a sign is a Unary), and set and override
# keys are sorted and unique.  Leaves appear only at the last level, so every
# tree mixes several operators.
_KEYS = st.lists(st.integers(0, 30), unique=True, max_size=4).map(sorted)
_OVERRIDES = st.lists(
    st.tuples(st.integers(0, 30), st.fractions(-20, 20, max_denominator=9)), unique_by=lambda kv: kv[0], max_size=3
).map(lambda items: tuple(sorted(items)))


def set_trees(depth=4):
    leaves = st.one_of(
        _KEYS.map(lambda keys: ex.SetLit(tuple(keys))),
        st.builds(ex.SetMod, st.integers(0, 12), st.integers(1, 12)),
    )
    if depth == 0:
        return leaves
    inner = set_trees(depth - 1)
    return st.one_of(
        st.builds(ex.Unary, st.just("~"), inner),
        st.builds(ex.BinOp, st.sampled_from("|&"), inner, inner),
    )


def scalar_trees(depth=4):
    leaves = st.one_of(st.builds(ex.Lit, st.integers(0, 10**6)), st.just(ex.Var()))
    if depth == 0:
        return leaves
    inner = scalar_trees(depth - 1)
    calls = st.sampled_from(sorted(ex.CALLS.items())).flatmap(
        lambda call: st.tuples(*[inner] * call[1]).map(lambda args: ex.Call(call[0], args))
    )
    wrapped = st.one_of(
        calls, set_trees(depth - 1).map(lambda s: ex.Call("ind", (s,))), st.builds(ex.Except, inner, _OVERRIDES)
    )
    return st.one_of(
        st.builds(ex.Unary, st.just("-"), inner), st.builds(ex.BinOp, st.sampled_from("+-*/"), inner, inner), wrapped
    )


class TestRenderRoundTripProperty:
    """The shared precedence table parenthesizes exactly where the parser needs it."""

    @settings(max_examples=400)
    @given(scalar_trees())
    def test_scalar_trees(self, tree):
        assert ex.parse(ex.render(tree)) == tree

    @given(set_trees())
    def test_set_trees(self, tree):
        assert ex.parse_set(ex.render(tree)) == tree


class TestEvaluate:
    def test_class_of_sum_of_ones(self):
        assert run("class(sum(1))") is Classification.INFINITE

    def test_shift_witness_equals_one(self):
        assert run("eq(shift(n) - n, 1)") is True

    def test_zero_divisor_error(self):
        with pytest.raises(ZeroDivisor) as err:
            run("invert(ind(0 mod 2))")
        assert ex.render_rseq(err.value.witness.rep) == "ind(1 mod 2)"

    def test_division_is_quotient_inversion(self):
        value = run("1 / (n + 1)")
        assert isinstance(value, Scalar)
        assert value.rep.eval(3) == Fraction(1, 4)
        assert run("st(3 / 2)") == Fraction(3, 2)

    def test_except_patches_values(self):
        value = run("(1 / (n - 3)) except {3: 9}")
        assert value.rep.eval(3) == 9
        assert value.rep.eval(5) == Fraction(1, 2)

    def test_limit_and_st(self):
        assert run("limit((2 * n + 3) / (n + 1))") == 2
        assert run("st((2 * n + 3) / (n + 1))") == 2

    def test_le(self):
        assert run("le(5, sum(1))") is True
        assert run("le(8, 7)") is False

    def test_fraction_results_reembed(self):
        assert run("st(1 / (n + 1) + 7) + 1") .rep == make_constant(8)

    def test_type_mismatch(self):
        with pytest.raises(TypeMismatch):
            run("eq(1, 1) + 2")

    def test_principal_filter_changes_answers(self):
        f = FilterDescriptor.principal(SetDescriptor.evens())
        assert run("eq(ind(0 mod 2), 1)", f) is True
        assert run("eq(ind(0 mod 2), 1)") is False


class TestValueRendering:
    def test_indicators(self):
        assert ex.render_rseq(indicator(SetDescriptor.odds())) == "ind(1 mod 2)"
        assert ex.render_rseq(make_constant(0)) == "0"
        assert ex.render_rseq(make_constant(Fraction(-3, 2))) == "-3 / 2"
        assert ex.render_rseq(make_identity()) == "n"

    def test_polynomials(self):
        x = make_identity() * make_identity() - make_constant(2)
        assert ex.render_rseq(x) == "n * n - 2"

    def test_value_roundtrip_random(self):
        rng = random.Random(191)
        for _ in range(30):
            x = random_rseq(rng, 3, 2)
            rendered = ex.render_rseq(x)
            back = ex.evaluate(ex.parse(rendered), FRECHET)
            assert isinstance(back, Scalar)
            for n in range(40):
                assert back.rep.eval(n) == x.eval(n)

    def test_value_roundtrip_under_principal_filter(self):
        rng = random.Random(193)
        f = FilterDescriptor.principal(SetDescriptor.evens())
        for _ in range(10):
            x = random_rseq(rng, 2, 2)
            rendered = ex.render_rseq(x)
            back = ex.evaluate(ex.parse(rendered), f)
            assert scalar_eq(back, Scalar(x, f))
