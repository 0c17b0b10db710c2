import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from gscalars.errors import NonPolynomialTerms
from gscalars.exactnum import Poly, RatFun, rat
from gscalars.quotient import Classification, Scalar, classify, embed, scalar_eq, standard_part
from gscalars.sampling import random_poly_rseq
from gscalars.series import banach_bounds_check, partial_sums, shift_invariance_impossibility
from gscalars.seqrep import BSeqVerdict, RSeq, indicator, make_constant, make_identity
from gscalars.sets_filters import FilterDescriptor, SetDescriptor

FRECHET = FilterDescriptor.frechet()


def poly(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


def direct_sums(s: RSeq, count: int) -> list[Fraction]:
    out, running = [], Fraction(0)
    for n in range(count):
        running += s.eval(n)
        out.append(running)
    return out


@st.composite
def poly_rseqs(draw):
    """Polynomial branches of degree 0..6, zero branches included."""
    m = draw(st.integers(1, 6))
    rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    branches = [RatFun(Poly(draw(st.lists(rationals, max_size=7)))) for _ in range(m)]
    exceptions = draw(st.dictionaries(st.integers(0, 40), rationals, max_size=4))
    return RSeq(m, branches, exceptions)


def fit_shape(s: RSeq) -> tuple[int, int]:
    """(start, max_degree): the first index past every exception and the
    largest branch degree."""
    start = max(s.exceptions, default=-1) + 1
    return start, max(0, max(br.num.degree for br in s.branches))


def alternating() -> RSeq:
    """+1 on evens, -1 on odds."""
    return RSeq(2, [RatFun.constant(1), RatFun.constant(-1)])


class TestPartialSums:
    def test_sum_of_ones(self):
        x = partial_sums(make_constant(1))
        assert x == make_identity() + make_constant(1)

    def test_triangular_numbers(self):
        x = partial_sums(make_identity())
        expected = direct_sums(make_identity(), 1001)
        assert [x.eval(n) for n in range(1001)] == expected
        assert x.eval(1000) == 1000 * 1001 // 2

    def test_alternating_sums_to_even_indicator(self):
        x = partial_sums(alternating())
        assert x == indicator(SetDescriptor.evens())
        assert [x.eval(n) for n in range(1001)] == direct_sums(alternating(), 1001)

    def test_non_polynomial_rejected(self):
        s = RSeq(1, [RatFun(poly(1), poly(1, 1))])
        with pytest.raises(NonPolynomialTerms):
            partial_sums(s)

    def test_exceptions_shift_the_tail(self):
        s = RSeq(1, [RatFun.constant(1)], {3: rat(10)})
        x = partial_sums(s)
        assert [x.eval(n) for n in range(8)] == [1, 2, 3, 13, 14, 15, 16, 17]

    def test_random_match_direct_summation(self):
        rng = random.Random(151)
        for _ in range(20):
            s = random_poly_rseq(rng, 4, 3)
            x = partial_sums(s)
            expected = direct_sums(s, 300)
            assert [x.eval(n) for n in range(300)] == expected

    def test_recurrence(self):
        rng = random.Random(157)
        for _ in range(10):
            s = random_poly_rseq(rng, 3, 2)
            x = partial_sums(s)
            for _ in range(20):
                n = rng.randint(0, 10**3)
                assert x.eval(n + 1) - x.eval(n) == s.eval(n + 1)

    @given(poly_rseqs())
    def test_closed_form_matches_direct_summation(self, s):
        # The window reaches as far as partial_sums used to re-verify its
        # interpolation before trusting it.
        start, max_degree = fit_shape(s)
        horizon = start + s.modulus * (3 * max_degree + 10)
        x = partial_sums(s)
        assert [x.eval(n) for n in range(horizon)] == direct_sums(s, horizon)

    @given(poly_rseqs())
    def test_sums_only_the_interpolated_points(self, s):
        start, max_degree = fit_shape(s)
        evaluate = RSeq.eval
        calls = []

        def counting_eval(self, n):
            calls.append(n)
            return evaluate(self, n)

        with mock.patch.object(RSeq, "eval", counting_eval):
            partial_sums(s)
        assert len(calls) <= start + s.modulus * (max_degree + 2)

    def test_degree_six_modulus_six(self):
        rng = random.Random(163)
        branches = [RatFun(Poly([rat(rng.randint(-5, 5)) for _ in range(7)])) for _ in range(6)]
        s = RSeq(6, branches)
        x = partial_sums(s)
        assert [x.eval(n) for n in range(1001)] == direct_sums(s, 1001)


class TestClassifySeries:
    def test_zero_series(self):
        assert partial_sums(make_constant(0)).classify_bounded() == BSeqVerdict.convergent(0)

    def test_ones_diverge_unboundedly(self):
        assert partial_sums(make_constant(1)).classify_bounded() == BSeqVerdict.unbounded()

    def test_alternating_is_bounded_divergent(self):
        assert partial_sums(alternating()).classify_bounded() == BSeqVerdict.bounded_divergent()

    def test_eventually_zero_series_converges(self):
        s = RSeq(1, [RatFun.constant(0)], {0: rat(2), 3: rat(-5)})
        assert partial_sums(s).classify_bounded() == BSeqVerdict.convergent(-3)


class TestGeneralizedSum:
    def test_sum_of_ones_is_infinite(self):
        a = Scalar(partial_sums(make_constant(1)), FRECHET)
        assert classify(a) is Classification.INFINITE

    def test_sum_of_zero(self):
        a = Scalar(partial_sums(make_constant(0)), FRECHET)
        assert scalar_eq(a, embed(0, FRECHET))

    def test_alternating_sum_is_even_indicator_class(self):
        a = Scalar(partial_sums(alternating()), FRECHET)
        assert a.rep == indicator(SetDescriptor.evens())
        assert not scalar_eq(a, embed(0, FRECHET))
        assert a.rep.classify_bounded() == BSeqVerdict.bounded_divergent()

    def test_convergent_sum_has_matching_standard_part(self):
        s = RSeq(1, [RatFun.constant(0)], {0: rat(1, 2), 2: rat(1, 3)})
        sums = partial_sums(s)
        verdict = sums.classify_bounded()
        assert verdict.kind == BSeqVerdict.CONVERGENT
        assert standard_part(Scalar(sums, FRECHET)) == verdict.limit == rat(5, 6)

    def test_convergent_series_agree_with_limit_functional(self):
        # polynomial-branch series converge exactly when the terms have
        # finite support; the generalized value then standardizes to the sum
        rng = random.Random(181)
        for _ in range(20):
            terms = {rng.randint(0, 20): rat(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 5))}
            s = RSeq(1, [RatFun.constant(0)], terms)
            sums = partial_sums(s)
            verdict = sums.classify_bounded()
            assert verdict.kind == BSeqVerdict.CONVERGENT
            assert verdict.limit == sum(s.exceptions.values(), Fraction(0))
            assert standard_part(Scalar(sums, FRECHET)) == verdict.limit

    def test_linearity(self):
        rng = random.Random(173)
        for _ in range(15):
            s = random_poly_rseq(rng, 3, 2)
            t = random_poly_rseq(rng, 3, 2)
            lhs = Scalar(partial_sums(s + t), FRECHET)
            rhs = Scalar(partial_sums(s), FRECHET) + Scalar(partial_sums(t), FRECHET)
            assert scalar_eq(lhs, rhs)
            c = rat(rng.randint(-6, 6), rng.randint(1, 4))
            assert scalar_eq(
                Scalar(partial_sums(s.scale(c)), FRECHET),
                Scalar(partial_sums(s), FRECHET).scale(c),
            )


class TestImpossibilityChain:
    def test_all_steps_pass(self):
        report = shift_invariance_impossibility()
        assert report.ok, report.render()
        assert report.passed == 4
        assert any(line.startswith("CONCLUSION") for line in report.lines)

    def test_specific_steps(self):
        nu = make_identity()
        assert nu.shift() - nu == make_constant(1)
        assert (nu.shift() - nu).limit() == 1
        step4 = Scalar(nu.shift(), FRECHET) - Scalar(nu, FRECHET)
        assert scalar_eq(step4, embed(1, FRECHET))


class TestBanachBounds:
    def test_named_examples(self):
        harmonic = RSeq(1, [RatFun(poly(1), poly(1, 1))])
        assert harmonic.inf_val() == 0 <= harmonic.limit() <= 1 == harmonic.sup_val()
        c = make_constant(rat(5, 7))
        assert c.inf_val() == c.limit() == c.sup_val()
        ratio = RSeq(1, [RatFun(poly(3, 2), poly(1, 1))])
        assert ratio.inf_val() <= ratio.limit() == 2 <= ratio.sup_val()

    def test_report_on_random_convergent(self):
        from gscalars.sampling import random_convergent_rseq

        rng = random.Random(179)
        samples = [random_convergent_rseq(rng) for _ in range(40)]
        report = banach_bounds_check(samples)
        assert report.ok, report.render()
