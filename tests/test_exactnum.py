from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, strategies as st
from scan import horner, integer_coeffs, root_free_beyond

from gscalars import exactnum
from gscalars.errors import DegreeTooLarge, ZeroDenominator, ZeroPolynomial
from gscalars.exactnum import (
    MAX_DEGREE,
    MINUS_INFINITY,
    PLUS_INFINITY,
    ExtendedRat,
    Poly,
    RatFun,
    eventual_sign,
    integer_roots_nonneg,
    limit_at_infinity,
    poly_gcd,
    poly_interpolate,
    root_bound,
    root_breaks,
    sign_breaks,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
small_rats = st.fractions(min_value=-50, max_value=50, max_denominator=20)
far_rats = st.fractions(min_value=-(10**5), max_value=10**5, max_denominator=7)
fine_rats = st.fractions(min_value=-60, max_value=60, max_denominator=10**3)
# n^2 + c with c > 0: a factor without real roots.
no_real_root_shifts = st.fractions(min_value=Fraction(1, 20), max_value=50, max_denominator=20)
leads = st.fractions(min_value=-20, max_value=20, max_denominator=50).filter(bool)


def poly_from(coeffs):
    return Poly([Fraction(c) for c in coeffs])


def ratfun(num, den=(1,)):
    return RatFun(poly_from(num), poly_from(den))


def poly_with_roots(roots, shifts=(), lead=1):
    """lead * prod(n - r) * prod(n^2 + c): its real roots are exactly `roots`."""
    p = Poly.constant(lead)
    for r in roots:
        p = p * poly_from([-r, 1])
    for c in shifts:
        p = p * poly_from([c, 0, 1])
    return p


@st.composite
def factored_polys(draw, roots=st.one_of(small_rats, far_rats, fine_rats)):
    """(real roots with multiplicity, their polynomial) of degree at most 8.

    Each drawn root gets multiplicity 1 to 3, and the leading coefficient
    may be negative or fractional.
    """
    shifts = draw(st.lists(no_real_root_shifts, max_size=2))
    degree = 2 * len(shifts)
    real = []
    for r in draw(st.lists(roots, max_size=6)):
        k = min(draw(st.integers(1, 3)), 8 - degree)
        real += [r] * k
        degree += k
    return real, poly_with_roots(real, shifts, draw(leads))


class TestRatField:
    @given(rationals, rationals, rationals)
    def test_add_mul_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(rationals)
    def test_inverses(self, a):
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1

    @given(rationals)
    def test_canonical_form(self, a):
        import math

        assert a.denominator >= 1
        assert math.gcd(abs(a.numerator), a.denominator) == 1

    def test_rendering(self):
        assert str(Fraction(3, 2)) == "3/2"
        assert str(Fraction(5)) == "5"
        assert str(Fraction(-7, 3)) == "-7/3"


class TestPoly:
    def test_canonical_trailing_zeros(self):
        assert poly_from([1, 2, 0, 0]) == poly_from([1, 2])
        assert poly_from([0, 0]).is_zero()
        assert poly_from([]).degree == -1

    @given(st.lists(small_rats, max_size=5), st.lists(small_rats, max_size=5), st.integers(-20, 20))
    def test_pointwise_ops(self, a, b, n):
        p, q = poly_from(a), poly_from(b)
        assert (p + q)(n) == p(n) + q(n)
        assert (p * q)(n) == p(n) * q(n)
        assert (-p)(n) == -p(n)

    def test_shift_arg(self):
        p = poly_from([1, -3, 2])  # 2n^2 - 3n + 1
        shifted = p.shift_arg(1)
        for n in range(10):
            assert shifted(n) == p(n + 1)

    def test_gcd(self):
        a = poly_from([-3, 1]) * poly_from([-5, 1])
        b = poly_from([-3, 1]) * poly_from([2, 1])
        assert poly_gcd(a, b) == poly_from([-3, 1])
        assert poly_gcd(poly_from([]), poly_from([])).is_zero()
        assert poly_gcd(poly_from([]), b * Poly.constant(-2)) == b
        assert poly_gcd(a, poly_from([]).scale(3)) == a
        assert poly_gcd(a, poly_from([Fraction(-2, 7)])) == Poly.constant(1)
        assert poly_gcd(poly_from([]), poly_from([5])) == Poly.constant(1)

    def test_interpolation_roundtrip(self):
        p = poly_from([Fraction(1, 2), -2, 0, Fraction(3, 7)])
        pts = [(n, p(n)) for n in range(4)]
        assert poly_interpolate(pts) == p

    def test_degree_limit(self, monkeypatch):
        power, x = poly_from([0] * MAX_DEGREE + [1]), Poly.identity()
        assert (power * Poly.constant(3)).degree == MAX_DEGREE
        assert poly_interpolate([(n, n) for n in range(MAX_DEGREE + 1)]) == x
        # Refused before the result is built: Fraction is never called.
        monkeypatch.setattr(exactnum, "Fraction", None)
        with pytest.raises(DegreeTooLarge):
            power * x
        with pytest.raises(DegreeTooLarge):
            poly_interpolate([(n, n) for n in range(MAX_DEGREE + 2)])


def monic(p: Poly) -> Poly:
    return p.scale(1 / p.lead) if not p.is_zero() else p


def fraction_remainder(a: Poly, b: Poly) -> Poly:
    """a mod b by long division in Fraction arithmetic, for a nonzero b."""
    rem = list(a.coeffs)
    while len(rem) >= len(b.coeffs):
        f = rem[-1] / b.lead
        for i, c in enumerate(b.coeffs):
            rem[len(rem) - len(b.coeffs) + i] -= f * c
        rem.pop()
    return Poly(rem)


def fraction_gcd(a: Poly, b: Poly) -> Poly:
    """Reference: the monic gcd by Euclid's algorithm in Fraction arithmetic."""
    while not b.is_zero():
        a, b = b, monic(fraction_remainder(a, b))
    return monic(a)


gcd_coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=10**3)


@st.composite
def gcd_polys(draw, max_degree):
    """A polynomial of degree at most max_degree with denominators up to
    10^3 and a nonzero, possibly negative, leading coefficient."""
    lower = draw(st.lists(gcd_coeffs, max_size=max_degree))
    return poly_from([*lower, draw(gcd_coeffs.filter(bool))])


@st.composite
def planted_gcd_cases(draw):
    """(a, b, c): a*c and b*c have degree at most 10, c at most 4."""
    c = draw(gcd_polys(4))
    a = draw(gcd_polys(10 - c.degree))
    b = draw(gcd_polys(10 - c.degree))
    return a, b, c


class TestGcd:
    """poly_gcd runs a primitive pseudo-remainder sequence over Z; the monic
    gcd over Q is unique, so it must equal the Fraction Euclid's."""

    @given(planted_gcd_cases())
    def test_planted_factor_matches_fraction_euclid(self, case):
        a, b, c = case
        expected = fraction_gcd(a * c, b * c)
        assert poly_gcd(a * c, b * c) == expected
        assert poly_gcd(b * c, a * c) == expected
        assert poly_gcd(a * c, -b) == fraction_gcd(a * c, -b)
        assert fraction_remainder(expected, c).is_zero()

    @given(planted_gcd_cases())
    def test_canonical_form_cancels_planted_factor(self, case):
        a, b, c = case
        assert RatFun(a * c, b * c) == RatFun(a, b)

    def test_no_fraction_division(self):
        """Gcds and canonical forms divide only integer polynomials: Poly has no division."""
        assert not hasattr(Poly, "__divmod__")
        assert not hasattr(Poly, "__floordiv__")
        a = poly_from([-3, 1]) * poly_from([Fraction(1, 3), 0, Fraction(-5, 2)])
        b = poly_from([-3, 1]) * poly_from([Fraction(7, 4), -2])
        assert poly_gcd(a, b) == poly_from([-3, 1])
        assert poly_gcd(a * a, a * b) == monic(a * poly_from([-3, 1]))
        assert RatFun(a * a, a * b) == RatFun(a, b)


class TestIntegerRoots:
    def test_two_roots_vs_bruteforce(self):
        p = poly_from([-3, 1]) * poly_from([-5, 1])  # (n-3)(n-5)
        expected = frozenset(n for n in range(11) if p(n) == 0)
        assert expected == frozenset({3, 5})
        assert integer_roots_nonneg(p) == expected

    def test_no_real_roots(self):
        assert integer_roots_nonneg(poly_from([1, 0, 1])) == frozenset()

    def test_non_integer_root(self):
        assert integer_roots_nonneg(poly_from([-1, 2])) == frozenset()

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            integer_roots_nonneg(Poly())

    def test_root_zero_and_repeats(self):
        p = poly_from([0, 1]) * poly_from([0, 1]) * poly_from([-4, 1])
        assert integer_roots_nonneg(p) == frozenset({0, 4})

    def test_large_root(self):
        p = poly_from([-(10**9), 1])
        assert integer_roots_nonneg(p) == frozenset({10**9})

    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=4), st.lists(small_rats, max_size=3))
    def test_matches_window_scan(self, int_roots, extra):
        p = poly_from([1])
        for r in int_roots:
            p = p * poly_from([-r, 1])
        q = poly_from(extra)
        if not q.is_zero():
            p = p * q
        if p.is_zero():
            return
        window = root_bound(p) + 1
        (coeffs,) = integer_coeffs(p)
        expected = frozenset(n for n in range(window) if horner(coeffs, n) == 0)
        assert integer_roots_nonneg(p) == expected


class TestRootBreaks:
    def test_examples(self):
        assert root_breaks(poly_from([-3, 1]) * poly_from([-5, 1])) == [3, 5]
        assert root_breaks(poly_from([-7, 2])) == [4]  # root 7/2 in (3, 4]
        assert root_breaks(poly_from([1, 2])) == [0]  # root -1/2 in (-1, 0]
        assert root_breaks(poly_from([1, 1])) == []  # root -1 is below every break
        assert root_breaks(poly_from([1, 0, 1])) == []
        assert root_breaks(poly_from([5])) == []
        with pytest.raises(ZeroPolynomial):
            root_breaks(Poly())

    @given(factored_polys())
    def test_breaks_bracket_every_root(self, case):
        roots, p = case
        # c is a break exactly when some real root lies in (c - 1, c].
        assert root_breaks(p) == sorted({ceil(x) for x in roots if x > -1})

    @given(factored_polys(st.one_of(small_rats, fine_rats)))
    def test_breaks_match_window_scan(self, case):
        _, p = case
        breaks = set(root_breaks(p))
        top = root_free_beyond([p])  # no real root above it, so no break either
        assert breaks <= set(range(top + 1))
        (coeffs,) = integer_coeffs(p)
        values = [horner(coeffs, n) for n in range(top + 2)]
        assert integer_roots_nonneg(p) == {n for n, v in enumerate(values) if v == 0}
        for c, v in enumerate(values):
            if c in breaks:
                continue
            # No root in (c - 1, c]: p(c) is nonzero and p keeps its sign from c - 1.
            assert v != 0
            assert c == 0 or values[c - 1] * v >= 0

    def test_no_fraction_polynomial_work(self, monkeypatch):
        # 2/3 (n - 3/2)^2 (n - 7) (n^2 + 1/5): degree 5, rational coefficients, a double root.
        p = poly_with_roots([Fraction(3, 2), Fraction(3, 2), 7], [Fraction(1, 5)], Fraction(2, 3))
        calls = []
        evaluate, gcd = Poly.__call__, exactnum.poly_gcd
        monkeypatch.setattr(Poly, "__call__", lambda self, x: calls.append("eval") or evaluate(self, x))
        monkeypatch.setattr(exactnum, "poly_gcd", lambda a, b: calls.append("gcd") or gcd(a, b))
        assert root_breaks(p) == [2, 7]
        assert integer_roots_nonneg(p) == frozenset({7})
        assert calls == []

    @given(
        st.lists(st.one_of(small_rats, far_rats), max_size=3),
        st.lists(small_rats, max_size=2),
        st.lists(no_real_root_shifts, max_size=1),
        st.sampled_from([1, -2, Fraction(1, 3)]),
    )
    def test_eventual_threshold_tight_and_sound(self, num_roots, den_roots, shifts, lead):
        f = RatFun(poly_with_roots(num_roots, shifts, lead), poly_with_roots(den_roots))
        breaks = sign_breaks(f)
        sign, n0 = eventual_sign(f)
        assert n0 == (breaks[-1] + 1 if breaks else 0)
        real = num_roots + den_roots
        assert n0 <= (max(0, ceil(max(real)) + 1) if real else 0)
        # Scan from the threshold to past the largest root, where the sign is final.
        num, den = integer_coeffs(f.num, f.den)
        top = max([n0, *(ceil(x) for x in real)]) + 10
        for n in range(n0, top):
            value = horner(num, n) * horner(den, n)
            assert (value > 0) - (value < 0) == sign


class TestRatFun:
    def test_canonical_monic_denominator(self):
        f = ratfun([0, 2], [2])  # 2n / 2 -> n
        assert f == ratfun([0, 1])
        g = ratfun([0, 2], [0, 0, 2])  # 2n / 2n^2 -> 1/n
        assert g == ratfun([1], [0, 1])

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominator):
            RatFun(Poly.constant(1), Poly())

    def test_constant_numerator(self):
        f = RatFun(Poly.constant(3), poly_from([2, 4]))  # 3 / (4n + 2)
        assert (f.num, f.den) == (poly_from([Fraction(3, 4)]), poly_from([Fraction(1, 2), 1]))

    def test_constant_denominator(self):
        f = RatFun(poly_from([2, 4]), Poly.constant(-2))  # (4n + 2) / -2
        assert (f.num, f.den) == (poly_from([-1, -2]), poly_from([1]))

    @given(st.lists(small_rats, max_size=3), st.lists(small_rats, max_size=3), st.integers(0, 30))
    def test_pointwise_ops(self, a, b, n):
        f = RatFun(poly_from(a), poly_from([1, 0, 1]))
        g = RatFun(poly_from(b), poly_from([2, 1]))
        assert (f + g)(n) == f(n) + g(n)
        assert (f * g)(n) == f(n) * g(n)
        assert (-f)(n) == -f(n)


class TestLimitAtInfinity:
    def test_equal_degrees(self):
        assert limit_at_infinity(ratfun([1, 1], [0, 2])) == ExtendedRat.finite(Fraction(1, 2))

    def test_degree_drop(self):
        assert limit_at_infinity(ratfun([1], [1, 1])) == ExtendedRat.finite(0)

    def test_degree_growth(self):
        assert limit_at_infinity(ratfun([0, 0, 1], [1, 1])) == PLUS_INFINITY
        assert limit_at_infinity(ratfun([0, 0, -1], [1, 1])) == MINUS_INFINITY

    def test_zero(self):
        assert limit_at_infinity(ratfun([])) == ExtendedRat.finite(0)

    @given(st.lists(small_rats, max_size=4), st.lists(small_rats, max_size=4))
    def test_sum_of_finite_limits(self, a, b):
        f = RatFun(poly_from(a), poly_from([1, 1, 1]))
        g = RatFun(poly_from(b), poly_from([3, 0, 1]))
        lf, lg = limit_at_infinity(f), limit_at_infinity(g)
        if lf.is_finite and lg.is_finite:
            combined = limit_at_infinity(f + g)
            assert combined == ExtendedRat.finite(lf.value + lg.value)


class TestEventualSign:
    def test_positive_after_root(self):
        sign, n0 = eventual_sign(ratfun([-100, 1], [1, 1]))
        assert sign == 1 and n0 >= 101
        f = ratfun([-100, 1], [1, 1])
        for n in range(n0, n0 + 11):
            assert f(n) > 0

    def test_zero_function(self):
        assert eventual_sign(ratfun([])) == (0, 0)

    def test_negative_after_root(self):
        sign, n0 = eventual_sign(ratfun([3, -1], [1, 1]))
        assert sign == -1 and n0 >= 4
        f = ratfun([3, -1], [1, 1])
        for n in range(n0, n0 + 11):
            assert f(n) < 0

    @given(
        st.lists(small_rats, min_size=1, max_size=4),
        st.lists(small_rats, min_size=1, max_size=3),
        st.integers(0, 50),
    )
    def test_sign_holds_past_threshold(self, a, b, offset):
        num, den = poly_from(a), poly_from(b)
        if den.is_zero():
            return
        f = RatFun(num, den)
        sign, n0 = eventual_sign(f)
        n = n0 + offset
        value = f(n)
        assert (value > 0) == (sign == 1)
        assert (value < 0) == (sign == -1)
        assert (value == 0) == (sign == 0)
