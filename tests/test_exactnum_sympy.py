"""Differential tests of root isolation, gcd and canonical forms against sympy.

sympy is in the `test` extra; the module is skipped where it is missing.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gscalars.exactnum import Poly, RatFun, _integer_form, _sturm_chain, _variations, integer_roots_nonneg, poly_gcd, root_breaks

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("n")
coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=12)
roots = st.fractions(min_value=-30, max_value=30, max_denominator=6)


@st.composite
def polys(draw):
    """Products of linear factors over Q (rational, repeated roots) and of
    random factors (irrational and complex roots), degree 1 to 8."""
    p = Poly([*draw(st.lists(coeffs, max_size=4)), draw(coeffs.filter(bool))])
    for r in draw(st.lists(roots, min_size=1 if p.degree <= 0 else 0, max_size=2)):
        for _ in range(draw(st.integers(1, 2))):
            p = p * Poly([-r, 1])
    return p


def sides():
    """A numerator or denominator: a polynomial of degree 1 to 8 from
    `polys`, a nonzero constant or zero."""
    return st.one_of(polys(), coeffs.map(Poly.constant))


def to_sympy(p: Poly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], X, domain="QQ")


def from_sympy(q) -> Poly:
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())])


slow = settings(deadline=None, max_examples=60)


@slow
@given(polys())
def test_breaks_are_ceilings_of_real_roots(p):
    real = sympy.real_roots(to_sympy(p))
    assert root_breaks(p) == sorted({int(sympy.ceiling(r)) for r in real if r > -1})


@slow
@given(polys())
def test_natural_roots(p):
    real = sympy.real_roots(to_sympy(p))
    assert integer_roots_nonneg(p) == {int(r) for r in real if r.is_integer and r >= 0}


@slow
@given(polys(), st.integers(-40, 40), st.integers(0, 80))
def test_sturm_counts_distinct_roots(p, lo, width):
    hi = lo + width
    chain = _sturm_chain(_integer_form(p))
    q = to_sympy(p)
    # count_roots counts the distinct real roots in [lo, hi]; the chain counts them in (lo, hi].
    expected = q.count_roots(lo, hi) - (q.eval(lo) == 0)
    assert _variations(chain, lo) - _variations(chain, hi) == expected


@slow
@given(polys(), polys(), st.lists(roots, max_size=3))
def test_gcd_is_the_monic_gcd(a, b, common):
    for r in common:
        a, b = a * Poly([-r, 1]), b * Poly([-r, 1])
    assert poly_gcd(a, b) == from_sympy(to_sympy(a).gcd(to_sympy(b)).monic())


@slow
@given(sides(), sides().filter(lambda p: not p.is_zero()), st.lists(roots, max_size=2))
def test_canonical_form_is_the_cancelled_quotient(a, b, common):
    for r in common:
        a, b = a * Poly([-r, 1]), b * Poly([-r, 1])
    num, den = sympy.fraction(sympy.cancel(to_sympy(a).as_expr() / to_sympy(b).as_expr()))
    num, den = sympy.Poly(num, X, domain="QQ"), sympy.Poly(den, X, domain="QQ")
    lc = den.LC()
    f = RatFun(a, b)
    assert (f.num, f.den) == (from_sympy(num.exquo_ground(lc)), from_sympy(den.monic()))
