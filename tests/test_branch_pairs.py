"""Comparisons at infinity, and branch work done once per distinct branch.

Under a cofinite filter `leq` and `scalar_eq` read the tail of the sign set
of a - b without building a - b: for each residue class they compare the
two branches at infinity (`exactnum.compare_at_infinity`).  The reference
here builds the difference, as the comparisons did before, and reads each
class's leading coefficient.  The walks over residue classes
(`seqrep.map_classes`) do their work once per distinct branch, or pair of
branches, so a branch repeated over many classes costs one computation.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from gen import random_breaking_rseq, random_rseq
from hypothesis import given, settings, strategies as st

from gscalars import exactnum, expr, seqrep
from gscalars.errors import DegreeTooLarge
from gscalars.exactnum import Poly, RatFun, compare_at_infinity, sign
from gscalars.expr import evaluate_scalars, render_rseq
from gscalars.quotient import Scalar, leq, scalar_eq, try_invert
from gscalars.sampling import random_rat, random_set
from gscalars.seqrep import RSeq, indicator, make_constant
from gscalars.sets_filters import FilterDescriptor, SetDescriptor, lcm

SIGN_SETS = [frozenset(s) for k in (1, 2, 3) for s in itertools.combinations((-1, 0, 1), k)]
FRECHET = FilterDescriptor.frechet()
P = "n*n*n*n*n*n - 7*n*n*n + 3"


def poly(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


def difference_tail(x: RSeq, y: RSeq, signs) -> SetDescriptor:
    """The tail of { n | sign(x(n) - y(n)) in signs }, from the difference
    x - y built in full: the classes whose leading coefficient has a sign in
    `signs` (denominators are monic)."""
    d = x - y
    return SetDescriptor(d.modulus, [r for r, br in enumerate(d.branches) if sign(br.num.lead) in signs])


def _perturbation(rng: random.Random, kind: str) -> RSeq:
    """A sequence to add to x: a constant (a tie over a shared denominator
    where x's branch grows), 1/(n + k) on every class or on some (a tie
    settled by cross-multiplication), or only overrides (no change at
    infinity)."""
    tiny = RSeq(1, [RatFun(poly(1), poly(rng.randint(1, 9), 1))])
    if kind == "constant":
        return make_constant(random_rat(rng) or 1)
    if kind == "infinitesimal":
        return tiny
    if kind == "some-classes":
        return tiny * indicator(SetDescriptor(rng.randint(2, 6), [0], plus=[rng.randint(0, 9)]))
    return RSeq(1, [RatFun.constant(0)], {rng.randint(0, 30): random_rat(rng) for _ in range(3)})


@st.composite
def operand_pairs(draw):
    """(x, y) from tests/gen.py, x with up to three branches repeated over as
    many as 60 classes: y is x itself, x plus a perturbation, or independent."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    x = random_breaking_rseq(rng, max_modulus=60) if rng.random() < 0.7 else random_rseq(rng)
    kind = draw(st.sampled_from(["same", "constant", "infinitesimal", "some-classes", "overrides", "independent"]))
    if kind == "same":
        return x, x
    if kind == "independent":
        return x, random_breaking_rseq(rng, max_modulus=12) if rng.random() < 0.5 else random_rseq(rng)
    return x, x + _perturbation(rng, kind)


def cofinite_filters(rng: random.Random) -> list[FilterDescriptor]:
    base = random_set(rng)
    while base.is_finite():
        base = random_set(rng)
    return [FRECHET, FilterDescriptor(base, cofinite=True)]


@settings(deadline=None, max_examples=150)
@given(operand_pairs(), st.integers(0, 2**32))
def test_tail_at_infinity_matches_the_difference(pair, seed):
    x, y = pair
    for signs in SIGN_SETS:
        expected = difference_tail(x, y, signs)
        assert x.sign_tail(signs, minus=y) == expected
        assert (x - y).sign_tail(signs) == expected
    for f in cofinite_filters(random.Random(seed)):
        a, b = Scalar(x, f), Scalar(y, f)
        assert leq(a, b) == f.contains(difference_tail(x, y, {-1, 0}))
        assert leq(b, a) == f.contains(difference_tail(y, x, {-1, 0}))
        assert scalar_eq(a, b) == f.contains(difference_tail(x, y, {0}))


class TestCompareAtInfinity:
    @pytest.mark.parametrize("f,g,expected", [
        (RatFun(poly(0, 1)), RatFun(poly(5)), 1),                      # degree gap
        (RatFun(poly(5)), RatFun(poly(0, 1)), -1),
        (RatFun(poly(0)), RatFun(poly(1), poly(1, 1)), -1),            # zero against a positive tail
        (RatFun(poly(0, 3)), RatFun(poly(7, 2)), 1),                   # leading coefficients
        (RatFun(poly(1, 1)), RatFun(poly(2, 1)), -1),                  # tie, one denominator
        (RatFun(poly(1), poly(1, 1)), RatFun(poly(1), poly(2, 1)), 1),  # tie, cross-multiplied
        (RatFun(poly(2, 1), poly(1, 1)), RatFun(poly(2, 1), poly(1, 1)), 0),
    ])
    def test_examples(self, f, g, expected):
        assert compare_at_infinity(f, g) == expected
        assert compare_at_infinity(g, f) == -expected

    def test_tie_past_the_degree_limit_is_refused(self):
        # (p + 1)/(p + 2) against (p + 3)/(p + 4), p = n^13: equal degrees and
        # leads, so the cross-multiplied numerators, of degree 26, decide.
        p = Poly([0] * 13 + [1])
        f = RatFun(p + poly(1), p + poly(2))
        g = RatFun(p + poly(3), p + poly(4))
        with pytest.raises(DegreeTooLarge):
            compare_at_infinity(f, g)

    def test_cross_multiplication_cancels_a_shared_factor(self):
        # A/(q*(n+1)) against (A+1)/(q*(n+2)), A = n^13 + 5 and q = n^12 + 1:
        # over the lcm of the denominators the cross products have degree 14,
        # while the product of the denominators would give degree 26.
        a, q = Poly([5] + [0] * 12 + [1]), Poly([1] + [0] * 11 + [1])
        f = RatFun(a, q * poly(1, 1))
        g = RatFun(a + poly(1), q * poly(2, 1))
        assert compare_at_infinity(f, g) == sign((f - g).num.lead) == 1


def _count_calls(monkeypatch, module, name) -> Counter:
    """Count the calls of module.name by the coefficients of their
    nonconstant polynomial argument."""
    calls = Counter()
    original = getattr(module, name)

    def counting(p):
        if p.degree > 0:
            calls[p.coeffs] += 1
        return original(p)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestOncePerDistinctBranch:
    """ind(1 mod 300) + P has 300 classes and two distinct branches, P + 1 and P."""

    @pytest.fixture
    def x(self):
        return evaluate_scalars([f"ind(1 mod 300) + {P}"], FRECHET)[0]

    def test_sign_walk_isolates_each_polynomial_once(self, monkeypatch, x):
        calls = _count_calls(monkeypatch, exactnum, "root_breaks")
        z = x.rep.zero_set()
        assert z.is_empty()
        assert len(calls) == 2 and set(calls.values()) == {1}

    def test_totality_and_rendering_isolate_each_denominator_once(self, monkeypatch, x):
        totality = _count_calls(monkeypatch, seqrep, "integer_roots_nonneg")
        inverse = try_invert(x)
        assert inverse.rep.modulus == 300
        assert len(totality) == 2 and set(totality.values()) == {1}
        rendering = _count_calls(monkeypatch, expr, "integer_roots_nonneg")
        render_rseq(inverse.rep)
        assert rendering == totality

    def test_merge_operates_once_per_distinct_branch_pair(self, monkeypatch):
        rng = random.Random(67)
        pairs = [(evaluate_scalars(["ind(1 mod 300)"], FRECHET)[0].rep, evaluate_scalars([P], FRECHET)[0].rep)]
        pairs += [(random_breaking_rseq(rng, max_modulus=60), random_breaking_rseq(rng, max_modulus=60)) for _ in range(10)]
        for x, y in pairs:
            distinct = {
                (id(x.branches[r % x.modulus]), id(y.branches[r % y.modulus]))
                for r in range(lcm(x.modulus, y.modulus))
            }
            for name in ("__add__", "__sub__", "__mul__"):
                calls = 0
                original = getattr(RatFun, name)

                def counting(self, other, original=original):
                    nonlocal calls
                    calls += 1
                    return original(self, other)

                monkeypatch.setattr(RatFun, name, counting)
                getattr(x, name)(y)
                monkeypatch.setattr(RatFun, name, original)
                assert calls == len(distinct), name
