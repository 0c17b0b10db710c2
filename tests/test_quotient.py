import random
from fractions import Fraction
from math import lcm

import pytest
from gen import (
    random_appreciable_rseq,
    random_ideal_member,
    random_infinite_rseq,
    random_infinitesimal_rseq,
    random_rseq,
)
from scan import branch_polys, horner, int_branches, root_free_beyond

from gscalars.errors import FilterMismatch, NotStandardizable, ZeroDivisor, ZeroScalar
from gscalars.exactnum import Poly, RatFun
from gscalars.quotient import (
    Classification,
    Scalar,
    archimedean_counterexample,
    classify,
    embed,
    le_set,
    leq,
    omega,
    scalar_eq,
    standard_part,
    try_invert,
)
from gscalars.sampling import random_nonempty_set, random_principal_filter, random_rat
from gscalars.seqrep import RSeq, indicator, make_constant, make_identity
from gscalars.sets_filters import FilterDescriptor, SetDescriptor

FRECHET = FilterDescriptor.frechet()


def poly(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


def harmonic_tail(overrides=None):
    return RSeq(1, [RatFun(poly(1), poly(1, 1))], overrides or {})


def far_branch(rng):
    """A branch whose real roots sit at a crossing r pushed out to 10^3..10^5."""
    r = int(10 ** rng.uniform(3, 5))
    kind = rng.randrange(4)
    if kind == 0:
        num = poly(-r, 1)
    elif kind == 1:
        num = poly(-r, 1) * poly(-r, 1)  # double root: touches 0 without crossing
    elif kind == 2:
        num = poly(-r, 1) * poly(-(r + rng.randint(1, 40)), 1)
    else:
        num = poly(-(2 * r + 1), 2) * poly(1, 0, 1)  # root r + 1/2, between naturals
    den = rng.choice([poly(1), poly(rng.randint(1, 9), 1), poly(1, 0, 1)])
    scale = rng.choice([1, -1, Fraction(3, 2), Fraction(-1, 4)])
    return RatFun(num.scale(scale), den), r


def far_rseq(rng):
    """(x, crossings): exceptions land near the crossings as well as near 0."""
    m = rng.randint(1, 3)
    branches, crossings = zip(*(far_branch(rng) for _ in range(m)))
    near = [rng.randint(0, 50)] + [r + rng.randint(-2, 2) for r in crossings]
    exceptions = {n: random_rat(rng) for n in rng.sample(near, rng.randint(0, len(near)))}
    return RSeq(m, list(branches), exceptions), list(crossings)


def pointwise_le(x, y, window):
    """[x(n) <= y(n) for n < window], exact in integer arithmetic off the exceptions."""
    xb, yb = int_branches(x), int_branches(y)
    special = set(x.exceptions) | set(y.exceptions)
    out = []
    for n in range(window):
        if n in special:
            out.append(x.eval(n) <= y.eval(n))
            continue
        xn, xd = (horner(c, n) for c in xb[n % x.modulus])
        yn, yd = (horner(c, n) for c in yb[n % y.modulus])
        # xn/xd <= yn/yd, both sides multiplied by (xd * yd)^2 > 0
        out.append(xn * xd * yd * yd <= yn * yd * xd * xd)
    return out


class TestScalarEq:
    def test_finite_disagreement_is_equal_under_frechet(self):
        x = Scalar(harmonic_tail({0: Fraction(7)}), FRECHET)
        y = Scalar(harmonic_tail(), FRECHET)
        assert scalar_eq(x, y)

    def test_same_pair_differs_under_principal_evens(self):
        f = FilterDescriptor.principal(SetDescriptor.evens())
        x = Scalar(harmonic_tail({0: Fraction(7)}), f)
        y = Scalar(harmonic_tail(), f)
        assert not scalar_eq(x, y)

    def test_evens_indicator_is_not_zero(self):
        x = Scalar(indicator(SetDescriptor.evens()), FRECHET)
        assert not scalar_eq(x, embed(0, FRECHET))

    def test_filter_mismatch(self):
        with pytest.raises(FilterMismatch):
            scalar_eq(embed(1, FRECHET), embed(1, FilterDescriptor.principal(SetDescriptor.odds())))


class TestEmbed:
    def test_zero_and_distinctness(self):
        assert scalar_eq(embed(0, FRECHET), Scalar(make_constant(0), FRECHET))
        filters = [FRECHET, FilterDescriptor.principal(SetDescriptor.finite({3}))]
        for f in filters:
            assert not scalar_eq(embed(1, f), embed(0, f))

    def test_homomorphism(self):
        rng = random.Random(97)
        for _ in range(40):
            a, b = random_rat(rng), random_rat(rng)
            assert scalar_eq(embed(a, FRECHET) + embed(b, FRECHET), embed(a + b, FRECHET))
            assert scalar_eq(embed(a, FRECHET) * embed(b, FRECHET), embed(a * b, FRECHET))

    def test_injectivity(self):
        rng = random.Random(101)
        for _ in range(40):
            a, b = random_rat(rng), random_rat(rng)
            assert scalar_eq(embed(a, FRECHET), embed(b, FRECHET)) == (a == b)
        for _ in range(10):
            f = random_principal_filter(rng)
            a, b = random_rat(rng), random_rat(rng)
            assert scalar_eq(embed(a, f), embed(b, f)) == (a == b)


class TestInvert:
    def test_reciprocal_of_ramp(self):
        a = Scalar(make_identity() + make_constant(1), FRECHET)
        inv = try_invert(a)
        assert inv.rep == harmonic_tail()
        assert scalar_eq(a * inv, embed(1, FRECHET))

    def test_zero_divisor_with_witness(self):
        a = Scalar(indicator(SetDescriptor.evens()), FRECHET)
        with pytest.raises(ZeroDivisor) as exc:
            try_invert(a)
        witness = exc.value.witness
        assert witness.rep == indicator(SetDescriptor.odds())
        assert not scalar_eq(witness, embed(0, FRECHET))
        assert scalar_eq(a * witness, embed(0, FRECHET))

    def test_zero_scalar(self):
        with pytest.raises(ZeroScalar):
            try_invert(embed(0, FRECHET))
        # zero in the quotient, not just the zero representative
        with pytest.raises(ZeroScalar):
            try_invert(Scalar(indicator(SetDescriptor.finite({2})), FRECHET))

    def test_invert_with_interior_zeros(self):
        # (n-3) has a zero at 3; inverse patches it and still works in A
        a = Scalar(RSeq(1, [RatFun(poly(-3, 1))]), FRECHET)
        inv = try_invert(a)
        assert inv.rep.eval(3) == 0
        assert inv.rep.eval(4) == 1
        assert scalar_eq(a * inv, embed(1, FRECHET))

    def test_principal_filter_invertibility(self):
        f = FilterDescriptor.principal(SetDescriptor.evens())
        a = Scalar(indicator(SetDescriptor.evens()), f)
        inv = try_invert(a)
        assert scalar_eq(a * inv, embed(1, f))
        # but the same class is a zero divisor when the base meets its zeros
        g = FilterDescriptor.principal(SetDescriptor.naturals())
        with pytest.raises(ZeroDivisor):
            try_invert(Scalar(indicator(SetDescriptor.evens()), g))

    def test_random_inverses_multiply_to_one(self):
        rng = random.Random(103)
        for _ in range(25):
            x = random_rseq(rng, 3, 2)
            a = Scalar(x, FRECHET)
            try:
                inv = try_invert(a)
            except (ZeroScalar, ZeroDivisor):
                continue
            assert scalar_eq(a * inv, embed(1, FRECHET))


class TestOrder:
    def test_embedded_below_omega(self):
        assert leq(embed(5, FRECHET), omega(FRECHET))

    def test_indicator_order_against_zero(self):
        a = Scalar(indicator(SetDescriptor.evens()), FRECHET)
        zero = embed(0, FRECHET)
        # the indicator never drops below 0, so 0 <= a; the reverse fails
        assert not leq(a, zero)
        assert le_set(a, zero) == SetDescriptor.odds()
        assert leq(zero, a)

    def test_disjoint_indicators_incomparable(self):
        a = Scalar(indicator(SetDescriptor.evens()), FRECHET)
        b = Scalar(indicator(SetDescriptor.odds()), FRECHET)
        assert le_set(a, b) == SetDescriptor.odds()
        assert le_set(b, a) == SetDescriptor.evens()
        assert not leq(a, b)
        assert not leq(b, a)

    def test_reflexive(self):
        rng = random.Random(107)
        for _ in range(20):
            a = Scalar(random_rseq(rng), FRECHET)
            assert leq(a, a)

    def test_le_set_matches_window(self):
        rng = random.Random(109)
        for _ in range(25):
            x, y = random_rseq(rng), random_rseq(rng)
            a, b = Scalar(x, FRECHET), Scalar(y, FRECHET)
            ls = le_set(a, b)
            for n in range(150):
                assert ls.member(n) == (x.eval(n) <= y.eval(n))

    def test_le_set_integer_crossings_and_double_root(self):
        # Class 0 is negative strictly between its roots 1000 and 1011 (only
        # 1000 is even); class 1 touches 0 at the double root 2001 only.
        branches = [RatFun(poly(-1000, 1) * poly(-1011, 1)), RatFun(poly(-2001, 1) * poly(-2001, 1))]
        x = Scalar(RSeq(2, branches), FRECHET)
        expected = SetDescriptor.finite([*range(1000, 1011, 2), 2001])
        assert le_set(x, embed(0, FRECHET)) == expected
        f = FilterDescriptor.principal(expected)
        assert leq(Scalar(x.rep, f), embed(0, f))

    def test_le_set_matches_scan_past_far_crossings(self):
        rng = random.Random(127)
        for _ in range(12):
            x, crossings = far_rseq(rng)
            y = rng.choice([
                lambda: far_rseq(rng)[0],
                lambda: random_rseq(rng, 3, 2),
                lambda: make_constant(random_rat(rng)),
            ])()
            near = SetDescriptor.finite(r + rng.randint(-1, 1) for r in crossings)
            base = rng.choice([random_nonempty_set(rng), near, near.union(SetDescriptor.evens())])
            period = lcm(x.modulus, y.modulus, base.modulus)
            horizon = max([*x.exceptions, *y.exceptions, max(base.plus | base.minus, default=0)])
            # Past `start` every class keeps one truth value.
            start = max(root_free_beyond(branch_polys(x - y)), horizon) + 1
            window = start + 2 * period
            truth = pointwise_le(x, y, window)
            if rng.random() < 0.3:
                # A finite base where the order holds, so that leq is true.
                held = [n for r in crossings for n in range(r - 3, r + 4) if n < window and truth[n]]
                base = SetDescriptor.finite(held[:3]) if held else base

            ls = le_set(Scalar(x, FRECHET), Scalar(y, FRECHET))
            assert [ls.member(n) for n in range(window)] == truth
            assert max(ls.plus | ls.minus, default=0) < start
            tail = truth[window - period:]
            assert leq(Scalar(x, FRECHET), Scalar(y, FRECHET)) == all(tail)
            f = FilterDescriptor.principal(base)
            expected = all(t for n, t in enumerate(truth) if base.member(n))
            assert leq(Scalar(x, f), Scalar(y, f)) == expected

    def test_long_deviation_runs_match_scan_under_infinite_bases(self):
        """Each class crosses 0 once or twice between 10^4 and 6*10^4, so
        le_set deviates from its tail on class runs of tens of thousands of points.
        Each run is kept as a segment, not as points, and leq under
        principal filters over infinite bases matches an integer scan."""
        rng = random.Random(131)
        outcomes = set()
        for _ in range(8):
            m = rng.randint(2, 3)
            # Half the cases fall below y on every class eventually.
            signs = [-1] * m if rng.random() < 0.5 else [rng.choice([1, -1]) for _ in range(m)]
            branches = []
            for sign in signs:
                c = rng.randint(10**4, 5 * 10**4)
                num = poly(-c, 1) if rng.random() < 0.5 else poly(-c, 1) * poly(-(c + rng.randint(1, 10**4)), 1)
                branches.append(RatFun(num.scale(sign * rng.choice([1, Fraction(2, 3)]))))
            exceptions = {rng.randint(0, 2 * 10**5): random_rat(rng) for _ in range(rng.randint(0, 2))}
            x = RSeq(m, branches, exceptions)
            y = make_constant(random_rat(rng))
            ls = le_set(Scalar(x, FRECHET), Scalar(y, FRECHET))
            assert len(ls.segments) <= 3 * m + 2 * len(exceptions)

            start = max(root_free_beyond(branch_polys(x - y)), *x.exceptions, 0) + 1
            window = start + 2 * 6 * m
            truth = pointwise_le(x, y, window)
            assert [ls.member(n) for n in range(window)] == truth
            outcomes.add(("frechet", all(truth[window - 6 * m:])))
            assert leq(Scalar(x, FRECHET), Scalar(y, FRECHET)) == all(truth[window - 6 * m:])

            r = rng.randrange(m)
            late_class = SetDescriptor(m, [r], flips=[(0, start, m, 1 << r)])  # class r from `start` on
            miss = [n for n in range(r, start, m) if not truth[n]]
            bases = [
                SetDescriptor(6, rng.sample(range(6), rng.randint(1, 5)), plus=[rng.randint(0, 300)]),
                SetDescriptor.residue_class(r, m),
                late_class,
                late_class.union(SetDescriptor.finite(rng.sample(miss, 1) if miss else [])),
                SetDescriptor.odds().union(SetDescriptor.finite(rng.sample(range(2 * 10**5), 3))),
                SetDescriptor.cofinite(rng.sample(range(2 * 10**5), 5)),
            ]
            for base in bases:
                f = FilterDescriptor.principal(base)
                expected = all(t for n, t in enumerate(truth) if base.member(n))
                outcomes.add(("principal", expected))
                assert leq(Scalar(x, f), Scalar(y, f)) == expected
        assert outcomes == {(kind, held) for kind in ("frechet", "principal") for held in (True, False)}

    def test_le_set_evaluations_grow_with_roots_not_crossing(self, monkeypatch):
        calls = 0
        evaluate = Poly.__call__

        def counting(self, n):
            nonlocal calls
            calls += 1
            return evaluate(self, n)

        a, w = embed(10**6, FRECHET), omega(FRECHET)
        monkeypatch.setattr(Poly, "__call__", counting)
        ls = le_set(a, w)
        assert calls < 200
        # 10^6 <= n + 1 exactly from n = 999999 on.
        assert (ls.modulus, ls.residues, ls.plus) == (1, frozenset({0}), frozenset())
        assert ls.minus == frozenset(range(10**6 - 1))

    def test_antisymmetric_transitive_translation(self):
        rng = random.Random(113)
        for _ in range(20):
            a = Scalar(random_rseq(rng, 2, 1), FRECHET)
            b = Scalar(random_rseq(rng, 2, 1), FRECHET)
            c = Scalar(random_rseq(rng, 2, 1), FRECHET)
            if leq(a, b) and leq(b, a):
                assert scalar_eq(a, b)
            if leq(a, b) and leq(b, c):
                assert leq(a, c)
            if leq(a, b):
                assert leq(a + c, b + c)
            nonneg = embed(abs(random_rat(rng)), FRECHET)
            if leq(a, b):
                assert leq(a * nonneg, b * nonneg)


class TestClassify:
    def test_omega_is_infinite(self):
        assert classify(omega(FRECHET)) is Classification.INFINITE

    def test_harmonic_is_infinitesimal(self):
        assert classify(Scalar(harmonic_tail(), FRECHET)) is Classification.INFINITESIMAL

    def test_mixed(self):
        x = indicator(SetDescriptor.evens()) * make_identity()
        assert classify(Scalar(x, FRECHET)) is Classification.MIXED

    def test_zero_and_appreciable(self):
        assert classify(embed(0, FRECHET)) is Classification.ZERO
        assert classify(Scalar(indicator(SetDescriptor.finite({5})), FRECHET)) is Classification.ZERO
        assert classify(embed(Fraction(-2, 7), FRECHET)) is Classification.APPRECIABLE
        assert classify(Scalar(indicator(SetDescriptor.evens()), FRECHET)) is Classification.APPRECIABLE

    def test_principal_relevance(self):
        # under Principal(evens) the odd branch is invisible
        f = FilterDescriptor.principal(SetDescriptor.evens())
        x = indicator(SetDescriptor.odds()) * make_identity()  # grows on odds only
        assert classify(Scalar(x, FRECHET)) is Classification.MIXED
        assert classify(Scalar(x, f)) is Classification.ZERO
        y = indicator(SetDescriptor.evens()) * make_identity() + make_constant(1)
        # Q^evens has no infinite class: y is unbounded on the evens but
        # below embed(2) at 0, so it is neither bounded nor infinite.
        assert classify(Scalar(y, f)) is Classification.MIXED

    def test_finite_principal_base(self):
        f = FilterDescriptor.principal(SetDescriptor.finite({2, 4}))
        assert classify(omega(f)) is Classification.APPRECIABLE
        assert classify(embed(0, f)) is Classification.ZERO

    def test_classification_algebra(self):
        rng = random.Random(127)
        for _ in range(20):
            inf_small = Scalar(random_infinitesimal_rseq(rng), FRECHET)
            appr = Scalar(random_appreciable_rseq(rng), FRECHET)
            inf_large = Scalar(random_infinite_rseq(rng), FRECHET)
            assert classify(inf_small) is Classification.INFINITESIMAL
            assert classify(appr) is Classification.APPRECIABLE
            assert classify(inf_large) is Classification.INFINITE
            assert classify(inf_small * appr) is Classification.INFINITESIMAL
            assert classify(inf_large * appr) is Classification.INFINITE


class TestStandardPart:
    def test_ratio(self):
        a = Scalar(RSeq(1, [RatFun(poly(3, 2), poly(1, 1))]), FRECHET)
        assert standard_part(a) == 2

    def test_identity_on_embedded(self):
        rng = random.Random(131)
        for _ in range(20):
            q = random_rat(rng)
            assert standard_part(embed(q, FRECHET)) == q
            f = random_principal_filter(rng)
            assert standard_part(embed(q, f)) == q

    def test_not_standardizable(self):
        with pytest.raises(NotStandardizable):
            standard_part(omega(FRECHET))
        with pytest.raises(NotStandardizable):
            standard_part(Scalar(indicator(SetDescriptor.evens()), FRECHET))

    def test_difference_is_infinitesimal_or_zero(self):
        rng = random.Random(137)
        for _ in range(20):
            a = Scalar(random_infinitesimal_rseq(rng), FRECHET) + embed(random_rat(rng), FRECHET)
            c = standard_part(a)
            assert classify(a - embed(c, FRECHET)) in (
                Classification.ZERO,
                Classification.INFINITESIMAL,
            )


def random_filter(rng):
    """frechet, frechet:B with B infinite, or principal:B with B finite or infinite."""
    form = rng.randrange(4)
    if form == 0:
        return FRECHET
    if form == 3:
        return FilterDescriptor.principal(SetDescriptor.finite(rng.sample(range(30), rng.randint(1, 3))))
    base = random_nonempty_set(rng)
    while base.is_finite():
        base = random_nonempty_set(rng)
    return FilterDescriptor(base, cofinite=form == 1)


def random_class(rng, f):
    """A scalar of each shape: small, appreciable, large, masked to a random
    set, or a rational plus a member of the ideal."""
    shape = rng.randrange(6)
    if shape == 5:
        return embed(random_rat(rng), f) + Scalar(random_ideal_member(rng, f), f)
    make = [random_infinitesimal_rseq, random_appreciable_rseq, random_infinite_rseq, random_rseq, random_rseq][shape]
    x = make(rng)
    if shape == 4:
        x = x * indicator(random_nonempty_set(rng))
    return Scalar(x, f)


class TestAgreementWithTheOrder:
    """`classify` and `standard_part` agree with `leq` and `scalar_eq` under
    every filter shape: x*x is compared with embed(k) and embed(1/k) over a
    ladder of k, which decides each class's defining inequalities up to the
    ladder's top."""

    LADDER = [Fraction(10) ** e for e in (0, 2, 4, 8, 16)]

    def test_classes_match_probes(self):
        rng = random.Random(163)
        seen = set()
        for _ in range(200):
            f = random_filter(rng)
            x = random_class(rng, f)
            sq = x * x
            small = all(leq(sq, embed(1 / k, f)) for k in self.LADDER)
            bounded = any(leq(sq, embed(k, f)) for k in self.LADDER)
            large = all(leq(embed(k, f), sq) for k in self.LADDER)
            zero = scalar_eq(x, embed(0, f))
            c = classify(x)
            seen.add((f.cofinite, c))
            assert (c is Classification.ZERO) == zero, (f, x)
            if c is Classification.INFINITESIMAL:
                assert small, (f, x)
            elif c is Classification.APPRECIABLE:
                assert bounded and not small, (f, x)
            elif c is Classification.INFINITE:
                assert large, (f, x)
            elif c is Classification.MIXED:
                assert not bounded and not large, (f, x)
        principal = {Classification.ZERO, Classification.APPRECIABLE, Classification.MIXED}
        assert seen == {(True, c) for c in Classification} | {(False, c) for c in principal}

    def test_standard_part_leaves_an_infinitesimal(self):
        rng = random.Random(167)
        for _ in range(200):
            f = random_filter(rng)
            x = random_class(rng, f)
            try:
                st = standard_part(x)
            except NotStandardizable:
                assert classify(x) not in (Classification.ZERO, Classification.INFINITESIMAL), (f, x)
                continue
            assert classify(x - embed(st, f)) in (Classification.ZERO, Classification.INFINITESIMAL), (f, x)


class TestWellDefinedness:
    def test_perturbation_by_ideal_members(self):
        rng = random.Random(139)
        for f in (FRECHET, FilterDescriptor.principal(SetDescriptor.odds())):
            for _ in range(15):
                a = Scalar(random_rseq(rng, 2, 1), f)
                b = Scalar(random_rseq(rng, 2, 1), f)
                a2 = Scalar(a.rep + random_ideal_member(rng, f), f)
                b2 = Scalar(b.rep + random_ideal_member(rng, f), f)
                assert scalar_eq(a, a2)
                assert scalar_eq(b, b2)
                assert scalar_eq(a + b, a2 + b2)
                assert scalar_eq(a * b, a2 * b2)


class TestRingAxioms:
    def test_ring_laws_modulo_eq(self):
        rng = random.Random(149)
        one, zero = embed(1, FRECHET), embed(0, FRECHET)
        for _ in range(20):
            a = Scalar(random_rseq(rng, 2, 1), FRECHET)
            b = Scalar(random_rseq(rng, 2, 1), FRECHET)
            c = Scalar(random_rseq(rng, 2, 1), FRECHET)
            assert scalar_eq((a + b) + c, a + (b + c))
            assert scalar_eq(a + b, b + a)
            assert scalar_eq(a + zero, a)
            assert scalar_eq(a + (-a), zero)
            assert scalar_eq((a * b) * c, a * (b * c))
            assert scalar_eq(a * b, b * a)
            assert scalar_eq(a * one, a)
            assert scalar_eq(a * (b + c), a * b + a * c)


class TestArchimedean:
    def test_positive_chain(self):
        report = archimedean_counterexample(50, FRECHET)
        assert report.ok, report.render()

    def test_k_equals_one(self):
        assert leq(embed(1, FRECHET), omega(FRECHET))
        assert not scalar_eq(embed(1, FRECHET), omega(FRECHET))

    def test_negative_control(self):
        # inside the embedded rationals the dominance breaks at k = 8
        seven = embed(7, FRECHET)
        for k in range(1, 8):
            assert leq(embed(k, FRECHET), seven)
        assert not leq(embed(8, FRECHET), seven)
