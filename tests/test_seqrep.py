import itertools
import random
from fractions import Fraction

import pytest
from gen import random_breaking_rseq, random_rseq
from scan import branch_polys, horner, int_branches, root_free_beyond

from gscalars.errors import MissingException, ModulusTooLarge, NotConvergent, UnboundedSequence
from gscalars import seqrep
from gscalars.exactnum import Poly, RatFun, sign
from gscalars.sampling import random_convergent_rseq, random_nonempty_set, random_rat, random_set
from gscalars.seqrep import MAX_MODULUS, BSeqVerdict, RSeq, indicator, make_constant, make_identity
from gscalars.sets_filters import FilterDescriptor, SetDescriptor

WINDOW = 120


def poly(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


def seq_one_over_n_plus_1():
    return RSeq(1, [RatFun(poly(1), poly(1, 1))])


class TestConstructors:
    def test_constant(self):
        x = make_constant(Fraction(-3, 2))
        assert x.modulus == 1 and not x.exceptions
        assert x.prefix(4) == [Fraction(-3, 2)] * 4
        assert make_constant(1).prefix(3) == [1, 1, 1]

    def test_identity(self):
        nu = make_identity()
        assert nu.eval(0) == 0
        assert nu.eval(7) == 7
        assert nu.zero_set() == SetDescriptor.finite({0})

    def test_indicator(self):
        evens = indicator(SetDescriptor.evens())
        assert evens.prefix(5) == [1, 0, 1, 0, 1]
        assert indicator(SetDescriptor.empty()).is_zero()
        spike = indicator(SetDescriptor.finite({3}))
        assert spike.prefix(5) == [0, 0, 0, 1, 0]

    def test_indicator_matches_membership(self):
        rng = random.Random(3)
        for _ in range(25):
            m = rng.randint(1, 5)
            s = SetDescriptor(
                m,
                [r for r in range(m) if rng.random() < 0.5],
                plus=[rng.randint(0, 20) for _ in range(2)],
                minus=[rng.randint(0, 20) for _ in range(2)],
            )
            x = indicator(s)
            for n in range(60):
                assert x.eval(n) == (1 if s.member(n) else 0)

    def test_indicator_reads_the_residues_once(self, monkeypatch):
        """The tail is read once, not once per residue class."""
        reads = 0
        residues = SetDescriptor.residues

        def counting(s):
            nonlocal reads
            reads += 1
            return residues.fget(s)

        monkeypatch.setattr(SetDescriptor, "residues", property(counting))
        x = indicator(SetDescriptor(60, residues=(0, 7, 59), plus={1}, minus={7}))
        assert reads <= 1
        assert x.prefix(130) == [int(n == 1 or (n % 60 in (0, 7, 59) and n != 7)) for n in range(130)]

    def test_modulus_limit(self):
        at_limit = SetDescriptor.residue_class(0, MAX_MODULUS)
        assert indicator(at_limit).modulus == MAX_MODULUS
        with pytest.raises(ModulusTooLarge):
            indicator(SetDescriptor.residue_class(0, MAX_MODULUS + 1))
        with pytest.raises(ModulusTooLarge):
            RSeq(MAX_MODULUS + 1, [])
        with pytest.raises(ModulusTooLarge):
            indicator(SetDescriptor.residue_class(0, 9973)) * indicator(SetDescriptor.residue_class(0, 9967))

    def test_denominator_root_needs_exception(self):
        with pytest.raises(MissingException):
            RSeq(1, [RatFun(poly(1), poly(-3, 1))])  # 1/(n-3)
        x = RSeq(1, [RatFun(poly(1), poly(-3, 1))], {3: Fraction(0)})
        assert x.eval(3) == 0
        assert x.eval(4) == 1

    def test_canonicalization(self):
        # same branch at every residue folds to modulus 1
        f = RatFun(poly(0, 1))
        assert RSeq(2, [f, f]).modulus == 1
        # override equal to the branch value is pruned
        x = RSeq(1, [f], {5: Fraction(5)})
        assert not x.exceptions
        # overrides that disagree are kept
        y = RSeq(1, [f], {5: Fraction(6)})
        assert y.exceptions == {5: Fraction(6)}


class TestEval:
    def test_examples(self):
        assert make_identity().eval(5) == 5
        assert seq_one_over_n_plus_1().eval(3) == Fraction(1, 4)
        assert indicator(SetDescriptor.evens()).eval(4) == 1


class TestRingOps:
    def test_disjoint_support_product_is_zero(self):
        e1 = indicator(SetDescriptor.finite({0}))
        e2 = indicator(SetDescriptor.finite({1}))
        assert (e1 * e2).is_zero()
        evens, odds = indicator(SetDescriptor.evens()), indicator(SetDescriptor.odds())
        assert (evens * odds).is_zero()

    def test_additive_inverse(self):
        rng = random.Random(11)
        for _ in range(20):
            x = random_rseq(rng)
            assert (x + (-x)).is_zero()

    def test_pointwise_soundness(self):
        rng = random.Random(5)
        for _ in range(30):
            x, y = random_rseq(rng), random_rseq(rng)
            ns = [rng.randint(0, 10**4) for _ in range(5)] + list(range(12))
            s, p, d = x + y, x * y, x - y
            for n in ns:
                assert s.eval(n) == x.eval(n) + y.eval(n)
                assert p.eval(n) == x.eval(n) * y.eval(n)
                assert d.eval(n) == x.eval(n) - y.eval(n)
                assert (-x).eval(n) == -x.eval(n)

    def test_scale(self):
        x = random_rseq(random.Random(9))
        y = x.scale(Fraction(-2, 3))
        for n in range(40):
            assert y.eval(n) == x.eval(n) * Fraction(-2, 3)

    def test_ring_axioms_structural(self):
        rng = random.Random(23)
        for _ in range(15):
            x, y, z = (random_rseq(rng, max_modulus=3, max_degree=1) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z


class TestShift:
    def test_ramp_difference_is_one(self):
        nu = make_identity()
        assert nu.shift() - nu == make_constant(1)

    def test_constant_fixed(self):
        c = make_constant(Fraction(5, 3))
        assert c.shift() == c

    def test_support_slides_off(self):
        spike = indicator(SetDescriptor.finite({0}))
        assert spike.shift().is_zero()

    def test_pointwise(self):
        rng = random.Random(17)
        for _ in range(20):
            x = random_rseq(rng)
            sh = x.shift()
            for n in range(30):
                assert sh.eval(n) == x.eval(n + 1)


class TestZeroSet:
    def test_examples(self):
        assert make_constant(1).zero_set() == SetDescriptor.empty()
        two_roots = RSeq(1, [RatFun(poly(-3, 1) * poly(-5, 1))])
        expected = {n for n in range(11) if (n - 3) * (n - 5) == 0}
        assert set(two_roots.zero_set().elements()) == expected
        assert indicator(SetDescriptor.evens()).zero_set() == SetDescriptor.odds()

    def test_matches_window(self):
        rng = random.Random(29)
        subsets = [set(s) for k in (1, 2, 3) for s in itertools.combinations((-1, 0, 1), k)]
        for _ in range(30):
            x = random_rseq(rng)
            z = x.zero_set()
            signs = [(x.eval(n) > 0) - (x.eval(n) < 0) for n in range(WINDOW)]
            for n in range(WINDOW):
                assert z.member(n) == (x.eval(n) == 0)
            for subset in subsets:
                s = x.sign_set(subset)
                assert [s.member(n) for n in range(WINDOW)] == [v in subset for v in signs]

    def test_matches_pointwise_signs_across_denominator_breaks(self):
        # safe_denominator has no root above -1, so test_matches_window meets
        # no denominator break; here they sit among the numerator's breaks,
        # at naturals, fractions and irrationals, on up to 12 classes, then
        # on up to 60, where each branch repeats over many classes.
        rng = random.Random(43)
        subsets = [set(s) for k in (1, 2, 3) for s in itertools.combinations((-1, 0, 1), k)]
        for max_modulus in [12] * 80 + [60] * 40:
            x = random_breaking_rseq(rng, max_modulus)
            window = max(root_free_beyond(branch_polys(x)), *x.exceptions, 0) + 2 * x.modulus + 1
            signs = [sign(x.eval(n)) for n in range(window)]
            for subset in subsets:
                s = x.sign_set(subset)
                assert [s.member(n) for n in range(window)] == [v in subset for v in signs]

    def test_zero_set_walks_each_branch_once(self, monkeypatch):
        """The zero set reads one sign walk per branch and isolates no natural
        roots on its own."""
        x = RSeq(3, [RatFun(poly(-6, 1)), RatFun(poly(-16, 0, 1)), RatFun(poly(-1, 1), poly(2, 1))])
        calls = {"integer_roots_nonneg": 0, "sign_breaks": 0}

        def counting(name):
            original = getattr(seqrep, name)

            def wrapper(arg):
                calls[name] += 1
                return original(arg)
            return wrapper

        for name in calls:
            monkeypatch.setattr(seqrep, name, counting(name))
        z = x.sign_set({0})
        assert calls == {"integer_roots_nonneg": 0, "sign_breaks": 3}
        assert set(z.elements()) == {n for n in range(60) if x.eval(n) == 0} == {4, 6}

    def test_filter_holds_matches_sign_set(self):
        # A cofinite filter reads only sign_tail, which must be the tail of
        # sign_set; a principal filter reads all of sign_set.
        rng = random.Random(37)
        subsets = [set(s) for k in (1, 2, 3) for s in itertools.combinations((-1, 0, 1), k)]
        verdicts = set()
        for _ in range(40):
            x = random_rseq(rng, 3, 2)
            base = random_set(rng)
            while base.is_finite():
                base = random_set(rng)
            filters = [
                FilterDescriptor.frechet(),
                FilterDescriptor(base, cofinite=True),
                FilterDescriptor.principal(random_nonempty_set(rng)),
            ]
            for subset in subsets:
                s, tail = x.sign_set(subset), x.sign_tail(subset)
                assert (tail.modulus, tail.tail) == (s.modulus, s.tail)
                own = [FilterDescriptor(s, cofinite=True)] if not s.is_finite() else []
                for f in filters + own:
                    verdict = f.holds(x, subset)
                    assert verdict == f.contains(s)
                    verdicts.add(verdict)
        assert verdicts == {False, True}

    def test_algebraic_containments(self):
        rng = random.Random(31)
        for _ in range(20):
            x, y = random_rseq(rng, 3, 1), random_rseq(rng, 3, 1)
            zx, zy = x.zero_set(), y.zero_set()
            assert (x * y).zero_set().superset_of(zx)
            assert (x + y).zero_set().superset_of(zx.intersect(zy))
            assert (x * x + y * y).zero_set() == zx.intersect(zy)


class TestBoundedness:
    def test_examples(self):
        assert seq_one_over_n_plus_1().classify_bounded() == BSeqVerdict.convergent(0)
        assert indicator(SetDescriptor.evens()).classify_bounded() == BSeqVerdict.bounded_divergent()
        assert make_identity().classify_bounded() == BSeqVerdict.unbounded()

    def test_branch_limits_drive_verdict(self):
        # branch limits 1 and 0 computed independently
        x = indicator(SetDescriptor.evens())
        limits = {str(l) for l in x.branch_limits()}
        assert limits == {"1", "0"}

    def test_limit(self):
        assert make_constant(5).limit() == 5
        ratio = RSeq(1, [RatFun(poly(3, 2), poly(1, 1))])
        assert ratio.limit() == 2
        with pytest.raises(NotConvergent):
            indicator(SetDescriptor.evens()).limit()

    def test_exceptions_do_not_affect_verdict(self):
        x = RSeq(1, [RatFun(poly(1), poly(1, 1))], {0: Fraction(999)})
        assert x.classify_bounded() == BSeqVerdict.convergent(0)


class TestBounds:
    def window_bounds(self, x, hi=2000):
        vals = x.prefix(hi)
        limits = [l.value for l in x.branch_limits()]
        return min(vals + limits), max(vals + limits)

    def test_examples(self):
        x = seq_one_over_n_plus_1()
        assert x.sup_val() == 1
        assert x.inf_val() == 0
        c = make_constant(Fraction(7, 4))
        assert c.sup_val() == c.inf_val() == Fraction(7, 4)
        with pytest.raises(UnboundedSequence):
            make_identity().sup_val()

    def test_matches_window_scan(self):
        rng = random.Random(37)
        for _ in range(25):
            x = random_convergent_rseq(rng)
            lo, hi = self.window_bounds(x)
            assert x.inf_val() == lo
            assert x.sup_val() == hi

    def test_far_extremum_matches_window_scan(self):
        # c (n - r)(n - s) / (n^2 + 1) tends to c but turns back between its
        # roots, so each class is monotone only from about r on.
        rng = random.Random(47)
        for _ in range(8):
            m = rng.randint(1, 2)
            branches = []
            for _ in range(m):
                r = int(10 ** rng.uniform(3, 3.7))
                num = poly(-r, 1) * poly(-(r + rng.randint(0, 300)), 1)
                branches.append(RatFun(num.scale(rng.choice([1, -2, Fraction(1, 3)])), poly(1, 0, 1)))
            exceptions = {rng.randint(0, 40): random_rat(rng) for _ in range(rng.randint(0, 2))}
            x = RSeq(m, branches, exceptions)
            steps = [br.shift_arg(x.modulus) - br for br in x.branches]
            monotone = root_free_beyond([p for d in steps for p in (d.num, d.den) if not p.is_zero()])
            window = max(monotone, *x.exceptions, 0) + 2 * x.modulus
            ints = int_branches(x)
            values = [
                x.exceptions[n] if n in x.exceptions
                else Fraction(*(horner(c, n) for c in ints[n % x.modulus]))
                for n in range(window)
            ]
            limits = [l.value for l in x.branch_limits()]
            assert x.inf_val() == min(values + limits)
            assert x.sup_val() == max(values + limits)

    def test_far_extremum_costs_few_evaluations(self, monkeypatch):
        # n / ((n - c)^2 + 1) peaks at n = c; the bounds evaluate only the
        # points where a monotone run can end, not every point up to c.
        c = 10**5
        x = RSeq(1, [RatFun(poly(0, 1), poly(c * c + 1, -2 * c, 1))])
        calls = []
        evaluate = RSeq.eval
        monkeypatch.setattr(RSeq, "eval", lambda self, n: calls.append(n) or evaluate(self, n))
        assert (x.inf_val(), x.sup_val()) == (0, c)
        assert len(calls) < 200

    def test_limit_between_bounds(self):
        rng = random.Random(41)
        for _ in range(25):
            x = random_convergent_rseq(rng)
            assert x.inf_val() <= x.limit() <= x.sup_val()

    def test_shift_preserves_limit(self):
        rng = random.Random(43)
        for _ in range(25):
            x = random_convergent_rseq(rng)
            assert x.shift().limit() == x.limit()
