from math import lcm
from operator import and_, or_, xor

import pytest
from hypothesis import given, strategies as st

from gscalars import sets_filters
from gscalars.errors import InvalidFilter, ModulusTooLarge
from gscalars.sets_filters import (
    FilterDescriptor,
    SetDescriptor,
    _overlay,
    _spread,
    check_filter_axioms,
    minimal_period,
)

WINDOW = 200


@st.composite
def descriptors(draw, max_modulus=6, max_point=30):
    m = draw(st.integers(1, max_modulus))
    residues = draw(st.sets(st.integers(0, m - 1), max_size=m))
    plus = draw(st.sets(st.integers(0, max_point), max_size=4))
    minus = draw(st.sets(st.integers(0, max_point), max_size=4))
    return SetDescriptor(m, residues, plus=plus, minus=minus)


def window_set(s: SetDescriptor, hi: int = WINDOW) -> set[int]:
    return {n for n in range(hi) if s.member(n)}


class TestNormalization:
    def test_minimal_modulus(self):
        s = SetDescriptor(4, residues=(0, 2))
        assert s.modulus == 2 and s.residues == frozenset({0})

    def test_redundant_plus_dropped(self):
        s = SetDescriptor(2, residues=(0,), plus=(4,))
        assert s == SetDescriptor.evens()

    def test_minus_outside_classes_dropped(self):
        s = SetDescriptor(2, residues=(0,), minus=(3,))
        assert s == SetDescriptor.evens()

    def test_full_pattern_folds_to_modulus_one(self):
        s = SetDescriptor(3, residues=(0, 1, 2))
        assert s.modulus == 1 and s.is_naturals()

    @given(descriptors(), descriptors())
    def test_structural_equality_is_semantic(self, a, b):
        same_window = window_set(a) == window_set(b)
        if a == b:
            assert same_window
        if not same_window:
            assert a != b


class TestPredicates:
    def test_finite_and_cofinite(self):
        assert SetDescriptor.finite({1, 5}).is_finite()
        assert not SetDescriptor.odds().is_finite()
        assert SetDescriptor.cofinite({3}).is_cofinite()
        assert not SetDescriptor.evens().is_cofinite()

    def test_superset_examples(self):
        assert SetDescriptor.evens().superset_of(SetDescriptor.finite({0, 2, 4}))
        assert not SetDescriptor.evens().superset_of(SetDescriptor.finite({1}))

    def test_elements(self):
        assert SetDescriptor.finite({5, 1}).elements() == [1, 5]
        with pytest.raises(ValueError):
            SetDescriptor.evens().elements()

    def test_sample(self):
        assert SetDescriptor.odds().sample(4) == [1, 3, 5, 7]


class TestBooleanAlgebra:
    def test_complement_of_evens(self):
        assert SetDescriptor.evens().complement() == SetDescriptor.odds()

    def test_disjoint_intersection(self):
        assert SetDescriptor.evens().intersect(SetDescriptor.odds()).is_empty()

    def test_union_then_intersect(self):
        evens_plus_one = SetDescriptor.evens().union(SetDescriptor.finite({1}))
        got = evens_plus_one.intersect(SetDescriptor.odds())
        expected = {n for n in range(21) if (n % 2 == 0 or n == 1) and n % 2 == 1}
        assert window_set(got, 21) == expected
        assert got == SetDescriptor.finite({1})

    @given(descriptors(12, 60), descriptors(12, 60))
    def test_ops_match_pointwise(self, a, b):
        # Past the last finite point of the operands and the result every
        # set is periodic with period dividing their lcm, so four periods
        # beyond it decide agreement everywhere.
        for result, expected, operands in [
            (a.union(b), lambda n: a.member(n) or b.member(n), (a, b)),
            (a.intersect(b), lambda n: a.member(n) and b.member(n), (a, b)),
            (a.complement(), lambda n: not a.member(n), (a,)),
        ]:
            sets = (*operands, result)
            last = max((n for s in sets for n in s.plus | s.minus), default=0)
            window = range(4 * lcm(*(s.modulus for s in sets)) + last + 1)
            assert [result.member(n) for n in window] == [expected(n) for n in window]

    @given(descriptors(), descriptors())
    def test_de_morgan(self, a, b):
        assert a.union(b).complement() == a.complement().intersect(b.complement())
        assert a.intersect(b).complement() == a.complement().union(b.complement())

    @given(descriptors())
    def test_complement_involution(self, a):
        assert a.complement().complement() == a

    @given(descriptors(), descriptors())
    def test_superset_matches_window(self, a, b):
        assert a.superset_of(b) == (window_set(b) <= window_set(a))


class TestFilters:
    def test_frechet_membership(self):
        fr = FilterDescriptor.frechet()
        assert fr.contains(SetDescriptor.cofinite({0, 1}))
        assert not fr.contains(SetDescriptor.evens())

    def test_principal_membership(self):
        f = FilterDescriptor.principal(SetDescriptor.evens())
        assert f.contains(SetDescriptor.evens().union(SetDescriptor.finite({1})))
        assert not f.contains(SetDescriptor.finite({0, 2}))

    def test_empty_principal_rejected(self):
        with pytest.raises(InvalidFilter):
            FilterDescriptor.principal(SetDescriptor.empty())

    @given(descriptors(), descriptors())
    def test_monotone(self, j, k):
        for f in (
            FilterDescriptor.frechet(),
            FilterDescriptor.principal(SetDescriptor.finite({2, 4})),
            FilterDescriptor.principal(SetDescriptor.odds()),
        ):
            if f.contains(j) and k.superset_of(j):
                assert f.contains(k)

    @given(descriptors())
    def test_frechet_is_not_principal(self, s):
        """For every nonempty S, removing one point of S from N separates the filters."""
        if s.is_empty():
            return
        fr = FilterDescriptor.frechet()
        pr = FilterDescriptor.principal(s)
        s0 = s.sample(1)[0]
        witness = SetDescriptor.cofinite({s0})
        assert fr.contains(witness)
        assert not pr.contains(witness)


class TestFilterAxiomsReport:
    def _random_family(self, seed: int, count: int) -> list[SetDescriptor]:
        import random

        rng = random.Random(seed)
        out = []
        for _ in range(count):
            m = rng.randint(1, 6)
            residues = [r for r in range(m) if rng.random() < 0.5]
            plus = [rng.randint(0, 30) for _ in range(rng.randint(0, 3))]
            minus = [rng.randint(0, 30) for _ in range(rng.randint(0, 3))]
            out.append(SetDescriptor(m, residues, plus=plus, minus=minus))
        out.append(SetDescriptor.naturals())
        out.append(SetDescriptor.cofinite({1, 2}))
        return out

    def test_frechet_passes(self):
        report = check_filter_axioms(FilterDescriptor.frechet(), self._random_family(7, 50))
        assert report.ok, report.render()

    def test_principal_passes(self):
        f = FilterDescriptor.principal(SetDescriptor.finite({2, 4}))
        report = check_filter_axioms(f, self._random_family(11, 50))
        assert report.ok, report.render()

    @pytest.mark.parametrize("principal", [False, True])
    def test_decides_each_sample_once(self, monkeypatch, principal):
        f = FilterDescriptor.principal(SetDescriptor.finite({2, 4})) if principal else FilterDescriptor.frechet()
        samples = self._random_family(13, 50)
        members = sum(f.contains(s) for s in samples)
        calls = []
        contains = FilterDescriptor.contains
        monkeypatch.setattr(FilterDescriptor, "contains", lambda self, s: calls.append(s) or contains(self, s))
        report = check_filter_axioms(f, samples)
        assert report.ok, report.render()
        # The two fixed axioms, one decision per sample, one per member pair's
        # meet; the superset-closure loop reuses the samples' decisions.
        assert len(calls) == 2 + len(samples) + members * (members + 1) // 2

    def test_report_lines_shape(self):
        report = check_filter_axioms(FilterDescriptor.frechet(), [SetDescriptor.naturals()])
        text = report.render()
        assert "PASS empty-set-excluded" in text
        assert text.endswith("passed, 0 failed")


class TestRendering:
    def test_render_examples(self):
        assert SetDescriptor.finite({3, 5}).render() == "{3,5}"
        assert SetDescriptor.evens().render() == "0 mod 2"
        assert SetDescriptor.empty().render() == "{}"
        assert SetDescriptor.cofinite({3}).render() == "0 mod 1&~{3}"

    @given(descriptors())
    def test_render_is_injective_on_window(self, a):
        # renders of unequal sets differ (render is canonical)
        b = a.complement()
        if a != b:
            assert a.render() != b.render()


# -- segments against an explicit-interval reference ---------------------------------


class Ref:
    """A set spelled out as a tail (m, residues) plus disjoint explicit
    intervals (start, stop, p, residues); n in an interval is a member iff
    n % p is in its residues, any other n iff n % m is in the tail's."""

    def __init__(self, m, tail, intervals):
        self.m, self.tail, self.intervals = m, frozenset(tail), intervals

    def __call__(self, n):
        for start, stop, p, residues in self.intervals:
            if start <= n < stop:
                return n % p in residues
        return n % self.m in self.tail

    def periods(self):
        return [self.m, *(p for _, _, p, _ in self.intervals)]

    def cuts(self):
        return [x for start, stop, _, _ in self.intervals for x in (start, stop)]

    def descriptor(self):
        """The same set through the public constructor, as flips against the tail."""
        flips = []
        for start, stop, p, residues in self.intervals:
            q = lcm(p, self.m)
            mask = sum(1 << r for r in range(q) if (r % p in residues) != (r % self.m in self.tail))
            flips.append((start, stop, q, mask))
        return SetDescriptor(self.m, self.tail, flips=flips)


@st.composite
def references(draw):
    # Short reaches make segments touch and overlap; long ones reach 10^6.
    reach = draw(st.sampled_from([40, 10**6]))
    m = draw(st.integers(1, 6))
    tail = draw(st.sets(st.integers(0, m - 1), max_size=m))
    cuts = sorted(draw(st.sets(st.integers(0, reach), max_size=8)))
    intervals = []
    for start, stop in zip(cuts[::2], cuts[1::2]):
        p = draw(st.integers(1, 6))
        intervals.append((start, stop, p, frozenset(draw(st.sets(st.integers(0, p - 1), max_size=p)))))
    return Ref(m, tail, intervals)


def pieces_agree(desc: SetDescriptor, expected, refs) -> bool:
    """desc matches the predicate `expected` everywhere.

    Between consecutive cuts of the references and of desc every set here
    is periodic with a period dividing L, so the first L points of each
    piece (and of the part past the last cut) decide it."""
    L = lcm(*(p for r in refs for p in r.periods()), desc.modulus, *(s[2] for s in desc.segments))
    cuts = sorted({0, *(c for r in refs for c in r.cuts()), *(c for s in desc.segments for c in s[:2])})
    ends = [*cuts[1:], cuts[-1] + L]
    return all(desc.member(n) == expected(n) for lo, hi in zip(cuts, ends) for n in range(lo, min(hi, lo + L)))


def probes(refs):
    """Points on both sides of every cut, where a wrong segment shows first."""
    return sorted({max(c + d, 0) for r in refs for c in r.cuts() for d in (-2, -1, 0, 1)} | {0, 1})


class FlipRef:
    """The constructor's own rule, point by point: the tail, flipped once by
    every flip run that covers n with its residue set, then `plus` made
    members and `minus` (but not `plus`) non-members."""

    def __init__(self, m, tail, flips, plus, minus):
        self.m, self.tail, self.flips, self.plus, self.minus = m, tail, flips, plus, minus

    def __call__(self, n):
        if n in self.plus:
            return True
        if n in self.minus:
            return False
        inside = n % self.m in self.tail
        for start, stop, p, mask in self.flips:
            if start <= n < stop and mask >> n % p & 1:
                inside = not inside
        return inside

    def periods(self):
        return [self.m, *(p for _, _, p, _ in self.flips)]

    def cuts(self):
        return [x for start, stop, _, _ in self.flips for x in (start, stop)] + [
            x for n in self.plus | self.minus for x in (n, n + 1)
        ]


@st.composite
def flip_references(draw):
    reach = draw(st.sampled_from([40, 10**6]))
    m = draw(st.integers(1, 6))
    flips = []
    for _ in range(draw(st.integers(0, 4))):
        start, stop = sorted(draw(st.lists(st.integers(0, reach), min_size=2, max_size=2)))
        p = draw(st.integers(1, 6))
        flips.append((start, stop, p, draw(st.integers(0, (1 << p) - 1))))
    points = st.sets(st.integers(0, reach), max_size=3)
    return FlipRef(m, draw(st.sets(st.integers(0, m - 1))), flips, draw(points), draw(points))


def assert_canonical(s: SetDescriptor) -> None:
    for (start, stop, _, _), (after, _, _, _) in zip(s.segments, s.segments[1:]):
        assert stop <= after
    tail = SetDescriptor(s.modulus, s.residues)
    for start, stop, p, pattern in s.segments:
        assert start < stop and 0 <= pattern < 1 << p
        # each segment begins and ends where the set leaves its tail
        assert s.member(start) != tail.member(start)
        assert s.member(stop - 1) != tail.member(stop - 1)
    assert tail.modulus == s.modulus


def parts(s: SetDescriptor) -> tuple:
    return s.modulus, s.tail, s.segments


def constructor_combine(s: SetDescriptor, t: SetDescriptor, op) -> SetDescriptor:
    """op(s, t) built by the public constructor: each `_overlay` run as a
    flip against the unfolded lcm tail, sorted, checked and folded again."""
    m = lcm(s.modulus, t.modulus)
    tail = op(_spread(s.tail, s.modulus, m), _spread(t.tail, t.modulus, m))
    flips = []
    for lo, hi, q, a, b in _overlay(s, t):
        r = lcm(q, m)
        flips.append((lo, hi, r, _spread(op(a, b), q, r) ^ _spread(tail, m, r)))
    return SetDescriptor(m, [r for r in range(m) if tail >> r & 1], flips=flips)


class TestSegmentsAgainstReference:
    @given(flip_references())
    def test_overlapping_flips_and_points(self, a):
        s = SetDescriptor(a.m, a.tail, plus=a.plus, minus=a.minus, flips=a.flips)
        assert pieces_agree(s, a, [a])

    @given(references())
    def test_descriptor_and_member(self, a):
        s = a.descriptor()
        assert pieces_agree(s, a, [a])
        assert all(s.member(n) == a(n) for n in probes([a]))

    @given(references())
    def test_canonical_form(self, a):
        assert_canonical(a.descriptor())

    @given(references(), references())
    def test_boolean_results_are_canonical(self, a, b):
        sa, sb = a.descriptor(), b.descriptor()
        for s in (sa.union(sb), sa.intersect(sb), sa.complement()):
            assert_canonical(s)

    @given(references(), references())
    def test_union_intersect_complement(self, a, b):
        sa, sb = a.descriptor(), b.descriptor()
        assert pieces_agree(sa.union(sb), lambda n: a(n) or b(n), [a, b])
        assert pieces_agree(sa.intersect(sb), lambda n: a(n) and b(n), [a, b])
        assert pieces_agree(sa.complement(), lambda n: not a(n), [a])

    @given(references(), references())
    def test_superset_and_equality(self, a, b):
        sa, sb = a.descriptor(), b.descriptor()
        refs = [a, b]
        L = lcm(*(p for r in refs for p in r.periods()))
        cuts = sorted({0, *a.cuts(), *b.cuts()})
        points = [n for lo, hi in zip(cuts, [*cuts[1:], cuts[-1] + L]) for n in range(lo, min(hi, lo + L))]
        assert sa.superset_of(sb) == all(a(n) or not b(n) for n in points)
        assert (sa == sb) == all(a(n) == b(n) for n in points)
        if sa == sb:
            assert hash(sa) == hash(sb)

    @given(references(), references())
    def test_combine_matches_constructor(self, a, b):
        sa, sb = a.descriptor(), b.descriptor()
        for op in (and_, or_, xor):
            got, want = sa._combine(sb, op), constructor_combine(sa, sb, op)
            assert parts(got) == parts(want)
            assert got == want and hash(got) == hash(want)

    def test_one_point_runs_over_different_periods(self):
        a = SetDescriptor(6, (1,), plus={8})  # {8} | 1 mod 6
        b = SetDescriptor(4, (0,), plus={7})  # 0 mod 4 | {7}
        # 7 and 8 are one-point runs, each against the other set's tail.
        assert [run[:3] for run in _overlay(a, b)] == [(7, 8, 1), (8, 9, 1)]
        meet = a.intersect(b)
        assert parts(meet) == (1, 0, ((7, 9, 1, 1),))
        for op in (and_, or_, xor):
            got, want = a._combine(b, op), constructor_combine(a, b, op)
            assert parts(got) == parts(want)
            assert all(got.member(n) == op(a.member(n), b.member(n)) for n in range(48))

    def test_equal_sets_cut_differently(self):
        run = SetDescriptor(1, flips=[(5, 8, 2, 0b10)])  # the odd points of [5, 8)
        points = SetDescriptor.finite({5, 7})
        assert run.segments != points.segments
        assert run == points and hash(run) == hash(points)
        assert run != SetDescriptor.finite({5}) and run != SetDescriptor.finite({5, 6, 7})

    @given(references(), references())
    def test_filter_contains(self, a, b):
        sa, sb = a.descriptor(), b.descriptor()
        L = lcm(*a.periods())
        assert FilterDescriptor.frechet().contains(sa) == all(a(n) for n in range(10**6 + 1, 10**6 + 1 + L))
        if not sb.is_empty():
            assert FilterDescriptor.principal(sb).contains(sa) == sa.superset_of(sb)

    def test_far_segments_cost_no_points(self):
        """A run of a million points is one segment, and every operation on it
        answers without listing them."""
        run = SetDescriptor(1, flips=[(10**6, 10**12, 1, 1)])
        assert run.segments == ((10**6, 10**12, 1, 1),)
        evens = SetDescriptor.evens()
        both = run.intersect(evens)
        assert both.segments == ((10**6, 10**12 - 1, 2, 1),)
        assert both.member(10**9) and not both.member(10**9 + 1) and not both.member(10**12)
        assert run.union(evens).complement().segments == ((10**6 + 1, 10**12, 1, 0),)
        assert evens.superset_of(both) and not evens.superset_of(run)
        assert FilterDescriptor.principal(both).contains(run)
        assert not FilterDescriptor.frechet().contains(run.complement().intersect(evens))
        assert run.sample(2) == [10**6, 10**6 + 1]


class TestFlipSweep:
    """The constructor sweeps the cuts once, keeping one xor per open period."""

    def test_same_period_flips_cost_one_spread_per_piece(self, monkeypatch):
        k, calls = 200, 0
        spread = sets_filters._spread

        def counting(mask, p, q):
            nonlocal calls
            calls += 1
            return spread(mask, p, q)

        monkeypatch.setattr(sets_filters, "_spread", counting)
        # Each n is flipped once: below k by the flip of residue n, from k on by that of n % k.
        s = SetDescriptor(1, flips=[(r, 10**6, k, 1 << r) for r in range(k)])
        assert s.segments == ((0, 10**6, 1, 1),)
        assert calls <= 3 * k

    def test_many_flips_of_one_period_with_points_inside(self):
        flips = [(3 * i, 3 * i + 50 + i, 7, (37 * i + 5) % 128) for i in range(60)]
        ref = FlipRef(3, {1}, flips, {10, 55, 120, 250}, {11, 55, 56, 121, 200})
        s = SetDescriptor(ref.m, ref.tail, plus=ref.plus, minus=ref.minus, flips=flips)
        assert pieces_agree(s, ref, [ref])
        assert_canonical(s)

    def test_lcm_is_taken_over_flips_open_together(self):
        big = (0, 10, 99991, 1)
        assert SetDescriptor(1, flips=[big, (20, 30, 7, 1)]).segments == ((0, 1, 1, 1), (21, 29, 7, 1))
        with pytest.raises(ModulusTooLarge):
            SetDescriptor(1, flips=[big, (5, 30, 7, 1)])
        with pytest.raises(ModulusTooLarge):  # a lone period past the limit, even with no bit in its run
            SetDescriptor(1, flips=[(0, 5, 200000, 1 << 10)])
        # Each piece of the chain has at most one period past 1 open.
        chain = SetDescriptor(1, flips=[big, (5, 20, 1, 1), (15, 30, 7, 1)])
        assert [n for n in range(40) if n in chain] == [0, *range(5, 20), 21, 28]


@given(st.integers(1, 60), st.data())
def test_minimal_period_matches_brute_force(m, data):
    d = data.draw(st.sampled_from([k for k in range(1, m + 1) if m % k == 0]))
    block = data.draw(st.lists(st.booleans(), min_size=d, max_size=d))
    pattern = block * (m // d)
    brute = next(k for k in range(1, m + 1) if m % k == 0 and pattern == pattern[:k] * (m // k))
    assert minimal_period(m, lambda k: pattern == pattern[:k] * (m // k)) == brute
