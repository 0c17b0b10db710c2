from math import lcm

import pytest
from hypothesis import given, strategies as st

from gscalars.errors import InvalidFilter
from gscalars.sets_filters import FilterDescriptor, SetDescriptor, check_filter_axioms

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
