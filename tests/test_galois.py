import random

from gen import random_ideal_member, random_rseq

from gscalars.galois import ideal_closure_check, in_ideal, realize_zero_set, roundtrip_filter
from gscalars.sampling import random_principal_filter, random_set, sample_sets
from gscalars.seqrep import indicator, make_constant, make_identity
from gscalars.sets_filters import FilterDescriptor, SetDescriptor

FRECHET = FilterDescriptor.frechet()


class TestInIdeal:
    def test_finite_support_is_frechet_member(self):
        assert in_ideal(indicator(SetDescriptor.finite({5})), FRECHET)

    def test_evens_indicator_is_not(self):
        x = indicator(SetDescriptor.evens())
        assert x.zero_set() == SetDescriptor.odds()
        assert not in_ideal(x, FRECHET)

    def test_zero_sequence_in_every_ideal(self):
        zero = make_constant(0)
        assert in_ideal(zero, FRECHET)
        assert in_ideal(zero, FilterDescriptor.principal(SetDescriptor.odds()))


class TestRealizeZeroSet:
    def test_examples(self):
        assert realize_zero_set(SetDescriptor.odds()) == indicator(SetDescriptor.evens())
        assert realize_zero_set(SetDescriptor.naturals()).is_zero()
        x = realize_zero_set(SetDescriptor.cofinite({2}))
        assert [x.eval(n) for n in range(5)] == [0, 0, 1, 0, 0]

    def test_right_inverse_of_zero_set(self):
        rng = random.Random(51)
        for _ in range(40):
            j = random_set(rng)
            assert realize_zero_set(j).zero_set() == j


class TestRoundtrip:
    def test_frechet_random(self):
        rng = random.Random(61)
        report = roundtrip_filter(FRECHET, sample_sets(rng, 100, FRECHET))
        assert report.ok, report.render()

    def test_principal_evens_specifics(self):
        f = FilterDescriptor.principal(SetDescriptor.evens())
        ideal = f
        assert in_ideal(realize_zero_set(SetDescriptor.evens()), ideal)
        assert not in_ideal(realize_zero_set(SetDescriptor.odds()), ideal)
        assert not in_ideal(realize_zero_set(SetDescriptor.empty()), ideal)
        report = roundtrip_filter(f, [SetDescriptor.evens(), SetDescriptor.odds(), SetDescriptor.empty()])
        assert report.ok

    def test_naturals_always_member(self):
        rng = random.Random(67)
        for _ in range(10):
            f = random_principal_filter(rng)
            assert in_ideal(realize_zero_set(SetDescriptor.naturals()), f)

    def test_random_principal_filters(self):
        rng = random.Random(71)
        for _ in range(10):
            f = random_principal_filter(rng)
            report = roundtrip_filter(f, sample_sets(rng, 50, f))
            assert report.ok, report.render()


class TestClosure:
    def test_frechet_closure(self):
        rng = random.Random(73)
        ideal = FRECHET
        samples = [random_ideal_member(rng, FRECHET) for _ in range(10)]
        samples += [random_rseq(rng, 3, 1) for _ in range(10)]
        report = ideal_closure_check(ideal, samples)
        assert report.ok, report.render()

    def test_principal_closure(self):
        rng = random.Random(79)
        f = random_principal_filter(rng)
        ideal = f
        samples = [random_ideal_member(rng, f) for _ in range(10)]
        samples += [random_rseq(rng, 3, 1) for _ in range(10)]
        report = ideal_closure_check(ideal, samples)
        assert report.ok, report.render()

    def test_absorption_by_unbounded(self):
        ideal = FRECHET
        member = indicator(SetDescriptor.finite({2, 4}))
        assert in_ideal(member, ideal)
        assert in_ideal(member * make_identity(), ideal)

    def test_one_is_never_a_member(self):
        rng = random.Random(83)
        one = make_constant(1)
        assert not in_ideal(one, FRECHET)
        for _ in range(10):
            assert not in_ideal(one, random_principal_filter(rng))


class TestMonotonicity:
    def test_filter_inclusion_lifts_to_ideals(self):
        rng = random.Random(89)
        # Principal(S) grows as S shrinks; Frechet contains every principal-of-
        # infinite-set?  No: compare two nested principal filters explicitly.
        for _ in range(15):
            s = random_set(rng)
            extra = random_set(rng)
            big = s.union(extra)
            if s.is_empty() or big.is_empty():
                continue
            f_small = FilterDescriptor.principal(big)   # fewer supersets
            f_big = FilterDescriptor.principal(s)       # more supersets
            # every member of f_small is a member of f_big
            for _ in range(5):
                j = random_set(rng)
                if f_small.contains(j):
                    assert f_big.contains(j)
            # hence the induced ideals nest the same way
            for _ in range(5):
                x = random_rseq(rng, 3, 1)
                if in_ideal(x, f_small):
                    assert in_ideal(x, f_big)
