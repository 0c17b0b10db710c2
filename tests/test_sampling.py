import random

import pytest
from gen import (
    random_appreciable_rseq,
    random_ideal_member,
    random_infinite_rseq,
    random_infinitesimal_rseq,
    random_poly_rseq,
    random_rseq,
)

from gscalars.galois import in_ideal
from gscalars.quotient import Classification, Scalar, classify
from gscalars.sampling import (
    random_convergent_rseq,
    random_filter_member,
    random_nonempty_set,
    random_principal_filter,
    sample_sets,
)
from gscalars.seqrep import BSeqVerdict
from gscalars.sets_filters import FilterDescriptor

FRECHET = FilterDescriptor.frechet()


def test_random_rseq_is_total():
    rng = random.Random(211)
    for _ in range(30):
        x = random_rseq(rng)
        for n in range(50):
            x.eval(n)


def test_poly_rseq_has_polynomial_branches():
    rng = random.Random(223)
    for _ in range(30):
        x = random_poly_rseq(rng)
        assert all(br.den.degree == 0 for br in x.branches)


def test_convergent_sampler_converges():
    rng = random.Random(227)
    for _ in range(30):
        x = random_convergent_rseq(rng)
        assert x.classify_bounded().kind == BSeqVerdict.CONVERGENT


def test_classified_samplers_hit_their_class():
    rng = random.Random(229)
    for _ in range(30):
        assert classify(Scalar(random_infinitesimal_rseq(rng), FRECHET)) is Classification.INFINITESIMAL
        assert classify(Scalar(random_appreciable_rseq(rng), FRECHET)) is Classification.APPRECIABLE
        assert classify(Scalar(random_infinite_rseq(rng), FRECHET)) is Classification.INFINITE


def test_ideal_member_sampler_lands_in_ideal():
    rng = random.Random(233)
    filters = [FRECHET] + [random_principal_filter(rng) for _ in range(5)]
    for f in filters:
        ideal = f
        for _ in range(10):
            assert in_ideal(random_ideal_member(rng, f), ideal)


def test_filter_member_sampler_lands_in_filter():
    rng = random.Random(239)
    filters = [FRECHET] + [random_principal_filter(rng) for _ in range(5)]
    for f in filters:
        for _ in range(10):
            assert f.contains(random_filter_member(rng, f))


def test_sample_sets_quota():
    rng = random.Random(241)
    f = random_principal_filter(rng)
    family = sample_sets(rng, 40, f)
    members = sum(1 for s in family if f.contains(s))
    assert len(family) == 40
    assert members >= 10  # every fourth sample is a forced member


def test_nonempty_set_sampler():
    rng = random.Random(251)
    for _ in range(30):
        assert not random_nonempty_set(rng).is_empty()


def test_unknown_suite_rejected():
    from gscalars.suites import run_suite

    with pytest.raises(ValueError):
        run_suite("nonsense", seed=1)
