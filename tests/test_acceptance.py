"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import contextlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from gscalars.exactnum import Poly, RatFun
from gscalars.oracle import FiniteConfig, enumerate_ideals, verify_galois, verify_maximal_prime
from gscalars.quotient import (
    Scalar,
    archimedean_counterexample,
    embed,
    leq,
    omega,
    scalar_eq,
    try_invert,
)
from gscalars.sampling import random_convergent_rseq, random_ideal_member, random_rat, random_rseq
from gscalars.errors import ZeroDivisor
from gscalars.series import banach_bounds_check, partial_sums, shift_invariance_impossibility
from gscalars.seqrep import RSeq, indicator, make_constant
from gscalars.sets_filters import FilterDescriptor, SetDescriptor
from gscalars.suites import suite_filter_axioms, suite_galois_roundtrip

FRECHET = FilterDescriptor.frechet()
SEED = 20240914


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS")


def test_criterion_1_filter_axioms():
    with criterion(1, "filter axioms on frechet and 20 principal filters"):
        reports = suite_filter_axioms(SEED)
        assert len(reports) == 21
        for report in reports:
            assert report.failed == 0, report.render()


def test_criterion_2_galois_roundtrips_symbolic():
    with criterion(2, "symbolic galois roundtrips"):
        reports = suite_galois_roundtrip(SEED)
        assert len(reports) == 11
        for report in reports:
            assert report.failed == 0, report.render()


def test_criterion_3_galois_bijection_exhaustive():
    with criterion(3, "exhaustive galois bijection under 5 seconds"):
        started = time.monotonic()
        for lam in (2, 3):
            cfg = FiniteConfig(lam, 2)
            report = verify_galois(cfg, enumerate_ideals(cfg))
            assert report.failed == 0, report.render()
            expected = 2**lam - 1
            assert f"ideal count = {expected}" in report.render()
        assert time.monotonic() - started < 5.0


def test_criterion_4_maximal_prime_equivalences():
    with criterion(4, "maximal<->field and prime<->division equivalences"):
        for lam in (2, 3):
            for field in (2, 3):
                cfg = FiniteConfig(lam, field)
                report = verify_maximal_prime(cfg, enumerate_ideals(cfg))
                assert report.failed == 0, report.render()


def test_criterion_5_quotient_ring_laws():
    with criterion(5, "randomized quotient ring laws (>= 1000 cases)"):
        rng = random.Random(SEED)
        cases = 0
        zero, one = embed(0, FRECHET), embed(1, FRECHET)

        for _ in range(60):
            a = Scalar(random_rseq(rng, 2, 1), FRECHET)
            b = Scalar(random_rseq(rng, 2, 1), FRECHET)
            c = Scalar(random_rseq(rng, 2, 1), FRECHET)
            laws = [
                ((a + b) + c, a + (b + c)),
                (a + b, b + a),
                (a + zero, a),
                (a + (-a), zero),
                ((a * b) * c, a * (b * c)),
                (a * b, b * a),
                (a * one, a),
                (a * (b + c), a * b + a * c),
            ]
            for lhs, rhs in laws:
                assert scalar_eq(lhs, rhs)
                cases += 1

        filters = [FRECHET, FilterDescriptor.principal(SetDescriptor.evens())]
        for f in filters:
            f_zero = embed(0, f)
            for _ in range(40):
                a = Scalar(random_rseq(rng, 2, 1), f)
                b = Scalar(random_rseq(rng, 2, 1), f)
                a2 = Scalar(a.rep + random_ideal_member(rng, f), f)
                b2 = Scalar(b.rep + random_ideal_member(rng, f), f)
                for lhs, rhs in [(a, a2), (b, b2), (a + b, a2 + b2), (a * b, a2 * b2)]:
                    assert scalar_eq(lhs, rhs)
                    cases += 1

        for _ in range(60):
            p, q = random_rat(rng), random_rat(rng)
            assert scalar_eq(embed(p, FRECHET) + embed(q, FRECHET), embed(p + q, FRECHET))
            assert scalar_eq(embed(p, FRECHET) * embed(q, FRECHET), embed(p * q, FRECHET))
            assert scalar_eq(embed(p, FRECHET), embed(q, FRECHET)) == (p == q)
            assert scalar_eq(embed(p, FRECHET), embed(0, FRECHET)) == (p == 0)
            cases += 4

        assert cases >= 1000, cases


def test_criterion_6_non_archimedean_witness():
    with criterion(6, "archimedean failure with omega = sum of ones, kmax=1000"):
        w = Scalar(partial_sums(make_constant(1)), FRECHET)
        assert scalar_eq(w, omega(FRECHET))
        report = archimedean_counterexample(1000, FRECHET)
        assert report.failed == 0, report.render()
        # negative control: inside the embedded rationals dominance stops at k=8
        seven = embed(7, FRECHET)
        assert all(leq(embed(k, FRECHET), seven) for k in range(1, 8))
        assert not leq(embed(8, FRECHET), seven)


def test_criterion_7_zero_divisors():
    with criterion(7, "disjoint indicators are zero divisors with witness"):
        evens = Scalar(indicator(SetDescriptor.evens()), FRECHET)
        odds = Scalar(indicator(SetDescriptor.odds()), FRECHET)
        zero = embed(0, FRECHET)
        assert scalar_eq(evens * odds, zero)
        assert not scalar_eq(evens, zero)
        assert not scalar_eq(odds, zero)
        with pytest.raises(ZeroDivisor) as err:
            try_invert(evens)
        witness = err.value.witness
        assert not scalar_eq(witness, zero)
        assert scalar_eq(evens * witness, zero)


def test_criterion_8_series_suite():
    with criterion(8, "series machinery: bounds, closed forms, impossibility"):
        rng = random.Random(SEED)
        report = banach_bounds_check([random_convergent_rseq(rng) for _ in range(100)])
        assert report.failed == 0, report.render()

        # partial sums verified against direct summation to n = 1000 for
        # every degree <= 6 and modulus <= 6
        for degree in range(7):
            for modulus in range(1, 7):
                branches = []
                for _ in range(modulus):
                    coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(degree)]
                    coeffs.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9)))
                    branches.append(RatFun(Poly(coeffs)))
                s = RSeq(modulus, branches)
                sums = partial_sums(s)
                running = Fraction(0)
                for n in range(1001):
                    running += s.eval(n)
                    assert sums.eval(n) == running

        chain = shift_invariance_impossibility()
        assert chain.failed == 0 and chain.passed == 4, chain.render()


def test_criterion_9_determinism():
    with criterion(9, "check all is byte-identical for a fixed GSC_SEED"):
        env = dict(os.environ, GSC_SEED="314159")
        runs = [
            subprocess.run(
                [sys.executable, "-m", "gscalars.cli", "check", "all"],
                capture_output=True,
                text=True,
                env=env,
                timeout=590,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.count("FAIL") == 0
