"""Seeded random sequences that only the tests draw from.

Each generator takes an explicit random.Random and draws in a fixed order,
so a seeded test sees the same values on every run.  The generators that
`gsc check` and the benchmark draw from are in `gscalars.sampling`.
"""

import math
import random
from fractions import Fraction

from gscalars.exactnum import Poly, RatFun
from gscalars.sampling import random_poly, random_rat, safe_denominator
from gscalars.seqrep import RSeq, indicator
from gscalars.sets_filters import FilterDescriptor


def random_ratfun(rng: random.Random, max_degree: int = 3) -> RatFun:
    return RatFun(random_poly(rng, max_degree), safe_denominator(rng))


def random_rseq(rng: random.Random, max_modulus: int = 4, max_degree: int = 2) -> RSeq:
    m = rng.randint(1, max_modulus)
    branches = [random_ratfun(rng, max_degree) for _ in range(m)]
    exceptions = {rng.randint(0, 20): random_rat(rng) for _ in range(rng.randint(0, 2))}
    return RSeq(m, branches, exceptions)


def _root_factor(rng: random.Random) -> Poly:
    """A monic factor with a nonnegative real root at most 40: n - a for a
    natural a, n - p/q for a fraction, or n^2 - q for a non-square q."""
    kind = rng.randrange(3)
    if kind == 0:
        return Poly((-rng.randint(0, 40), 1))
    if kind == 1:
        return Poly((-Fraction(rng.randint(1, 80), rng.randint(2, 5)), 1))
    q = rng.randint(2, 1600)
    while math.isqrt(q) ** 2 == q:
        q += 1
    return Poly((-q, 0, 1))


def random_breaking_rseq(rng: random.Random, max_modulus: int = 12) -> RSeq:
    """Up to three distinct branches repeated over as many as `max_modulus`
    classes, whose numerators and denominators have natural, rational and
    irrational roots in [0, 40].  Every natural root of a denominator is an
    exception, and so are a few other points up to 60."""
    pool = []
    for _ in range(rng.randint(1, 3)):
        num, den = random_poly(rng, 1), safe_denominator(rng, 1)
        for _ in range(rng.randint(0, 3)):
            num = num * _root_factor(rng)
        for _ in range(rng.randint(0, 2)):
            den = den * _root_factor(rng)
        pool.append(RatFun(num, den))
    m = rng.randint(1, max_modulus)
    points = [n for br in pool for n in range(41) if br.den(n) == 0]
    points += [rng.randint(0, 60) for _ in range(rng.randint(0, 2))]
    exceptions = {n: rng.choice([Fraction(0), random_rat(rng)]) for n in points}
    return RSeq(m, [rng.choice(pool) for _ in range(m)], exceptions)


def random_poly_rseq(rng: random.Random, max_modulus: int = 4, max_degree: int = 3) -> RSeq:
    """Polynomial branches only: valid input for partial summation."""
    m = rng.randint(1, max_modulus)
    branches = [RatFun(random_poly(rng, max_degree)) for _ in range(m)]
    exceptions = {rng.randint(0, 15): random_rat(rng) for _ in range(rng.randint(0, 2))}
    return RSeq(m, branches, exceptions)


def random_infinitesimal_rseq(rng: random.Random, max_modulus: int = 3) -> RSeq:
    """Nonzero branches, every branch limit 0."""
    m = rng.randint(1, max_modulus)
    branches = []
    for _ in range(m):
        den = safe_denominator(rng, 2)
        if den.degree == 0:
            den = Poly((Fraction(rng.randint(1, 9)), Fraction(1)))
        num = random_poly(rng, den.degree - 1)
        if num.is_zero():
            num = Poly.constant(rng.randint(1, 5))
        branches.append(RatFun(num, den))
    return RSeq(m, branches)


def random_appreciable_rseq(rng: random.Random, max_modulus: int = 3) -> RSeq:
    """Every branch limit finite and nonzero."""
    m = rng.randint(1, max_modulus)
    branches = []
    for _ in range(m):
        limit = Fraction(0)
        while limit == 0:
            limit = random_rat(rng)
        den = safe_denominator(rng, 1)
        num = random_poly(rng, max(den.degree - 1, 0)) if den.degree > 0 else Poly()
        branches.append(RatFun(num, den) + RatFun.constant(limit))
    return RSeq(m, branches)


def random_infinite_rseq(rng: random.Random, max_modulus: int = 3) -> RSeq:
    """Every branch limit +/- infinity."""
    m = rng.randint(1, max_modulus)
    branches = []
    for _ in range(m):
        degree = rng.randint(1, 3)
        coeffs = [random_rat(rng) for _ in range(degree)]
        lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6))
        branches.append(RatFun(Poly([*coeffs, lead])))
    return RSeq(m, branches)


def random_ideal_member(rng: random.Random, f: FilterDescriptor) -> RSeq:
    """A random sequence whose zero set the filter contains: it vanishes on
    the base, except at a few points when the filter is cofinite."""
    x = random_rseq(rng, max_modulus=2, max_degree=1) * indicator(f.base.complement())
    if f.cofinite:
        support = {rng.randint(0, 25) for _ in range(rng.randint(0, 4))}
        x = x + RSeq(1, [RatFun.constant(0)], {n: random_rat(rng) for n in support})
    return x
