"""Seeded random generators for descriptors, sequences, and rationals.

Every generator takes an explicit random.Random so the verification suites
are reproducible: the CLI seeds them from GSC_SEED.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exactnum import Poly, RatFun
from .seqrep import RSeq, indicator
from .sets_filters import FilterDescriptor, SetDescriptor

# The points a random set adds to or removes from its periodic part lie in 0..POINT_SPAN.
POINT_SPAN = 30


def random_rat(rng: random.Random, span: int = 12) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_poly(rng: random.Random, max_degree: int = 3, span: int = 6) -> Poly:
    degree = rng.randint(0, max_degree)
    coeffs = [random_rat(rng, span) for _ in range(degree + 1)]
    return Poly(coeffs)


def safe_denominator(rng: random.Random, max_degree: int = 2) -> Poly:
    """A polynomial with no nonnegative real roots: product of (n + k), k >= 1."""
    den = Poly.constant(1)
    for _ in range(rng.randint(0, max_degree)):
        den = den * Poly((Fraction(rng.randint(1, 9)), Fraction(1)))
    return den


def random_ratfun(rng: random.Random, max_degree: int = 3) -> RatFun:
    return RatFun(random_poly(rng, max_degree), safe_denominator(rng))


def random_set(rng: random.Random, max_modulus: int = 6) -> SetDescriptor:
    m = rng.randint(1, max_modulus)
    residues = [r for r in range(m) if rng.random() < 0.5]
    plus = [rng.randint(0, POINT_SPAN) for _ in range(rng.randint(0, 3))]
    minus = [rng.randint(0, POINT_SPAN) for _ in range(rng.randint(0, 3))]
    return SetDescriptor(m, residues, plus=plus, minus=minus)


def random_nonempty_set(rng: random.Random, max_modulus: int = 6) -> SetDescriptor:
    while True:
        s = random_set(rng, max_modulus)
        if not s.is_empty():
            return s


def random_principal_filter(rng: random.Random) -> FilterDescriptor:
    return FilterDescriptor.principal(random_nonempty_set(rng))


def random_filter_member(rng: random.Random, f: FilterDescriptor) -> SetDescriptor:
    """A random set the filter contains: a cofinite part of a cofinite
    filter's base, or a principal base with a random set added."""
    removed = [rng.randint(0, POINT_SPAN) for _ in range(rng.randint(0, 3))]
    if f.cofinite:
        return f.base.intersect(SetDescriptor.cofinite(removed))
    return f.base.union(random_set(rng))


def sample_sets(rng: random.Random, count: int, f: FilterDescriptor | None = None) -> list[SetDescriptor]:
    """A descriptor family; when a filter is given, a quarter are members."""
    out = []
    for i in range(count):
        if f is not None and i % 4 == 0:
            out.append(random_filter_member(rng, f))
        else:
            out.append(random_set(rng))
    return out


def random_rseq(rng: random.Random, max_modulus: int = 4, max_degree: int = 2) -> RSeq:
    m = rng.randint(1, max_modulus)
    branches = [random_ratfun(rng, max_degree) for _ in range(m)]
    exceptions = {rng.randint(0, 20): random_rat(rng) for _ in range(rng.randint(0, 2))}
    return RSeq(m, branches, exceptions)


def random_poly_rseq(rng: random.Random, max_modulus: int = 4, max_degree: int = 3) -> RSeq:
    """Polynomial branches only: valid input for partial summation."""
    m = rng.randint(1, max_modulus)
    branches = [RatFun(random_poly(rng, max_degree)) for _ in range(m)]
    exceptions = {rng.randint(0, 15): random_rat(rng) for _ in range(rng.randint(0, 2))}
    return RSeq(m, branches, exceptions)


def random_convergent_rseq(rng: random.Random, max_modulus: int = 4) -> RSeq:
    """All branch limits equal: a convergent representable sequence."""
    m = rng.randint(1, max_modulus)
    limit = random_rat(rng)
    branches = []
    for _ in range(m):
        den = safe_denominator(rng, 2)
        if den.degree == 0:
            den = Poly((Fraction(rng.randint(1, 9)), Fraction(1)))
        num = random_poly(rng, den.degree - 1)
        branches.append(RatFun(num, den) + RatFun.constant(limit))
    exceptions = {rng.randint(0, 20): random_rat(rng) for _ in range(rng.randint(0, 2))}
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
