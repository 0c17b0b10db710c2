"""Seeded random generators for descriptors, sequences, and rationals.

Every generator takes an explicit random.Random so the verification suites
are reproducible: the CLI seeds them from GSC_SEED.  The generators that
only the tests draw from live in `tests/gen.py`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exactnum import Poly, RatFun
from .seqrep import RSeq
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
