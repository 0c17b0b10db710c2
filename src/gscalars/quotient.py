"""The quotient algebra of representable sequences modulo a filter ideal.

A Scalar is a representative sequence pinned to a filter; two scalars are
equal when their difference's zero set belongs to the filter; a cofinite
filter reads its tail from each class's branch pair at infinity.  The algebra
embeds Q via constant sequences, carries the filter-lifted partial order,
is not Archimedean under the Frechet filter (the ramp class dominates every
embedded rational), and has zero divisors (disjoint-support indicators).
Under a principal filter on B it is Q^B: no nonzero class is infinitesimal
or infinite there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import FilterMismatch, InvalidArgument, NotStandardizable, ZeroDivisor, ZeroScalar
from .exactnum import Rat, RatFun, limit_at_infinity
from .galois import in_ideal
from .report import Report
from .seqrep import BSeqVerdict, RSeq, indicator, make_constant, make_identity, map_classes
from .sets_filters import FilterDescriptor, SetDescriptor


class Classification(enum.Enum):
    ZERO = "Zero"
    INFINITESIMAL = "Infinitesimal"
    APPRECIABLE = "Appreciable"
    INFINITE = "Infinite"
    MIXED = "Mixed"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True, eq=False)
class Scalar:
    """An equivalence class of representable sequences modulo a filter ideal.

    Python equality is identity; equality in the algebra is `scalar_eq`.
    """

    rep: RSeq
    filter: FilterDescriptor

    def _same_algebra(self, other: "Scalar") -> None:
        if self.filter != other.filter:
            raise FilterMismatch("scalars live in different quotient algebras")

    # -- ring structure ------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        self._same_algebra(other)
        return Scalar(self.rep + other.rep, self.filter)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._same_algebra(other)
        return Scalar(self.rep - other.rep, self.filter)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._same_algebra(other)
        return Scalar(self.rep * other.rep, self.filter)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.rep, self.filter)

    def scale(self, c) -> "Scalar":
        return Scalar(self.rep.scale(c), self.filter)

    def is_zero(self) -> bool:
        return in_ideal(self.rep, self.filter)

    def __repr__(self) -> str:
        return f"Scalar({self.rep!r} @ {self.filter.render()})"


def embed(c, f: FilterDescriptor) -> Scalar:
    """The diagonal embedding of a rational into the quotient algebra."""
    return Scalar(make_constant(c), f)


def omega(f: FilterDescriptor) -> Scalar:
    """The class of n -> n + 1: the canonical infinitely large scalar."""
    return Scalar(make_identity() + make_constant(1), f)


def scalar_eq(a: Scalar, b: Scalar) -> bool:
    """The zero set of a - b is in the filter; a cofinite filter reads only
    the classes where a's and b's branches are equal, and builds no a - b."""
    a._same_algebra(b)
    if a.filter.cofinite:
        return a.filter.contains(a.rep.sign_tail({0}, minus=b.rep))
    return in_ideal(a.rep - b.rep, a.filter)


def le_set(a: Scalar, b: Scalar) -> SetDescriptor:
    """Exactly { n | a(n) <= b(n) } for the canonical representatives."""
    a._same_algebra(b)
    return (a.rep - b.rep).sign_set({-1, 0})


def leq(a: Scalar, b: Scalar) -> bool:
    """The filter-lifted order: the agreement set of a <= b is in the filter; a
    cofinite one reads the classes where a's branch is at most b's at infinity."""
    if a.filter.cofinite:
        a._same_algebra(b)
        return a.filter.contains(a.rep.sign_tail({-1, 0}, minus=b.rep))
    return a.filter.contains(le_set(a, b))


def try_invert(a: Scalar) -> Scalar:
    """Multiplicative inverse in the quotient algebra.

    Invertible exactly when the complement of the representative's zero set
    belongs to the filter; otherwise the indicator of the zero set is a
    nonzero annihilator and is raised as the ZeroDivisor witness.  Both, and
    the overrides below, need every point of the zero set, so the zero test
    is made here on the full set rather than through `in_ideal`.
    """
    z = a.rep.zero_set()
    if a.filter.contains(z):
        raise ZeroScalar("inverse of the zero class")
    if not a.filter.contains(z.complement()):
        raise ZeroDivisor(Scalar(indicator(z), a.filter))

    # The reciprocal branches need overrides exactly at the exceptions and
    # at the zeros of nonzero branches, which are the finite part of z.
    branches = map_classes(lambda br: RatFun.constant(0) if br.is_zero() else br.reciprocal(), a.rep.branches)
    overrides = {}
    for n in set(a.rep.exceptions) | z.plus:
        v = a.rep.eval(n)
        overrides[n] = 1 / v if v != 0 else Fraction(0)
    return Scalar(RSeq(a.rep.modulus, branches, overrides), a.filter)


def _relevant_limits(a: Scalar) -> list:
    """The limits of the branches whose classes meet the filter's base
    infinitely often: those of its tail residues mod the moduli's gcd."""
    m, base = a.rep.modulus, a.filter.base
    g = math.gcd(m, base.modulus)
    met = {s % g for s in base.residues}
    return [limit_at_infinity(a.rep.branches[r]) for r in range(m) if r % g in met]


def classify(a: Scalar) -> Classification:
    """Zero / Infinitesimal / Appreciable / Infinite / Mixed, read off the
    verdict on the relevant branch limits that `standard_part` reads: a
    bounded class is Infinitesimal when it converges to 0, and an unbounded
    one Infinite when no relevant limit is finite.  In Q^B, under a
    principal filter, a nonzero class is Appreciable when bounded on B and
    Mixed when not."""
    if a.is_zero():
        return Classification.ZERO
    limits = _relevant_limits(a)
    verdict = BSeqVerdict.of(limits)
    bounded = verdict.kind != BSeqVerdict.UNBOUNDED
    if not a.filter.cofinite:
        return Classification.APPRECIABLE if bounded else Classification.MIXED
    if bounded:
        return Classification.INFINITESIMAL if verdict.limit == 0 else Classification.APPRECIABLE
    if not any(l.is_finite for l in limits):
        return Classification.INFINITE
    return Classification.MIXED


def standard_part(a: Scalar) -> Rat:
    """The unique rational c with a - embed(c) infinitesimal or zero; under
    a principal filter, where only zero is infinitesimal, a must equal c."""
    if not a.filter.cofinite:
        c = a.rep.eval(a.filter.base.sample(1)[0])
        if not scalar_eq(a, embed(c, a.filter)):
            raise NotStandardizable("the class is not constant on the base set")
        return c
    verdict = BSeqVerdict.of(_relevant_limits(a))
    if verdict.kind == BSeqVerdict.UNBOUNDED:
        raise NotStandardizable("an infinite branch blocks the standard part")
    if verdict.kind == BSeqVerdict.BOUNDED_DIVERGENT:
        raise NotStandardizable("branch limits disagree")
    return verdict.limit


def archimedean_counterexample(kmax: int, f: FilterDescriptor) -> Report:
    """Certify that no multiple of 1 dominates the ramp class up to kmax.

    For every k in 1..kmax: embed(k) <= omega and embed(k) != omega, i.e.
    the ordered algebra fails the Archimedean condition with witness omega.
    """
    if kmax < 1:
        raise InvalidArgument("kmax must be at least 1")
    report = Report(f"archimedean {f.render()} kmax={kmax}")
    w = omega(f)
    bad_le = [k for k in range(1, kmax + 1) if not leq(embed(k, f), w)]
    bad_ne = [k for k in range(1, kmax + 1) if scalar_eq(embed(k, f), w)]
    report.check(
        f"every k in 1..{kmax} satisfies embed(k) <= omega",
        not bad_le,
        witness=", ".join(map(str, bad_le[:5])),
    )
    report.check(
        f"no k in 1..{kmax} satisfies embed(k) = omega",
        not bad_ne,
        witness=", ".join(map(str, bad_ne[:5])),
    )
    return report
