"""Decidable subsets of N and decidable filters on N.

A SetDescriptor is an eventually periodic set (a union of residue classes)
with finitely many points added or removed.  This class of sets is closed
under boolean algebra, is exactly the class of zero sets of representable
sequences, and makes every predicate here total and exact.

Filters are either Frechet (all cofinite sets) or principal (all supersets
of a fixed nonempty set).  Both give a decidable membership test.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import InvalidFilter
from .report import Report


def minimal_period(pattern) -> int:
    """The smallest d dividing len(pattern) with pattern[r] == pattern[r % d]."""
    m = len(pattern)
    return next(
        d for d in range(1, m + 1) if m % d == 0 and all(pattern[r] == pattern[r % d] for r in range(d, m))
    )


@dataclass(frozen=True, slots=True)
class SetDescriptor:
    """Eventually periodic subset of N with finite modifications.

    n is a member iff n is in `plus`, or n mod modulus is in `residues`
    and n is not in `minus`.  Canonical form: minimal modulus, plus
    disjoint from the residue classes, minus inside them.
    """

    modulus: int
    residues: frozenset[int]
    plus: frozenset[int]
    minus: frozenset[int]

    def __init__(self, modulus: int, residues=(), plus=(), minus=()):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        residues = frozenset(r % modulus for r in residues)
        plus = frozenset(plus)
        minus = frozenset(minus)
        if any(n < 0 for n in plus | minus):
            raise ValueError("finite modifications must be naturals")
        # A point in `plus` is a member, so only points outside the residue
        # classes need listing; one in `minus` only inside them.
        canon_plus = frozenset(n for n in plus if n % modulus not in residues)
        canon_minus = frozenset(n for n in minus - plus if n % modulus in residues)
        period = minimal_period([r in residues for r in range(modulus)])

        object.__setattr__(self, "modulus", period)
        object.__setattr__(self, "residues", frozenset(r for r in residues if r < period))
        object.__setattr__(self, "plus", canon_plus)
        object.__setattr__(self, "minus", canon_minus)

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls) -> "SetDescriptor":
        return cls(1)

    @classmethod
    def naturals(cls) -> "SetDescriptor":
        return cls(1, residues=(0,))

    @classmethod
    def finite(cls, elements) -> "SetDescriptor":
        return cls(1, plus=elements)

    @classmethod
    def cofinite(cls, removed) -> "SetDescriptor":
        return cls(1, residues=(0,), minus=removed)

    @classmethod
    def residue_class(cls, r: int, m: int) -> "SetDescriptor":
        return cls(m, residues=(r,))

    @classmethod
    def evens(cls) -> "SetDescriptor":
        return cls(2, residues=(0,))

    @classmethod
    def odds(cls) -> "SetDescriptor":
        return cls(2, residues=(1,))

    # -- predicates ------------------------------------------------------

    def member(self, n: int) -> bool:
        if n in self.plus:
            return True
        return n % self.modulus in self.residues and n not in self.minus

    __contains__ = member

    def is_empty(self) -> bool:
        return not self.residues and not self.plus

    def is_finite(self) -> bool:
        return not self.residues

    def is_cofinite(self) -> bool:
        return len(self.residues) == self.modulus

    def is_naturals(self) -> bool:
        return self.is_cofinite() and not self.minus

    def elements(self) -> list[int]:
        """All members, defined only for finite descriptors."""
        if not self.is_finite():
            raise ValueError("infinite set has no element list")
        return sorted(self.plus)

    def sample(self, count: int) -> list[int]:
        """The first `count` members in increasing order."""
        out = []
        n = 0
        # Bail out once past the point where only residues matter.
        horizon = max([self.modulus, *self.plus, *self.minus], default=1) + 1
        while len(out) < count:
            if self.member(n):
                out.append(n)
            n += 1
            if n > horizon and not self.residues:
                break
        return out

    # -- boolean algebra --------------------------------------------------

    def complement(self) -> "SetDescriptor":
        comp_res = frozenset(range(self.modulus)) - self.residues
        return SetDescriptor(self.modulus, comp_res, plus=self.minus, minus=self.plus)

    def union(self, other: "SetDescriptor") -> "SetDescriptor":
        return self._combine(other, lambda a, b: a or b)

    def intersect(self, other: "SetDescriptor") -> "SetDescriptor":
        return self._combine(other, lambda a, b: a and b)

    def _combine(self, other: "SetDescriptor", op) -> "SetDescriptor":
        m = lcm(self.modulus, other.modulus)
        residues = frozenset(
            r for r in range(m) if op(r % self.modulus in self.residues, r % other.modulus in other.residues)
        )
        touched = self.plus | self.minus | other.plus | other.minus
        plus = [n for n in touched if op(self.member(n), other.member(n))]
        return SetDescriptor(m, residues, plus=plus, minus=touched.difference(plus))

    def superset_of(self, other: "SetDescriptor") -> bool:
        # Residue classes of `other` must land inside ours (a missing class
        # leaves infinitely many points uncovered); finite parts checked
        # pointwise.  Equivalent to other.intersect(self.complement()).is_empty().
        m = lcm(self.modulus, other.modulus)
        for r in range(m):
            if r % other.modulus in other.residues and r % self.modulus not in self.residues:
                return False
        for n in self.plus | self.minus | other.plus | other.minus:
            if other.member(n) and not self.member(n):
                return False
        return True

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text in the CLI set grammar."""
        if self.is_empty():
            return "{}"
        if self.is_finite():
            return "{" + ",".join(str(n) for n in sorted(self.plus)) + "}"
        base = "|".join(f"{r} mod {self.modulus}" for r in sorted(self.residues))
        if len(self.residues) > 1 and (self.minus or self.plus):
            base = f"({base})"
        if self.minus:
            removed = "{" + ",".join(str(n) for n in sorted(self.minus)) + "}"
            base = f"{base}&~{removed}"
        if self.plus:
            added = "{" + ",".join(str(n) for n in sorted(self.plus)) + "}"
            base = f"{base}|{added}"
        return base

    def __repr__(self) -> str:
        return f"SetDescriptor<{self.render()}>"


# -- filters ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FilterDescriptor:
    """A decidable filter on N: Frechet (cofinite sets) or principal."""

    kind: str
    base: SetDescriptor | None = None

    FRECHET = "frechet"
    PRINCIPAL = "principal"

    def __post_init__(self):
        if self.kind == self.FRECHET:
            if self.base is not None:
                raise ValueError("frechet filter takes no base set")
        elif self.kind == self.PRINCIPAL:
            if self.base is None or self.base.is_empty():
                raise InvalidFilter("a principal filter needs a nonempty base set")
        else:
            raise ValueError(f"unknown filter kind {self.kind!r}")

    @classmethod
    def frechet(cls) -> "FilterDescriptor":
        return cls(cls.FRECHET)

    @classmethod
    def principal(cls, base: SetDescriptor) -> "FilterDescriptor":
        return cls(cls.PRINCIPAL, base)

    def contains(self, j: SetDescriptor) -> bool:
        if self.kind == self.FRECHET:
            return j.is_cofinite()
        return j.superset_of(self.base)

    def render(self) -> str:
        if self.kind == self.FRECHET:
            return "frechet"
        return f"principal:{self.base.render()}"

    def __repr__(self) -> str:
        return f"FilterDescriptor<{self.render()}>"


def check_filter_axioms(f: FilterDescriptor, samples: list[SetDescriptor]) -> Report:
    """Executable filter axioms, checked over a sample family of sets."""
    report = Report(f"filter-axioms {f.render()}")

    report.check("empty-set-excluded", not f.contains(SetDescriptor.empty()))
    report.check("family-nonempty", f.contains(SetDescriptor.naturals()))

    members = [s for s in samples if f.contains(s)]
    bad_meets = []
    for i, j in enumerate(members):
        for k in members[i:]:
            if not f.contains(j.intersect(k)):
                bad_meets.append((j, k))
    report.check(
        f"intersection-closure ({len(members)} members, {len(members) * (len(members) + 1) // 2} pairs)",
        not bad_meets,
        witness="; ".join(f"{j.render()} & {k.render()}" for j, k in bad_meets[:3]),
    )

    bad_ups = []
    ups = 0
    for j in members:
        for k in samples:
            if k.superset_of(j):
                ups += 1
                if not f.contains(k):
                    bad_ups.append((j, k))
    report.check(
        f"superset-closure ({ups} comparable pairs)",
        not bad_ups,
        witness="; ".join(f"{k.render()} >= {j.render()}" for j, k in bad_ups[:3]),
    )
    return report
