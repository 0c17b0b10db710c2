"""Exhaustive finite verification of the ideal/filter correspondence.

Everything the symbolic modules can only sample is checked here over a
finite index set (2..4 points) and a prime field (F2 or F3):
enumerate every ideal and every filter, compute both directional maps,
and verify the roundtrips, monotonicity, the counting bijection, and the
maximal<->field / prime<->no-zero-divisors equivalences on quotient tables.
Enumeration is by generator closure (the ideal generated by I and x is
I + R*x), except for the ideals of the smallest rings, which a subset scan
finds; the ideal and filter axiom checks stay brute force.

Functions on the index set are tuples over range(p); subsets of the index
set are bitmasks.  All enumeration orders are sorted, so reports are
deterministic byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConfigTooLarge
from .report import Report

# Rings with at most this many subsets are scanned, not closed.  The closure
# is faster there too, but the benchmark keeps every op's output, so the extra
# ops it would run push the oracle workload's peak RSS up (ROADMAP item 1).
SUBSET_SCAN_CAP = 2**16


@dataclass(frozen=True, slots=True)
class FiniteConfig:
    lambda_size: int
    field_order: int

    def __post_init__(self):
        if not 2 <= self.lambda_size <= 4:
            raise ConfigTooLarge("index set size must be 2..4")
        if self.field_order not in (2, 3):
            raise ConfigTooLarge("field order must be 2 or 3")


Vector = tuple[int, ...]


@lru_cache(maxsize=None)
def ring_elements(cfg: FiniteConfig) -> tuple[Vector, ...]:
    return tuple(sorted(itertools.product(range(cfg.field_order), repeat=cfg.lambda_size)))


def vadd(x: Vector, y: Vector, p: int) -> Vector:
    return tuple((a + b) % p for a, b in zip(x, y))


def vneg(x: Vector, p: int) -> Vector:
    return tuple((-a) % p for a in x)


def vmul(x: Vector, y: Vector, p: int) -> Vector:
    return tuple((a * b) % p for a, b in zip(x, y))


def zero_mask(x: Vector) -> int:
    """Bitmask of the coordinates where x vanishes."""
    mask = 0
    for i, a in enumerate(x):
        if a == 0:
            mask |= 1 << i
    return mask


@dataclass(frozen=True, slots=True)
class FiniteIdeal:
    elements: frozenset[Vector]

    def sort_key(self):
        return (len(self.elements), tuple(sorted(self.elements)))


@dataclass(frozen=True, slots=True)
class FiniteFilter:
    sets: frozenset[int]  # subset bitmasks over the index set

    def sort_key(self):
        return (len(self.sets), tuple(sorted(self.sets)))


def is_ideal(elements: frozenset[Vector], cfg: FiniteConfig) -> bool:
    """Proper ideal axioms, verified exhaustively."""
    p = cfg.field_order
    zero = (0,) * cfg.lambda_size
    one = (1,) * cfg.lambda_size
    if zero not in elements or one in elements:
        return False
    for x in elements:
        if vneg(x, p) not in elements:
            return False
        for y in elements:
            if vadd(x, y, p) not in elements:
                return False
        for r in ring_elements(cfg):
            if vmul(x, r, p) not in elements:
                return False
    return True


def is_filter(sets: frozenset[int], cfg: FiniteConfig) -> bool:
    """The three filter conditions, verified exhaustively."""
    full = (1 << cfg.lambda_size) - 1
    if not sets or 0 in sets:
        return False
    for j in sets:
        for k in sets:
            if (j & k) not in sets:
                return False
        for k in range(full + 1):
            if (k & j) == j and k not in sets:
                return False
    return True


def _generated(bottom: frozenset, elements, join, improper, cfg: FiniteConfig) -> set[frozenset]:
    """Everything that `join`, adding one element at a time, reaches from
    `bottom` without taking in `improper`.  Every proper object is reached,
    since it ends a chain of one-element joins that stay inside it."""
    found = {bottom}
    worklist = [bottom]
    while worklist:
        current = worklist.pop()
        for x in elements:
            if x not in current:
                grown = join(current, x, cfg)
                if improper not in grown and grown not in found:
                    found.add(grown)
                    worklist.append(grown)
    return found


def _ideal_closure(ideal: frozenset[Vector], x: Vector, cfg: FiniteConfig) -> frozenset[Vector]:
    """The ideal generated by an ideal and x, which is ideal + R·x."""
    p = cfg.field_order
    multiples = {vmul(r, x, p) for r in ring_elements(cfg)}
    return frozenset(vadd(i, m, p) for i in ideal for m in multiples)


def _filter_closure(sets: frozenset[int], s: int, cfg: FiniteConfig) -> frozenset[int]:
    """The filter generated by a filter and s: every superset of some A & s."""
    bases = {a & s for a in sets}
    return frozenset(k for k in range(1 << cfg.lambda_size) if any(k & b == b for b in bases))


def enumerate_ideals(cfg: FiniteConfig) -> list[FiniteIdeal]:
    """Every proper ideal; subset scan when small, generator closure above
    the scan cap.  Deterministic order."""
    ring = ring_elements(cfg)
    if 2 ** len(ring) <= SUBSET_SCAN_CAP:
        found = set()
        for bits in range(2 ** len(ring)):
            subset = frozenset(ring[i] for i in range(len(ring)) if bits >> i & 1)
            if subset and is_ideal(subset, cfg):
                found.add(subset)
    else:
        zero_ideal = frozenset({(0,) * cfg.lambda_size})
        found = _generated(zero_ideal, ring, _ideal_closure, (1,) * cfg.lambda_size, cfg)
    return sorted((FiniteIdeal(s) for s in found), key=FiniteIdeal.sort_key)


def enumerate_filters(cfg: FiniteConfig) -> list[FiniteFilter]:
    """Every proper filter on the index set, by generator closure from {full set}."""
    full = (1 << cfg.lambda_size) - 1
    found = _generated(frozenset({full}), range(full + 1), _filter_closure, 0, cfg)
    return sorted((FiniteFilter(s) for s in found), key=FiniteFilter.sort_key)


def map_filter_of_ideal(ideal: FiniteIdeal) -> FiniteFilter:
    """The zero sets of the ideal's members."""
    return FiniteFilter(frozenset(zero_mask(x) for x in ideal.elements))


def map_ideal_of_filter(f: FiniteFilter, cfg: FiniteConfig) -> FiniteIdeal:
    """The functions whose zero set the filter contains."""
    return FiniteIdeal(frozenset(x for x in ring_elements(cfg) if zero_mask(x) in f.sets))


def _mask_text(mask: int, cfg: FiniteConfig) -> str:
    return "{" + ",".join(str(i) for i in range(cfg.lambda_size) if mask >> i & 1) + "}"


def vanishing_set(ideal: FiniteIdeal, cfg: FiniteConfig) -> int:
    """Coordinates on which every member vanishes, as a bitmask."""
    mask = (1 << cfg.lambda_size) - 1
    for x in ideal.elements:
        mask &= zero_mask(x)
    return mask


def verify_galois(cfg: FiniteConfig, ideals: list[FiniteIdeal]) -> Report:
    """The ideal/filter correspondence checks over `ideals`, which is `enumerate_ideals(cfg)`."""
    report = Report(f"oracle-galois lambda={cfg.lambda_size} field={cfg.field_order}")
    filters = enumerate_filters(cfg)
    expected = 2**cfg.lambda_size - 1
    report.check(f"ideal count = {expected}", len(ideals) == expected, witness=str(len(ideals)))
    report.check(f"filter count = {expected}", len(filters) == expected, witness=str(len(filters)))

    mapped_filters_ok = all(is_filter(map_filter_of_ideal(i).sets, cfg) for i in ideals)
    report.check("zero sets of every ideal form a filter", mapped_filters_ok)
    mapped_ideals_ok = all(is_ideal(map_ideal_of_filter(f, cfg).elements, cfg) for f in filters)
    report.check("every filter induces an ideal", mapped_ideals_ok)

    round_i = all(map_ideal_of_filter(map_filter_of_ideal(i), cfg) == i for i in ideals)
    report.check("ideal -> filter -> ideal roundtrip exact", round_i)
    round_f = all(map_filter_of_ideal(map_ideal_of_filter(f, cfg)) == f for f in filters)
    report.check("filter -> ideal -> filter roundtrip exact", round_f)

    mono_i = all(
        map_filter_of_ideal(i).sets <= map_filter_of_ideal(j).sets
        for i in ideals
        for j in ideals
        if i.elements <= j.elements
    )
    report.check("ideal inclusion maps to filter inclusion", mono_i)
    mono_f = all(
        map_ideal_of_filter(f, cfg).elements <= map_ideal_of_filter(g, cfg).elements
        for f in filters
        for g in filters
        if f.sets <= g.sets
    )
    report.check("filter inclusion maps to ideal inclusion", mono_f)

    def is_principal(f: FiniteFilter) -> bool:
        base = (1 << cfg.lambda_size) - 1
        for mask in f.sets:
            base &= mask
        supersets = frozenset(
            k for k in range(1 << cfg.lambda_size) if (k & base) == base
        )
        return base in f.sets and f.sets == supersets

    report.check("every filter is principal over its minimal set", all(map(is_principal, filters)))
    return report


def _quotient_table(ideal: FiniteIdeal, cfg: FiniteConfig):
    """Each element's coset representative (the coset's minimum), and the sorted representatives."""
    p = cfg.field_order
    ring = ring_elements(cfg)
    members = ideal.elements
    rep_of: dict[Vector, Vector] = {}
    for x in ring:
        if x in rep_of:
            continue
        coset = sorted(vadd(x, i, p) for i in members)
        canon = coset[0]
        for y in coset:
            rep_of[y] = canon
    reps = sorted(set(rep_of.values()))
    return rep_of, reps


def verify_maximal_prime(cfg: FiniteConfig, ideals: list[FiniteIdeal]) -> Report:
    """The maximal/prime/quotient checks over `ideals`, which is `enumerate_ideals(cfg)`."""
    report = Report(f"oracle-maximal-prime lambda={cfg.lambda_size} field={cfg.field_order}")
    p = cfg.field_order
    ring = ring_elements(cfg)
    zero = (0,) * cfg.lambda_size

    for idx, ideal in enumerate(ideals):
        members = ideal.elements
        maximal = not any(
            members < other.elements for other in ideals if other.elements != members
        )
        prime = all(
            x in members or y in members
            for x in ring
            for y in ring
            if vmul(x, y, p) in members
        )

        rep_of, reps = _quotient_table(ideal, cfg)
        zero_rep = rep_of[zero]
        one_rep = rep_of[(1,) * cfg.lambda_size]
        nonzero = [r for r in reps if r != zero_rep]
        is_field = all(
            any(rep_of[vmul(a, b, p)] == one_rep for b in nonzero) for a in nonzero
        )
        no_zero_divisors = not any(
            rep_of[vmul(a, b, p)] == zero_rep for a in nonzero for b in nonzero
        )

        vanish = vanishing_set(ideal, cfg)
        size_ok = len(members) == p ** (cfg.lambda_size - vanish.bit_count())
        quot_ok = len(reps) == p ** vanish.bit_count()
        exact_vanishing = members == frozenset(
            x for x in ring if zero_mask(x) & vanish == vanish
        )

        label = f"ideal[{idx}] vanishing-on={_mask_text(vanish, cfg)}"
        report.check(f"{label} maximal<->field", maximal == is_field,
                     witness=f"maximal={maximal} field={is_field}")
        report.check(f"{label} prime<->no-zero-divisors", prime == no_zero_divisors,
                     witness=f"prime={prime} division={no_zero_divisors}")
        report.check(f"{label} maximal-implies-prime", (not maximal) or prime)
        report.check(f"{label} is the vanishing ideal of a nonempty set",
                     exact_vanishing and vanish != 0)
        report.check(f"{label} |ideal|=p^(L-|S|) and |quotient|=p^|S|", size_ok and quot_ok,
                     witness=f"|I|={len(members)} |A|={len(reps)}")
    return report


def run_oracle(cfg: FiniteConfig, which: str = "all") -> list[Report]:
    """The reports of the `which` checks, over one enumeration of the ideals."""
    checks = {"galois": [verify_galois], "maximal-prime": [verify_maximal_prime]}
    checks["all"] = checks["galois"] + checks["maximal-prime"]
    if which not in checks:
        raise ValueError(f"unknown oracle check {which!r}")
    ideals = enumerate_ideals(cfg)
    return [verify(cfg, ideals) for verify in checks[which]]
