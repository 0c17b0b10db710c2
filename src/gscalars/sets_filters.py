"""Decidable subsets of N and decidable filters on N.

A SetDescriptor is an eventually periodic set, kept as a periodic tail plus
a sorted list of disjoint half-open segments on which the set deviates from
that tail.  The tail is a residue pattern over the set's modulus, and each
segment carries its own residue pattern, which the set follows there
instead.  Patterns are int bitmasks, bit r standing for residue r, so lcm
expansion, the boolean operations, `superset_of` and the minimal-period
fold are integer operations.  No operation lists the points of a segment:
the cost grows with the number of segments and the moduli, not with the
distance between points.  Only `plus`, `minus`, `elements` and `render`
list points, because their result is a point list.  The constructor sweeps
the sorted cuts (flip starts and stops, points n and n + 1) once, keeping
one xor of the open flips for each period, so it costs the number of cuts
times the number of periods open together.  The boolean operations emit
their result's segments in canonical form as they walk both sets, and do
not re-normalise it through the constructor.

This class of sets is closed under boolean algebra, is exactly the class of
zero sets of representable sequences, and makes every predicate here total
and exact.

A pattern is as wide as its modulus, and a sequence keeps one branch per
residue class, so every modulus and every lcm of moduli formed here is
checked against MAX_MODULUS (`lcm`) before a pattern that wide is built.

A filter over a base set B is principal (the supersets of B) or cofinite
(the sets holding all but finitely many points of B; Frechet when B is N).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, or_, xor

from .errors import InvalidFilter, ModulusTooLarge
from .report import Report

MAX_MODULUS = 10**5

# (start, stop, period, pattern): n in [start, stop) is a member exactly
# when bit n % period of `pattern` is set.
Segment = tuple[int, int, int, int]


def lcm(*moduli: int) -> int:
    """The least common multiple of `moduli`, refused past MAX_MODULUS."""
    m = math.lcm(*moduli)
    if m > MAX_MODULUS:
        raise ModulusTooLarge(f"modulus {m} is above the limit of {MAX_MODULUS}")
    return m


@lru_cache(maxsize=256)
def _prime_factors(m: int) -> tuple[int, ...]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return tuple(out)


def minimal_period(m: int, is_period) -> int:
    """The smallest period of a pattern with period m, given is_period(d) for divisors d of m.

    The periods of a periodic pattern are the multiples of the smallest one,
    so dividing m by each prime factor while the quotient stays a period
    reaches it in a handful of tests.
    """
    d = m
    for p in _prime_factors(m):
        while d % p == 0 and is_period(d // p):
            d //= p
    return d


def _spread(mask: int, p: int, q: int) -> int:
    """The pattern `mask` of period p written over q bits, for p dividing q."""
    return mask if p == q else mask * (((1 << q) - 1) // ((1 << p) - 1))


def _window(lo: int, hi: int, q: int) -> int:
    """The residues mod q of the naturals in [lo, hi), as a bitmask."""
    if hi - lo >= q:
        return (1 << q) - 1
    w = ((1 << (hi - lo)) - 1) << (lo % q)
    return (w | w >> q) & ((1 << q) - 1)


def _fold(mask: int, q: int) -> tuple[int, int]:
    """(d, pattern) for the smallest period d of the pattern `mask` over q bits."""
    d = minimal_period(q, lambda d: _spread(mask & ((1 << d) - 1), d, q) == mask)
    return d, mask & ((1 << d) - 1)


def _first_flip(lo: int, q: int, flips: int) -> int:
    """The smallest n >= lo whose bit n % q is set in the nonzero `flips`."""
    r = lo % q
    turned = (flips >> r | flips << (q - r)) & ((1 << q) - 1)
    return lo + (turned & -turned).bit_length() - 1


def _last_flip(hi: int, q: int, flips: int) -> int:
    """The largest n < hi whose bit n % q is set in the nonzero `flips`."""
    r = (hi - 1) % q
    turned = (flips << (q - 1 - r) | flips >> (r + 1)) & ((1 << q) - 1)
    return hi - q + turned.bit_length() - 1


def _append(out: list[Segment], modulus: int, tail: int, lo: int, hi: int, q: int, flips: int) -> None:
    """Add the points of [lo, hi) flipped against the tail by `flips` (period
    q) to the sorted segments `out`: trimmed to the first and last flipped
    point, folded to the minimal period, and merged into the previous
    segment when that one's pattern runs on up to them."""
    if hi - lo > 1:
        flips &= _window(lo, hi, q)
        if not flips:
            return
        lo, hi = _first_flip(lo, q, flips), _last_flip(hi, q, flips) + 1
    elif not flips >> lo % q & 1:
        return
    if hi - lo == 1:
        p, pattern = 1, 1 - (tail >> lo % modulus & 1)
    else:
        r = lcm(q, modulus)
        p, pattern = _fold(_spread(flips & _window(lo, hi, q), q, r) ^ _spread(tail, modulus, r), r)
    if out:
        start, stop, p0, pattern0 = out[-1]
        if p0 == p and pattern0 == pattern:
            r = lcm(p, modulus)
            if stop == lo or not (_spread(pattern, p, r) ^ _spread(tail, modulus, r)) & _window(stop, lo, r):
                out[-1] = (start, hi, p, pattern)
                return
    out.append((lo, hi, p, pattern))


def _normal_segments(modulus: int, tail: int, flips, plus: set[int], minus: set[int]) -> tuple[Segment, ...]:
    """The segments of the set that follows the tail except where `flips`
    (start, stop, period, flipped residues) flip it, overlapping flips
    cancelling, and that holds `plus` and avoids `minus` but not `plus`.
    Each piece between two cuts is flipped by the xors of the open flips,
    kept per period and spread to the lcm of the periods open on it; a
    point's one-point piece is set by the point alone."""
    points = plus | minus
    toggles: dict[int, list[tuple[int, int, int]]] = {}
    for start, stop, p, mask in flips:
        if start < stop:
            toggles.setdefault(start, []).append((p, mask, 1))
            toggles.setdefault(stop, []).append((p, mask, -1))
    cuts = sorted({*toggles, *points, *(n + 1 for n in points)})
    open_: dict[int, list[int]] = {}  # period -> [xor of its open masks, open count]
    out: list[Segment] = []
    for lo, hi in zip(cuts, cuts[1:]):
        for p, mask, step in toggles.get(lo, ()):
            acc = open_.setdefault(p, [0, 0])
            acc[0] ^= mask
            acc[1] += step
            if not acc[1]:
                del open_[p]
        if lo in points:
            if (lo in plus) != (tail >> lo % modulus & 1):
                _append(out, modulus, tail, lo, hi, 1, 1)
        elif open_:
            q = lcm(*open_)
            mask = reduce(xor, (_spread(acc, p, q) for p, (acc, _) in open_.items()))
            _append(out, modulus, tail, lo, hi, q, mask)
    return tuple(out)


def _pieces(s: "SetDescriptor"):
    """The runs (start, stop, period, pattern) that cover N in order, each
    with the set's membership pattern on it; the last stop is None."""
    lo = 0
    for start, stop, p, pattern in s.segments:
        if lo < start:
            yield lo, start, s.modulus, s.tail
        yield start, stop, p, pattern
        lo = stop
    yield lo, None, s.modulus, s.tail


_INF = float("inf")
_NONE = (_INF, _INF, 1, 0)


def _overlay(s: "SetDescriptor", t: "SetDescriptor"):
    """The runs (start, stop, period, pattern of s, pattern of t) that cover
    the segments of both sets, in order, on each of which both sets follow
    one membership pattern over a shared period.  Outside these runs both
    sets follow their tails.  The runs are sorted and disjoint, and a run of
    one point has period 1: its patterns are the two membership bits."""
    ss, ts = s.segments, t.segments
    i = j = lo = 0
    a = ss[0] if ss else _NONE
    b = ts[0] if ts else _NONE
    while a is not _NONE or b is not _NONE:
        if lo < a[0] and lo < b[0]:
            lo = a[0] if a[0] < b[0] else b[0]
        if a[0] <= lo:
            _, hi, p, pa = a
        else:
            p, pa, hi = s.modulus, s.tail, a[0]
        if b[0] <= lo:
            _, stop, q, pb = b
        else:
            q, pb, stop = t.modulus, t.tail, b[0]
        if stop < hi:
            hi = stop
        if hi - lo == 1:
            pa, pb, p = pa >> lo % p & 1, pb >> lo % q & 1, 1
        elif p != q:
            r = lcm(p, q)
            pa, pb, p = _spread(pa, p, r), _spread(pb, q, r), r
        yield lo, hi, p, pa, pb
        if a[1] == hi:
            i += 1
            a = ss[i] if i < len(ss) else _NONE
        if b[1] == hi:
            j += 1
            b = ts[j] if j < len(ts) else _NONE
        lo = hi


@dataclass(frozen=True, slots=True, eq=False)
class SetDescriptor:
    """Eventually periodic subset of N: a periodic tail plus deviating segments.

    n is a member iff bit n % period of `pattern` is set, for the segment
    (start, stop, period, pattern) with start <= n < stop, or iff bit
    n % modulus of `tail` is set when no segment holds n.  Canonical form:
    the tail at its minimal modulus; sorted, disjoint segments, each of
    which begins and ends at a point where the set deviates from the tail,
    with its pattern at its minimal period.  A set can be cut into segments
    in more than one way, so equality compares the sets.
    """

    modulus: int
    tail: int
    segments: tuple[Segment, ...]

    def __init__(self, modulus: int, residues=(), plus=(), minus=(), *, flips=()):
        """n is a member iff n is in `plus`, or n is not in `minus` and the
        tail (`residues` mod modulus) holds n, flipped once by each (start,
        stop, period, mask) of `flips` with start <= n < stop and bit
        n % period of mask set."""
        if modulus < 1:
            raise ValueError("modulus must be positive")
        lcm(modulus)  # refuses a modulus past MAX_MODULUS
        pattern = 0
        for r in residues:
            pattern |= 1 << r % modulus
        plus, minus = set(plus), set(minus)
        if any(n < 0 for n in plus | minus) or any(f[0] < 0 for f in flips):
            raise ValueError("finite modifications must be naturals")
        period, tail = _fold(pattern, modulus)
        object.__setattr__(self, "modulus", period)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "segments", _normal_segments(period, tail, flips, plus, minus))

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
        # The last segment starting at or before n is the only one that can hold it.
        i = bisect_right(self.segments, (n, _INF))
        if i:
            _, stop, p, pattern = self.segments[i - 1]
            if n < stop:
                return bool(pattern >> n % p & 1)
        return bool(self.tail >> n % self.modulus & 1)

    __contains__ = member

    def is_empty(self) -> bool:
        return not self.tail and not self.segments

    def is_finite(self) -> bool:
        return not self.tail

    def is_cofinite(self) -> bool:
        return self.tail == (1 << self.modulus) - 1

    def is_naturals(self) -> bool:
        return self.is_cofinite() and not self.segments

    @property
    def residues(self) -> frozenset[int]:
        """The tail's residues mod `modulus`."""
        return frozenset(r for r in range(self.modulus) if self.tail >> r & 1)

    def _deviations(self, removed: bool) -> list[int]:
        """The sorted points where the set deviates from its tail: the
        members outside the tail's residues, or the non-members inside them
        (`removed`).  Lists every such point."""
        m = self.modulus
        out = []
        for start, stop, p, pattern in self.segments:
            q = lcm(p, m)
            pattern, tail = _spread(pattern, p, q), _spread(self.tail, m, q)
            picked = tail & ~pattern if removed else pattern & ~tail
            for r in range(q):
                if picked >> r & 1:
                    out.extend(range(start + (r - start) % q, stop, q))
        out.sort()
        return out

    @property
    def plus(self) -> frozenset[int]:
        """The members outside the tail's residues, each listed."""
        return frozenset(self._deviations(removed=False))

    @property
    def minus(self) -> frozenset[int]:
        """The non-members inside the tail's residues, each listed."""
        return frozenset(self._deviations(removed=True))

    def elements(self) -> list[int]:
        """All members, defined only for finite descriptors."""
        if not self.is_finite():
            raise ValueError("infinite set has no element list")
        return self._deviations(removed=False)

    def sample(self, count: int) -> list[int]:
        """The first `count` members in increasing order."""
        out = []
        for lo, hi, p, pattern in _pieces(self):
            n = lo
            while pattern and len(out) < count and (hi is None or n < hi):
                if pattern >> n % p & 1:
                    out.append(n)
                n += 1
        return out

    # -- boolean algebra --------------------------------------------------

    def complement(self) -> "SetDescriptor":
        return self._combine(SetDescriptor.naturals(), xor)

    def union(self, other: "SetDescriptor") -> "SetDescriptor":
        return self._combine(other, or_)

    def intersect(self, other: "SetDescriptor") -> "SetDescriptor":
        return self._combine(other, and_)

    def _combine(self, other: "SetDescriptor", op) -> "SetDescriptor":
        """The set op(self, other), canonical in one pass: the tail is folded
        first, and each `_overlay` run, already sorted and disjoint, goes
        straight to `_append` against it, so nothing is sorted, scanned for
        overlaps or folded again.  A one-point run flips with period 1."""
        m = lcm(self.modulus, other.modulus)
        tail = op(_spread(self.tail, self.modulus, m), _spread(other.tail, other.modulus, m))
        period, folded = _fold(tail, m)
        out: list[Segment] = []
        for lo, hi, q, a, b in _overlay(self, other):
            if hi - lo == 1:
                _append(out, period, folded, lo, hi, 1, op(a, b) ^ folded >> lo % period & 1)
            else:
                r = lcm(q, m)
                _append(out, period, folded, lo, hi, r, _spread(op(a, b), q, r) ^ _spread(tail, m, r))
        return SetDescriptor._canonical(period, folded, tuple(out))

    @classmethod
    def _canonical(cls, modulus: int, tail: int, segments: tuple[Segment, ...]) -> "SetDescriptor":
        """The descriptor with parts already in canonical form, built past `__init__`."""
        s = object.__new__(cls)
        object.__setattr__(s, "modulus", modulus)
        object.__setattr__(s, "tail", tail)
        object.__setattr__(s, "segments", segments)
        return s

    @classmethod
    def _periodic(cls, modulus: int, mask: int) -> "SetDescriptor":
        """The residues of bitmask `mask` mod `modulus`, folded, built past `__init__`."""
        return cls._canonical(*_fold(mask, modulus), ())

    def superset_of(self, other: "SetDescriptor", up_to_finite: bool = False) -> bool:
        """Whether all points of `other` are members, or, `up_to_finite`, all
        but finitely many: the tails decide that, as segments are finite."""
        # A residue class of `other` missing from our tail leaves infinitely
        # many points uncovered, so the tails are compared first.
        mine, theirs, m = self.tail, other.tail, self.modulus
        if other.modulus != m:
            m = lcm(m, other.modulus)
            mine, theirs = _spread(mine, self.modulus, m), _spread(theirs, other.modulus, m)
        if theirs & ~mine:
            return False
        if not up_to_finite and (self.segments or other.segments):
            for lo, hi, q, mine, theirs in _overlay(self, other):
                if theirs & ~mine & _window(lo, hi, q):
                    return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetDescriptor):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.tail == other.tail
            and (self.segments == other.segments or self._combine(other, xor).is_empty())
        )

    def __hash__(self) -> int:
        # The first and last deviating points do not depend on the segmentation.
        ends = (self.segments[0][0], self.segments[-1][1]) if self.segments else ()
        return hash((self.modulus, self.tail, ends))

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text in the CLI set grammar."""
        added = self._deviations(removed=False)
        if not self.tail:
            return "{" + ",".join(map(str, added)) + "}"
        removed = self._deviations(removed=True)
        base = "|".join(f"{r} mod {self.modulus}" for r in sorted(self.residues))
        if self.tail & (self.tail - 1) and self.segments:
            base = f"({base})"
        if removed:
            base = base + "&~{" + ",".join(map(str, removed)) + "}"
        if added:
            base = base + "|{" + ",".join(map(str, added)) + "}"
        return base

    def __repr__(self) -> str:
        return f"SetDescriptor<{self.render()}>"


# -- filters ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FilterDescriptor:
    """A decidable filter on N: the supersets of `base`, or, if `cofinite`,
    the sets holding all but finitely many of its points."""

    base: SetDescriptor
    cofinite: bool = False

    def __post_init__(self):
        if self.base.is_finite() if self.cofinite else self.base.is_empty():
            raise InvalidFilter("a principal base must be nonempty, and a cofinite base infinite")

    @classmethod
    def frechet(cls) -> "FilterDescriptor":
        return cls(SetDescriptor.naturals(), cofinite=True)

    @classmethod
    def principal(cls, base: SetDescriptor) -> "FilterDescriptor":
        return cls(base)

    def contains(self, j: SetDescriptor) -> bool:
        return j.superset_of(self.base, up_to_finite=self.cofinite)

    def holds(self, x, signs) -> bool:
        """Whether the filter contains { n | sign(x(n)) in signs } for a
        sequence x; a cofinite filter reads only that set's tail."""
        return self.contains(x.sign_tail(signs) if self.cofinite else x.sign_set(signs))

    def render(self) -> str:
        if self.cofinite and self.base.is_naturals():
            return "frechet"
        return f"{'frechet' if self.cofinite else 'principal'}:{self.base.render()}"

    def __repr__(self) -> str:
        return f"FilterDescriptor<{self.render()}>"


def check_filter_axioms(f: FilterDescriptor, samples: list[SetDescriptor]) -> Report:
    """Executable filter axioms, checked over a sample family of sets."""
    report = Report(f"filter-axioms {f.render()}")

    report.check("empty-set-excluded", not f.contains(SetDescriptor.empty()))
    report.check("family-nonempty", f.contains(SetDescriptor.naturals()))

    decided = [f.contains(s) for s in samples]
    members = [s for s, inside in zip(samples, decided) if inside]
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
        for k, inside in zip(samples, decided):
            if k.superset_of(j):
                ups += 1
                if not inside:
                    bad_ups.append((j, k))
    report.check(
        f"superset-closure ({ups} comparable pairs)",
        not bad_ups,
        witness="; ".join(f"{k.render()} >= {j.render()}" for j, k in bad_ups[:3]),
    )
    return report
