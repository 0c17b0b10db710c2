"""The representable sequence algebra: maps N -> Q built from residue-class
rational-function branches plus finitely many overrides.

This class is closed under the pointwise ring operations and the right
shift, every zero set is an eventually periodic set, and membership in the
decidable ideals is therefore computable.  Values are canonical (minimal
modulus, no redundant overrides), so structural equality means pointwise
equality; input is validated at `RSeq(...)`, and ring results skip that.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import MissingException, NotConvergent, TooManyOverrides, UnboundedSequence
from .exactnum import (
    Rat,
    RatFun,
    integer_roots_nonneg,
    limit_at_infinity,
    sign,
    sign_breaks,
)
from .sets_filters import MAX_MODULUS, SetDescriptor, lcm, minimal_period  # noqa: F401 (MAX_MODULUS is re-exported)

# A sequence lists its overrides one by one, and the partial sums of a
# sequence overridden at N override every index up to N; `gsc sum` of
# `sum(n except {4999: 1})` takes 0.3-0.4 s on a 2-core VM, and 0.4-0.7 s
# with a quintic branch.
MAX_OVERRIDES = 5000


def check_overrides(count: int) -> None:
    """Refuse a sequence of `count` overrides past MAX_OVERRIDES."""
    if count > MAX_OVERRIDES:
        raise TooManyOverrides(f"a sequence may hold at most {MAX_OVERRIDES} overrides")


@dataclass(frozen=True, slots=True)
class BSeqVerdict:
    """Convergent(limit) / BoundedDivergent / Unbounded, mutually exclusive."""

    kind: str
    limit: Rat | None = None

    CONVERGENT = "Convergent"
    BOUNDED_DIVERGENT = "BoundedDivergent"
    UNBOUNDED = "Unbounded"

    @classmethod
    def convergent(cls, limit) -> "BSeqVerdict":
        return cls(cls.CONVERGENT, Fraction(limit))

    @classmethod
    def bounded_divergent(cls) -> "BSeqVerdict":
        return cls(cls.BOUNDED_DIVERGENT)

    @classmethod
    def unbounded(cls) -> "BSeqVerdict":
        return cls(cls.UNBOUNDED)

    @classmethod
    def of(cls, limits) -> "BSeqVerdict":
        """The verdict of branches tending to `limits` (ExtendedRats):
        Unbounded when one is infinite, Convergent when all agree, and
        BoundedDivergent otherwise."""
        if any(not l.is_finite for l in limits):
            return cls.unbounded()
        values = {l.value for l in limits}
        if len(values) == 1:
            return cls.convergent(values.pop())
        return cls.bounded_divergent()

    def __repr__(self) -> str:
        if self.kind == self.CONVERGENT:
            return f"Convergent({self.limit})"
        return self.kind


@dataclass(frozen=True, slots=True, eq=False)
class RSeq:
    """A representable sequence N -> Q.

    eval(n) is the override value when n is an exception key, otherwise
    branches[n mod modulus](n).  The public constructor converts and
    validates its input; ring results, whose parts are already valid, are
    built past it.  Both canonicalize and insist every branch-denominator
    root inside its class is declared as an exception, so eval is total.
    `exceptions` is a dict, so equality and hashing are written out below.
    """

    modulus: int
    branches: tuple[RatFun, ...]
    exceptions: dict[int, Rat]

    def __init__(self, modulus: int, branches, exceptions=None):
        lcm(modulus)  # refuses a modulus past MAX_MODULUS
        branches = tuple(b if isinstance(b, RatFun) else RatFun(b) for b in branches)
        if modulus < 1 or len(branches) != modulus:
            raise ValueError("need one branch per residue class")
        check_overrides(len(exceptions or ()))
        exceptions = {int(n): Fraction(v) for n, v in (exceptions or {}).items()}
        if any(n < 0 for n in exceptions):
            raise ValueError("exception indices must be naturals")
        self._set(modulus, branches, exceptions)

    def _set(self, modulus: int, branches: tuple[RatFun, ...], exceptions: dict[int, Rat]) -> "RSeq":
        # Fold to the smallest divisor modulus with identical branch pattern.
        if modulus > 1:
            modulus = minimal_period(
                modulus, lambda d: all(branches[r] == branches[r % d] for r in range(d, len(branches)))
            )
            branches = branches[:modulus]

        # Drop overrides that agree with their branch.
        pruned = {}
        for n, v in exceptions.items():
            br = branches[n % modulus]
            if br.den(n) != 0 and br(n) == v:
                continue
            pruned[n] = v

        # Totality: every denominator root in its class must be overridden.
        for r, br in enumerate(branches):
            if br.den.degree > 0:
                for n in integer_roots_nonneg(br.den):
                    if n % modulus == r and n not in pruned:
                        raise MissingException(f"branch denominator vanishes at n={n}; declare an exception")

        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "exceptions", pruned)
        return self

    @classmethod
    def _canonical(cls, modulus: int, branches: tuple[RatFun, ...], exceptions: dict[int, Rat]) -> "RSeq":
        """Valid, converted parts, folded, pruned and checked for totality past `__init__`."""
        return object.__new__(cls)._set(modulus, branches, exceptions)

    # -- evaluation --------------------------------------------------------

    def eval(self, n: int) -> Rat:
        v = self.exceptions.get(n)
        if v is not None:
            return v
        return self.branches[n % self.modulus](n)

    def prefix(self, count: int) -> list[Rat]:
        return [self.eval(n) for n in range(count)]

    # -- ring operations -----------------------------------------------------

    def _merge(self, other: "RSeq", op) -> "RSeq":
        """op (add, sub or mul) applied branch by branch and at every override."""
        m = lcm(self.modulus, other.modulus)
        branches = tuple(op(self.branches[r % self.modulus], other.branches[r % other.modulus]) for r in range(m))
        keys = self.exceptions.keys() | other.exceptions.keys()
        check_overrides(len(keys))
        return RSeq._canonical(m, branches, {n: op(self.eval(n), other.eval(n)) for n in keys})

    def __add__(self, other: "RSeq") -> "RSeq":
        return self._merge(other, operator.add)

    def __sub__(self, other: "RSeq") -> "RSeq":
        return self._merge(other, operator.sub)

    def __mul__(self, other: "RSeq") -> "RSeq":
        return self._merge(other, operator.mul)

    def __neg__(self) -> "RSeq":
        return self.scale(-1)

    def scale(self, c) -> "RSeq":
        c = Fraction(c)
        branches = tuple(b.scale(c) for b in self.branches)
        return RSeq._canonical(self.modulus, branches, {n: v * c for n, v in self.exceptions.items()})

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.branches) and not self.exceptions

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RSeq)
            and self.modulus == other.modulus
            and self.branches == other.branches
            and self.exceptions == other.exceptions
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.branches, tuple(sorted(self.exceptions.items()))))

    # -- structure ----------------------------------------------------------

    def shift(self) -> "RSeq":
        """The sequence n -> self(n + 1)."""
        m = self.modulus
        branches = [self.branches[(r + 1) % m].shift_arg(1) for r in range(m)]
        exceptions = {n - 1: v for n, v in self.exceptions.items() if n >= 1}
        return RSeq(m, branches, exceptions)

    def sign_set(self, signs) -> SetDescriptor:
        """Exactly { n | sign(self(n)) in signs } as a set descriptor.

        Sign breaks come from real roots, so a branch keeps one nonzero sign
        on every natural between consecutive breaks, and that of its leading
        coefficient past the last one.  One probe at a gap's first natural
        decides it, and the gap differs from the tail by one segment of flips
        or not at all.  When `signs` holds both or neither of -1 and 1, every
        gap agrees with the tail and none is probed.  Besides the probes, only
        the breaks in the class and the exceptions are evaluated.
        """
        m = self.modulus
        probe = (1 in signs) != (-1 in signs)
        residues, runs, points = [], [], set(self.exceptions)
        for r, br in enumerate(self.branches):
            eventual = sign(br.num.lead) in signs  # the denominator is monic
            if eventual:
                residues.append(r)
            lo = 0
            for c in sign_breaks(br):
                if probe and lo < c and (sign(br(lo)) in signs) != eventual:
                    runs.append((lo, c, m, 1 << r))
                if c % m == r:
                    points.add(c)
                lo = c + 1
        plus = [n for n in points if sign(self.eval(n)) in signs]
        return SetDescriptor(m, residues, plus=plus, minus=points.difference(plus), flips=runs)

    def sign_tail(self, signs) -> SetDescriptor:
        """The periodic tail of `sign_set(signs)`, which differs from it at
        finitely many points: the classes whose leading coefficient has a
        sign in `signs`."""
        mask = sum(1 << r for r, br in enumerate(self.branches) if sign(br.num.lead) in signs)
        return SetDescriptor._periodic(self.modulus, mask)

    def zero_set(self) -> SetDescriptor:
        """Exactly { n | self(n) = 0 } as a set descriptor."""
        return self.sign_set({0})

    # -- analysis -------------------------------------------------------------

    def branch_limits(self):
        return [limit_at_infinity(br) for br in self.branches]

    def classify_bounded(self) -> BSeqVerdict:
        return BSeqVerdict.of(self.branch_limits())

    def limit(self) -> Rat:
        verdict = self.classify_bounded()
        if verdict.kind != BSeqVerdict.CONVERGENT:
            raise NotConvergent(f"sequence is {verdict.kind}")
        return verdict.limit

    def _bounds(self) -> tuple[Rat, Rat]:
        """(inf, sup) from the few points where a monotone run can end.

        Along class r the step br(n + m) - br(n) keeps one sign between
        consecutive sign breaks c, so the branch is monotone there and its
        runs end at the class's first point, in some [c, c + m], or at the
        branch limit.  An exception e cuts a run into pieces that end at
        e - m and e + m.
        """
        limits = self.branch_limits()
        if BSeqVerdict.of(limits).kind == BSeqVerdict.UNBOUNDED:
            raise UnboundedSequence("sup/inf of an unbounded sequence")
        m = self.modulus
        points = set(range(m))
        for e in self.exceptions:
            points.update(n for n in (e - m, e, e + m) if n >= 0)
        for r, br in enumerate(self.branches):
            for c in sign_breaks(br.shift_arg(m) - br):
                points.update(range(c + (r - c) % m, c + m + 1, m))
        candidates = [self.eval(n) for n in points]
        candidates.extend(l.value for l in limits)
        return min(candidates), max(candidates)

    def sup_val(self) -> Rat:
        return self._bounds()[1]

    def inf_val(self) -> Rat:
        return self._bounds()[0]

    def __repr__(self) -> str:
        parts = ", ".join(repr(b) for b in self.branches)
        exc = f", exceptions={self.exceptions}" if self.exceptions else ""
        return f"RSeq(mod {self.modulus}: {parts}{exc})"


# -- constructors ---------------------------------------------------------------


def make_constant(c) -> RSeq:
    """The diagonal sequence (c, c, c, ...)."""
    return RSeq._canonical(1, (RatFun.constant(c),), {})


def make_identity() -> RSeq:
    """The ramp sequence n -> n."""
    return RSeq._canonical(1, (RatFun.identity(),), {})


def indicator(s: SetDescriptor) -> RSeq:
    """The 0/1 characteristic sequence of a set descriptor."""
    one, zero = RatFun.constant(1), RatFun.constant(0)
    # Character r of the reversed binary tail is bit r: one pass over the bits.
    tail = f"{s.tail:0{s.modulus}b}"[::-1]
    branches = [one if bit == "1" else zero for bit in tail]
    exceptions = {n: Fraction(1) for n in s.plus}
    exceptions.update({n: Fraction(0) for n in s.minus})
    return RSeq(s.modulus, branches, exceptions)
