"""Exact rational, polynomial, and rational-function arithmetic.

Everything here is arbitrary precision: rationals are `fractions.Fraction`
(re-exported as `Rat`), polynomials keep Fraction coefficients in ascending
order, and rational functions are kept in a unique canonical form (coprime
numerator/denominator, monic denominator) so structural equality is
meaningful.  Inputs are converted and validated at the public constructors;
ring results are built already canonical past them, and a constant side takes
no gcd.  The asymptotic helpers (limit at infinity, sign breaks from Sturm
root isolation, eventual sign, nonnegative integer roots) are the analysis
primitives every other module leans on.  Gcds, the cancellation of common
factors and root isolation clear denominators once and then work over Z:
`poly_gcd`, the squarefree part and the Sturm chain all come from one
primitive pseudo-remainder sequence, a common factor cancels by exact
integer division, and root isolation evaluates integer polynomials at
integer points.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DegreeTooLarge, ZeroDenominator, ZeroPolynomial

Rat = Fraction
_ZERO = Fraction(0)

# Root isolation and the partial sums' interpolation slow down steeply with
# the degree.  The slowest query measured under the limit, `gsc sum` of a
# degree-23 product of factors (k+1)*n - k split over six residue classes
# (its partial sums have degree 24), takes 0.3-0.5 s on a 2-core VM; the
# same query takes 1.1 s at degree 28 and 23 s at degree 48.
MAX_DEGREE = 24


def _check_degree(degree: int) -> None:
    """Refuse a polynomial of degree past MAX_DEGREE before it is built."""
    if degree > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {degree} is above the limit of {MAX_DEGREE}")


def _strip(cs: list[Rat]) -> tuple[Rat, ...]:
    """The coefficients `cs` without their trailing zeros."""
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def sign(q: Rat) -> int:
    """-1, 0 or 1 as q is negative, zero or positive."""
    n = q.numerator  # integer comparisons are much cheaper than Fraction ones
    return (n > 0) - (n < 0)


@dataclass(frozen=True, slots=True)
class Poly:
    """Polynomial over Q; coefficients ascending by degree, no trailing zeros.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    coeffs: tuple[Rat, ...]

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _strip([Fraction(c) for c in coeffs]))

    @classmethod
    def _canonical(cls, cs: list[Rat]) -> "Poly":
        """The Fraction coefficients `cs` as they are, past `__init__`: only trailing zeros go."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", _strip(cs))
        return p

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls._canonical([Fraction(c)])

    @classmethod
    def identity(cls) -> "Poly":
        """The polynomial n."""
        return cls._canonical([Fraction(0), Fraction(1)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Rat:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x) -> Rat:
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __neg__(self) -> "Poly":
        return Poly._canonical([-c for c in self.coeffs])

    def __add__(self, other: "Poly") -> "Poly":
        a, b = (self.coeffs, other.coeffs) if len(self.coeffs) >= len(other.coeffs) else (other.coeffs, self.coeffs)
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._canonical(out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = list(self.coeffs) + [_ZERO] * (len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return Poly._canonical(out)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly._canonical([])
        _check_degree(self.degree + other.degree)
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly._canonical(out)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly._canonical([a * c for a in self.coeffs])

    def shift_arg(self, k: int) -> "Poly":
        """The polynomial p(n + k)."""
        if k == 0 or self.is_zero():
            return self
        step = Poly._canonical([Fraction(k), Fraction(1)])  # n + k
        acc = Poly._canonical([])
        for c in reversed(self.coeffs):
            acc = acc * step + Poly.constant(c)
        return acc


def poly_interpolate(points: list[tuple[int, Rat]]) -> Poly:
    """The unique polynomial of degree < len(points) through the points.

    Newton's divided differences, exact over Q.
    """
    _check_degree(len(points) - 1)
    xs = [Fraction(x) for x, _ in points]
    coeffs = [Fraction(y) for _, y in points]
    for j in range(1, len(points)):
        for i in range(len(points) - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    # Horner over the Newton basis.
    poly = Poly.constant(coeffs[-1])
    for i in range(len(points) - 2, -1, -1):
        poly = poly * Poly._canonical([-xs[i], Fraction(1)]) + Poly.constant(coeffs[i])
    return poly


@dataclass(frozen=True, slots=True)
class ExtendedRat:
    """A rational value extended with out-of-field +/- infinity markers."""

    sign: int
    value: Rat | None = None

    def __post_init__(self):
        if self.sign == 0:
            object.__setattr__(self, "value", Fraction(self.value))
        elif self.sign not in (1, -1) or self.value is not None:
            raise ValueError("infinite ExtendedRat carries no payload")

    @classmethod
    def finite(cls, q) -> "ExtendedRat":
        return cls(0, q)

    @property
    def is_finite(self) -> bool:
        return self.sign == 0

    def __repr__(self) -> str:
        if self.sign > 0:
            return "+inf"
        if self.sign < 0:
            return "-inf"
        return str(self.value)


PLUS_INFINITY = ExtendedRat(1)
MINUS_INFINITY = ExtendedRat(-1)
_ONE = Poly.constant(1)  # the denominator of every polynomial RatFun


@dataclass(frozen=True, slots=True)
class RatFun:
    """Rational function num/den in canonical form.

    Canonical means gcd(num, den) = 1 and den monic; the zero function is
    0/1.  Structural equality of canonical values is semantic equality.
    A gcd is taken only when both sides are nonconstant: the monic gcd with
    a nonzero constant is 1.
    """

    num: Poly
    den: Poly

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly.constant(num)
        if den is None:
            den = _ONE
        elif not isinstance(den, Poly):
            den = Poly.constant(den)
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero():
            den = _ONE
        elif num.degree > 0 and den.degree > 0 and (g := poly_gcd(num, den)).degree > 0:
            num, den = _divide(num, g), _divide(den, g)
        if (lead := den.lead) != 1:
            num, den = num.scale(1 / lead), den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _canonical(cls, num: Poly, den: Poly) -> "RatFun":
        """num/den with parts already in canonical form, built past `__init__`."""
        f = object.__new__(cls)
        object.__setattr__(f, "num", num)
        object.__setattr__(f, "den", den)
        return f

    @classmethod
    def constant(cls, c) -> "RatFun":
        return cls._canonical(Poly.constant(c), _ONE)

    @classmethod
    def identity(cls) -> "RatFun":
        return cls._canonical(Poly.identity(), _ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __call__(self, n) -> Rat:
        return self.num(n) / self.den(n)

    def __neg__(self) -> "RatFun":
        return RatFun._canonical(-self.num, self.den)

    # The zero function is canonical 0/1, so a zero operand is answered
    # without the gcd work of a new canonical form.

    def _sum(self, other: "RatFun", op) -> "RatFun":
        """op(self, other) for op add or sub, built over the lcm of the denominators."""
        if self.den.degree == 0 == other.den.degree:  # monic, so both are 1
            return RatFun._canonical(op(self.num, other.num), _ONE)
        if self.den == other.den:
            return RatFun(op(self.num, other.num), self.den)
        # The product of the denominators is their lcm unless they share a factor.
        mine, theirs = other.den, self.den
        if mine.degree > 0 and theirs.degree > 0 and (g := poly_gcd(mine, theirs)).degree > 0:
            mine, theirs = _divide(mine, g), _divide(theirs, g)
        return RatFun(op(self.num * mine, other.num * theirs), self.den * mine)

    def __add__(self, other: "RatFun") -> "RatFun":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return self._sum(other, operator.add)

    def __sub__(self, other: "RatFun") -> "RatFun":
        if other.is_zero():
            return self
        if self.is_zero():
            return -other
        return self._sum(other, operator.sub)

    def __mul__(self, other: "RatFun") -> "RatFun":
        if self.is_zero():
            return self
        if other.is_zero():
            return other
        if self.den.degree == 0 == other.den.degree:  # monic, so both are 1
            return RatFun._canonical(self.num * other.num, _ONE)
        return RatFun(self.num * other.num, self.den * other.den)

    def scale(self, c) -> "RatFun":
        num = self.num.scale(c)
        return RatFun._canonical(num, self.den if num.coeffs else _ONE)

    def reciprocal(self) -> "RatFun":
        if self.is_zero():
            raise ZeroDenominator("reciprocal of the zero function")
        return RatFun(self.den, self.num)

    def shift_arg(self, k: int) -> "RatFun":
        return RatFun(self.num.shift_arg(k), self.den.shift_arg(k))

    def __repr__(self) -> str:
        return f"RatFun({list(self.num.coeffs)!r}, {list(self.den.coeffs)!r})"


# Gcds and root isolation run on integer coefficient lists, ascending like
# Poly's.  Only the divisors, signs and zeros of a polynomial matter here,
# and all of them survive scaling by a positive integer, so every list is
# kept primitive.


def _primitive(cs: list[int]) -> list[int]:
    """cs divided by its positive content (the gcd of its coefficients)."""
    g = gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _integer_form(p: Poly) -> list[int]:
    """p times the positive rational that makes it a primitive integer polynomial."""
    scale = lcm(*(c.denominator for c in p.coeffs))
    return _primitive([c.numerator * (scale // c.denominator) for c in p.coeffs])


def _horner(cs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _negated_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of -(a % b), primitive; [] when b divides a.

    Pseudo-division: each step scales the running remainder by |lc(b)|
    before it cancels the top term, so the remainder ends as
    |lc(b)|^k (a % b) for the k <= deg a - deg b + 1 steps taken, a
    positive multiple of a % b.
    """
    r = list(a)
    d, lead = len(b) - 1, b[-1]
    scale = abs(lead)
    while len(r) > d:
        c = r[-1]
        if c:
            c = c if lead > 0 else -c
            k = len(r) - 1 - d
            r = [x * scale for x in r]
            for i, x in enumerate(b):
                r[k + i] -= c * x
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return _primitive([-x for x in r]) if r else r


def _remainder_sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """a, b, then each next term a positive multiple of -(prev2 % prev1).

    The primitive pseudo-remainder sequence of a and b, for a nonzero b:
    its last term is gcd(a, b) up to a constant factor, and a constant
    when a and b are coprime.
    """
    chain = [a, b]
    while len(chain[-1]) > 1:
        r = _negated_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
    return chain


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q[n]; gcd(0, 0) = 0.

    The monic gcd over Q is unique, so it is the last term of the primitive
    pseudo-remainder sequence of the integer forms of a and b, made monic.
    """
    g = _integer_form(a)
    if not b.is_zero():
        g = _remainder_sequence(g, _integer_form(b))[-1]
    return Poly._canonical([Fraction(c, g[-1]) for c in g])


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b, for a primitive b that divides a over Q.

    By Gauss's lemma the quotient has integer coefficients, so each step
    divides exactly.
    """
    r = list(a)
    d = len(b) - 1
    q = [0] * (len(a) - d)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + d] // b[-1]
        if c:
            for i, x in enumerate(b):
                r[k + i] -= c * x
    return q


def _divide(a: Poly, g: Poly) -> Poly:
    """a / g, for a nonzero g that divides a, by exact division of their integer forms."""
    cs, gs = _integer_form(a), _integer_form(g)
    scale = a.lead * gs[-1] / (cs[-1] * g.lead)
    return Poly._canonical([scale * c for c in _exact_quotient(cs, gs)])


def _derivative(cs: list[int]) -> list[int]:
    return _primitive([i * c for i, c in enumerate(cs) if i > 0])


def _sturm_chain(cs: list[int]) -> list[list[int]]:
    """The Sturm chain of the squarefree part of cs, a nonconstant integer form.

    The squarefree part is cs divided by gcd(cs, cs'), and it has the same
    real roots as cs, each once.  When cs is squarefree, the remainder
    sequence of cs and cs' already is its Sturm chain.
    """
    chain = _remainder_sequence(cs, _derivative(cs))
    if len(chain[-1]) > 1:
        cs = _exact_quotient(cs, chain[-1])
        chain = _remainder_sequence(cs, _derivative(cs))
    return chain


def root_bound(p: Poly | list[int]) -> int:
    """Integer strictly greater than every real root of p (Cauchy bound).

    p is a Poly or its integer form; scaling p does not move the bound.
    """
    cs = _integer_form(p) if isinstance(p, Poly) else p
    if len(cs) <= 1:
        return 0
    return max(abs(c) for c in cs[:-1]) // abs(cs[-1]) + 2


def _variations(chain: list[list[int]], x: int) -> int:
    count = 0
    prev = 0
    for cs in chain:
        v = _horner(cs, x)
        if v:
            s = 1 if v > 0 else -1
            if s == -prev:
                count += 1
            prev = s
    return count


def root_breaks(p: Poly) -> list[int]:
    """The sorted naturals c such that p has a real root in (c - 1, c].

    These are the only naturals where the sign of p on N can change: on the
    naturals strictly between two consecutive breaks, before the first break
    and after the last one, p has one nonzero sign.  Roots are isolated by
    Sturm-chain bisection of the squarefree part over (-1, Cauchy bound],
    so the work grows with the number of roots times the logarithm of the
    bound, not with the size of the roots.  All of it runs on p's integer
    form, not on its Fraction coefficients: the chain is a primitive
    pseudo-remainder sequence over Z, and each bisection step evaluates it
    by integer Horner at an integer point.
    """
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial vanishes everywhere")
    if p.degree == 0:
        return []
    chain = _sturm_chain(_integer_form(p))
    hi = root_bound(chain[0])
    breaks: list[int] = []
    # Root count in (lo, hi] is variations(lo) - variations(hi).
    stack = [(-1, hi, _variations(chain, -1), _variations(chain, hi))]
    while stack:
        lo, hi_, vlo, vhi = stack.pop()
        if vlo - vhi <= 0:
            continue
        if hi_ - lo == 1:
            breaks.append(hi_)
            continue
        mid = (lo + hi_) // 2
        vmid = _variations(chain, mid)
        stack.append((lo, mid, vlo, vmid))
        stack.append((mid, hi_, vmid, vhi))
    return sorted(breaks)


def integer_roots_nonneg(p: Poly) -> frozenset[int]:
    """Exactly the natural numbers n with p(n) = 0.

    Every natural root c is a root break (a root lies in (c - 1, c]), so
    these are the breaks of `root_breaks` where p itself vanishes.
    """
    breaks = root_breaks(p)
    cs = _integer_form(p)
    return frozenset(c for c in breaks if _horner(cs, c) == 0)


def sign_breaks(f: RatFun) -> list[int]:
    """The sorted root breaks of f's numerator and denominator together.

    Between consecutive breaks (and past the last) f has one nonzero sign
    on the naturals; the zero function has no breaks.
    """
    if f.is_zero():
        return []
    return sorted(set(root_breaks(f.num)) | set(root_breaks(f.den)))


def limit_at_infinity(f: RatFun) -> ExtendedRat:
    """Limit of f(n) as n grows without bound."""
    if f.is_zero():
        return ExtendedRat.finite(0)
    dn, dd = f.num.degree, f.den.degree
    if dn < dd:
        return ExtendedRat.finite(0)
    ratio = f.num.lead / f.den.lead
    if dn == dd:
        return ExtendedRat.finite(ratio)
    return PLUS_INFINITY if ratio > 0 else MINUS_INFINITY


def eventual_sign(f: RatFun) -> tuple[int, int]:
    """(sign, N0) with sign(f(n)) = sign for every integer n >= N0.

    N0 is one past the last sign break of f, or 0 when there is none: no
    real root of the numerator or denominator lies beyond N0 - 1, and N0 is
    exactly ceil(largest real root) + 1 when that root exceeds -1.
    """
    if f.is_zero():
        return 0, 0
    breaks = sign_breaks(f)
    s = sign(f.num.lead) * sign(f.den.lead)
    return s, breaks[-1] + 1 if breaks else 0
