"""Series machinery: partial sums in closed form, the convergence
trichotomy, generalized sums valued in a quotient algebra, and the
no-shift-invariant-extension computation.

Partial sums of a polynomial-branch sequence are again representable: on
each residue class the cumulative sum is a polynomial of one degree higher,
which exact interpolation through one more directly summed point than that
degree recovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonPolynomialTerms
from .exactnum import Rat, RatFun, poly_interpolate
from .quotient import Scalar, embed, scalar_eq
from .report import Report
from .seqrep import BSeqVerdict, RSeq, check_overrides, make_constant, make_identity
from .sets_filters import FilterDescriptor


@dataclass(frozen=True, slots=True)
class SeriesVerdict:
    """ConvergentSum(value) / BoundedDivergent / UnboundedDivergent."""

    kind: str
    value: Rat | None = None

    CONVERGENT_SUM = "ConvergentSum"
    BOUNDED_DIVERGENT = "BoundedDivergent"
    UNBOUNDED_DIVERGENT = "UnboundedDivergent"

    @classmethod
    def convergent_sum(cls, value) -> "SeriesVerdict":
        return cls(cls.CONVERGENT_SUM, Fraction(value))

    @classmethod
    def bounded_divergent(cls) -> "SeriesVerdict":
        return cls(cls.BOUNDED_DIVERGENT)

    @classmethod
    def unbounded_divergent(cls) -> "SeriesVerdict":
        return cls(cls.UNBOUNDED_DIVERGENT)


def partial_sums(s: RSeq) -> RSeq:
    """The sequence of cumulative sums x(n) = s(0) + ... + s(n).

    Requires every branch to be a polynomial (constant denominator).  Past
    the last exception each class's cumulative sum is a polynomial of degree
    at most max_degree + 1, so it is interpolated exactly from the first
    max_degree + 2 directly summed points of that class.  Every sum before
    the last exception is an override, so past MAX_OVERRIDES of them it
    raises TooManyOverrides before summing.
    """
    for br in s.branches:
        if br.den.degree > 0:
            raise NonPolynomialTerms("partial sums need polynomial terms")

    m = s.modulus
    fit_count = max(0, max(br.num.degree for br in s.branches)) + 2
    start = max(s.exceptions, default=-1) + 1
    check_overrides(start)  # the sums below `start` become overrides

    horizon = start + m * fit_count
    running = Fraction(0)
    cumulative = []
    for n in range(horizon):
        running += s.eval(n)
        cumulative.append(running)

    branches = []
    for r in range(m):
        first = start + (r - start) % m
        poly = poly_interpolate([(n, cumulative[n]) for n in range(first, horizon, m)])
        branches.append(RatFun(poly))

    exceptions = {n: cumulative[n] for n in range(start)}
    return RSeq(m, branches, exceptions)


def classify_series(s: RSeq) -> SeriesVerdict:
    """Convergence trichotomy via the partial-sum sequence."""
    verdict = partial_sums(s).classify_bounded()
    if verdict.kind == BSeqVerdict.CONVERGENT:
        return SeriesVerdict.convergent_sum(verdict.limit)
    if verdict.kind == BSeqVerdict.BOUNDED_DIVERGENT:
        return SeriesVerdict.bounded_divergent()
    return SeriesVerdict.unbounded_divergent()


def generalized_sum(s: RSeq, f: FilterDescriptor) -> Scalar:
    """The class of the partial-sum sequence: a value for every series."""
    return Scalar(partial_sums(s), f)


def shift_invariance_impossibility() -> Report:
    """Computed fact chain: a shift-invariant extension of the limit
    functional to any space containing the ramp sequence forces 0 = 1."""
    report = Report("shift-invariance-impossibility")
    nu = make_identity()
    one = make_constant(1)

    report.check(
        "step1 ramp sequence is unbounded",
        nu.classify_bounded() == BSeqVerdict.unbounded(),
    )
    diff = nu.shift() - nu
    report.check("step2 shift(ramp) - ramp = (1,1,1,...) exactly", diff == one)
    report.check("step3 limit of the difference is 1", diff.limit() == 1)

    frechet = FilterDescriptor.frechet()
    step4 = Scalar(nu.shift(), frechet) - Scalar(nu, frechet)
    report.check(
        "step4 class(shift(ramp)) - class(ramp) = embed(1) != 0",
        scalar_eq(step4, embed(1, frechet)) and not scalar_eq(step4, embed(0, frechet)),
    )
    report.note(
        "CONCLUSION a linear functional defined on the ramp sequence cannot both "
        "extend the limit and be shift invariant: it would equate 0 and 1"
    )
    return report


def banach_bounds_check(samples: list[RSeq]) -> Report:
    """inf <= limit <= sup and shift invariance of the limit, per sample."""
    report = Report("banach-bounds")
    bad_bounds, bad_shift, skipped = [], [], 0
    for x in samples:
        if x.classify_bounded().kind != BSeqVerdict.CONVERGENT:
            skipped += 1
            continue
        value = x.limit()
        if not (x.inf_val() <= value <= x.sup_val()):
            bad_bounds.append(x)
        if x.shift().limit() != value:
            bad_shift.append(x)
    checked = len(samples) - skipped
    report.check(f"inf <= limit <= sup ({checked} sequences)", not bad_bounds)
    report.check(f"limit is shift invariant ({checked} sequences)", not bad_shift)
    report.check("all samples convergent", skipped == 0, witness=f"{skipped} skipped")
    return report
