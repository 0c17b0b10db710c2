"""The two constructions pairing ideals of the sequence algebra with
filters on the index set, plus their roundtrip and closure checks.

In the representable class every ideal in scope is induced by a filter
(membership: the zero set belongs to the filter), so an ideal is passed as
the FilterDescriptor that induces it; there is no separate ideal type.
"""

from __future__ import annotations

from .report import Report
from .seqrep import RSeq, indicator, make_constant
from .sets_filters import FilterDescriptor, SetDescriptor


def in_ideal(x: RSeq, f: FilterDescriptor) -> bool:
    """Membership in the ideal { x | zero_set(x) in f } induced by the filter."""
    return f.holds(x, {0})


def realize_zero_set(j: SetDescriptor) -> RSeq:
    """A sequence whose zero set is exactly j (the indicator of its complement)."""
    return indicator(j.complement())


def roundtrip_filter(f: FilterDescriptor, samples: list[SetDescriptor]) -> Report:
    """Membership survives the filter -> ideal -> filter roundtrip on samples."""
    report = Report(f"galois-roundtrip {f.render()}")
    bad = []
    for j in samples:
        via_ideal = in_ideal(realize_zero_set(j), f)
        direct = f.contains(j)
        if via_ideal != direct:
            bad.append(j)
    report.check(
        f"roundtrip-membership ({len(samples)} sets)",
        not bad,
        witness="; ".join(j.render() for j in bad[:3]),
    )
    return report


def ideal_closure_check(f: FilterDescriptor, samples: list[RSeq]) -> Report:
    """Axioms of the ideal induced by f, exercised on sample sequences."""
    report = Report(f"ideal-closure {f.render()}")
    members = [x for x in samples if in_ideal(x, f)]

    bad_sum = [
        (x, y)
        for i, x in enumerate(members)
        for y in members[i:]
        if not in_ideal(x + y, f)
    ]
    report.check(f"addition-closure ({len(members)} members)", not bad_sum)

    bad_absorb = [
        (x, y) for x in members for y in samples if not in_ideal(x * y, f)
    ]
    report.check("product-absorption", not bad_absorb)

    bad_scale = []
    for x in samples:
        for c in (2, -1, 7):
            if in_ideal(x, f) != in_ideal(x.scale(c), f):
                bad_scale.append((x, c))
    report.check("nonzero-scaling-invariance", not bad_scale)

    report.check("properness (1 not a member)", not in_ideal(make_constant(1), f))
    return report
