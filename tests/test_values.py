"""The value classes are immutable, and compare and hash by value.

Scalar is the exception: its Python equality is identity, because equality
in the quotient algebra is decided by `scalar_eq`.
"""

import pytest

from gscalars.errors import InvalidFilter
from gscalars.exactnum import ExtendedRat, Poly, RatFun, rat
from gscalars.quotient import Scalar
from gscalars.seqrep import BSeqVerdict, RSeq
from gscalars.sets_filters import FilterDescriptor, SetDescriptor

# (class, two constructions of the same value, a field to assign, compares by value)
VALUES = [
    (Poly, lambda: Poly([1, 0, 2]), lambda: Poly([1, 0, 2, 0]), "coeffs", True),
    (RatFun, lambda: RatFun(Poly([1, 1]), Poly([2, 2])), lambda: RatFun.constant(rat(1, 2)), "num", True),
    (ExtendedRat, lambda: ExtendedRat.finite(rat(2, 6)), lambda: ExtendedRat(0, rat(1, 3)), "value", True),
    (SetDescriptor, lambda: SetDescriptor(4, (0, 2), plus=[3]), lambda: SetDescriptor.evens().union(
        SetDescriptor.finite({3})), "segments", True),
    (FilterDescriptor, lambda: FilterDescriptor.principal(SetDescriptor.evens()),
     lambda: FilterDescriptor(SetDescriptor(4, (0, 2))), "base", True),
    (RSeq, lambda: RSeq(2, [Poly([0, 1]), Poly([0, 1])], {0: 5, 1: 1}),
     lambda: RSeq(1, [RatFun.identity()], {0: 5}), "exceptions", True),
    (BSeqVerdict, lambda: BSeqVerdict.convergent(rat(1, 2)), lambda: BSeqVerdict("Convergent", rat(1, 2)),
     "limit", True),
    (Scalar, lambda: Scalar(RSeq(1, [RatFun.identity()]), FilterDescriptor.frechet()),
     lambda: Scalar(RSeq(1, [RatFun.identity()]), FilterDescriptor.frechet()), "rep", False),
]


@pytest.mark.parametrize("cls,make_a,make_b,field,by_value", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_class_is_frozen_and_compares_as_documented(cls, make_a, make_b, field, by_value):
    a, b = make_a(), make_b()
    assert type(a) is type(b) is cls
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    # A name that is not a field is refused too; Python 3.11's frozen slotted
    # dataclasses refuse it with TypeError rather than AttributeError.
    with pytest.raises((AttributeError, TypeError)):
        a.extra = 1
    assert getattr(a, field) is before
    if by_value:
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        assert a != b
        assert a == a
        assert len({a, b}) == 2


def test_validation_raises_the_same_errors():
    with pytest.raises(ValueError):
        ExtendedRat(1, 5)
    with pytest.raises(ValueError):
        ExtendedRat(2)
    with pytest.raises(InvalidFilter):
        FilterDescriptor.principal(SetDescriptor.empty())
    with pytest.raises(InvalidFilter):
        FilterDescriptor(SetDescriptor.finite({1, 2}), cofinite=True)
