"""Ring results are built canonical past the validating constructors.

`Poly(...)`, `RatFun(...)` and `RSeq(...)` convert and validate their
input; the ring operations build their results through the private
`_canonical` constructors instead.  Every such result must equal its
rebuild through the public constructor, and the operation applied
pointwise to its operands.
"""

import random
from fractions import Fraction

import pytest
from gen import random_breaking_rseq, random_rseq
from hypothesis import given, settings, strategies as st

from gscalars.exactnum import Poly, RatFun
from gscalars.quotient import archimedean_counterexample
from gscalars.sampling import random_poly, random_rat
from gscalars.seqrep import RSeq
from gscalars.sets_filters import FilterDescriptor, SetDescriptor

SIGN_SETS = [frozenset(s) for s in ({-1}, {0}, {1}, {-1, 0}, {-1, 1}, {0, 1}, {-1, 0, 1})]


def _same_denominators(rng: random.Random, x: RSeq) -> RSeq:
    """A sequence whose branch r is s_r - x_r for a random polynomial s_r,
    over the same denominator: adding it to x cancels every denominator."""
    branches = [RatFun(br.den * random_poly(rng, 2) - br.num, br.den) for br in x.branches]
    return RSeq(x.modulus, branches, {n: random_rat(rng) for n in x.exceptions})


@st.composite
def operand_pairs(draw):
    """(x, y): random sequences, y sometimes x itself (so x - y cancels to
    zero) or a sequence over x's denominators (so x + y cancels them)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    x = random_breaking_rseq(rng, max_modulus=6) if rng.random() < 0.5 else random_rseq(rng)
    kind = draw(st.sampled_from(["independent", "same", "cancelling"]))
    if kind == "same":
        return x, x
    if kind == "cancelling":
        return x, _same_denominators(rng, x)
    return x, random_rseq(rng)


def assert_canonical(r: RSeq) -> None:
    assert RSeq(r.modulus, r.branches, r.exceptions) == r
    for br in r.branches:
        assert RatFun(br.num, br.den) == br
        assert Poly(br.num.coeffs) == br.num and Poly(br.den.coeffs) == br.den
    for signs in SIGN_SETS:
        tail, full = r.sign_tail(signs), r.sign_set(signs)
        assert (tail.modulus, tail.tail, tail.segments) == (full.modulus, full.tail, ())


@settings(deadline=None)
@given(operand_pairs(), st.sampled_from([Fraction(0), Fraction(-1), Fraction(5, 3)]))
def test_results_equal_their_public_rebuild(pair, c):
    x, y = pair
    # Past every override and two full periods of both operands.
    window = range(max([0, *x.exceptions, *y.exceptions]) + 2 * x.modulus * y.modulus + 1)
    for r, value in (
        (x + y, lambda n: x.eval(n) + y.eval(n)),
        (x - y, lambda n: x.eval(n) - y.eval(n)),
        (x * y, lambda n: x.eval(n) * y.eval(n)),
        (-x, lambda n: -x.eval(n)),
        (x.scale(c), lambda n: c * x.eval(n)),
        (y.scale(c), lambda n: c * y.eval(n)),
    ):
        assert_canonical(r)
        assert all(r.eval(n) == value(n) for n in window)


@pytest.mark.parametrize("cls", [Poly, RatFun, RSeq, SetDescriptor])
def test_archimedean_constructions_do_not_grow_with_k(monkeypatch, cls):
    calls = 0
    init = cls.__init__

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    counts = []
    for kmax in (10, 200):
        calls = 0
        assert archimedean_counterexample(kmax, FilterDescriptor.frechet()).ok
        counts.append(calls)
    assert counts[0] == counts[1]
