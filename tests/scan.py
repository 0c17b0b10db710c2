"""Exact integer-arithmetic references for window scans in the tests.

Scaling polynomials by one positive integer that clears every denominator
keeps their signs and zeros at every point, so a scan over tens of thousands
of points stays exact without building a Fraction per point.
"""

from math import lcm


def integer_coeffs(*polys):
    """Integer coefficient lists of the polys, all scaled by one positive integer."""
    scale = lcm(*(c.denominator for p in polys for c in p.coeffs))
    return [[int(c * scale) for c in p.coeffs] for p in polys]


def horner(coeffs, n):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def root_free_beyond(polys) -> int:
    """A power of two b such that none of the polys has a real root above b.

    Descartes' rule of signs: when p(b + t) has no sign change among its
    coefficients, p has no root t > 0, that is no root above b.
    """
    b = 1
    for p in polys:
        if p.degree <= 0:
            continue
        while _sign_changes(p.shift_arg(b).coeffs):
            b *= 2
    return b


def int_branches(x):
    """Each branch of the sequence x as integer (numerator, denominator) coefficients."""
    return [integer_coeffs(br.num, br.den) for br in x.branches]


def branch_polys(*seqs):
    """Every nonzero numerator and denominator polynomial of the sequences' branches."""
    return [p for x in seqs for br in x.branches for p in (br.num, br.den) if not p.is_zero()]
