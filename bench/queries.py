"""The `queries` workload: seeded, distinct `gsc` command lines, each with
its expected stdout and exit code.

Every query is assembled from parts whose answer is fixed by construction:
polynomials are products of chosen factors, so their integer roots and
limits are known; sets and filter bases are built from residue classes and
points, so membership is a plain predicate; `le` compares a polynomial with
a chosen crossing index K.  The expected text is then produced by the small
exact reference below, written against the CLI's documented output format
(canonical rendering of sequences and sets), not by calling gscalars.

Classes and standard parts under a principal filter with an infinite base
are not generated: there the CLI's `classify`/`st` follow branch limits and
ignore the base's finite points, which disagrees with the algebra's own
order (an open item of the roadmap), so no expected answer is settled yet.
Queries under such filters therefore print booleans or error lines only.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as Q

# -- exact polynomials: ascending coefficient tuples, no trailing zeros --------


def p_trim(cs) -> tuple:
    cs = [Q(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def p_add(a, b) -> tuple:
    n = max(len(a), len(b))
    return p_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def p_mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return p_trim(out)


def p_scale(a, c) -> tuple:
    return p_trim([x * c for x in a])


def p_eval(a, x) -> Q:
    return sum((c * Q(x) ** i for i, c in enumerate(a)), Q(0))


def p_shift1(a) -> tuple:
    """p(n + 1), by the binomial expansion."""
    out = [Q(0)] * len(a)
    for i, c in enumerate(a):
        for j in range(i + 1):
            out[j] += c * math.comb(i, j)
    return p_trim(out)


def p_fit(points) -> tuple:
    """Lagrange interpolation through (x, y) points, exact."""
    result = ()
    for i, (xi, yi) in enumerate(points):
        basis, denom = (Q(1),), Q(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = p_mul(basis, (Q(-xj), Q(1)))
                denom *= xi - xj
        result = p_add(result, p_scale(basis, Q(yi) / denom))
    return result


# -- rendering, following the CLI's canonical output grammar ---------------------

EXCEPT, ADD, MUL, UNARY, ATOM = range(5)
SET_OR, SET_AND, SET_NOT, SET_ATOM = range(4)


def wrap(text: str, level: int, parent: int) -> str:
    return f"({text})" if level < parent else text


def rat_text(q: Q) -> tuple[str, int]:
    text = ("-" if q < 0 else "") + str(abs(q.numerator))
    if q.denominator != 1:
        return f"{text} / {q.denominator}", MUL
    return text, (UNARY if q < 0 else ATOM)


def _mono(k: int) -> str:
    return " * ".join(["n"] * k)


def poly_text(a) -> tuple[str, int]:
    if not a:
        return "0", ATOM
    items = [(k, a[k]) for k in range(len(a) - 1, -1, -1) if a[k] != 0]
    k, c = items[0]
    if k == 0:
        text, level = rat_text(c)
    elif c == 1:
        text, level = _mono(k), (ATOM if k == 1 else MUL)
    elif c == -1:
        text, level = "-" + wrap(_mono(k), ATOM if k == 1 else MUL, UNARY), UNARY
    else:
        text, level = f"{rat_text(c)[0]} * {_mono(k)}", MUL
    for k, c in items[1:]:
        mag = abs(c)
        if k == 0:
            term = rat_text(mag)[0]
        elif mag == 1:
            term = _mono(k)
        else:
            term = f"{rat_text(mag)[0]} * {_mono(k)}"
        text, level = f"{text} {'-' if c < 0 else '+'} {term}", ADD
    return text, level


def int_roots(a) -> list[int]:
    """Nonnegative integer roots of a polynomial with rational coefficients."""
    if len(a) <= 1:
        return []
    lead = abs(a[-1])
    bound = int(1 + max(abs(c) for c in a[:-1]) / lead) + 1
    return [n for n in range(bound + 1) if p_eval(a, n) == 0]


class RefSet:
    """Canonical eventually periodic set built from a membership predicate
    that is periodic with `period` beyond `horizon`."""

    def __init__(self, member, period: int, horizon: int):
        base = (horizon // period + 1) * period
        residues = {r for r in range(period) if member(base + r)}
        modulus = period
        for d in range(1, period + 1):
            if period % d == 0 and all(((r % d) in {x % d for x in residues}) == (r in residues)
                                       for r in range(period)):
                modulus = d
                break
        self.modulus = modulus
        self.residues = sorted({r % modulus for r in residues})
        pure = set(self.residues)
        self.plus = sorted(n for n in range(base) if member(n) and n % modulus not in pure)
        self.minus = sorted(n for n in range(base) if not member(n) and n % modulus in pure)

    def text(self) -> str:
        if not self.residues:
            return "{" + ",".join(map(str, self.plus)) + "}"
        text = "|".join(f"{r} mod {self.modulus}" for r in self.residues)
        level = SET_OR if len(self.residues) > 1 else SET_ATOM
        if self.minus:
            text = wrap(text, level, SET_AND) + "&~{" + ",".join(map(str, self.minus)) + "}"
            level = SET_AND
        if self.plus:
            text = text + "|{" + ",".join(map(str, self.plus)) + "}"
        return text


class RefSeq:
    """A representable sequence in canonical form: one branch per residue
    class, each ('poly', A) meaning A(n) or ('recip', A) meaning 1/A(n)
    with deg A >= 1, plus pointwise overrides."""

    def __init__(self, modulus: int, branches, exceptions=None):
        branches = [_norm_branch(b) for b in branches]
        for d in range(1, modulus + 1):
            if modulus % d == 0 and all(branches[r] == branches[r % d] for r in range(modulus)):
                modulus, branches = d, branches[:d]
                break
        self.modulus, self.branches = modulus, branches
        self.exceptions = {}
        for n, v in sorted((exceptions or {}).items()):
            kind, a = branches[n % modulus]
            if kind == "recip" and p_eval(a, n) == 0:
                self.exceptions[n] = Q(v)
            elif self._branch_value(n) != v:
                self.exceptions[n] = Q(v)

    def _branch_value(self, n) -> Q:
        kind, a = self.branches[n % self.modulus]
        return p_eval(a, n) if kind == "poly" else 1 / p_eval(a, n)

    def value(self, n) -> Q:
        if n in self.exceptions:
            return self.exceptions[n]
        return self._branch_value(n)

    def limits(self) -> list:
        """Per branch: a finite Fraction, or None for +/- infinity."""
        out = []
        for kind, a in self.branches:
            if kind == "recip":
                out.append(Q(0))
            elif len(a) >= 2:
                out.append(None)
            else:
                out.append(a[0] if a else Q(0))
        return out

    def is_indicator(self) -> bool:
        return (all(b in (("poly", ()), ("poly", (Q(1),))) for b in self.branches)
                and all(v in (0, 1) for v in self.exceptions.values()))

    def support(self) -> RefSet:
        return RefSet(lambda n: self.value(n) != 0, self.modulus, max(self.exceptions, default=0))

    def text(self) -> str:
        if self.is_indicator():
            support = self.support()
            return "0" if not support.residues and not support.plus else f"ind({support.text()})"
        terms = []
        for r, (kind, a) in enumerate(self.branches):
            if kind == "poly" and not a:
                continue
            if kind == "poly":
                body, level = poly_text(a)
            else:
                body, level = _recip_text(a)
            if self.modulus == 1:
                terms.append((body, level))
            elif kind == "poly" and a == (Q(1),):
                terms.append((f"ind({r} mod {self.modulus})", ATOM))
            else:
                terms.append((f"ind({r} mod {self.modulus}) * {wrap(body, level, UNARY)}", MUL))
        if not terms:
            text, level = "0", ATOM
        elif len(terms) == 1:
            text, level = terms[0]
        else:
            text, level = " + ".join(t for t, _ in terms), ADD
        if self.exceptions:
            body = ", ".join(f"{n}: {v}" for n, v in sorted(self.exceptions.items()))
            text = wrap(text, level, ADD) + " except {" + body + "}"
        return text

    def shift(self) -> "RefSeq":
        m = self.modulus
        branches = []
        for r in range(m):
            kind, a = self.branches[(r + 1) % m]
            branches.append((kind, p_shift1(a)))
        exceptions = {n - 1: v for n, v in self.exceptions.items() if n >= 1}
        return RefSeq(m, branches, exceptions)


def _norm_branch(b):
    kind, a = b
    a = p_trim(a)
    if kind == "recip" and len(a) == 1:
        return ("poly", (1 / a[0],))
    return (kind, a)


def _recip_text(a) -> tuple[str, int]:
    lead = a[-1]
    den = p_scale(a, 1 / lead)
    text, level = poly_text(den)
    roots = int_roots(den)
    if roots:
        text = wrap(text, level, ADD) + " except {" + ", ".join(f"{n}: 1" for n in roots) + "}"
    inverse = f"invert({text})"
    if lead == 1:
        return inverse, ATOM
    return f"{rat_text(1 / lead)[0]} * {inverse}", MUL


# -- filters ------------------------------------------------------------------------


class Filt:
    """A filter flag with its membership semantics.

    kind 'frechet', 'finite' (principal over finitely many points) or
    'infinite' (principal over an infinite eventually periodic base)."""

    def __init__(self, kind, text=None, member=None, period=1, horizon=0, points=()):
        self.kind, self.text = kind, text
        self.member, self.period, self.horizon = member, period, horizon
        self.points = list(points)

    def argv(self) -> list[str]:
        return [] if self.kind == "frechet" else [f"--filter=principal:{self.text}"]

    def contains(self, member, period: int, horizon: int) -> bool:
        """Whether the set {n | member(n)} belongs to the filter."""
        if self.kind == "frechet":
            start = horizon + 1
            return all(member(n) for n in range(start, start + period))
        if self.kind == "finite":
            return all(member(n) for n in self.points)
        span = max(horizon, self.horizon) + 1 + math.lcm(period, self.period)
        return all(member(n) for n in range(span) if self.member(n))


def random_filter(rng: random.Random, kinds) -> Filt:
    kind = rng.choice(kinds)
    if kind == "frechet":
        return Filt("frechet")
    if kind == "finite":
        points = sorted(set(rng.randint(0, 40) for _ in range(rng.randint(1, 3))))
        return Filt("finite", "{" + ",".join(map(str, points)) + "}", points=points)
    shape = rng.randrange(5)
    m = rng.randint(2, 6)
    r = rng.randrange(m)
    if shape == 0:
        return Filt("infinite", f"{r} mod {m}", lambda n: n % m == r, m, 0)
    if shape == 1:
        parity = rng.randrange(2)
        return Filt("infinite", ("evens", "odds")[parity], lambda n: n % 2 == parity, 2, 0)
    if shape == 2:
        extra = rng.randint(0, 40)
        return Filt("infinite", f"{r} mod {m}|{{{extra}}}", lambda n: n % m == r or n == extra, m, extra)
    if shape == 3:
        dropped = r + m * rng.randint(0, 6)
        return Filt("infinite", f"{r} mod {m}&~{{{dropped}}}",
                    lambda n: n % m == r and n != dropped, m, dropped)
    holes = sorted(set(rng.randint(0, 30) for _ in range(rng.randint(1, 3))))
    return Filt("infinite", "cofinite~{" + ",".join(map(str, holes)) + "}",
                lambda n: n not in holes, 1, max(holes))


def class_text(f: Filt, value, limits, all_zero: bool) -> str:
    """What `classify` prints, from values on a finite base or branch limits
    (None = infinite) under Frechet."""
    if f.kind == "finite":
        return "Zero" if all(value(n) == 0 for n in f.points) else "Appreciable"
    if f.kind != "frechet":
        raise ValueError("class under an infinite principal base is not generated")
    if all_zero:
        return "Zero"
    if all(l is not None for l in limits):
        return "Infinitesimal" if all(l == 0 for l in limits) else "Appreciable"
    if all(l is None for l in limits):
        return "Infinite"
    return "Mixed"


def classify_text(seq: RefSeq, f: Filt) -> str:
    return class_text(f, seq.value, seq.limits(), all(b == ("poly", ()) for b in seq.branches))


# -- random parts --------------------------------------------------------------------


def rand_coeff(rng: random.Random) -> tuple[str, Q]:
    if rng.random() < 0.7:
        c = rng.choice([-1, 1]) * rng.randint(1, 6)
        return str(c), Q(c)
    c = Q(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(2, 5))
    if c.denominator == 1:
        return str(c), c
    return f"{c.numerator} / {c.denominator}", c


def rand_poly(rng: random.Random, degree: int) -> tuple[str, tuple]:
    """A product of chosen factors: text and expanded coefficients."""
    ctext, c = rand_coeff(rng)
    coeffs, factors = (c,), []
    left = degree
    while left > 0:
        pick = rng.randrange(4 if left >= 2 else 3)
        if pick == 0:
            k = rng.randint(0, 12)
            factors.append("n" if k == 0 else f"(n - {k})")
            coeffs = p_mul(coeffs, (Q(-k), Q(1)))
        elif pick == 1:
            j = rng.randint(1, 9)
            factors.append(f"(n + {j})")
            coeffs = p_mul(coeffs, (Q(j), Q(1)))
        elif pick == 2:
            t = rng.randint(1, 9)
            factors.append(f"(2 * n - {2 * t - 1})")
            coeffs = p_mul(coeffs, (Q(1 - 2 * t), Q(2)))
        else:
            j = rng.randint(1, 9)
            factors.append(f"(n * n + {j})")
            coeffs = p_mul(coeffs, (Q(j), Q(0), Q(1)))
            left -= 1
        left -= 1
    if not factors:
        return ctext, coeffs
    if c == 1:
        return " * ".join(factors), coeffs
    return " * ".join([ctext, *factors]), coeffs


def rand_classes(rng: random.Random, m: int) -> list[int]:
    classes = [r for r in range(m) if rng.random() < 0.5]
    return classes or [rng.randrange(m)]


def masked_text(m: int, parts: dict) -> str:
    """Sum of ind(r mod m) * (part) over the chosen classes."""
    if m == 1:
        return parts[0]
    return " + ".join(f"ind({r} mod {m}) * ({text})" for r, text in sorted(parts.items()))


def rand_override(rng: random.Random, text: str, exceptions: dict) -> str:
    if rng.random() < 0.3:
        k = rng.randint(0, 12)
        v = Q(rng.randint(-9, 9), rng.randint(1, 3))
        exceptions[k] = v
        return f"{text} except {{{k}: {v}}}"
    return text


def rand_masked_poly(rng: random.Random, max_degree: int = 3):
    m = rng.randint(1, 6)
    parts, branches = {}, [("poly", ())] * m
    for r in (range(1) if m == 1 else rand_classes(rng, m)):
        parts[r], coeffs = rand_poly(rng, rng.randint(0, max_degree))
        branches[r] = ("poly", coeffs)
    return m, masked_text(m, parts), branches


def rand_limit_branch(rng: random.Random, mode: str, limit: Q):
    """Text, value function and limit (None = infinite) of one branch."""
    j = rng.randint(1, 9)
    d = Q(rng.choice([-1, 1]) * rng.randint(1, 6))
    if mode == "infinitesimal":
        return f"{int(d)} / (n + {j})", (lambda n: d / (n + j)), Q(0)
    if mode == "appreciable":
        ltext = rat_text(limit)[0]
        if rng.random() < 0.3:
            return ltext, (lambda n: limit), limit
        return f"{ltext} + {int(d)} / (n + {j})", (lambda n: limit + d / (n + j)), limit
    text, coeffs = rand_poly(rng, rng.randint(1, 3))
    return text, (lambda n: p_eval(coeffs, n)), None


# -- query families --------------------------------------------------------------------
# Each returns (argv, expected stdout, expected exit code).


def gen_eval(rng, f):
    m, text, branches = rand_masked_poly(rng)
    exceptions = {}
    text = rand_override(rng, text, exceptions)
    seq = RefSeq(m, branches, exceptions)
    if rng.random() < 0.25:
        text, seq = f"shift({text})", seq.shift()
    return ["eval", text, *f.argv()], f"{seq.text()} [{classify_text(seq, f)}]\n", 0


def _limit_structure(rng):
    """A masked sum of branches with chosen limits: its text, its value
    function and the limit of each class (None when infinite)."""
    m = rng.randint(1, 6)
    same = rng.random() < 0.5
    limit = Q(rng.randint(-5, 5), rng.randint(1, 3))
    parts, funcs, limits = {}, [lambda n: Q(0)] * m, [Q(0)] * m
    classes = range(1) if m == 1 else rand_classes(rng, m)
    if same and m > 1:
        classes = range(m)
    for r in classes:
        if same:
            mode = "infinitesimal" if limit == 0 else "appreciable"
        else:
            mode = rng.choice(["infinitesimal", "appreciable", "infinite"])
            limit = Q(rng.randint(-5, 5), rng.randint(1, 3)) or Q(2)
        parts[r], funcs[r], limits[r] = rand_limit_branch(rng, mode, limit)
    text = masked_text(m, parts)
    overrides = {}
    text = rand_override(rng, text, overrides)

    def value(n):
        return overrides[n] if n in overrides else funcs[n % m](n)

    return text, value, limits


def gen_classify(rng, f):
    text, value, limits = _limit_structure(rng)
    expected = class_text(f, value, limits, False) + "\n"
    if rng.random() < 0.5:
        return ["classify", text, *f.argv()], expected, 0
    return ["eval", f"class({text})", *f.argv()], expected, 0


def gen_st(rng, f):
    text, value, limits = _limit_structure(rng)
    if f.kind == "finite":
        values = {value(n) for n in f.points}
    else:
        values = set(limits)
    if len(values) == 1 and None not in values:
        return ["eval", f"st({text})", *f.argv()], f"{values.pop()}\n", 0
    return ["eval", f"st({text})", *f.argv()], "error: NotStandardizable\n", 1


def _partial_sums(seq: RefSeq) -> RefSeq:
    m = seq.modulus
    degree = max(len(a) for _, a in seq.branches)
    start = max(seq.exceptions, default=-1) + 1
    horizon = start + m * (degree + 4)
    cumulative, running = [], Q(0)
    for n in range(horizon):
        running += seq.value(n)
        cumulative.append(running)
    branches = []
    for r in range(m):
        pts = [(n, cumulative[n]) for n in range(start, horizon) if n % m == r]
        poly = p_fit(pts[: degree + 1])
        if any(p_eval(poly, n) != y for n, y in pts[degree + 1:]):
            raise AssertionError("reference partial sums are not polynomial")
        branches.append(("poly", poly))
    return RefSeq(m, branches, {n: cumulative[n] for n in range(start)})


def gen_sum(rng, f):
    m, text, branches = rand_masked_poly(rng)
    exceptions = {}
    text = rand_override(rng, text, exceptions)
    sums = _partial_sums(RefSeq(m, branches, exceptions))
    limits = sums.limits()
    if None in limits:
        verdict = "UnboundedDivergent"
    elif len(set(limits)) == 1:
        verdict = f"ConvergentSum({limits[0]})"
    else:
        verdict = "BoundedDivergent"
    out = f"verdict: {verdict}\nvalue: {sums.text()} [{classify_text(sums, f)}]\n"
    return ["sum", text, *f.argv()], out, 0


def rand_set(rng):
    """Text, membership, period and horizon of a set literal for ind()."""
    shape = rng.randrange(3)
    if shape == 0:
        pts = sorted(set(rng.randint(0, 30) for _ in range(rng.randint(1, 3))))
        return "{" + ",".join(map(str, pts)) + "}", (lambda n: n in pts), 1, max(pts)
    if shape == 1:
        m = rng.randint(2, 6)
        r = rng.randrange(m)
        return f"{r} mod {m}", (lambda n: n % m == r), m, 0
    holes = sorted(set(rng.randint(0, 30) for _ in range(rng.randint(1, 2))))
    return "cofinite~{" + ",".join(map(str, holes)) + "}", (lambda n: n not in holes), 1, max(holes)


def gen_eq(rng, f):
    m, text, branches = rand_masked_poly(rng)
    seq = RefSeq(m, branches)
    other = f"({seq.text()})"
    if rng.random() < 0.2:
        return ["eq", text, other, *f.argv()], "true\n", 0
    stext, member, period, horizon = rand_set(rng)
    ctext, _ = rand_coeff(rng)
    other = f"{other} + {ctext} * ind({stext})"
    equal = f.contains(lambda n: not member(n), period, horizon)
    expected = "true\n" if equal else "false\n"
    if rng.random() < 0.5:
        return ["eq", text, other, *f.argv()], expected, 0
    return ["eval", f"eq({text}, {other})", *f.argv()], expected, 0


def gen_le(rng, f, crossing: int):
    ctext, c = rand_coeff(rng)
    g = rng.randrange(3)
    j = rng.randint(1, 2)
    factor = ["", f" * (n + {j})", f" * (n * n + {j})"][g]
    core = f"{ctext} * (n - {crossing}){factor}"
    m = rng.randint(1, 6)
    classes = set(range(m)) if m == 1 else set(rand_classes(rng, m))
    if m > 1:
        mask = "|".join(f"{r} mod {m}" for r in sorted(classes))
        core = f"ind({mask}) * ({core})"
    qtext, _ = rand_poly(rng, rng.randint(0, 2))

    def below(n):  # the set where the left side is <= the right side
        if n % m not in classes:
            return True
        return n <= crossing if c > 0 else n >= crossing

    holds = f.contains(below, m, crossing)
    left, right = f"{core} + {qtext}", qtext
    return ["eval", f"le({left}, {right})", *f.argv()], ("true\n" if holds else "false\n"), 0


def gen_invert(rng, f):
    """Inverse, ZeroDivisor (with its witness) or ZeroScalar."""
    if f.kind != "infinite" and rng.random() < 0.4:
        m = 1
        text, coeffs = rand_poly(rng, rng.randint(1, 3))
        branches = [("poly", coeffs)]
    else:
        m = rng.randint(2, 6)
        classes = rand_classes(rng, m)
        if len(classes) == m:
            classes = classes[1:]
        ptext, coeffs = rand_poly(rng, rng.randint(0, 2)) if rng.random() < 0.7 else ("1", (Q(1),))
        mask = "|".join(f"{r} mod {m}" for r in classes)
        text = f"ind({mask})" if ptext == "1" else f"ind({mask}) * ({ptext})"
        branches = [("poly", coeffs if r in classes else ()) for r in range(m)]
    seq = RefSeq(m, branches)
    horizon = 60  # past every root a factor of rand_poly can have

    def is_zero(n):
        return seq.value(n) == 0

    zero = RefSet(is_zero, seq.modulus, horizon)

    if f.contains(is_zero, seq.modulus, horizon):
        return ["eval", f"invert({text})", *f.argv()], "error: ZeroScalar\n", 1
    if not f.contains(lambda n: not is_zero(n), seq.modulus, horizon):
        return (["eval", f"invert({text})", *f.argv()],
                f"error: ZeroDivisor witness=ind({zero.text()})\n", 1)
    if f.kind == "infinite":
        return None
    inverse_branches, overrides = [], {}
    for r, (kind, a) in enumerate(seq.branches):
        inverse_branches.append(("poly", ()) if not a else ("recip", a))
        for n in int_roots(a) if a else ():
            if n % seq.modulus == r:
                overrides[n] = Q(0)
    inverse = RefSeq(seq.modulus, inverse_branches, overrides)
    return (["eval", f"invert({text})", *f.argv()],
            f"{inverse.text()} [{classify_text(inverse, f)}]\n", 0)


FAMILIES = ("eval", "classify", "eq", "sum", "le", "invert", "st")
ANY_FILTER = ("frechet", "finite", "infinite")
NO_INFINITE_BASE = ("frechet", "finite")
_GOLDEN = (math.sqrt(5) - 1) / 2


class QueryStream:
    """An endless, seeded stream of distinct queries.

    Queries come in blocks holding every family four times in a seeded
    order, so any prefix has close to the same mix.  The `le` crossing
    indices follow a golden-ratio sequence in log space from 10 to 10**4,
    so any prefix also covers that range evenly."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"gscalars-queries-{seed}")
        self.seen: set[tuple] = set()
        self.block: list[str] = []
        self.le_count = 0
        self.le_offset = self.rng.random()

    def _crossing(self) -> int:
        u = (self.le_offset + self.le_count * _GOLDEN) % 1.0
        self.le_count += 1
        return round(10 ** (1 + 3 * u))

    def _one(self, family: str):
        rng = self.rng
        if family == "le":
            return gen_le(rng, random_filter(rng, ANY_FILTER), self._crossing())
        if family == "eq":
            return gen_eq(rng, random_filter(rng, ANY_FILTER))
        if family == "invert":
            return gen_invert(rng, random_filter(rng, ANY_FILTER))
        gen = {"eval": gen_eval, "classify": gen_classify, "sum": gen_sum, "st": gen_st}[family]
        return gen(rng, random_filter(rng, NO_INFINITE_BASE))

    def next(self):
        if not self.block:
            self.block = [fam for fam in FAMILIES for _ in range(4)]
            self.rng.shuffle(self.block)
        family = self.block.pop()
        while True:
            query = self._one(family)
            if query is not None and tuple(query[0]) not in self.seen:
                self.seen.add(tuple(query[0]))
                return family, *query
