"""The three workloads as seeded op sequences.

An op is one public call into gscalars plus the check of its output.  Ops
look up gscalars functions when they run, not when they are built, so a
traced run sees the wrappers installed after set-up.  Each source
pre-generates its first ops during set-up and yields further ones on
demand; the op sequence depends only on the seed.
"""

from __future__ import annotations

import io
import random

import queries

PREGENERATED = 200


class Op:
    __slots__ = ("label", "run", "check")

    def __init__(self, label: str, run, check):
        self.label = label
        self.run = run  # () -> output text
        self.check = check  # output text -> bool


class Source:
    """Ops by index: the pre-generated list, extended from `more` when needed.

    A run ends on a multiple of `cycle` ops, so each op kind of a cycle is
    sampled equally often."""

    def __init__(self, ops: list, more, cycle: int = 1):
        self.ops = ops
        self.more = more
        self.cycle = cycle

    def op(self, i: int) -> Op:
        while i >= len(self.ops):
            self.ops.append(self.more(len(self.ops)))
        return self.ops[i]


def _cli_run(gs, argv):
    def run():
        buf = io.StringIO()
        rc = gs.cli.main(list(argv), out=buf)
        return f"exit={rc}\n{buf.getvalue()}"
    return run


# -- queries ---------------------------------------------------------------------


def queries_source(gs, seed: int) -> Source:
    stream = queries.QueryStream(seed)

    def make(_index):
        family, argv, expected, rc = stream.next()
        want = f"exit={rc}\n{expected}"
        return Op(f"{family} {argv!r}", _cli_run(gs, argv), want.__eq__)

    return Source([make(i) for i in range(PREGENERATED)], make)


# -- suites ------------------------------------------------------------------------

KMAX = 1000


def _report_check(passes: int):
    def check(out: str) -> bool:
        lines = out.splitlines()
        return (sum(line.startswith("PASS ") for line in lines) == passes
                and not any(line.startswith("FAIL ") for line in lines))
    return check


def _bit_reversed(count: int) -> list[int]:
    """0..count-1 in bit-reversed order: every prefix is spread evenly."""
    bits = max(1, (count - 1).bit_length())
    order = sorted(range(1 << bits), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))
    return [i for i in order if i < count]


def suites_source(gs, seed: int) -> Source:
    """`gsc check all` at this seed, one op per public call.

    The samples are drawn exactly as the suites draw them.  Ops of the
    five kinds are interleaved in proportion, so a run that ends part way
    through still holds the full mix."""
    from gscalars import sampling

    frechet = gs.FilterDescriptor.frechet()
    kinds = []

    rng = random.Random(seed)
    axioms = [(frechet, sampling.sample_sets(rng, 200, frechet))]
    for _ in range(20):
        f = sampling.random_principal_filter(rng)
        axioms.append((f, sampling.sample_sets(rng, 200, f)))
    kinds.append([Op(f"filter-axioms {f.render()}",
                     lambda f=f, s=s: gs.check_filter_axioms(f, s).render(), _report_check(4))
                  for f, s in axioms])

    rng = random.Random(seed)
    roundtrips = [(frechet, sampling.sample_sets(rng, 100, frechet))]
    for _ in range(10):
        f = sampling.random_principal_filter(rng)
        roundtrips.append((f, sampling.sample_sets(rng, 100, f)))
    kinds.append([Op(f"galois-roundtrip {f.render()}",
                     lambda f=f, s=s: gs.roundtrip_filter(f, s).render(), _report_check(1))
                  for f, s in roundtrips])

    omega = gs.omega(frechet)
    order = random.Random(f"suites-order-{seed}")
    rotation = order.randrange(KMAX)
    ks = [(i + rotation) % KMAX + 1 for i in _bit_reversed(KMAX)]
    kinds.append([Op(f"archimedean leq k={k}",
                     lambda k=k: str(gs.leq(gs.embed(k, frechet), omega)), "True".__eq__)
                  for k in ks])
    kinds.append([Op(f"archimedean scalar_eq k={k}",
                     lambda k=k: str(gs.scalar_eq(gs.embed(k, frechet), omega)), "False".__eq__)
                  for k in ks])

    rng = random.Random(seed)
    banach = [sampling.random_convergent_rseq(rng) for _ in range(100)]
    kinds.append([Op(f"banach-bounds #{i}",
                     lambda x=x: gs.banach_bounds_check([x]).render(), _report_check(3))
                  for i, x in enumerate(banach)])

    kinds.append([Op("shift-impossibility",
                     lambda: gs.shift_invariance_impossibility().render(), _report_check(4))])

    for ops in kinds[:2] + kinds[4:5]:
        order.shuffle(ops)
    keyed = []
    for kind, ops in enumerate(kinds):
        offset = order.random()
        keyed.extend(((i + offset) / len(ops), kind, op) for i, op in enumerate(ops))
    one_pass = [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]
    return Source(list(one_pass), lambda i: one_pass[i % len(one_pass)])


# -- oracle -------------------------------------------------------------------------

ORACLE_CONFIGS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]  # every supported one but (4, 3)


def _oracle_check(check: str, lam: int, field: int):
    passes = 9 if check == "galois" else 5 * (2**lam - 1)
    name = "oracle-galois" if check == "galois" else "oracle-maximal-prime"
    summary = f"{name} lambda={lam} field={field}: {passes} passed, 0 failed"
    report_ok = _report_check(passes)

    def ok(out: str) -> bool:
        lines = out.splitlines()
        return lines[0] == "exit=0" and lines[-1] == summary and report_ok(out)
    return ok


def oracle_source(gs, seed: int) -> Source:
    """`gsc oracle --check galois|maximal-prime` over the supported configs,
    each cycle of ten in a fresh seeded order.

    Four of the ten kinds take about a hundred times longer than the rest,
    and the slowest kind is exactly a tenth of the mix; runs of whole
    cycles keep p90 from switching between kinds from run to run."""
    rng = random.Random(f"oracle-order-{seed}")
    pairs = [(lam, field, check) for lam, field in ORACLE_CONFIGS for check in ("galois", "maximal-prime")]

    def make(index):
        if index % len(pairs) == 0:
            rng.shuffle(pairs)
        lam, field, check = pairs[index % len(pairs)]
        argv = ["oracle", "--lambda", str(lam), "--field", str(field), "--check", check]
        return Op(" ".join(argv), _cli_run(gs, argv), _oracle_check(check, lam, field))

    return Source([make(i) for i in range(PREGENERATED)], make, cycle=len(pairs))


SOURCES = {"queries": queries_source, "suites": suites_source, "oracle": oracle_source}
