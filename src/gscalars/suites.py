"""The named verification suites behind `gsc check`.

Each suite returns deterministic reports for a given seed; the CLI feeds
the seed from GSC_SEED so repeated runs are byte identical.
"""

from __future__ import annotations

import itertools
import random

from .galois import roundtrip_filter
from .quotient import archimedean_counterexample, embed, leq
from .report import Report
from .sampling import random_convergent_rseq, random_principal_filter, sample_sets
from .series import banach_bounds_check, shift_invariance_impossibility
from .sets_filters import FilterDescriptor, check_filter_axioms

# Random principal filters and sample sets per filter of the two per-filter
# suites, and the sequences the Banach-bounds suite draws.
AXIOM_FILTERS, AXIOM_SAMPLES = 20, 200
ROUNDTRIP_FILTERS, ROUNDTRIP_SAMPLES = 10, 100
BANACH_SAMPLES = 100


def _per_filter(seed: int, check, filters: int, samples: int) -> list[Report]:
    """check(f, sample sets of f) for the Frechet filter and then `filters`
    random principal filters, all drawn from one generator seeded by `seed`."""
    rng = random.Random(seed)
    frechet = FilterDescriptor.frechet()
    reports = [check(frechet, sample_sets(rng, samples, frechet))]
    for _ in range(filters):
        f = random_principal_filter(rng)
        reports.append(check(f, sample_sets(rng, samples, f)))
    return reports


def suite_filter_axioms(seed: int) -> list[Report]:
    return _per_filter(seed, check_filter_axioms, AXIOM_FILTERS, AXIOM_SAMPLES)


def suite_galois_roundtrip(seed: int) -> list[Report]:
    return _per_filter(seed, roundtrip_filter, ROUNDTRIP_FILTERS, ROUNDTRIP_SAMPLES)


def suite_archimedean(kmax: int = 1000) -> list[Report]:
    frechet = FilterDescriptor.frechet()
    report = archimedean_counterexample(kmax, frechet)
    control = Report("archimedean negative-control embed(7)")
    seven = embed(7, frechet)
    control.check(
        "embed(k) <= embed(7) holds for k in 1..7",
        all(leq(embed(k, frechet), seven) for k in range(1, 8)),
    )
    control.check(
        "embed(8) <= embed(7) fails (dominance breaks at k=8)",
        not leq(embed(8, frechet), seven),
    )
    return [report, control]


# The suites by name, in the order `gsc check all` runs them; each entry
# takes (seed, kmax) and looks its functions up when it runs.
SUITES = {
    "filter-axioms": lambda seed, kmax: suite_filter_axioms(seed),
    "galois-roundtrip": lambda seed, kmax: suite_galois_roundtrip(seed),
    "archimedean": lambda seed, kmax: suite_archimedean(kmax),
    "shift-impossibility": lambda seed, kmax: [shift_invariance_impossibility()],
    "banach-bounds": lambda seed, kmax: [banach_bounds_check(
        [random_convergent_rseq(rng) for rng in itertools.repeat(random.Random(seed), BANACH_SAMPLES)]
    )],
}


def run_suite(name: str, seed: int, kmax: int = 1000) -> list[Report]:
    if name == "all":
        return [report for run in SUITES.values() for report in run(seed, kmax)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](seed, kmax)
