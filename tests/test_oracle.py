import time

import pytest

from gscalars import oracle
from gscalars.errors import ConfigTooLarge
from gscalars.oracle import (
    FiniteConfig,
    FiniteIdeal,
    enumerate_filters,
    enumerate_ideals,
    is_ideal,
    map_filter_of_ideal,
    map_ideal_of_filter,
    ring_elements,
    run_oracle,
    vanishing_set,
    verify_galois,
    verify_maximal_prime,
    zero_mask,
)


class TestConfig:
    def test_bounds(self):
        FiniteConfig(2, 2)
        FiniteConfig(4, 3)
        with pytest.raises(ConfigTooLarge):
            FiniteConfig(5, 2)
        with pytest.raises(ConfigTooLarge):
            FiniteConfig(1, 2)
        with pytest.raises(ConfigTooLarge):
            FiniteConfig(3, 5)


class TestEnumerateIdeals:
    def test_f2_lambda2_has_three(self):
        ideals = enumerate_ideals(FiniteConfig(2, 2))
        assert len(ideals) == 3

    def test_f2_lambda3_has_seven(self):
        ideals = enumerate_ideals(FiniteConfig(3, 2))
        assert len(ideals) == 7

    def test_every_ideal_is_a_vanishing_ideal(self):
        for cfg in (FiniteConfig(2, 2), FiniteConfig(3, 2), FiniteConfig(2, 3)):
            ideals = enumerate_ideals(cfg)
            ring = ring_elements(cfg)
            full = (1 << cfg.lambda_size) - 1
            candidates = {
                mask: frozenset(x for x in ring if zero_mask(x) & mask == mask)
                for mask in range(1, full + 1)
            }
            found = {i.elements for i in ideals}
            assert found == set(candidates.values())

    def test_closure_path_matches_scan(self):
        # F3 over 3 points exceeds the subset-scan cap and uses closure;
        # its ideal family must still be exactly the vanishing ideals.
        cfg = FiniteConfig(3, 3)
        ideals = enumerate_ideals(cfg)
        assert len(ideals) == 7
        for ideal in ideals:
            assert is_ideal(ideal.elements, cfg)
            s = vanishing_set(ideal, cfg)
            assert s != 0
            assert len(ideal.elements) == 3 ** (3 - s.bit_count())

    def test_deterministic(self):
        cfg = FiniteConfig(3, 2)
        assert enumerate_ideals(cfg) == enumerate_ideals(cfg)


class TestEnumerateFilters:
    def test_counts(self):
        assert len(enumerate_filters(FiniteConfig(2, 2))) == 3
        assert len(enumerate_filters(FiniteConfig(3, 2))) == 7

    def test_principal_structure(self):
        for f in enumerate_filters(FiniteConfig(3, 2)):
            base = (1 << 3) - 1
            for mask in f.sets:
                base &= mask
            assert base in f.sets
            assert f.sets == frozenset(k for k in range(8) if k & base == base)


class TestMaps:
    def test_zero_ideal_maps_to_full_set_filter(self):
        cfg = FiniteConfig(3, 2)
        zero_ideal = FiniteIdeal(frozenset({(0, 0, 0)}))
        f = map_filter_of_ideal(zero_ideal)
        assert f.sets == frozenset({0b111})

    def test_point_vanishing_ideal_maps_to_point_filter(self):
        cfg = FiniteConfig(3, 2)
        ring = ring_elements(cfg)
        ideal = FiniteIdeal(frozenset(x for x in ring if x[0] == 0))
        f = map_filter_of_ideal(ideal)
        base = (1 << 3) - 1
        for mask in f.sets:
            base &= mask
        assert base == 0b001

    def test_roundtrip_on_every_ideal(self):
        cfg = FiniteConfig(3, 2)
        for ideal in enumerate_ideals(cfg):
            assert map_ideal_of_filter(map_filter_of_ideal(ideal), cfg) == ideal


class TestVerifyGalois:
    @pytest.mark.parametrize("lam", [2, 3])
    def test_f2_passes_quickly(self, lam):
        started = time.monotonic()
        cfg = FiniteConfig(lam, 2)
        report = verify_galois(cfg, enumerate_ideals(cfg))
        elapsed = time.monotonic() - started
        assert report.ok, report.render()
        assert elapsed < 5.0

    def test_f3_lambda2(self):
        cfg = FiniteConfig(2, 3)
        report = verify_galois(cfg, enumerate_ideals(cfg))
        assert report.ok, report.render()


class TestVerifyMaximalPrime:
    @pytest.mark.parametrize("cfg", [FiniteConfig(2, 2), FiniteConfig(3, 2), FiniteConfig(2, 3), FiniteConfig(3, 3)])
    def test_equivalences_hold(self, cfg):
        report = verify_maximal_prime(cfg, enumerate_ideals(cfg))
        assert report.ok, report.render()

    def test_zero_ideal_not_prime_when_two_points(self):
        cfg = FiniteConfig(2, 2)
        report = verify_maximal_prime(cfg, enumerate_ideals(cfg))
        text = report.render()
        # the all-points vanishing ideal is the zero ideal; its quotient is the
        # whole ring, which has the disjoint-support zero-divisor pair
        assert "vanishing-on={0,1}" in text
        assert report.ok
        zero = (0, 0)
        product = tuple(a * b % 2 for a, b in zip((1, 0), (0, 1)))
        assert product == zero  # (1,0).(0,1) = 0 with both factors nonzero


class TestDeterminism:
    def test_reports_byte_identical(self):
        cfg = FiniteConfig(3, 2)
        first = "\n".join(r.render() for r in run_oracle(cfg, "all"))
        second = "\n".join(r.render() for r in run_oracle(cfg, "all"))
        assert first == second

    def test_all_checks_share_one_enumeration(self, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "enumerate_ideals", lambda cfg: calls.append(cfg) or enumerate_ideals(cfg))
        assert len(run_oracle(FiniteConfig(2, 2), "all")) == 2
        assert calls == [FiniteConfig(2, 2)]

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_oracle(FiniteConfig(2, 2), "nonsense")
