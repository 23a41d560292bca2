import math
from fractions import Fraction

import pytest

from mmda_lab.instances import build_mmda, make_params
from mmda_lab.relaxations import check_helper_lemma
from mmda_lab.rounding import (FOREST_PATH_MAX, audit_locality, audit_to_json,
                               default_congestion_bound, expected_forest_paths,
                               sample_forest)
from mmda_lab.scalars import Monomial, compare_certified


class TestSampling:
    def test_reproducible(self, inst8):
        a = sample_forest(inst8, seed=42)
        b = sample_forest(inst8, seed=42)
        assert a.paths == b.paths

    def test_prefix_closed(self, inst8):
        forest = sample_forest(inst8, seed=9)
        have = set(forest.paths)
        for p in forest.paths:
            if len(p) > 1:
                assert p[:-1] in have

    def test_paths_follow_edges(self, inst8):
        forest = sample_forest(inst8, seed=9)
        for p in forest.paths:
            for a, b in zip(p, p[1:]):
                assert b in inst8.out_neighbors(a)

    def test_irrational_ratios_sample(self, inst16_deep):
        forest = sample_forest(inst16_deep, seed=3)
        assert len(forest.paths) > 1
        assert not forest.truncated

    def test_size_cap_flags_truncation(self, inst8):
        forest = sample_forest(inst8, seed=1, path_limit=2)
        assert forest.truncated


class TestExpectedForestPaths:
    @pytest.mark.parametrize("m,expected", [(8, 36), (12, 235)])
    def test_mean_of_seeded_forests(self, m, expected):
        # the mean path count of 40 seeded forests is within a factor 3/2 of
        # the closed form (40.5 and 172.3 over the first 20 seeds, 39.6 and
        # 211.6 over all 40)
        inst = build_mmda(make_params(m, Fraction(1, 4)))
        assert expected_forest_paths(inst) == expected
        mean = sum(len(sample_forest(inst, seed=s).paths) for s in range(40)) / 40
        assert expected / 1.5 <= mean <= expected * 1.5

    def test_bound_falls_between_m24_and_m28(self):
        # locally-good admits m=24 at rho=1/4 and refuses m=28
        sizes = [expected_forest_paths(build_mmda(make_params(m, Fraction(1, 4))))
                 for m in (24, 28)]
        assert sizes == [134_750, 1_184_396]
        assert sizes[0] <= FOREST_PATH_MAX < sizes[1]


class TestExpectationIdentities:
    def test_children_identity_exact(self, inst8, inst16_deep):
        # gamma_i * delta_i^+ equals k_i, exactly, per layer
        for inst in (inst8, inst16_deep):
            prof = inst.profile
            for i in range(inst.ell):
                children = prof.gamma[i].mul(Monomial.from_int(prof.delta_plus[i]))
                assert compare_certified(children, prof.k[i]) == "="

    def test_congestion_expectation_below_one(self, inst16_deep):
        # path count times the value ratio is at most 1 within the
        # certified radius, so expected congestion per pair is <= 1
        hl = check_helper_lemma(inst16_deep, Fraction(1, 3))
        assert hl.largest_distance >= 2
        assert not hl.report.violations

    def test_empirical_children_mean(self, inst8):
        # per-layer sample means over many seeds within 4 SE of k_i
        counts = {0: [], 1: [], 2: []}
        for seed in range(400):
            forest = sample_forest(inst8, seed=seed)
            kids = {}
            for p in forest.paths:
                if len(p) > 1:
                    kids[p[:-1]] = kids.get(p[:-1], 0) + 1
            for p in forest.paths:
                end = p[-1]
                if not inst8.is_sink(end):
                    counts[end[0]].append(kids.get(p, 0))
        for i, vals in counts.items():
            if not vals:
                continue
            k_i = float(inst8.profile.k[i].as_fraction())
            mean = sum(vals) / len(vals)
            var = sum((v - mean) ** 2 for v in vals) / max(len(vals) - 1, 1)
            se = math.sqrt(var / len(vals)) or 1e-9
            assert abs(mean - k_i) <= 4 * se, (i, mean, k_i, se)


class TestAudit:
    def test_empty_forest_vacuous(self, inst8):
        forest = sample_forest(inst8, seed=10**9 + 7)
        # root-only forests can occur; audit must not fail structurally
        audit = audit_locality(forest, radius=1)
        assert audit.max_congestion >= 0

    def test_radius_guard(self, inst8):
        forest = sample_forest(inst8, seed=0)
        with pytest.raises(Exception):
            audit_locality(forest, radius=99)

    def test_congestion_recount(self, inst8):
        forest = sample_forest(inst8, seed=123)
        audit = audit_locality(forest, radius=1)
        # naive recount: congestion at radius 1 is the in-forest in-degree
        # below each parent path
        recount = {}
        for q in forest.paths:
            if len(q) >= 2:
                recount[(q[:-1], q[-1])] = recount.get((q[:-1], q[-1]), 0) + 1
        assert audit.congestion == recount

    def test_default_bound_is_polylog(self, inst8):
        assert default_congestion_bound(inst8) == math.log2(127) ** 11

    def test_json_round_trip(self, inst8):
        audit = audit_locality(sample_forest(inst8, seed=5), radius=1)
        data = audit_to_json(audit)
        assert set(data) >= {"radius", "children_violations", "max_congestion", "ok"}


class TestRecordedFixtures:
    def test_deep_instance_seed_rate(self, inst16_deep):
        # recorded run over 100 seeds: at this size the half-requirement
        # children bound fails somewhere in every forest (requirements are
        # small, so the concentration that kicks in asymptotically does
        # not bite yet); congestion stays far below the polylog bound
        zero_violation_seeds = 0
        worst_congestion = 0
        for seed in range(100):
            forest = sample_forest(inst16_deep, seed=seed)
            audit = audit_locality(forest, radius=2)
            assert not audit.congestion_violations
            worst_congestion = max(worst_congestion, audit.max_congestion)
            if not audit.children_violations:
                zero_violation_seeds += 1
        assert zero_violation_seeds == 0          # measured fixture
        assert worst_congestion <= 10             # observed max is 6
