from fractions import Fraction

import pytest

from mmda_lab.configgap import (build_config_solution, sa1_defeats,
                                verify_config_solution)
from mmda_lab.instances import build_config_lp_gap, build_mmda, make_params
from mmda_lab.integral import hall_infeasibility
from conftest import checks_where


class TestConfigSolution:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_verifier_accepts(self, k):
        inst = build_config_lp_gap(k)
        sol = build_config_solution(inst)
        rep = verify_config_solution(inst, sol)
        assert rep.ok, [c.constraint_id for c in checks_where(rep, False)][:5]

    def test_source_bundles_partition_first_layer(self):
        inst = build_config_lp_gap(3)
        sol = build_config_solution(inst)
        src = [e for e in sol.entries if e.player == inst.source]
        assert len(src) == 3
        assert all(e.weight == Fraction(1, 3) for e in src)
        union = set()
        for e in src:
            assert not (union & e.bundle)
            union |= e.bundle
        assert union == set(inst.vertices(1))

    def test_degenerate_k2_weights(self):
        inst = build_config_lp_gap(2)
        sol = build_config_solution(inst)
        weights = sorted(e.weight for e in sol.entries if e.player == (1, 0))
        assert weights == [Fraction(1, 2), Fraction(1, 2)]

    def test_resource_loads_tight(self):
        inst = build_config_lp_gap(3)
        sol = build_config_solution(inst)
        loads = sol.resource_loads()
        # every private resource of a covered player is fully loaded
        for v in inst.vertices(1):
            assert loads[v] == 1


class TestDefeat:
    @pytest.mark.parametrize("k", [2, 3])
    def test_every_first_layer_vertex_starved(self, k):
        inst = build_config_lp_gap(k)
        rep = sa1_defeats(inst)
        assert rep.all_infeasible
        for w in rep.witnesses.values():
            assert w.demand == k * k and w.supply == k
            assert w.supply < w.demand

    def test_construction_control_not_starved(self):
        inst = build_mmda(make_params(8, Fraction(1, 4)))
        for v in list(inst.vertices(1))[:6]:
            assert not hall_infeasibility(inst, v).infeasible
