"""Dual-route checks: independent computations of the same quantity must
agree exactly, across modules and modes."""

import math
from fractions import Fraction
from itertools import combinations

import pytest

from mmda_lab.instances import (ExplicitInstance, build_mmda, make_params)
from mmda_lab.integral import IntegralSolution, bruteforce_best, solution_quality
from mmda_lab.relaxations import (assignment_solution, closed_form_paths,
                                  count_paths_from, path_solution,
                                  verify_assignment, verify_path_hierarchy)
from mmda_lab.shadow import ConditionEvent, conditional_report, shadow_model
from conftest import checks_where
from test_integral import check_structure


class TestHierarchyModesAgree:
    def test_multi_phase_instance_both_modes(self, inst8_deep):
        # all ~13k paths fit under the enumeration cap, so the explicit
        # checker covers exactly the constraints the symbolic one certifies
        ps = path_solution(inst8_deep, 2)
        sym = verify_path_hierarchy(inst8_deep, ps, mode="symbolic")
        enu = verify_path_hierarchy(inst8_deep, ps, mode="enumerated")
        assert sym.summary() == {"checks": 92, "violations": 1, "undecided": 0}
        assert enu.summary() == {"checks": 97546, "violations": 168, "undecided": 0}
        # both modes fail on the same constraint class and nowhere else
        for rep in (sym, enu):
            assert {c.constraint_id.split(":")[0] for c in checks_where(rep, False)} \
                == {"lifted-packing"}

    def test_depth3_disagreeing_rounds(self, inst4):
        for t in (1, 2):
            ps = path_solution(inst4, t)
            sym = verify_path_hierarchy(inst4, ps, mode="symbolic")
            enu = verify_path_hierarchy(inst4, ps, mode="enumerated")
            assert sym.ok == enu.ok, t

    def test_enumerated_worst_slack_matches_closed_form(self, inst4):
        # the binding lifted-packing ratio at (1, 3) equals count / (1/prod)
        ps = path_solution(inst4, 2)
        enu = verify_path_hierarchy(inst4, ps, mode="enumerated")
        worst = [c for c in checks_where(enu, False)
                 if c.constraint_id.startswith("lifted-packing")]
        assert worst
        ratios = {c.factor.as_fraction() for c in worst}
        # m=4: count v->u (same label) = C(3,1) = 3, 1/(gamma1 gamma2) = 2
        assert max(ratios) == Fraction(3, 2)


class TestBruteforceAgainstEnumeration:
    def _tiny_instance(self):
        # depth 2, requirements 2 everywhere, 9 edges arranged so the
        # middle vertices pairwise share a sink: small enough to
        # enumerate every edge subset
        s = (0, 0)
        l1 = [(1, 0), (1, 1), (1, 2)]
        l2 = [(2, j) for j in range(3)]
        out = {
            s: l1,
            (1, 0): [(2, 0), (2, 1)],
            (1, 1): [(2, 1), (2, 2)],
            (1, 2): [(2, 2), (2, 0)],
        }
        two = Fraction(2)
        k = {s: two, **{v: two for v in l1}}
        return ExplicitInstance([[s], l1, l2], out, k)

    def test_exhaustive_subset_oracle(self):
        inst = self._tiny_instance()
        edges = list(inst.all_edges())
        best = Fraction(0)
        for r in range(1, len(edges) + 1):
            for chosen in combinations(edges, r):
                sol = IntegralSolution(frozenset(chosen))
                if not check_structure(sol, inst):
                    continue
                best = max(best, solution_quality(inst, sol).alpha)
        res = bruteforce_best(inst)
        assert res.complete
        assert res.quality.alpha == best

    def test_tiny_instance_value(self):
        # two expanded middle vertices need four distinct sinks but any
        # two of them only reach three, so quality 1 is impossible
        inst = self._tiny_instance()
        res = bruteforce_best(inst)
        assert res.quality.alpha == Fraction(1, 2)


class TestThirdPhaseStep:
    def test_eps_one_third_instance(self):
        params = make_params(12, Fraction(1, 4), epsilon=Fraction(1, 3))
        inst = build_mmda(params)
        assert inst.ell == 9
        assert params.step == 1
        rep = verify_assignment(inst, assignment_solution(inst))
        assert rep.ok
        # unit step: the ordering count between layers is a factorial
        assert closed_form_paths(inst, 0, 3, 0) == math.factorial(3)
        counts = count_paths_from(inst, (0, 0))
        three = [v for v in counts if v[0] == 3]
        assert all(counts[v] == 6 for v in three)
        # cross-peak sampled pairs
        import random
        rng = random.Random(3)
        for _ in range(40):
            i = rng.randrange(0, inst.ell)
            j = rng.randrange(i, inst.ell + 1)
            v = (i, rng.randrange(inst.layer_size(i)))
            u = (j, rng.randrange(inst.layer_size(j)))
            from mmda_lab.relaxations import count_paths
            dp = count_paths(inst, v, u)
            if inst.reachable(v, u):
                ov = bin(inst.label(v) & inst.label(u)).count("1")
                assert dp == closed_form_paths(inst, i, j, ov)
            else:
                assert dp == 0


class TestEngineSymmetry:
    def test_reports_match_under_relabeling(self, inst8, model8):
        # two first-layer edges are related by a ground-set permutation,
        # so their conditioned vertex-degree profiles must coincide as
        # multisets
        ev_a = ConditionEvent((inst8.source, (1, 0)), True)
        ev_b = ConditionEvent((inst8.source, (1, 17)), True)
        ra = conditional_report(model8, ev_a)
        rb = conditional_report(model8, ev_b)
        assert sorted(ra.vertex_out.values()) == sorted(rb.vertex_out.values())
        assert sorted(ra.vertex_in.values()) == sorted(rb.vertex_in.values())
        assert sorted(ra.conditional.values()) == sorted(rb.conditional.values())
