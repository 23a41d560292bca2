import math
from fractions import Fraction

import pytest

from mmda_lab.instances import (build_config_lp_gap, build_depth3_example,
                                build_mmda, build_subtree_counterexample,
                                make_params)
from mmda_lab.integral import (IntegralSolution, bruteforce_best,
                               counting_certificate, hall_infeasibility,
                               single_path_solution, solution_quality,
                               t1_count, t2_count)
from mmda_lab.scalars import as_fraction, compare_certified


def sinks_needed(inst, q: Fraction) -> int:
    """Sinks below the source of any arborescence with out-degree at least
    q*k_v: the product of the per-layer demands (k is constant on a layer)."""
    return math.prod(math.ceil(q * as_fraction(k)) for k in inst.profile.k)


def check_structure(sol: IntegralSolution, inst) -> bool:
    """In-degree at most one and every edge on a source-rooted path."""
    indeg: dict = {}
    for _, v in sol.edges:
        indeg[v] = indeg.get(v, 0) + 1
        if indeg[v] > 1:
            return False
    reached = {inst.source}
    frontier = {inst.source}
    while frontier:
        frontier = {v for u, v in sol.edges if u in frontier}
        reached |= frontier
    return all(u in reached for u, _ in sol.edges)


def best_quality_bound(cert):
    """The strongest (smallest) quality bound over the certificate's
    variants: each integer threshold gives a valid bound."""
    best = cert.variants[0].quality_bound
    for v in cert.variants[1:]:
        if compare_certified(v.quality_bound, best) == "<":
            best = v.quality_bound
    return best


class TestExampleInstance:
    def test_optimum_is_one(self):
        ex = build_depth3_example()
        res = bruteforce_best(ex)
        assert res.complete
        assert res.quality.alpha == 1
        assert check_structure(res.solution, ex)

    def test_single_path_is_half(self):
        ex = build_depth3_example()
        sp = single_path_solution(ex)
        assert solution_quality(ex, sp).alpha == Fraction(1, 2)
        assert check_structure(sp, ex)

    def test_out_degree_one_everywhere_on_path(self):
        ex = build_depth3_example()
        sp = single_path_solution(ex)
        for v in sp.selected_vertices(ex):
            if not ex.is_sink(v):
                assert sp.out_degree(v) == 1

    def test_single_path_quality_is_inverse_max_requirement(self, inst8):
        sp = single_path_solution(inst8)
        assert solution_quality(inst8, sp).alpha == Fraction(1, 6)


class TestConstruction:
    def test_m4_optimum_two_thirds(self, inst4):
        res = bruteforce_best(inst4)
        assert res.complete
        assert res.quality.alpha == Fraction(2, 3)
        assert check_structure(res.solution, inst4)

    def test_m4_quality_one_excluded(self, inst4):
        res = bruteforce_best(inst4)
        assert res.complete and res.quality.alpha < 1
        # quality 1 needs ceil(4/3) * ceil(3/2) * 2 = 8 sinks below the source
        assert sinks_needed(inst4, Fraction(1)) == 8 > inst4.layer_size(inst4.ell)


class TestCounterexample:
    @pytest.mark.parametrize("k,expected", [(2, Fraction(1)),
                                            (3, Fraction(2, 3)),
                                            (4, Fraction(1, 2))])
    def test_optimum(self, k, expected):
        cex = build_subtree_counterexample(k)
        res = bruteforce_best(cex)
        assert res.complete
        assert res.quality.alpha == expected
        bound = Fraction(int(math.isqrt(k)) + 1, k)
        assert res.quality.alpha <= bound

    def test_structure_invariants(self):
        cex = build_subtree_counterexample(3)
        res = bruteforce_best(cex)
        sol = res.solution
        assert check_structure(sol, cex)
        for v in sol.selected_vertices(cex):
            assert sol.in_degree(v) <= 1


class TestSolutionView:
    def test_structure_rejects_double_in_degree(self, inst4):
        v1, v2 = (1, 0), (1, 1)
        w = next(w for w in inst4.out_neighbors(v1)
                 if w in inst4.out_neighbors(v2))
        bad = IntegralSolution(frozenset({((0, 0), v1), ((0, 0), v2),
                                          (v1, w), (v2, w)}))
        assert not check_structure(bad, inst4)

    def test_structure_rejects_floating_edge(self, inst4):
        w = inst4.out_neighbors((1, 0))[0]
        t = inst4.out_neighbors(w)[0]
        assert not check_structure(IntegralSolution(frozenset({(w, t)})), inst4)


class TestCountingCertificate:
    def test_m8_sizes(self, inst8):
        cert = counting_certificate(inst8.params)
        by_thr = {v.threshold: v for v in cert.variants}
        assert by_thr[1].t2_size == math.comb(2, 0) * math.comb(2, 2) == 1
        assert by_thr[1].t1_size == 13
        assert by_thr[0].t2_size == 0
        assert by_thr[0].t1_size == math.comb(8, 2)  # all sinks

    def test_sizes_match_direct_enumeration(self, inst8):
        inst = inst8
        v = (1, 0)
        lv = inst.label(v)
        u = inst.out_neighbors(v)[0]
        lu = inst.label(u)
        for thr in (0, 1, 2):
            direct1 = sum(1 for t in inst.vertices(3)
                          if bin(inst.label(t) & lv).count("1") >= thr)
            assert direct1 == t1_count(8, 2, thr)
            direct2 = sum(1 for t in inst.vertices(3)
                          if inst.label(t) & lu == inst.label(t)
                          and bin(inst.label(t) & lv).count("1") < thr)
            assert direct2 == t2_count(2, thr)

    @pytest.mark.parametrize("m,rho_m", [(m, m * rho.numerator // rho.denominator)
                                         for m in range(4, 17)
                                         for rho in (Fraction(1, 4), Fraction(1, 8))
                                         if m * rho.numerator % rho.denominator == 0])
    def test_sizes_match_the_overlap_sums(self, m, rho_m):
        # the sums over the overlap j with the fixed label, as written before
        for thr in range(rho_m + 2):
            assert t1_count(m, rho_m, thr) == sum(
                math.comb(rho_m, j) * math.comb(m - rho_m, rho_m - j)
                for j in range(thr, rho_m + 1))
            assert t2_count(rho_m, thr) == sum(
                math.comb(rho_m, j) * math.comb(rho_m, rho_m - j) for j in range(0, thr))

    def test_bound_dominates_bruteforce(self, inst4):
        res = bruteforce_best(inst4)
        cert = counting_certificate(inst4.params)
        qb = best_quality_bound(cert)
        assert compare_certified(res.quality.alpha, qb) in ("<", "=")

    def test_bound_dominates_on_example_shape(self, inst8):
        cert = counting_certificate(inst8.params)
        # hand-checked value at threshold 1: alpha_min = sqrt(15/26)
        v1 = [v for v in cert.variants if v.threshold == 1][0]
        target = Fraction(15, 26)
        assert compare_certified(v1.alpha_min.pow(2) if hasattr(v1.alpha_min, "pow")
                                 else v1.alpha_min, target) == "="

    def test_json_shape(self, inst8):
        data = counting_certificate(inst8.params).to_json()
        assert data["theta"] == "1/12"
        assert len(data["variants"]) == 2


class TestCountingCertificateRho8:
    """The bounds below 1 that the certificate reports at rho=1/8.  The
    hypotheses of the counting lemma (on theta, rho, epsilon and the
    threshold) are not checked here, so neither value is a gap claim yet."""

    def test_m16_bound_at_threshold_one(self):
        cert = counting_certificate(make_params(16, Fraction(1, 8)))
        best = best_quality_bound(cert)
        assert [v.threshold for v in cert.variants if v.quality_bound is best] == [1]
        assert compare_certified(best.pow(2), Fraction(58, 91)) == "="   # 0.79835...

    def test_m32_bound_at_threshold_two(self):
        cert = counting_certificate(make_params(32, Fraction(1, 8)))
        best = best_quality_bound(cert)
        assert [v.threshold for v in cert.variants if v.quality_bound is best] == [2]
        assert best.as_fraction() == Fraction(17, 35)                     # 0.48571...


class TestHallInfeasibility:
    def test_config_gap_demand_exceeds_supply(self):
        for k in (2, 3):
            cg = build_config_lp_gap(k)
            w = hall_infeasibility(cg, (1, 0))
            assert w.infeasible
            assert w.demand == k * k and w.supply == k

    def test_counterexample_depth_one_feasible(self):
        cex = build_subtree_counterexample(3)
        assert not hall_infeasibility(cex, (1, 0), depth=1).infeasible

    def test_construction_feasible_below_first_layer(self, inst8):
        for v in list(inst8.vertices(1))[:5]:
            assert not hall_infeasibility(inst8, v).infeasible


class TestBudget:
    def test_budget_flag(self, inst4):
        res = bruteforce_best(inst4, budget=3)
        assert not res.complete
        # a valid solution is still returned
        assert check_structure(res.solution, inst4)
        assert res.quality.alpha >= Fraction(1, 2)


class TestConstructionM8:
    def test_optimum_four_fifths(self, inst8):
        # complete search: the m=8 construction tops out at quality 4/5
        # (the next candidate 5/6 already fails the sink count 30 > 28)
        res = bruteforce_best(inst8, budget=3_000_000)
        assert res.complete
        assert res.quality.alpha == Fraction(4, 5)
        assert sinks_needed(inst8, Fraction(4, 5)) == 20 <= inst8.layer_size(inst8.ell)
        assert sinks_needed(inst8, Fraction(5, 6)) == 30 > inst8.layer_size(inst8.ell)
        assert check_structure(res.solution, inst8)
        cert = best_quality_bound(counting_certificate(inst8.params))
        assert compare_certified(res.quality.alpha, cert) == "<"
