import math
import random
from fractions import Fraction

import pytest

from mmda_lab.instances import ClassSums, InstanceError, LabelCells, build_mmda, make_params
from mmda_lab.relaxations import (SubtreeFamily, assignment_solution,
                                  check_helper_lemma, class_path_counts, closed_form_paths,
                                  count_paths, count_paths_from,
                                  max_paths_between_layers,
                                  path_solution, verify_assignment,
                                  verify_path_hierarchy, verify_subtree)
from mmda_lab.reports import ViolationReport, check_ge, check_le, vacuous
from mmda_lab.scalars import MONO_ONE, Monomial, as_fraction, compare_certified


class TestAssignmentSolution:
    def test_depth3_values(self, sol8):
        assert sol8.layer_values[1].as_fraction() == Fraction(1, 15)
        assert sol8.layer_values[2].as_fraction() == Fraction(1, 90)
        assert sol8.layer_values[3].as_fraction() == Fraction(1, 15)

    def test_first_layer_is_gamma0(self, inst8, inst16_deep):
        for inst in (inst8, inst16_deep):
            sol = assignment_solution(inst)
            assert compare_certified(sol.layer_values[1],
                                     inst.profile.gamma[0]) == "="

    def test_deep_first_layer_has_rational_exponent(self, inst16_deep):
        x1 = assignment_solution(inst16_deep).layer_values[1]
        assert any(e.denominator == 2 for _, e in x1.exponents)


class TestVerifyAssignment:
    def test_depth3_feasible(self, inst8, sol8):
        rep = verify_assignment(inst8, sol8)
        assert rep.ok
        assert not rep.violations and not rep.undecided

    def test_deep_feasible(self, inst16_deep):
        rep = verify_assignment(inst16_deep, assignment_solution(inst16_deep))
        assert rep.ok

    def test_final_packing_is_exactly_one(self, inst16_deep):
        rep = verify_assignment(inst16_deep, assignment_solution(inst16_deep))
        last = [c for c in rep.checks if c.constraint_id == "packing:layer6"]
        assert len(last) == 1
        assert compare_certified(last[0].lhs, Fraction(1)) == "="

    def test_phase_boundary_packing_values(self, inst16_deep):
        # the in-flow product equals 1/C((1-rho)m, rho m) exactly at both
        # ends of the middle phase
        rep = verify_assignment(inst16_deep, assignment_solution(inst16_deep))
        packing = {c.constraint_id: c for c in rep.checks
                   if c.constraint_id.startswith("packing")}
        boundary = Fraction(1, 495)   # 1/C(12, 4)
        assert compare_certified(packing["packing:layer2"].lhs, boundary) == "="
        assert compare_certified(packing["packing:layer4"].lhs, boundary) == "="

    def test_all_zero_solution_violates_source(self, inst8):
        rep = _ref_verify_sparse(inst8, (), inst8.source)
        bad = [c for c in rep.violations if c.constraint_id.startswith("covering:root")]
        assert bad and bad[0].lhs == 0

    def test_feasible_for_every_valid_param_set(self):
        # layer-symmetric verification is pure profile arithmetic, so the
        # sweep to m = 20 costs nothing even where layers are huge
        for m in range(4, 21):
            for rho_m in range(1, m // 4 + 1):
                for d in range(1, rho_m + 1):
                    if rho_m % d:
                        continue
                    params = make_params(m, Fraction(rho_m, m), epsilon=Fraction(1, d))
                    inst = build_mmda(params)
                    rep = verify_assignment(inst, assignment_solution(inst))
                    assert rep.ok and not rep.undecided, params


class TestSubtreeFamily:
    def test_values_on_first_layer_trigger(self, inst8, family8):
        e = ((0, 0), (1, 0))
        vals = dict(family8.support(e))
        assert vals[e] == 1
        w = inst8.out_neighbors((1, 0))[0]
        assert vals[((1, 0), w)] == Fraction(1, 6)
        lv = inst8.label((1, 0))
        seen = {}
        for (u, v), val in vals.items():
            if v[0] == 3:
                seen[bin(inst8.label(v) & lv).count("1")] = val
        assert seen[0] == Fraction(15, 28)
        assert seen[2] == Fraction(15, 28) / 15 == Fraction(1, 28)

    def test_support_inside_descendant_cone(self, inst8, family8):
        e = ((0, 0), (1, 3))
        lv = inst8.label((1, 3))
        for (u, v), val in family8.support(e):
            if (u, v) == e:
                continue
            assert inst8.label(u) & lv == lv or u == (1, 3)

    def test_flow_splitting_identity_all_sinks(self, inst8, family8):
        e = ((0, 0), (1, 0))
        sums = subtree_sums(family8, e)
        for t in inst8.vertices(3):
            assert sums.vertex(t)[0] == Fraction(15, 28)

    def test_every_subtree_passes_relocated_check(self, inst8, family8):
        for f in inst8.all_edges():
            rep = verify_subtree(family8, f)
            assert rep.ok, f

    def test_rejects_deep_instance(self, inst16_deep):
        with pytest.raises(Exception):
            SubtreeFamily(inst16_deep)


class TestPathSolution:
    def test_single_edge_value_is_x(self, inst8):
        ps = path_solution(inst8, 2)
        e = ((0, 0), (1, 0))
        assert ps.value((e,)).as_fraction() == Fraction(1, 15)

    def test_two_edge_value(self, inst8):
        ps = path_solution(inst8, 2)
        assert ps.value_class(1, 2).as_fraction() == Fraction(1, 90)

    def test_dummy_root(self, inst8):
        ps = path_solution(inst8, 2)
        assert ps.value((ps.dummy,)).as_fraction() == 1

    def test_path_count_matches_enumeration(self, inst4):
        ps = path_solution(inst4, 2)
        assert ps.path_count() == len(list(ps.enumerate_paths()))

    def test_auto_mode_and_the_refusal_share_one_bound(self, monkeypatch, inst4):
        # at the bound auto enumerates; one path above it auto turns
        # symbolic and the enumerated mode refuses
        import mmda_lab.relaxations as relaxations
        ps = path_solution(inst4, 2)
        enumerated = verify_path_hierarchy(inst4, ps, mode="enumerated")
        symbolic = verify_path_hierarchy(inst4, ps, mode="symbolic")
        assert len(enumerated.checks) != len(symbolic.checks)
        monkeypatch.setattr(relaxations, "PATH_ENUMERATION_MAX", ps.path_count())
        assert verify_path_hierarchy(inst4, ps).checks == enumerated.checks
        monkeypatch.setattr(relaxations, "PATH_ENUMERATION_MAX", ps.path_count() - 1)
        assert verify_path_hierarchy(inst4, ps).checks == symbolic.checks
        with pytest.raises(InstanceError, match=f"rounds=2 gives {ps.path_count()} paths"):
            verify_path_hierarchy(inst4, ps, mode="enumerated")


class TestPathCounting:
    def test_nested_pair_count(self, inst8):
        v = (1, 0)
        u = (3, inst8.vertex_with_label(3, inst8.label(v))[1])
        assert count_paths(inst8, v, u) == 15
        assert closed_form_paths(inst8, 1, 3, 2) == 15

    def test_source_to_peak(self, inst16_deep):
        assert closed_form_paths(inst16_deep, 0, 2, 0) == 6
        assert count_paths(inst16_deep, (0, 0), (2, 7)) == 6

    def test_identity_pair(self, inst8):
        assert count_paths(inst8, (3, 5), (3, 5)) == 1

    def test_unreachable_pair(self, inst8):
        v, u = (1, 0), (3, 27)
        if not inst8.reachable(v, u):
            assert count_paths(inst8, v, u) == 0

    def _exhaustive(self, inst):
        verts = [v for i in range(inst.ell + 1) for v in inst.vertices(i)]
        for v in verts:
            for u in verts:
                if v[0] > u[0]:
                    continue
                dp = count_paths(inst, v, u)
                if inst.reachable(v, u):
                    ov = bin(inst.label(v) & inst.label(u)).count("1")
                    assert dp == closed_form_paths(inst, v[0], u[0], ov), (v, u)
                else:
                    assert dp == 0

    def test_exhaustive_m8(self, inst8):
        self._exhaustive(inst8)

    def test_exhaustive_m8_deep(self, inst8_deep):
        self._exhaustive(inst8_deep)


def rank0_class_counts(inst, i):
    """The paths from layer i's rank-0 vertex, whose label is the lowest
    bits, to each class of its label cells."""
    label = (1 << inst.params.label_size(i)) - 1
    part = LabelCells(inst, [label])
    return class_path_counts(part, (i, tuple((label & c).bit_count() for c in part.cells)))


class TestClassPathCounts:
    """count-paths reads path counts off label classes; the vertex walk of
    count_paths_from is their oracle."""

    @pytest.mark.parametrize("m,rho,eps,pairs,zeros,paths", [
        (4, Fraction(1, 4), Fraction(1), 147, 78, 103),
        (8, Fraction(1, 4), Fraction(1, 2), 36907, 29806, 78655),
        (12, Fraction(1, 12), Fraction(1), 6463, 5874, 1027),
    ])
    def test_class_counts_equal_the_vertex_walk(self, m, rho, eps, pairs, zeros, paths):
        inst = build_mmda(make_params(m, rho, eps))
        vs = [v for i in range(inst.ell + 1) for v in inst.vertices(i)]
        got = []
        for v in vs:
            part = LabelCells(inst, [inst.label(v)])
            counts = class_path_counts(part, part.key(v))
            walked = count_paths_from(inst, v)
            for u in vs:
                if v[0] <= u[0]:
                    assert counts.get(part.key(u), 0) == walked.get(u, 0), (v, u)
                    got.append(walked.get(u, 0))
        # unreachable pairs, same-layer ones included, count 0 on both routes
        assert (len(got), got.count(0), sum(got)) == (pairs, zeros, paths)

    @pytest.mark.parametrize("argv", [["--m", "16", "--samples", "25", "--seed", "3"],
                                      ["--m", "12", "--rho", "1/12"]], ids=" ".join)
    def test_count_paths_walks_no_vertex(self, monkeypatch, tmp_path, argv):
        import mmda_lab.relaxations as relaxations
        from mmda_lab.cli import main
        from mmda_lab.instances import LayeredInstance

        def refuse(*args):
            raise AssertionError("a vertex walk")
        for name in ("count_paths", "count_paths_from"):
            monkeypatch.setattr(relaxations, name, refuse)
        monkeypatch.setattr(LayeredInstance, "frontiers", refuse)
        assert main(["count-paths", *argv, "--out", str(tmp_path / "r.json")]) == 0

    def test_all_pairs_build_no_label_table(self, monkeypatch, tmp_path):
        # the representatives are ranked, and the sources' classes read off
        # their cells: the memo keeps one label per class representative,
        # 795 of the C(24, 12) = 2,704,156 labels of the peak layer alone
        import json
        from mmda_lab.cli import main
        from mmda_lab.instances import LabeledInstance

        made, init = [], LabeledInstance.__init__

        def record(self, params):
            init(self, params)
            made.append(self)
        monkeypatch.setattr(LabeledInstance, "__init__", record)
        out = tmp_path / "r.json"
        assert main(["count-paths", "--m", "24", "--eps", "1/6", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["mismatches"] == []
        [inst] = made
        assert [len(d) for d in inst._masks] == [len(d) for d in inst._ranks] == [
            1, 2, 4, 7, 11, 16, 22, 29, 37, 46, 56, 67, 79, 78, 76, 73, 69, 64, 58]
        assert sum(map(len, inst._masks)) == 795


def _rows_by_id(rep):
    return {c.constraint_id: c for c in rep.checks}


class TestHelperLemma:
    def test_deep_instance_distance_two(self, inst16_deep):
        hl = check_helper_lemma(inst16_deep, Fraction(1, 3))
        assert hl.largest_distance >= 2
        assert not hl.report.violations

    def test_depth3_distance_one_only(self, inst8):
        hl = check_helper_lemma(inst8, Fraction(1))
        assert hl.largest_distance == 1
        bad = [c.constraint_id for c in hl.report.checks if not c.satisfied]
        assert bad == ["lifted-packing:(1,3)"]

    def test_single_step_always_certified(self, inst16_deep):
        # one-step counts are 1 and gamma <= 1
        hl = check_helper_lemma(inst16_deep, Fraction(1, 6))
        rows = _rows_by_id(hl.report)
        one_step = [rows[f"lifted-packing:({i},{i + 1})"] for i in range(inst16_deep.ell)]
        assert one_step and all(c.satisfied for c in one_step)

    def test_source_to_peak_bound_values(self, inst16_deep):
        # (0, 2): six orderings against 1/(gamma_0 gamma_1) = 11880/4
        hl = check_helper_lemma(inst16_deep, Fraction(1, 3))
        row = _rows_by_id(hl.report)["lifted-packing:(0,2)"]
        gammas = inst16_deep.profile.gamma[0].mul(inst16_deep.profile.gamma[1])
        assert row.lhs.div(gammas).as_fraction() == 6 and row.satisfied
        inv = gammas.pow(-1)
        assert inv.as_fraction() == Fraction(11880, 4)

    def test_worst_case_is_max_overlap(self, inst16_deep):
        # cross-peak: nested labels maximize the count
        cnt_nested = closed_form_paths(inst16_deep, 3, 5,
                                       min(6, 6))
        assert max_paths_between_layers(inst16_deep, 3, 5) == cnt_nested
        assert closed_form_paths(inst16_deep, 3, 5, 5) <= cnt_nested

    # the five table rows with m <= 32 at rho = 1/4, plus two more depths
    @pytest.mark.parametrize("m,eps", [(8, Fraction(1, 2)), (12, Fraction(1, 3)),
                                       (16, Fraction(1, 4)), (24, Fraction(1, 6)),
                                       (32, Fraction(1, 8)), (8, Fraction(1)),
                                       (16, Fraction(1, 2))])
    def test_nested_overlap_is_the_worst_case(self, m, eps):
        # the maximum over every feasible overlap of each layer pair is
        # the nested one that max_paths_between_layers evaluates
        inst = build_mmda(make_params(m, Fraction(1, 4), eps))
        p = inst.params
        for i in range(inst.ell + 1):
            for j in range(i, inst.ell + 1):
                counts = [closed_form_paths(inst, i, j, t)
                          for t in range(min(p.label_size(i), p.label_size(j)) + 1)
                          if inst.linked(i, j, t)]
                assert max(counts) == max_paths_between_layers(inst, i, j), (i, j)


# t*, the largest round count at which the symbolic path verifier passes,
# with xi = 1 so the helper bound is not capped below it
ROUNDS_FRONTIER = [(8, Fraction(1, 2), 1), (12, Fraction(1, 3), 3), (16, Fraction(1, 4), 4),
                   (24, Fraction(1, 6), 6), (32, Fraction(1, 8), 8), (48, Fraction(1, 12), 12),
                   (64, Fraction(1, 16), 16), (96, Fraction(1, 24), 24)]


class TestRoundsFrontier:
    @pytest.mark.parametrize("m,eps,t_star", ROUNDS_FRONTIER)
    def test_helper_bound_is_t_star(self, m, eps, t_star):
        inst = build_mmda(make_params(m, Fraction(1, 4), eps))
        assert check_helper_lemma(inst, Fraction(1)).largest_distance == t_star

    def test_class_counts_give_t_star(self):
        # a second route to every row's t*: the largest path count of each
        # layer pair from the class walks, not from closed_form_paths, then
        # the first distance whose gamma-weighted count exceeds 1
        for m, eps, t_star in ROUNDS_FRONTIER:
            inst = build_mmda(make_params(m, Fraction(1, 4), eps))
            most = {}
            for i in range(inst.ell + 1):
                for (j, _), n in rank0_class_counts(inst, i).items():
                    most[i, j] = max(most.get((i, j), 0), n)
            assert most == {(i, j): max_paths_between_layers(inst, i, j)
                            for i in range(inst.ell + 1) for j in range(i, inst.ell + 1)}
            ratio = [MONO_ONE] * (inst.ell + 1)

            def passes(d):
                for i in range(inst.ell + 1 - d):
                    ratio[i] = ratio[i].mul(inst.profile.gamma[i + d - 1])
                return all(check_le("", ratio[i].mul(Monomial.from_int(most[i, i + d])),
                                    1).satisfied for i in range(inst.ell + 1 - d))
            t = 0
            while t < inst.ell and passes(t + 1):
                t += 1
            assert t == t_star == check_helper_lemma(inst, Fraction(1)).largest_distance, m

    @pytest.mark.parametrize("m,eps,t_star,failing", [
        (12, Fraction(1, 3), 3, ["lifted-packing:(4,8)", "lifted-packing:(5,9)"]),
        (16, Fraction(1, 4), 4, ["lifted-packing:(6,11)", "lifted-packing:(7,12)"])])
    def test_symbolic_passes_at_t_star_only(self, m, eps, t_star, failing):
        inst = build_mmda(make_params(m, Fraction(1, 4), eps))
        assert verify_path_hierarchy(inst, path_solution(inst, t_star), mode="symbolic").ok
        rep = verify_path_hierarchy(inst, path_solution(inst, t_star + 1), mode="symbolic")
        assert not rep.undecided
        assert [c.constraint_id for c in rep.violations] == failing

    def test_enumerated_agrees_at_m8(self, inst8_deep):
        # m = 8 is the finite-size exception (t*/ell = 1/6); the enumerated
        # verifier, which does not use the closed-form worst case, agrees
        assert verify_path_hierarchy(inst8_deep, path_solution(inst8_deep, 1),
                                     mode="enumerated").ok
        rep = verify_path_hierarchy(inst8_deep, path_solution(inst8_deep, 2),
                                    mode="enumerated")
        assert rep.violations and not rep.undecided
        assert all(c.constraint_id.startswith("lifted-packing:") for c in rep.violations)


class TestPathHierarchy:
    def test_deep_t2_zero_violations(self, inst16_deep):
        ps = path_solution(inst16_deep, 2)
        rep = verify_path_hierarchy(inst16_deep, ps, mode="symbolic")
        assert rep.ok, [c.constraint_id for c in rep.violations]

    def test_lifted_covering_exact_equality(self, inst16_deep):
        ps = path_solution(inst16_deep, 2)
        rep = verify_path_hierarchy(inst16_deep, ps, mode="symbolic")
        eq = [c for c in rep.checks if c.constraint_id.startswith("lifted-covering")]
        assert eq and all(c.satisfied for c in eq)
        assert all(c.kind == "equality" for c in eq)

    def test_depth3_two_rounds_reports_but_is_violated(self, inst8):
        # two rounds defeat the depth-3 instance: the checker must report
        # the lifted packing failure rather than certify it
        rep = verify_path_hierarchy(inst8, path_solution(inst8, 2), mode="symbolic")
        ids = [c.constraint_id for c in rep.violations]
        assert ids == ["lifted-packing:(1,3)"]

    def test_enumerated_matches_symbolic_on_small_instance(self, inst4):
        ps = path_solution(inst4, 1)
        sym = verify_path_hierarchy(inst4, ps, mode="symbolic")
        enu = verify_path_hierarchy(inst4, ps, mode="enumerated")
        assert sym.ok == enu.ok == True

    def test_enumerated_detects_depth3_failure(self, inst4):
        ps = path_solution(inst4, 2)
        enu = verify_path_hierarchy(inst4, ps, mode="enumerated")
        sym = verify_path_hierarchy(inst4, ps, mode="symbolic")
        assert (not enu.ok) and (not sym.ok)

    def test_root_constraint(self, inst8):
        ps = path_solution(inst8, 1)
        rep = verify_path_hierarchy(inst8, ps, mode="symbolic")
        root = [c for c in rep.checks if c.constraint_id == "root"]
        assert root and root[0].satisfied

    def test_source_children_sum_is_ks(self, inst8):
        # children of the dummy root path: sum of y over delta+(s) equals k_s
        ps = path_solution(inst8, 1)
        total = sum((ps.value(((ps.dummy,) + ((inst8.source, w),))[1:]).as_fraction()
                     for w in inst8.out_neighbors(inst8.source)), Fraction(0))
        assert total == Fraction(28, 15)


class TestConsistencyRatio:
    def test_front_extension_ratio(self, inst8):
        # extending in front multiplies the value by 1/delta^- per layer
        ps = path_solution(inst8, 2)
        y_front = ps.value_class(1, 2)
        y_inner = ps.value_class(2, 1)
        ratio = y_front.as_fraction() / y_inner.as_fraction()
        assert ratio == Fraction(1, inst8.profile.delta_minus[1])


def subtree_sums(fam, f):
    """x^{(f)} and its vertex sums on the label classes of f's ends."""
    inst = fam.inst
    return ClassSums(LabelCells(inst, map(inst.label, f)), lambda e: fam.value(f, e))


def _ref_verify_sparse(inst, support, root):
    """The per-edge check of a relocated solution, the oracle for
    ``verify_subtree``: every edge's value in ``support``, (edge, value)
    pairs, compared with 0 and 1 and added to its endpoints' sums one by
    one, with the covering obligation at ``root``."""
    rep = ViolationReport()
    out_sum, in_sum = {}, {}
    for e, val in support:
        if val > 1:
            rep.add(check_le(f"bounds:{e}", val, 1, kind="bounds"))
        elif val < 0:
            rep.add(check_ge(f"bounds:{e}", val, 0, kind="bounds"))
        u, v = e
        out_sum[u] = out_sum.get(u, Fraction(0)) + val
        in_sum[v] = in_sum.get(v, Fraction(0)) + val
    if inst.is_sink(root):
        rep.add(vacuous(f"covering:root{root}", "covering", out_sum.get(root, 0), 0))
    else:
        demand_root = max(in_sum.get(root, Fraction(0)), Fraction(1))
        rep.add(check_ge(f"covering:root{root}", out_sum.get(root, 0),
                         as_fraction(inst.k_of(root)) * demand_root))
    for v in sorted(set(in_sum) | set(out_sum)):
        inflow = in_sum.get(v, Fraction(0))
        if inflow > 0:
            rep.add(check_le(f"packing:{v}", inflow, 1))
        if v == root or inst.is_sink(v):
            continue
        if inflow > 0:
            rep.add(check_ge(f"covering:{v}", out_sum.get(v, 0),
                             as_fraction(inst.k_of(v)) * inflow))
        else:
            rep.add(vacuous(f"covering:{v}", "covering", out_sum.get(v, 0), 0))
    return rep


class Faulty(SubtreeFamily):
    """The subtree solutions with ``fault(e, value)`` in place of every
    positive value of the solutions whose trigger enters ``layer``, in both
    the support and the closed form."""

    def __init__(self, inst, layer, fault):
        super().__init__(inst)
        self.layer, self.fault = layer, fault

    def _hit(self, f, e, val):
        return self.fault(e, val) if f[1][0] == self.layer and val else val

    def support(self, f):
        for e, val in super().support(f):
            yield e, self._hit(f, e, val)

    def value(self, f, e):
        return self._hit(f, e, super().value(f, e))


FAULTS = {"doubled": lambda e, v: 2 * v, "above-one": lambda e, v: v + 1,
          "negative": lambda e, v: -v}


def _halved_bottom(e, v):
    return v / 2 if e[1][0] == 3 else v


# at m=8 the sink labelled like a layer-1 trigger's head has 15 in-edges of
# 1/28 each; tripled, its in-flow is 45/28 while every value stays below 1
def _crowded_sink(e, v):
    return 3 * v if v == Fraction(1, 28) else v


# the trigger at 1/2 and its head's out-edges at 3/4: the head's out-flow
# covers k times its in-flow but not k times max(in-flow, 1)
def _short_root(e, v):
    return v / 2 if e[1][0] == 2 else 3 * v / 4


class TestSubtreeCheck:
    """The class check against the per-edge oracle: the same verdict for
    every trigger at m = 4 and 8, for each layer's first edge at m = 12
    and 16, and on solutions with a fault in one layer."""

    @pytest.mark.parametrize("m", [4, 8])
    def test_every_edge_agrees_with_oracle(self, m):
        inst = build_mmda(make_params(m, Fraction(1, 4)))
        fam = SubtreeFamily(inst)
        for f in inst.all_edges():
            got = verify_subtree(fam, f)
            assert got.ok == _ref_verify_sparse(inst, fam.support(f), f[1]).ok == True, f
            assert not got.undecided

    @pytest.mark.parametrize("m", [12, 16])
    def test_first_edges_agree_with_oracle(self, m):
        inst = build_mmda(make_params(m, Fraction(1, 4)))
        fam = SubtreeFamily(inst)
        for i in range(1, inst.ell + 1):
            f = ((i - 1, 0), (i, 0))
            assert verify_subtree(fam, f).ok == _ref_verify_sparse(
                inst, fam.support(f), f[1]).ok == True, f

    @pytest.mark.parametrize("layer", [1, 2, 3])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_faults_flagged_by_both_routes(self, inst8, layer, fault):
        fam = Faulty(inst8, layer, FAULTS[fault])
        for i in range(1, inst8.ell + 1):
            for f in list(inst8.edges_into_layer(i))[::97]:
                want = i != layer
                assert verify_subtree(fam, f).ok == want, (fault, f)
                assert _ref_verify_sparse(inst8, fam.support(f), f[1]).ok == want, (fault, f)

    @pytest.mark.parametrize("fault,layer,kind", [
        (_halved_bottom, 1, "covering"),        # at the middle vertices
        (_halved_bottom, 2, "covering"),        # at the root
        (_halved_bottom, 3, None),              # a sink root has no covering
        (_crowded_sink, 1, "packing"),
        (_short_root, 2, "covering")])
    def test_faults_only_one_constraint_flags(self, inst8, fault, layer, kind):
        fam = Faulty(inst8, layer, fault)
        f = ((layer - 1, 0), (layer, 0))
        got, want = verify_subtree(fam, f), _ref_verify_sparse(inst8, fam.support(f), f[1])
        assert got.ok == want.ok == (kind is None)
        assert {c.kind for c in got.violations} == {c.kind for c in want.violations} <= {kind}

    def test_closed_form_equals_support(self, inst8, family8):
        # x^{(f)} from the labels equals the listed support, zero elsewhere
        for f in list(inst8.all_edges())[::29]:
            listed = dict(family8.support(f))
            for e in inst8.all_edges():
                assert family8.value(f, e) == listed.get(e, 0), (f, e)
