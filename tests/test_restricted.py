import itertools
from fractions import Fraction

import pytest

from mmda_lab.restricted import (SAWitness, build_lower_bound, canonicalize,
                                 integral_optimum, map_sa1_to_davies, matching_lift,
                                 verify_matching_distribution)


# Test-local oracles: second routes that no command needs.

def matching_value_oracle(k, eps, conditioned_pairs=()):
    """Enumerates all matchings (small k) to cross-check the closed form."""
    inst = build_lower_bound(k, eps)
    eps = Fraction(eps)
    fixed = dict(conditioned_pairs)
    fixed_players = set(fixed)
    fixed_bigs = set(fixed.values())
    free_bigs = [f"b{j}" for j in range(1, k + 1) if f"b{j}" not in fixed_bigs]
    free_players = [p for p in inst.players if p not in fixed_players]
    exp = dict.fromkeys(inst.players, Fraction(0))
    count = 0
    for assign in itertools.permutations(free_players, len(free_bigs)):
        count += 1
        totals = {p: 3 * eps for p in inst.players}
        for p in fixed_players:
            totals[p] += 1
        for b, p in zip(free_bigs, assign):
            totals[p] += 1
        for p in inst.players:
            exp[p] += totals[p]
    return {p: v / count for p, v in exp.items()}


def original_to_canonical_solution(inst, canon, assignment):
    """Lift an assignment of value >= T to the canonical instance."""
    out = {}
    big_orig = {r for r in inst.values if r in canon.bigs}
    for r, p in assignment.items():
        ps, pb = canon.split[p]
        out[r] = pb if r in big_orig else ps
    for p in inst.players:
        ps, pb = canon.split[p]
        has_big = any(out.get(r) == pb for r in inst.values)
        out[canon.coupling[p]] = ps if has_big else pb
    return out


def canonical_to_original_solution(canon, assignment):
    """Project a canonical assignment back; couplings are dropped."""
    out = {}
    back = {side: p for p, sides in canon.split.items() for side in sides}
    for r, holder in assignment.items():
        if r in canon.coupling.values():
            continue
        out[r] = back[holder]
    return out


def assignment_values(inst, assignment):
    totals = dict.fromkeys(inst.players, Fraction(0))
    for r, p in assignment.items():
        totals[p] += inst.values[r]
    return totals


class TestLowerBoundInstance:
    def test_shape(self):
        inst = build_lower_bound(12, Fraction(1, 12))
        assert len(inst.players) == 13
        assert inst.values["s1"] == Fraction(1, 4)
        assert inst.values["b7"] == 1
        assert inst.eligibility["p3"] == frozenset({"s3"} | {f"b{j}" for j in range(1, 13)})

    def test_degenerate_equal_values(self):
        inst = build_lower_bound(3, Fraction(1, 3))
        assert inst.values["s2"] == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_lower_bound(10, Fraction(1, 2))
        with pytest.raises(ValueError):
            build_lower_bound(10, Fraction(1, 3))   # eps*k = 10/3


class TestMatchingDistribution:
    def test_single_conditioning_value(self):
        inst = build_lower_bound(12, Fraction(1, 12))
        rep = verify_matching_distribution(inst, [("p1", "b1")])
        assert rep.per_player["p2"] == Fraction(11, 12) + Fraction(1, 4) == Fraction(7, 6)
        assert rep.meets_target

    def test_unconditioned_formula(self):
        inst = build_lower_bound(9, Fraction(1, 3))
        rep = verify_matching_distribution(inst)
        assert rep.min_value == Fraction(9, 10) + 1

    def test_max_conditioning_still_meets_target(self):
        for k, eps in [(12, Fraction(1, 12)), (9, Fraction(1, 3)), (6, Fraction(1, 6))]:
            inst = build_lower_bound(k, eps)
            c = int(eps * k)
            pairs = [(f"p{i+1}", f"b{i+1}") for i in range(c)]
            rep = verify_matching_distribution(inst, pairs)
            assert rep.meets_target, (k, eps)
            assert rep.min_value == Fraction((1 - eps) * k,
                                             1 + (1 - eps) * k) + 3 * eps

    def test_monotone_in_conditioning(self):
        # the unconditioned players' guarantee strictly shrinks with every
        # extra fixed pair, but never below the target
        inst = build_lower_bound(9, Fraction(1, 3))
        last = None
        for c in range(int(Fraction(1, 3) * 9) + 1):
            pairs = [(f"p{i+1}", f"b{i+1}") for i in range(c)]
            rep = verify_matching_distribution(inst, pairs)
            unconditioned = rep.per_player[f"p{9 + 1}"]
            if last is not None:
                assert unconditioned < last
            assert unconditioned >= 1
            last = unconditioned

    def test_too_much_conditioning_rejected(self):
        inst = build_lower_bound(6, Fraction(1, 6))
        with pytest.raises(ValueError):
            verify_matching_distribution(inst, [("p1", "b1"), ("p2", "b2")])

    def test_inconsistent_pairs_rejected(self):
        inst = build_lower_bound(12, Fraction(1, 12))
        with pytest.raises(ValueError):
            verify_matching_distribution(inst, [("p1", "s1")])

    def test_oracle_agreement_small_k(self):
        for k, eps, pairs in [(4, Fraction(1, 4), ()),
                              (4, Fraction(1, 4), (("p1", "b1"),)),
                              (3, Fraction(1, 3), (("p2", "b3"),))]:
            inst = build_lower_bound(k, eps)
            rep = verify_matching_distribution(inst, pairs)
            oracle = matching_value_oracle(k, eps, pairs)
            for p in inst.players:
                assert oracle[p] == rep.per_player[p], (k, p)


class TestIntegralOptimum:
    @pytest.mark.parametrize("k,eps", [(3, Fraction(1, 3)), (4, Fraction(1, 4)),
                                       (6, Fraction(1, 6))])
    def test_optimum_is_three_eps(self, k, eps):
        inst = build_lower_bound(k, eps)
        opt, assign = integral_optimum(inst)
        assert opt == 3 * eps
        values = assignment_values(inst, assign)
        assert min(values.values()) == opt


class TestCanonicalize:
    def test_single_player_split(self):
        from mmda_lab.restricted import RAInstance
        base = RAInstance(("p1",), {"r1": Fraction(2)}, {"p1": frozenset({"r1"})},
                          Fraction(1))
        canon = canonicalize(base, Fraction(1), Fraction(1))
        assert len(canon.players) == 2
        assert canon.values[("c", "p1")] == 1
        assert canon.values["r1"] == 1          # raised big
        assert "r1" in canon.bigs

    def test_small_only_player(self):
        from mmda_lab.restricted import RAInstance
        base = RAInstance(("p1",), {"r1": Fraction(1, 2)},
                          {"p1": frozenset({"r1"})}, Fraction(1))
        canon = canonicalize(base, Fraction(1), Fraction(1))
        ps, pb = canon.split["p1"]
        assert canon.eligibility[pb] == frozenset({("c", "p1")})
        assert canon.eligibility[ps] == frozenset({("c", "p1"), "r1"})

    def test_player_count_doubles(self):
        inst = build_lower_bound(6, Fraction(1, 6))
        canon = canonicalize(inst, Fraction(1), Fraction(1))
        assert len(canon.players) == 2 * len(inst.players)

    def test_round_trip_preserves_value(self):
        inst = build_lower_bound(4, Fraction(1, 4))
        opt, assign = integral_optimum(inst)
        canon = canonicalize(inst, Fraction(1), opt)
        lifted = original_to_canonical_solution(inst, canon, assign)
        vals = assignment_values(canon, lifted)
        assert min(vals.values()) >= opt
        back = canonical_to_original_solution(canon, lifted)
        assert min(assignment_values(inst, back).values()) >= opt


class TestDaviesMapping:
    def test_integral_lift_passes(self):
        # 0/1 lift of an integral assignment satisfies everything
        inst = build_lower_bound(3, Fraction(1, 3))
        opt, assign = integral_optimum(inst)
        canon = canonicalize(inst, Fraction(1), opt)
        lifted = original_to_canonical_solution(inst, canon, assign)
        singles = {}
        pairs = {}
        for r, holder in lifted.items():
            singles[(holder, r)] = Fraction(1)
        for p in canon.players:
            bigs = [r for r in canon.eligibility[p] if r in canon.bigs]
            if len(bigs) != 1:
                continue
            b = bigs[0]
            for s in canon.eligibility[p]:
                if s in canon.bigs:
                    continue
                joint = Fraction(1) if (singles.get((p, s)) and singles.get((p, b))) \
                    else Fraction(0)
                pairs[(p, s)] = joint
        y = SAWitness(singles, pairs)
        _, rep = map_sa1_to_davies(canon, y)
        assert rep.ok

    def test_product_lift_has_slack(self):
        # independent-lift pair values keep the third constraint slack
        canon, y = matching_lift(6, Fraction(1, 6), alpha=Fraction(7))
        x, rep = map_sa1_to_davies(canon, y)
        assert rep.ok

    def test_true_product_lift_small_vs_big(self):
        # y_pair = y_s * y_b on a one-player canonical instance: the
        # mapped small value is y_s (1 - y_b) and the third constraint
        # holds with slack
        from mmda_lab.restricted import RAInstance
        base = RAInstance(("p1",), {"big": Fraction(1), "small": Fraction(1, 2)},
                          {"p1": frozenset({"big", "small"})}, Fraction(1))
        canon = canonicalize(base, Fraction(1), Fraction(1))
        ps, pb = canon.split["p1"]
        c = canon.coupling["p1"]
        p_s, p_b = Fraction(4, 5), Fraction(3, 5)
        y = SAWitness({(ps, "small"): p_s, (ps, c): p_b,
                       (pb, "big"): Fraction(1, 2), (pb, c): Fraction(1, 2)},
                      {(ps, "small"): p_s * p_b})
        x, rep = map_sa1_to_davies(canon, y)
        assert x[(ps, "small")] == p_s * (1 - p_b)
        room = 1 - x[(ps, c)]
        assert x[(ps, "small")] < room   # strict slack

    def test_matching_lift_zero_violations(self):
        for k, eps in [(12, Fraction(1, 12)), (9, Fraction(1, 3)),
                       (6, Fraction(1, 6))]:
            alpha = Fraction(1, 3 * eps) + 1
            canon, y = matching_lift(k, eps, alpha=alpha)
            _, rep = map_sa1_to_davies(canon, y)
            assert rep.ok, (k, eps)

    def test_alpha_one_lift_is_caught(self):
        # with the unit resources on the big side the one-round witness
        # cannot pretend value 1; the mapping must report violations
        canon, y = matching_lift(12, Fraction(1, 12), alpha=Fraction(1))
        _, rep = map_sa1_to_davies(canon, y)
        assert not rep.ok

    def test_witness_gate(self):
        canon, _ = matching_lift(6, Fraction(1, 6), alpha=Fraction(7))
        ps = canon.split["p1"][0]
        bad = SAWitness({(ps, "s1"): Fraction(1, 2),
                         (ps, ("c", "p1")): Fraction(0)},
                        {(ps, "s1"): Fraction(3, 4)})
        with pytest.raises(ValueError):
            map_sa1_to_davies(canon, bad)
