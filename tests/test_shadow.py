import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from mmda_lab.instances import (build_mmda, build_subtree_counterexample,
                                make_params)
from mmda_lab.relaxations import (LayerSolution, SparseSolution, SubtreeFamily,
                                  assignment_solution)
from mmda_lab.scalars import as_fraction
from mmda_lab.shadow import (SEED_LIMIT, ConditionEvent, CounterexampleFamily,
                             EmpiricalReport, IndependentFamily, ShadowModel,
                             _event_moments, conditional_report, counterexample_shadow_model,
                             draw_one, independent_model, sa1_certificate,
                             sample, shadow_model, two_layer_rounding_control)


def oracle_joint(model, ea, eb):
    """P[ea and eb active] by direct enumeration of trigger outcomes.

    Given the shadow set, the two activations are independent products,
    so summing over all shadow subsets of the relevant triggers is an
    exact computation that shares nothing with the engine's algebra.
    """
    ta, tb = model.triggers_of(ea), model.triggers_of(eb)
    triggers = sorted(set(ta) | set(tb))
    total = Fraction(0)
    for r in range(len(triggers) + 1):
        for chosen in combinations(triggers, r):
            p = Fraction(1)
            for f in triggers:
                xf = model.x_of(f)
                p *= xf if f in chosen else 1 - xf
            miss_a = math.prod((1 - ta.get(f, Fraction(0)) for f in chosen),
                               start=Fraction(1))
            miss_b = math.prod((1 - tb.get(f, Fraction(0)) for f in chosen),
                               start=Fraction(1))
            total += p * (1 - miss_a) * (1 - miss_b)
    return total


def oracle_multiplicity_joint(model, e, e1):
    """E[n_e * 1(e1 active)] by the same direct enumeration."""
    te, t1 = model.triggers_of(e), model.triggers_of(e1)
    triggers = sorted(set(te) | set(t1))
    total = Fraction(0)
    for r in range(len(triggers) + 1):
        for chosen in combinations(triggers, r):
            p = Fraction(1)
            for f in triggers:
                xf = model.x_of(f)
                p *= xf if f in chosen else 1 - xf
            mean_n = sum((te.get(f, Fraction(0)) for f in chosen), Fraction(0))
            if e == e1:
                total += p * mean_n
                continue
            hit_1 = 1 - math.prod((1 - t1.get(f, Fraction(0)) for f in chosen),
                                  start=Fraction(1))
            total += p * mean_n * hit_1
    return total


def hand_moments(model, ev):
    """Every edge's conditional probability straight from the model, and
    the per-vertex out- and in-sums of those values."""
    cond = {e: model.conditional_probability(e, ev) for e in model.inst.all_edges()}
    v_out, v_in = {}, {}
    for (u, v), p in cond.items():
        v_out[u] = v_out.get(u, Fraction(0)) + p
        v_in[v] = v_in.get(v, Fraction(0)) + p
    return cond, v_out, v_in


def assert_report_matches_hand_sums(model, ev):
    inst = model.inst
    mr = conditional_report(model, ev)
    cond, v_out, v_in = hand_moments(model, ev)
    assert mr.conditional == cond
    assert set(mr.vertex_out) == {v for i in range(inst.ell) for v in inst.vertices(i)}
    assert set(mr.vertex_in) == {v for i in range(1, inst.ell + 1) for v in inst.vertices(i)}
    for v, total in mr.vertex_out.items():
        assert total == v_out.get(v, Fraction(0)), (ev.label(), v)
    for v, total in mr.vertex_in.items():
        assert total == v_in.get(v, Fraction(0)), (ev.label(), v)


def oracle_sample(model, seed, n_samples, rounds=1, events=None):
    """The sampler as one numpy draw per trigger, in shadow order: the
    reference for the batched stream."""
    edges = list(model.inst.all_edges())
    index = {e: i for i, e in enumerate(edges)}
    n_edges = len(edges)
    thresholds = np.array([float(model.x_of(e)) for e in edges])
    supp_idx, supp_p = [], []
    for f in edges:
        pairs = [(index[e], float(val)) for e, val in model.family.support(f)]
        supp_idx.append(np.array([i for i, _ in pairs], dtype=np.int64))
        supp_p.append(np.array([p for _, p in pairs]))
    events = events or []
    counts = np.zeros(n_edges, dtype=np.int64)
    mult_sums = np.zeros(n_edges, dtype=np.int64)
    event_counts = {ev.label(): 0 for ev in events}
    event_joint = np.zeros((len(events), n_edges), dtype=np.int64)
    for i in range(n_samples):
        gen = np.random.Generator(np.random.Philox(key=[seed, i]))
        shadows = np.flatnonzero(gen.random(n_edges) < thresholds)
        mult = np.zeros(n_edges, dtype=np.int32)
        for _ in range(rounds):
            nxt = np.zeros(n_edges, dtype=np.int32)
            for f_idx in shadows:
                hits = gen.random(len(supp_idx[f_idx])) < supp_p[f_idx]
                np.add.at(nxt, supp_idx[f_idx][hits], 1)
            mult = nxt
            shadows = np.flatnonzero(nxt)
        present = mult > 0
        counts += present
        mult_sums += mult
        for j, ev in enumerate(events):
            if bool(present[index[ev.edge]]) == ev.positive:
                event_counts[ev.label()] += 1
                event_joint[j] += present
    joint = {(ev.label(), e): int(event_joint[j][index[e]])
             for j, ev in enumerate(events) for e in edges if event_joint[j][index[e]]}
    return ({e: int(counts[index[e]]) for e in edges},
            {e: int(mult_sums[index[e]]) for e in edges}, event_counts, joint)


def oracle_draw(model, seed, index):
    """One round-1 sample as one numpy draw per trigger, in shadow order:
    its shadow, each trigger's activation set and the multiplicities."""
    edges = list(model.inst.all_edges())
    gen = np.random.Generator(np.random.Philox(key=[seed, index]))
    u = gen.random(len(edges))
    shadow = [f for f, x in zip(edges, u) if x < float(model.x_of(f))]
    triggered, multiplicity = {}, {}
    for f in shadow:
        support = list(model.family.support(f))
        hits = gen.random(len(support)) < np.array([float(v) for _, v in support])
        triggered[f] = frozenset(e for (e, _), h in zip(support, hits) if h)
        for (e, _), h in zip(support, hits):
            if h:
                multiplicity[e] = multiplicity.get(e, 0) + 1
    return frozenset(shadow), triggered, multiplicity


class OrbitWalk:
    """The orbit-keyed vertex walk: every vertex and edge is visited and
    keyed by its layer and the Venn atom sizes of its labels against the
    event's (A, B); each key is evaluated once, at the first edge met, and
    a vertex's sums group its edges by key.  The reference for the class
    engine, which enumerates the same classes without walking."""

    def __init__(self, model, event):
        self.model, self.event = model, event
        inst = model.inst
        label = inst.label
        cells = [(1 << inst.params.m) - 1]
        for s in (label(event.edge[0]), label(event.edge[1])) if event else ():
            cells = [c & s for c in cells] + [c & ~s for c in cells]

        def sizes(*sets):
            atoms = cells
            for s in sets:
                atoms = [c & s for c in atoms] + [c & ~s for c in atoms]
            return tuple(c.bit_count() for c in atoms)

        self.edge_key = lambda e: (e[1][0], sizes(label(e[0]), label(e[1])))
        self.vertex_key = lambda v: (v[0], sizes(label(v)))
        self._edge, self._vertex = {}, {}

    def _value(self, key, e):
        if key not in self._edge:
            self._edge[key] = (self.model.marginal(e) if self.event is None else
                               self.model.conditional_probability(e, self.event))
        return self._edge[key]

    def edge(self, e):
        return self._value(self.edge_key(e), e)

    def _sum(self, edges):
        reps = {}
        for e in edges:
            key = self.edge_key(e)
            n, rep = reps.get(key, (0, e))
            reps[key] = (n + 1, rep)
        return sum((n * self._value(key, e) for key, (n, e) in reps.items()), Fraction(0))

    def vertex(self, v):
        key = self.vertex_key(v)
        if key not in self._vertex:
            inst = self.model.inst
            self._vertex[key] = (self._sum((u, v) for u in inst.in_neighbors(v)),
                                 self._sum((v, w) for w in inst.out_neighbors(v)))
        return self._vertex[key]

    def first_vertices(self):
        """(v, (in-sum, out-sum)) for the first vertex of each class in
        (layer, rank) order."""
        inst, seen, out = self.model.inst, set(), []
        for i in range(inst.ell + 1):
            for v in inst.vertices(i):
                key = self.vertex_key(v)
                if key not in seen:
                    seen.add(key)
                    out.append((v, self.vertex(v)))
        return out


def walk_sa1(model, events):
    """sa1_certificate's extremes and worst locations over the walk."""
    inst = model.inst
    min_cov = max_pack = worst_cov = worst_pack = None
    for ev in events:
        for v, (pack, out) in OrbitWalk(model, ev).first_vertices():
            inflow = Fraction(1) if v == inst.source else pack
            if v[0] < inst.ell and inflow > 0:
                slack = out / (as_fraction(inst.k_of(v)) * inflow)
                if min_cov is None or slack < min_cov:
                    min_cov, worst_cov = slack, (ev.label(), v)
            if v != inst.source and (max_pack is None or pack > max_pack):
                max_pack, worst_pack = pack, (ev.label(), v)
    return min_cov, max_pack, worst_cov, worst_pack


def class_first_vertices(model, event):
    moments = _event_moments(model, event)
    return [pair for i in range(model.inst.ell + 1) for pair in moments.first_vertices(i)]


def layer_events(inst):
    """A positive and a negative event on the first edge into every layer."""
    return [ConditionEvent(next(iter(inst.edges_into_layer(i))), sign)
            for i in range(1, inst.ell + 1) for sign in (True, False)]


def assert_sample_matches_oracle(model, seed, n_samples, rounds=1):
    events = layer_events(model.inst)
    emp = sample(model, seed=seed, n_samples=n_samples, rounds=rounds, events=events)
    counts, mult_sums, event_counts, joint = oracle_sample(
        model, seed=seed, n_samples=n_samples, rounds=rounds, events=events)
    assert emp.counts == counts
    assert emp.mult_sums == mult_sums
    assert emp.event_counts == event_counts
    assert emp.event_joint == joint


class TestMarginals:
    def test_first_layer_marginal_is_x(self, inst8, model8):
        for v in list(inst8.vertices(1))[:6]:
            assert model8.marginal((inst8.source, v)) == Fraction(1, 15)

    def test_middle_layer_two_trigger_product(self, inst8, model8):
        w = inst8.out_neighbors((1, 0))[0]
        assert model8.marginal(((1, 0), w)) == 1 - (1 - Fraction(1, 90)) ** 2

    def test_bottom_ancestor_sum_identity(self, inst8, model8):
        # the first-layer triggers contribute exactly x_e in expectation
        for w in list(inst8.vertices(2))[:4]:
            for t in inst8.out_neighbors(w)[:2]:
                terms = model8.triggers_of((w, t))
                l1 = sum((model8.x_of(f) * val for f, val in terms.items()
                          if f[1][0] == 1), Fraction(0))
                assert l1 == Fraction(1, 15)

    def test_bounds_every_edge(self, inst8, model8):
        for e in inst8.all_edges():
            x, s = model8.x_of(e), model8.marginal(e)
            assert x <= s <= 6 * x

    def test_reversal_bound_every_edge(self, inst8, model8):
        for e in inst8.all_edges():
            assert model8.x_of(e) / model8.marginal(e) >= Fraction(1, 6)


class TestPairProbability:
    def test_degenerate_pair(self, inst8, model8):
        e = ((0, 0), (1, 2))
        assert model8.pair_probability(e, e) == model8.marginal(e)

    def test_disjoint_cones_factorize(self, inst8, model8):
        e, f = ((0, 0), (1, 0)), ((0, 0), (1, 27))
        assert model8.pair_probability(e, f) == \
            model8.marginal(e) * model8.marginal(f)

    def test_single_trigger_lower_bound(self, inst8, model8):
        e1 = ((0, 0), (1, 0))
        w = inst8.out_neighbors((1, 0))[0]
        e = ((1, 0), w)
        assert model8.pair_probability(e, e1) >= Fraction(1, 15) * Fraction(1, 6)

    def test_frechet_bounds_sampled(self, inst8, model8):
        import random
        rng = random.Random(1)
        edges = list(inst8.all_edges())
        for _ in range(60):
            e1, e2 = rng.choice(edges), rng.choice(edges)
            p = model8.pair_probability(e1, e2)
            s1, s2 = model8.marginal(e1), model8.marginal(e2)
            assert max(Fraction(0), s1 + s2 - 1) <= p <= min(s1, s2)

    def test_symmetry(self, inst8, model8):
        w = inst8.out_neighbors((1, 0))[0]
        t = inst8.out_neighbors(w)[0]
        a, b = ((1, 0), w), (w, t)
        assert model8.pair_probability(a, b) == model8.pair_probability(b, a)


class TestOracleAgreement:
    def test_joint_probability_m4(self, inst4, model4):
        w = inst4.out_neighbors((1, 0))[0]
        t = inst4.out_neighbors(w)[0]
        cases = [(((0, 0), (1, 0)), (w, t)),
                 (((1, 0), w), (w, t)),
                 (((0, 0), (1, 0)), ((1, 0), w)),
                 (((0, 0), (1, 1)), (w, t))]
        for ea, eb in cases:
            assert oracle_joint(model4, ea, eb) == \
                model4.pair_probability(ea, eb), (ea, eb)

    def test_multiplicity_m4(self, inst4, model4):
        w = inst4.out_neighbors((1, 0))[0]
        t = inst4.out_neighbors(w)[0]
        for e, e1 in [((w, t), ((0, 0), (1, 0))), ((w, t), (w, t)),
                      (((1, 0), w), ((0, 0), (1, 0)))]:
            ev = ConditionEvent(e1, True)
            expected = oracle_multiplicity_joint(model4, e, e1) / model4.marginal(e1)
            assert model4.expected_multiplicity(e, ev) == expected, (e, e1)

    def test_unconditioned_multiplicity_bound(self, inst8, model8):
        # bottom edges: x + x + x = 3x < 2
        for w in list(inst8.vertices(2))[:3]:
            t = inst8.out_neighbors(w)[0]
            n = model8.expected_multiplicity((w, t))
            assert n == 3 * Fraction(1, 15)
            assert n < 2


class TestFamilyProtocol:
    @pytest.mark.parametrize("kind,size", [
        ("independent", 4), ("subtree", 4), ("subtree", 8),
        ("counterexample", 2), ("counterexample", 3)])
    def test_support_and_triggers_are_transposes(self, kind, size):
        if kind == "counterexample":
            fam = CounterexampleFamily(build_subtree_counterexample(size))
        else:
            inst = build_mmda(make_params(size, Fraction(1, 4)))
            fam = IndependentFamily(inst) if kind == "independent" \
                else SubtreeFamily(inst)
        edges = list(fam.inst.all_edges())
        by_support = [((f, e), val) for f in edges for e, val in fam.support(f)]
        by_trigger = [((f, e), val) for e in edges for f, val in fam.triggers_of(e)]
        assert len(by_support) == len(by_trigger)
        assert len(dict(by_support)) == len(by_support)
        assert dict(by_support) == dict(by_trigger)


class TestConditionalReports:
    def test_positive_event_boosts_children(self, inst8, model8):
        e1 = ((0, 0), (1, 0))
        mr = conditional_report(model8, ConditionEvent(e1, True))
        out = sum((mr.conditional[((1, 0), w)]
                   for w in inst8.out_neighbors((1, 0))), Fraction(0))
        # the trigger fires with probability >= 1/6 and then supplies k_1
        assert out >= Fraction(1, 6) * Fraction(5, 2)

    def test_negative_event_only_decreases(self, inst8, model8):
        e1 = ((0, 0), (1, 0))
        mr = conditional_report(model8, ConditionEvent(e1, False))
        for e, p in mr.conditional.items():
            assert p <= model8.marginal(e)

    def test_multiplicity_dominates_probability(self, inst8, model8):
        ev = ConditionEvent(((0, 0), (1, 0)), True)
        mr = conditional_report(model8, ev)
        for e in list(mr.conditional)[:50]:
            assert model8.expected_multiplicity(e, ev) >= mr.conditional[e]

    def test_zero_probability_event_rejected(self, inst8):
        sol = assignment_solution(inst8)
        model = independent_model(inst8, sol)
        dead = SparseSolution(inst8, {})
        m2 = ShadowModel(inst8, dead, IndependentFamily(inst8))
        with pytest.raises(Exception):
            m2.conditional_probability(((0, 0), (1, 1)),
                                       ConditionEvent(((0, 0), (1, 0)), True))


class TestNegativeControls:
    def test_independent_covering_slack_is_x(self, inst8):
        model = independent_model(inst8)
        e1 = ((0, 0), (1, 0))
        mr = conditional_report(model, ConditionEvent(e1, True))
        out = sum((mr.conditional[((1, 0), w)]
                   for w in inst8.out_neighbors((1, 0))), Fraction(0))
        slack = out / (Fraction(5, 2) * mr.conditional[e1])
        assert slack == Fraction(1, 15)

    @pytest.mark.parametrize("m,slack,passed", [(8, Fraction(6, 95), True),
                                                (12, Fraction(20, 1699), True),
                                                (16, Fraction(70, 34719), False)])
    def test_independent_control_under_the_cli_gates(self, m, slack, passed):
        # with the fixed sa1-report gates the control passes up to m=12;
        # only at m=16 does its slack fall below the floor of 1/100
        from mmda_lab.cli import SA1_CEILING, SA1_FLOOR
        inst = build_mmda(make_params(m, Fraction(1, 4)))
        res = sa1_certificate(independent_model(inst), SA1_FLOOR, SA1_CEILING,
                              events=layer_events(inst))
        assert res.events_checked == 6
        assert res.min_covering_slack == slack
        assert res.worst_covering == ("+1.0>2.0", (2, 0))
        assert res.passed is passed

    def test_two_layer_control_values(self, inst8):
        ctl = two_layer_rounding_control(inst8)
        assert ctl.per_edge_bound == Fraction(1, 6)
        assert ctl.bound_sum == Fraction(15, 6)
        assert ctl.exact_per_edge >= ctl.per_edge_bound
        assert ctl.exact_sum >= ctl.bound_sum


def check_no_edge_dominates(model):
    """Largest single-edge share of a triggered expected out-degree.

    For each trigger f and each vertex v in its activation cone, compares
    the biggest per-edge activation value against the expected out-degree
    E[|delta+(v) cap S_f|]; tau is the worst ratio. Returns tau, the binding
    (f, v) and the worst ratio per trigger layer.
    """
    tau, binding, per_layer = Fraction(0), None, {}
    for f in model.inst.all_edges():
        by_vertex = {}
        for e, val in model.family.support(f):
            if e != f:
                by_vertex.setdefault(e[0], []).append(val)
        for v, vals in by_vertex.items():
            ratio = max(vals) / sum(vals, Fraction(0))
            layer = f[1][0]
            if ratio > per_layer.get(layer, Fraction(0)):
                per_layer[layer] = ratio
            if ratio > tau:
                tau, binding = ratio, (f, v)
    return tau, binding, per_layer


class TestDominance:
    def test_binding_case(self, inst8, model8):
        tau, (f, v), _ = check_no_edge_dominates(model8)
        assert tau == Fraction(15, 28)
        assert f[1][0] == 1 and v[0] == 2

    def test_middle_trigger_uniform(self, inst8, model8):
        assert check_no_edge_dominates(model8)[2][2] == Fraction(1, 6)

    def test_bottom_triggers_vacuous(self, inst8, model8):
        assert 3 not in check_no_edge_dominates(model8)[2]


class TestSingleDraw:
    def test_reproducible(self, model8):
        from mmda_lab.shadow import draw_one
        a = draw_one(model8, seed=3, index=0)
        b = draw_one(model8, seed=3, index=0)
        assert a.shadow == b.shadow and a.multiplicity == b.multiplicity

    def test_structure(self, model8):
        from mmda_lab.shadow import draw_one
        s = draw_one(model8, seed=1, index=4)
        assert s.active == frozenset().union(*s.triggered.values()) \
            if s.triggered else s.active == frozenset()
        for f, got in s.triggered.items():
            assert f in s.shadow
            assert f in got     # x_e^{(e)} = 1: a trigger activates itself
        for e, n in s.multiplicity.items():
            assert n == sum(1 for got in s.triggered.values() if e in got)

    def test_agrees_with_aggregate_stream(self, model8):
        from mmda_lab.shadow import draw_one
        n = 40
        agg = sample(model8, seed=12, n_samples=n)
        counts = {}
        for i in range(n):
            s = draw_one(model8, seed=12, index=i)
            for e in s.active:
                counts[e] = counts.get(e, 0) + 1
        assert counts == {e: c for e, c in agg.counts.items() if c}


class TestSampling:
    def test_reproducible(self, model8):
        a = sample(model8, seed=5, n_samples=300)
        b = sample(model8, seed=5, n_samples=300)
        assert a.counts == b.counts and a.mult_sums == b.mult_sums

    def test_seed_changes_results(self, model8):
        a = sample(model8, seed=5, n_samples=300)
        b = sample(model8, seed=6, n_samples=300)
        assert a.counts != b.counts

    def test_iterated_rounds_run(self, model8):
        emp = sample(model8, seed=1, n_samples=50, rounds=2)
        assert emp.rounds == 2
        assert all(v >= 0 for v in emp.counts.values())

    def test_marginals_within_five_se(self, inst8, model8):
        emp = sample(model8, seed=11, n_samples=4000)
        edges = [((0, 0), (1, 0)),
                 ((1, 0), inst8.out_neighbors((1, 0))[0])]
        for e in edges:
            assert emp.marginal_deviation(e, float(model8.marginal(e))) <= 5

    def test_deviation_in_exact_standard_errors(self, inst4):
        e, f = list(inst4.all_edges())[:2]
        emp = EmpiricalReport(100, 0, 1, {e: 0, f: 100}, {e: 0, f: 100}, {}, {}, [e, f])
        assert emp.marginal_deviation(e, 0.25) == 0.25 / math.sqrt(0.25 * 0.75 / 100)
        # an exact marginal of 0 or 1 leaves no room: equal or infinitely off
        assert emp.marginal_deviation(e, 0.0) == 0.0
        assert emp.marginal_deviation(f, 1.0) == 0.0
        assert emp.marginal_deviation(e, 1.0) == math.inf
        assert emp.marginal_deviation(f, 0.0) == math.inf

    def test_conditional_deviation_in_exact_standard_errors(self, inst4):
        e, f = list(inst4.all_edges())[:2]
        emp = EmpiricalReport(100, 0, 1, {e: 0, f: 100}, {e: 0, f: 100},
                              {"ev": 40, "never": 0}, {("ev", f): 40}, [e, f])
        # over the event's 40 occurrences: e never hit, f always
        assert emp.conditional_deviation("ev", e, 0.25) == 0.25 / math.sqrt(0.25 * 0.75 / 40)
        assert emp.conditional_deviation("ev", f, 0.5) == 0.5 / math.sqrt(0.5 * 0.5 / 40)
        assert emp.conditional_deviation("ev", e, 0.0) == 0.0
        assert emp.conditional_deviation("ev", f, 1.0) == 0.0
        assert emp.conditional_deviation("ev", e, 1.0) == math.inf
        assert emp.conditional_deviation("ev", f, 0.0) == math.inf
        assert emp.conditional_deviation("never", e, 0.25) is None

    def test_empirical_multiplicity_tracks_3x(self, inst8, model8):
        # bottom edges have E[n_e] = 3 x_e exactly; the sample mean should
        # sit within a few standard errors of 0.2
        emp = sample(model8, seed=13, n_samples=4000)
        w = inst8.out_neighbors((1, 0))[0]
        t = inst8.out_neighbors(w)[0]
        mean = emp.mean_multiplicity((w, t))
        assert abs(mean - 0.2) <= 0.05


class TestSa1Certificate:
    def test_representative_events_pass_at_recorded_levels(self, inst8, model8):
        events = []
        for i in range(1, 4):
            e = next(iter(inst8.edges_into_layer(i)))
            events += [ConditionEvent(e, True), ConditionEvent(e, False)]
        res = sa1_certificate(model8, Fraction(1, 7), Fraction(4), events=events)
        assert res.passed
        assert res.events_checked == 6 and res.events_skipped == 0
        assert res.min_covering_slack > Fraction(1, 7)
        assert res.max_packing_sum < 4

    def test_impossible_floor_fails(self, inst8, model8):
        e = next(iter(inst8.edges_into_layer(1)))
        res = sa1_certificate(model8, Fraction(2), Fraction(4),
                              events=[ConditionEvent(e, True)])
        assert not res.passed


class TestOrbitQuotient:
    """The engine evaluates one edge and one vertex per orbit class of the
    event's stabiliser; every value must equal the direct per-edge sum."""

    def test_two_events_per_class_m8(self, inst8, model8):
        rng = random.Random(8)
        for i in range(1, inst8.ell + 1):
            layer = list(inst8.edges_into_layer(i))
            for positive in (True, False):
                for e in rng.sample(layer, 2):
                    assert_report_matches_hand_sums(model8, ConditionEvent(e, positive))

    def test_one_positive_event_per_layer_m12(self, inst12):
        model = shadow_model(inst12)
        rng = random.Random(12)
        for i in range(1, inst12.ell + 1):
            e = rng.choice(list(inst12.edges_into_layer(i)))
            assert_report_matches_hand_sums(model, ConditionEvent(e, True))

    @pytest.mark.parametrize("k", [2, 3])
    def test_identity_keys_on_shared_sink_model(self, k):
        model = counterexample_shadow_model(build_subtree_counterexample(k))
        for e in model.inst.all_edges():
            assert_report_matches_hand_sums(model, ConditionEvent(e, True))
            if model.survival(e) != 0:
                assert_report_matches_hand_sums(model, ConditionEvent(e, False))

    def test_identity_keys_on_sparse_base_solution(self, inst4):
        edges = list(inst4.all_edges())
        x = SparseSolution(inst4, {e: Fraction(1, 2 + i % 5)
                                   for i, e in enumerate(edges) if i % 3})
        model = independent_model(inst4, x)
        for e in edges[::4]:
            if model.marginal(e) != 0:
                assert_report_matches_hand_sums(model, ConditionEvent(e, True))
            assert_report_matches_hand_sums(model, ConditionEvent(e, False))

    def test_unconditioned_report_is_the_marginals(self, inst8, model8):
        mr = conditional_report(model8, None)
        assert mr.conditional == mr.marginals
        assert mr.marginals == {e: model8.marginal(e) for e in inst8.all_edges()}


class TestClassEngine:
    """The class engine against the orbit-keyed walk: the same classes,
    first vertices, exact sums and sa1 extremes."""

    def test_every_vertex_and_edge_m8(self, inst8, model8):
        for ev in [None, *layer_events(inst8)]:
            mr = conditional_report(model8, ev)
            walk = OrbitWalk(model8, ev)
            assert mr.conditional == {e: walk.edge(e) for e in inst8.all_edges()}
            assert mr.vertex_in == {v: walk.vertex(v)[0] for v in mr.vertex_in}
            assert mr.vertex_out == {v: walk.vertex(v)[1] for v in mr.vertex_out}

    @pytest.mark.parametrize("m", [8, 12, 16])
    def test_classes_and_extremes(self, m):
        model = shadow_model(build_mmda(make_params(m, Fraction(1, 4))))
        events = layer_events(model.inst)
        for ev in events:
            assert class_first_vertices(model, ev) == OrbitWalk(model, ev).first_vertices()
        res = sa1_certificate(model, Fraction(1, 100), Fraction(8), events=events)
        assert (res.min_covering_slack, res.max_packing_sum,
                res.worst_covering, res.worst_packing) == walk_sa1(model, events)

    def test_deep_independent_model(self, inst8_deep):
        # ell=6: labels grow for four layers and shrink for two; the
        # assignment values are irrational here, so the base is rational
        x = LayerSolution(inst8_deep, [None, *(Fraction(1, i + 1) for i in range(1, 7))])
        model = independent_model(inst8_deep, x)
        for ev in layer_events(inst8_deep)[::3]:
            assert class_first_vertices(model, ev) == OrbitWalk(model, ev).first_vertices()

    def test_class_sizes_count_every_vertex(self, inst12):
        moments = _event_moments(shadow_model(inst12), layer_events(inst12)[2])
        for i in range(inst12.ell + 1):
            sizes = [math.prod(map(math.comb, moments.part.caps, ks))
                     for _, ks in moments.part.classes(i)]
            assert sum(sizes) == inst12.layer_size(i)

    def test_first_vertex_is_lowest_rank_of_its_class(self, inst8, model8):
        ev = layer_events(inst8)[4]
        moments, walk = _event_moments(model8, ev), OrbitWalk(model8, ev)
        first = {}
        for i in range(inst8.ell + 1):
            for v in inst8.vertices(i):
                first.setdefault(walk.vertex_key(v), v)
        assert sorted(first.values()) == [v for i in range(inst8.ell + 1)
                                          for v, _ in moments.first_vertices(i)]


class TestBatchedSampler:
    @pytest.mark.parametrize("rounds", [1, 2])
    def test_matches_per_trigger_oracle(self, inst8, model8, rounds):
        events = []
        for i in range(1, inst8.ell + 1):
            e = next(iter(inst8.edges_into_layer(i)))
            events += [ConditionEvent(e, True), ConditionEvent(e, False)]
        emp = sample(model8, seed=21, n_samples=300, rounds=rounds, events=events)
        counts, mult_sums, event_counts, joint = oracle_sample(
            model8, seed=21, n_samples=300, rounds=rounds, events=events)
        assert emp.counts == counts
        assert emp.mult_sums == mult_sums
        assert emp.event_counts == event_counts
        assert emp.event_joint == joint
        assert sum(event_counts.values()) > 300

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    @pytest.mark.parametrize("size", [4, 8])
    def test_block_boundaries_match_oracle(self, model4, model8, size, rounds):
        model = {4: model4, 8: model8}[size]
        b = model._support_arrays.block
        assert b > 1
        for n_samples in (1, b - 1, b, b + 1, 2 * b + 3):
            assert_sample_matches_oracle(model, 30 + rounds, n_samples, rounds)

    def test_largest_seed_matches_oracle(self, model4):
        assert_sample_matches_oracle(model4, SEED_LIMIT - 1, 50, rounds=2)

    @pytest.mark.parametrize("build", [
        lambda inst4: independent_model(inst4),
        lambda inst4: counterexample_shadow_model(build_subtree_counterexample(2))],
        ids=["independent", "shared-sink"])
    def test_other_supports_match_oracle(self, inst4, build):
        model = build(inst4)
        for rounds in (1, 2):
            assert_sample_matches_oracle(model, 5, 2 * model._support_arrays.block + 3,
                                         rounds)

    @pytest.mark.parametrize("size", [4, 8])
    def test_draw_one_is_its_row_of_the_block(self, model4, model8, size):
        model = {4: model4, 8: model8}[size]
        arrays = model._support_arrays
        n_samples = 2 * arrays.block + 3
        shadow, _, _, active = arrays.draw(17, 0, n_samples, rounds=1)
        edges = arrays.edges
        for i in range(n_samples):
            one = draw_one(model, 17, i)
            assert (one.shadow, one.triggered, one.multiplicity) == oracle_draw(model, 17, i)
            assert one.shadow == frozenset(edges[j] for j in np.flatnonzero(shadow[i]))
            assert one.active == frozenset(edges[j] for j in np.flatnonzero(active[i]))


class TestSeedRange:
    """A seed keys its streams exactly only below 2^63: larger seeds used to
    collide with others (2^64 - 1 drew the samples of seed 0)."""

    @pytest.mark.parametrize("seed", [-1, SEED_LIMIT, 2 ** 64 - 1])
    def test_out_of_range_rejected(self, model4, seed):
        with pytest.raises(ValueError, match="outside"):
            sample(model4, seed, 1)
        with pytest.raises(ValueError, match="outside"):
            draw_one(model4, seed, 0)
        with pytest.raises(ValueError, match="outside"):
            sample(model4, seed, 0)

    def test_largest_seed_accepted(self, model4):
        assert sample(model4, SEED_LIMIT - 1, 3).n_samples == 3
        assert draw_one(model4, SEED_LIMIT - 1, 2) == draw_one(model4, SEED_LIMIT - 1, 2)
