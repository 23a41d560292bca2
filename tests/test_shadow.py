import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import mmda_lab.shadow as shadow_module

from mmda_lab.instances import (Edge, InstanceError, LayeredInstance, Vertex, build_mmda,
                                build_subtree_counterexample, make_params, rank_colex)
from mmda_lab.relaxations import LayerSolution, SubtreeFamily, assignment_solution
from mmda_lab.scalars import Scalar, as_fraction
from mmda_lab.shadow import (SEED_LIMIT, ConditionEvent, EmpiricalReport, IndependentFamily,
                             ShadowModel, _event_moments, check_seed, conditional_report,
                             sa1_certificate, sample, shadow_model, support_entries)


# --- test-local references ---------------------------------------------------


def subtree_triggers(fam, e) -> dict:
    """The triggers f of e with x_e^{(f)} > 0, with their values, by the
    labels: the reference transpose of ``SubtreeFamily.support``."""
    inst = fam.inst
    label = inst.label
    out = {}
    layer = e[1][0]
    if layer == 2:
        out[(inst.source, e[0])] = Fraction(1, fam.c_small)
    elif layer == 3:
        w, t = e
        for v in inst.in_neighbors(w):
            out[(inst.source, v)] = fam.sink_split((label(t) & label(v)).bit_count())
            out[(v, w)] = Fraction(1)
    out[e] = Fraction(1)
    return out


def support_transpose(fam) -> dict:
    """{e: {f: x_e^{(f)}}} over every edge, read off ``fam.support``."""
    out = {}
    for f in fam.inst.all_edges():
        for e, val in fam.support(f):
            out.setdefault(e, {})[f] = val
    return out


class SparseSolution:
    """Edge values from a table; absent edges carry zero."""

    def __init__(self, inst: LayeredInstance, table: dict[Edge, Fraction]):
        self.inst = inst
        self.table = table

    def value(self, e: Edge) -> Scalar:
        return self.table.get(e, Fraction(0))


class CounterexampleFamily:
    """Relocated solutions on the shared-sink instance.

    A covered middle vertex routes all its demand through the public
    sinks; the private edges only activate themselves.  Under the shadow
    process the public edges then appear with probability 1/k while their
    base value is 0, which is exactly how the bounded-ratio property can
    fail even though every edge has a relocated solution.
    """

    def __init__(self, inst: LayeredInstance):
        self.inst = inst
        self.public = set(getattr(inst, "public_sinks", ()))

    def support(self, f: Edge):
        yield f, Fraction(1)
        if f[0] == self.inst.source:
            for t in self.inst.out_neighbors(f[1]):
                if t in self.public:
                    yield (f[1], t), Fraction(1)

    def value(self, f: Edge, e: Edge) -> Fraction:
        public_below = e[1] in self.public and f == (self.inst.source, e[0])
        return Fraction(f == e or public_below)


def counterexample_shadow_model(inst: LayeredInstance) -> ShadowModel:
    """Shadow model on the shared-sink counterexample; base values are 1/k
    on first-layer edges, 1 on private-sink edges, 0 on public edges."""
    k = int(as_fraction(inst.k_of(inst.source)))
    table = {}
    for v in inst.vertices(1):
        table[(inst.source, v)] = Fraction(1, k)
        for t in inst.out_neighbors(v):
            if t not in getattr(inst, "public_sinks", ()):
                table[(v, t)] = Fraction(1)
    x = SparseSolution(inst, table)
    return ShadowModel(inst, x, CounterexampleFamily(inst))


@dataclass
class TwoLayerControl:
    event_edge: Edge
    sink: Vertex
    per_edge_bound: Fraction
    bound_sum: Fraction
    exact_sum: Fraction
    exact_per_edge: Fraction


def two_layer_rounding_control(inst) -> TwoLayerControl:
    """Conditioned sink packing under the round-then-take-all process, the
    negative control.

    Layer-1 edges are kept with probability x_e, each covered layer-1
    vertex keeps each out-edge with probability 1/C(2rm, rm), and covered
    layer-2 vertices keep every out-edge.  Conditioning on a first-layer
    edge (s, v), the sink labeled like v has in-degree sum at least
    delta^- / C(2rm, rm), the product form below being exact.
    """
    if inst.params.epsilon != 1:
        raise InstanceError("control defined on the depth-3 instance")
    x1 = as_fraction(assignment_solution(inst).layer_values[1])
    c_small = math.comb(2 * inst.params.rho_m, inst.params.rho_m)
    v = (1, 0)
    e1 = (inst.source, v)
    t = (3, rank_colex(inst.label(v)))
    q = Fraction(1, c_small)
    # P[(u,t) in A | (s,v) kept]: u is covered unless every kept parent
    # dropped it; v is a parent of every such u since S_t = S_v
    exact = 1 - (1 - q) * (1 - x1 * q) ** (c_small - 1)
    dminus = inst.in_degree(t)
    return TwoLayerControl(e1, t, q, dminus * q, dminus * exact, exact)


@dataclass(frozen=True)
class ShadowSample:
    """One draw: the shadow set, each trigger's activation set, the active
    set (their union), and per-edge multiplicities."""

    shadow: frozenset
    triggered: dict             # trigger edge -> frozenset of activated edges
    active: frozenset
    multiplicity: dict          # edge -> activation count

    def __post_init__(self):
        assert self.active == frozenset(self.multiplicity)


def draw_one(model, seed: int, index: int = 0) -> ShadowSample:
    """The index-th sample of the stream used by ``sample``: a block of one."""
    check_seed(seed)
    arrays = model._support_arrays
    edges = arrays.edges
    shadow, pos, hit, _ = arrays.draw(seed, index, index + 1, rounds=1)
    shadow = np.flatnonzero(shadow[0])
    mult = np.bincount(arrays.indices[pos[hit]], minlength=len(edges))
    ends = np.cumsum(arrays.indptr[shadow + 1] - arrays.indptr[shadow])
    triggered = {}
    for f, p, h in zip(shadow, np.split(pos, ends[:-1]), np.split(hit, ends[:-1])):
        triggered[edges[f]] = frozenset(edges[i] for i in arrays.indices[p[h]])
    multiplicity = {edges[i]: int(mult[i]) for i in np.flatnonzero(mult)}
    return ShadowSample(frozenset(edges[f] for f in shadow), triggered,
                        frozenset(multiplicity), multiplicity)


def oracle_joint(model, ea, eb):
    """P[ea and eb active] by direct enumeration of trigger outcomes.

    Given the shadow set, the two activations are independent products,
    so summing over all shadow subsets of the relevant triggers is an
    exact computation that shares nothing with the engine's algebra.
    """
    ta, tb = subtree_triggers(model.family, ea), subtree_triggers(model.family, eb)
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
    te, t1 = subtree_triggers(model.family, e), subtree_triggers(model.family, e1)
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
        for j, ev in enumerate(events):
            if bool(present[index[ev.edge]]) == ev.positive:
                event_counts[ev.label()] += 1
                event_joint[j] += present
    joint = {(ev.label(), e): int(event_joint[j][index[e]])
             for j, ev in enumerate(events) for e in edges if event_joint[j][index[e]]}
    return {e: int(counts[index[e]]) for e in edges}, event_counts, joint


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
    """The class engine's first vertices with their joint sums divided by
    P[event]: the conditional sums the walk computes edge by edge."""
    moments, p = _event_moments(model, event), model.event_probability(event)
    return [(v, (ins / p, outs / p)) for i in range(model.inst.ell + 1)
            for v, (ins, outs) in moments.first_vertices(i)]


def layer_events(inst):
    """A positive and a negative event on the first edge into every layer."""
    return [ConditionEvent(next(iter(inst.edges_into_layer(i))), sign)
            for i in range(1, inst.ell + 1) for sign in (True, False)]


def assert_sample_matches_oracle(model, seed, n_samples, rounds=1):
    events = layer_events(model.inst)
    emp = sample(model, seed=seed, n_samples=n_samples, rounds=rounds, events=events)
    counts, event_counts, joint = oracle_sample(
        model, seed=seed, n_samples=n_samples, rounds=rounds, events=events)
    assert emp.counts == counts
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
                terms = subtree_triggers(model8.family, (w, t))
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


def pair_orbits(model, e1):
    """A representative edge e of every orbit of pairs (e, e1) under e1's
    stabiliser: the adjacent class pairs of e1's label cells."""
    part = model._partition(e1)
    return [(part.rep(c), part.rep(d)) for j in range(1, model.inst.ell + 1)
            for c in part.classes(j - 1) for d, _ in part.neighbours(c, j)]


class TestHarris:
    """An edge's presence is an increasing event of the independent trigger
    and activation draws, so two presences correlate non-negatively (Harris
    1960); they are independent exactly when no trigger reaches both, as
    every trigger has x_f < 1 here."""

    @pytest.mark.parametrize("m,rho", [(8, Fraction(1, 4)), (12, Fraction(1, 4)),
                                       (16, Fraction(1, 8))])
    def test_first_edges_against_every_pair_orbit(self, m, rho):
        model = shadow_model(build_mmda(make_params(m, rho)))
        inst = model.inst
        largest = None
        for i in range(1, inst.ell + 1):
            e1 = next(iter(inst.edges_into_layer(i)))
            for e in pair_orbits(model, e1):
                joint = model.pair_probability(e, e1)
                product = model.marginal(e) * model.marginal(e1)
                assert joint >= product, (e, e1)
                a, b = sorted((e, e1), key=lambda f: f[1][0])
                shared = any(model.family.value(f, b) for _, f, _ in model._trigger_groups(a, b))
                assert (joint == product) is not shared, (e, e1)
                if e != e1 and (largest is None or joint / product > largest[0]):
                    largest = joint / product, e1, e
        assert largest[1:] == (((0, 0), (1, 0)), ((1, 0), (2, 0)))
        if m == 8:
            assert largest[0] == Fraction(1425, 179)


class TestNullEvents:
    """An event of probability 0 has no conditional values: sa1 skips it
    and the conditional calls refuse it, under either sign."""

    @pytest.fixture
    def model(self, inst4):
        edges = list(inst4.all_edges())
        # edges[0] never appears, edges[1] always does
        x = SparseSolution(inst4, {e: Fraction(1) if i == 1 else Fraction(1, 3)
                                   for i, e in enumerate(edges) if i})
        return ShadowModel(inst4, x, IndependentFamily(inst4))

    def null_events(self, model):
        edges = list(model.inst.all_edges())
        return [ConditionEvent(edges[0], True), ConditionEvent(edges[1], False)]

    def test_skipped_by_sa1(self, model):
        edges = list(model.inst.all_edges())
        assert model.marginal(edges[0]) == 0 and model.survival(edges[1]) == 0
        live = [ConditionEvent(edges[0], False), ConditionEvent(edges[1], True)]
        res = sa1_certificate(model, Fraction(1, 100), Fraction(8),
                              events=[*self.null_events(model), *live])
        assert (res.events_checked, res.events_skipped) == (2, 2)
        assert sa1_certificate(model, Fraction(1, 100), Fraction(8), events=live) \
            .min_covering_slack == res.min_covering_slack

    def test_conditional_calls_refuse(self, model):
        e = list(model.inst.all_edges())[2]
        for ev in self.null_events(model):
            with pytest.raises(InstanceError, match="null event"):
                model.conditional_probability(e, ev)
            with pytest.raises(InstanceError, match="null event"):
                conditional_report(model, ev)
            with pytest.raises(InstanceError, match="null event"):
                model.expected_multiplicity(e, ev)


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
        # the model's trigger groups, each a class pair counted n times,
        # expand to the transpose of support: the same triggers and values
        if kind == "counterexample":
            model = counterexample_shadow_model(build_subtree_counterexample(size))
        else:
            inst = build_mmda(make_params(size, Fraction(1, 4)))
            fam = IndependentFamily(inst) if kind == "independent" \
                else SubtreeFamily(inst)
            model = ShadowModel(inst, assignment_solution(inst), fam)
        fam = model.family
        edges = list(fam.inst.all_edges())
        by_support = [((f, e), val) for f in edges for e, val in fam.support(f)]
        assert len(dict(by_support)) == len(by_support)
        transpose = support_transpose(fam)
        assert set(transpose) == set(edges)
        for e in edges:
            part = model._partition(e)

            def cls(f):
                return part.key(f[0]), part.key(f[1])

            groups = model._trigger_groups(e)
            keys = [cls(f) for _, f, _ in groups]
            assert len(set(keys)) == len(keys), e
            assert Counter({k: n for k, (n, _, _) in zip(keys, groups)}) == \
                Counter(map(cls, transpose[e])), e
            for k, (_, f, v) in zip(keys, groups):
                assert {val for g, val in transpose[e].items() if cls(g) == k} == {v}, (e, f)
            assert all(fam.value(f, e) == val for f, val in transpose[e].items())
            if kind == "subtree":
                assert subtree_triggers(fam, e) == transpose[e]


class DictProducts:
    """survival, pair_absent and expected_multiplicity of a subtree model
    as products over per-edge trigger dicts, the engine's algebra before
    trigger groups: the reference for the grouped walk."""

    def __init__(self, model):
        self.model = model
        self._triggers, self._survival = {}, {}
        # equal values share one object, so each product of two survivals
        # and each shared trigger's factor is computed once
        self._values, self._products, self._factors = {}, {}, {}

    def triggers(self, e):
        t = self._triggers.get(e)
        if t is None:
            t = self._triggers[e] = {f: self._values.setdefault(v, v) for f, v in
                                     subtree_triggers(self.model.family, e).items()}
        return t

    def survival(self, e):
        s = self._survival.get(e)
        if s is None:
            s = math.prod((1 - self.model.x_of(f) * v for f, v in self.triggers(e).items()),
                          start=Fraction(1))
            s = self._survival[e] = self._values.setdefault(s, s)
        return s

    def pair_absent(self, e1, e2):
        if e1 == e2:
            return self.survival(e1)
        t1, t2 = self.triggers(e1), self.triggers(e2)
        s1, s2 = self.survival(e1), self.survival(e2)
        p = self._products.get((id(s1), id(s2)))
        if p is None:
            p = self._products[id(s1), id(s2)] = s1 * s2
        for f in t1.keys() & t2.keys():
            xf, v1, v2 = self.model.x_of(f), t1[f], t2[f]
            q = self._factors.get((id(xf), id(v1), id(v2)))
            if q is None:
                q = self._factors[id(xf), id(v1), id(v2)] = (
                    (1 - xf * (v1 + v2 - v1 * v2)) / ((1 - xf * v1) * (1 - xf * v2)))
            p *= q
        return p

    def expected_multiplicity(self, e, event=None):
        terms = self.triggers(e)
        if event is None:
            return sum((self.model.x_of(f) * v for f, v in terms.items()), Fraction(0))
        e1 = event.edge
        t1, s1 = self.triggers(e1), self.survival(e1)
        total = Fraction(0)
        for f, v in terms.items():
            xf = self.model.x_of(f)
            if e1 == e:
                q = Fraction(0)
            elif f in t1:
                q = s1 * (1 - t1[f]) / (1 - xf * t1[f])
            else:
                q = s1
            total += xf * v * (q if not event.positive else 1 - q)
        return total / ((1 - s1) if event.positive else s1)


class TestTriggerGroups:
    """survival, pair_absent and expected_multiplicity read groups of
    triggers; each must equal the product over the edge's trigger dict."""

    @staticmethod
    def assert_pairs_match(model, pairs, signs=(True, False)):
        ref = DictProducts(model)
        for e1, e2 in pairs:
            assert model.pair_absent(e1, e2) == ref.pair_absent(e1, e2), (e1, e2)
            for positive in signs:
                ev = ConditionEvent(e2, positive)
                assert model.expected_multiplicity(e1, ev) == \
                    ref.expected_multiplicity(e1, ev), (e1, ev.label())

    @staticmethod
    def assert_edges_match(model, edges):
        ref = DictProducts(model)
        for e in edges:
            assert model.survival(e) == ref.survival(e), e
            assert model.expected_multiplicity(e) == ref.expected_multiplicity(e), e

    def test_every_pair_m4(self, inst4, model4):
        edges = list(inst4.all_edges())
        self.assert_edges_match(model4, edges)
        self.assert_pairs_match(model4, [(a, b) for b in edges for a in edges])

    def test_every_pair_m8(self, inst8):
        # a fresh model, so no value comes from another test's cache
        model = shadow_model(inst8)
        edges = list(inst8.all_edges())
        self.assert_edges_match(model, edges)
        ref = DictProducts(model)
        for b in edges:
            for a in edges:
                assert model.pair_absent(a, b) == ref.pair_absent(a, b), (a, b)
        # conditioned multiplicities on every edge under one event per
        # layer and sign, and on seeded pairs that share a trigger
        rng = random.Random(8)
        events = [rng.choice(list(inst8.edges_into_layer(i))) for i in (1, 2, 3)]
        self.assert_pairs_match(model, [(a, b) for b in events for a in edges])
        sharing = [(a, b) for b in edges for a in edges
                   if ref.triggers(a).keys() & ref.triggers(b).keys()]
        self.assert_pairs_match(model, rng.sample(sharing, 500))

    @pytest.mark.parametrize("m", [12, 16])
    def test_seeded_pairs(self, m):
        inst = build_mmda(make_params(m, Fraction(1, 4)))
        model = shadow_model(inst)
        rng = random.Random(m)
        layers = [list(inst.edges_into_layer(i)) for i in (1, 2, 3)]
        edges = [e for layer in layers for e in rng.sample(layer, 10)]
        self.assert_edges_match(model, edges)
        pairs = [(rng.choice(layers[i]), rng.choice(layers[j]))
                 for i in range(3) for j in range(3) for _ in range(8)]
        # pairs that share triggers: a bottom edge and one from its cone
        for w, t in rng.sample(layers[2], 8):
            v = rng.choice(inst.in_neighbors(w))
            t2 = rng.choice(inst.out_neighbors(w))
            w2 = rng.choice(inst.out_neighbors(v))
            pairs += [((w, t), (v, w)), ((w, t), (inst.source, v)),
                      ((w, t), (w, t2)), ((w, t), (w2, rng.choice(inst.out_neighbors(w2))))]
        self.assert_pairs_match(model, pairs + [(b, a) for a, b in pairs])


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
        dead = SparseSolution(inst8, {})
        m2 = ShadowModel(inst8, dead, IndependentFamily(inst8))
        with pytest.raises(Exception):
            m2.conditional_probability(((0, 0), (1, 1)),
                                       ConditionEvent(((0, 0), (1, 0)), True))


class TestNegativeControls:
    def test_independent_covering_slack_is_x(self, inst8):
        model = ShadowModel(inst8, assignment_solution(inst8), IndependentFamily(inst8))
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
        model = ShadowModel(inst, assignment_solution(inst), IndependentFamily(inst))
        res = sa1_certificate(model, SA1_FLOOR, SA1_CEILING, events=layer_events(inst))
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
        a = draw_one(model8, seed=3, index=0)
        b = draw_one(model8, seed=3, index=0)
        assert a.shadow == b.shadow and a.multiplicity == b.multiplicity

    def test_structure(self, model8):
        s = draw_one(model8, seed=1, index=4)
        assert s.active == frozenset().union(*s.triggered.values()) \
            if s.triggered else s.active == frozenset()
        for f, got in s.triggered.items():
            assert f in s.shadow
            assert f in got     # x_e^{(e)} = 1: a trigger activates itself
        for e, n in s.multiplicity.items():
            assert n == sum(1 for got in s.triggered.values() if e in got)

    def test_agrees_with_aggregate_stream(self, model8):
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
        assert a == b

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
        emp = EmpiricalReport(100, 0, 1, {e: 0, f: 100}, {}, {}, [e, f])
        assert emp.marginal_deviation(e, 0.25) == 0.25 / math.sqrt(0.25 * 0.75 / 100)
        # an exact marginal of 0 or 1 leaves no room: equal or infinitely off
        assert emp.marginal_deviation(e, 0.0) == 0.0
        assert emp.marginal_deviation(f, 1.0) == 0.0
        assert emp.marginal_deviation(e, 1.0) == math.inf
        assert emp.marginal_deviation(f, 0.0) == math.inf

    def test_conditional_deviation_in_exact_standard_errors(self, inst4):
        from test_acceptance import conditional_deviation
        e, f = list(inst4.all_edges())[:2]
        emp = EmpiricalReport(100, 0, 1, {e: 0, f: 100},
                              {"ev": 40, "never": 0}, {("ev", f): 40}, [e, f])
        # over the event's 40 occurrences: e never hit, f always
        assert conditional_deviation(emp, "ev", e, 0.25) == 0.25 / math.sqrt(0.25 * 0.75 / 40)
        assert conditional_deviation(emp, "ev", f, 0.5) == 0.5 / math.sqrt(0.5 * 0.5 / 40)
        assert conditional_deviation(emp, "ev", e, 0.0) == 0.0
        assert conditional_deviation(emp, "ev", f, 1.0) == 0.0
        assert conditional_deviation(emp, "ev", e, 1.0) == math.inf
        assert conditional_deviation(emp, "ev", f, 0.0) == math.inf
        assert conditional_deviation(emp, "never", e, 0.25) is None

    def test_empirical_multiplicity_tracks_3x(self, inst8, model8):
        # bottom edges have E[n_e] = 3 x_e exactly; the sample mean should
        # sit within a few standard errors of 0.2
        arrays = model8._support_arrays
        _, pos, hit, _ = arrays.draw(13, 0, 4000, rounds=1)
        w = inst8.out_neighbors((1, 0))[0]
        t = inst8.out_neighbors(w)[0]
        mean = np.count_nonzero(arrays.indices[pos[hit]] == arrays.index[w, t]) / 4000
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
        model = ShadowModel(inst4, x, IndependentFamily(inst4))
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
        model = ShadowModel(inst8_deep, x, IndependentFamily(inst8_deep))
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


def shuffled_orbit_events(inst, rng):
    """Two or three events on distinct edges for each (layer, sign), in a
    seeded shuffle after which each layer opens with a negative event: a
    sweep that keyed its orbits on the layer alone would skip the positive
    events, where the extremes lie, and one keyed on the edge would
    evaluate every event."""
    events = []
    for i in range(1, inst.ell + 1):
        edges = list(inst.edges_into_layer(i))
        for sign in (True, False):
            events += [ConditionEvent(e, sign) for e in rng.sample(edges, rng.choice((2, 3)))]
    rng.shuffle(events)
    for i in range(1, inst.ell + 1):
        at = [j for j, ev in enumerate(events) if ev.edge[1][0] == i]
        events.insert(at[0], events.pop(next(j for j in at if not events[j].positive)))
    return events


class TestOrbitSkip:
    """sa1_certificate evaluates the first event of each (layer, sign) in
    list order and counts the rest; walk_sa1 evaluates every event."""

    @pytest.mark.parametrize("m,rho,seed", [(8, Fraction(1, 4), 8), (16, Fraction(1, 8), 16)])
    def test_agrees_with_the_every_event_walk(self, m, rho, seed, monkeypatch):
        model = shadow_model(build_mmda(make_params(m, rho)))
        events = shuffled_orbit_events(model.inst, random.Random(seed))
        evaluated, moments = [], shadow_module._event_moments
        monkeypatch.setattr(shadow_module, "_event_moments",
                            lambda model, ev: evaluated.append(ev) or moments(model, ev))
        res = sa1_certificate(model, Fraction(1, 100), Fraction(8), events=events)
        first = {}
        for ev in events:
            first.setdefault((ev.edge[1][0], ev.positive), ev)
        assert evaluated == list(first.values())
        assert (res.events_checked, res.events_skipped) == (len(events), 0)
        assert (res.min_covering_slack, res.max_packing_sum,
                res.worst_covering, res.worst_packing) == walk_sa1(model, events)
        assert res.worst_covering[0].startswith("+") and res.worst_packing[0].startswith("+")


class TestBatchedSampler:
    @pytest.mark.parametrize("rounds", [1, 2])
    def test_matches_per_trigger_oracle(self, inst8, model8, rounds):
        events = []
        for i in range(1, inst8.ell + 1):
            e = next(iter(inst8.edges_into_layer(i)))
            events += [ConditionEvent(e, True), ConditionEvent(e, False)]
        emp = sample(model8, seed=21, n_samples=300, rounds=rounds, events=events)
        counts, event_counts, joint = oracle_sample(
            model8, seed=21, n_samples=300, rounds=rounds, events=events)
        assert emp.counts == counts
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
        lambda inst4: ShadowModel(inst4, assignment_solution(inst4), IndependentFamily(inst4)),
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


class TestSupportEntries:
    @pytest.mark.parametrize("m,entries", [(4, 88), (8, 6_328)])
    def test_closed_form_counts_the_sampler_rows(self, m, entries):
        model = shadow_model(build_mmda(make_params(m, Fraction(1, 4))))
        assert support_entries(model.inst) == len(model._support_arrays.indices) == entries

    def test_bound_falls_between_m12_and_m16(self):
        # shadow-sample admits m=12 at rho=1/4 and refuses m=16
        from mmda_lab.instances import WORK_MAX
        counts = [support_entries(build_mmda(make_params(m, Fraction(1, 4)))) for m in (12, 16)]
        assert counts == [794_860, 128_830_520]
        assert counts[0] <= WORK_MAX < counts[1]

    def test_draw_bound_keeps_the_grid_and_refuses_the_long_draws(self):
        # at the default 10,000 samples every call at rho 1/4 or 1/8 that
        # the support bound admits (m = 4, 8, 12 and m = 8, 16) keeps its
        # draws; at m=37, rho=2/37 the support is admitted, the draws are not;
        # each sample also counts its stream's fixed cost, so m=4 stops at
        # 2,388,535 samples (about 20 s), not at 53,571,428 (about 7 minutes)
        from mmda_lab.cli import SAMPLE_DRAW_MAX, SAMPLE_FIXED_DRAWS
        from mmda_lab.instances import WORK_MAX
        admitted = [(m, rho) for rho in (Fraction(1, 4), Fraction(1, 8))
                    for m in range(int(1 / rho), 65, int(1 / rho))
                    if support_entries(build_mmda(make_params(m, rho))) <= WORK_MAX]
        assert admitted == [(4, Fraction(1, 4)), (8, Fraction(1, 4)), (12, Fraction(1, 4)),
                            (8, Fraction(1, 8)), (16, Fraction(1, 8))]
        assert max(build_mmda(make_params(m, rho)).n_edges for m, rho in admitted) == 37_180
        assert (37_180 + SAMPLE_FIXED_DRAWS) * 10_000 <= SAMPLE_DRAW_MAX
        inst = build_mmda(make_params(37, Fraction(2, 37)))
        assert support_entries(inst) == 5_944_716 <= WORK_MAX
        assert (inst.n_edges + SAMPLE_FIXED_DRAWS) * 10_000 == 7_938_060_000 > SAMPLE_DRAW_MAX
        n4 = build_mmda(make_params(4, Fraction(1, 4))).n_edges
        assert SAMPLE_DRAW_MAX // (n4 + SAMPLE_FIXED_DRAWS) == 2_388_535
