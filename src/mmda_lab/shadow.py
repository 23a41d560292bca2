"""Shadow distribution over edge sets: exact moments and sampling.

A model couples a base edge solution x with a family of relocated-source
solutions x^{(f)}.  Every edge f becomes a trigger independently with
probability x_f; a selected trigger activates each edge e independently
with probability x_e^{(f)}; the active set is the union.  Because all
trigger events are mutually independent, every probability used here
reduces to a finite product over triggers, so conditional moments are
computed exactly (no truncation), and the Monte Carlo sampler exists to
cross-check the engine, not the other way round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .instances import Edge, InstanceError, LabeledInstance, LayeredInstance, Vertex
from .relaxations import SparseSolution, SubtreeFamily, assignment_solution
from .reports import ViolationReport, check_ge, check_le
from .scalars import Rat


class IndependentFamily:
    """Degenerate family: a trigger activates only itself."""

    def __init__(self, inst: LayeredInstance):
        self.inst = inst

    def triggers_of(self, e: Edge):
        return [(e, Fraction(1))]

    def support(self, f: Edge):
        yield f, Fraction(1)


class ShadowModel:
    """Exact moments for a base solution x and a family of relocated
    solutions; every family provides ``support(f)``, the edges trigger f
    activates with their values, and its transpose ``triggers_of(e)``."""

    def __init__(self, inst: LayeredInstance, x, family):
        self.inst = inst
        self.x = x
        self.family = family
        self._xcache: dict[Edge, Fraction] = {}
        self._triggers: dict[Edge, dict[Edge, Fraction]] = {}
        self._survival: dict[Edge, Fraction] = {}

    # --- plumbing ---------------------------------------------------------
    def x_of(self, e: Edge) -> Fraction:
        v = self._xcache.get(e)
        if v is None:
            v = self._xcache[e] = self.x.value(e).as_fraction()
        return v

    def triggers_of(self, e: Edge) -> dict[Edge, Fraction]:
        t = self._triggers.get(e)
        if t is None:
            t = self._triggers[e] = dict(self.family.triggers_of(e))
        return t

    # --- exact moments -----------------------------------------------------
    def survival(self, e: Edge) -> Fraction:
        """P[e not in A]."""
        s = self._survival.get(e)
        if s is None:
            s = Fraction(1)
            for f, val in self.triggers_of(e).items():
                s *= 1 - self.x_of(f) * val
            self._survival[e] = s
        return s

    def marginal(self, e: Edge) -> Fraction:
        return 1 - self.survival(e)

    def pair_absent(self, e1: Edge, e2: Edge) -> Fraction:
        """P[e1 not in A and e2 not in A]."""
        if e1 == e2:
            return self.survival(e1)
        if self.survival(e1) == 0 or self.survival(e2) == 0:
            return Fraction(0)
        t1, t2 = self.triggers_of(e1), self.triggers_of(e2)
        p = self.survival(e1) * self.survival(e2)
        for f in t1.keys() & t2.keys():
            xf, v1, v2 = self.x_of(f), t1[f], t2[f]
            joint = 1 - xf * (v1 + v2 - v1 * v2)
            p *= joint / ((1 - xf * v1) * (1 - xf * v2))
        return p

    def pair_probability(self, e1: Edge, e2: Edge) -> Fraction:
        """P[e1 in A and e2 in A]."""
        if e1 == e2:
            return self.marginal(e1)
        return 1 - self.survival(e1) - self.survival(e2) + self.pair_absent(e1, e2)

    def conditional_probability(self, e: Edge, event: "ConditionEvent") -> Fraction:
        e1 = event.edge
        if event.positive:
            denom = self.marginal(e1)
            if denom == 0:
                raise InstanceError("conditioning on a null event")
            return self.pair_probability(e, e1) / denom
        denom = self.survival(e1)
        if denom == 0:
            raise InstanceError("conditioning on a null event")
        return (self.survival(e1) - self.pair_absent(e, e1)) / denom

    def expected_multiplicity(self, e: Edge,
                              event: "ConditionEvent | None" = None) -> Fraction:
        """E[n_e | event], n_e counting activations with multiplicity."""
        terms = self.triggers_of(e)
        if event is None:
            return sum((self.x_of(f) * v for f, v in terms.items()), Fraction(0))
        e1 = event.edge
        t1 = self.triggers_of(e1)
        s1 = self.survival(e1)
        total = Fraction(0)
        for f, v in terms.items():
            xf = self.x_of(f)
            if e1 == e:
                q = Fraction(0)           # e in S_f forces e1 in A
            elif f in t1:
                q = s1 * (1 - t1[f]) / (1 - xf * t1[f])
            else:
                q = s1
            total += xf * v * (q if not event.positive else 1 - q)
        denom = (1 - s1) if event.positive else s1
        if denom == 0:
            raise InstanceError("conditioning on a null event")
        return total / denom


@dataclass(frozen=True)
class ConditionEvent:
    edge: Edge
    positive: bool

    def label(self) -> str:
        sign = "+" if self.positive else "-"
        return f"{sign}{self.edge[0][0]}.{self.edge[0][1]}>{self.edge[1][0]}.{self.edge[1][1]}"


@dataclass
class MomentReport:
    event: ConditionEvent | None
    marginals: dict
    conditional: dict
    vertex_out: dict
    vertex_in: dict


def shadow_model(inst: LabeledInstance) -> ShadowModel:
    """Depth-3 model with its subtree family."""
    return ShadowModel(inst, assignment_solution(inst), SubtreeFamily(inst))


def independent_model(inst: LayeredInstance, x=None) -> ShadowModel:
    return ShadowModel(inst, x or assignment_solution(inst), IndependentFamily(inst))


def conditional_report(model: ShadowModel, event: ConditionEvent | None,
                       edges=None) -> MomentReport:
    inst = model.inst
    edges = list(edges) if edges is not None else list(inst.all_edges())
    marg, cond = {}, {}
    v_out: dict[Vertex, Fraction] = {}
    v_in: dict[Vertex, Fraction] = {}
    for e in edges:
        marg[e] = model.marginal(e)
        cond[e] = (model.conditional_probability(e, event)
                   if event is not None else marg[e])
        u, v = e
        v_out[u] = v_out.get(u, Fraction(0)) + cond[e]
        v_in[v] = v_in.get(v, Fraction(0)) + cond[e]
    return MomentReport(event, marg, cond, v_out, v_in)


@dataclass
class SA1Report:
    events_checked: int
    events_skipped: int
    min_covering_slack: Fraction | None
    max_packing_sum: Fraction | None
    worst_covering: tuple | None
    worst_packing: tuple | None
    passed: bool
    report: ViolationReport


def sa1_certificate(model: ShadowModel, covering_slack_floor,
                    packing_ceiling, events=None) -> SA1Report:
    """Check every assignment constraint under every single-edge conditioning.

    Covering slack at v is E[out|ev] / (k_v * E[in|ev]) (in-flow of the
    source taken as 1); the certificate passes when all slacks reach the
    floor and all conditional in-degrees stay below the ceiling.
    """
    inst = model.inst
    floor = Fraction(covering_slack_floor)
    ceiling = Fraction(packing_ceiling)
    all_edges = list(inst.all_edges())
    if events is None:
        events = [ConditionEvent(e, sign) for e in all_edges for sign in (True, False)]
    rep = ViolationReport()
    min_cov = None
    max_pack = None
    worst_cov = worst_pack = None
    skipped = checked = 0
    for ev in events:
        if ev.positive and model.marginal(ev.edge) == 0:
            skipped += 1
            continue
        if not ev.positive and model.survival(ev.edge) == 0:
            skipped += 1
            continue
        checked += 1
        mr = conditional_report(model, ev, all_edges)
        for i in range(inst.ell + 1):
            for v in inst.vertices(i):
                inflow = Fraction(1) if v == inst.source else mr.vertex_in.get(v, Fraction(0))
                if i < inst.ell and inflow > 0:
                    kv = inst.k_of(v).as_fraction()
                    out = mr.vertex_out.get(v, Fraction(0))
                    slack = out / (kv * inflow)
                    if min_cov is None or slack < min_cov:
                        min_cov, worst_cov = slack, (ev.label(), v)
                if v != inst.source:
                    pack = mr.vertex_in.get(v, Fraction(0))
                    if max_pack is None or pack > max_pack:
                        max_pack, worst_pack = pack, (ev.label(), v)
    if min_cov is not None:
        rep.add(check_ge("sa1:min-covering-slack", Rat(min_cov), Rat(floor)))
    if max_pack is not None:
        rep.add(check_le("sa1:max-packing-sum", Rat(max_pack), Rat(ceiling)))
    return SA1Report(checked, skipped, min_cov, max_pack, worst_cov, worst_pack,
                     rep.ok, rep)


# ---------------------------------------------------------------------------
# dominance scan


@dataclass
class DominanceReport:
    tau: Fraction
    binding: tuple | None
    per_trigger_layer: dict

    @property
    def ok(self) -> bool:
        return self.tau < 1


def check_no_edge_dominates(model: ShadowModel) -> DominanceReport:
    """Largest single-edge share of a triggered expected out-degree.

    For each trigger f and each vertex v in its activation cone, compares
    the biggest per-edge activation value against the expected out-degree
    E[|delta+(v) cap S_f|]; tau is the worst ratio.
    """
    inst = model.inst
    tau = Fraction(0)
    binding = None
    per_layer: dict[int, Fraction] = {}
    for f in inst.all_edges():
        by_vertex: dict[Vertex, list[Fraction]] = {}
        for e, val in model.family.support(f):
            if e == f:
                continue
            by_vertex.setdefault(e[0], []).append(val)
        for v, vals in by_vertex.items():
            total = sum(vals, Fraction(0))
            ratio = max(vals) / total
            layer = f[1][0]
            if ratio > per_layer.get(layer, Fraction(0)):
                per_layer[layer] = ratio
            if ratio > tau:
                tau, binding = ratio, (f, v)
    return DominanceReport(tau, binding, per_layer)


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

    def triggers_of(self, e: Edge):
        out = [(e, Fraction(1))]
        if e[1] in self.public:
            out.append(((self.inst.source, e[0]), Fraction(1)))
        return out

    def support(self, f: Edge):
        yield f, Fraction(1)
        if f[0] == self.inst.source:
            for t in self.inst.out_neighbors(f[1]):
                if t in self.public:
                    yield (f[1], t), Fraction(1)


def counterexample_shadow_model(inst: LayeredInstance) -> ShadowModel:
    """Shadow model on the shared-sink counterexample; base values are 1/k
    on first-layer edges, 1 on private-sink edges, 0 on public edges."""
    k = int(inst.k_of(inst.source).as_fraction())
    table = {}
    for v in inst.vertices(1):
        table[(inst.source, v)] = Fraction(1, k)
        for t in inst.out_neighbors(v):
            if t not in getattr(inst, "public_sinks", ()):
                table[(v, t)] = Fraction(1)
    x = SparseSolution(inst, table)
    return ShadowModel(inst, x, CounterexampleFamily(inst))


# ---------------------------------------------------------------------------
# negative control: the two-layer rounding distribution


@dataclass
class TwoLayerControl:
    event_edge: Edge
    sink: Vertex
    per_edge_bound: Fraction
    bound_sum: Fraction
    exact_sum: Fraction
    exact_per_edge: Fraction


def two_layer_rounding_control(inst: LabeledInstance) -> TwoLayerControl:
    """Conditioned sink packing under the round-then-take-all process.

    Layer-1 edges are kept with probability x_e, each covered layer-1
    vertex keeps each out-edge with probability 1/C(2rm, rm), and covered
    layer-2 vertices keep every out-edge.  Conditioning on a first-layer
    edge (s, v), the sink labeled like v has in-degree sum at least
    delta^- / C(2rm, rm), the product form below being exact.
    """
    if inst.params.epsilon != 1:
        raise InstanceError("control defined on the depth-3 instance")
    x1 = assignment_solution(inst).layer_values[1].as_fraction()
    c_small = math.comb(2 * inst.params.rho_m, inst.params.rho_m)
    v = (1, 0)
    e1 = (inst.source, v)
    t = (3, inst.vertex_with_label(3, inst.label(v))[1])
    q = Fraction(1, c_small)
    # P[(u,t) in A | (s,v) kept]: u is covered unless every kept parent
    # dropped it; v is a parent of every such u since S_t = S_v
    exact = 1 - (1 - q) * (1 - x1 * q) ** (c_small - 1)
    dminus = inst.in_degree(t)
    return TwoLayerControl(e1, t, q, dminus * q, dminus * exact, exact)


# ---------------------------------------------------------------------------
# Monte Carlo


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


def draw_one(model: ShadowModel, seed: int, index: int = 0) -> ShadowSample:
    """The index-th sample of the stream used by :func:`sample`."""
    inst = model.inst
    edges = list(inst.all_edges())
    gen = np.random.Generator(np.random.Philox(key=[seed, index]))
    us = gen.random(len(edges))
    shadow = [e for e, u in zip(edges, us) if u < float(model.x_of(e))]
    triggered = {}
    mult: dict[Edge, int] = {}
    for f in shadow:
        supp = list(model.family.support(f))
        hits = gen.random(len(supp))
        got = frozenset(e for (e, val), u in zip(supp, hits) if u < float(val))
        triggered[f] = got
        for e in got:
            mult[e] = mult.get(e, 0) + 1
    return ShadowSample(frozenset(shadow), triggered, frozenset(mult), mult)


@dataclass
class EmpiricalReport:
    n_samples: int
    seed: int
    rounds: int
    counts: dict               # edge -> activations (as sets)
    mult_sums: dict            # edge -> total multiplicity
    event_counts: dict         # event label -> occurrences
    event_joint: dict          # (event label, edge) -> joint activations
    edges: list

    def marginal(self, e: Edge) -> float:
        return self.counts[e] / self.n_samples

    def marginal_se(self, e: Edge) -> float:
        p = self.marginal(e)
        return math.sqrt(max(p * (1 - p), 1e-12) / self.n_samples)

    def conditional(self, ev_label: str, e: Edge) -> float | None:
        n = self.event_counts.get(ev_label, 0)
        if n == 0:
            return None
        return self.event_joint.get((ev_label, e), 0) / n

    def conditional_se(self, ev_label: str, e: Edge) -> float | None:
        n = self.event_counts.get(ev_label, 0)
        if n == 0:
            return None
        p = self.conditional(ev_label, e)
        return math.sqrt(max(p * (1 - p), 1e-12) / n)

    def mean_multiplicity(self, e: Edge) -> float:
        return self.mult_sums[e] / self.n_samples


def sample(model: ShadowModel, seed: int, n_samples: int, rounds: int = 1,
           events: list[ConditionEvent] | None = None) -> EmpiricalReport:
    """Seeded, reproducible draws from the shadow process.

    Each sample uses its own counter-based stream keyed by (seed, index),
    so results do not depend on evaluation order.  ``rounds`` > 1 iterates
    the trigger step (exploratory only; the exact engine covers rounds=1).
    """
    inst = model.inst
    edges = list(inst.all_edges())
    index = {e: i for i, e in enumerate(edges)}
    n_edges = len(edges)
    thresholds = np.array([float(model.x_of(e)) for e in edges])
    supp_idx = []
    supp_p = []
    for f in edges:
        pairs = [(index[e], float(val)) for e, val in model.family.support(f)]
        supp_idx.append(np.array([i for i, _ in pairs], dtype=np.int64))
        supp_p.append(np.array([p for _, p in pairs]))

    events = events or []
    ev_labels = [ev.label() for ev in events]
    ev_edge_idx = [index[ev.edge] for ev in events]
    counts = np.zeros(n_edges, dtype=np.int64)
    mult_sums = np.zeros(n_edges, dtype=np.int64)
    event_counts = dict.fromkeys(ev_labels, 0)
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
        for j, (lab, eidx) in enumerate(zip(ev_labels, ev_edge_idx)):
            happened = bool(present[eidx]) == events[j].positive
            if happened:
                event_counts[lab] += 1
                event_joint[j] += present
    joint = {}
    for j, lab in enumerate(ev_labels):
        for e, idx in index.items():
            if event_joint[j][idx]:
                joint[(lab, e)] = int(event_joint[j][idx])
    return EmpiricalReport(
        n_samples, seed, rounds,
        {e: int(counts[index[e]]) for e in edges},
        {e: int(mult_sums[index[e]]) for e in edges},
        event_counts, joint, edges)
