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
from functools import cached_property

import numpy as np

from .instances import (ClassSums, Edge, InstanceError, LabelCells, LabeledInstance,
                        LayeredInstance, SingleVertices)
from .relaxations import LayerSolution, SubtreeFamily, assignment_solution
from .reports import ViolationReport, check_ge, check_le
from .scalars import as_fraction


class IndependentFamily:
    """Degenerate family: a trigger activates only itself."""

    def __init__(self, inst: LayeredInstance):
        self.inst = inst

    def support(self, f: Edge):
        yield f, Fraction(1)

    def value(self, f: Edge, e: Edge) -> Fraction:
        return Fraction(f == e)


def _power_product(groups) -> Fraction:
    """The product of q**n over the (n, q) pairs, reduced once at the end."""
    num = den = 1
    for n, q in groups:
        num *= q.numerator ** n
        den *= q.denominator ** n
    return Fraction(num, den)


class ShadowModel:
    """Exact moments for a base solution x and a family of relocated
    solutions.  A family provides ``support(f)``, the edges trigger f
    activates with their values (the sampler's rows), and ``value(f, e)``,
    x_e^{(f)} for any pair.  A trigger of e, an f with x_e^{(f)} > 0, is e
    itself, an edge into e's tail, or an edge into the tail of such an edge.

    On a labelled instance with a layer-valued base solution and the
    subtree or independent family, every value depends on labels only
    through their intersection sizes, so the model is ``symmetric``: it is
    invariant under the permutations S_m of the ground set.  S_m acts
    transitively on the edges of each layer, so an edge's survival and
    marginal are its layer's, and a pair's values are its orbit's.
    """

    def __init__(self, inst: LayeredInstance, x, family):
        self.inst = inst
        self.x = x
        self.family = family
        self.symmetric = (isinstance(inst, LabeledInstance) and isinstance(x, LayerSolution)
                          and isinstance(family, (SubtreeFamily, IndependentFamily)))
        self._xcache: dict[Edge, Fraction] = {}
        self._fractions: dict = {}          # base value -> its one Fraction
        self._absent: dict = {}                 # pair_absent, by orbit if symmetric
        self._cells: dict = {}                  # e2 of pair_absent -> its label cells
        self._tables: dict = {}         # pair_absent(., e1) sums by orbit of e1; None: marginals

    # --- plumbing ---------------------------------------------------------
    def x_of(self, e: Edge) -> Fraction:
        v = self._xcache.get(e)
        if v is None:
            val = self.x.value(e)
            v = self._fractions.get(val)
            if v is None:
                v = self._fractions[val] = as_fraction(val)
            self._xcache[e] = v
        return v

    @cached_property
    def _support_arrays(self) -> _SupportArrays:
        return _SupportArrays(self)

    def _partition(self, *edges):
        """The vertex classes the model's values are constant on once the
        ends of ``edges`` are fixed: the label cells of those ends on a
        symmetric model (Gatermann & Parrilo 2004), else single vertices."""
        if not self.symmetric:
            return SingleVertices(self.inst)
        return LabelCells(self.inst, [self.inst.label(v) for e in edges for v in e])

    def _trigger_groups(self, e: Edge, *fixed: Edge) -> list:
        """e's triggers as (count, representative f, x_e^{(f)}) groups, zero
        values dropped, from a walk two steps back from e over the classes
        of ``_partition(e, *fixed)``, where e's tail is a class of its own:
        a group is a pair of classes, so its triggers share their values on
        e and on each fixed edge.  Layer 0 is the source alone, which feeds
        all of layer 1, so a walk that goes no deeper builds no classes."""
        part = self._partition(e, *fixed) if e[0][0] > 1 else None

        def edges_into(z, n):           # the edges into z, n times over
            if z[0] <= 1:
                return [(n, (self.inst.source, z))] if z[0] else []
            return [(n * k, (part.rep(c), z)) for c, k in part.neighbours(part.key(z), z[0] - 1)]

        groups = [(1, e)]
        for n, f in edges_into(e[0], 1):
            groups += [(n, f), *edges_into(f[0], n)]
        return [(n, f, v) for n, f in groups if (v := self.family.value(f, e))]

    # --- exact moments -----------------------------------------------------
    def pair_absent(self, e1: Edge, e2: Edge) -> Fraction:
        """P[e1 not in A and e2 not in A], and P[e1 not in A] when e1 == e2:
        the product over the triggers, one memo for both.  A value is kept
        per pair, or on a symmetric model per orbit: an edge's layer, and a
        pair's e2 layer with the classes of e1's ends in e2's label cells.
        The events of one layer ask for the same orbits."""
        if e1 == e2:
            key = e1[1][0] if self.symmetric else e1
        elif self.symmetric:
            part = self._cells.get(e2) or self._cells.setdefault(e2, self._partition(e2))
            key = (e2[1][0], part.key(e1[0]), part.key(e1[1]))
        else:
            key = (e1, e2)
        p = self._absent.get(key)
        if p is None:
            if e1 == e2:
                p = _power_product((n, 1 - self.x_of(f) * v)
                                   for n, f, v in self._trigger_groups(e1))
            elif p := self.pair_absent(e1, e1) * self.pair_absent(e2, e2):
                # the shared triggers, walked from the edge nearer the source
                a, b = sorted((e1, e2), key=lambda e: e[1][0])
                shared = [(n, self.x_of(f), va, vb) for n, f, va in self._trigger_groups(a, b)
                          if (vb := self.family.value(f, b))]
                p *= _power_product(
                    (n, (1 - xf * (va + vb - va * vb)) / ((1 - xf * va) * (1 - xf * vb)))
                    for n, xf, va, vb in shared)
            self._absent[key] = p
        return p

    def survival(self, e: Edge) -> Fraction:
        """P[e not in A]."""
        return self.pair_absent(e, e)

    def marginal(self, e: Edge) -> Fraction:
        return 1 - self.pair_absent(e, e)

    def pair_probability(self, e1: Edge, e2: Edge) -> Fraction:
        """P[e1 in A and e2 in A]."""
        return 1 - self.pair_absent(e1, e1) - self.pair_absent(e2, e2) + self.pair_absent(e1, e2)

    def event_probability(self, event: "ConditionEvent") -> Fraction:
        s = self.pair_absent(event.edge, event.edge)
        return 1 - s if event.positive else s

    def _given(self, event: "ConditionEvent") -> Fraction:
        """P[event], the divisor of a conditional value; a null event raises."""
        p = self.event_probability(event)
        if p == 0:
            raise InstanceError("conditioning on a null event")
        return p

    def conditional_probability(self, e: Edge, event: "ConditionEvent") -> Fraction:
        """P[e in A | event], by inclusion-exclusion over ``pair_absent``:
        P[e in A, e1 not in A] is P[e1 not in A] - P[e, e1 not in A]."""
        joint = self.pair_absent(event.edge, event.edge) - self.pair_absent(e, event.edge)
        return (self.marginal(e) - joint if event.positive else joint) / self._given(event)

    def expected_multiplicity(self, e: Edge,
                              event: "ConditionEvent | None" = None) -> Fraction:
        """E[n_e | event], n_e counting activations with multiplicity."""
        if event is None:
            return sum((n * self.x_of(f) * v for n, f, v in self._trigger_groups(e)),
                       Fraction(0))
        denom = self._given(event)
        e1 = event.edge
        s1 = self.survival(e1)
        total = Fraction(0)
        for n, f, v in self._trigger_groups(e, e1):
            xf = self.x_of(f)
            if e1 == e:
                q = Fraction(0)           # e in S_f forces e1 in A
            elif v1 := self.family.value(f, e1):
                q = s1 * (1 - v1) / (1 - xf * v1)
            else:
                q = s1
            total += n * xf * v * (q if not event.positive else 1 - q)
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


def support_entries(inst: LabeledInstance) -> int:
    """The entries of the sampler's support rows on :func:`shadow_model`,
    counted in closed form: a trigger into layer 1 activates itself, the
    delta_1^+ edges out of its head and the delta_2^+ edges out of each of
    those; one into layer 2 itself and the delta_2^+ edges out of its head;
    a deeper one only itself."""
    dp, into = inst.profile.delta_plus, inst.n_edges_into
    return inst.n_edges + into(1) * dp[1] * (1 + dp[2]) + into(2) * dp[2]


def independent_model(inst: LayeredInstance, x=None) -> ShadowModel:
    return ShadowModel(inst, x or assignment_solution(inst), IndependentFamily(inst))


def _event_moments(model: ShadowModel, event: ConditionEvent | None) -> ClassSums:
    """Joint edge probabilities P[e in A and event] and their vertex in/out
    sums under one event (None: the marginals), over the label cells of the
    event edge e1 on a symmetric model (Gatermann & Parrilo 2004), else over
    single vertices.  With s1 = P[e1 not in A] and a(e) = pair_absent(e, e1),
    a joint value is marginal(e) - s1 + a(e) under a positive event and
    s1 - a(e) under a negative one: a vertex's sums come from its marginal
    sums, its degrees and its sums of a, kept once per orbit of e1 for both
    signs (its layer on a symmetric model: S_m maps the cells of one edge of
    a layer onto another's, class keys kept)."""
    tables = model._tables
    if None not in tables:
        tables[None] = ClassSums(model._partition(), model.marginal)
    if event is None:
        return tables[None]
    e1, inst, part = event.edge, model.inst, model._partition(event.edge)
    key = e1[1][0] if model.symmetric else e1
    if key not in tables:
        tables[key] = ClassSums(part, lambda e: model.pair_absent(e, e1))
    marginals, absent, s1 = tables[None], tables[key], model.survival(e1)

    def joint(marginal, a, n):          # the joint sum of n edges
        d = a - s1 * n
        return marginal + d if event.positive else -d

    def sums(cls):
        v = part.rep(cls)
        return tuple(map(joint, marginals.vertex(v), absent.class_sums(cls),
                         (inst.in_degree(v), inst.out_degree(v))))
    return ClassSums(part, lambda e: joint(model.marginal(e), absent.pair(*map(part.key, e)), 1),
                     sums)


def conditional_report(model: ShadowModel, event: ConditionEvent | None) -> MomentReport:
    """Marginal and conditional probability of every edge, and every
    vertex's conditional out-sum (non-sinks) and in-sum (non-sources)."""
    inst = model.inst
    p = 1 if event is None else model._given(event)
    moments = _event_moments(model, event)
    marg = {e: model.marginal(e) for e in inst.all_edges()}
    cond = {e: moments.edge(e) / p for e in marg}
    v_out = {v: moments.vertex(v)[1] / p for i in range(inst.ell) for v in inst.vertices(i)}
    v_in = {v: moments.vertex(v)[0] / p
            for i in range(1, inst.ell + 1) for v in inst.vertices(i)}
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
    floor and all conditional in-degrees stay below the ceiling.  Both are
    read off the joint sums: P[ev] cancels from a slack once the source's
    in-flow is P[ev], and divides each event's largest in-flow once.

    ``events=None`` is every edge with both signs; on a symmetric model the
    first edge into each layer stands for, and is counted as, each edge into it.
    """
    inst = model.inst
    floor = Fraction(covering_slack_floor)
    ceiling = Fraction(packing_ceiling)
    per_edge = events is None and model.symmetric
    if events is None:
        edges = inst.first_edges() if per_edge else inst.all_edges()
        events = [ConditionEvent(e, sign) for e in edges for sign in (True, False)]
    rep = ViolationReport()
    min_cov = None
    max_pack = None
    worst_cov = worst_pack = None
    skipped = checked = 0
    # an event of an orbit met before (on a symmetric model, its layer and
    # sign: S_m maps those events onto each other), like a vertex of a class
    # met before, repeats its values, so the strict comparisons below, which
    # keep the first event and vertex in order to reach an extreme, skip it
    evaluated = set()
    for ev in events:
        n = inst.n_edges_into(ev.edge[1][0]) if per_edge else 1
        p = model.event_probability(ev)
        if p == 0:
            skipped += n
            continue
        checked += n
        orbit = (ev.edge[1][0], ev.positive) if model.symmetric else ev
        if orbit in evaluated:
            continue
        evaluated.add(orbit)
        moments = _event_moments(model, ev)
        top = None                      # the event's largest in-flow, first in order
        for i in range(inst.ell + 1):
            for v, (inflow, out) in moments.first_vertices(i):
                if v == inst.source:
                    inflow = p
                elif top is None or inflow > top[0]:
                    top = inflow, v
                if i < inst.ell and inflow > 0:
                    slack = out / (as_fraction(inst.k_of(v)) * inflow)
                    if min_cov is None or slack < min_cov:
                        min_cov, worst_cov = slack, (ev.label(), v)
        if top is not None:
            pack = top[0] / p
            if max_pack is None or pack > max_pack:
                max_pack, worst_pack = pack, (ev.label(), top[1])
    if min_cov is not None:
        rep.add(check_ge("sa1:min-covering-slack", min_cov, floor))
    if max_pack is not None:
        rep.add(check_le("sa1:max-packing-sum", max_pack, ceiling))
    return SA1Report(checked, skipped, min_cov, max_pack, worst_cov, worst_pack,
                     rep.ok, rep)


# ---------------------------------------------------------------------------
# Monte Carlo


# A block of B samples holds B x n masks of about this many elements, so
# its arrays stay small, whatever n: at m=8 (B=37) each is under 128 KiB,
# and sampling takes no more peak memory than one sample at a time did.
_BLOCK_ELEMENTS = 1 << 15

# Philox keys are two 64-bit words; a seed below this bound is one exactly.
SEED_LIMIT = 1 << 63


def check_seed(seed: int) -> int:
    """``seed`` itself if it lies in [0, 2^63), so that it keys its own
    streams; otherwise ``ValueError``."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed {seed} is outside [0, 2^63)")
    return seed


class _SupportArrays:
    """Every trigger's support as CSR rows over the edges in ``all_edges``
    order: row f lists the indices and float values of
    ``family.support(f)``, in that order, so one sample's draws for all its
    triggers are one contiguous stretch of its stream."""

    def __init__(self, model: ShadowModel):
        self.edges = list(model.inst.all_edges())
        self.index = {e: i for i, e in enumerate(self.edges)}
        self.thresholds = np.array([float(model.x_of(e)) for e in self.edges])
        # support values repeat as shared objects: convert each one once,
        # keyed by identity and kept alive so no id is reused meanwhile
        floats: dict[int, tuple[Fraction, float]] = {}
        indptr, indices, probs = [0], [], []
        for f in self.edges:
            for e, val in model.family.support(f):
                indices.append(self.index[e])
                hit = floats.get(id(val))
                if hit is None:
                    hit = floats[id(val)] = (val, float(val))
                probs.append(hit[1])
            indptr.append(len(indices))
        self.indptr = np.array(indptr, dtype=np.int64)
        self.indices = np.array(indices, dtype=np.int64)
        self.probs = np.array(probs)
        self.block = max(1, _BLOCK_ELEMENTS // len(self.edges))

    def draw(self, seed: int, start: int, stop: int, rounds: int):
        """Samples start..stop-1 as one block of B: the B x n shadow mask,
        the CSR positions the last round drew (sample-major, each sample's
        triggers ascending) with their outcomes, and the B x n mask of the
        edges that round activated.

        Sample i draws from its own Philox stream keyed by (seed, i): n
        uniforms for its shadow, then per round one for each CSR position
        of its triggers.  Philox is counter-based, so these are the numbers
        one ``random`` call per stretch of ``Philox(key=[seed, i])`` yields,
        however the samples are grouped (Salmon et al., SC 2011).
        """
        n, b = len(self.edges), stop - start
        bitgen = np.random.Philox(key=np.array([seed, start], dtype=np.uint64))
        gen = np.random.Generator(bitgen)
        fresh = bitgen.state            # a copy: re-keyed per sample below
        key = fresh["state"]["key"]
        u = np.empty(n)
        shadow = np.empty((b, n), dtype=bool)
        states = []
        for row, i in zip(shadow, range(start, stop)):
            key[1] = i
            bitgen.state = fresh
            gen.random(out=u)
            np.less(u, self.thresholds, out=row)
            states.append(bitgen.state)
        active = shadow
        for r in range(rounds):
            owner, trig = np.nonzero(active)
            starts = self.indptr[trig]
            lens = self.indptr[trig + 1] - starts
            pos = np.repeat(starts - np.cumsum(lens) + lens, lens)
            pos += np.arange(len(pos))
            owner = np.repeat(owner, lens)
            draws = np.empty(len(pos))
            lo = 0
            for k, hi in enumerate(np.cumsum(np.bincount(owner, minlength=b)).tolist()):
                if hi > lo:
                    bitgen.state = states[k]
                    gen.random(out=draws[lo:hi])
                    if r + 1 < rounds:
                        states[k] = bitgen.state
                lo = hi
            hit = draws < self.probs[pos]
            active = np.zeros((b, n), dtype=bool)
            active[owner[hit], self.indices[pos[hit]]] = True
        return shadow, pos, hit, active


def _deviation(got: float, p: float, n: int) -> float:
    dev = abs(got - p)
    se = math.sqrt(p * (1 - p) / n)
    if se == 0:
        return math.inf if dev else 0.0
    return dev / se


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

    def marginal_deviation(self, e: Edge, p: float) -> float:
        """|empirical - p| in standard errors of the exact marginal p,
        sqrt(p (1 - p) / n).  Where p is 0 or 1 that error is 0, and any
        mismatch is an infinite deviation."""
        return _deviation(self.marginal(e), p, self.n_samples)

    def conditional(self, ev_label: str, e: Edge) -> float | None:
        n = self.event_counts.get(ev_label, 0)
        if n == 0:
            return None
        return self.event_joint.get((ev_label, e), 0) / n

    def conditional_deviation(self, ev_label: str, e: Edge, p: float) -> float | None:
        """As ``marginal_deviation``, for e given the event, over the event's
        occurrences; None when the event never occurred."""
        n = self.event_counts.get(ev_label, 0)
        return _deviation(self.conditional(ev_label, e), p, n) if n else None

    def mean_multiplicity(self, e: Edge) -> float:
        return self.mult_sums[e] / self.n_samples


def sample(model: ShadowModel, seed: int, n_samples: int, rounds: int = 1,
           events: list[ConditionEvent] | None = None) -> EmpiricalReport:
    """Seeded, reproducible draws from the shadow process.

    Each sample uses its own counter-based stream keyed by (seed, index),
    with the seed in [0, 2^63), so results do not depend on how the samples
    are grouped into the blocks drawn.  ``rounds`` > 1 iterates the trigger
    step (exploratory only; the exact engine covers rounds=1).
    """
    check_seed(seed)
    arrays = model._support_arrays
    edges, index = arrays.edges, arrays.index
    events = events or []
    ev_labels = [ev.label() for ev in events]
    ev_edges = np.array([index[ev.edge] for ev in events], dtype=np.int64)
    ev_signs = np.array([ev.positive for ev in events], dtype=bool)
    counts = np.zeros(len(edges), dtype=np.int64)
    mult_sums = np.zeros(len(edges), dtype=np.int64)
    ev_counts = np.zeros(len(events), dtype=np.int64)
    event_joint = np.zeros((len(events), len(edges)), dtype=np.int64)
    for start in range(0, n_samples, arrays.block):
        stop = min(start + arrays.block, n_samples)
        _, pos, hit, present = arrays.draw(seed, start, stop, rounds)
        counts += present.sum(axis=0)
        mult_sums += np.bincount(arrays.indices[pos[hit]], minlength=len(edges))
        happened = present[:, ev_edges] == ev_signs
        ev_counts += happened.sum(axis=0)
        event_joint += happened.T.astype(np.int64) @ present
    event_counts = dict.fromkeys(ev_labels, 0)
    for lab, c in zip(ev_labels, ev_counts):
        event_counts[lab] += int(c)
    joint = {}
    for lab, row in zip(ev_labels, event_joint):
        for idx in np.flatnonzero(row):
            joint[(lab, edges[idx])] = int(row[idx])
    return EmpiricalReport(
        n_samples, seed, rounds,
        {e: int(c) for e, c in zip(edges, counts)},
        {e: int(c) for e, c in zip(edges, mult_sums)},
        event_counts, joint, edges)
