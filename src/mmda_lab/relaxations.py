"""Closed-form fractional solutions and their exact verification.

Everything here is a closed form evaluated in exact arithmetic: the
assignment-LP solution, the relocated-source subtree solutions of the
depth-3 instance, and the path-hierarchy solution.  Verifiers either
enumerate (small instances) or work class-by-class using the label
symmetry of the construction, in which case per-class worst cases are
taken from the monotone closed-form path counts, so both modes are exact.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import chain, islice

from .instances import (ClassSums, Edge, InstanceError, LabelCells,
                        LabeledInstance, LayeredInstance, Vertex, check_work)
from .reports import (ConstraintCheck, ViolationReport, check_eq, check_ge, check_le,
                      vacuous)
from .scalars import MONO_ONE, Monomial, Scalar, as_fraction

# verify_path_hierarchy enumerates at most this many paths: --mode auto
# verifies a larger count symbolically, --mode enumerated refuses it
PATH_ENUMERATION_MAX = 200_000

E0_TAIL = (-1, 0)


# ---------------------------------------------------------------------------
# edge solutions


class LayerSolution:
    """Edge values constant within each layer (index = endpoint layer)."""

    def __init__(self, inst: LayeredInstance, layer_values: list[Scalar]):
        self.inst = inst
        self.layer_values = layer_values   # index 1..ell; entry 0 unused

    def value(self, e: Edge) -> Scalar:
        return self.layer_values[e[1][0]]


def assignment_solution(inst: LabeledInstance) -> LayerSolution:
    """x_e = gamma_{i-1} * prod_{j<i} (gamma_{j-1} delta_j^-) on layer i."""
    prof = inst.profile
    values: list[Scalar] = [None]
    running = MONO_ONE
    for i in range(1, inst.ell + 1):
        gamma = prof.gamma[i - 1]
        values.append(gamma.mul(running))
        dm = prof.delta_minus[i]
        running = running.mul(gamma).mul(Monomial.from_int(dm))
    return LayerSolution(inst, values)


# ---------------------------------------------------------------------------
# assignment LP verification


def verify_assignment(inst: LabeledInstance, sol: LayerSolution) -> ViolationReport:
    """Certified check of the covering/packing/bounds constraints, one per
    layer: every edge of a layer carries the same value."""
    rep = ViolationReport()
    prof = inst.profile
    xs = sol.layer_values

    rep.add(check_ge("covering:source",
                     Monomial.from_int(prof.delta_plus[0]).mul(xs[1]), prof.k[0]))
    for i in range(1, inst.ell):
        lhs = Monomial.from_int(prof.delta_plus[i]).mul(xs[i + 1])
        inflow = Monomial.from_int(prof.delta_minus[i]).mul(xs[i])
        rhs = prof.k[i].mul(inflow)
        rep.add(check_ge(f"covering:layer{i}", lhs, rhs))
    for i in range(1, inst.ell + 1):
        inflow = Monomial.from_int(prof.delta_minus[i]).mul(xs[i])
        rep.add(check_le(f"packing:layer{i}", inflow, 1))
    for i in range(1, inst.ell + 1):
        rep.add(check_le(f"bounds:layer{i}", xs[i], 1, kind="bounds"))
    return rep


# ---------------------------------------------------------------------------
# subtree solutions (depth-3 construction only)


class SubtreeFamily:
    """Relocated-source solutions x^{(e)}, one per edge, x_e^{(e)} = 1."""

    def __init__(self, inst: LabeledInstance):
        if inst.params.epsilon != 1:
            raise InstanceError("subtree solutions are defined for the depth-3 form")
        self.inst = inst
        p = inst.params
        self.c_top = math.comb(p.m, p.rho_m)
        self.c_mid = math.comb(p.m - p.rho_m, p.rho_m)
        self.c_small = math.comb(2 * p.rho_m, p.rho_m)
        self.scale = Fraction(self.c_mid, self.c_top)
        self._label = inst.label
        # every support value is one of these shared objects, so a consumer
        # converting values can do each distinct one once
        self._zero, self._one = Fraction(0), Fraction(1)
        self._mid = Fraction(1, self.c_small)
        self._splits: dict[int, Fraction] = {}

    def sink_split(self, j: int) -> Fraction:
        """Value on a bottom edge whose sink meets the trigger label in j."""
        v = self._splits.get(j)
        if v is None:
            p = self.inst.params
            v = self._splits[j] = self.scale / math.comb(p.m - 2 * p.rho_m + j, j)
        return v

    def support(self, f: Edge):
        """Edges with x^{(f)} > 0, with their values."""
        inst = self.inst
        yield f, self._one
        layer_f = f[1][0]
        if layer_f == 1:
            v = f[1]
            lv = self._label(v)
            for w in inst.out_neighbors(v):
                yield (v, w), self._mid
                for t in inst.out_neighbors(w):
                    j = (self._label(t) & lv).bit_count()
                    yield (w, t), self.sink_split(j)
        elif layer_f == 2:
            for t in inst.out_neighbors(f[1]):
                yield (f[1], t), self._one

    def value(self, f: Edge, e: Edge) -> Fraction:
        """x_e^{(f)} in closed form, as :meth:`support` lists it: below a
        layer-1 trigger, a bottom edge's value is read off its labels."""
        if e == f:
            return self._one
        if e[0] == f[1]:
            return self._mid if f[1][0] == 1 else self._one
        if f[1][0] == 1 and e[1][0] == 3:
            lv = self._label(f[1])
            if self._label(e[0]) & lv == lv:
                return self.sink_split((self._label(e[1]) & lv).bit_count())
        return self._zero


def verify_subtree(fam: SubtreeFamily, f: Edge) -> ViolationReport:
    """Certified check of the relocated solution x^{(f)}: the assignment
    constraints with the covering obligation moved to f's head, whose
    demand multiplier is max(in-flow, 1).

    The values are constant on the label cells of f's ends (the Johnson
    scheme, Delsarte 1973), so each class pair is evaluated once, at its
    representative edge, and each class's in/out sums are count times
    value.  Bounds are checked on each distinct value, packing at every
    class with in-flow, covering at the non-root, non-sink ones with
    in-flow.  Only the root's class and the classes below it can have
    in-flow; they are visited in rank order after the tail's class, whose
    sums meet the value 0 first, as a visit of every class does.
    """
    inst = fam.inst
    root = f[1]
    part = LabelCells(inst, map(inst.label, f))
    sums = ClassSums(part, lambda e: fam.value(f, e))
    rep = ViolationReport()
    # the sums of the visited classes evaluate their class pairs into sums.values
    flows = [(part.rep(c), sums.class_sums(c)) for c in sorted(
        [part.key(f[0]), *class_path_counts(part, part.key(root))], key=part.rep)]
    # values repeat as shared objects: test each once
    for val in {id(v): v for v in sums.values.values()}.values():
        rep.add(check_ge(f"bounds:{val}>=0", val, 0, kind="bounds"))
        rep.add(check_le(f"bounds:{val}<=1", val, 1, kind="bounds"))
    if not inst.is_sink(root):
        inflow, out = sums.vertex(root)
        rep.add(check_ge(f"covering:root{root}", out,
                         as_fraction(inst.k_of(root)) * max(inflow, Fraction(1))))
    for v, (inflow, out) in flows:
        if inflow > 0:
            rep.add(check_le(f"packing:{v}", inflow, 1))
            if v != root and not inst.is_sink(v):
                rep.add(check_ge(f"covering:{v}", out, as_fraction(inst.k_of(v)) * inflow))
    return rep


# ---------------------------------------------------------------------------
# path hierarchy


class PathSolution:
    """y(p) = x_{first edge} * prod of per-layer selection ratios.

    The value of a path only depends on the layer its first edge enters
    and its edge count, so the solution is stored in closed form; paths
    themselves are enumerated only on demand (and only when the total
    count fits under the cap).
    """

    def __init__(self, inst: LabeledInstance, rounds: int):
        if rounds < 0:
            raise InstanceError(f"rounds={rounds} must be non-negative")
        if rounds > inst.ell:
            raise InstanceError("rounds exceed instance depth")
        self.inst = inst
        self.rounds = rounds
        self.max_len = rounds + 1
        self.x = assignment_solution(inst)
        self.dummy = (E0_TAIL, inst.source)
        self._classes: dict[tuple[int, int], Scalar] = {}
        self._shared: dict[Scalar, Scalar] = {}

    def shared(self, y: Scalar) -> Scalar:
        """y as the one object kept for its value: equal check operands match by identity."""
        return self._shared.setdefault(y, y)

    def value_class(self, first_layer: int, n_edges: int) -> Scalar:
        """Value of any path of n_edges edges whose first edge enters
        first_layer (0 = the dummy root edge)."""
        key = (first_layer, n_edges)
        y = self._classes.get(key)
        if y is None:
            gamma = self.inst.profile.gamma
            y = MONO_ONE if first_layer == 0 else self.x.layer_values[first_layer]
            for j in range(first_layer, first_layer + n_edges - 1):
                y = y.mul(gamma[j])
            self._classes[key] = y = self.shared(y)
        return y

    def value(self, path: tuple) -> Scalar:
        first = path[0]
        layer = 0 if first == self.dummy else first[1][0]
        return self.value_class(layer, len(path))

    # enumeration ---------------------------------------------------------
    def path_count(self) -> int:
        """Exact number of paths with 1..max_len edges (dummy-rooted included)."""
        inst = self.inst
        prof = inst.profile
        total = 0
        # paths whose first edge enters layer i: start vertex in layer i-1
        for i in range(1, inst.ell + 1):
            run = inst.layer_size(i - 1)
            for length in range(1, self.max_len + 1):
                end = i + length - 1
                if end > inst.ell:
                    break
                run *= prof.delta_plus[end - 1]
                total += run
        # dummy-rooted: the dummy edge plus up to max_len - 1 real edges
        total += 1
        run = 1
        for r in range(1, self.max_len):
            run *= prof.delta_plus[r - 1]
            total += run
        return total

    def enumerate_paths(self):
        inst = self.inst
        # the dummy root first, then every real vertex in layer order; each
        # root's paths come out breadth-first
        starts = chain([[(self.dummy,)]],
                       ([((v, w),) for w in inst.out_neighbors(v)]
                        for i in range(inst.ell) for v in inst.vertices(i)))
        for frontier in starts:
            yield from frontier
            for _ in range(self.max_len - 1):
                nxt = []
                for p in frontier:
                    end = p[-1][1]
                    nxt.extend(p + ((end, w),) for w in inst.out_neighbors(end))
                yield from nxt
                frontier = nxt


def path_solution(inst: LabeledInstance, rounds: int) -> PathSolution:
    return PathSolution(inst, rounds)


# ---------------------------------------------------------------------------
# exact path counting


def count_paths_from(inst: LabeledInstance, v: Vertex) -> dict:
    """Exact path counts from v to every descendant, one forward pass."""
    out = {}
    for layer in inst.frontiers(v):
        out.update(layer)
    return out


def class_path_counts(part, start) -> dict:
    """Paths from a vertex of class ``start`` to any one vertex of each
    class of ``part`` it reaches: count(c) = sum of n * count(c') over the
    classes c' above c holding n in-neighbours of a vertex of c."""
    counts, layer = {start: 1}, [start]
    for j in range(start[0] + 1, part.inst.ell + 1):
        layer = list(dict.fromkeys(c for b in layer for c, _ in part.neighbours(b, j)))
        for c in layer:
            counts[c] = sum(n * counts.get(b, 0) for b, n in part.neighbours(c, j - 1))
    return counts


def count_paths(inst: LabeledInstance, v: Vertex, u: Vertex) -> int:
    """Exact number of directed paths from v to u (1 when v == u)."""
    if not inst.reachable(v, u):
        return 0
    # pruned to the vertices that still reach u, unlike count_paths_from
    walk = inst.frontiers(v, keep=lambda z: inst.reachable(z, u))
    return next(islice(walk, u[0] - v[0], None)).get(u, 0)


def closed_form_paths(inst: LabeledInstance, i: int, j: int,
                      label_overlap: int) -> int:
    """Path count between layers i and j from the label data alone.

    ``label_overlap`` is |S_v cap S_u|.  Within a single phase the count
    only depends on (i, j) (labels must nest); across the peak it depends
    on the union size.
    """
    p = inst.params
    if not (0 <= i <= j <= inst.ell):
        raise InstanceError("bad layer pair")
    si, sj = p.label_size(i), p.label_size(j)
    if label_overlap > min(si, sj) or label_overlap < 0:
        raise InstanceError("impossible overlap")
    if not inst.linked(i, j, label_overlap):
        return 0
    step = p.step
    peak = p.peak_layer

    def orderings(blocks: int) -> int:
        return math.factorial(blocks * step) // math.factorial(step) ** blocks

    if j <= peak or i >= peak:
        return orderings(j - i)
    # across the peak: the peak label contains the union of both labels
    union = si + sj - label_overlap
    middle = math.comb(p.m - union, 2 * p.rho_m - union)
    return middle * orderings(j - peak) * orderings(peak - i)


def max_paths_between_layers(inst: LabeledInstance, i: int, j: int) -> int:
    """Largest path count over vertex pairs (v in L_i, u in L_j).

    The cross-peak count decreases as the label union grows, so the
    maximum is attained at the smallest feasible union, i.e. nested
    labels (overlap = min of the two label sizes).
    """
    p = inst.params
    si, sj = p.label_size(i), p.label_size(j)
    return closed_form_paths(inst, i, j, min(si, sj))


def lifted_packing(inst: LabeledInstance,
                   distance: int) -> dict[tuple[int, int], ConstraintCheck]:
    """The lifted packing rows, one per layer pair (i, j) with
    j - i <= distance, in (i, j) order: the worst-case path count times
    the value ratio gamma_i ... gamma_{j-1} is at most 1."""
    prof = inst.profile
    rows = {}
    for i in range(inst.ell + 1):
        ratio = MONO_ONE
        for j in range(i, min(inst.ell, i + distance) + 1):
            if j > i:
                ratio = ratio.mul(prof.gamma[j - 1])
            count = max_paths_between_layers(inst, i, j)
            rows[i, j] = check_le(f"lifted-packing:({i},{j})",
                                  ratio.mul(Monomial.from_int(count)), 1)
    return rows


HelperLemmaReport = namedtuple("HelperLemmaReport", "report largest_distance xi_max")


def check_helper_lemma(inst: LabeledInstance, xi: Fraction) -> HelperLemmaReport:
    """The lifted packing rows up to distance xi*ell; the largest distance
    is the last one before the first failing row, the rounds frontier of
    the symbolic path verifier capped at xi*ell."""
    xi = Fraction(xi)
    if not 0 < xi <= 1:
        raise InstanceError("xi must lie in (0, 1]")
    d_cap = int(xi * inst.ell)
    rows = lifted_packing(inst, d_cap)
    failing = [j - i for (i, j), c in rows.items() if not c.satisfied]
    best = min(failing, default=d_cap + 1) - 1
    return HelperLemmaReport(ViolationReport(list(rows.values())), best,
                             Fraction(best, inst.ell))


# ---------------------------------------------------------------------------
# path hierarchy verification


def verify_path_hierarchy(inst: LabeledInstance, ps: PathSolution,
                          mode: str = "auto") -> ViolationReport:
    if mode == "auto":
        mode = "enumerated" if ps.path_count() <= PATH_ENUMERATION_MAX else "symbolic"
    if mode == "enumerated":
        check_work(f"{inst.params}, rounds={ps.rounds}", ps.path_count(), "paths",
                   PATH_ENUMERATION_MAX)
        return _verify_paths_enumerated(inst, ps)
    if mode == "symbolic":
        return _verify_paths_symbolic(inst, ps)
    raise ValueError(f"unknown mode {mode!r}")


def _verify_paths_symbolic(inst: LabeledInstance, ps: PathSolution) -> ViolationReport:
    """Class-by-class verification using the label symmetry.

    Within a class (start layer, length) every path has the same value
    and the same constraint geometry, and the lifted packing worst case
    over vertex pairs is the monotone closed-form maximum, so these
    checks cover every individual constraint.
    """
    rep = ViolationReport()
    prof = inst.profile

    # (1) lifted covering: children sum equals k at the endpoint, per layer
    for io in range(inst.ell):
        lhs = prof.gamma[io].mul(Monomial.from_int(prof.delta_plus[io]))
        rep.add(check_eq(f"lifted-covering:end-layer{io}", lhs, prof.k[io]))
    rep.add(vacuous("lifted-covering:end-sink", "equality", 0, 0))

    # (2) lifted packing: worst path count times the value ratio, per (i, j)
    rep.checks.extend(lifted_packing(inst, ps.rounds).values())

    # (3)+(4) unlifted assignment constraints for y({e}) = x_e
    rep.merge(verify_assignment(inst, ps.x))

    # (5) consistency: extending a path in front multiplies by 1/delta^-,
    # extending at the back multiplies by gamma; both factors are <= 1
    for i in range(inst.ell):
        rep.add(check_le(f"consistency:gamma{i}", prof.gamma[i], 1))
    for i in range(1, inst.ell + 1):
        rep.add(check_ge(f"consistency:delta-minus{i}", prof.delta_minus[i], 1,
                         kind="bounds"))

    # (6) root normalization
    rep.add(check_eq("root", ps.value((ps.dummy,)), 1))

    # (7) bounds, per (start layer, length) class
    for i in range(0, inst.ell + 1):
        for length in range(1, ps.max_len + 1):
            if i + length - 1 > inst.ell:
                break
            y = ps.value_class(i, length)
            rep.add(check_le(f"bounds:class({i},{length})", y, 1, kind="bounds"))
            rep.add(check_ge(f"positive:class({i},{length})", y, 0, kind="bounds"))
    return rep


def _verify_paths_enumerated(inst: LabeledInstance, ps: PathSolution) -> ViolationReport:
    """Explicit checker; path values within a sum always share a class
    (they end at the same vertex with the same length), so sums are
    count-times-value and stay exact even when values are irrational."""
    rep = ViolationReport()
    t = ps.rounds
    paths = list(ps.enumerate_paths())
    # each path's id is written by several checks: build it once, here,
    # so the names die with this call
    names = {id(p): _pid(p) for p in paths}
    by_prefix: dict[tuple, list[tuple]] = {}
    for p in paths:
        if len(p) > 1:
            by_prefix.setdefault(p[:-1], []).append(p)

    # each product is built once and shared by value (see PathSolution.shared)
    scaled = cache(lambda y, count: ps.shared(y.mul(Monomial.from_int(count))))
    k_times = cache(lambda k, y: ps.shared(k.mul(y)))

    # (1) lifted covering
    for p in paths:
        if len(p) > t:
            continue
        end = p[-1][1]
        children = by_prefix.get(p, [])
        if inst.is_sink(end):
            assert not children
            rep.add(vacuous(f"lifted-covering:{names[id(p)]}", "equality", 0, 0))
            continue
        child = ps.value(p + ((end, inst.out_neighbors(end)[0]),))
        total = scaled(child, len(children))
        rhs = k_times(inst.k_of(end), ps.value(p))
        rep.add(check_eq(f"lifted-covering:{names[id(p)]}", total, rhs))

    # (2) lifted packing: group descendants of p by endpoint; value only
    # depends on the endpoint's layer, so per-endpoint sums are counts
    for p in paths:
        budget = ps.max_len - len(p)
        if budget < 0:
            continue
        ends: dict[Vertex, int] = {p[-1][1]: 1}
        frontier = [p]
        for _ in range(budget):
            nxt = []
            for q in frontier:
                for r in by_prefix.get(q, []):
                    nxt.append(r)
                    ends[r[-1][1]] = ends.get(r[-1][1], 0) + 1
            frontier = nxt
        first_layer = 0 if p[0] == ps.dummy else p[0][1][0]
        for v, count in sorted(ends.items()):
            extension = v[0] - p[-1][1][0]
            total = scaled(ps.value_class(first_layer, len(p) + extension), count)
            rep.add(check_le(f"lifted-packing:{names[id(p)]}@{v}", total, ps.value(p)))

    # (3)+(4) unlifted constraints
    rep.merge(verify_assignment(inst, ps.x))

    # (5) consistency for contiguous subpaths; q[a:b] is valued by the
    # layer its first edge enters and its length
    for q in paths:
        if q[0] == ps.dummy:
            continue
        yq = ps.value(q)
        for a in range(len(q)):
            for b in range(a + 1, len(q) + 1):
                if (a, b) == (0, len(q)):
                    continue
                rep.add(check_le(f"consistency:{names[id(q)]}[{a}:{b}]", yq,
                                 ps.value_class(q[a][1][0], b - a)))

    # (6) + (7)
    rep.add(check_eq("root", ps.value((ps.dummy,)), 1))
    for p in paths:
        rep.add(check_le(f"bounds:{names[id(p)]}", ps.value(p), 1, kind="bounds"))
    return rep


def _pid(p: tuple) -> str:
    verts = [p[0][0]] + [e[1] for e in p]
    return ">".join("e0" if v == E0_TAIL else f"{v[0]}.{v[1]}" for v in verts)
