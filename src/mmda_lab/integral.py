"""Integral arborescences: exact search on small instances and the
sink-accessibility counting certificate that bounds achievable quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, islice
from operator import or_

from .instances import InstanceError, InstanceParams, LayeredInstance, Vertex, _steps
from .scalars import Monomial, Scalar, as_fraction, compare_certified


def _ceil_frac(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


@dataclass(frozen=True)
class IntegralSolution:
    edges: frozenset

    def out_degree(self, v: Vertex) -> int:
        return sum(1 for e in self.edges if e[0] == v)

    def in_degree(self, v: Vertex) -> int:
        return sum(1 for e in self.edges if e[1] == v)

    def selected_vertices(self, inst: LayeredInstance) -> list[Vertex]:
        """Source plus every vertex with in-degree one."""
        ins = {e[1] for e in self.edges}
        return [inst.source] + sorted(ins)


@dataclass(frozen=True)
class SolutionQuality:
    alpha: Fraction


def solution_quality(inst: LayeredInstance, sol: IntegralSolution) -> SolutionQuality:
    """min over the source and covered non-sinks of out-degree / k_v."""
    best = None
    for v in sol.selected_vertices(inst):
        if inst.is_sink(v):
            continue
        kv = as_fraction(inst.k_of(v))
        ratio = Fraction(sol.out_degree(v)) / kv
        best = ratio if best is None else min(best, ratio)
    return SolutionQuality(best if best is not None else Fraction(0))


def single_path_solution(inst: LayeredInstance) -> IntegralSolution:
    """The trivial fallback: one source-to-sink path (out-degree one)."""
    edges = []
    v = inst.source
    while not inst.is_sink(v):
        w = inst.out_neighbors(v)[0]
        edges.append((v, w))
        v = w
    return IntegralSolution(frozenset(edges))


# ---------------------------------------------------------------------------
# branch and bound


class _Budget:
    def __init__(self, nodes: int):
        self.left = nodes

    def tick(self) -> bool:
        self.left -= 1
        return self.left >= 0


@dataclass
class BruteforceResult:
    solution: IntegralSolution
    quality: SolutionQuality
    complete: bool
    nodes_used: int


def _feasible(inst: LayeredInstance, q: Fraction, budget: _Budget,
              out_neighbors, reach_mask):
    """Search for an arborescence with out-degree >= q*k_v everywhere.

    ``out_neighbors`` and ``reach_mask`` (the bitmask of the sinks a vertex
    reaches) are memos shared by every quality probe of one search.
    Returns an edge set, None (proven infeasible), or "unknown" when the
    node budget ran out first.
    """
    demand_of = {v: _ceil_frac(q * as_fraction(inst.k_of(v)))
                 for i in range(inst.ell) for v in inst.vertices(i)}
    total_sinks = inst.layer_size(inst.ell)
    # need_from[i]: sinks a subtree rooted in layer i must contain, the
    # product of the smallest demand of layers i..ell-1 (that of the least k)
    need_from = [1] * (inst.ell + 1)
    for j in reversed(range(inst.ell)):
        need_from[j] = need_from[j + 1] * max(min(demand_of[u] for u in inst.vertices(j)), 1)

    used: set[Vertex] = set()
    used_sinks = [0]        # bitmask
    unknown = [False]

    def expand(pending: list[Vertex]) -> frozenset | None:
        if not budget.tick():
            unknown[0] = True
            return None
        if not pending:
            return frozenset()
        # global counting bound
        total_need = sum(need_from[v[0]] for v in pending)
        if total_need > total_sinks - used_sinks[0].bit_count():
            return None
        v = pending[0]
        rest = pending[1:]
        d = demand_of[v]
        if d == 0:
            return expand(rest)
        candidates = [w for w in out_neighbors(v) if w not in used]
        # per-vertex counting bound
        for u in pending:
            if (reach_mask(u) & ~used_sinks[0]).bit_count() < need_from[u[0]]:
                return None
        if len(candidates) < d:
            return None
        order = sorted(candidates, key=lambda w: (-reach_mask(w).bit_count(), w))
        for group in combinations(order, d):
            used.update(group)
            taken = sum(reach_mask(w) for w in group if inst.is_sink(w))
            used_sinks[0] |= taken
            sub = expand(rest + [w for w in group if not inst.is_sink(w)])
            if sub is not None:
                return sub | frozenset((v, w) for w in group)
            used.difference_update(group)
            used_sinks[0] ^= taken
            if unknown[0]:
                return None
        return None

    tree = expand([inst.source])
    if tree is not None:
        return tree
    return "unknown" if unknown[0] else None


def bruteforce_best(inst: LayeredInstance, budget: int = 2_000_000) -> BruteforceResult:
    """Best min-degree-ratio arborescence by candidate-quality search.

    Candidate qualities are the possible ratios d/k_v; feasibility of each
    is decided by a depth-first search with counting pruning.  When the
    budget runs out the best found solution is returned with the
    completeness flag cleared.
    """
    # a vertex adds the ratios d/k_v for d up to its out-degree: one set of
    # them per distinct (k_v, out-degree) pair
    pairs = {(inst.k_of(v), inst.out_degree(v)) for i in range(inst.ell) for v in inst.vertices(i)}
    ratios = set()
    for k, degree in pairs:
        kv = as_fraction(k)
        if kv is None:
            raise InstanceError("the integral search needs rational requirements")
        ratios.update(Fraction(d) / kv for d in range(1, degree + 1))
    cap = min(Fraction(degree) / as_fraction(k) for k, degree in pairs)
    candidates = sorted(r for r in ratios if r <= cap)
    bud = _Budget(budget)
    # sink sets as bitmasks over the sink layer: the used sinks a vertex
    # reaches are one AND with the used-sink mask, kept as sinks are used
    out_neighbors = cache(inst.out_neighbors)
    sink_bit = {t: 1 << n for n, t in enumerate(inst.vertices(inst.ell))}

    @cache
    def reach_mask(v: Vertex) -> int:
        if inst.is_sink(v):
            return sink_bit[v]
        return reduce(or_, map(reach_mask, out_neighbors(v)), 0)

    best_edges = single_path_solution(inst).edges
    best_q = solution_quality(inst, IntegralSolution(best_edges)).alpha
    complete = True

    lo = 0
    hi = len(candidates)
    # binary search over the candidate grid: find the top feasible quality
    while lo < hi:
        mid = (lo + hi) // 2
        q = candidates[mid]
        if q <= best_q:
            lo = mid + 1
            continue
        res = _feasible(inst, q, bud, out_neighbors, reach_mask)
        if res == "unknown":
            complete = False
            hi = mid
        elif res is None:
            hi = mid
        else:
            sol = IntegralSolution(res)
            best_q = solution_quality(inst, sol).alpha
            best_edges = res
            lo = mid + 1
    nodes_used = budget - bud.left
    return BruteforceResult(IntegralSolution(best_edges), SolutionQuality(best_q),
                            complete, nodes_used)


# ---------------------------------------------------------------------------
# counting certificate


@dataclass(frozen=True)
class CertificateVariant:
    threshold: int
    t1_size: int
    t2_size: int
    alpha_min: Scalar          # every feasible ratio-q solution has 1/q >= this
    quality_bound: Scalar      # q <= this


@dataclass(frozen=True)
class CountingCertificate:
    theta: Fraction
    variants: tuple

    def to_json(self) -> dict:
        from .scalars import scalar_to_json
        return {
            "theta": str(self.theta),
            "variants": [{
                "threshold": v.threshold,
                "t1_size": v.t1_size,
                "t2_size": v.t2_size,
                "alpha_min": scalar_to_json(v.alpha_min),
                "quality_bound": scalar_to_json(v.quality_bound),
            } for v in self.variants],
        }


def t1_count(m: int, rho_m: int, threshold: int) -> int:
    """Sinks whose label meets a fixed rho*m-label in >= threshold elements."""
    return sum(n for (j, _), n in _steps((0, 0), (rho_m, m - rho_m), rho_m, True)
               if j >= threshold)


def t2_count(rho_m: int, threshold: int) -> int:
    """Sinks below a fixed peak vertex meeting the label in < threshold."""
    return sum(n for (j, _), n in _steps((0, 0), (rho_m, rho_m), rho_m, True) if j < threshold)


def counting_certificate(p: InstanceParams) -> CountingCertificate:
    theta = p.rho / 3
    tm = theta * p.m
    thresholds = sorted({math.floor(tm), math.ceil(tm)})
    c1 = Monomial.from_binomial(p.m - p.rho_m, p.rho_m)
    c2 = Monomial.from_binomial(2 * p.rho_m, p.rho_m)
    eps = p.epsilon
    variants = []
    for j0 in thresholds:
        t1 = t1_count(p.m, p.rho_m, j0)
        t2 = t2_count(p.rho_m, j0)
        alpha1 = (c1.div(Monomial.from_int(2 * t1))).pow(eps / 2)
        if t2 > 0:
            alpha2 = (c2.div(Monomial.from_int(2 * t2))).pow(eps)
            alpha = alpha1 if compare_certified(alpha1, alpha2) != ">" else alpha2
        else:
            alpha = alpha1
        variants.append(CertificateVariant(j0, t1, t2, alpha, alpha.pow(-1)))
    return CountingCertificate(theta, tuple(variants))


# ---------------------------------------------------------------------------
# reachable-supply infeasibility


@dataclass(frozen=True)
class HallWitness:
    infeasible: bool
    depth: int | None
    demand: Fraction | None
    supply: int | None


def hall_infeasibility(inst: LayeredInstance, root: Vertex,
                       depth: int | None = None) -> HallWitness:
    """Counting obstruction to any subtree rooted at root.

    A tree with out-degree >= k everywhere needs prod(k) distinct
    vertices d layers below its root; when fewer are reachable, no such
    subtree (hence no fractional relocated solution of value 1) exists.
    """
    depth = depth if depth is not None else inst.ell - root[0]
    demand = Fraction(1)
    walk = islice(inst.frontiers(root), 1, depth + 1)
    for d, frontier in enumerate(walk, 1):
        kmin = min(as_fraction(inst.k_of(v)) for v in inst.vertices(root[0] + d - 1))
        demand *= kmin
        if len(frontier) < demand:
            return HallWitness(True, d, demand, len(frontier))
    return HallWitness(False, None, None, None)
