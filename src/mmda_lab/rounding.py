"""Layer-by-layer randomized rounding into prefix-closed path forests.

Each selected path is extended by every out-edge independently with the
layer's selection ratio gamma_i, so a path ending at layer i receives
gamma_i * delta_i^+ = k_i children in expectation.  Draws are keyed by
(seed, path, edge), which makes forests reproducible and independent of
evaluation order; irrational ratios are compared against the uniform
variate with certified interval arithmetic.
"""

from __future__ import annotations

import hashlib
import math
from collections import namedtuple
from fractions import Fraction

from .instances import InstanceError, LabeledInstance, LayeredInstance
from .scalars import LT, as_fraction, compare_certified, to_interval

_U_BITS = 128
# a forest stops growing past this many paths (and is flagged truncated)
FOREST_PATH_MAX = 500_000


def _uniform_bits(seed: int, path_key: str, edge_key: str) -> int:
    h = hashlib.blake2b(f"{seed}|{path_key}|{edge_key}".encode(),
                        digest_size=_U_BITS // 8)
    return int.from_bytes(h.digest(), "big")


class _Threshold:
    """Exact or bracketed acceptance threshold on the 128-bit lattice."""

    def __init__(self, gamma):
        self.gamma = gamma
        g = as_fraction(gamma)
        if g is not None:
            self.lo = self.hi = (g.numerator << _U_BITS) // g.denominator
            self.exact = g
        else:
            iv = to_interval(gamma, 192)
            self.lo = (iv.lo.numerator << _U_BITS) // iv.lo.denominator
            self.hi = -((-iv.hi.numerator << _U_BITS) // iv.hi.denominator)
            self.exact = None

    def select(self, u_bits: int) -> bool:
        """u < gamma for u = u_bits / 2^128, decided exactly."""
        if self.exact is not None:
            return u_bits * self.exact.denominator < self.exact.numerator << _U_BITS
        if u_bits < self.lo:
            return True
        if u_bits > self.hi:
            return False
        u = Fraction(u_bits, 1 << _U_BITS)
        return compare_certified(u, self.gamma) == "<"


def _path_key(path: tuple) -> str:
    return ">".join(f"{v[0]}.{v[1]}" for v in path)


# paths: vertex tuples, all starting at the source
SampledPathForest = namedtuple("SampledPathForest", "paths seed truncated inst")


def expected_forest_paths(inst: LabeledInstance) -> int:
    """The expected number of paths of a sampled forest, rounded: a path
    ending at layer i gets k_i children in expectation, so the paths ending
    at layer i number k_0 * ... * k_(i-1)."""
    total = run = 1.0
    for k in inst.profile.k:
        run *= k.approx()
        total += run
    return round(total)


def sample_forest(inst: LabeledInstance, seed: int,
                  path_limit: int = FOREST_PATH_MAX) -> SampledPathForest:
    thresholds = [_Threshold(inst.profile.gamma[i]) for i in range(inst.ell)]
    root = (inst.source,)
    paths = [root]
    frontier = [root]
    truncated = False
    for i in range(inst.ell):
        thr = thresholds[i]
        nxt = []
        for p in frontier:
            end = p[-1]
            pk = _path_key(p)
            for w in inst.out_neighbors(end):
                if thr.select(_uniform_bits(seed, pk, f"{w[0]}.{w[1]}")):
                    q = p + (w,)
                    nxt.append(q)
            if len(paths) + len(nxt) > path_limit:
                truncated = True
                break
        paths.extend(nxt)
        frontier = nxt
        if truncated:
            break
    return SampledPathForest(paths, seed, truncated, inst)


class LocalityAudit(namedtuple("LocalityAudit", "radius congestion_bound children "
                               "children_violations congestion congestion_violations "
                               "max_congestion")):
    """``children`` holds (path, count, k_p) for each path ending at a
    non-sink, ``congestion`` maps (path, vertex) to its count within the
    radius, and each ``*_violations`` lists the entries over their bound."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.children_violations and not self.congestion_violations

    def congestion_quantiles(self) -> dict:
        vals = sorted(self.congestion.values())
        if not vals:
            return {}
        pick = lambda q: vals[min(len(vals) - 1, int(q * len(vals)))]
        return {"p50": pick(0.5), "p90": pick(0.9), "p99": pick(0.99),
                "max": vals[-1]}


def default_congestion_bound(inst: LayeredInstance) -> float:
    return math.log2(max(inst.n_vertices, 4)) ** 11


def audit_locality(forest: SampledPathForest, radius: int) -> LocalityAudit:
    """Check the two locally-good conditions on a sampled forest.

    Children: every selected path ending at a non-sink should keep at
    least half its required out-degree.  Congestion: within the given
    radius below any path, no endpoint vertex may repeat more than the
    polylogarithmic bound.
    """
    inst = forest.inst
    if radius > inst.ell:
        raise InstanceError("radius exceeds the depth")
    bound = default_congestion_bound(inst)

    child_counts: dict[tuple, int] = {}
    for q in forest.paths:
        if len(q) >= 2:
            child_counts[q[:-1]] = child_counts.get(q[:-1], 0) + 1

    # fewer than half the requirement, 2*cnt < k_p, decided by a certified
    # comparison once per (layer, cnt); k_p depends only on the layer
    short: dict[tuple[int, int], bool] = {}
    children = []
    children_violations = []
    for p in forest.paths:
        end = p[-1]
        if inst.is_sink(end):
            continue
        kp = inst.k_of(end)
        cnt = child_counts.get(p, 0)
        children.append((p, cnt, kp))
        key = (end[0], cnt)
        if key not in short:
            short[key] = compare_certified(2 * cnt, kp) == LT
        if short[key]:
            children_violations.append((p, cnt, kp))

    congestion: dict[tuple, int] = {}
    for q in forest.paths:
        for back in range(1, min(radius, len(q) - 1) + 1):
            p = q[:-back]
            key = (p, q[-1])
            congestion[key] = congestion.get(key, 0) + 1
    congestion_violations = [(k, c) for k, c in congestion.items() if c > bound]
    max_c = max(congestion.values()) if congestion else 0
    return LocalityAudit(radius, bound, children, children_violations,
                         congestion, congestion_violations, max_c)


def audit_to_json(audit: LocalityAudit) -> dict:
    return {
        "radius": audit.radius,
        "congestion_bound": audit.congestion_bound,
        "paths_checked": len(audit.children),
        "children_violations": len(audit.children_violations),
        "congestion_pairs": len(audit.congestion),
        "congestion_violations": len(audit.congestion_violations),
        "max_congestion": audit.max_congestion,
        "quantiles": audit.congestion_quantiles(),
        "ok": audit.ok,
    }
