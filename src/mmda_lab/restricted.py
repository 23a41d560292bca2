"""Restricted-assignment allocation: the uniform-matching distribution,
canonical-instance transformation, and the lifted-to-assignment mapping.

Resources carry fixed values; each player can only receive resources from
its eligibility set.  The instance family here has k+1 players sharing k
unit-value resources plus one personal small resource of value 3*eps
each, and the uniform matching of the unit resources survives eps*k
rounds of conditioning while the integral optimum stays at 3*eps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .reports import ViolationReport, check_ge, check_le


@dataclass(frozen=True)
class RAInstance:
    players: tuple
    values: dict            # resource -> Fraction
    eligibility: dict       # player -> frozenset of resources
    target: Fraction

    def resources(self):
        return sorted(self.values)


@dataclass(frozen=True)
class MatchingInstance(RAInstance):
    k: int = 0
    eps: Fraction = Fraction(0)


def build_lower_bound(k: int, eps) -> MatchingInstance:
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(1, 3):
        raise ValueError("eps must lie in (0, 1/3]")
    if (eps * k).denominator != 1 or eps * k < 1:
        raise ValueError(f"eps*k={eps * k} must be a positive integer")
    players = tuple(f"p{i}" for i in range(1, k + 2))
    values = {f"s{i}": 3 * eps for i in range(1, k + 2)}
    values.update({f"b{j}": Fraction(1) for j in range(1, k + 1)})
    bigs = frozenset(f"b{j}" for j in range(1, k + 1))
    elig = {f"p{i}": frozenset({f"s{i}"}) | bigs for i in range(1, k + 2)}
    return MatchingInstance(players, values, elig, Fraction(1), k, eps)


def integral_optimum(inst: RAInstance):
    """Exhaustive max-min value over all assignments (small instances)."""
    res = inst.resources()
    choices = []
    for r in res:
        eligible = [p for p in inst.players if r in inst.eligibility[p]]
        choices.append(eligible)
    best = None
    best_assign = None
    for combo in itertools.product(*choices):
        totals = dict.fromkeys(inst.players, Fraction(0))
        for r, p in zip(res, combo):
            totals[p] += inst.values[r]
        low = min(totals.values())
        if best is None or low > best:
            best, best_assign = low, dict(zip(res, combo))
    return best, best_assign


@dataclass
class MatchingReport:
    conditioned: tuple
    per_player: dict
    min_value: Fraction
    meets_target: bool


def verify_matching_distribution(inst: MatchingInstance,
                                 conditioned_pairs=()) -> MatchingReport:
    """Exact conditional expected values under the uniform matching.

    ``conditioned_pairs`` fixes (player, big resource) assignments; with
    c of them fixed, every unconditioned player still gets expected value
    (k - c)/(1 + k - c) + 3*eps, and the report certifies the minimum
    against the target.
    """
    k, eps = inst.k, inst.eps
    pairs = tuple(conditioned_pairs)
    c = len(pairs)
    if c > eps * k:
        raise ValueError("conditioning exceeds the allowed eps*k pairs")
    players = {p for p, _ in pairs}
    bigs = {b for _, b in pairs}
    if len(players) != c or len(bigs) != c:
        raise ValueError("conditioned pairs must use distinct players and resources")
    for p, b in pairs:
        if b not in inst.eligibility[p] or inst.values[b] != 1:
            raise ValueError(f"pair ({p}, {b}) is not a valid big assignment")
    base = Fraction(k - c, 1 + k - c) + 3 * eps
    per = {}
    for p in inst.players:
        if p in players:
            per[p] = 1 + 3 * eps
        else:
            per[p] = base
    low = min(per.values())
    return MatchingReport(pairs, per, low, low >= inst.target)


def ra_instance_to_json(inst: RAInstance) -> dict:
    return {
        "players": [str(p) for p in inst.players],
        "resources": [{"name": str(r), "value": str(inst.values[r])}
                      for r in sorted(inst.values, key=str)],
        "eligibility": {str(p): sorted(str(r) for r in inst.eligibility[p])
                        for p in inst.players},
        "T": str(inst.target),
    }


# ---------------------------------------------------------------------------
# canonical instances


@dataclass(frozen=True)
class CanonicalInstance(RAInstance):
    bigs: frozenset = frozenset()           # resources of value target
    coupling: dict = field(default_factory=dict)    # orig player -> coupling resource
    split: dict = field(default_factory=dict)       # orig player -> (small side, big side)


def canonicalize(inst: RAInstance, alpha, T) -> CanonicalInstance:
    """Split every player into a small side and a big side joined by a
    coupling resource of value T; resources worth alpha*T or more become
    big resources of value exactly T."""
    alpha, T = Fraction(alpha), Fraction(T)
    if alpha < 1 or T <= 0:
        raise ValueError("alpha >= 1 and T > 0 required")
    big_orig = {r for r, v in inst.values.items() if v >= alpha * T}
    values = {}
    elig = {}
    coupling = {}
    split = {}
    bigs = set()
    for r, v in inst.values.items():
        values[r] = T if r in big_orig else v
        if r in big_orig:
            bigs.add(r)
    for p in inst.players:
        ps, pb = (p, "small"), (p, "big")
        c = ("c", p)
        values[c] = T
        bigs.add(c)
        coupling[p] = c
        split[p] = (ps, pb)
        elig[ps] = frozenset({c} | {r for r in inst.eligibility[p] if r not in big_orig})
        elig[pb] = frozenset({c} | {r for r in inst.eligibility[p] if r in big_orig})
    players = tuple(sorted(elig))
    return CanonicalInstance(players, values, elig, T, frozenset(bigs),
                             coupling, split)


# ---------------------------------------------------------------------------
# lifted witnesses and the four-constraint LP


@dataclass
class SAWitness:
    """One-round lifted values: singles y[(player, resource)] and pair
    values y2[(player, small resource)] joint with the player's single
    big resource."""

    singles: dict
    pairs: dict

    def validate(self, canon: CanonicalInstance):
        for key, v in self.singles.items():
            if not 0 <= v <= 1:
                raise ValueError(f"single {key} outside [0,1]")
        for (p, s), v in self.pairs.items():
            b = _single_big(canon, p)
            if v < 0 or v > min(self.singles.get((p, s), Fraction(0)),
                                self.singles.get((p, b), Fraction(0))):
                raise ValueError(f"pair {(p, s)} violates lift monotonicity")


def _single_big(canon: CanonicalInstance, p) -> str | None:
    bigs = [r for r in canon.eligibility[p] if r in canon.bigs]
    return bigs[0] if len(bigs) == 1 else None


def map_sa1_to_davies(canon: CanonicalInstance, y: SAWitness):
    """Project a one-round witness to the four-constraint assignment LP.

    x agrees with y on big resources; on small resources of a player with
    a single big b, x_{is} = y_{is} - y_{is,ib}.  A witness that truly
    satisfies one lifted round yields zero violations.
    """
    y.validate(canon)
    x = {}
    for p in canon.players:
        for r in canon.eligibility[p]:
            if r in canon.bigs:
                x[(p, r)] = y.singles.get((p, r), Fraction(0))
            else:
                joint = y.pairs.get((p, r), Fraction(0))
                x[(p, r)] = y.singles.get((p, r), Fraction(0)) - joint
    rep = ViolationReport()
    for p in canon.players:
        total = sum((canon.values[r] * x[(p, r)] for r in canon.eligibility[p]),
                    Fraction(0))
        rep.add(check_ge(f"player-value:{p}", total, canon.target))
    loads: dict[str, Fraction] = {}
    for (p, r), v in x.items():
        loads[r] = loads.get(r, Fraction(0)) + v
        if v < 0:
            rep.add(check_ge(f"nonneg:{p}:{r}", v, Fraction(0)))
    for r in sorted(loads, key=str):
        rep.add(check_le(f"resource-load:{r}", loads[r], Fraction(1)))
    for p in canon.players:
        b = _single_big(canon, p)
        smalls = [r for r in canon.eligibility[p] if r not in canon.bigs]
        if b is None or not smalls:
            continue
        room = 1 - x[(p, b)]
        for s in smalls:
            rep.add(check_le(f"small-vs-big:{p}:{s}", x[(p, s)], room))
    return x, rep


def matching_lift(k: int, eps, alpha):
    """Exact one-round lift of the uniform-matching distribution on the
    instance canonicalized at target T = 1.

    With alpha above the unit value every original resource stays on
    the small side, the coupling always covers the big side, and the
    lifted witness genuinely satisfies one conditioning round; with
    alpha = 1 the bigs move to the big side and the witness fails the
    assignment LP (the transformation is doing its job).
    """
    inst = build_lower_bound(k, eps)
    canon = canonicalize(inst, alpha, 1)
    singles: dict = {}
    pairs: dict = {}
    p_match = Fraction(k, k + 1)
    p_big = Fraction(1, k + 1)
    bigs_raised = any(f"b{j}" in canon.bigs for j in range(1, k + 1))
    for i in range(1, k + 2):
        p = f"p{i}"
        ps, pb = canon.split[p]
        c = canon.coupling[p]
        singles[(ps, f"s{i}")] = Fraction(1)
        if bigs_raised:
            # matched player: big side takes the matched big, coupling
            # covers the small side; unmatched: coupling covers the big side
            for j in range(1, k + 1):
                singles[(pb, f"b{j}")] = p_big
            singles[(pb, c)] = 1 - p_match
            singles[(ps, c)] = p_match
            pairs[(ps, f"s{i}")] = p_match          # joint with the coupling
        else:
            for j in range(1, k + 1):
                singles[(ps, f"b{j}")] = p_big
            singles[(pb, c)] = Fraction(1)
            singles[(ps, c)] = Fraction(0)
            pairs[(ps, f"s{i}")] = Fraction(0)
    return canon, SAWitness(singles, pairs)
