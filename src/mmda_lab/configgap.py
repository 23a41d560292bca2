"""Bundle-based relaxation of the private-block gap instance, and the
one-conditioning argument that defeats it.

The instance (see ``build_config_lp_gap``) admits a fractional bundle
solution of value 1 built from the block structure, while no integral
solution reaches past sqrt(k); conditioning on any first-layer edge
exposes the k^2-vs-k sink shortage, so a single lifted round closes
the gap.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .instances import ExplicitInstance, SantaView
from .integral import hall_infeasibility
from .reports import ViolationReport, check_ge, check_le
from .scalars import as_fraction


# a player, a frozenset of resources and its Fraction weight
ConfigEntry = namedtuple("ConfigEntry", "player bundle weight")


class ConfigSolution(namedtuple("ConfigSolution", "entries target")):
    """Weighted bundles (a list of ConfigEntry) meant to reach ``target``."""
    __slots__ = ()

    def player_weights(self) -> dict:
        out: dict = {}
        for e in self.entries:
            out[e.player] = out.get(e.player, Fraction(0)) + e.weight
        return out

    def resource_loads(self) -> dict:
        out: dict = {}
        for e in self.entries:
            for r in e.bundle:
                out[r] = out.get(r, Fraction(0)) + e.weight
        return out


def build_config_solution(inst: ExplicitInstance) -> ConfigSolution:
    """Weight-1/k bundles from the block structure.

    The source player splits its k^2 first-layer resources into k bundles
    of k; every other player keeps its private resource with weight
    1 - 1/k and its block's next-layer bundle with weight 1/k.
    """
    santa: SantaView = inst.santa
    k = int(as_fraction(inst.k_of(inst.source)))
    w = Fraction(1, k)
    entries = []
    l1 = list(inst.vertices(1))
    for b in range(k):
        bundle = frozenset(l1[b * k:(b + 1) * k])
        entries.append(ConfigEntry(inst.source, bundle, w))
    for pl in l1 + list(inst.vertices(2)):
        entries.append(ConfigEntry(pl, frozenset({pl}), 1 - w))
        entries.append(ConfigEntry(pl, frozenset(inst.out_neighbors(pl)), w))
    return ConfigSolution(entries, santa.target)


def verify_config_solution(inst: ExplicitInstance,
                           sol: ConfigSolution) -> ViolationReport:
    santa: SantaView = inst.santa
    rep = ViolationReport()
    for e in sol.entries:
        rep.add(check_ge(f"weight:{e.player}:{sorted(e.bundle)}", e.weight,
                         Fraction(0), kind="bounds"))
        value = sum((santa.values.get((e.player, r), Fraction(0))
                     for r in e.bundle), Fraction(0))
        rep.add(check_ge(f"bundle-value:{e.player}:{sorted(e.bundle)}", value,
                         sol.target))
    for pl, total in sorted(sol.player_weights().items()):
        rep.add(check_le(f"player-weight:{pl}", total, Fraction(1)))
        rep.add(check_ge(f"player-weight-full:{pl}", total, Fraction(1)))
    for r, load in sorted(sol.resource_loads().items()):
        rep.add(check_le(f"resource-load:{r}", load, Fraction(1)))
    return rep


# witnesses: first-layer vertex -> HallWitness
DefeatReport = namedtuple("DefeatReport", "witnesses all_infeasible")


def sa1_defeats(inst: ExplicitInstance) -> DefeatReport:
    """Conditioning on any first-layer edge demands k^2 sinks where only
    k are reachable, so no conditional distribution can exist."""
    witnesses = {}
    for v in inst.vertices(1):
        witnesses[v] = hall_infeasibility(inst, v, depth=2)
    return DefeatReport(witnesses, all(w.infeasible for w in witnesses.values()))
