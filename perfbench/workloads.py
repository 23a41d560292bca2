"""The four workloads: seeded job lists and the verdict each job must reach.

A job is either one ``mmda_lab.cli.main(argv)`` call whose report goes to
a file, or (the sa1 subset) one call of the public ``sa1_certificate``.
Every job has an expected verdict; a job that ends with another verdict,
or raises, counts as failed.

Inputs come only from the seed: the sa1 event subset, the count-paths
sample pairs, the Monte Carlo seed, the rounding seeds and the inward grid
offset of the scans that are not anchored to a domain end.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1
HELD_OUT_SEED = 977

SA1_FLOOR, SA1_CEILING = Fraction(1, 100), Fraction(8)


@dataclass
class Job:
    name: str
    expect: dict
    argv: list | None = None          # CLI job
    call: object = None               # direct job: call(out_path) -> (verdict, items)
    instance: tuple | None = None     # (m, rho, eps) built during set-up


# --- verdicts -------------------------------------------------------------


def cli_verdict(command: str, code: int, report: dict | None) -> tuple[dict, int]:
    """The fields of a CLI report that decide correctness, and the number of
    certified items (checks, events or points) it reports."""
    if report is None:
        return {"exit": code, "report": None}, 0
    v = {"exit": code, "status": report.get("status")}
    items = 0
    if command in ("verify-lp", "verify-paths"):
        rep = report["report"]
        v["summary"] = rep["summary"]
        v["violated"] = sorted(c["constraint_id"] for c in rep["checks"]
                               if c["satisfied"] is False)
        items = rep["summary"]["checks"]
    elif command == "count-paths":
        v.update(checked=report["checked"], mismatches=len(report["mismatches"]),
                 helper_bound=report["helper_bound"])
        items = report["checked"]
    elif command == "bruteforce":
        v.update(nodes_used=report["nodes_used"], complete=report["complete"],
                 quality=report["quality"]["exact"])
    elif command == "locally-good":
        v.update(seeds=report["seeds"], audits=len(report["audits"]))
    elif command == "sa1-report":
        v.update(events_checked=report["events_checked"],
                 events_skipped=report["events_skipped"],
                 min_covering_slack=report["min_covering_slack"]["exact"],
                 max_packing_sum=report["max_packing_sum"]["exact"])
        items = report["events_checked"]
    elif command == "shadow-sample":
        v.update(samples=report["samples"], seed=report["seed"])
    elif command == "scan":
        v.update(undecided=report["undecided"], points=len(report["points"]),
                 certified_lo=report["certified_lo"],
                 certified_hi=report["certified_hi"], delta=report["delta"])
        items = len(report["points"])
    return v, items


# --- per-event sa1 extremes ------------------------------------------------
# S_m acts transitively on each edge layer of the depth-3 instance and every
# model value depends only on label-intersection sizes, so conditioning on
# any edge of a layer, with a given sign, gives the same minimum covering
# slack and maximum packing sum.  Keyed by (m, layer, positive).
SA1_CLASS = {
    (4, 1, True): ("2117/2304", "5851/2592"),
    (4, 1, False): ("3/4", "47/24"),
    (4, 2, True): ("91/132", "83/36"),
    (4, 2, False): ("9/10", "5191/2592"),
    (4, 3, True): ("3218539/2996928", "200873/84816"),
    (4, 3, False): ("26/33", "15203/7776"),
    (8, 1, True): ("19/18", "8191781476314237121794571/2572395519456000000000000"),
    (8, 1, False): ("27/28", "41319005126734809599/15122842560000000000"),
    (8, 2, True): ("10054130463127597956708659/17044555094048160000000000",
                   "5403706901976950568053459/1598815270773000000000000"),
    (8, 2, False): ("177/178", "52530546974510022846697/19054781625600000000000"),
    (8, 3, True): ("545137402904704133402644/473566656235550900993487",
                   "1922149200821972655701325656490682556443063/"
                   "530494369178953966710418628622720000000000"),
    (8, 3, False): ("1518884/1572507", "2531089018907313362950553/926062387004160000000000"),
}


def sa1_expectation(m: int, classes) -> dict:
    mins = [Fraction(SA1_CLASS[(m, layer, pos)][0]) for layer, pos in classes]
    maxs = [Fraction(SA1_CLASS[(m, layer, pos)][1]) for layer, pos in classes]
    return {"passed": True, "events_checked": len(classes), "events_skipped": 0,
            "min_covering_slack": str(min(mins)), "max_packing_sum": str(max(maxs))}


def sa1_job(lab, m: int, per_class: int, rng: random.Random) -> Job:
    """sa1_certificate over ``per_class`` seeded events from each
    (layer, sign) class, so every seed does the same mix of work."""
    inst = lab.instances.build_mmda(lab.instances.make_params(m, Fraction(1, 4)))
    model = lab.shadow.shadow_model(inst)
    by_layer: dict[int, list] = {}
    for e in inst.all_edges():
        by_layer.setdefault(e[1][0], []).append(e)
    events, classes = [], []
    for layer in sorted(by_layer):
        for positive in (True, False):
            for e in rng.sample(by_layer[layer], per_class):
                events.append(lab.shadow.ConditionEvent(e, positive))
                classes.append((layer, positive))

    def call(out_path):
        res = lab.shadow.sa1_certificate(model, SA1_FLOOR, SA1_CEILING, events=events)
        verdict = {"passed": res.passed, "events_checked": res.events_checked,
                   "events_skipped": res.events_skipped,
                   "min_covering_slack": str(res.min_covering_slack),
                   "max_packing_sum": str(res.max_packing_sum)}
        with open(out_path, "w") as fh:
            json.dump(verdict, fh, sort_keys=True)
        return verdict, res.events_checked

    return Job(f"sa1-subset-m{m}", sa1_expectation(m, classes), call=call)


# --- job lists --------------------------------------------------------------


def _mmda(argv, m, rho="1/4", eps="1"):
    return {"argv": argv, "instance": (m, Fraction(rho), Fraction(eps))}


def _scan(fn, lo, hi, points, offset_units, anchored):
    """A scan job; non-anchored domains move inward by ``offset_units``/64
    of a grid step at both ends."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not anchored:
        shift = (hi - lo) / (points - 1) * Fraction(offset_units, 64)
        lo, hi = lo + shift, hi - shift
    argv = ["scan", "--fn", fn, "--lo", str(lo), "--hi", str(hi),
            "--points", str(points)]
    return argv, lo, hi


def _scan_expect(lo, hi, points, delta=None):
    return {"exit": 0, "status": "pass", "undecided": 0, "points": points,
            "certified_lo": str(lo), "certified_hi": str(hi),
            "delta": None if delta is None else str(delta)}


def _pass(summary_checks):
    return {"exit": 0, "status": "pass",
            "summary": {"checks": summary_checks, "undecided": 0, "violations": 0},
            "violated": []}


def _count_expect(checked, helper):
    return {"exit": 0, "status": "pass", "checked": checked, "mismatches": 0,
            "helper_bound": helper}


def certify(lab, rng, tiny):
    """Irrational monomials certified on the deep instances: scalars, almost
    all of it the factor enclosure of each check, dominates."""
    seed = rng.randrange(2 ** 31)
    if tiny:
        samples = 5
        specs = [
            ("verify-paths-m4", _mmda(["verify-paths", "--m", "4", "--rounds", "2",
                                       "--mode", "symbolic"], 4),
             {"exit": 4, "status": "fail",
              "summary": {"checks": 47, "undecided": 0, "violations": 1},
              "violated": ["lifted-packing:(1,3)"]}),
            ("verify-lp-m4", _mmda(["verify-lp", "--m", "4"], 4), _pass(9)),
            ("count-paths-m4", _mmda(["count-paths", "--m", "4", "--samples", str(samples),
                                      "--seed", str(seed)], 4),
             _count_expect(samples, HELPER["m4"])),
        ]
    else:
        samples = 100
        specs = [
            ("verify-paths-m16-e1/2-t2",
             _mmda(["verify-paths", "--m", "16", "--eps", "1/2", "--rounds", "2",
                    "--mode", "symbolic"], 16, eps="1/2"), _pass(92)),
            ("verify-lp-m16-e1/4", _mmda(["verify-lp", "--m", "16", "--eps", "1/4"],
                                         16, eps="1/4"), _pass(36)),
            ("verify-lp-m24-e1/2", _mmda(["verify-lp", "--m", "24", "--eps", "1/2"],
                                         24, eps="1/2"), _pass(18)),
            # at m=12, eps=1/3 one sampled pair can cost 25 times the mean,
            # so 40 pairs moved the pass time by up to 8% from seed to seed
            ("count-paths-m8-e1/2",
             _mmda(["count-paths", "--m", "8", "--eps", "1/2", "--samples", str(samples),
                    "--seed", str(seed)], 8, eps="1/2"),
             _count_expect(samples, HELPER["m8-e1/2"])),
        ]
    return [Job(name, expect, **spec) for name, spec, expect in specs]


def traverse(lab, rng, tiny):
    """Rational checks over enumerated paths and all vertex pairs: the same
    comparison operands and the same vertices recur, so a memo pays here."""
    forest_seed = rng.randrange(2 ** 31)
    if tiny:
        specs = [
            ("verify-paths-m4-enum",
             _mmda(["verify-paths", "--m", "4", "--rounds", "2", "--mode", "enumerated"], 4),
             ENUMERATED["m4"]),
            ("count-paths-m4-all", _mmda(["count-paths", "--m", "4"], 4),
             _count_expect(PAIRS["m4"], HELPER["m4"])),
            ("bruteforce-m4", _mmda(["bruteforce", "--m", "4", "--budget", "50"], 4),
             BRUTEFORCE["m4-50"]),
            ("locally-good-m4",
             _mmda(["locally-good", "--m", "4", "--seeds", "2", "--seed", str(forest_seed)], 4),
             {"exit": 0, "status": "pass", "seeds": 2, "audits": 2}),
        ]
    else:
        specs = [
            ("verify-paths-m12-r1/12-t3-enum",
             _mmda(["verify-paths", "--m", "12", "--rho", "1/12", "--rounds", "3",
                    "--mode", "enumerated"], 12, rho="1/12"), ENUMERATED["m12-r1/12"]),
            ("count-paths-m12-r1/12-all",
             _mmda(["count-paths", "--m", "12", "--rho", "1/12"], 12, rho="1/12"),
             _count_expect(PAIRS["m12-r1/12"], HELPER["m12-r1/12"])),
            ("bruteforce-m8-b3000",
             _mmda(["bruteforce", "--m", "8", "--budget", "3000"], 8), BRUTEFORCE["m8-3000"]),
            ("locally-good-m8-e1/2",
             _mmda(["locally-good", "--m", "8", "--eps", "1/2", "--seeds", "5",
                    "--seed", str(forest_seed)], 8, eps="1/2"),
             {"exit": 0, "status": "pass", "seeds": 5, "audits": 5}),
        ]
    return [Job(name, expect, **spec) for name, spec, expect in specs]


def shadow(lab, rng, tiny):
    """Exact conditional moments and Monte Carlo draws: the shadow layer
    dominates and scalars stays idle, the control for scalars work."""
    m, per_class, samples = (4, 1, 50) if tiny else (8, 2, 2000)
    mc_seed = rng.randrange(2 ** 31)
    layers = sa1_expectation(m, [(i, s) for i in (1, 2, 3) for s in (True, False)])
    return [
        sa1_job(lab, m, per_class, rng),
        Job(f"sa1-report-m{m}", {"exit": 0, "status": "pass", "events_checked": 6,
                                 "events_skipped": 0,
                                 "min_covering_slack": layers["min_covering_slack"],
                                 "max_packing_sum": layers["max_packing_sum"]},
            argv=["sa1-report", "--m", str(m), "--events", "layers"],
            instance=(m, Fraction(1, 4), Fraction(1))),
        Job(f"shadow-sample-m{m}", {"exit": 0, "status": "pass", "samples": samples,
                                    "seed": mc_seed},
            argv=["shadow-sample", "--m", str(m), "--samples", str(samples),
                  "--seed", str(mc_seed)],
            instance=(m, Fraction(1, 4), Fraction(1))),
    ]


def scan(lab, rng, tiny):
    """Certified sign scans: log2, exp and entropy series on arguments that
    never repeat, so a comparison memo can only cost."""
    points = 3 if tiny else 30
    fns = ([("f_packing", "1e-4", "1e-2")] if tiny else
           [("f_packing", "1e-4", "1e-2"), ("g_integral", "1e-4", "1e-2"),
            ("k_bound_phase1", "1e-3", "1e-1"), ("k_bound_phase2", "1e-3", "1e-1")])
    jobs = []
    for fn, lo, hi in fns:
        argv, a, b = _scan(fn, lo, hi, points, rng.randrange(1, 32), anchored=False)
        jobs.append(Job(f"scan-{fn}", _scan_expect(a, b, points), argv=argv))
    argv, a, b = _scan("f1_appendix", "2", "2001/1000", points, 0, anchored=True)
    jobs.append(Job("scan-f1_appendix", _scan_expect(a, b, points, delta=b - a), argv=argv))
    return jobs


WORKLOADS = {"certify": certify, "traverse": traverse, "shadow": shadow, "scan": scan}


# --- recorded verdicts --------------------------------------------------------
# Measured once at the commit that added this benchmark; a change to the
# package that moves any of them is a correctness regression, not noise.

HELPER = {
    "m4": {"largest_distance": 1, "violations": 0, "xi_max": "1/3"},
    "m8-e1/2": {"largest_distance": 1, "violations": 1, "xi_max": "1/6"},
    "m12-r1/12": {"largest_distance": 1, "violations": 0, "xi_max": "1/3"},
}

PAIRS = {"m4": 147, "m12-r1/12": 6463}

ENUMERATED = {
    "m4": {"exit": 4, "status": "fail",
           "summary": {"checks": 579, "undecided": 0, "violations": 4},
           "violated": [f"lifted-packing:0.0>1.{r}@(3, {r})" for r in range(4)]},
    "m12-r1/12": {"exit": 4, "status": "fail",
                  "summary": {"checks": 7327, "undecided": 0, "violations": 24},
                  "violated": sorted(f"lifted-packing:{root}0.0>1.{r}@(3, {r})"
                                     for root in ("", "e0>") for r in range(12))},
}

BRUTEFORCE = {
    "m4-50": {"exit": 0, "status": "pass", "nodes_used": 33, "complete": True,
              "quality": "2/3"},
    "m8-3000": {"exit": 3, "status": "undecided", "nodes_used": 3002,
                "complete": False, "quality": "15/28"},
}
