"""Command-line entry point.

Each command returns its payload and its verdict; ``main`` writes the one
machine-readable JSON report (stdout or --out), so identical
configurations, seeds included, produce byte-identical output.
Exit codes: 0 all asserted checks certified, 2 invalid usage, 3 undecided
certifications remain, 4 a check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import __version__
from .configgap import build_config_solution, sa1_defeats, verify_config_solution
from .instances import (WORK_MAX, InstanceError, LabelCells, LabeledInstance,
                        build_config_lp_gap, build_depth3_example, build_mmda,
                        build_subtree_counterexample, check_work, desiderata_identities,
                        instance_from_json, instance_to_json, make_params)
from .integral import bruteforce_best, counting_certificate
from .relaxations import (SubtreeFamily, assignment_solution, check_helper_lemma,
                          class_path_counts, closed_form_paths, path_solution,
                          verify_assignment, verify_path_hierarchy, verify_subtree)
from .reports import _CheckRow, _verdict_memo
from .restricted import (build_lower_bound, integral_optimum, map_sa1_to_davies,
                         matching_lift, ra_instance_to_json,
                         verify_matching_distribution)
from .rounding import (FOREST_PATH_MAX, audit_locality, audit_to_json,
                       expected_forest_paths, sample_forest)
from .scalars import PrecisionCapExceeded, full_int_digits, precision_cap, scalar_to_json
from .scans import scan_proof_function
from .shadow import (ConditionEvent, check_seed, sa1_certificate, sample, shadow_model,
                     support_entries)

SCHEMA_VERSION = 1

EXIT_PASS, EXIT_USAGE, EXIT_UNDECIDED, EXIT_FAIL = 0, 2, 3, 4
STATUS = {EXIT_PASS: "pass", EXIT_UNDECIDED: "undecided", EXIT_FAIL: "fail"}

# The fixed verdict gates.  Each report carries the exact value its gate
# reads, so another gate can be applied to the report itself.
SA1_FLOOR, SA1_CEILING = Fraction(1, 100), Fraction(8)   # sa1-report
# sa1-report's largest m: its exact moments carry digits that grow with m
# and are not counted yet; m=24 takes about 15 s
SA1_M_MAX = 24
HELPER_XI = Fraction(1, 3)      # count-paths: helper lemma up to distance xi*ell
MAX_DEV_SE = 6.0                # shadow-sample: standard errors of the exact marginals
# shadow-sample's largest count of draws: one uniform per edge per sample,
# plus SAMPLE_FIXED_DRAWS for the sample's own stream (about 8 us against
# 13 ns a draw).  At it, m=4 with 2,388,535 samples takes about 20 s
SAMPLE_DRAW_MAX = 1_500_000_000
SAMPLE_FIXED_DRAWS = 600


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def count_at_least(lo: int):
    """argparse type: an integer count no smaller than ``lo``."""
    def count(text: str) -> int:
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"{n} is below {lo}")
        return n
    return count


def parse_seed(text: str) -> int:
    """argparse type: a sampler seed, in [0, 2^63)."""
    try:
        return check_seed(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def rational_up_to(hi: Fraction):
    """argparse type: a rational in (0, ``hi``]."""
    def rational(text: str) -> Fraction:
        q = parse_rational(text)
        if not 0 < q <= hi:
            raise argparse.ArgumentTypeError(f"{q} is outside (0, {hi}]")
        return q
    return rational


def _report(args, payload: dict, ok: bool | None, undecided: int = 0) -> int:
    """Write the report of ``args.command`` and return its exit code.  A
    command that asserts nothing (``ok`` None) gets no ``status``."""
    head = {"schema_version": SCHEMA_VERSION, "command": args.command}
    code = EXIT_PASS
    if ok is not None:
        code = EXIT_UNDECIDED if undecided else EXIT_PASS if ok else EXIT_FAIL
        head["status"] = STATUS[code]
    with full_int_digits():
        text = _dumps({**payload, **head}) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


_ascii = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1)``, byte for byte, without
    the pure-Python encoder json uses when ``indent`` is set.  Dicts of one
    shape (the same keys in the same order at the same depth) share their
    sorted key prefixes; only all-str shapes are kept, as 1, True and 1.0
    are equal keys that json writes apart.  A dict or list met again at the
    same depth (a scalar that checks share) is written from its first
    rendering, keyed by id: obj keeps its containers alive.  So is a check
    row whose verdict comes up again at the same depth, but for its id."""
    out: list[str] = []
    done: dict = {}     # (id, depth) -> slice of out; its text once met again
    shapes: dict = {}   # (depth, *keys) -> [(key, text before its value)]
    rows: dict = {}     # (id(verdict), depth) -> first row and its slice; texts around the id

    def enc(o, depth: int):
        leaf = _LEAVES.get(type(o))
        if leaf is not None or not isinstance(o, (dict, list, tuple)):
            out.append((leaf or _leaf)(o))
            return
        if not o:
            out.append("{}" if isinstance(o, dict) else "[]")
            return
        memo = done.get((id(o), depth))
        if memo is not None:
            if type(memo) is tuple:
                memo = done[id(o), depth] = "".join(out[memo[0]:memo[1]])
            out.append(memo)
            return
        if type(o) is _CheckRow and (cut := rows.get((id(o.verdict), depth))):
            if len(cut) == 3:   # the verdict met again: cut its first row around the id
                first, a, b = cut
                i = out.index(_ascii(first["constraint_id"]), a, b)
                cut = rows[id(o.verdict), depth] = ("".join(out[a:i]), "".join(out[i + 1:b]))
            out.extend((cut[0], _ascii(o["constraint_id"]), cut[1]))
            return
        start = len(out)
        inner = "\n" + " " * (depth + 1)
        if isinstance(o, dict):
            shape = (depth, *o)
            prefixes = shapes.get(shape)
            if prefixes is None:
                prefixes = [(k, ("," if n else "{") + inner
                             + _ascii(k if isinstance(k, str) else _leaf(k)) + ": ")
                            for n, k in enumerate(sorted(o))]
                if all(type(k) is str for k in o):
                    shapes[shape] = prefixes
            for k, prefix in prefixes:
                out.append(prefix)
                enc(o[k], depth + 1)
            out.append("\n" + " " * depth + "}")
        else:
            sep = "[" + inner
            for v in o:
                out.append(sep)
                enc(v, depth + 1)
                sep = "," + inner
            out.append("\n" + " " * depth + "]")
        done[id(o), depth] = (start, len(out))
        if type(o) is _CheckRow:
            rows[id(o.verdict), depth] = (o, start, len(out))

    enc(obj, 0)
    return "".join(out)


def _leaf(o) -> str:
    if isinstance(o, str):
        return _ascii(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _NONFINITE.get(text, text)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


# leaves of these exact types skip _leaf's isinstance chain
_LEAVES = {str: _ascii, int: int.__repr__, float: _leaf, type(None): lambda _: "null",
           bool: {False: "false", True: "true"}.__getitem__}


def _instance_from_args(args):
    # a labeled instance is lazy, so building one costs nothing at any m:
    # each command that walks it refuses, through check_work, what is too big
    if getattr(args, "instance_file", None):
        if getattr(args, "given", ()):
            raise InstanceError(f"--instance-file names the instance; {', '.join(args.given)} "
                                "cannot be given beside it")
        # a build report writes integers in full, past the int digit limit
        with open(args.instance_file) as fh, full_int_digits():
            data = json.load(fh)
        if isinstance(data, dict):
            data = data.get("instance", data)
        return instance_from_json(data)
    kind = getattr(args, "kind", "mmda")
    if kind == "mmda":
        return build_mmda(make_params(args.m, args.rho, epsilon=args.eps))
    if kind == "config-gap":
        return build_config_lp_gap(args.k)
    if kind == "subtree-cex":
        return build_subtree_counterexample(args.k)
    if kind == "example":
        return build_depth3_example()
    raise InstanceError(f"unknown kind {kind!r}")


# --- commands ---------------------------------------------------------------
# Each returns (payload, ok) or (payload, ok, undecided) for ``_report``.


def cmd_build(args) -> tuple:
    return {"instance": instance_to_json(_instance_from_args(args))}, None


def cmd_verify_lp(args) -> tuple:
    inst = _instance_from_args(args)
    sol = assignment_solution(inst)
    rep = verify_assignment(inst, sol)
    identities = desiderata_identities(inst.params)
    subtree_failures = 0
    if args.subtrees:
        fam = SubtreeFamily(inst)
        # relabelling an edge relabels its solution and keeps the verdict
        for f in inst.first_edges():
            if not verify_subtree(fam, f).ok:
                subtree_failures += inst.n_edges_into(f[1][0])
    ok = rep.ok and all(v for _, v in identities) and subtree_failures == 0
    return {
        "report": rep.to_json(),
        "identities": [{"name": n, "holds": v} for n, v in identities],
        "subtree_failures": subtree_failures,
        "checked_subtrees": bool(args.subtrees),
    }, ok, rep.summary()["undecided"]


def cmd_verify_paths(args) -> tuple:
    inst = _instance_from_args(args)
    ps = path_solution(inst, args.rounds)
    rep = verify_path_hierarchy(inst, ps, mode=args.mode)
    return ({"rounds": args.rounds, "mode": args.mode, "report": rep.to_json()},
            rep.ok, rep.summary()["undecided"])


def cmd_count_paths(args) -> tuple:
    """Path counts on label classes against the closed forms.  S_m maps any
    vertex of layer i, and the classes relative to it, to its rank-0 vertex
    (the lowest bits), so one class walk per layer counts every pair."""
    inst = _instance_from_args(args)
    import random
    rng = random.Random(args.seed)
    mismatches = []

    @cache
    def walk(i: int) -> tuple:
        source = (1 << inst.params.label_size(i)) - 1
        part = LabelCells(inst, [source])
        # the class of (i, 0) is first in rank order
        return source, part, class_path_counts(part, part.classes(i)[0])

    # (v, u, the class of u relative to v)
    if args.samples:
        checked, pairs = args.samples, []
        for _ in range(args.samples):
            i = rng.randrange(0, inst.ell)
            j = rng.randrange(i, inst.ell + 1)
            v = (i, rng.randrange(inst.layer_size(i)))
            u = (j, rng.randrange(inst.layer_size(j)))
            pairs.append((v, u, LabelCells(inst, [inst.label(v)]).key(u)))
    else:
        sizes = [inst.layer_size(i) for i in range(inst.ell + 1)]
        checked = sum(n * sum(sizes[i:]) for i, n in enumerate(sizes))
        pairs = [((i, 0), walk(i)[1].rep(c), c) for i in range(inst.ell + 1)
                 for j in range(i, inst.ell + 1) for c in walk(i)[1].classes(j)]
    for v, u, cls in pairs:
        source, part, counts = walk(v[0])
        overlap = sum(k for c, k in zip(part.cells, cls[1]) if c & source)
        dp, cf = counts.get(cls, 0), closed_form_paths(inst, v[0], u[0], overlap)
        if dp != cf:
            mismatches.append({"v": list(v), "u": list(u), "dp": dp, "closed": cf})
    hl = check_helper_lemma(inst, HELPER_XI)
    tally = hl.report.summary()
    return {
        "checked": checked,
        "mismatches": mismatches,
        "helper_bound": {"largest_distance": hl.largest_distance,
                         "xi_max": str(hl.xi_max),
                         "violations": tally["violations"]},
    }, not mismatches, tally["undecided"]


def _at(inst) -> str:
    """The parameters a refusal names."""
    return str(inst.params) if isinstance(inst, LabeledInstance) else "the instance"


def cmd_sa1_report(args) -> tuple:
    inst = _instance_from_args(args)
    check_work(_at(inst), inst.params.m, "ground elements", SA1_M_MAX)
    model = shadow_model(inst)
    events = None if args.events == "all" else [
        ConditionEvent(e, positive) for e in inst.first_edges() for positive in (True, False)]
    res = sa1_certificate(model, SA1_FLOOR, SA1_CEILING, events=events)
    return {
        "events_checked": res.events_checked,
        "events_skipped": res.events_skipped,
        "min_covering_slack": _exact(res.min_covering_slack),
        "max_packing_sum": _exact(res.max_packing_sum),
        "worst_covering": _loc(res.worst_covering),
        "worst_packing": _loc(res.worst_packing),
    }, res.passed


def _exact(q):
    return None if q is None else scalar_to_json(q)


def _loc(t):
    return None if t is None else [str(x) for x in t]


def cmd_shadow_sample(args) -> tuple:
    inst = _instance_from_args(args)
    check_work(_at(inst), support_entries(inst), "sampler support entries", WORK_MAX)
    check_work(f"{_at(inst)}, {args.samples} samples",
               (inst.n_edges + SAMPLE_FIXED_DRAWS) * args.samples,
               f"draws (edges + {SAMPLE_FIXED_DRAWS} per sample)", SAMPLE_DRAW_MAX)
    model = shadow_model(inst)
    emp = sample(model, args.seed, args.samples, rounds=args.rounds)
    worst = 0.0
    rows = [{"edge": str(e), "empirical": emp.marginal(e)} for e in emp.edges[:20]]
    # the exact engine covers rounds=1 only, so later rounds skip it
    compare = args.rounds == 1
    if compare:
        worst = max(emp.marginal_deviation(e, float(model.marginal(e))) for e in emp.edges)
        for row, e in zip(rows, emp.edges):
            row["exact"] = float(model.marginal(e))
    return {
        "samples": args.samples, "seed": args.seed, "rounds": args.rounds,
        "worst_marginal_deviation_se": worst,
        "max_dev": MAX_DEV_SE,
        "head": rows,
    }, not compare or worst <= MAX_DEV_SE


def cmd_bruteforce(args) -> tuple:
    inst = _instance_from_args(args)
    check_work(_at(inst), inst.n_edges, "edges", WORK_MAX)
    res = bruteforce_best(inst, budget=args.budget)
    return {
        "quality": scalar_to_json(res.quality.alpha),
        "complete": res.complete,
        "nodes_used": res.nodes_used,
        "edges": sorted([[list(u), list(v)] for u, v in res.solution.edges]),
    }, True, not res.complete


def cmd_certificate(args) -> tuple:
    inst = _instance_from_args(args)
    return {"certificate": counting_certificate(inst.params).to_json()}, True


def cmd_locally_good(args) -> tuple:
    """A forest cut at the path limit is audited short of its last layer,
    so its audit is undecided, and marked ``truncated``."""
    inst = _instance_from_args(args)
    check_work(_at(inst), expected_forest_paths(inst), "expected forest paths",
               FOREST_PATH_MAX)
    audits = []
    zero_child_violations = truncated = 0
    for s in range(args.seeds):
        forest = sample_forest(inst, args.seed + s, FOREST_PATH_MAX)
        audit = audit_locality(forest, radius=args.radius)
        audits.append(audit_to_json(audit))
        if forest.truncated:
            audits[-1]["truncated"] = True
            truncated += 1
        if not audit.children_violations:
            zero_child_violations += 1
    return {
        "seeds": args.seeds, "radius": args.radius,
        "zero_children_violation_rate": zero_child_violations / args.seeds,
        "audits": audits,
    }, True, truncated


def cmd_ra(args) -> tuple:
    inst = build_lower_bound(args.k, args.eps)
    pairs = [(f"p{i+1}", f"b{i+1}") for i in range(args.cond)]
    rep = verify_matching_distribution(inst, pairs)
    davies_ok = None
    if args.alpha is not None:
        canon, y = matching_lift(args.k, args.eps, alpha=args.alpha)
        _, drep = map_sa1_to_davies(canon, y)
        davies_ok = drep.ok
    opt = None
    if args.k <= 6:
        opt_val, _ = integral_optimum(inst)
        opt = str(opt_val)
    return {
        "k": args.k, "eps": str(Fraction(args.eps)),
        "instance": ra_instance_to_json(inst),
        "conditioned": args.cond,
        "min_value": scalar_to_json(rep.min_value),
        "meets_target": rep.meets_target,
        "davies_ok": davies_ok,
        "integral_optimum": opt,
    }, rep.meets_target and davies_ok is not False


def cmd_appendixb(args) -> tuple:
    inst = build_config_lp_gap(args.k)
    sol = build_config_solution(inst)
    rep = verify_config_solution(inst, sol)
    defeat = sa1_defeats(inst)
    return {
        "k": args.k,
        "config_solution": rep.summary(),
        "defeat": {str(v): {"infeasible": w.infeasible,
                            "demand": None if w.demand is None else str(w.demand),
                            "supply": w.supply}
                   for v, w in sorted(defeat.witnesses.items())},
    }, rep.ok and defeat.all_infeasible


def cmd_appendixc(args) -> tuple:
    inst = build_subtree_counterexample(args.k)
    res = bruteforce_best(inst, budget=args.budget)
    k = args.k
    bound = Fraction(int(k ** 0.5) + 1, k)
    # an incomplete search only bounds the optimum from below
    within = res.quality.alpha <= bound
    return {
        "k": k,
        "quality": scalar_to_json(res.quality.alpha),
        "bound": str(bound),
        "complete": res.complete,
    }, within, within and not res.complete


def cmd_scan(args) -> tuple:
    rep = scan_proof_function(args.fn, args.lo, args.hi, args.points,
                              rho=args.rho, eps=args.eps_param)
    return rep.to_json(), rep.all_satisfied, rep.undecided


# --- wiring -----------------------------------------------------------------


KINDS = ("mmda", "config-gap", "subtree-cex", "example")


class _StoreGiven(argparse.Action):
    """Store the value and add the option to ``args.given``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*getattr(namespace, "given", ()), option_string)


def _add_instance_args(sub, explicit: bool):
    """Instance options.  Only ``explicit`` commands name an instance that
    the labeled flags cannot: by ``--kind`` (with the ``--k`` of the explicit
    kinds) or by a build report, which no other instance option may join."""
    store = _StoreGiven if explicit else "store"
    if explicit:
        sub.add_argument("--kind", choices=KINDS, default="mmda", action=store)
        sub.add_argument("--k", type=int, default=3, action=store)
        sub.add_argument("--instance-file", default=None,
                         help="load the instance from a build report instead")
    sub.add_argument("--m", type=int, default=8, action=store)
    sub.add_argument("--rho", type=parse_rational, default=Fraction(1, 4), action=store)
    sub.add_argument("--eps", type=parse_rational, default=Fraction(1), action=store,
                     help="layer step eps; the depth is ell = 3/eps")


@cache  # built once per process, which may call main many times
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mmda-lab",
        description="Build layered arborescence gap instances and certify "
                    "their relaxations, distributions, and integral bounds.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit an instance as JSON")
    _add_instance_args(p, explicit=True)
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("verify-lp", help="certify the assignment LP solution")
    # --subtrees checks one subtree solution per layer, on the label classes of its trigger
    _add_instance_args(p, explicit=False)
    p.add_argument("--subtrees", action="store_true")
    p.set_defaults(handler=cmd_verify_lp)

    p = sub.add_parser("verify-paths", help="certify the path-hierarchy solution")
    # paths are enumerated only up to relaxations.PATH_ENUMERATION_MAX
    _add_instance_args(p, explicit=False)
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--mode", choices=("auto", "symbolic", "enumerated"),
                   default="auto")
    p.set_defaults(handler=cmd_verify_paths)

    p = sub.add_parser("count-paths", help="label-class path counts against the closed forms")
    _add_instance_args(p, explicit=False)
    p.add_argument("--samples", type=count_at_least(0), default=0,
                   help="0 = exhaustive over all vertex pairs")
    p.add_argument("--seed", type=parse_seed, default=0)
    p.set_defaults(handler=cmd_count_paths)

    p = sub.add_parser("sa1-report", help="conditioned-constraint sweep of the "
                                          "shadow distribution")
    _add_instance_args(p, explicit=False)
    p.add_argument("--events", choices=("all", "layers"), default="layers")
    p.set_defaults(handler=cmd_sa1_report)

    p = sub.add_parser("shadow-sample", help="Monte Carlo draws from the "
                                             "shadow distribution")
    _add_instance_args(p, explicit=False)
    p.add_argument("--samples", type=count_at_least(1), default=10000)
    p.add_argument("--seed", type=parse_seed, default=0)
    p.add_argument("--rounds", type=count_at_least(1), default=1)
    p.set_defaults(handler=cmd_shadow_sample)

    p = sub.add_parser("bruteforce", help="exact best integral solution")
    _add_instance_args(p, explicit=True)
    p.add_argument("--budget", type=count_at_least(1), default=2_000_000)
    p.set_defaults(handler=cmd_bruteforce)

    p = sub.add_parser("certificate", help="sink-accessibility counting bound")
    # Monomial.from_int factors its sums of binomials by trial division,
    # which gives up past 2^24 (about 1 s): at rho=1/4 first at m=92
    _add_instance_args(p, explicit=False)
    p.set_defaults(handler=cmd_certificate)

    p = sub.add_parser("locally-good", help="sample and audit path forests")
    _add_instance_args(p, explicit=False)
    p.add_argument("--seeds", type=count_at_least(1), default=10)
    p.add_argument("--seed", type=parse_seed, default=0)
    p.add_argument("--radius", type=count_at_least(0), default=1)
    p.set_defaults(handler=cmd_locally_good)

    p = sub.add_parser("ra", help="restricted-assignment matching distribution")
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--eps", type=parse_rational, default=Fraction(1, 12))
    p.add_argument("--cond", type=count_at_least(0), default=0)
    p.add_argument("--alpha", type=parse_rational, default=None)
    p.set_defaults(handler=cmd_ra)

    p = sub.add_parser("appendixb", help="bundle solution and its defeat")
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(handler=cmd_appendixb)

    p = sub.add_parser("appendixc", help="shared-sink counterexample bound")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--budget", type=count_at_least(1), default=2_000_000)
    p.set_defaults(handler=cmd_appendixc)

    p = sub.add_parser("scan", help="certified sign scan of a proof function")
    p.add_argument("--fn", required=True)
    p.add_argument("--lo", type=parse_rational, required=True)
    p.add_argument("--hi", type=parse_rational, required=True)
    p.add_argument("--points", type=count_at_least(2), default=100)
    # the density range InstanceParams accepts
    p.add_argument("--rho", type=rational_up_to(Fraction(1, 4)), default=Fraction(1, 1000))
    p.add_argument("--eps-param", type=rational_up_to(Fraction(1)), default=Fraction(1, 100))
    p.set_defaults(handler=cmd_scan)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="write the report here, not to stdout")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        precision_cap()  # a bad MMDA_LAB_PRECISION_CAP fails every command alike
        return _report(args, *args.handler(args))
    except (InstanceError, ValueError, ZeroDivisionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except PrecisionCapExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNDECIDED
    finally:
        _verdict_memo.cache_clear()  # its keys hold one command's operands alive


if __name__ == "__main__":
    sys.exit(main())
