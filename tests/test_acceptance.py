"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are pinned here; Monte Carlo checks use fixed seeds
so the whole suite is deterministic.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from mmda_lab.cli import main as cli_main
from mmda_lab.instances import (build_config_lp_gap, build_depth3_example,
                                build_mmda, build_subtree_counterexample,
                                desiderata_identities, make_params)
from mmda_lab.integral import (bruteforce_best, counting_certificate,
                               single_path_solution, solution_quality)
from mmda_lab.relaxations import (SubtreeFamily, assignment_solution,
                                  check_helper_lemma, closed_form_paths,
                                  count_paths_from, path_solution,
                                  verify_assignment, verify_path_hierarchy)
from mmda_lab.restricted import (build_lower_bound, integral_optimum,
                                 map_sa1_to_davies, matching_lift,
                                 verify_matching_distribution)
from mmda_lab.rounding import sample_forest
from mmda_lab.scalars import compare_certified
from mmda_lab.scans import scan_proof_function
from mmda_lab.shadow import (ConditionEvent, IndependentFamily, ShadowModel,
                             conditional_report, sample, shadow_model)
from conftest import checks_where
from test_integral import best_quality_bound
from test_relaxations import _ref_verify_sparse
from test_shadow import subtree_triggers, two_layer_rounding_control


def _line(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {status} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exact_lp_feasibility():
    timings = []
    for m, eps in ((8, Fraction(1)), (16, Fraction(1, 2))):
        t0 = time.monotonic()
        inst = build_mmda(make_params(m, Fraction(1, 4), epsilon=eps))
        rep = verify_assignment(inst, assignment_solution(inst))
        dt = time.monotonic() - t0
        timings.append((m, dt))
        assert rep.ok and not checks_where(rep, None), (m, rep.summary())
        assert dt < 60, (m, dt)
    _line(1, True, f"verify-lp zero violations, times {timings}")


def test_criterion_02_desiderata_identities():
    checked = 0
    for m in range(4, 21):
        for rho_m in range(1, m // 4 + 1):
            for d in range(1, rho_m + 1):
                if rho_m % d:
                    continue
                params = make_params(m, Fraction(rho_m, m), epsilon=Fraction(1, d))
                for name, ok in desiderata_identities(params):
                    checked += 1
                    assert ok, (params, name)
    _line(2, True, f"{checked} exact phase-product identities at m <= 20")


def test_criterion_03_subtree_solutions():
    for m in (8, 12):
        inst = build_mmda(make_params(m, Fraction(1, 4)))
        fam = SubtreeFamily(inst)
        for f in inst.all_edges():
            rep = _ref_verify_sparse(inst, fam.support(f), f[1])
            assert rep.ok and not checks_where(rep, None), (m, f)
        # flow-splitting identity at every sink, for every top trigger
        target = Fraction(math.comb(m - m // 4, m // 4), math.comb(m, m // 4))
        sink_ins = {t: [(w, inst.label(w)) for w in inst.in_neighbors(t)]
                    for t in inst.vertices(3)}
        for v in inst.vertices(1):
            f = (inst.source, v)
            lv = inst.label(v)
            for t, ins in sink_ins.items():
                lt = inst.label(t)
                total = Fraction(0)
                for w, lw in ins:
                    if lw & lv == lv:
                        j = bin(lt & lv).count("1")
                        total += fam.sink_split(j)
                assert total == target, (m, f, t)
    _line(3, True, "relocated checks and flow splitting exact at m in {8, 12}")


def _layer3_trigger_histogram(model):
    """(x_f, value, multiplicity) of the first-layer triggers f of a bottom
    edge, read off the test-local transpose of the subtree support."""
    e = next(iter(model.inst.edges_into_layer(3)))
    counts = Counter((model.x_of(f), v) for f, v in subtree_triggers(model.family, e).items()
                     if f[1][0] == 1)
    return sorted((x, v, n) for (x, v), n in counts.items())


def test_criterion_04_shadow_marginals():
    for m in (8, 12, 16):
        inst = build_mmda(make_params(m, Fraction(1, 4)))
        model = shadow_model(inst)
        rm = m // 4
        x1 = Fraction(1, math.comb(m - rm, rm))
        x2 = x1 / math.comb(2 * rm, rm)
        # layer-1 and layer-2 closed forms on representatives
        e1 = (inst.source, (1, 0))
        assert model.marginal(e1) == x1
        w = inst.out_neighbors((1, 0))[0]
        assert model.marginal(((1, 0), w)) == 1 - (1 - x2) ** 2
        # bottom-layer marginal and ancestor sum via the exact histogram:
        # C(rm, j)^2 first-layer triggers meet the sink in j elements
        hist = _layer3_trigger_histogram(model)
        scale = Fraction(math.comb(m - rm, rm), math.comb(m, rm))
        assert hist == sorted((x1, scale / math.comb(m - 2 * rm + j, j), math.comb(rm, j) ** 2)
                              for j in range(rm + 1))
        anc_sum = sum((x * v * mult for x, v, mult in hist), Fraction(0))
        assert anc_sum == x1
        surv = (1 - x1) * (1 - x2) ** math.comb(2 * rm, rm)
        for x, v, mult in hist:
            surv *= (1 - x * v) ** mult
        s3 = 1 - surv
        assert x1 <= s3 <= 6 * x1
        # per-edge exactness: full sweep at m = 8, seeded samples above
        if m == 8:
            edges = list(inst.all_edges())
        else:
            rng = random.Random(m)
            l3 = [(w_, t_) for w_ in inst.vertices(2)
                  for t_ in inst.out_neighbors(w_)[:1]]
            edges = rng.sample(l3, 60)
            edges += [(inst.source, (1, r))
                      for r in rng.sample(range(inst.layer_size(1)), 20)]
        for e in edges:
            x, s = model.x_of(e), model.marginal(e)
            assert x <= s <= 6 * x, (m, e)
            if e[1][0] == 1:
                assert s == x
            if e[1][0] == 3:
                terms = subtree_triggers(model.family, e)
                l1 = sum((model.x_of(f) * val for f, val in terms.items()
                          if f[1][0] == 1), Fraction(0))
                assert l1 == model.x_of(e), (m, e)
                assert s == s3
    _line(4, True, "marginal closed forms and 6x bounds exact at m in {8, 12, 16}")


def conditional(emp, ev_label, e):
    """The share of an event's draws in which e is active; None when the
    event never occurred."""
    n = emp.event_counts.get(ev_label, 0)
    return emp.event_joint.get((ev_label, e), 0) / n if n else None


def conditional_deviation(emp, ev_label, e, p):
    """|conditional - p| in standard errors of the exact conditional p,
    sqrt(p (1 - p) / n), over the event's n occurrences, as
    ``EmpiricalReport.marginal_deviation`` does; None when n is 0."""
    n = emp.event_counts.get(ev_label, 0)
    if not n:
        return None
    dev = abs(conditional(emp, ev_label, e) - p)
    se = math.sqrt(p * (1 - p) / n)
    if se == 0:
        return math.inf if dev else 0.0
    return dev / se


def test_criterion_05_engine_vs_monte_carlo():
    t0 = time.monotonic()
    inst = build_mmda(make_params(8, Fraction(1, 4)))
    model = shadow_model(inst)
    # reversal bound, exact, every edge
    for e in inst.all_edges():
        assert model.x_of(e) / model.marginal(e) >= Fraction(1, 6)
    events = []
    for i in (1, 2, 3):
        e = next(iter(inst.edges_into_layer(i)))
        events += [ConditionEvent(e, True), ConditionEvent(e, False)]
    emp = sample(model, seed=20240805, n_samples=100_000, events=events)
    worst = 0.0
    for ev in events:
        lab = ev.label()
        mr = conditional_report(model, ev)
        for e, exact in mr.conditional.items():
            dev = conditional_deviation(emp, lab, e, float(exact))
            worst = max(worst, dev)
            assert dev <= 4, (lab, e, conditional(emp, lab, e), float(exact), dev)
    dt = time.monotonic() - t0
    assert dt < 600, dt
    _line(5, True, f"10^5 samples vs exact engine, worst dev {worst:.2f} se, {dt:.0f}s")


def test_criterion_06_negative_controls():
    inst = build_mmda(make_params(8, Fraction(1, 4)))
    indep = ShadowModel(inst, assignment_solution(inst), IndependentFamily(inst))
    e1 = (inst.source, (1, 0))
    mr = conditional_report(indep, ConditionEvent(e1, True))
    out = sum((mr.conditional[((1, 0), w)]
               for w in inst.out_neighbors((1, 0))), Fraction(0))
    slack = out / (Fraction(5, 2) * mr.conditional[e1])
    assert slack == Fraction(1, 15)
    ctl = two_layer_rounding_control(inst)
    assert ctl.bound_sum == Fraction(15, 6)
    assert ctl.exact_sum >= ctl.bound_sum
    _line(6, True, "independent slack = 1/15, sink packing bound = 15/6, exact")


def test_criterion_07_path_counting():
    cases = [make_params(8, Fraction(1, 4)),
             make_params(12, Fraction(1, 4)),
             make_params(8, Fraction(1, 4), epsilon=Fraction(1, 2))]
    checked = 0
    for params in cases:
        inst = build_mmda(params)
        verts = [v for i in range(inst.ell + 1) for v in inst.vertices(i)]
        for v in verts:
            counts = count_paths_from(inst, v)
            for u in verts:
                if u[0] < v[0]:
                    continue
                dp = counts.get(u, 0)
                if inst.reachable(v, u):
                    ov = bin(inst.label(v) & inst.label(u)).count("1")
                    cf = closed_form_paths(inst, v[0], u[0], ov)
                else:
                    cf = 0
                assert dp == cf, (params.m, v, u)
                checked += 1
    # sampled pairs on the deep m = 16 instance
    inst = build_mmda(make_params(16, Fraction(1, 4), epsilon=Fraction(1, 2)))
    rng = random.Random(7)
    for _ in range(120):
        i = rng.randrange(0, inst.ell)
        j = rng.randrange(i, inst.ell + 1)
        v = (i, rng.randrange(inst.layer_size(i)))
        counts = None
        u = (j, rng.randrange(inst.layer_size(j)))
        from mmda_lab.relaxations import count_paths
        dp = count_paths(inst, v, u)
        if inst.reachable(v, u):
            ov = bin(inst.label(v) & inst.label(u)).count("1")
            cf = closed_form_paths(inst, i, j, ov)
        else:
            cf = 0
        assert dp == cf, (v, u)
        checked += 1
    hl = check_helper_lemma(inst, Fraction(1, 3))
    assert hl.largest_distance >= 2
    assert not checks_where(hl.report, False) and not checks_where(hl.report, None)
    _line(7, True, f"{checked} DP-vs-closed-form counts, bound certified to distance 2")


def test_criterion_08_path_hierarchy():
    inst = build_mmda(make_params(16, Fraction(1, 4), epsilon=Fraction(1, 2)))
    ps = path_solution(inst, 2)
    rep = verify_path_hierarchy(inst, ps, mode="symbolic")
    assert rep.ok, [c.constraint_id for c in checks_where(rep, False)]
    covering = [c for c in rep.checks
                if c.constraint_id.startswith("lifted-covering:end-layer")]
    assert covering and all(c.kind == "equality" and c.satisfied for c in covering)
    _line(8, True, "all hierarchy constraints certified at m=16, t=2; covering tight")


def test_criterion_09_integral_gap():
    ex = build_depth3_example()
    res = bruteforce_best(ex)
    assert res.complete and res.quality.alpha == 1
    cex = build_subtree_counterexample(4)
    rc = bruteforce_best(cex)
    assert rc.complete and rc.quality.alpha <= Fraction(3, 4)
    # certificate dominates the oracle wherever both run
    inst4 = build_mmda(make_params(4, Fraction(1, 4)))
    r4 = bruteforce_best(inst4)
    assert r4.complete
    bound = best_quality_bound(counting_certificate(inst4.params))
    assert compare_certified(r4.quality.alpha, bound) in ("<", "=")
    _line(9, True,
          f"example opt 1, shared-sink k=4 opt {rc.quality.alpha}, cert >= oracle")


def test_criterion_10_restricted_assignment():
    for k, eps in ((12, Fraction(1, 12)), (9, Fraction(1, 3)), (6, Fraction(1, 6))):
        inst = build_lower_bound(k, eps)
        for c in range(int(eps * k) + 1):
            pairs = [(f"p{i+1}", f"b{i+1}") for i in range(c)]
            rep = verify_matching_distribution(inst, pairs)
            assert rep.meets_target and rep.min_value >= 1, (k, eps, c)
    for k, eps in ((3, Fraction(1, 3)), (6, Fraction(1, 6))):
        opt, _ = integral_optimum(build_lower_bound(k, eps))
        assert opt == 3 * eps
    canon, y = matching_lift(12, Fraction(1, 12), alpha=Fraction(5))
    _, rep = map_sa1_to_davies(canon, y)
    assert rep.ok and not checks_where(rep, None)
    _line(10, True, "matching distribution >= 1 for all c, optimum 3*eps, "
                    "lifted witness clean")


def test_criterion_11_proof_function_scans():
    t0 = time.monotonic()
    rep = scan_proof_function("f_packing", Fraction(1, 10000), Fraction(1, 100), 100)
    assert rep.all_satisfied and rep.undecided == 0
    rep = scan_proof_function("g_integral", Fraction(1, 10000), Fraction(1, 100), 100)
    assert rep.all_satisfied and rep.undecided == 0
    r1 = scan_proof_function("f1_appendix", Fraction(2), Fraction(2001, 1000), 40)
    assert r1.delta is not None and r1.delta > 0
    r2 = scan_proof_function("f2_appendix", Fraction(1999, 1000), Fraction(2), 40)
    assert r2.delta is not None and r2.delta > 0
    for name in ("k_bound_phase1", "k_bound_phase2", "k_bound_phase3"):
        kb = scan_proof_function(name, Fraction(1, 1000), Fraction(1, 1000), 2,
                                 eps=Fraction(1, 100))
        assert all(p.sign == 1 for p in kb.points), name
    dt = time.monotonic() - t0
    assert dt < 60, dt
    _line(11, True, f"sign scans certified (delta1={float(r1.delta):.1e}, "
                    f"delta2={float(r2.delta):.1e}) in {dt:.0f}s")


def test_criterion_12_rounding_sampler():
    from mmda_lab.scalars import Monomial
    inst = build_mmda(make_params(8, Fraction(1, 4)))
    # analytic identities: children expectation is k_i per layer, and the
    # per-pair congestion expectation within the certified radius is <= 1
    for i in range(inst.ell):
        dplus = inst.profile.delta_plus[i]
        expected = inst.profile.gamma[i].mul(Monomial.from_int(dplus))
        assert compare_certified(expected, inst.profile.k[i]) == "="
    hl = check_helper_lemma(inst, Fraction(1, 3))
    assert hl.largest_distance >= 1 and not checks_where(hl.report, False)
    # empirical per-layer children means over 10^4 seeded forests
    sums = {0: 0, 1: 0, 2: 0}
    sq = {0: 0, 1: 0, 2: 0}
    n = {0: 0, 1: 0, 2: 0}
    for seed in range(10_000):
        forest = sample_forest(inst, seed=seed)
        kids = {}
        for p in forest.paths:
            if len(p) > 1:
                kids[p[:-1]] = kids.get(p[:-1], 0) + 1
        for p in forest.paths:
            end = p[-1]
            if not inst.is_sink(end):
                c = kids.get(p, 0)
                sums[end[0]] += c
                sq[end[0]] += c * c
                n[end[0]] += 1
    detail = []
    for i in range(3):
        k_i = float(inst.profile.k[i].as_fraction())
        mean = sums[i] / n[i]
        var = sq[i] / n[i] - mean ** 2
        se = math.sqrt(max(var, 1e-9) / n[i])
        assert abs(mean - k_i) <= 4 * se, (i, mean, k_i, se)
        detail.append(f"L{i}: {mean:.3f}~{k_i:.3f}")
    _line(12, True, "children identity exact; " + ", ".join(detail))


def test_criterion_13_cli_determinism(tmp_path):
    pairs = []
    for name, argv in [
        ("shadow", ["shadow-sample", "--m", "8", "--samples", "500", "--seed", "4"]),
        ("forest", ["locally-good", "--m", "8", "--seeds", "5", "--seed", "21",
                    "--radius", "1"]),
        ("scan", ["scan", "--fn", "f_packing", "--lo", "1e-3", "--hi", "1e-2",
                  "--points", "9"]),
    ]:
        a, b = tmp_path / f"{name}_a.json", tmp_path / f"{name}_b.json"
        cli_main([*argv, "--out", str(a)])
        cli_main([*argv, "--out", str(b)])
        pairs.append(a.read_bytes() == b.read_bytes())
    _line(13, all(pairs), "byte-identical reports for repeated seeded runs")
