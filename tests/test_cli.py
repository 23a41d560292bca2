import json
import math
from fractions import Fraction

import pytest

from mmda_lab.cli import (EXIT_FAIL, EXIT_PASS, EXIT_UNDECIDED, EXIT_USAGE,
                          _dumps, main, parse_rational)
from mmda_lab.scalars import full_int_digits


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data, out


class TestParsing:
    def test_rational_forms(self):
        assert parse_rational("1/4") == Fraction(1, 4)
        assert parse_rational("1e-4") == Fraction(1, 10000)
        assert parse_rational("0.25") == Fraction(1, 4)

    def test_bad_rational(self):
        with pytest.raises(Exception):
            parse_rational("x/y")


class TestCommands:
    def test_build(self, tmp_path):
        code, data, _ = run(tmp_path, "build", "--m", "8", "--rho", "1/4")
        assert code == EXIT_PASS
        assert data["instance"]["layers"][2]["size"] == 70
        assert data["schema_version"] == 1

    def test_build_writes_integers_past_the_digit_limit(self, tmp_path):
        # C(16000, 8000) has 4,815 digits, past CPython's default
        # int-to-str limit of 4,300
        out = tmp_path / "report.json"
        assert main(["build", "--m", "16000", "--out", str(out)]) == EXIT_PASS
        with full_int_digits():
            size = json.loads(out.read_text())["instance"]["layers"][2]["size"]
            assert str(size) == str(math.comb(16000, 8000))

    def test_instance_file_reads_integers_past_the_digit_limit(self, tmp_path):
        built, again = tmp_path / "built.json", tmp_path / "again.json"
        assert main(["build", "--m", "16000", "--out", str(built)]) == EXIT_PASS
        assert main(["build", "--instance-file", str(built),
                     "--out", str(again)]) == EXIT_PASS
        assert again.read_bytes() == built.read_bytes()

    def test_build_rejects_bad_params(self, tmp_path):
        code = main(["build", "--m", "9", "--rho", "1/4",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE

    def test_verify_lp_passes(self, tmp_path):
        code, data, _ = run(tmp_path, "verify-lp", "--m", "8", "--rho", "1/4")
        assert code == EXIT_PASS
        assert data["status"] == "pass"
        assert data["report"]["summary"]["violations"] == 0

    def test_verify_lp_with_subtrees(self, tmp_path):
        code, data, _ = run(tmp_path, "verify-lp", "--m", "8", "--rho", "1/4",
                            "--subtrees")
        assert code == EXIT_PASS
        assert data["checked_subtrees"] is True
        assert data["subtree_failures"] == 0

    @pytest.mark.parametrize("layer", [1, 2, 3])
    def test_verify_lp_failing_layer_counts_its_every_edge(self, tmp_path, monkeypatch, layer):
        # doubled values break the bounds of every solution rooted in the layer
        from mmda_lab import cli
        from mmda_lab.instances import build_mmda, make_params
        from test_relaxations import FAULTS, Faulty, _ref_verify_sparse

        inst = build_mmda(make_params(8, Fraction(1, 4)))
        fam = Faulty(inst, layer, FAULTS["doubled"])
        walked = sum(not _ref_verify_sparse(inst, fam.support(f), f[1]).ok
                     for f in inst.all_edges())
        assert walked == inst.layer_size(layer) * inst.profile.delta_minus[layer]
        monkeypatch.setattr(cli, "SubtreeFamily",
                            lambda inst: Faulty(inst, layer, FAULTS["doubled"]))
        code, data, _ = run(tmp_path, "verify-lp", "--m", "8", "--subtrees")
        assert code == EXIT_FAIL and data["status"] == "fail"
        assert data["subtree_failures"] == walked

    def test_verify_lp_subtrees_runs_at_m24(self, tmp_path):
        # the layer-1 solution at m=24 holds 1 + 18564 + 18564 * 924 edges;
        # its label classes number a few dozen
        import time
        start = time.perf_counter()
        code, data, _ = run(tmp_path, "verify-lp", "--m", "24", "--subtrees")
        assert time.perf_counter() - start < 1
        assert code == EXIT_PASS and data["status"] == "pass"
        assert data["checked_subtrees"] is True and data["subtree_failures"] == 0

    def test_first_edges_are_the_first_in_neighbours(self):
        from mmda_lab.instances import LabeledInstance, make_params
        for m, eps in ((4, 1), (8, 1), (12, 1), (16, Fraction(1, 2)), (32, Fraction(1, 8))):
            inst = LabeledInstance(make_params(m, Fraction(1, 4), epsilon=eps))
            assert inst.first_edges() == [next(iter(inst.edges_into_layer(i)))
                                          for i in range(1, inst.ell + 1)]
        inst = LabeledInstance(make_params(48, Fraction(1, 4)))
        import time
        start = time.perf_counter()
        edges = inst.first_edges()
        assert time.perf_counter() - start < 0.01
        assert edges == [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (3, 0))]
        for u, v in edges:
            assert inst.label(u) & inst.label(v) == min(inst.label(u), inst.label(v))

    def test_verify_lp_subtrees_rejected_on_deep_instance(self, tmp_path):
        code = main(["verify-lp", "--m", "16", "--rho", "1/4", "--eps", "1/2",
                     "--subtrees", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE

    def test_verify_paths_deep_passes(self, tmp_path):
        code, data, _ = run(tmp_path, "verify-paths", "--m", "16", "--rho", "1/4",
                            "--eps", "1/2", "--rounds", "2", "--mode", "symbolic")
        assert code == EXIT_PASS

    def test_verify_paths_depth3_two_rounds_fails(self, tmp_path):
        code, data, _ = run(tmp_path, "verify-paths", "--m", "8", "--rho", "1/4",
                            "--rounds", "2", "--mode", "symbolic")
        assert code == EXIT_FAIL
        assert data["status"] == "fail"

    def test_count_paths(self, tmp_path):
        code, data, _ = run(tmp_path, "count-paths", "--m", "8", "--rho", "1/4",
                            "--samples", "25", "--seed", "3")
        assert code == EXIT_PASS
        assert data["mismatches"] == []

    def test_count_paths_exhaustive(self, tmp_path):
        code, data, _ = run(tmp_path, "count-paths", "--m", "4", "--rho", "1/4",
                            "--samples", "0")
        assert code == EXIT_PASS
        assert data["checked"] > 100 and data["mismatches"] == []

    def test_count_paths_past_the_old_cap(self, tmp_path):
        # all pairs at m=48: the vertex walk stopped at m=12
        code, data, _ = run(tmp_path, "count-paths", "--m", "48", "--eps", "1/12")
        # ell = 36; labels grow by 1 to size 24 at layer 24, then shrink by 1
        sizes = [math.comb(48, min(i, 48 - i)) for i in range(37)]
        assert code == EXIT_PASS and data["mismatches"] == []
        assert data["checked"] == sum(n * sum(sizes[i:]) for i, n in enumerate(sizes))
        assert data["helper_bound"]["largest_distance"] == 12

    def test_instance_file_round_trip(self, tmp_path):
        # a labeled file names the instance its params name
        built, by_file, by_flags = (tmp_path / n for n in ("inst.json", "file.json",
                                                           "flags.json"))
        assert main(["build", "--m", "4", "--out", str(built)]) == EXIT_PASS
        assert main(["bruteforce", "--instance-file", str(built),
                     "--out", str(by_file)]) == EXIT_PASS
        assert main(["bruteforce", "--m", "4", "--out", str(by_flags)]) == EXIT_PASS
        assert by_file.read_bytes() == by_flags.read_bytes()

    @pytest.mark.parametrize("k", ["-1", "0"])
    @pytest.mark.parametrize("command", ["build", "bruteforce"])
    def test_instance_file_rejects_a_requirement_below_one(self, tmp_path, capsys,
                                                           command, k):
        # -1 gave bruteforce quality -1 and exit 0; 0 a bare "Fraction(1, 0)"
        built, out = tmp_path / "example.json", tmp_path / "report.json"
        assert main(["build", "--kind", "example", "--out", str(built)]) == EXIT_PASS
        data = json.loads(built.read_text())
        vertex, requirement = data["instance"]["k"][0]
        requirement["exact"] = k
        built.write_text(json.dumps(data))
        capsys.readouterr()
        assert main([command, "--instance-file", str(built), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (f"error: vertex {tuple(vertex)} has requirement "
                                           f"k={k}; k must be positive\n")
        assert not out.exists()

    def test_instance_file_is_refused_by_the_edge_bound(self, tmp_path, capsys):
        # the file builds the lazy m=40 instance; bruteforce counts its edges
        # in closed form and refuses it before any vertex is walked
        import time
        built, out = tmp_path / "m40.json", tmp_path / "x.json"
        assert main(["build", "--m", "40", "--out", str(built)]) == EXIT_PASS
        capsys.readouterr()
        start = time.perf_counter()
        code = main(["bruteforce", "--instance-file", str(built), "--out", str(out)])
        assert time.perf_counter() - start < 1
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == ("error: m=40, rho=1/4, eps=1 gives "
                                           "50935947404996368 edges, above 7000000\n")
        assert not out.exists()

    def test_truncated_forest_is_undecided(self, tmp_path, monkeypatch):
        # the path limit lowered to the expected forest at m=8, 36 paths, so
        # the call is admitted; seeds 0 and 2 grow 37 and 66 paths
        from mmda_lab import cli
        monkeypatch.setattr(cli, "FOREST_PATH_MAX", 36)
        code, data, _ = run(tmp_path, "locally-good", "--m", "8", "--seeds", "3")
        assert code == EXIT_UNDECIDED and data["status"] == "undecided"
        assert [a.get("truncated", False) for a in data["audits"]] == [True, False, True]

    @pytest.mark.parametrize("command", ["build", "bruteforce"])
    def test_instance_file_refuses_the_instance_flags_beside_it(self, tmp_path, capsys,
                                                                command):
        # a file names the whole instance; a flag beside it was dropped silently
        built, out = tmp_path / "m8.json", tmp_path / "report.json"
        assert main(["build", "--m", "8", "--out", str(built)]) == EXIT_PASS
        for flag, value in [("--m", "4"), ("--m", "8"), ("--rho", "1/4"), ("--eps", "1"),
                            ("--kind", "mmda"), ("--k", "3")]:
            code = main([command, "--instance-file", str(built), flag, value,
                         "--out", str(out)])
            assert code == EXIT_USAGE
            assert capsys.readouterr().err == (f"error: --instance-file names the instance; "
                                               f"{flag} cannot be given beside it\n")
            assert not out.exists()
        # the flags alone, and options that do not name the instance, still run
        assert main([command, "--m", "4", "--rho", "1/4", "--kind", "mmda",
                     "--out", str(out)]) == EXIT_PASS
        if command == "bruteforce":
            assert main([command, "--instance-file", str(built), "--budget", "1",
                         "--out", str(out)]) == EXIT_UNDECIDED

    def test_scan(self, tmp_path):
        code, data, _ = run(tmp_path, "scan", "--fn", "g_integral",
                            "--lo", "1e-4", "--hi", "1e-2", "--points", "5")
        assert code == EXIT_PASS
        assert all(p["sign"] == 1 for p in data["points"])

    def test_certificate(self, tmp_path):
        code, data, _ = run(tmp_path, "certificate", "--m", "8", "--rho", "1/4")
        assert code == EXIT_PASS
        assert data["certificate"]["theta"] == "1/12"

    def test_bruteforce_example(self, tmp_path):
        code, data, _ = run(tmp_path, "bruteforce", "--kind", "example")
        assert code == EXIT_PASS
        assert data["quality"]["exact"] == "1"

    def test_bruteforce_budget_undecided(self, tmp_path):
        code, data, _ = run(tmp_path, "bruteforce", "--kind", "subtree-cex",
                            "--k", "4", "--budget", "10")
        assert code == EXIT_UNDECIDED
        assert data["status"] == "undecided"

    def test_ra(self, tmp_path):
        code, data, _ = run(tmp_path, "ra", "--k", "12", "--eps", "1/12",
                            "--cond", "1", "--alpha", "5")
        assert code == EXIT_PASS
        assert data["min_value"]["exact"] == "7/6"
        assert data["davies_ok"] is True

    def test_appendixb(self, tmp_path):
        code, data, _ = run(tmp_path, "appendixb", "--k", "3")
        assert code == EXIT_PASS
        assert all(w["infeasible"] for w in data["defeat"].values())

    def test_appendixc(self, tmp_path):
        code, data, _ = run(tmp_path, "appendixc", "--k", "4")
        assert code == EXIT_PASS
        assert Fraction(data["quality"]["exact"]) <= Fraction(3, 4)

    @pytest.mark.parametrize("argv", [["--k", "9", "--budget", "50"]], ids=" ".join)
    def test_appendixc_incomplete_search_is_undecided(self, tmp_path, argv):
        # the quality an incomplete search finds only bounds the optimum
        # from below, so it cannot show that the optimum is within the bound
        code, data, _ = run(tmp_path, "appendixc", *argv)
        assert code == EXIT_UNDECIDED
        assert data["status"] == "undecided" and data["complete"] is False
        assert Fraction(data["quality"]["exact"]) <= Fraction(data["bound"])

    def test_locally_good(self, tmp_path):
        code, data, _ = run(tmp_path, "locally-good", "--m", "8", "--seeds", "3",
                            "--radius", "1", "--seed", "5")
        assert code == EXIT_PASS
        assert len(data["audits"]) == 3

    def test_shadow_sample(self, tmp_path):
        code, data, _ = run(tmp_path, "shadow-sample", "--m", "8",
                            "--samples", "400", "--seed", "2")
        assert code == EXIT_PASS
        assert data["samples"] == 400
        # in standard errors of the exact marginals; the empirical ones gave
        # 4.84839737746442
        assert data["worst_marginal_deviation_se"] == 3.795962493526686

    def test_shadow_sample_deviation_in_exact_standard_errors(self, tmp_path):
        # 12,826 of the 37,180 edges have no hits: in the standard errors
        # of their empirical marginals, floored at 1e-6/sqrt(n), the worst
        # deviation read 609,133.5
        code, data, _ = run(tmp_path, "shadow-sample", "--m", "12",
                            "--samples", "300", "--seed", "1")
        assert code == EXIT_FAIL
        assert data["worst_marginal_deviation_se"] == 7.774948151098318


MMDA_ONLY_COMMANDS = ("verify-lp", "verify-paths", "count-paths", "sa1-report",
                      "shadow-sample", "certificate", "locally-good")

# instance files that are not instances: no layers, not an object, a depth
# that is not 3/eps, an edge to an unlisted vertex, a vertex with no k and
# an m that is not a JSON integer
MALFORMED = {
    "EMPTY": {},
    "LIST": [1, 2],
    "ELL4": {"kind": "labeled",
             "params": {"m": 8, "rho": "1/4", "epsilon": "1", "ell": 4}},
    "EDGE": {"kind": "explicit", "layers": [[[0, 0]], [[1, 0]]],
             "edges": [[[0, 0], [5, 7]]], "k": [[[0, 0], {"exact": "1"}]]},
    "NOK": {"kind": "explicit", "layers": [[[0, 0]], [[1, 0]]],
            "edges": [[[0, 0], [1, 0]]], "k": []},
    # 8.7 and "8" built the m=8 instance
    "MFLOAT": {"kind": "labeled", "params": {"m": 8.7, "rho": "1/4", "epsilon": "1"}},
    "MSTR": {"kind": "labeled", "params": {"m": "8", "rho": "1/4", "epsilon": "1"}},
}

# inputs that must end in a usage error; EXPLICIT stands for a built
# explicit (non-mmda) instance file, MISSING for a path that does not exist,
# and a MALFORMED key for that document
REJECTED = (
    [[cmd, "--kind", "example"] for cmd in MMDA_ONLY_COMMANDS]
    + [[cmd, "--instance-file", "EXPLICIT"] for cmd in MMDA_ONLY_COMMANDS]
    # no mmda-only command reads --k, and --exact is the default
    + [[cmd, "--k", "5"] for cmd in MMDA_ONLY_COMMANDS]
    + [["shadow-sample", "--exact"], ["shadow-sample", "--kind", "subtree-cex"],
       ["build", "--eps", "-1"], ["build", "--m", "0"], ["build", "--ell", "0"],
       ["scan", "--fn", "f_packing", "--lo", "1", "--hi", "2"],
       ["build", "--instance-file", "MISSING"],
       *[["build", "--instance-file", name] for name in MALFORMED],
       ["verify-paths", "--m", "4", "--rounds", "-1"],
       # the first k of each explicit kind above the edge bound; --budget 1
       # keeps the search short if the bound does not refuse it
       ["bruteforce", "--kind", "config-gap", "--k", "21", "--budget", "1"],
       ["bruteforce", "--kind", "subtree-cex", "--k", "58", "--budget", "1"],
       ["appendixc", "--k", "58", "--budget", "1"],
       # irrational requirements have no integral search
       ["bruteforce", "--m", "8", "--eps", "1/2"],
       # counts outside their range are rejected when arguments are parsed
       ["count-paths", "--samples", "-1"],
       # no command takes a size cap: each bounds the work its parameters imply
       *[[cmd, "--size-cap", "8"] for cmd in ("count-paths", "sa1-report", "shadow-sample",
                                              "bruteforce", "certificate", "locally-good")],
       ["locally-good", "--seeds", "0"], ["locally-good", "--seeds", "-2"],
       ["locally-good", "--radius", "-1"], ["ra", "--cond", "-1"],
       # a lower-bound instance needs eps*k big resources, at least one
       ["ra", "--k", "0"], ["ra", "--k", "-3", "--eps", "1/3"],
       ["shadow-sample", "--rounds", "0"], ["shadow-sample", "--rounds", "-1"],
       ["shadow-sample", "--samples", "0"], ["shadow-sample", "--samples", "-1"],
       # a seed keys its Philox streams exactly only in [0, 2^63)
       *[["shadow-sample", "--m", "4", "--samples", "3", "--seed", str(seed)]
         for seed in (-1, 2 ** 63, 2 ** 64 - 1, 2 ** 64)],
       # the other seeded commands take seeds in the same range: random.Random
       # keys on |seed|, so -5 drew the stream of 5
       *[[cmd, "--m", "4", "--seed", seed] for cmd in ("count-paths", "locally-good")
         for seed in ("-5", "-1")],
       ["appendixc", "--k", "4", "--budget", "-5"], ["bruteforce", "--m", "4", "--budget", "0"],
       ["scan", "--fn", "f_packing", "--lo", "1e-4", "--hi", "1e-2", "--points", "1"],
       # the requirement exponents take eps in (0, 1]
       ["scan", "--fn", "k_bound_phase1", "--lo", "1/1000", "--hi", "1/10",
        "--eps-param", "0"],
       ["scan", "--fn", "k_bound_phase3", "--lo", "1/1000", "--hi", "1/10",
        "--eps-param", "2"],
       # the boundary forms take rho in (0, 1/4]; at 0 every sign is a vacuous 0
       *[["scan", "--fn", "f1_appendix", "--lo", "2", "--hi", "2001/1000", "--rho", rho]
         for rho in ("0", "1", "-1")],
       # reports are JSON only and the verdict gates are fixed
       *[[*cmd.split(), "--format", "csv"] for cmd in (
           "build", "verify-lp", "verify-paths", "count-paths", "sa1-report",
           "shadow-sample", "bruteforce", "certificate", "locally-good", "ra",
           "appendixb", "appendixc", "scan --fn g_integral --lo 1e-3 --hi 1e-2")],
       ["verify-lp", "--allowance", "2"], ["count-paths", "--xi", "1/6"],
       ["sa1-report", "--floor", "1/2"], ["sa1-report", "--ceiling", "4"],
       ["shadow-sample", "--m", "4", "--samples", "3", "--max-dev", "100"],
       ["shadow-sample", "--m", "4", "--samples", "3", "--mc"]])


# per command, its first refused call at rho=1/4 and a call just above its
# bound: the count it names and the bound
REFUSED = [
    ("bruteforce --m 20", "m=20, rho=1/4, eps=1 gives 93132528 edges, above 7000000"),
    ("bruteforce --m 19 --rho 4/19",
     "m=19, rho=4/19, eps=1 gives 10585356 edges, above 7000000"),
    ("shadow-sample --m 16",
     "m=16, rho=1/4, eps=1 gives 128830520 sampler support entries, above 7000000"),
    ("shadow-sample --m 17 --rho 3/17",
     "m=17, rho=3/17, eps=1 gives 10644040 sampler support entries, above 7000000"),
    ("locally-good --m 28",
     "m=28, rho=1/4, eps=1 gives 1184396 expected forest paths, above 500000"),
    ("locally-good --m 40 --rho 1/8",
     "m=40, rho=1/8, eps=1 gives 660622 expected forest paths, above 500000"),
    ("shadow-sample --m 37 --rho 2/37",
     "m=37, rho=2/37, eps=1, 10000 samples gives 7938060000 draws (edges + 600 per sample), "
     "above 1500000000"),
    ("shadow-sample --m 4 --samples 2388536",
     "m=4, rho=1/4, eps=1, 2388536 samples gives 1500000608 draws (edges + 600 per sample), "
     "above 1500000000"),
    ("verify-paths --m 12 --rounds 1 --mode enumerated",
     "m=12, rho=1/4, eps=1, rounds=1 gives 425481 paths, above 200000"),
    ("sa1-report --m 25 --rho 1/25",
     "m=25, rho=1/25, eps=1 gives 25 ground elements, above 24"),
    ("certificate --m 128",
     "trial division up to 16777216 leaves the cofactor 350755368821510873009 of "
     "700051963601861523372699219450 unfactored"),
]


@pytest.mark.parametrize("argv,message", REFUSED, ids=[r[0] for r in REFUSED])
def test_refused_before_the_walk(tmp_path, capsys, argv, message):
    # certificate gives up after 2^24 trial divisors, the others before
    # anything is built
    import time
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = main([*argv.split(), "--out", str(out)])
    took = time.perf_counter() - start
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert took < (5 if argv.startswith("certificate") else 1)


class TestRejectedInputs:
    @pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
    def test_usage_error_without_traceback(self, tmp_path, capsys, argv):
        explicit = tmp_path / "example.json"
        assert main(["build", "--kind", "example",
                     "--out", str(explicit)]) == EXIT_PASS
        paths = {"EXPLICIT": str(explicit), "MISSING": str(tmp_path / "missing.json")}
        for name, doc in MALFORMED.items():
            paths[name] = str(tmp_path / f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(doc, fh)
        argv = [paths.get(a, a) for a in argv]
        code = main([*argv, "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.count("error:") == 1 and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("flag,value", [("--eps-param", "0"), ("--eps-param", "2"),
                                            ("--points", "1"), ("--rho", "0"),
                                            ("--rho", "1")])
    def test_scan_usage_names_the_flag(self, capsys, flag, value):
        code = main(["scan", "--fn", "k_bound_phase1", "--lo", "1/1000", "--hi", "1/10",
                     flag, value])
        assert code == EXIT_USAGE
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_undefined_scan_point_names_function_and_x(self, capsys):
        code = main(["scan", "--fn", "f_packing", "--lo", "1", "--hi", "2"])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and out == ""
        assert err == "error: f_packing is undefined at x=1: Fraction(1, 0)\n"

    def test_precision_cap_exceeded_exits_3(self, tmp_path, capsys, monkeypatch):
        # the raise route (a scan point undecided at the cap is the other one):
        # the scan handler is made to compare two irrationals about 2**-100
        # apart, which raises PrecisionCapExceeded at 64 bits
        from mmda_lab import cli
        from mmda_lab.scalars import LT, Monomial, compare_certified, precision_cap
        a, b = Monomial({2: Fraction(1, 2)}), Monomial({2: Fraction(1, 2) + Fraction(1, 10 ** 30)})
        assert compare_certified(a, b, cap=256) == LT
        monkeypatch.setattr(cli, "scan_proof_function",
                            lambda *args, **kw: compare_certified(a, b))
        monkeypatch.setenv("MMDA_LAB_PRECISION_CAP", "64")
        out = tmp_path / "report.json"
        precision_cap.cache_clear()
        try:
            code = main(["scan", "--fn", "f_packing", "--lo", "1e-4", "--hi", "1e-2",
                         "--out", str(out)])
        finally:
            precision_cap.cache_clear()
        stdout, err = capsys.readouterr()
        assert code == EXIT_UNDECIDED
        assert err == "error: comparison undecided at 64 bits\n" and stdout == ""
        assert not out.exists()

    # f1_appendix is 0 at 2 and about -3e-78 at 2 + 10^-80: its sign needs 512 bits
    NEAR_TWO = ["scan", "--fn", "f1_appendix", "--lo", "2",
                "--hi", f"{2 * 10 ** 80 + 1}/{10 ** 80}", "--points", "2"]

    @pytest.mark.parametrize("cap,code,undecided,precisions", [
        (None, EXIT_PASS, 0, [256, 512]),
        ("256", EXIT_UNDECIDED, 1, [256, 256]),
        ("64", EXIT_UNDECIDED, 1, [64, 64])])
    def test_scan_point_undecided_at_the_cap(self, tmp_path, monkeypatch, cap, code,
                                             undecided, precisions):
        # a real call, no handler replaced: the ladder starts at the cap when
        # the cap is below 256, and a point still straddling 0 is undecided
        from mmda_lab.scalars import precision_cap
        if cap is not None:
            monkeypatch.setenv("MMDA_LAB_PRECISION_CAP", cap)
        precision_cap.cache_clear()
        try:
            got, data, _ = run(tmp_path, *self.NEAR_TWO)
        finally:
            precision_cap.cache_clear()
        assert got == code
        assert data["status"] == ("pass" if code == EXIT_PASS else "undecided")
        assert data["undecided"] == undecided
        assert [p["precision"] for p in data["points"]] == precisions
        assert [p["sign"] for p in data["points"]] == [0, -1 if code == EXIT_PASS else None]

    @pytest.mark.parametrize("cap", ["abc", "0", "-5", "63", "1.5e3"])
    def test_bad_precision_cap_is_a_usage_error(self, cap):
        # the cap is read from the environment once per process: each case
        # is its own process
        import os
        import subprocess
        import sys
        from pathlib import Path

        import mmda_lab
        env = {**os.environ, "MMDA_LAB_PRECISION_CAP": cap,
               "PYTHONPATH": str(Path(mmda_lab.__file__).parents[1])}
        for argv in (["appendixb"], ["scan", "--fn", "f_packing", "--lo", "1e-4",
                                     "--hi", "1e-2", "--points", "2"]):
            done = subprocess.run([sys.executable, "-m", "mmda_lab.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == EXIT_USAGE
            assert done.stdout == ""
            assert done.stderr.splitlines() == [
                f"error: MMDA_LAB_PRECISION_CAP must be an integer >= 64, not {cap!r}"]
        # help reads no cap
        done = subprocess.run([sys.executable, "-m", "mmda_lab.cli", "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_PASS and done.stderr == ""


# every labeled command at parameters on and past the edges of their ranges,
# and the explicit kinds and appendix commands at the smallest k
BOUNDARY_CALLS = (
    [[cmd, "--m", m, "--rho", rho, "--eps", eps]
     for cmd in ("build", "bruteforce", *MMDA_ONLY_COMMANDS)
     for m in ("0", "-4", "4", "5", "8")
     for rho in ("0", "-1/4", "1/3", "1/4", "1/8")
     for eps in ("0", "1/2", "3")]
    + [[cmd, "--kind", kind, "--k", k] for cmd in ("build", "bruteforce")
       for kind in ("config-gap", "subtree-cex") for k in ("-1", "0", "1", "2")]
    + [[cmd, "--k", k] for cmd in ("appendixb", "appendixc") for k in ("-1", "0", "1", "2")])


def _holds_record(obj) -> bool:
    """Whether a payload holds a named tuple, which the writer would
    silently turn into a list."""
    if hasattr(type(obj), "_fields"):
        return True
    if isinstance(obj, dict):
        return any(map(_holds_record, obj)) or any(map(_holds_record, obj.values()))
    return isinstance(obj, (list, tuple)) and any(map(_holds_record, obj))


def test_boundary_calls_end_in_a_known_code(tmp_path, capsys, monkeypatch):
    # in one seeded order, so that calls of different commands interleave
    import random

    from mmda_lab import cli
    write = cli._dumps

    def checked(obj):
        assert not _holds_record(obj)
        return write(obj)
    monkeypatch.setattr(cli, "_dumps", checked)
    calls = list(BOUNDARY_CALLS)
    random.Random(8).shuffle(calls)
    out = tmp_path / "report.json"
    codes = []
    for argv in calls:
        out.unlink(missing_ok=True)
        code = main([*argv, "--out", str(out)])
        assert "Traceback" not in capsys.readouterr().err
        assert code in (EXIT_PASS, EXIT_USAGE, EXIT_UNDECIDED, EXIT_FAIL), argv
        if code == EXIT_USAGE:
            assert not out.exists(), argv
        else:
            assert json.loads(out.read_text())["command"] == argv[0]
        codes.append(code)
    # the one valid labeled instance, m=8, rho=1/4, eps=1/2, and k=2
    assert len(codes) == 699 and codes.count(EXIT_USAGE) == 687


LABELED_OPTIONS = ["--eps", "--m", "--rho"]
EXPLICIT_OPTIONS = ["--instance-file", "--k", "--kind"]
COMMON = ["--out"]
OPTIONS = {
    "build": LABELED_OPTIONS + EXPLICIT_OPTIONS,
    "verify-lp": LABELED_OPTIONS + ["--subtrees"],
    "verify-paths": LABELED_OPTIONS + ["--mode", "--rounds"],
    "count-paths": LABELED_OPTIONS + ["--samples", "--seed"],
    "sa1-report": LABELED_OPTIONS + ["--events"],
    "shadow-sample": LABELED_OPTIONS + ["--rounds", "--samples", "--seed"],
    "bruteforce": LABELED_OPTIONS + EXPLICIT_OPTIONS + ["--budget"],
    "certificate": LABELED_OPTIONS,
    "locally-good": LABELED_OPTIONS + ["--radius", "--seed", "--seeds"],
    "ra": ["--alpha", "--cond", "--eps", "--k"],
    "appendixb": ["--k"],
    "appendixc": ["--budget", "--k"],
    "scan": ["--eps-param", "--fn", "--hi", "--lo", "--points", "--rho"],
}


def test_option_surface():
    # every option of every command, --help aside; a new one must be added here
    import argparse
    from mmda_lab.cli import build_parser
    sub, = [a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    surface = {name: sorted(opt for action in p._actions for opt in action.option_strings
                            if opt not in ("-h", "--help"))
               for name, p in sub.choices.items()}
    assert surface == {name: sorted(opts + COMMON) for name, opts in OPTIONS.items()}
    assert sum(map(len, surface.values())) == 72


def test_public_surface():
    # the names the package exports; a new one must be added here
    import mmda_lab
    assert sorted(mmda_lab.__all__) == [
        "InstanceParams", "Interval", "LabeledInstance", "Monomial", "Scalar",
        "__version__", "build_config_lp_gap", "build_depth3_example",
        "build_mmda", "build_subtree_counterexample", "compare_certified",
        "make_params"]


class TestDeterminism:
    def test_check_memo_is_emptied_after_each_command(self, tmp_path):
        import hashlib

        from mmda_lab.reports import _verdict_memo
        argv = ["verify-paths", "--mode", "enumerated", "--m", "12", "--rho", "1/12",
                "--rounds", "3"]
        for _ in range(2):
            code, _, out = run(tmp_path, *argv)
            assert code == EXIT_FAIL
            assert hashlib.sha256(out.read_bytes()).hexdigest() == (
                "eaf7624752cc483e1cc48aa5fe3805f2361c1da6e9eb2f9e2b359e21a5357e75")
            assert _verdict_memo.cache_info().currsize == 0

    def test_byte_identical_reports(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["shadow-sample", "--m", "8", "--samples", "300", "--seed", "9"]
        main([*argv, "--out", str(a)])
        main([*argv, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_scan_reports_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["scan", "--fn", "f_packing", "--lo", "1e-3", "--hi", "1e-2",
                "--points", "7"]
        main([*argv, "--out", str(a)])
        main([*argv, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_locally_good_reports_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["locally-good", "--m", "8", "--seeds", "4", "--seed", "17",
                "--radius", "1"]
        main([*argv, "--out", str(a)])
        main([*argv, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_between_reports_keeps_their_bytes(self, tmp_path):
        # main reuses one parser per process; a failed parse between two
        # calls must not leak into either report
        import hashlib

        from test_report_bytes import GOLDEN
        golden = {cmd: (code, sha) for cmd, code, sha in GOLDEN}
        calls = ["verify-paths --mode enumerated --m 4 --rounds 2",
                 "appendixb --k x", "appendixb"]
        for i, cmd in enumerate(calls):
            out = tmp_path / f"report{i}.json"
            code = main([*cmd.split(), "--out", str(out)])
            if cmd in golden:
                assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == golden[cmd]
            else:
                assert code == EXIT_USAGE and not out.exists()


# --- the report writer against json.dumps(..., sort_keys=True, indent=1) ------

STRINGS = ["", "a", "plain", 'q"uote', "back\\slash", "new\nline", "tab\t", "\x00\x1f\x7f",
           "caf\u00e9", "\u20ac", "\U0001d11e", "\ud800", "/", "mixed \"\\\u00e9\n"]
FLOATS = [0.0, -0.0, 0.1, -2.5, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
          1e16, 123456789.0, float("nan"), float("inf"), float("-inf")]
INTS = [0, 1, -1, 2 ** 63, -(10 ** 30), 7]


def _random_leaf(rng):
    pick = rng.randrange(5)
    if pick == 0:
        return rng.choice(STRINGS) + rng.choice(STRINGS)
    if pick == 1:
        return rng.choice([True, False, None])
    if pick == 2:
        return rng.choice(INTS)
    if pick == 3:
        return rng.choice(FLOATS)
    return rng.uniform(-1e6, 1e6)


def _random_keys(rng, n):
    kind = rng.randrange(4)
    if kind == 0:       # json converts non-string keys before escaping them
        return rng.sample(range(-5, 50), n) + [True]
    if kind == 1:
        return [rng.choice(FLOATS[:10]) + i for i in range(n)]
    if kind == 2:
        return [None]
    return list({rng.choice(STRINGS) + str(rng.randrange(9)) for _ in range(n)})


def _random_payload(rng, depth, pool):
    if depth > 3 or rng.random() < 0.3:
        return _random_leaf(rng)
    if pool and rng.random() < 0.2:
        return rng.choice(pool)     # the same object again, at any depth
    n = rng.randrange(4)
    kind = rng.randrange(3)
    if kind == 0:
        out = {k: _random_payload(rng, depth + 1, pool) for k in _random_keys(rng, n)}
    else:
        items = [_random_payload(rng, depth + 1, pool) for _ in range(n)]
        out = items if kind == 1 else tuple(items)
    pool.append(out)
    return out


def same_as_json(obj):
    assert _dumps(obj) == json.dumps(obj, sort_keys=True, indent=1)


def _random_report(rng):
    """A report whose checks repeat verdicts (memo hits, vacuous rows, the
    same check twice) and also hold equal verdicts as distinct objects."""
    from mmda_lab.reports import (ConstraintCheck, Verdict, ViolationReport, check_eq,
                                  check_ge, check_le, vacuous)
    from mmda_lab.scalars import Interval, Monomial, as_scalar
    operands = [0, 1, Fraction(1, 3), Fraction(7, 2), Monomial({2: Fraction(1, 2)}),
                Monomial({3: Fraction(-1, 3)}), Interval(Fraction(1), Fraction(2)),
                Interval(Fraction(-1, 2), Fraction(1, 4))]
    rep = ViolationReport()
    for _ in range(rng.randrange(1, 14)):
        cid = rng.choice(STRINGS) + rng.choice(["", "lifted-packing:e0>0.0@(3, 1)"])
        lhs, rhs = rng.choice(operands), rng.choice(operands)
        pick = rng.randrange(4)
        if pick == 0:
            check = vacuous(cid, rng.choice(["equality", "covering"]), lhs, rhs)
        elif pick == 1:
            check = rng.choice([check_le, check_ge, check_eq])(cid, lhs, rhs)
        elif pick == 2:
            check = ConstraintCheck(cid, Verdict(
                "bounds", as_scalar(lhs), as_scalar(rhs), rng.choice([True, False, None]),
                rng.random() < 0.5, rng.choice([None, Fraction(1, 2), operands[6]])))
        else:
            check = rng.choice(rep.checks) if rep.checks else check_le(cid, lhs, rhs)
        rep.add(check)
    return rep


def _nested(rng, data, depth):
    # data at the given depth, inside dicts and lists
    for _ in range(depth - 1):
        data = {"in": data, "n": 1} if rng.random() < 0.5 else ["x", data]
    return {"report": data}


class TestJsonWriter:
    def test_seeded_random_payloads(self):
        import random
        rng = random.Random(20240)
        for _ in range(400):
            pool = []
            same_as_json(_random_payload(rng, 0, pool))

    def test_check_rows_of_seeded_reports(self):
        import random
        rng = random.Random(20250)
        repeats = 0
        for _ in range(300):
            reports = [_random_report(rng) for _ in range(rng.randrange(1, 4))]
            repeats += sum(len(r.checks) - len({id(c.verdict) for c in r.checks})
                           for r in reports)
            # the same report data at one depth or two; its rows and others of
            # the same verdicts share the cut text only at one depth
            data = [r.to_json() for r in reports]
            data.append(data[0])
            payload = [_nested(rng, d, rng.randint(1, 3)) for d in data]
            same_as_json(payload)
            same_as_json(payload[0])
        assert repeats > 500     # rows of a verdict met again took the cut text

    @pytest.mark.parametrize("leaf", [*STRINGS, *FLOATS, *INTS, True, False, None,
                                      {}, [], (), [[]], {"a": {}}])
    def test_top_level_leaf_and_empty_container(self, leaf):
        same_as_json(leaf)

    def test_shared_objects_at_two_depths(self):
        shared = {"exact": "1/2", "approx": 0.5}
        row = [shared, "x"]
        payload = {"a": [shared, shared, row, row], "b": shared, "c": {"d": row}}
        same_as_json(payload)
        # a container is written afresh at a new depth, from the cache at an old one
        assert '\n  {\n   "approx": 0.5' in _dumps(payload)
        assert '\n "b": {\n  "approx": 0.5' in _dumps(payload)

    def test_equal_keys_of_other_types_at_one_depth(self):
        # 1, True and 1.0 are equal dict keys that json writes apart
        payload = [{1: "x"}, {True: "x"}, {1.0: "x"}, {"1": "x"}, {True: "x"}, {1: "x"}]
        same_as_json(payload)
        same_as_json({"a": {1: [0]}, "b": {True: [0]}, "c": {1.0: [0]}, "d": {"1": [0]}})
        for key in ('"1"', '"true"', '"1.0"'):
            assert key + ': "x"' in _dumps(payload)

    def test_one_key_set_in_several_orders(self):
        same_as_json([{"b": 1, "a": 2}, {"a": 3, "b": 4}, {"b": 5, "a": 6},
                      {"c": 0, "a": 1, "b": 2}, {"a": {"b": 1, "a": 2}, "b": {"a": 3, "b": 4}}])

    def test_dict_subclasses_and_subclassed_leaves(self):
        from collections import OrderedDict, defaultdict
        from enum import IntEnum

        class Colour(IntEnum):
            RED = 1

        class Tag(str):
            pass

        counts = defaultdict(int, {"b": Colour.RED, "a": 0})
        payload = OrderedDict([("z", counts), ("y", [Tag("v"), Colour.RED]),
                               ("x", {"b": Colour.RED, "a": Tag("w")}),
                               (Tag("k"), OrderedDict([("b", 1), ("a", Tag("q\n"))]))])
        same_as_json(payload)
        same_as_json([counts, payload, counts])
        assert dict(counts) == {"b": 1, "a": 0}     # rendering added no key

    def test_shared_dict_after_its_shape_is_cached(self):
        shared = {"exact": "1/2", "approx": 0.5}
        payload = {"a": {"exact": "1", "approx": 1.0}, "b": [shared], "c": shared,
                   "d": [[shared, shared]], "e": shared, "f": shared}
        same_as_json(payload)

    def test_keys_of_every_json_type(self):
        same_as_json({1: "a", 2.5: "b", True: "c", -3: "d"})
        same_as_json({None: [1]})
        same_as_json({float("nan"): 1})

    @pytest.mark.parametrize("bad", [{1, 2}, Fraction(1, 3), [1, {2: object()}],
                                     {"k": b"bytes"}, {(1, 2): 3}, {"a": 1, 2: 3}])
    def test_unsupported_objects_raise_type_error(self, bad):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=1)
        with pytest.raises(TypeError):
            _dumps(bad)
