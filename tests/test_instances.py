import math
from fractions import Fraction
from itertools import combinations

import pytest

from mmda_lab import instances
from mmda_lab.instances import (DegreeProfile, InstanceError, LabelCells,
                                build_config_lp_gap, build_depth3_example, build_mmda,
                                build_subtree_counterexample,
                                desiderata_identities, instance_from_json,
                                instance_to_json, make_params, rank_colex,
                                unrank_colex)
from mmda_lab.relaxations import class_path_counts
from mmda_lab.scalars import Monomial


def descendants_in_layer(inst, v, j):
    """|D(v) cap L_j| without enumeration, v itself counted when j is its
    layer: the sizes of the label classes of v's label that the class walk
    from v reaches in layer j."""
    part = LabelCells(inst, [inst.label(v)])
    return sum(math.prod(map(math.comb, part.caps, ks))
               for layer, ks in class_path_counts(part, part.key(v)) if layer == j)


def build_depth3_direct(m: int, rho) -> DegreeProfile:
    """Depth-3 degree profile from its own closed-form degree data.

    Independent of the general gamma formulas; used to cross-check that
    the eps=1 specialization of ``InstanceParams.profile`` is the same.
    """
    params = make_params(m, rho, epsilon=Fraction(1))
    rm = params.rho_m
    c_top = Monomial.from_binomial(m, rm)
    c_mid = Monomial.from_binomial(m - rm, rm)
    c_small = Monomial.from_binomial(2 * rm, rm)
    ks = (c_top.div(c_mid), c_mid.div(c_small), c_small)
    dplus = (math.comb(m, rm), math.comb(m - rm, rm), math.comb(2 * rm, rm))
    dminus = (0, 1, math.comb(2 * rm, rm), math.comb(m - rm, rm))
    gammas = tuple(k.div(Monomial.from_int(d)) for k, d in zip(ks, dplus))
    return DegreeProfile(ks, gammas, dplus, dminus)


def all_valid_params(max_m):
    out = []
    for m in range(4, max_m + 1):
        for rho_m in range(1, m // 4 + 1):
            rho = Fraction(rho_m, m)
            for d in range(1, rho_m + 1):
                if rho_m % d == 0:
                    out.append(make_params(m, rho, epsilon=Fraction(1, d)))
    return out


class TestParams:
    def test_rejects_bad_rho(self):
        with pytest.raises(InstanceError):
            make_params(8, Fraction(1, 3))   # rho > 1/4
        with pytest.raises(InstanceError):
            make_params(9, Fraction(1, 4))   # rho*m not integral

    def test_rejects_bad_eps(self):
        with pytest.raises(InstanceError):
            make_params(8, Fraction(1, 4), epsilon=Fraction(2, 3))
        with pytest.raises(InstanceError):
            make_params(8, Fraction(1, 4), epsilon=Fraction(1, 3))  # eps*rho*m = 2/3
        for bad in (Fraction(-1), Fraction(0), Fraction(3, 2)):
            with pytest.raises(InstanceError):
                make_params(8, Fraction(1, 4), epsilon=bad)
        with pytest.raises(InstanceError):
            make_params(0, Fraction(1, 4))   # rho*m = 0: empty labels

    def test_m28_builds_lazily_and_each_walker_refuses_it(self):
        # no bound on m: the instance is lazy, and each command that walks
        # it bounds its own closed-form count of work
        from mmda_lab.cli import SA1_M_MAX
        from mmda_lab.rounding import FOREST_PATH_MAX, expected_forest_paths
        from mmda_lab.shadow import support_entries
        inst = build_mmda(make_params(28, Fraction(1, 4)))
        assert inst.layer_size(2) == math.comb(28, 14)
        assert inst.n_edges == 275_361_526_440 > instances.WORK_MAX
        assert support_entries(inst) == 945_449_736_814_440 > instances.WORK_MAX
        assert expected_forest_paths(inst) == 1_184_396 > FOREST_PATH_MAX
        assert inst.params.m > SA1_M_MAX

    def test_label_sizes_both_phases(self):
        p = make_params(16, Fraction(1, 4), epsilon=Fraction(1, 2))
        assert [p.label_size(i) for i in range(7)] == [0, 2, 4, 6, 8, 6, 4]


class TestColex:
    def test_round_trip(self):
        for k in range(0, 6):
            for r in range(math.comb(10, k)):
                assert rank_colex(unrank_colex(r, k)) == r

    def test_order_is_monotone_in_mask_reversal(self):
        masks = sorted(unrank_colex(r, 3) for r in range(math.comb(8, 3)))
        assert len(set(masks)) == math.comb(8, 3)


class TestDepth3Instance:
    def test_layer_sizes(self, inst8):
        assert [inst8.layer_size(i) for i in range(4)] == [1, 28, 70, 28]

    def test_figure_sized_instance(self, inst4):
        assert [inst4.layer_size(i) for i in range(4)] == [1, 4, 6, 4]

    def test_requirements(self, inst8):
        prof = inst8.profile
        assert prof.k[0].as_fraction() == Fraction(28, 15)
        assert prof.k[1].as_fraction() == Fraction(5, 2)
        assert prof.k[2].as_fraction() == 6

    def test_degrees(self, inst8):
        assert inst8.profile.delta_plus == (28, 15, 6)
        assert tuple(inst8.profile.delta_minus[1:]) == (1, 6, 15)

    def test_requirements_exceed_one(self, inst8):
        for k in inst8.profile.k:
            assert k.as_fraction() > 1

    def test_edges_respect_labels(self, inst8):
        v = (1, 5)
        lab = inst8.label(v)
        for w in inst8.out_neighbors(v):
            assert inst8.label(w) & lab == lab
        for t in inst8.in_neighbors((3, 11)):
            assert inst8.label((3, 11)) & inst8.label(t) == inst8.label((3, 11))

    def test_edge_counts(self, inst8):
        assert inst8.n_edges == 28 + 28 * 15 + 70 * 6

    @pytest.mark.parametrize("m,eps", [(4, Fraction(1)), (8, Fraction(1)),
                                       (8, Fraction(1, 2))])
    def test_edge_count_closed_form_is_the_enumeration(self, m, eps):
        inst = build_mmda(make_params(m, Fraction(1, 4), eps))
        assert inst.n_edges == sum(1 for _ in inst.all_edges())

    def test_edge_bound_falls_between_m16_and_m20(self):
        # bruteforce admits m=16 at rho=1/4 and refuses m=20
        edges = [build_mmda(make_params(m, Fraction(1, 4))).n_edges for m in (12, 16, 20)]
        assert edges == [37_180, 1_803_620, 93_132_528]
        assert edges[1] <= instances.WORK_MAX < edges[2]

    def test_direct_builder_matches_general(self):
        # monomials are prime-exponent maps, so equal profiles are equal values
        for m, rho in [(4, Fraction(1, 4)), (8, Fraction(1, 4)), (12, Fraction(1, 6)),
                       (16, Fraction(3, 16))]:
            assert build_depth3_direct(m, rho) == make_params(m, rho).profile


class TestDeepInstance:
    def test_seven_layers(self, inst16_deep):
        assert inst16_deep.ell == 6
        assert inst16_deep.layer_size(2) == math.comb(16, 4) == 1820
        assert inst16_deep.profile.delta_plus[0] == math.comb(16, 2) == 120

    def test_gamma_has_rational_exponents(self, inst16_deep):
        g = inst16_deep.profile.gamma[0]
        assert any(e.denominator == 2 for _, e in g.exponents)

    def test_exhaustive_edge_relation_small(self, inst8_deep):
        inst = inst8_deep
        peak = inst.params.peak_layer
        for i in range(1, inst.ell + 1):
            outs = {u: set(inst.out_neighbors(u)) for u in inst.vertices(i - 1)}
            for v in inst.vertices(i):
                ins = set(inst.in_neighbors(v))
                for u in inst.vertices(i - 1):
                    lu, lv = inst.label(u), inst.label(v)
                    nested = (lu & lv == lu) if i <= peak else (lv & lu == lv)
                    assert (u in ins) == nested
                    assert (v in outs[u]) == nested

    def test_layered_structure(self, inst8_deep):
        for u, v in inst8_deep.all_edges():
            assert v[0] == u[0] + 1

    def test_exhaustive_edge_relation_m12(self, inst12):
        inst = inst12
        peak = inst.params.peak_layer
        for i in range(1, inst.ell + 1):
            outs = {u: set(inst.out_neighbors(u)) for u in inst.vertices(i - 1)}
            for v in inst.vertices(i):
                ins = set(inst.in_neighbors(v))
                lv = inst.label(v)
                for u in inst.vertices(i - 1):
                    lu = inst.label(u)
                    nested = (lu & lv == lu) if i <= peak else (lv & lu == lv)
                    assert (u in ins) == nested, (u, v)
                    assert (v in outs[u]) == nested, (u, v)


class TestDesiderata:
    def test_identities_all_params_small(self):
        for params in all_valid_params(12):
            for name, ok in desiderata_identities(params):
                assert ok, (params, name)


class TestGraphQueries:
    def test_descendant_counts(self, inst8):
        layers = list(inst8.frontiers((1, 0)))
        assert len(layers[1]) == math.comb(6, 2) == 15
        assert len(layers[2]) == 28  # every sink is reachable

    def test_sink_has_no_descendants(self, inst8):
        assert list(inst8.frontiers((3, 0))) == [{(3, 0): 1}]

    def test_closed_form_descendant_count(self, inst8):
        assert descendants_in_layer(inst8, (1, 0), 2) == 15
        assert descendants_in_layer(inst8, (1, 0), 3) == 28


def overlap_params():
    """Every instance with m <= 16, rho in {1/4, 1/8} and eps in {1, 1/2}."""
    out = []
    for m in range(1, 17):
        for rho in (Fraction(1, 4), Fraction(1, 8)):
            for eps in (Fraction(1), Fraction(1, 2)):
                try:
                    out.append(make_params(m, rho, epsilon=eps))
                except InstanceError:
                    pass
    return out


class TestLabelCellCounts:
    @pytest.mark.parametrize("params", overlap_params(),
                             ids=lambda p: f"m{p.m}-r{p.rho}-e{p.epsilon}")
    def test_descendant_counts_match_the_overlap_sum(self, params):
        # the sum over the overlap t with v's label, as written before
        inst = build_mmda(params)
        for i in range(inst.ell + 1):
            size_v = params.label_size(i)
            for j in range(inst.ell + 1):
                size_j = params.label_size(j)
                old = 0 if j < i else sum(
                    math.comb(size_v, t) * math.comb(params.m - size_v, size_j - t)
                    for t in range(min(size_v, size_j) + 1) if inst.linked(i, j, t))
                assert descendants_in_layer(inst, (i, 0), j) == old, (i, j)


class TestWalkAgainstClosedForms:
    """One walk per vertex pins the closed-form reachability rule and the
    descendant counts of the class walk to the graph itself."""

    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2)], ids=str)
    def test_walk_matches_closed_forms(self, eps):
        inst = build_mmda(make_params(8, Fraction(1, 4), epsilon=eps))
        verts = [v for i in range(inst.ell + 1) for v in inst.vertices(i)]
        for v in verts:
            layers = list(inst.frontiers(v))
            assert len(layers) == inst.ell - v[0] + 1
            walked = {u for layer in layers for u in layer}
            assert walked == {u for u in verts if inst.reachable(v, u)}, v
            for j, layer in enumerate(layers, v[0]):
                assert len(layer) == descendants_in_layer(inst, v, j), (v, j)

    def test_pruned_walk_keeps_only_kept_vertices(self, inst8):
        target = (3, 0)
        walk = inst8.frontiers((0, 0), keep=lambda z: inst8.reachable(z, target))
        layers = list(walk)
        assert layers[-1] == {target: 90}
        assert all(inst8.reachable(z, target) for layer in layers for z in layer)


def _unranked_neighbors(inst, v, forward):
    """Neighbours of v from unranked labels alone: the labels one layer on
    that contain v's (``grow``) or that v's contains."""
    i = v[0]
    j = i + 1 if forward else i - 1
    if not 0 <= j <= inst.ell:
        return []
    p = inst.params
    lv = unrank_colex(v[1], p.label_size(i))
    grow = (j <= p.peak_layer) if forward else (i > p.peak_layer)
    out = []
    for r in range(inst.layer_size(j)):
        lu = unrank_colex(r, p.label_size(j))
        if (lu & lv == lv) if grow else (lu & lv == lu):
            out.append((j, r))
    return out


class TestLabelTable:
    """The label/rank memo, filled on demand, against colex unranking."""

    @pytest.mark.parametrize("m,rho", [(8, Fraction(1, 4)), (12, Fraction(1, 12))], ids=str)
    def test_table_matches_unranking(self, m, rho):
        # colex order of k-subsets is increasing-mask order
        inst = build_mmda(make_params(m, rho))
        for i in range(inst.ell + 1):
            k = inst.params.label_size(i)
            masks = sorted(sum(1 << b for b in c) for c in combinations(range(m), k))
            assert len(masks) == inst.layer_size(i)
            for r in range(inst.layer_size(i)):
                v = (i, r)
                lab = inst.label(v)
                assert lab == masks[r] == unrank_colex(r, k), v
                assert inst.vertex_with_label(i, lab) == v
                assert inst.out_neighbors(v) == _unranked_neighbors(inst, v, True), v
                assert inst.in_neighbors(v) == _unranked_neighbors(inst, v, False), v

    def test_a_step_memoizes_only_the_labels_it_meets(self, inst8):
        # each side of the memo, filled by unranking v and ranking its
        # neighbours, holds v and its C(6, 2) supersets in layer 2 alone
        fresh = build_mmda(make_params(8, Fraction(1, 4)))
        v = (1, 17)
        near = fresh.out_neighbors(v)
        assert near == inst8.out_neighbors(v) and len(near) == 15
        met = {v, *near}
        assert {(i, r) for i, d in enumerate(fresh._masks) for r in d} == met
        assert {(i, r) for i, d in enumerate(fresh._ranks) for r in d.values()} == met
        assert all(fresh._ranks[i][mask] == r
                   for i, d in enumerate(fresh._masks) for r, mask in d.items())
        # a vertex met again is read from the memo, no unranking
        fresh._masks[1][17] = -1
        assert fresh.label(v) == -1

    def test_label_outside_the_layer_is_rejected(self, inst8):
        for mask in (0b111, 0b1_0000_0001, -3):
            with pytest.raises(InstanceError):
                inst8.vertex_with_label(1, mask)
        for v in ((1, 28), (1, -1), (2, 70)):
            with pytest.raises(InstanceError, match="no vertex"):
                inst8.label(v)


class TestExplicitQueries:
    """The walk-based reachability and descendant counts on a hand-sized
    explicit instance."""

    def test_reachable_and_counts(self):
        ex = build_depth3_example()
        assert ex.reachable((1, 0), (3, 0)) and ex.reachable((2, 2), (2, 2))
        assert not ex.reachable((1, 0), (3, 7))
        assert not ex.reachable((3, 0), (1, 0))
        assert not ex.reachable((2, 0), (2, 1))
        assert [len(layer) for layer in ex.frontiers((1, 1))] == [1, 3, 6]
        assert len(list(ex.frontiers((0, 0)))[3]) == 8


class TestExplicitInstances:
    def test_config_gap_counts(self):
        cg = build_config_lp_gap(2)
        assert cg.n_vertices == 1 + 4 + 8 + 8
        assert cg.n_edges == 4 + 8 + 16
        cg3 = build_config_lp_gap(3)
        assert cg3.out_degree(cg3.source) == 9

    def test_config_gap_private_blocks(self):
        cg = build_config_lp_gap(2)
        for v in cg.vertices(1):
            sinks = {u for w in cg.out_neighbors(v) for u in cg.out_neighbors(w)}
            assert len(sinks) == 2

    def test_counterexample_counts(self):
        cex = build_subtree_counterexample(3)
        assert cex.layer_size(1) == 9
        assert cex.layer_size(2) == 9 + 3
        assert cex.n_edges == 9 + 9 + 27
        for v in cex.vertices(1):
            assert cex.out_degree(v) == 3 + 1

    def test_example_instance(self):
        ex = build_depth3_example()
        assert ex.k_of(ex.source) == 2
        assert all(ex.k_of(v) == 2
                   for i in range(3) for v in ex.vertices(i))

    def test_k_rejected_below_two(self):
        with pytest.raises(InstanceError):
            build_config_lp_gap(1)
        with pytest.raises(InstanceError):
            build_subtree_counterexample(1)

    @pytest.mark.parametrize("build,k,edges", [(build_config_lp_gap, 20, 168_400),
                                               (build_subtree_counterexample, 57, 191_691)])
    def test_largest_k_under_the_edge_bound(self, build, k, edges):
        # k^2 + k^3 + k^4 and 2k^2 + k^3 edges
        assert build(k).n_edges == edges <= instances.EXPLICIT_EDGE_MAX

    @pytest.mark.parametrize("build,k,edges", [(build_config_lp_gap, 21, 204_183),
                                               (build_subtree_counterexample, 58, 201_840)])
    def test_first_k_above_the_edge_bound(self, build, k, edges):
        with pytest.raises(InstanceError, match=f"^k={k} gives {edges} edges, above 200000$"):
            build(k)


class TestJson:
    def test_labeled_round_trip(self, inst8):
        data = instance_to_json(inst8)
        assert data["kind"] == "labeled"
        assert "edges" not in data          # label-determined, never serialized
        inst2 = instance_from_json(data)
        assert inst2.layer_size(2) == 70
        assert inst2.profile.delta_plus == inst8.profile.delta_plus
        # ell = 3/eps is derived, so a document may leave it out, but not
        # contradict it
        assert data["params"].pop("ell") == 3
        assert instance_from_json(data).params == inst8.params
        with pytest.raises(InstanceError):
            instance_from_json({**data, "params": {**data["params"], "ell": 4}})

    def test_explicit_round_trip(self):
        cex = build_subtree_counterexample(3)
        inst2 = instance_from_json(instance_to_json(cex))
        assert inst2.n_edges == cex.n_edges
        assert inst2.k_of((1, 0)) == 3
