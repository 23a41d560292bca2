"""Exact congestion identities of the shadow distribution and the
controls that show where its key property comes from and where it breaks.
"""

import hashlib
import json
import math
import time
from fractions import Fraction

import pytest

from mmda_lab.cli import main
from mmda_lab.instances import build_subtree_counterexample
from mmda_lab.shadow import ConditionEvent, sa1_certificate
from test_relaxations import subtree_sums
from test_shadow import counterexample_shadow_model


class TestMiddleLayerPackingIdentity:
    def test_triggered_congestion_sums_to_one(self, inst8, model8, family8):
        # every middle vertex: the first-layer triggers below it each push
        # exactly 1/C(2rm, rm) onto one in-edge, and there are C(2rm, rm)
        # of them
        for v in list(inst8.vertices(2))[:10]:
            total = Fraction(0)
            for w in inst8.in_neighbors(v):
                f = (inst8.source, w)
                contribution = sum((val for e, val in family8.support(f)
                                    if e[1] == v), Fraction(0))
                assert contribution == Fraction(1, 6)
                total += contribution
            assert total == 1


class TestBottomLayerCongestionBound:
    def test_term_by_term_closed_form(self, inst8, model8, family8):
        # conditioned congestion estimate at a sink: direct enumeration of
        # sum over first-layer edges of (6x + trigger value) * inflow
        # equals 6 + (C1/C0)^2 * sum_j C(m-2rm+j, j)^-1 C(rm, j)^2
        inst = inst8
        m, rm = 8, 2
        c0, c1 = math.comb(m, rm), math.comb(m - rm, rm)
        w = inst.out_neighbors((1, 0))[0]
        t = inst.out_neighbors(w)[0]
        e1 = (w, t)
        lw, lt = inst.label(w), inst.label(t)
        x1 = Fraction(1, c1)
        inflow = Fraction(c1, c0)
        direct = Fraction(0)
        by_j: dict[int, Fraction] = {}
        for v in inst.vertices(1):
            e = (inst.source, v)
            trig = dict(family8.support(e)).get(e1, Fraction(0))
            direct += (6 * x1 + trig) * inflow
            if trig:
                j = bin(inst.label(v) & lt).count("1")
                by_j[j] = by_j.get(j, 0) + trig * inflow
        closed = 6 + Fraction(c1, c0) ** 2 * sum(
            Fraction(math.comb(rm, j) ** 2, math.comb(m - 2 * rm + j, j))
            for j in range(rm + 1))
        assert direct == closed
        # term-by-term: the j-grouped pieces match the closed-form terms
        for j in range(rm + 1):
            expected = (Fraction(c1, c0) ** 2 *
                        Fraction(math.comb(rm, j) ** 2,
                                 math.comb(m - 2 * rm + j, j)))
            assert by_j.get(j, Fraction(0)) == expected, j

    def test_flow_inflow_constant(self, inst8, family8):
        e = (inst8.source, (1, 7))
        sums = subtree_sums(family8, e)
        vals = {sums.vertex(t)[0] for t in list(inst8.vertices(3))[:9]}
        assert vals == {Fraction(15, 28)}


class TestSharedSinkControl:
    def test_ratio_degenerates_on_public_edges(self):
        inst = build_subtree_counterexample(3)
        model = counterexample_shadow_model(inst)
        v = (1, 0)
        pub = inst.public_sinks[0]
        e = (v, pub)
        assert model.x_of(e) == 0
        assert model.marginal(e) == Fraction(1, 3)
        # private edges keep their mass
        priv = inst.private_sinks[0]
        assert model.x_of((v, priv)) == 1

    def test_private_edges_certain(self):
        inst = build_subtree_counterexample(2)
        model = counterexample_shadow_model(inst)
        assert model.marginal(((1, 0), inst.private_sinks[0])) == 1


class TestSkippedEvents:
    def test_certain_edges_skip_negative_conditioning(self):
        # private edges of the shared-sink model are active with
        # probability one; their negative conditionings are skipped and
        # counted, not raised
        inst = build_subtree_counterexample(2)
        model = counterexample_shadow_model(inst)
        res = sa1_certificate(model, Fraction(0), Fraction(10))
        assert res.events_skipped == len(inst.private_sinks)
        assert res.events_checked == 2 * inst.n_edges - res.events_skipped


MIN_COVERING_SLACK = Fraction(10054130463127597956708659,
                              17044555094048160000000000)
MAX_PACKING_SUM = Fraction(1922149200821972655701325656490682556443063,
                           530494369178953966710418628622720000000000)


class TestFullConditionalSweep:
    def test_recorded_fixture_levels(self, inst8, model8, tmp_path):
        # every edge, both signs: recorded floor/ceiling from the exact
        # engine; the run also exercises the skipped-event accounting
        t0 = time.monotonic()
        res = sa1_certificate(model8, Fraction(1, 7), Fraction(4))
        dt = time.monotonic() - t0
        assert res.passed, (res.min_covering_slack, res.max_packing_sum)
        assert res.events_checked == 2 * inst8.n_edges
        assert res.events_skipped == 0
        # recorded fixture values: the binding conditionings
        assert res.min_covering_slack == MIN_COVERING_SLACK
        assert res.worst_covering[0] == "+1.0>2.0"
        assert res.max_packing_sum == MAX_PACKING_SUM
        assert res.worst_packing[0] == "+2.0>3.0"
        assert dt < 2, dt
        # the six events of `sa1-report --events layers` reach the same
        # extremes as the full sweep
        out = tmp_path / "sa1.json"
        assert main(["sa1-report", "--m", "8", "--rho", "1/4",
                     "--events", "layers", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["events_checked"] == 6
        assert Fraction(data["min_covering_slack"]["exact"]) == MIN_COVERING_SLACK
        assert Fraction(data["max_packing_sum"]["exact"]) == MAX_PACKING_SUM


class TestEveryEventSweep:
    def test_all_events_read_as_the_layer_events(self, tmp_path):
        # S_m maps the events of a layer and sign onto each other, so the
        # 3,607,240 events of m=16 are the six layer events, counted per edge
        reports = {}
        for events in ("all", "layers"):
            out = tmp_path / f"{events}.json"
            assert main(["sa1-report", "--m", "16", "--events", events, "--out", str(out)]) == 0
            reports[events] = json.loads(out.read_text())
        assert reports["all"].pop("events_checked") == 3_607_240
        assert reports["layers"].pop("events_checked") == 6
        assert reports["all"] == reports["layers"]


# sha256 of the exact strings of `sa1-report --m 20 --events layers`:
# 5,357 and 10,861 characters
M20_MIN_COVERING_SLACK_SHA256 = \
    "544c810575dc1e90d01c418b27f7c99c1cfa9fa190302b8f37edfe2c85da952f"
M20_MAX_PACKING_SUM_SHA256 = \
    "b7a7e1252bd38af5139f8d1f4c2f3c31af35a19ad7fd464cf29a56960f6b8cb0"


class TestSa1AtM20:
    def test_recorded_extremes(self, tmp_path):
        # the six layer events reach the slack and packing extremes at the
        # same locations as at m=8; the class engine takes seconds here
        out = tmp_path / "sa1.json"
        t0 = time.monotonic()
        assert main(["sa1-report", "--m", "20", "--events", "layers",
                     "--out", str(out)]) == 0
        dt = time.monotonic() - t0
        data = json.loads(out.read_text())
        cov, pack = data["min_covering_slack"], data["max_packing_sum"]
        assert hashlib.sha256(cov["exact"].encode()).hexdigest() \
            == M20_MIN_COVERING_SLACK_SHA256
        assert hashlib.sha256(pack["exact"].encode()).hexdigest() \
            == M20_MAX_PACKING_SUM_SHA256
        assert round(cov["approx"], 5) == 0.50215
        assert round(pack["approx"], 5) == 4.04676
        assert data["worst_covering"] == ["+1.0>2.0", "(2, 0)"]
        assert data["worst_packing"] == ["+2.0>3.0", "(3, 0)"]
        assert data["events_checked"] == 6 and data["status"] == "pass"
        assert dt < 5, dt
