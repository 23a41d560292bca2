import math
from fractions import Fraction

import pytest

from mmda_lab.scalars import entropy_interval
from mmda_lab.scans import (f1_appendix, f2_appendix, f_packing, g_integral,
                            scan_proof_function)


def midpoint(iv):
    return float(iv.lo + iv.hi) / 2


class TestFunctionValues:
    def test_packing_leading_term(self):
        # f(r) ~ -r^2/ln 2 for small r
        r = Fraction(1, 1000)
        iv = f_packing(r, 256)
        predicted = -float(r) ** 2 / math.log(2)
        assert abs(midpoint(iv) - predicted) < 0.1 * abs(predicted)

    def test_integral_gap_leading_term(self):
        # g(r) ~ r log(1/r) / (3 ln 2)
        r = Fraction(1, 1000)
        iv = g_integral(r, 256)
        predicted = float(r) * math.log(1000) / (3 * math.log(2))
        assert abs(midpoint(iv) - predicted) < 0.5 * abs(predicted)

    def test_boundary_functions_vanish_at_two(self):
        assert f1_appendix(Fraction(2), Fraction(1, 1000), 256).sign() == 0
        assert f2_appendix(Fraction(2), Fraction(1, 1000), 256).sign() == 0

    def test_mirror_symmetry(self):
        # the two boundary forms coincide under y = 4 - x
        rho = Fraction(1, 500)
        for t in (Fraction(1, 5000), Fraction(1, 800)):
            a = f1_appendix(2 + t, rho, 256)
            b = f2_appendix(2 - t, rho, 256)
            assert a.lo <= b.hi and b.lo <= a.hi


class TestScans:
    def test_packing_negative_on_range(self):
        rep = scan_proof_function("f_packing", Fraction(1, 10000),
                                  Fraction(1, 100), 25)
        assert rep.all_satisfied and rep.undecided == 0

    def test_integral_positive_on_range(self):
        rep = scan_proof_function("g_integral", Fraction(1, 10000),
                                  Fraction(1, 100), 25)
        assert rep.all_satisfied and rep.undecided == 0

    def test_boundary_deltas_positive(self):
        r1 = scan_proof_function("f1_appendix", Fraction(2),
                                 Fraction(2001, 1000), 40)
        assert r1.points[0].sign == 0
        assert r1.delta is not None and r1.delta > 0
        r2 = scan_proof_function("f2_appendix", Fraction(1999, 1000),
                                 Fraction(2), 40)
        assert r2.points[-1].sign == 0
        assert r2.delta is not None and r2.delta > 0

    def test_boundary_scan_turns_positive_eventually(self):
        # far enough from the crossing the form goes positive, so the
        # anchored run is a strict prefix
        rep = scan_proof_function("f1_appendix", Fraction(2), Fraction(21, 10), 30,
                                  rho=Fraction(1, 1000))
        assert not rep.all_satisfied
        assert rep.delta is not None and rep.delta < Fraction(1, 10)

    @pytest.mark.parametrize("name", ["k_bound_phase1", "k_bound_phase2",
                                      "k_bound_phase3"])
    def test_requirement_exponents_positive(self, name):
        rep = scan_proof_function(name, Fraction(1, 1000), Fraction(1, 1000), 2,
                                  eps=Fraction(1, 100))
        assert all(p.sign == 1 for p in rep.points)

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            scan_proof_function("nope", 0, 1, 3)

    def test_entropy_argument_outside_unit_interval_names_the_point(self):
        with pytest.raises(ValueError, match=r"^g_integral is undefined at x=3/4: "
                                             r"entropy argument must lie in \[0, 1\]$"):
            scan_proof_function("g_integral", Fraction(1, 2), Fraction(3, 4), 2)

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            scan_proof_function("f_packing", Fraction(1, 100), Fraction(1, 10), 1)

    def test_report_json(self):
        rep = scan_proof_function("g_integral", Fraction(1, 1000),
                                  Fraction(1, 100), 5)
        data = rep.to_json()
        assert data["name"] == "g_integral"
        assert len(data["points"]) == 5
