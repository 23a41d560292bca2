from fractions import Fraction

from mmda_lab import reports
from mmda_lab.reports import (CHECK_MEMO_SIZE, ConstraintCheck, ViolationReport,
                              _decide, _verdict_memo, check_eq, check_ge, check_le,
                              vacuous)
from mmda_lab.scalars import EQ, GT, LT, Interval, Monomial, scalar_to_json

OPERANDS = [
    (Fraction(2, 7), Fraction(3, 7)),
    (Fraction(3, 7), Fraction(3, 7)),
    (Monomial({2: Fraction(1, 2)}), Fraction(3, 2)),
    (Fraction(1), Monomial.from_binomial(16, 4).pow(Fraction(1, 2))),
    (Monomial.from_binomial(8, 2), Monomial.from_binomial(8, 3)),
    (Monomial({6: Fraction(1, 3)}), Monomial({2: Fraction(1, 3), 3: Fraction(1, 3)})),
]


class TestCheckMemo:
    def test_hit_equals_a_fresh_comparison(self):
        _verdict_memo.cache_clear()
        for check, accept in ((check_le, (LT, EQ)), (check_ge, (GT, EQ)),
                              (check_eq, (EQ,))):
            for lhs, rhs in OPERANDS:
                first = check("a", lhs, rhs)
                hits = _verdict_memo.cache_info().hits
                again = check("b", lhs, rhs)
                assert _verdict_memo.cache_info().hits == hits + 1
                fresh = _decide(lhs, rhs, accept)
                for c in (first, again):
                    assert (c.satisfied, c.certified, c.factor) == fresh
                assert again.constraint_id == "b" and again.lhs == lhs and again.rhs == rhs
                # the two checks share one verdict, not just equal ones
                assert again.verdict is first.verdict

    def test_vacuous_checks_share_their_verdict(self):
        _verdict_memo.cache_clear()
        first = vacuous("a", "equality", 0, 0)
        again = vacuous("b", "equality", Fraction(0), 0)
        assert again.verdict is first.verdict
        assert (again.satisfied, again.certified, again.factor) == (True, True, None)
        info = _verdict_memo.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        # a decided check of the same operands is another verdict
        assert check_eq("c", 0, 0).verdict is not first.verdict

    def test_int_and_fraction_operands_give_equal_checks(self):
        _verdict_memo.cache_clear()
        for check in (check_le, check_ge, check_eq):
            for a, b in ((2, 3), (3, 3), (3, 2), (0, 1), (1, 0)):
                from_ints = check("n", a, b)
                hits = _verdict_memo.cache_info().hits
                from_fractions = check("n", Fraction(a), Fraction(b))
                # the same exact operands, so the same memo entry
                assert _verdict_memo.cache_info().hits == hits + 1
                assert from_ints == from_fractions
                for c in (from_ints, from_fractions):
                    assert type(c.lhs) is Fraction and type(c.rhs) is Fraction

    def test_verdicts_are_the_exact_ones(self):
        _verdict_memo.cache_clear()
        sqrt2 = Monomial({2: Fraction(1, 2)})
        for _ in range(2):
            le = check_le("x", sqrt2, Fraction(3, 2))
            assert le.satisfied is True and le.certified
            assert Fraction(9428, 10000) < le.factor.lo <= le.factor.hi < Fraction(9429, 10000)
            assert check_ge("y", sqrt2, Fraction(3, 2)).satisfied is False
            eq = check_eq("z", Monomial({6: 1}), Monomial({2: 1, 3: 1}))
            assert eq.satisfied is True and eq.factor == Monomial()

    def test_interval_operands_bypass_the_memo(self):
        _verdict_memo.cache_clear()
        iv = Interval(Fraction(1), Fraction(2))
        cases = [(iv, Fraction(3), True), (Fraction(1, 2), iv, True),
                 (iv, Fraction(1, 2), False), (iv, iv, None)]
        for lhs, rhs, satisfied in cases * 2:
            assert check_le("iv", lhs, rhs).satisfied is satisfied
        info = _verdict_memo.cache_info()
        assert info.currsize == 0 and info.hits == info.misses == 0

    def test_memo_stays_within_its_bound(self):
        _verdict_memo.cache_clear()
        one = Fraction(1)
        for n in range(CHECK_MEMO_SIZE + 100):
            assert check_le("n", Fraction(n, CHECK_MEMO_SIZE), one).satisfied is (
                n <= CHECK_MEMO_SIZE)
        info = _verdict_memo.cache_info()
        assert info.maxsize == CHECK_MEMO_SIZE
        assert info.currsize == CHECK_MEMO_SIZE


def _ones_report():
    """Twelve checks over five distinct scalars, each operand a fresh object:
    three values of 1 that must keep their own encodings, 1/3 and sqrt(2)."""
    ones = [lambda: Fraction(3, 3), lambda: Monomial({4: Fraction(0)}),
            lambda: Interval(Fraction(2, 2), Fraction(1))]
    rhs = [lambda: Fraction(1, 3), lambda: Monomial({2: Fraction(1, 2)})]
    rep = ViolationReport()
    for n in range(12):
        factor = rhs[1]() if n % 3 == 0 else None
        rep.add(ConstraintCheck(f"c{n}", "packing", ones[n % 3](), rhs[n % 2](),
                                n % 4 != 1, True, factor))
    return rep


class TestReportJson:
    def test_equals_the_per_check_encodings(self):
        rep = _ones_report()
        data = rep.to_json()
        assert data["summary"] == {"checks": 12, "violations": 3, "undecided": 0}
        assert data["checks"] == [c.to_json() for c in rep.checks]

    def test_the_three_ones_keep_their_encodings(self):
        lhs = [c["lhs"] for c in _ones_report().to_json()["checks"][:3]]
        assert lhs == [{"exact": "1", "approx": 1.0},
                       {"monomial": {}, "approx": 1.0},
                       {"lo": "1", "hi": "1", "approx": 1.0}]

    def test_one_encoding_per_distinct_scalar(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x)
            return scalar_to_json(x)

        monkeypatch.setattr(reports, "scalar_to_json", counted)
        data = _ones_report().to_json()
        assert len(calls) == 5
        # equal scalars share one dict, which the report writer renders once
        checks = data["checks"]
        assert checks[0]["lhs"] is checks[3]["lhs"] and checks[0]["rhs"] is checks[2]["rhs"]
        assert checks[0]["factor"] is checks[1]["rhs"]
