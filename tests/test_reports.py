from fractions import Fraction

from mmda_lab.reports import (CHECK_MEMO_SIZE, _decide, _decide_memo, check_eq,
                              check_ge, check_le)
from mmda_lab.scalars import EQ, GT, LT, Interval, Monomial

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
        _decide_memo.cache_clear()
        for check, accept in ((check_le, (LT, EQ)), (check_ge, (GT, EQ)),
                              (check_eq, (EQ,))):
            for lhs, rhs in OPERANDS:
                first = check("a", lhs, rhs)
                hits = _decide_memo.cache_info().hits
                again = check("b", lhs, rhs)
                assert _decide_memo.cache_info().hits == hits + 1
                fresh = _decide(lhs, rhs, accept)
                for c in (first, again):
                    assert (c.satisfied, c.certified, c.factor) == fresh
                assert again.constraint_id == "b" and again.lhs == lhs and again.rhs == rhs

    def test_int_and_fraction_operands_give_equal_checks(self):
        _decide_memo.cache_clear()
        for check in (check_le, check_ge, check_eq):
            for a, b in ((2, 3), (3, 3), (3, 2), (0, 1), (1, 0)):
                from_ints = check("n", a, b)
                hits = _decide_memo.cache_info().hits
                from_fractions = check("n", Fraction(a), Fraction(b))
                # the same exact operands, so the same memo entry
                assert _decide_memo.cache_info().hits == hits + 1
                assert from_ints == from_fractions
                for c in (from_ints, from_fractions):
                    assert type(c.lhs) is Fraction and type(c.rhs) is Fraction

    def test_verdicts_are_the_exact_ones(self):
        _decide_memo.cache_clear()
        sqrt2 = Monomial({2: Fraction(1, 2)})
        for _ in range(2):
            le = check_le("x", sqrt2, Fraction(3, 2))
            assert le.satisfied is True and le.certified
            assert Fraction(9428, 10000) < le.factor.lo <= le.factor.hi < Fraction(9429, 10000)
            assert check_ge("y", sqrt2, Fraction(3, 2)).satisfied is False
            eq = check_eq("z", Monomial({6: 1}), Monomial({2: 1, 3: 1}))
            assert eq.satisfied is True and eq.factor == Monomial()

    def test_interval_operands_bypass_the_memo(self):
        _decide_memo.cache_clear()
        iv = Interval(Fraction(1), Fraction(2))
        cases = [(iv, Fraction(3), True), (Fraction(1, 2), iv, True),
                 (iv, Fraction(1, 2), False), (iv, iv, None)]
        for lhs, rhs, satisfied in cases * 2:
            assert check_le("iv", lhs, rhs).satisfied is satisfied
        info = _decide_memo.cache_info()
        assert info.currsize == 0 and info.hits == info.misses == 0

    def test_memo_stays_within_its_bound(self):
        _decide_memo.cache_clear()
        one = Fraction(1)
        for n in range(CHECK_MEMO_SIZE + 100):
            assert check_le("n", Fraction(n, CHECK_MEMO_SIZE), one).satisfied is (
                n <= CHECK_MEMO_SIZE)
        info = _decide_memo.cache_info()
        assert info.maxsize == CHECK_MEMO_SIZE
        assert info.currsize == CHECK_MEMO_SIZE
