import math
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mmda_lab import scalars
from mmda_lab.scalars import (DEFAULT_PRECISION, EQ, GT, LT, MONO_ONE, UNDECIDED,
                              Interval, Monomial, PrecisionCapExceeded, _atanh_bounds,
                              _exp_bounds, _ln2_bounds, as_fraction, as_scalar,
                              compare_certified, entropy_interval, exp2_interval,
                              floor_log2, iv_add, iv_div, iv_mul, iv_neg, iv_pow_int,
                              iv_scale, log2_interval, round_dyadic, scalar_to_json,
                              to_interval)


def near(iv, x, eps=1e-12):
    return float(iv.lo) - eps <= x <= float(iv.hi) + eps


class TestRationals:
    def test_compare_equal(self):
        assert compare_certified(Fraction(1, 15), Fraction(1, 15)) == EQ

    def test_compare_middle_layer_marginal(self):
        # 1 - (1 - 1/90)^2 = 179/8100 < 2/90
        s = 1 - (1 - Fraction(1, 90)) ** 2
        assert s == Fraction(179, 8100)
        assert compare_certified(s, Fraction(2, 90)) == LT


class TestMonomials:
    def test_sqrt2_squared_is_two(self):
        m = Monomial({2: Fraction(1, 2)})
        assert m.mul(m).as_fraction() == 2

    def test_sqrt2_above_one(self):
        assert compare_certified(Monomial({2: Fraction(1, 2)}), Fraction(1)) == GT

    def test_composite_bases_normalize(self):
        assert Monomial({4: Fraction(1, 2)}).as_fraction() == 2
        assert Monomial({6: 1}) == Monomial({2: 1, 3: 1})

    def test_factorial_and_binomial(self):
        assert Monomial.from_factorial(5).as_fraction() == 120
        assert Monomial.from_binomial(8, 2).as_fraction() == 28
        assert Monomial.from_binomial(16, 4).as_fraction() == math.comb(16, 4)
        # the prime-base constructors against __init__, which factors
        # every base it is given
        def init(*bases):
            return Monomial({b: 1 for b in bases if b > 1})
        built = [(Monomial.from_int(n), init(n)) for n in range(1, 201)]
        built += [(Monomial.from_factorial(n), init(*range(2, n + 1))) for n in range(201)]
        built += [(Monomial.from_binomial(n, k), init(math.comb(n, k)))
                  for n in range(65) for k in range(n + 1)]
        for got, want in built:
            assert got.exponents == want.exponents
            assert all(type(e) is Fraction for _, e in got.exponents)

    def test_irrational_vs_rational_compare(self):
        g = Monomial.from_binomial(16, 4).pow(Fraction(1, 2))  # sqrt(1820)
        assert compare_certified(g, Fraction(42)) == GT
        assert compare_certified(g, Fraction(43)) == LT

    def test_hash_is_the_exponent_tuple_hash(self):
        a = Monomial({6: Fraction(1, 2), 5: 2})
        built = [a, Monomial(), Monomial.from_binomial(16, 4),
                 Monomial._from_factored([(3, Fraction(1, 2)), (2, Fraction(1, 2))]),
                 a.mul(Monomial({3: 1})), a.div(Monomial({2: 1})), a.div(a),
                 a.pow(Fraction(-2, 3))]
        for m in built:
            for _ in range(2):      # computed, then read back
                assert hash(m) == hash(m.exponents)
            twin = Monomial(dict(m.exponents))
            assert twin == m and hash(twin) == hash(m)
            with pytest.raises(AttributeError):
                m._hash = 0

    def test_interval_conversion_multiplicative(self):
        a = Monomial({2: Fraction(1, 2)})
        b = Monomial({3: Fraction(1, 3)})
        prod_iv = a.mul(b).to_interval()
        iv = iv_mul(a.to_interval(), b.to_interval())
        assert prod_iv.lo <= iv.hi and iv.lo <= prod_iv.hi


class TestModeConversions:
    """as_scalar, as_fraction and to_interval on each kind of operand."""

    SQRT2 = Monomial({2: Fraction(1, 2)})
    IV = Interval(Fraction(1, 3), Fraction(1, 2))

    def test_as_scalar(self):
        for x in (3, Fraction(3)):
            got = as_scalar(x)
            assert type(got) is Fraction and got == 3
        for x in (Monomial.from_int(12), self.SQRT2, self.IV):
            assert as_scalar(x) is x
        with pytest.raises(TypeError):
            as_scalar(1.5)

    def test_as_fraction(self):
        assert type(as_fraction(3)) is Fraction and as_fraction(3) == 3
        assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
        assert as_fraction(Monomial.from_binomial(8, 2).pow(-1)) == Fraction(1, 28)
        assert as_fraction(self.SQRT2) is None
        assert as_fraction(self.IV) is None

    def test_to_interval(self):
        # an integer or a dyadic rational is enclosed exactly
        for x in (3, Fraction(3), Fraction(5, 8)):
            iv = to_interval(x, 64)
            assert iv.lo == iv.hi == x and iv.prec == 64
        # a non-dyadic rational is bracketed by its two roundings
        third = to_interval(Fraction(1, 3), 64)
        assert third.lo == round_dyadic(Fraction(1, 3), 64, up=False)
        assert third.hi == round_dyadic(Fraction(1, 3), 64, up=True)
        assert third.lo < Fraction(1, 3) < third.hi
        assert to_interval(Monomial.from_int(12), 64) == to_interval(12, 64)
        root = to_interval(self.SQRT2, 64)
        assert root.lo ** 2 < 2 < root.hi ** 2 and root.width < Fraction(1, 1 << 50)
        # an interval is opaque: returned as is, at its own precision
        assert to_interval(self.IV, 64) is self.IV


class TestJsonEncoding:
    def test_exact_string_past_the_int_digit_limit(self):
        # sa1 reports at m=20 carry denominators of about 5,400 digits,
        # past CPython's default int-to-str limit of 4,300
        q = Fraction(10 ** 4400 + 1, 3 * 10 ** 4399)
        limit = sys.get_int_max_str_digits()
        out = scalar_to_json(q)
        assert out["exact"] == "1" + "0" * 4399 + "1/3" + "0" * 4399
        assert out["approx"] == pytest.approx(10 / 3)
        # the limit of the process is left as it was
        assert sys.get_int_max_str_digits() == limit

    def test_approx_is_null_outside_the_float_range(self):
        q = Fraction(10 ** 4400 + 1, 3)
        out = scalar_to_json(q)
        assert out["exact"] == "1" + "0" * 4399 + "1/3" and out["approx"] is None
        huge = Monomial({2: Fraction(4000)})
        assert scalar_to_json(huge)["approx"] is None
        assert scalar_to_json(huge.pow(Fraction(1, 4)))["approx"] == 2.0 ** 1000
        iv = Interval(Fraction(10 ** 400), Fraction(10 ** 401))
        assert scalar_to_json(iv)["approx"] is None
        # tiny values still have a finite float
        assert scalar_to_json(Fraction(1, 10 ** 400))["approx"] == 0.0


class TestCompareProperties:
    def test_antisymmetric(self):
        pairs = [(Fraction(2, 7), Fraction(3, 7)),
                 (Monomial({2: Fraction(1, 2)}), Fraction(3, 2)),
                 (Monomial.from_binomial(8, 2), Monomial.from_binomial(8, 3))]
        # irrational monomials against positive, zero and negative rationals
        irrational = [m for m in _seeded_monomials(40) if not m.is_rational]
        rationals = [Fraction(0), Fraction(-3, 7), Fraction(1, 10 ** 6), Fraction(1),
                     Fraction(10 ** 6, 7)]
        pairs += [(m, q) for m in irrational for q in rationals]
        pairs += [(m, Fraction(m.approx()).limit_denominator(97)) for m in irrational]
        # a rational-valued monomial against its own Fraction
        own = [(m, m.as_fraction()) for m in _seeded_monomials(40) if m.is_rational]
        assert all(compare_certified(m, q) == EQ for m, q in own)
        pairs += own
        assert len(irrational) >= 10 and len(own) >= 5
        flip = {LT: GT, GT: LT, EQ: EQ}
        for a, b in pairs:
            assert compare_certified(b, a) == flip[compare_certified(a, b)]

    def test_consistent_with_fractions(self):
        import random
        rng = random.Random(0)
        for _ in range(100):
            a = Fraction(rng.randrange(-50, 50), rng.randrange(1, 40))
            b = Fraction(rng.randrange(-50, 50), rng.randrange(1, 40))
            got = compare_certified(a, b)
            assert got == (LT if a < b else GT if a > b else EQ)

    def test_interval_overlap_undecided(self):
        a = Interval(Fraction(0), Fraction(1))
        b = Interval(Fraction(1, 2), Fraction(2))
        assert compare_certified(a, b) == UNDECIDED

    def test_disjoint_intervals_ordered(self):
        a = Interval(Fraction(0), Fraction(1, 3))
        b = Interval(Fraction(1, 2), Fraction(2))
        assert compare_certified(a, b) == LT


class TestLog2Binomial:
    """log2_interval on exact binomials, the sizes the layered instances
    take logarithms of."""

    def test_known_values(self):
        assert near(log2_interval(Fraction(math.comb(8, 2))), math.log2(28))
        assert near(log2_interval(Fraction(math.comb(4, 2))), math.log2(6))
        assert log2_interval(Fraction(math.comb(5, 0))).contains(0)
        assert log2_interval(Fraction(math.comb(7, 7))).contains(0)

    def test_enclosure_contains_exact_binomial(self):
        # exp2 of the enclosure must contain the integer C(n, k); a sign
        # certified at 64 bits stays certified, so low precision suffices
        for n in range(0, 65):
            for k in range(0, n + 1):
                iv = log2_interval(Fraction(math.comb(n, k)), 64)
                back = exp2_interval(iv)
                assert back.lo <= math.comb(n, k) <= back.hi, (n, k)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log2_interval(Fraction(0))
        with pytest.raises(ValueError):
            log2_interval(Fraction(-1, 3))


class TestEntropy:
    def test_endpoints_exact_zero(self):
        assert entropy_interval(Fraction(0)).contains(0)
        assert entropy_interval(Fraction(1)).hi == 0

    def test_half_is_one(self):
        assert entropy_interval(Fraction(1, 2)).contains(1)

    def test_symmetry(self):
        for num, den in [(1, 3), (1, 7), (2, 9), (5, 11)]:
            x = Fraction(num, den)
            a = entropy_interval(x)
            b = entropy_interval(1 - x)
            assert a.lo <= b.hi and b.lo <= a.hi
        assert near(entropy_interval(Fraction(1, 3)), math.log2(3) - Fraction(2, 3))


class TestIntervals:
    def test_log2_powers_of_two_exact_containment(self):
        for k in (-6, -1, 0, 1, 5, 30):
            assert log2_interval(Fraction(2) ** k).contains(k)

    def test_log2_product_rule(self):
        a, b = Fraction(7, 5), Fraction(28)
        lhs = log2_interval(a * b)
        rhs = iv_add(log2_interval(a), log2_interval(b))
        assert lhs.lo <= rhs.hi and rhs.lo <= lhs.hi

    def test_identity_mul(self):
        one = Interval(Fraction(1), Fraction(1))
        x = to_interval(Fraction(1, 15), DEFAULT_PRECISION)
        out = iv_mul(one, x)
        assert out.contains(Fraction(1, 15))

    def test_exp2_three(self):
        assert exp2_interval(Interval(Fraction(3), Fraction(3))).contains(8)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(Fraction(1), Fraction(0))


# Reference kernels: the series as first written, on reduced Fractions.
# The integer kernels in scalars must return exactly the same values.

def _ref_floor_log2(x):
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    while Fraction(2) ** (e + 1) <= x:
        e += 1
    while Fraction(2) ** e > x:
        e -= 1
    return e


def _ref_round_dyadic(x, prec, up):
    if x == 0:
        return Fraction(0)
    if x.denominator == 1 and abs(x.numerator).bit_length() <= prec:
        return x
    shift = prec - 1 - _ref_floor_log2(abs(x))
    scaled = x * Fraction(2) ** shift
    num = math.ceil(scaled) if up else math.floor(scaled)
    return num / Fraction(2) ** shift


def _ref_atanh_bounds(z, prec):
    if z == 0:
        return Fraction(0), Fraction(0)
    tol = Fraction(1, 1 << (prec + 4))
    total = Fraction(0)
    term = z
    zz = z * z
    k = 0
    while term / (2 * k + 1) > tol:
        total += term / (2 * k + 1)
        term *= zz
        k += 1
        total = _ref_round_dyadic(total, prec + 16, up=False)
        term = _ref_round_dyadic(term, prec + 16, up=True)
    rem = term / ((2 * k + 1) * (1 - zz))
    return total, total + rem + tol * (k + 2)


def _ref_exp_bounds(x, prec):
    tol = Fraction(1, 1 << (prec + 4))
    total = Fraction(1)
    term = Fraction(1)
    k = 0
    while True:
        k += 1
        term = term * x / k
        total += term
        if abs(term) <= tol and k >= 2:
            break
    rem = 2 * abs(term) + tol
    return total - rem, total + rem


def _oracle_arguments():
    """Seeded (x, prec) pairs: dyadic in [-1, 1], non-dyadic, and edge values."""
    import random
    rng = random.Random(20240)
    out = []
    for prec in (64, 128, 256, 512):
        for _ in range(6):
            bits = prec + rng.choice((0, 8, 16))
            out.append((Fraction(rng.randrange(-(1 << bits), (1 << bits) + 1),
                                 1 << bits), prec))
        for _ in range(3):
            out.append((Fraction(rng.randrange(-10 ** 9, 10 ** 9),
                                 rng.randrange(10 ** 9, 10 ** 10)), prec))
        out += [(Fraction(x), prec) for x in (0, 1, -1, Fraction(1, 3))]
    return out


def _log2_atanh_arguments():
    """The arguments log2_interval hands the atanh kernel: z = (r-1)/(r+1)
    for the mantissa r in [1, 2) of a seeded rational q, rounded down and
    up to prec+16 bits, at every precision a comparison may escalate to."""
    import random
    rng = random.Random(31)
    out = []
    for prec, count in ((64, 8), (256, 8), (1024, 4), (4096, 1)):
        for _ in range(count):
            q = Fraction(rng.randrange(1, 10 ** 30), rng.randrange(1, 10 ** 30))
            e = _ref_floor_log2(q)
            r = q / Fraction(2) ** e
            z = (r - 1) / (r + 1)
            out += [(_ref_round_dyadic(z, prec + 16, up), prec) for up in (False, True)]
    return out


class TestSeriesOracle:
    @pytest.mark.parametrize("x,prec", _oracle_arguments() + [
        (Fraction(x), 4096) for x in (0, 1, -1, Fraction(1, 3), Fraction(-5, 7))])
    def test_exp_bounds_equal_reference(self, x, prec):
        # the kernel returns the reference endpoints rounded out to prec bits
        lo, hi = _ref_exp_bounds(x, prec)
        want = _ref_round_dyadic(lo, prec, up=False), _ref_round_dyadic(hi, prec, up=True)
        assert _exp_bounds(x, prec) == want

    @pytest.mark.parametrize("prec,count", [(64, 12), (192, 12), (256, 12), (512, 6),
                                            (1024, 1)])
    def test_exp2_interval_equals_reference(self, prec, count):
        # the enclosure as it was built from unrounded series bounds: each
        # end scaled by 2**n, then rounded out once at prec
        l2 = [2 * b for b in _ref_atanh_bounds(Fraction(1, 3), prec)]

        def ref_end(y, up):
            n = math.floor(y)
            arg = _ref_round_dyadic((y - n) * l2[up], prec + 8, up)
            return _ref_round_dyadic(_ref_exp_bounds(arg, prec)[up] * Fraction(2) ** n, prec, up)

        ms = [m for m in _seeded_monomials(3 * count) if m.as_fraction() is None][:count]
        assert len(ms) == count
        for m in ms:
            iv = m.log2_interval(prec)
            got = exp2_interval(iv, prec)
            assert (got.lo, got.hi, got.prec) == (ref_end(iv.lo, False), ref_end(iv.hi, True), prec)

    @pytest.mark.parametrize("x,prec", _oracle_arguments())
    def test_atanh_bounds_equal_reference(self, x, prec):
        z = abs(x) / 2  # the kernel's domain is [0, 1/2]
        assert _atanh_bounds(z, prec) == _ref_atanh_bounds(z, prec)

    def test_atanh_of_one_third(self):
        # _ln2_bounds passes this non-dyadic argument
        for prec in (64, 256, 512):
            z = Fraction(1, 3)
            assert _atanh_bounds(z, prec) == _ref_atanh_bounds(z, prec)

    @pytest.mark.parametrize("z,prec", _log2_atanh_arguments())
    def test_atanh_bounds_equal_reference_on_log2_arguments(self, z, prec):
        assert _atanh_bounds(z, prec) == _ref_atanh_bounds(z, prec)

    @pytest.mark.parametrize("prec", (64, 256, 1024, 4096))
    def test_atanh_edge_arguments(self, prec):
        # the top of the domain, a dyadic so small that the loop runs at
        # most once, and non-dyadic arguments with large odd denominators
        zs = [Fraction(1, 2), Fraction(1, 1 << 500), Fraction(5, 11), Fraction(1, 3 << 40),
              Fraction(123456789, 3 * 10 ** 9 + 7), Fraction(10 ** 9 - 1, 5 * 10 ** 9 + 3)]
        for z in zs:
            assert _atanh_bounds(z, prec) == _ref_atanh_bounds(z, prec), z

    @pytest.mark.parametrize("prec", (64, 256, 1024, 4096))
    def test_ln2_bounds_equal_reference(self, prec):
        _ln2_bounds.cache_clear()
        lo, hi = _ref_atanh_bounds(Fraction(1, 3), prec)
        assert _ln2_bounds(prec) == (2 * lo, 2 * hi)

    @pytest.mark.parametrize("z", [Fraction(-1, 4), Fraction(1),
                                   Fraction(1, 2) + Fraction(1, 1 << 80)])
    def test_atanh_rejects_arguments_outside_its_domain(self, z):
        # below 0 the lower bound would sit above atanh(z), and at z = 1
        # the term never decays, so the loop would not end
        with pytest.raises(ValueError):
            _atanh_bounds(z, 64)

    def test_round_dyadic_equals_reference(self):
        import random
        rng = random.Random(7)
        xs = [Fraction(rng.randrange(-10 ** 40, 10 ** 40), rng.randrange(1, 10 ** 25))
              for _ in range(150)]
        xs += [Fraction(rng.randrange(-(1 << 200), 1 << 200), 1 << rng.randrange(300))
               for _ in range(150)]
        xs += [Fraction(rng.randrange(-(1 << 90), 1 << 90)) for _ in range(50)]
        xs += [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-2, 3)]
        for x in xs:
            for prec in (1, 2, 16, 64, 100):
                for up in (False, True):
                    got = round_dyadic(x, prec, up)
                    assert got == _ref_round_dyadic(x, prec, up), (x, prec, up)
                    assert got >= x if up else got <= x
            if x > 0:
                assert floor_log2(x) == _ref_floor_log2(x)


@lru_cache(maxsize=None)
def _ref_ln2_bounds(prec):
    return tuple(2 * b for b in _ref_atanh_bounds(Fraction(1, 3), prec))


def _ref_log2_interval(q, prec):
    """log2_interval as Fractions: z = (r-1)/(r+1) for the mantissa r of q,
    rounded both ways, and each end e + 2*atanh(z)/ln2 rounded out at prec."""
    e = _ref_floor_log2(q)
    r = q / Fraction(2) ** e
    z = (r - 1) / (r + 1)
    a_lo, a_hi = _ref_atanh_bounds(_ref_round_dyadic(z, prec + 16, False), prec)
    a_hi = max(a_hi, _ref_atanh_bounds(_ref_round_dyadic(z, prec + 16, True), prec)[1])
    l2_lo, l2_hi = _ref_ln2_bounds(prec)
    return (_ref_round_dyadic(e + 2 * a_lo / l2_hi, prec, False),
            _ref_round_dyadic(e + 2 * a_hi / l2_lo, prec, True))


def _ref_entropy_interval(x, prec):
    """-x log2 x - (1-x) log2(1-x): each product rounded out, then the sum."""
    (l1, h1), (l2, h2) = _ref_log2_interval(x, prec), _ref_log2_interval(1 - x, prec)
    lo = _ref_round_dyadic(-x * h1, prec, False) + _ref_round_dyadic((x - 1) * h2, prec, False)
    hi = _ref_round_dyadic(-x * l1, prec, True) + _ref_round_dyadic((x - 1) * l2, prec, True)
    return _ref_round_dyadic(lo, prec, False), _ref_round_dyadic(hi, prec, True)


# q < 1 and q > 1 from the seed, powers of two, q = 1 and 1 - 10^-4; the
# Fraction reference takes seconds per value at 4096 bits, so fewer there
_EDGES = [Fraction(1), Fraction(1, 2), Fraction(8), Fraction(1, 1 << 70), 1 - Fraction(1, 10 ** 4)]


def _seeded_q(count, seed):
    import random
    rng = random.Random(seed)
    return [Fraction(rng.randrange(1, 10 ** 30), rng.randrange(1, 10 ** 30)) for _ in range(count)]


def _carry_arguments(prec):
    """Dyadic z with exactly prec+16 bits just below 2^-j, whose running atanh
    total crosses 2^-j at step k >= 1, where the no-carry step must fall back."""
    p = prec + 16
    out = []
    for j in (1, 2, 5):
        for k in (1, 2, 3):
            # fixed point of z = 2^-j - (terms 1..k-1) - half of term k
            z = Fraction(1, 1 << j)
            for _ in range(4):
                z = Fraction(1, 1 << j) - sum(z ** (2 * i + 1) / (2 * i + 1)
                                              for i in range(1, k)) - z ** (2 * k + 1) / (4 * k + 2)
            out.append(Fraction(math.floor(z * (1 << (p + j))) | 1, 1 << (p + j)))
    return out


def _log2_two_roundings(q, prec):
    """log2_interval with the ends of both upper atanh bounds rounded at
    prec and the larger kept, and whether those two ends differ: rounding
    only the end of the larger bound must give the same Interval."""
    e = floor_log2(q)
    a, b = q.numerator << max(-e, 0), q.denominator << max(e, 0)
    a_lo, a_hi = scalars._atanh_ratios(*scalars._round_ratio(a - b, a + b, prec + 16, False), prec)
    _, a_hi2 = scalars._atanh_ratios(*scalars._round_ratio(a - b, a + b, prec + 16, True), prec)
    l2_lo, l2_hi = _ln2_bounds(prec)

    def end(at, l2, up):
        den = at[1] * l2.numerator
        return Fraction(*scalars._round_ratio(e * den + 2 * at[0] * l2.denominator, den, prec, up))
    hi, hi2 = end(a_hi, l2_lo, True), end(a_hi2, l2_lo, True)
    return Interval(end(a_lo, l2_hi, False), max(hi, hi2), prec), hi != hi2


class TestEndpointIdentity:
    """The integer kernels return the Fractions of the Fraction formulas."""

    @pytest.mark.parametrize("prec", (64, 256, 1024))
    def test_log2_rounds_the_larger_upper_candidate(self, prec):
        import random
        # near 1 the two upper atanh bounds can round to different ends, so
        # there the choice of the larger one shows
        rng = random.Random(prec)
        near_one = [1 + Fraction(rng.randrange(-10 ** 27, 10 ** 27), 10 ** 30) for _ in range(100)]
        apart = 0
        for q in _seeded_q(200, prec) + near_one + _EDGES:
            iv, differ = _log2_two_roundings(q, prec)
            assert scalars._log2_interval_cached.__wrapped__(q, prec) == iv, q
            apart += differ
        assert apart > 0

    @pytest.mark.parametrize("prec,qs", [(64, _seeded_q(12, 64) + _EDGES),
                                         (256, _seeded_q(12, 256) + _EDGES),
                                         (1024, _seeded_q(3, 1024) + _EDGES),
                                         (4096, _seeded_q(1, 4096) + _EDGES[:4])])
    def test_log2_interval_equals_reference(self, prec, qs):
        for q in qs:
            got = log2_interval(q, prec)
            assert (got.lo, got.hi, got.prec) == (*_ref_log2_interval(q, prec), prec), q

    @pytest.mark.parametrize("prec,xs", [(64, _seeded_q(12, 65) + _EDGES[1:]),
                                         (256, _seeded_q(12, 257) + _EDGES[1:]),
                                         (1024, _seeded_q(2, 1025) + _EDGES[1:]),
                                         (4096, _EDGES[-1:])])
    def test_entropy_interval_equals_reference(self, prec, xs):
        for x in xs:
            x = x if x < 1 else 1 / x
            got = entropy_interval(x, prec)
            assert (got.lo, got.hi, got.prec) == (*_ref_entropy_interval(x, prec), prec), x

    @pytest.mark.parametrize("prec", (64, 256, 1024))
    def test_atanh_carry_fallback(self, prec):
        for z in _carry_arguments(prec):
            lo, hi = _atanh_bounds(z, prec)
            assert floor_log2(lo) > floor_log2(z)  # the total crossed a power of two
            assert (lo, hi) == _ref_atanh_bounds(z, prec), z


# the mul/div/pow that rebuilt every result through __init__, refactoring
# each prime base: the oracle for the factored constructor
def _ref_mul(a, b):
    exps = dict(a.exponents)
    for p, e in b.exponents:
        exps[p] = exps.get(p, Fraction(0)) + e
    return Monomial(exps)


def _ref_pow(a, q):
    q = Fraction(q)
    return Monomial({p: e * q for p, e in a.exponents})


def _ref_div(a, b):
    return _ref_mul(a, _ref_pow(b, -1))


def _seeded_monomials(n):
    import random
    rng = random.Random(11)
    out = []
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            m = Monomial.from_int(rng.randrange(1, 10 ** 6))
        elif kind == 1:
            a = rng.randrange(1, 40)
            m = Monomial.from_binomial(a, rng.randrange(a + 1))
        else:
            m = Monomial.from_factorial(rng.randrange(12))
        out.append(m.pow(Fraction(rng.randrange(-5, 6), rng.randrange(1, 7))))
    return out


class TestMonomialOracle:
    def same(self, got, want):
        assert got.exponents == want.exponents
        assert all(type(e) is Fraction for _, e in got.exponents)
        assert hash(got) == hash(want) and repr(got) == repr(want)

    def test_seeded_products_quotients_and_powers(self):
        ms = _seeded_monomials(60)
        for a, b in zip(ms, ms[1:] + ms[:1]):
            self.same(a.mul(b), _ref_mul(a, b))
            self.same(a.div(b), _ref_div(a, b))
            for q in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-7, 4)):
                self.same(a.pow(q), _ref_pow(a, q))

    def test_cancellation_to_one(self):
        for a in _seeded_monomials(20) + [Monomial({2: Fraction(1, 2), 3: Fraction(5, 3)})]:
            for one in (a.div(a), a.mul(a.pow(-1)), a.pow(0)):
                self.same(one, Monomial())
                assert one == MONO_ONE and repr(one) == "Monomial(1)"
                assert one.as_fraction() == 1

    def test_rational_exponents_sum_across_factors(self):
        # sqrt(6) * 6^(1/3) / 2^(5/6) = 3^(5/6)
        a = Monomial({6: Fraction(1, 2)})
        b = Monomial({6: Fraction(1, 3)})
        c = Monomial({2: Fraction(5, 6)})
        got = a.mul(b).div(c)
        self.same(got, _ref_div(_ref_mul(a, b), c))
        assert got == Monomial({3: Fraction(5, 6)})


# The exp kernel's fixed-point sum against its exact fallback, and the
# enclosures against mpmath, an implementation that shares no code with them.

def _seeded_exp_arguments(prec, count, seed):
    """Dyadics with prec+8 bits in [-1, 1], as exp2_interval hands the kernel
    its reduced arguments, and non-dyadic ratios in (-1, 1)."""
    import random
    rng = random.Random(seed)
    bits = prec + 8
    out = [Fraction(rng.randrange(-(1 << bits), (1 << bits) + 1), 1 << bits)
           for _ in range(count)]
    return out + [Fraction(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(10 ** 9, 10 ** 10))
                  for _ in range(count)]


def _edge_exp_arguments(prec):
    """0, +-1, 1/3, -5/7, negative dyadics, and |x| <= 2**-(prec+4), where
    x^2/2 is already below the tolerance, so the series stops at k = 2."""
    tiny = Fraction(1, 1 << (prec + 4))
    return [Fraction(x) for x in (0, 1, -1, Fraction(1, 3), Fraction(-5, 7), Fraction(-1, 2),
                                  Fraction(-3, 4), Fraction(-1, 1 << 40),
                                  Fraction(-(1 << 70) + 1, 1 << 70))] + \
        [tiny, -tiny, tiny / 3, -tiny * Fraction(5, 7), tiny / (1 << 50)]


@pytest.fixture
def exact_calls(monkeypatch):
    """Arguments the exact exp series is run on, in call order."""
    calls = []
    exact = scalars._exp_exact

    def spy(x, prec):
        calls.append(x)
        return exact(x, prec)
    monkeypatch.setattr(scalars, "_exp_exact", spy)
    return calls


class TestExpFastPath:
    @pytest.mark.parametrize("prec,count", [(64, 30), (256, 30), (1024, 6), (4096, 1)])
    def test_fixed_point_sum_equals_exact_series(self, prec, count, exact_calls):
        xs = _seeded_exp_arguments(prec, count, prec + 1)
        got = [_exp_bounds(x, prec) for x in xs]
        assert exact_calls == []  # every seeded argument is decided in fixed point
        for x, g in zip(xs, got):
            assert g == scalars._exp_exact(x, prec), x

    @pytest.mark.parametrize("prec", (64, 256, 1024, 4096))
    def test_edge_arguments_equal_exact_series(self, prec, exact_calls):
        for x in _edge_exp_arguments(prec):
            got = _exp_bounds(x, prec)
            assert got == scalars._exp_exact(x, prec), x
            if prec <= 256:
                lo, hi = _ref_exp_bounds(x, prec)
                assert got == (_ref_round_dyadic(lo, prec, False),
                               _ref_round_dyadic(hi, prec, True)), x

    def test_no_guard_bits_falls_back_to_the_exact_series(self, monkeypatch, exact_calls):
        # without guard bits the fixed-point bounds straddle a rounding step
        monkeypatch.setattr(scalars, "_EXP_GUARD_BITS", 0)
        prec = 256
        xs = _seeded_exp_arguments(prec, 6, 7)
        for x in xs:
            lo, hi = _ref_exp_bounds(x, prec)
            want = _ref_round_dyadic(lo, prec, False), _ref_round_dyadic(hi, prec, True)
            assert _exp_bounds(x, prec) == want, x
        assert exact_calls == xs

    def test_exp2_interval_runs_one_series_per_end(self, monkeypatch):
        calls = []
        bounds = scalars._exp_bounds

        def spy(x, prec):
            calls.append(x)
            return bounds(x, prec)
        monkeypatch.setattr(scalars, "_exp_bounds", spy)
        scalars._exp2_end.cache_clear()
        iv = Monomial({3: Fraction(1, 2), 5: Fraction(-2, 3)}).log2_interval(256)
        got = exp2_interval(iv, 256)
        # the lower end of exp at the lower argument, the upper end at the upper
        l2_lo, l2_hi = _ln2_bounds(256)
        n = math.floor(iv.lo)
        assert math.floor(iv.hi) == n == -1
        assert calls == [round_dyadic((iv.lo - n) * l2_lo, 264, up=False),
                         round_dyadic((iv.hi - n) * l2_hi, 264, up=True)]
        assert got.lo == _exp_bounds(calls[0], 256)[0] / 2
        assert got.hi == _exp_bounds(calls[1], 256)[1] / 2
        assert near(got, 3 ** 0.5 / 5 ** (2 / 3))


def _from_mpf(v):
    man, exp = v.man_exp  # the mantissa without its sign
    return Fraction(-man if v < 0 else man) * Fraction(2) ** exp


class TestMpmathEnclosures:
    """mpmath's 2**y and log2(q) at twice the working precision lie inside
    the certified enclosures."""

    @pytest.mark.parametrize("prec", (256, 1024))
    def test_exp2_interval_contains_mpmath(self, prec):
        mpmath = pytest.importorskip("mpmath")
        import random
        rng = random.Random(prec + 2)
        ys = [Fraction(rng.randrange(-40 * 10 ** 9, 40 * 10 ** 9), rng.randrange(1, 10 ** 9))
              for _ in range(12)]
        ys += [Fraction(rng.randrange(-(1 << 80), 1 << 80), 1 << 76) for _ in range(12)]
        with mpmath.workprec(2 * prec):
            for y in ys:
                iv = exp2_interval(Interval(y, y, prec), prec)
                want = _from_mpf(mpmath.power(2, mpmath.mpf(y.numerator) / y.denominator))
                assert iv.lo <= want <= iv.hi, y

    @pytest.mark.parametrize("prec", (256, 1024))
    def test_log2_interval_contains_mpmath(self, prec):
        mpmath = pytest.importorskip("mpmath")
        qs = _seeded_q(24, prec + 3) + _EDGES
        with mpmath.workprec(2 * prec):
            for q in qs:
                iv = log2_interval(q, prec)
                want = _from_mpf(mpmath.log(mpmath.mpf(q.numerator) / q.denominator, 2))
                assert iv.lo <= want <= iv.hi, q

    @pytest.mark.parametrize("prec", (256, 1024))
    def test_monomial_to_interval_contains_mpmath(self, prec):
        mpmath = pytest.importorskip("mpmath")
        ms = [m for m in _seeded_monomials(60) if m.as_fraction() is None]
        assert len(ms) >= 24
        with mpmath.workprec(2 * prec):
            for m in ms:
                iv = m.to_interval(prec)
                want = _from_mpf(mpmath.exp(mpmath.fsum(
                    mpmath.mpf(e.numerator) / e.denominator * mpmath.log(p)
                    for p, e in m.exponents)))
                assert iv.lo <= want <= iv.hi, m


# Interval ends are integer ratios. The Fraction formulas of the interval
# operations as first written are the references: each kernel must return
# the same (lo, hi, prec).

def _ref_outward(lo, hi, prec):
    return _ref_round_dyadic(lo, prec, False), _ref_round_dyadic(hi, prec, True), prec


def _ref_iv_add(a, b):
    return _ref_outward(a.lo + b.lo, a.hi + b.hi, max(a.prec, b.prec))


def _ref_iv_neg(a):
    return -a.hi, -a.lo, a.prec


def _ref_iv_mul(a, b):
    cands = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return _ref_outward(min(cands), max(cands), max(a.prec, b.prec))


def _ref_iv_scale(a, q):
    if q >= 0:
        return _ref_outward(a.lo * q, a.hi * q, a.prec)
    return _ref_outward(a.hi * q, a.lo * q, a.prec)


def _ref_iv_div(a, b):
    cands = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
    return _ref_outward(min(cands), max(cands), max(a.prec, b.prec))


def _ref_compare(a, b):
    if a.hi < b.lo:
        return LT
    if a.lo > b.hi:
        return GT
    return EQ if a.lo == a.hi == b.lo == b.hi else UNDECIDED


def _ends(iv):
    return iv.lo, iv.hi, iv.prec


def _is_power_of_two(d):
    return d > 0 and d & (d - 1) == 0


_RATIONALS = st.one_of(
    # dyadic ends, as rounding leaves them, and non-dyadic exact ends
    st.builds(lambda n, e: Fraction(n, 1 << e), st.integers(-(1 << 300), 1 << 300),
              st.integers(0, 320)),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 30)),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(-1, 3),
                     Fraction(1, 1 << 500)]))
_PRECS = st.sampled_from([64, 128, 256, 1024])


@st.composite
def _intervals(draw):
    a = draw(_RATIONALS)
    b = a if draw(st.booleans()) else draw(_RATIONALS)  # zero width, or not
    iv = Interval(min(a, b), max(a, b), draw(_PRECS))
    if draw(st.booleans()):
        # ends as the kernels leave them: rounded, unreduced ratios
        iv = iv_add(iv, Interval(Fraction(0), Fraction(0), draw(_PRECS)))
    return iv


_seeded = settings(derandomize=True, database=None, deadline=None, max_examples=400,
                   suppress_health_check=[HealthCheck.too_slow])


class TestIntegerIntervals:
    """Seeded property tests of the integer interval kernels against the
    Fraction formulas: dyadic and non-dyadic, negative, zero-width and
    straddling intervals at mixed precisions."""

    @_seeded
    @given(a=_intervals(), b=_intervals(), q=_RATIONALS)
    def test_operations_equal_fraction_reference(self, a, b, q):
        got = {"add": iv_add(a, b), "mul": iv_mul(a, b), "scale": iv_scale(a, q),
               "square": iv_pow_int(a, 2)}
        want = {"add": _ref_iv_add(a, b), "mul": _ref_iv_mul(a, b),
                "scale": _ref_iv_scale(a, q),
                "square": _ref_outward(*_ref_pow_range(a.lo, a.hi, 2), a.prec)}
        if b.lo <= 0 <= b.hi:
            with pytest.raises(ZeroDivisionError):
                iv_div(a, b)
        else:
            got["div"], want["div"] = iv_div(a, b), _ref_iv_div(a, b)
        for op, iv in got.items():
            assert _ends(iv) == want[op], op
            # every rounded end is held over a power of two
            assert _is_power_of_two(iv._l[1]) and _is_power_of_two(iv._h[1]), op
        # negation rounds nothing: a non-dyadic end stays as it was
        assert _ends(iv_neg(a)) == _ref_iv_neg(a)
        assert _ends(iv_neg(iv_neg(a))) == _ends(a)

    @_seeded
    @given(a=_intervals(), b=_intervals())
    def test_sign_and_compare_equal_fraction_reference(self, a, b):
        want = -1 if a.hi < 0 else 1 if a.lo > 0 else 0 if a.lo == 0 == a.hi else None
        assert a.sign() == want
        assert compare_certified(a, b) == _ref_compare(a, b)
        assert compare_certified(a, a) == (EQ if a.lo == a.hi else UNDECIDED)

    @_seeded
    @given(q=_RATIONALS, prec=_PRECS)
    def test_to_interval_equals_fraction_reference(self, q, prec):
        assert _ends(to_interval(q, prec)) == _ref_outward(q, q, prec)


class TestIntervalFace:
    """The public face of Interval: constructor, Fraction ends, value
    equality and hash, immutability."""

    def test_ends_are_fractions_read_once(self):
        iv = iv_add(Interval(Fraction(1, 3), Fraction(1, 2), 64), Interval(Fraction(1, 7), 1, 64))
        # a kernel's result holds no Fraction until an end is read
        with pytest.raises(AttributeError):
            iv._lo
        assert type(iv.lo) is Fraction and type(iv.hi) is Fraction and type(iv.prec) is int
        assert iv.lo is iv.lo and iv.hi is iv.hi
        given = Interval(Fraction(-2, 6), 3)
        assert _ends(given) == (Fraction(-1, 3), Fraction(3), DEFAULT_PRECISION)
        assert type(given.hi) is Fraction

    def test_value_equality_and_hash(self):
        # [1/2, 3/4] built by the constructor and by a kernel whose ends are
        # unreduced ratios over powers of two
        made = Interval(Fraction(1, 2), Fraction(3, 4), 64)
        summed = iv_add(Interval(Fraction(1, 4), Fraction(1, 2), 64),
                        Interval(Fraction(1, 4), Fraction(1, 4), 64))
        assert summed._l != (1, 2)
        assert summed == made and hash(summed) == hash(made)
        assert hash(made) == hash((Fraction(1, 2), Fraction(3, 4), 64))
        assert made != Interval(Fraction(1, 2), Fraction(3, 4), 65)
        assert made != Interval(Fraction(1, 2), Fraction(4, 5), 64)
        assert made != (Fraction(1, 2), Fraction(3, 4), 64)
        assert len({made, summed, Interval(Fraction(2, 4), Fraction(6, 8), 64)}) == 1
        assert repr(made) == "Interval(0.5, 0.75)"

    def test_immutable(self):
        iv = Interval(Fraction(1), Fraction(2))
        for name in ("lo", "hi", "prec", "width", "other"):
            with pytest.raises(AttributeError):
                setattr(iv, name, Fraction(0))
        assert (iv.lo, iv.hi, iv.prec) == (1, 2, DEFAULT_PRECISION)

    def test_inverted_ends_rejected(self):
        for lo, hi in [(Fraction(1), Fraction(0)), (Fraction(-1, 3), Fraction(-1, 2)),
                       (Fraction(1, 1 << 70) + Fraction(1, 3), Fraction(1, 3))]:
            with pytest.raises(ValueError, match="inverted interval"):
                Interval(lo, hi)
        assert Interval(Fraction(1, 3), Fraction(1, 3)).width == 0


def _ref_pow_range(lo, hi, n):
    """The exact range of x**n over [lo, hi], with 0**0 = 1."""
    if n % 2 or lo >= 0 or n == 0:
        return lo ** n, hi ** n
    if hi <= 0:
        return hi ** n, lo ** n
    return Fraction(0), max(lo ** n, hi ** n)


class TestPowInt:
    BASES = [(Fraction(1, 3), Fraction(1, 3)), (Fraction(-3, 2), Fraction(-3, 2)),
             (Fraction(2, 3), Fraction(5, 7)), (Fraction(-5, 7), Fraction(-2, 3)),
             (Fraction(-3, 2), Fraction(1, 3)), (Fraction(-1, 3), Fraction(3, 2)),
             (Fraction(-3, 10), Fraction(1, 2)), (Fraction(-1, 2), Fraction(3, 10)),
             (Fraction(0), Fraction(0)), (Fraction(-1), Fraction(1)),
             (Fraction(-(1 << 200) - 1, 1 << 100), Fraction(7, 1 << 90))]

    @pytest.mark.parametrize("prec", (64, 256))
    def test_zero_one_and_two_exactly(self, prec):
        for lo, hi in self.BASES:
            a = Interval(lo, hi, prec)
            assert _ends(iv_pow_int(a, 0)) == (1, 1, prec)
            assert _ends(iv_pow_int(a, 1)) == _ref_outward(lo, hi, prec)
            assert _ends(iv_pow_int(a, 2)) == _ref_outward(*_ref_pow_range(lo, hi, 2), prec)
        with pytest.raises(ValueError):
            iv_pow_int(a, -1)

    @pytest.mark.parametrize("prec", (64, 256))
    def test_encloses_the_exact_range_tightly(self, prec):
        # negative and straddling bases at even and odd n; squaring rounds at
        # most 2*log2(n)+1 times, so each end is within n*2**(3-prec) relative
        for lo, hi in self.BASES:
            a = Interval(lo, hi, prec)
            for n in range(65):
                got = iv_pow_int(a, n)
                want = _ref_pow_range(lo, hi, n)
                assert got.lo <= want[0] and want[1] <= got.hi, (lo, hi, n)
                for g, w in zip((got.lo, got.hi), want):
                    assert abs(g - w) <= abs(w) * n / Fraction(2) ** (prec - 3), (lo, hi, n)

    def test_contains_exact_rational_powers(self):
        import random
        rng = random.Random(64)
        qs = [Fraction(rng.randrange(-10 ** 20, 10 ** 20), rng.randrange(1, 10 ** 20))
              for _ in range(12)] + [Fraction(-1, 3), Fraction(5, 1 << 80)]
        for prec in (64, 256):
            for q in qs:
                a = to_interval(q, prec)
                for n in range(65):
                    assert iv_pow_int(a, n).contains(q ** n), (q, n, prec)

    @pytest.mark.parametrize("prec", (256, 1024))
    def test_contains_mpmath(self, prec):
        mpmath = pytest.importorskip("mpmath")
        ms = [m for m in _seeded_monomials(30) if m.as_fraction() is None][:8]
        with mpmath.workprec(2 * prec):
            for m in ms:
                x = mpmath.exp(mpmath.fsum(mpmath.mpf(e.numerator) / e.denominator * mpmath.log(p)
                                           for p, e in m.exponents))
                a = m.to_interval(prec)
                for n in (2, 3, 17, 64):
                    want = _from_mpf(mpmath.power(x, n))
                    assert iv_pow_int(a, n).contains(want), (m, n)
                    # a negative base at odd and even n
                    assert iv_pow_int(iv_neg(a), n).contains(want if n % 2 == 0 else -want)
