"""Exact scalars with certified comparisons.

Three value modes, all immutable:

* ``fractions.Fraction`` -- arbitrary-precision rational (ints are
  accepted wherever a scalar is and read as Fractions).
* ``Monomial`` -- a product of prime powers with rational exponents,
  kept exact under multiplication (rational exponents arise from the
  degree ratios of the layered instances, which involve factorials
  raised to the phase step).
* ``Interval`` -- a dyadic enclosure [lo, hi] with directed rounding.

Monomial products, quotients and powers stay closed-form; comparisons of
irrational monomials fall back to interval enclosures.  ``Scalar`` names
the union of the three modes, and ``as_fraction``, ``to_interval``,
``compare_certified`` and ``scalar_to_json`` accept any of them.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache, cmp_to_key, lru_cache

DEFAULT_PRECISION = 256

LT, EQ, GT, UNDECIDED = "<", "=", ">", "undecided"


class PrecisionCapExceeded(ArithmeticError):
    """Raised when a comparison stays undecided at the precision cap."""


@cache
def precision_cap() -> int:
    """MMDA_LAB_PRECISION_CAP, 4096 if unset, read once; ValueError unless an integer >= 64."""
    text = os.environ.get("MMDA_LAB_PRECISION_CAP", "4096")
    if not text.strip().isdecimal() or int(text) < 64:  # 64: the ladder's first rung
        raise ValueError(f"MMDA_LAB_PRECISION_CAP must be an integer >= 64, not {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# dyadic helpers


def floor_log2(x: Fraction) -> int:
    """Largest e with 2**e <= x, for x > 0."""
    if x <= 0:
        raise ValueError("floor_log2 needs a positive argument")
    n, d = x.numerator, x.denominator
    # with a, b the bit lengths, 2^(a-b-1) < n/d < 2^(a-b+1), so one exact
    # probe decides
    e = n.bit_length() - d.bit_length()
    return e if ((d << e) <= n if e >= 0 else d <= (n << -e)) else e - 1


def _round_odd(x: int, odd: int, e: int, prec: int, up: bool) -> tuple[int, int]:
    # round x / (odd * 2**e), x > 0 and odd > 0 odd, to prec bits toward
    # -inf or +inf; returns (mantissa, exponent) of mantissa / 2**exponent
    # (an exact value may keep fewer bits)
    r = 0
    if odd != 1:
        # pre-shift so that the quotient has at least prec bits
        t = prec + odd.bit_length() - x.bit_length()
        if t > 0:
            x <<= t
            e += t
        x, r = divmod(x, odd)
    drop = x.bit_length() - prec
    if drop > 0:
        if up and (r or x & ((1 << drop) - 1)):
            return (x >> drop) + 1, e - drop
        return x >> drop, e - drop
    return (x + 1 if up and r else x), e


def _round_ratio(num: int, den: int, prec: int, up: bool) -> tuple[int, int]:
    # round_dyadic of num / den, den > 0, which need not be reduced, as the
    # pair (n, 2**e) or (n, 1)
    e = (den & -den).bit_length() - 1  # den = odd * 2**e
    # a negative ratio rounds as -|ratio| toward the mirrored side
    m, e = _round_odd(abs(num), den >> e, e, prec, up if num > 0 else not up)
    m = m if num > 0 else -m
    return (m, 1 << e) if e >= 0 else (m << -e, 1)


def round_dyadic(x: Fraction, prec: int, up: bool) -> Fraction:
    """Round x to a dyadic rational with ~prec significant bits.

    ``up=True`` rounds toward +inf, ``up=False`` toward -inf, so the
    result always brackets x from the requested side.
    """
    return Fraction(*_round_ratio(x.numerator, x.denominator, prec, up))


# ---------------------------------------------------------------------------
# intervals


class Interval:
    """Closed enclosure [lo, hi]; bounds are finite rationals.

    Each end is held as an integer ratio (numerator, denominator > 0), not
    necessarily reduced; after any rounding the denominator is a power of
    two. ``lo`` and ``hi`` build the end's Fraction on first read and keep it.
    """

    __slots__ = ("_l", "_h", "_prec", "_lo", "_hi")

    def __init__(self, lo, hi, prec: int = DEFAULT_PRECISION):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        self._l, self._h = (lo.numerator, lo.denominator), (hi.numerator, hi.denominator)
        self._prec, self._lo, self._hi = prec, lo, hi

    @property
    def lo(self) -> Fraction:
        try:
            return self._lo
        except AttributeError:  # first read
            self._lo = Fraction(*self._l)
            return self._lo

    @property
    def hi(self) -> Fraction:
        try:
            return self._hi
        except AttributeError:
            self._hi = Fraction(*self._h)
            return self._hi

    @property
    def prec(self) -> int:
        return self._prec

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def sign(self) -> int | None:
        """-1, 0, +1 when certified, None when the enclosure straddles 0."""
        lo, hi = self._l[0], self._h[0]  # the sign of each end's numerator
        return -1 if hi < 0 else 1 if lo > 0 else 0 if lo == 0 == hi else None

    def contains(self, q) -> bool:
        q = Fraction(q)
        return self.lo <= q <= self.hi

    def approx(self) -> float:
        return float((self.lo + self.hi) / 2)

    def __eq__(self, other):
        if other.__class__ is not Interval:
            return NotImplemented
        return (self.lo, self.hi, self._prec) == (other.lo, other.hi, other._prec)

    def __hash__(self):
        return hash((self.lo, self.hi, self._prec))

    def __repr__(self):
        return f"Interval({float(self.lo):.6g}, {float(self.hi):.6g})"


_new = object.__new__


def _iv(lo: tuple[int, int], hi: tuple[int, int], prec: int) -> Interval:
    # an Interval from end ratios that are ordered by construction, unchecked
    iv = _new(Interval)
    iv._l, iv._h, iv._prec = lo, hi, prec
    return iv


def _cmp(x: tuple[int, int], y: tuple[int, int]) -> int:
    # < 0, 0 or > 0 as x < y, x == y or x > y, for ratios with positive denominators
    return x[0] * y[1] - y[0] * x[1]


_by_value = cmp_to_key(_cmp)


def _outward(ln: int, ld: int, hn: int, hd: int, prec: int) -> Interval:
    """[ln/ld, hn/hd], ordered, with each end rounded outward to prec bits."""
    return _iv(_round_ratio(ln, ld, prec, False), _round_ratio(hn, hd, prec, True), prec)


def iv_add(a: Interval, b: Interval) -> Interval:
    (aln, ald), (ahn, ahd) = a._l, a._h
    (bln, bld), (bhn, bhd) = b._l, b._h
    return _outward(aln * bld + bln * ald, ald * bld, ahn * bhd + bhn * ahd, ahd * bhd,
                    max(a._prec, b._prec))


def iv_neg(a: Interval) -> Interval:
    (ln, ld), (hn, hd) = a._l, a._h
    return _iv((-hn, hd), (-ln, ld), a._prec)


def iv_mul(a: Interval, b: Interval) -> Interval:
    cands = [(xn * yn, xd * yd) for xn, xd in (a._l, a._h) for yn, yd in (b._l, b._h)]
    return _outward(*min(cands, key=_by_value), *max(cands, key=_by_value),
                    max(a._prec, b._prec))


def iv_scale(a: Interval, q: Fraction) -> Interval:
    qn, qd = q.numerator, q.denominator
    (ln, ld), (hn, hd) = a._l, a._h
    if qn >= 0:
        return _outward(ln * qn, ld * qd, hn * qn, hd * qd, a._prec)
    return _outward(hn * qn, hd * qd, ln * qn, ld * qd, a._prec)


def iv_div(a: Interval, b: Interval) -> Interval:
    (bln, bld), (bhn, bhd) = b._l, b._h
    if bln <= 0 <= bhn:
        raise ZeroDivisionError("division by an interval containing zero")
    s = 1 if bln > 0 else -1  # a times 1/b = [1/b.hi, 1/b.lo], denominators made positive
    return iv_mul(a, _iv((s * bhd, s * bhn), (s * bld, s * bln), b._prec))


def iv_pow_int(a: Interval, n: int) -> Interval:
    """Enclosure of {x**n : x in a} for an integer n >= 0 at a's precision,
    by squaring with every product rounded outward. n = 0 gives [1, 1];
    n = 1 and n = 2 round the exact range of x and of x**2 once."""
    if n < 0:
        raise ValueError("iv_pow_int needs n >= 0")

    def end(num, den, up):
        # |num/den|**n by squaring, each product rounded the way that bounds
        # the signed result, which is negative for a negative num and odd n
        neg = num < 0 and n & 1
        up, k = up != neg, n
        acc, base = (1, 1), (abs(num), den)
        while True:
            if k & 1:
                acc = _round_ratio(acc[0] * base[0], acc[1] * base[1], a._prec, up)
            k >>= 1
            if not k:
                return (-acc[0], acc[1]) if neg else acc
            base = _round_ratio(base[0] * base[0], base[1] * base[1], a._prec, up)
    (ln, ld), (hn, hd) = lo, hi = a._l, a._h
    if n & 1 == 0 and ln < 0:  # even n: x**n = |x|**n, over the range of |x|
        lo, hi = (-hn, hd) if hn < 0 else (0, 1), max((-ln, ld), hi, key=_by_value)
    return _iv(end(*lo, False), end(*hi, True), a._prec)


# ---------------------------------------------------------------------------
# certified elementary enclosures: exact-rational series with explicit
# tails, summed over unreduced integers (no gcd in the loops); atanh hands
# log2 unreduced ratios, and exp first tries a guarded fixed-point sum


def _atanh_bounds(z: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Bounds on atanh(z) for 0 <= z <= 1/2.

    Sums z^(2k+1)/(2k+1) until the next summand is at most 2**-(prec+4),
    rounding the total down and the term up to p = prec+16 bits after each
    step, then adds a geometric tail bound. The total is kept as
    tn / 2**ta and the term as mn / (mo * 2**mb), mo being the odd part of
    z's denominator on the first step and 1 after it. Once tn has p bits,
    a step adds (mn >> d) // (2k+1) to tn, d = mb - ta > 0, if that does not
    carry into bit p (floor(floor(a/2**d)/q) = floor(a/(q*2**d))); a dyadic
    z^2 rounds the term up by a shift and a mask. The first steps, a carry
    and an odd divisor (z = 1/3) use ``_round_odd``. The Fractions returned
    are those of rounding every step with ``round_dyadic``.
    """
    if not 0 <= z <= Fraction(1, 2):
        raise ValueError("atanh argument must lie in [0, 1/2]")
    lo, hi = _atanh_ratios(z.numerator, z.denominator, prec)
    return Fraction(*lo), Fraction(*hi)


def _atanh_ratios(n: int, d: int, prec: int) -> tuple[tuple[int, int], tuple[int, int]]:
    # _atanh_bounds of z = n/d, d > 0 and z unchecked, as unreduced ratios
    if n == 0:
        return (0, 1), (0, 1)
    s = prec + 4  # tol = 2**-s
    p = prec + 16
    zb = (d & -d).bit_length() - 1
    zo = d >> zb  # d = zo * 2**zb, zo odd
    zn, zo2, zb2 = n * n, zo * zo, 2 * zb  # z^2 = zn / (zo2 * 2**zb2)
    tn = ta = 0  # total
    mn, mo, mb = n, zo, zb  # term
    k, q = 0, zo  # q = mo * (2k+1), the summand's odd divisor
    while mn << s > q << mb:
        # total += term / q, rounded down
        if mb > ta and tn.bit_length() == p and (t := tn + (mn >> (mb - ta)) // q) >> p == 0:
            tn = t
        else:
            e = max(ta, mb)
            tn, ta = _round_odd(((tn * q) << (e - ta)) + (mn << (e - mb)), q, e, p, False)
        # term *= z^2, rounded up
        x, mb = mn * zn, mb + zb2
        drop = x.bit_length() - p
        if zo == 1 and drop > 0:
            mn, mb = (x >> drop) + (x & ((1 << drop) - 1) != 0), mb - drop
        else:
            mn, mb = _round_odd(x, mo * zo2, mb, p, True)
        mo, k, q = 1, k + 1, 2 * k + 3
    # remainder: sum_{j>=k} z^(2j+1)/(2j+1) <= term/( (2k+1) (1-z^2) )
    td, md, zd = 1 << ta, mo << mb, zo2 << zb2
    q = md * (2 * k + 1) * (zd - zn)  # rem = mn * zd / q
    hi = ((tn * q + mn * zd * td) << s) + (k + 2) * td * q
    return (tn, td), (hi, (td * q) << s)


@lru_cache(maxsize=None)
def _ln2_bounds(prec: int) -> tuple[Fraction, Fraction]:
    lo, hi = _atanh_bounds(Fraction(1, 3), prec)
    return 2 * lo, 2 * hi


def log2_interval(q: Fraction, prec: int = DEFAULT_PRECISION) -> Interval:
    """Certified enclosure of log2(q) for a positive rational q."""
    return _log2_interval_cached(Fraction(q), prec)


@lru_cache(maxsize=4096)
def _log2_interval_cached(q: Fraction, prec: int) -> Interval:
    if q <= 0:
        raise ValueError("log2 of a non-positive value")
    e = floor_log2(q)
    # r = a/b in [1, 2); ln r = 2 atanh(z), z = (a-b)/(a+b) in [0, 1/3]
    a, b = q.numerator << max(-e, 0), q.denominator << max(e, 0)
    a_lo, a_hi = _atanh_ratios(*_round_ratio(a - b, a + b, prec + 16, False), prec)
    _, a_hi2 = _atanh_ratios(*_round_ratio(a - b, a + b, prec + 16, True), prec)
    l2_lo, l2_hi = _ln2_bounds(prec)
    # log2(q) = e + 2*atanh(z)/ln2, the fraction being >= 0, rounded once;
    # end grows with atanh(z), so the larger upper atanh bound gives the upper end
    def end(at, l2, up):
        den = at[1] * l2.numerator
        return _round_ratio(e * den + 2 * at[0] * l2.denominator, den, prec, up)
    return _iv(end(a_lo, l2_hi, False), end(max(a_hi, a_hi2, key=_by_value), l2_lo, True), prec)


_EXP_GUARD_BITS = 60  # bits the fixed-point exp sum carries below its tolerance


def _exp_bounds(x: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Bounds on exp(x) for |x| <= 1, each already rounded out to prec bits.

    The ends are total -/+ (2|term| + 2**-s), s = prec+4, at the first k >= 2
    whose term x^k/k! is at most 2**-s. A fixed-point sum at s + _EXP_GUARD_BITS
    bits holds each |term| and the total between a floor and a ceiling; when
    these decide k and both candidates of each end round alike (rounding is
    monotone), those are the ends, and otherwise ``_exp_exact`` runs.
    """
    if abs(x) > 1:
        raise ValueError("reduced exponential argument expected")
    n, d, neg = abs(x.numerator), x.denominator, x.numerator < 0
    b = (d & -d).bit_length() - 1  # d = o * 2**b, and floor(y/2**b)//q = floor(y/(q*2**b))
    o = d >> b
    w, tol = prec + 4 + _EXP_GUARD_BITS, 1 << _EXP_GUARD_BITS  # 2**-s, times 2**w
    lo = hi = t_lo = t_hi = 1 << w  # |term| and total, times 2**w
    k = 0
    while k < 2 or lo > tol:
        k += 1
        lo, hi = (lo * n >> b) // (o * k), -((-hi * n >> b) // (o * k))
        t_lo, t_hi = (t_lo - hi, t_hi - lo) if neg and k & 1 else (t_lo + lo, t_hi + hi)
    if hi <= tol:
        lo1, lo2, hi1, hi2 = (_round_ratio(t, 1 << w, prec, up) for t, up in (
            (t_lo - 2 * hi - tol, False), (t_hi - 2 * lo - tol, False),
            (t_lo + 2 * lo + tol, True), (t_hi + 2 * hi + tol, True)))
        if _cmp(lo1, lo2) == 0 == _cmp(hi1, hi2):
            return Fraction(*lo1), Fraction(*hi1)
    return _exp_exact(x, prec)


def _exp_exact(x: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    # the exact series, each end rounded once from its unreduced integer ratio
    n, d = x.numerator, x.denominator
    s = prec + 4  # tol = 2**-s
    # total = t/den and term = num/den over the shared den = d**k * k!
    t = den = num = 1
    k = 0
    while True:
        k += 1
        dk = d * k
        den *= dk
        num *= n
        t = t * dk + num
        if abs(num) << s <= den and k >= 2:
            break
    # |remainder| <= 2*|term| once |x|/(k+1) <= 1/2; plus tol
    rem = (2 * abs(num) << s) + den
    return tuple(Fraction(*_round_ratio((t << s) + r, den << s, prec, r > 0)) for r in (-rem, rem))


@lru_cache(maxsize=4096)
def _exp2_end(x: Fraction, prec: int, up: bool) -> Fraction:
    """A lower bound on 2**x, or with ``up`` an upper one: that end of
    exp(f ln 2), f = x - floor(x), times 2**floor(x), still prec bits."""
    n = math.floor(x)
    arg = round_dyadic((x - n) * _ln2_bounds(prec)[up], prec + 8, up)
    return _exp_bounds(arg, prec)[up] * (Fraction(1 << n) if n >= 0 else Fraction(1, 1 << -n))


def exp2_interval(x: Interval, prec: int | None = None) -> Interval:
    p = prec or x.prec
    lo, hi = _exp2_end(x.lo, p, False), _exp2_end(x.hi, p, True)
    return _outward(lo.numerator, lo.denominator, hi.numerator, hi.denominator, p)


def entropy_interval(x: Fraction, prec: int = DEFAULT_PRECISION) -> Interval:
    """Enclosure of h(x) = -x log2 x - (1-x) log2(1-x), with h(0)=h(1)=0."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("entropy argument must lie in [0, 1]")
    if x == 0 or x == 1:
        return _iv((0, 1), (0, 1), prec)
    t1 = iv_scale(log2_interval(x, prec), -x)
    t2 = iv_scale(log2_interval(1 - x, prec), -(1 - x))
    return iv_add(t1, t2)


# ---------------------------------------------------------------------------
# monomials over prime bases


@lru_cache(maxsize=None)
def _primes_upto(n: int) -> tuple[int, ...]:
    if n < 2:
        return ()
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = b"\x00" * len(range(p * p, n + 1, p))
    return tuple(i for i, v in enumerate(sieve) if v)


# trial division gives up past this divisor (about 1 s) rather than run on
TRIAL_DIVISOR_MAX = 1 << 24


def _factor_int(n: int) -> dict[int, int]:
    if n <= 0:
        raise ValueError("monomials represent positive values only")
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        if p > TRIAL_DIVISOR_MAX:
            raise ValueError(f"trial division up to {TRIAL_DIVISOR_MAX} leaves the cofactor "
                             f"{m} of {n} unfactored")
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def factorial_exponents(n: int) -> dict[int, int]:
    """Prime factorization of n! via Legendre's formula."""
    out = {}
    for p in _primes_upto(n):
        e, q = 0, n
        while q:
            q //= p
            e += q
        out[p] = e
    return out


class Monomial:
    """Finite product of prime powers with rational exponents (value > 0)."""

    __slots__ = ("exponents", "_hash")

    def __init__(self, exponents: dict[int, Fraction] | None = None):
        exps = {}
        for base, e in (exponents or {}).items():
            e = Fraction(e)
            if e == 0:
                continue
            if base <= 1:
                raise ValueError("monomial bases must exceed 1")
            for p, k in _factor_int(base).items():
                cur = exps.get(p, Fraction(0)) + k * e
                if cur:
                    exps[p] = cur
                elif p in exps:
                    del exps[p]
        object.__setattr__(self, "exponents", tuple(sorted(exps.items())))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Monomial is immutable")

    # construction helpers ---------------------------------------------
    # their bases are primes already, so they skip __init__'s factoring
    @classmethod
    def from_int(cls, n: int) -> "Monomial":
        return cls._from_factored((p, Fraction(e)) for p, e in _factor_int(n).items())

    @classmethod
    def from_factorial(cls, n: int) -> "Monomial":
        return cls._from_factored((p, Fraction(e)) for p, e in factorial_exponents(n).items())

    @classmethod
    def from_binomial(cls, n: int, k: int) -> "Monomial":
        if not 0 <= k <= n:
            raise ValueError("binomial out of range")
        exps = {p: Fraction(e) for p, e in factorial_exponents(n).items()}
        for p, e in factorial_exponents(k).items():
            exps[p] = exps.get(p, Fraction(0)) - e
        for p, e in factorial_exponents(n - k).items():
            exps[p] = exps.get(p, Fraction(0)) - e
        return cls._from_factored(exps.items())

    @classmethod
    def _from_factored(cls, pairs) -> "Monomial":
        """Monomial from (prime, Fraction exponent) pairs over distinct
        primes, without factoring: zero exponents dropped, sorted by prime."""
        self = object.__new__(cls)
        object.__setattr__(self, "exponents", tuple(sorted((p, e) for p, e in pairs if e)))
        return self

    # algebra ------------------------------------------------------------
    def mul(self, other: "Monomial") -> "Monomial":
        if not other.exponents:     # times one, e.g. Monomial.from_int(1)
            return self
        exps = dict(self.exponents)
        for p, e in other.exponents:
            exps[p] = exps.get(p, Fraction(0)) + e
        return Monomial._from_factored(exps.items())

    def div(self, other: "Monomial") -> "Monomial":
        return self.mul(other.pow(Fraction(-1)))

    def pow(self, q) -> "Monomial":
        q = Fraction(q)
        return Monomial._from_factored((p, e * q) for p, e in self.exponents)

    # conversions ---------------------------------------------------------
    @property
    def is_rational(self) -> bool:
        return all(e.denominator == 1 for _, e in self.exponents)

    def as_fraction(self) -> Fraction | None:
        if not self.is_rational:
            return None
        num = den = 1
        for p, e in self.exponents:
            if e > 0:
                num *= p ** int(e)
            else:
                den *= p ** int(-e)
        return Fraction(num, den)

    def log2_interval(self, prec: int = DEFAULT_PRECISION) -> Interval:
        acc = _iv((0, 1), (0, 1), prec)
        for p, e in self.exponents:
            acc = iv_add(acc, iv_scale(log2_interval(Fraction(p), prec), e))
        return acc

    def to_interval(self, prec: int = DEFAULT_PRECISION) -> Interval:
        f = self.as_fraction()
        if f is not None:
            return to_interval(f, prec)
        return exp2_interval(self.log2_interval(prec), prec)

    def approx(self) -> float:
        return 2.0 ** sum(float(e) * math.log2(p) for p, e in self.exponents)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # first use; the memos of reports hash on every lookup
            object.__setattr__(self, "_hash", hash(self.exponents))
            return self._hash

    def __repr__(self):
        if not self.exponents:
            return "Monomial(1)"
        body = "*".join(f"{p}^{e}" for p, e in self.exponents)
        return f"Monomial({body})"


MONO_ONE = Monomial()


# ---------------------------------------------------------------------------
# public operations


Scalar = Fraction | Monomial | Interval


# one object per literal bound 0 and 1, so memo keys holding one match by identity
_INT_SCALARS = {0: Fraction(0), 1: Fraction(1)}


def as_scalar(x) -> Scalar:
    # ints first and Fraction last: isinstance against Fraction, an abc
    # class, is several times slower when it fails
    if isinstance(x, int):
        f = _INT_SCALARS.get(x)
        return Fraction(x) if f is None else f
    if isinstance(x, (Monomial, Interval, Fraction)):
        return x
    raise TypeError(f"cannot coerce {type(x)!r} to Scalar")


def as_fraction(x: Scalar | int) -> Fraction | None:
    """Exact rational value when one exists, else None."""
    if isinstance(x, Monomial):
        return x.as_fraction()
    return None if isinstance(x, Interval) else as_scalar(x)


def to_interval(x: Scalar | int, prec: int) -> Interval:
    """Dyadic enclosure of x at prec bits; an interval is returned as is."""
    if isinstance(x, Monomial):
        return x.to_interval(prec)
    if isinstance(x, Interval):
        return x
    x = as_scalar(x)
    n, d = x.numerator, x.denominator
    return _outward(n, d, n, d, prec)


def compare_certified(a, b, prec: int = DEFAULT_PRECISION,
                      cap: int | None = None) -> str:
    """Certified ordering of two scalars.

    Exact operands escalate precision internally (doubling up to ``cap``,
    ``precision_cap()`` by default, then raising :class:`PrecisionCapExceeded`);
    a comparison involving an opaque interval is answered at its stored
    precision and may return ``"undecided"``.
    """
    a, b = as_scalar(a), as_scalar(b)
    if isinstance(a, Interval) or isinstance(b, Interval):
        ia, ib = to_interval(a, DEFAULT_PRECISION), to_interval(b, DEFAULT_PRECISION)
        if _cmp(ia._h, ib._l) < 0:
            return LT
        if _cmp(ia._l, ib._h) > 0:
            return GT
        # overlapping, so equal exactly when both are points
        return EQ if _cmp(ia._l, ia._h) == 0 == _cmp(ib._l, ib._h) else UNDECIDED
    if a == b:
        return EQ
    fa, fb = as_fraction(a), as_fraction(b)
    if fa is not None and fb is not None:
        return LT if fa < fb else GT if fa > fb else EQ
    # one side is an irrational monomial, so positive
    if fa is not None and fa <= 0:
        return LT
    if fb is not None and fb <= 0:
        return GT

    def log2(x, p):
        return x.log2_interval(p) if isinstance(x, Monomial) else log2_interval(x, p)

    # a sign certified at low precision is still certified; start cheap
    p, cap = min(64, prec), precision_cap() if cap is None else cap
    while True:
        s = iv_add(log2(a, p), iv_neg(log2(b, p))).sign()
        if s is not None:
            return LT if s < 0 else GT if s > 0 else EQ
        if p >= cap:
            raise PrecisionCapExceeded(f"comparison undecided at {cap} bits")
        p = min(2 * p, cap) if p >= prec else prec


@contextmanager
def full_int_digits():
    """Lift CPython's int-to-str digit limit inside the block, so exact
    values are written in full; the process limit is restored after."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def scalar_to_json(x: Scalar | int) -> dict:
    """Exact string form plus a decimal approximation, null when the value
    has no finite float.  Exact values are written in full, past CPython's
    int-to-str digit limit."""
    x = as_scalar(x)
    with full_int_digits():
        if isinstance(x, Monomial):
            out = {"monomial": {str(p): str(e) for p, e in x.exponents}}
        elif isinstance(x, Interval):
            out = {"lo": str(x.lo), "hi": str(x.hi)}
        else:
            out = {"exact": str(x)}
    try:
        approx = float(x) if "exact" in out else x.approx()
    except OverflowError:
        approx = math.inf
    out["approx"] = approx if math.isfinite(approx) else None
    return out
