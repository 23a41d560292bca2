"""Certified sign scans of the closed-form functions behind the
feasibility and impossibility arguments.

Each function is evaluated on a rational grid with interval arithmetic;
per-point signs are certified (escalating the working precision up to
the cap) and points still straddling zero are reported as undecided
rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import (DEFAULT_PRECISION, Interval, entropy_interval, iv_add,
                      iv_scale, log2_interval, precision_cap)

SIGN_NEGATIVE = "negative"
SIGN_POSITIVE = "positive"
SIGN_NONPOSITIVE = "nonpositive"


def f_packing(rho: Fraction, prec: int) -> Interval:
    """Worst-case exponent of the conditioned sink congestion sum.

    2r*h(r) - (1-r)^2 h((r/(1-r))^2) + 2(1-r) h(r/(1-r)) - 2 h(r);
    negative for small r, which keeps the congestion sum bounded.
    """
    r = Fraction(rho)
    q = r / (1 - r)
    acc = iv_scale(entropy_interval(r, prec), 2 * r)
    acc = iv_add(acc, iv_scale(entropy_interval(q * q, prec), -((1 - r) ** 2)))
    acc = iv_add(acc, iv_scale(entropy_interval(q, prec), 2 * (1 - r)))
    return iv_add(acc, iv_scale(entropy_interval(r, prec), Fraction(-2)))


def g_integral(rho: Fraction, prec: int) -> Interval:
    """Exponent gap in the sink-counting dichotomy; positive for small r."""
    r = Fraction(rho)
    q = r / (1 - r)
    acc = iv_scale(entropy_interval(q, prec), 1 - r)
    acc = iv_add(acc, iv_scale(entropy_interval(Fraction(1, 3), prec), -r))
    return iv_add(acc, iv_scale(entropy_interval(Fraction(2, 3) * q, prec), -(1 - r)))


def _boundary_form(t: Fraction, rho: Fraction, prec: int) -> Interval:
    """2*r*t*(log2 t - 1) + (1 - 2r + t r) h(r t / (1 - 2r + t r)).

    Shared form of the two path-count boundary scans (they are mirror
    images of each other around the peak); continuously extended by 0
    at t = 0.
    """
    r = Fraction(rho)
    if t == 0:
        return Interval(Fraction(0), Fraction(0), prec)
    if t < 0:
        raise ValueError("boundary form needs t >= 0")
    denom = 1 - 2 * r + t * r
    first = iv_scale(iv_add(log2_interval(t, prec),
                            Interval(Fraction(-1), Fraction(-1), prec)),
                     2 * r * t)
    second = iv_scale(entropy_interval(r * t / denom, prec), denom)
    return iv_add(first, second)


def f1_appendix(y: Fraction, rho: Fraction, prec: int) -> Interval:
    """Path-count exponent just above the peak crossing; <= 0 near 2."""
    return _boundary_form(Fraction(y) - 2, rho, prec)


def f2_appendix(x: Fraction, rho: Fraction, prec: int) -> Interval:
    """Mirror form just below the peak crossing; <= 0 near 2."""
    return _boundary_form(2 - Fraction(x), rho, prec)


def k_bound_phase1(rho: Fraction, eps: Fraction, prec: int) -> Interval:
    """Per-ground-set-element exponent of the expanding-phase requirement."""
    r, e = Fraction(rho), Fraction(eps)
    acc = iv_scale(entropy_interval(r / (1 - r), prec), -e * (1 - r))
    acc = iv_add(acc, iv_scale(log2_interval(1 / e, prec), -e * r))
    return iv_add(acc, iv_scale(entropy_interval(e * r / (1 - r), prec), 1 - r))


def k_bound_phase2(rho: Fraction, eps: Fraction, prec: int) -> Interval:
    """Middle-phase requirement exponent."""
    r, e = Fraction(rho), Fraction(eps)
    acc = Interval(-2 * e * r, -2 * e * r, prec)
    acc = iv_add(acc, iv_scale(log2_interval(1 / e, prec), -e * r))
    return iv_add(acc, iv_scale(entropy_interval(e * r / (1 - 2 * r), prec), 1 - 2 * r))


def k_bound_phase3(rho: Fraction, eps: Fraction, prec: int) -> Interval:
    """Collapsing-phase requirement exponent."""
    r, e = Fraction(rho), Fraction(eps)
    acc = iv_scale(log2_interval(1 / e, prec), -e * r)
    return iv_add(acc, iv_scale(entropy_interval(e, prec), r))


#: name -> (evaluator(x, prec, rho, eps), required sign, anchor)
#: anchor marks scans whose certified run must touch one end of the domain
FUNCTIONS = {
    "f_packing": (lambda x, p, rho, eps: f_packing(x, p), SIGN_NEGATIVE, None),
    "g_integral": (lambda x, p, rho, eps: g_integral(x, p), SIGN_POSITIVE, None),
    "f1_appendix": (lambda x, p, rho, eps: f1_appendix(x, rho, p),
                    SIGN_NONPOSITIVE, "lo"),
    "f2_appendix": (lambda x, p, rho, eps: f2_appendix(x, rho, p),
                    SIGN_NONPOSITIVE, "hi"),
    "k_bound_phase1": (lambda x, p, rho, eps: k_bound_phase1(x, eps, p),
                       SIGN_POSITIVE, None),
    "k_bound_phase2": (lambda x, p, rho, eps: k_bound_phase2(x, eps, p),
                       SIGN_POSITIVE, None),
    "k_bound_phase3": (lambda x, p, rho, eps: k_bound_phase3(x, eps, p),
                       SIGN_POSITIVE, None),
}


@dataclass(frozen=True)
class ScanPoint:
    x: Fraction
    sign: int | None          # -1 / 0 / +1, None when undecided at the cap
    satisfied: bool | None
    precision: int


@dataclass
class SignReport:
    name: str
    required: str
    points: list
    certified_lo: Fraction | None
    certified_hi: Fraction | None
    delta: Fraction | None      # anchored margin for boundary scans
    undecided: int

    @property
    def all_satisfied(self) -> bool:
        return all(p.satisfied for p in self.points)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "required": self.required,
            "points": [{"x": str(p.x), "sign": p.sign,
                        "satisfied": p.satisfied, "precision": p.precision}
                       for p in self.points],
            "certified_lo": None if self.certified_lo is None else str(self.certified_lo),
            "certified_hi": None if self.certified_hi is None else str(self.certified_hi),
            "delta": None if self.delta is None else str(self.delta),
            "undecided": self.undecided,
        }


def _meets(sign: int | None, required: str) -> bool | None:
    if sign is None:
        return None
    if required == SIGN_NEGATIVE:
        return sign < 0
    if required == SIGN_POSITIVE:
        return sign > 0
    return sign <= 0


def scan_proof_function(name: str, lo, hi, resolution: int,
                        rho=Fraction(1, 1000), eps=Fraction(1, 100)) -> SignReport:
    if name not in FUNCTIONS:
        raise ValueError(f"unknown function {name!r}; have {sorted(FUNCTIONS)}")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    lo, hi = Fraction(lo), Fraction(hi)
    if hi < lo:
        raise ValueError("empty domain")
    fn, required, anchor = FUNCTIONS[name]
    rho, eps = Fraction(rho), Fraction(eps)
    cap = precision_cap()
    grid = [lo + (hi - lo) * k / (resolution - 1) for k in range(resolution)] \
        if hi > lo else [lo] * 1
    points = []
    for x in grid:
        p = DEFAULT_PRECISION
        while True:
            try:
                iv = fn(x, p, rho, eps)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{name} is undefined at x={x}: {exc}") from exc
            s = iv.sign()
            if s is not None:
                points.append(ScanPoint(x, s, _meets(s, required), p))
                break
            if p >= cap:
                points.append(ScanPoint(x, None, None, p))
                break
            p = min(2 * p, cap)

    # longest satisfying run, preferring the anchored end when requested
    best = cur = None
    runs = []
    for pt in points:
        if pt.satisfied:
            cur = (pt.x, pt.x) if cur is None else (cur[0], pt.x)
        else:
            if cur:
                runs.append(cur)
            cur = None
    if cur:
        runs.append(cur)
    chosen = None
    if runs:
        if anchor == "lo":
            chosen = next((r for r in runs if r[0] == points[0].x), None)
        elif anchor == "hi":
            chosen = next((r for r in runs if r[1] == points[-1].x), None)
        if chosen is None:
            chosen = max(runs, key=lambda r: r[1] - r[0])
    delta = None
    if chosen and anchor == "lo":
        delta = chosen[1] - lo
    elif chosen and anchor == "hi":
        delta = hi - chosen[0]
    return SignReport(name, required, points,
                      chosen[0] if chosen else None,
                      chosen[1] if chosen else None,
                      delta, sum(1 for p in points if p.sign is None))
