"""Constraint-check records shared by the LP and hierarchy verifiers."""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

from .scalars import (DEFAULT_PRECISION, EQ, GT, LT, UNDECIDED, Interval,
                      Monomial, PrecisionCapExceeded, Scalar, as_scalar,
                      compare_certified, iv_div, scalar_to_json, to_interval)

CHECK_MEMO_SIZE = 4096     # distinct (kind, lhs, rhs, accept) verdicts kept

# all that a check records but its id: kind is "covering", "packing",
# "bounds" or "equality", and satisfied is None when undecided
Verdict = namedtuple("Verdict", "kind lhs rhs satisfied certified factor", defaults=(None,))


class ConstraintCheck(namedtuple("ConstraintCheck", "constraint_id verdict")):
    """A constraint id and its verdict, which checks of equal operands share."""
    __slots__ = ()

    kind, lhs, rhs, satisfied, certified, factor = (
        property(attrgetter("verdict." + name)) for name in Verdict._fields)


def _verdict_json(v: Verdict, encode) -> dict:
    out = {"kind": v.kind, "lhs": encode(v.lhs), "rhs": encode(v.rhs),
           "satisfied": v.satisfied, "certified": v.certified}
    if v.factor is not None:
        out["factor"] = encode(v.factor)
    return out


class _CheckRow(dict):
    """A check's JSON row, naming its verdict for the report writer; not edited."""
    __slots__ = ("verdict",)


class ViolationReport:
    """The checks of one verifier, in order."""

    def __init__(self, checks: list[ConstraintCheck] | None = None):
        self.checks = [] if checks is None else checks
        self._counted = None

    def add(self, check: ConstraintCheck):
        self.checks.append(check)

    def _counts(self) -> tuple[int, int]:
        # (violations, undecided) in one pass, kept while checks, which are
        # only ever appended, stay the same list of the same length
        checks, counted = self.checks, self._counted
        if counted is None or counted[0] is not checks or counted[1] != len(checks):
            sat = Counter(map(attrgetter("verdict.satisfied"), checks))
            self._counted = counted = (checks, len(checks), sat[False], sat[None])
        return counted[2:]

    @property
    def ok(self) -> bool:
        return self._counts() == (0, 0)

    def merge(self, other: "ViolationReport") -> "ViolationReport":
        self.checks.extend(other.checks)
        return self

    def summary(self) -> dict:
        violations, undecided = self._counts()
        return {"checks": len(self.checks), "violations": violations, "undecided": undecided}

    def to_json(self) -> dict:
        # one row per verdict and one encoding per distinct scalar, shared by the
        # checks that hold them; a Fraction, a Monomial and an Interval are never equal
        encode = lru_cache(maxsize=None)(scalar_to_json)
        bodies: dict[int, dict] = {}    # id(verdict) -> its row without the id
        rows = []
        for c in self.checks:
            v = c.verdict
            if id(v) not in bodies:
                bodies[id(v)] = _verdict_json(v, encode)
            rows.append(row := _CheckRow(bodies[id(v)], constraint_id=c.constraint_id))
            row.verdict = v
        return {"summary": self.summary(), "checks": rows}


def _safe_div(lhs: Scalar, rhs: Scalar) -> Scalar | None:
    if isinstance(lhs, Monomial) and isinstance(rhs, Monomial):
        return lhs.div(rhs)
    if isinstance(lhs, Fraction) and isinstance(rhs, Fraction) and rhs != 0:
        return lhs / rhs
    try:
        return iv_div(to_interval(lhs, DEFAULT_PRECISION),
                      to_interval(rhs, DEFAULT_PRECISION))
    except (ZeroDivisionError, ValueError):
        return None


def _check(cid: str, kind: str, lhs, rhs, accept: tuple[str, ...] | None) -> ConstraintCheck:
    """Record a certified comparison; satisfied when its outcome is in accept."""
    lhs, rhs = as_scalar(lhs), as_scalar(rhs)
    verdict = (_verdict if isinstance(lhs, Interval) or isinstance(rhs, Interval)
               else _verdict_memo)
    return tuple.__new__(ConstraintCheck, (cid, verdict(kind, lhs, rhs, accept)))


def _decide(lhs: Scalar, rhs: Scalar, accept: tuple[str, ...] | None):
    """(satisfied, certified, factor) of one comparison; accept None: vacuous."""
    if accept is None:
        return True, True, None
    try:
        cmp = compare_certified(lhs, rhs)
    except PrecisionCapExceeded:
        cmp = UNDECIDED
    sat = None if cmp == UNDECIDED else cmp in accept
    return sat, cmp != UNDECIDED, _safe_div(lhs, rhs)


def _verdict(kind: str, lhs: Scalar, rhs: Scalar, accept: tuple[str, ...] | None) -> Verdict:
    return Verdict(kind, lhs, rhs, *_decide(lhs, rhs, accept))


# exact operands recur across the checks of one verifier (a few dozen
# distinct verdicts among thousands of paths); opaque intervals stay out
_verdict_memo = lru_cache(maxsize=CHECK_MEMO_SIZE)(_verdict)


def check_ge(cid: str, lhs, rhs, kind: str = "covering") -> ConstraintCheck:
    """Record lhs >= rhs with a certified comparison."""
    return _check(cid, kind, lhs, rhs, (GT, EQ))


def check_le(cid: str, lhs, rhs, kind: str = "packing") -> ConstraintCheck:
    return _check(cid, kind, lhs, rhs, (LT, EQ))


def check_eq(cid: str, lhs, rhs, kind: str = "equality") -> ConstraintCheck:
    return _check(cid, kind, lhs, rhs, (EQ,))


def vacuous(cid: str, kind: str, lhs, rhs) -> ConstraintCheck:
    """A constraint satisfied because its right side is zero."""
    return _check(cid, kind, lhs, rhs, None)
