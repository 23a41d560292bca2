"""Constraint-check records shared by the LP and hierarchy verifiers."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .scalars import (DEFAULT_PRECISION, EQ, GT, LT, UNDECIDED, Interval,
                      Monomial, PrecisionCapExceeded, Scalar, as_scalar,
                      compare_certified, iv_div, scalar_to_json, to_interval)

CHECK_MEMO_SIZE = 4096     # distinct (lhs, rhs, accept) verdicts kept


@dataclass(frozen=True)
class ConstraintCheck:
    constraint_id: str
    kind: str                  # "covering" | "packing" | "bounds" | "equality"
    lhs: Scalar
    rhs: Scalar
    satisfied: bool | None     # None when undecided
    certified: bool
    factor: Scalar | None = None

    def to_json(self) -> dict:
        return _check_json(self, scalar_to_json)


def _check_json(c: ConstraintCheck, encode) -> dict:
    out = {
        "constraint_id": c.constraint_id,
        "kind": c.kind,
        "lhs": encode(c.lhs),
        "rhs": encode(c.rhs),
        "satisfied": c.satisfied,
        "certified": c.certified,
    }
    if c.factor is not None:
        out["factor"] = encode(c.factor)
    return out


@dataclass
class ViolationReport:
    checks: list[ConstraintCheck] = field(default_factory=list)

    def add(self, check: ConstraintCheck):
        self.checks.append(check)

    @property
    def violations(self) -> list[ConstraintCheck]:
        return [c for c in self.checks if c.satisfied is False]

    @property
    def undecided(self) -> list[ConstraintCheck]:
        return [c for c in self.checks if c.satisfied is None]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.undecided

    def merge(self, other: "ViolationReport") -> "ViolationReport":
        self.checks.extend(other.checks)
        return self

    def summary(self) -> dict:
        return {
            "checks": len(self.checks),
            "violations": len(self.violations),
            "undecided": len(self.undecided),
        }

    def to_json(self) -> dict:
        # one encoding per distinct scalar, shared by the checks that hold
        # it; a Fraction, a Monomial and an Interval are never equal keys
        encode = lru_cache(maxsize=None)(scalar_to_json)
        return {"summary": self.summary(),
                "checks": [_check_json(c, encode) for c in self.checks]}


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


def _check(cid: str, kind: str, lhs, rhs, accept: tuple[str, ...]) -> ConstraintCheck:
    """Record a certified comparison; satisfied when its outcome is in accept."""
    lhs, rhs = as_scalar(lhs), as_scalar(rhs)
    decide = (_decide if isinstance(lhs, Interval) or isinstance(rhs, Interval)
              else _decide_memo)
    return ConstraintCheck(cid, kind, lhs, rhs, *decide(lhs, rhs, accept))


def _decide(lhs: Scalar, rhs: Scalar, accept: tuple[str, ...]):
    """(satisfied, certified, factor) of one comparison."""
    try:
        cmp = compare_certified(lhs, rhs)
    except PrecisionCapExceeded:
        cmp = UNDECIDED
    sat = None if cmp == UNDECIDED else cmp in accept
    return sat, cmp != UNDECIDED, _safe_div(lhs, rhs)


# exact operands recur across the checks of one verifier (a few dozen
# distinct pairs among thousands of paths); opaque intervals stay out
_decide_memo = lru_cache(maxsize=CHECK_MEMO_SIZE)(_decide)


def check_ge(cid: str, lhs, rhs, kind: str = "covering") -> ConstraintCheck:
    """Record lhs >= rhs with a certified comparison."""
    return _check(cid, kind, lhs, rhs, (GT, EQ))


def check_le(cid: str, lhs, rhs, kind: str = "packing") -> ConstraintCheck:
    return _check(cid, kind, lhs, rhs, (LT, EQ))


def check_eq(cid: str, lhs, rhs, kind: str = "equality") -> ConstraintCheck:
    return _check(cid, kind, lhs, rhs, (EQ,))


def vacuous(cid: str, kind: str, lhs, rhs) -> ConstraintCheck:
    """A constraint satisfied because its right side is zero."""
    return ConstraintCheck(cid, kind, as_scalar(lhs), as_scalar(rhs), True, True, None)
