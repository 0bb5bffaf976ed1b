"""Scale families for complexity normalization.

Four families: polynomial m**t, logarithmic (ln m)**t, and two intermediate
families built from the factorial-interpolating function

    G_r(x) = Gamma(x**(1/r) + 1)**r        (r >= 4, x >= 1)

and its numerical inverse.  G_r hits exact factorial products on r-th powers:
G_r(n**r) = (n!)**r.  Everything evaluates in log-space, and ratio
comparisons subtract logs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

Number = Union[int, float]

_INV_REL_TOL = 1e-13
_INV_MAX_ITER = 400


class ScaleDomainError(ValueError):
    pass


def gamma_r_log(x: float, r: int) -> float:
    """ln G_r(x) = r * lnGamma(x**(1/r) + 1) for x >= 1."""
    if r < 4:
        raise ScaleDomainError("r must be >= 4")
    if x < 1:
        raise ScaleDomainError(f"gamma_r_log requires x >= 1, got {x}")
    return r * math.lgamma(x ** (1.0 / r) + 1.0)


def gamma_r_inv_log(log_y: float, r: int) -> float:
    """x with ln G_r(x) = log_y, for log_y >= 0 (i.e. y >= 1).

    Bracket expansion followed by bisection on the (strictly increasing)
    log form; the result is accurate to ~1e-13 relative.
    """
    if r < 4:
        raise ScaleDomainError("r must be >= 4")
    if log_y < 0:
        raise ScaleDomainError("gamma_r_inv_log requires y >= 1")
    if log_y == 0.0:
        return 1.0
    lo, hi = 1.0, 2.0
    while gamma_r_log(hi, r) < log_y:
        lo = hi
        hi *= 4.0
        if hi > 1e300:
            raise OverflowError("gamma_r_inv_log bracket blew up")
    for _ in range(_INV_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if gamma_r_log(mid, r) < log_y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _INV_REL_TOL * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ScalingFamily:
    """kind in {"pol", "log", "int1", "int2"}; int families carry (r, q1)."""

    kind: str
    r: int = 4
    q1: int = 2

    def __post_init__(self):
        if self.kind not in ("pol", "log", "int1", "int2"):
            raise ScaleDomainError(f"unknown scale kind {self.kind!r}")
        if self.kind in ("int1", "int2"):
            if self.r < 4:
                raise ScaleDomainError("intermediate scales require r >= 4")
            if self.q1 < 2:
                raise ScaleDomainError("intermediate scales require q1 >= 2")

    def label(self) -> str:
        if self.kind in ("int1", "int2"):
            return f"{self.kind}-r{self.r}-q{self.q1}"
        return self.kind


def _log_m(m: Number) -> float:
    # math.log accepts arbitrary-size ints directly; never round m to float.
    lm = math.log(m)
    if lm <= 0:
        raise ScaleDomainError("scale families need m > 1")
    return lm


def eval_log(family: ScalingFamily, m: Number, t: float) -> float:
    """ln a_m(t) for the family, with m an int (any size) or float > 1."""
    if t <= 0:
        raise ScaleDomainError("t must be positive")
    lm = _log_m(m)
    if family.kind == "pol":
        return t * lm
    if family.kind == "log":
        return t * math.log(lm)
    ratio = lm / math.log(family.q1)
    if ratio < 1:
        raise ScaleDomainError(
            f"int scales need ln(m)/ln(q1) >= 1, got {ratio:.6g}"
        )
    g = gamma_r_inv_log(math.log(ratio), family.r) if ratio > 1 else 1.0
    if family.kind == "int1":
        return t * lm / g
    return t * lm / (g ** ((family.r - 2) / family.r))


@dataclass(frozen=True)
class OrderingRow:
    m: Number
    log_ratio: float


def ordering_table(
    fam_slow: ScalingFamily,
    fam_fast: ScalingFamily,
    t: float,
    s: float,
    m_grid: Sequence[Number],
) -> list[OrderingRow]:
    """log a_slow(m, t) - log a_fast(m, s) over an increasing grid of m."""
    prev = None
    for m in m_grid:
        lm = math.log(m)
        if prev is not None and lm <= prev:
            raise ValueError("m_grid must be strictly increasing")
        prev = lm
    return [
        OrderingRow(m, eval_log(fam_slow, m, t) - eval_log(fam_fast, m, s))
        for m in m_grid
    ]
