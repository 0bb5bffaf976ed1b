"""Exact-rational parameter chains for conjugation-built torus maps.

A chain is a sequence of stages.  Stage ``n`` carries the rotation number
``alpha_n = p_n/q_n`` together with the multipliers ``k_n, l_n`` that produce
the next stage:

    q_{n+1} = k_n * l_n * q_n**2
    p_{n+1} = k_n * l_n * q_n * p_n + 1
    alpha_{n+1} = alpha_n + 1/(k_n * l_n * q_n**2)

All arithmetic is arbitrary precision; nothing is ever rounded.  Growth
regimes (intermediate / log / poly) pick ``l_n`` so that ``q_{n+1}`` equals a
prescribed power of ``q_n``; desk-scale custom schedules keep the same code
paths with small multipliers.
"""
from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

# Chains serialize big integers as decimal strings; idealized sequences are
# capped at MAX_IDEALIZED_DIGITS, so allow conversions up to that size.
if sys.get_int_max_str_digits() < 12_000_000:
    sys.set_int_max_str_digits(12_000_000)

class ProfileError(ValueError):
    """A profile target cannot be met; the message names the constraint."""


class ChainFormatError(ValueError):
    """Malformed serialized chain."""


MAX_IDEALIZED_DIGITS = 10**7


@dataclass(frozen=True)
class StageParams:
    """One stage of a chain: index, rotation number and step multipliers."""

    n: int
    p: int
    q: int
    k: int
    l: int
    l_prime: int
    alpha: Fraction
    eps: Fraction
    m_smooth: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("stage index must be >= 1")
        if self.q < 1 or self.k < 1 or self.l < 1 or self.l_prime < 1:
            raise ValueError("q, k, l, l_prime must be positive")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.alpha != Fraction(self.p, self.q):
            raise ValueError("alpha must equal p/q exactly")

    @property
    def q_next(self) -> int:
        return self.k * self.l * self.q * self.q

    @property
    def p_next(self) -> int:
        return self.k * self.l * self.q * self.p + 1

    @property
    def beta(self) -> Fraction:
        """Rotation-number increment applied on the step to the next stage."""
        return Fraction(1, self.q_next)

    @property
    def alpha_next(self) -> Fraction:
        return self.alpha + self.beta

    def to_dict(self) -> dict:
        return {f: enc(getattr(self, f)) for f, (enc, _) in _STAGE_CODECS.items()}

    @staticmethod
    def from_dict(d: dict) -> "StageParams":
        try:
            return StageParams(**{f: dec(d[f]) for f, (_, dec) in _STAGE_CODECS.items()})
        except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
            raise ChainFormatError(f"bad stage record: {exc}") from exc


def _ratio(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_ratio(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def _json_int(x) -> int:
    """A JSON integer as it was written: no float, bool or string."""
    if type(x) is not int:
        raise TypeError(f"expected a JSON integer, got {x!r}")
    return x


def _json_digits(x) -> int:
    """A big int as the encoder writes it: a JSON string of ASCII decimal
    digits, with no sign, leading zero, space or underscore.  Anything else
    is refused, a JSON int included: these fields are always written as
    strings, so a number there was not written by ``chain_to_json``."""
    if type(x) is not str or not re.fullmatch("0|[1-9][0-9]*", x):
        raise TypeError(f"expected a string of decimal digits, got {x!r}")
    return int(x)


# (encode, decode) per StageParams field: small ints stay JSON ints, big ones
# are decimal strings, rationals are "p/q"
_STAGE_CODECS = {
    "n": (int, _json_int),
    "p": (str, _json_digits),
    "q": (str, _json_digits),
    "k": (int, _json_int),
    "l": (str, _json_digits),
    "l_prime": (str, _json_digits),
    "alpha": (_ratio, _parse_ratio),
    "eps": (_ratio, _parse_ratio),
    "m_smooth": (int, _json_int),
}


@dataclass(frozen=True)
class CustomStep:
    """Explicit multipliers for one stage of a custom (desk) schedule."""

    k: int = 1
    l: int = 1
    l_prime: int = 1


@dataclass(frozen=True)
class ParamProfile:
    """Growth regime plus epsilon schedule.

    regime:
      "intermediate"  q_{n+1} = q_n**(n**r) for n >= 2 (r >= 4)
      "log"           q_{n+1} = q_n**q_n
      "poly"          q_{n+1} = q_n**(K**4) for an integer K >= 2
      "custom"        explicit per-stage multipliers (desk scale)

    The regimes start at n = 2 with q_2 = q_1**2 (k_1 = l_1 = 1): the closed
    forms above are incompatible with the stage recursion at n = 1, so stage 1
    is always the plain squaring step.
    """

    regime: str = "intermediate"
    q1: int = 2
    r: int = 4
    K: int = 2
    relax_eps: bool = False
    custom: tuple[CustomStep, ...] = ()

    def __post_init__(self):
        if self.regime not in ("intermediate", "log", "poly", "custom"):
            raise ProfileError(f"unknown regime {self.regime!r}")
        if self.q1 < 2:
            raise ProfileError("q1 must be >= 2")
        if self.regime == "intermediate" and self.r < 4:
            raise ProfileError("intermediate regime requires r >= 4")
        if self.regime == "poly" and self.K < 2:
            raise ProfileError("poly regime requires K >= 2")
        if self.regime == "custom" and not self.custom:
            raise ProfileError("custom regime requires an explicit schedule")

    # -- schedule pieces -------------------------------------------------

    def custom_step(self, n: int) -> CustomStep:
        if n - 1 < len(self.custom):
            return self.custom[n - 1]
        raise ProfileError(f"custom schedule has no entry for stage {n}")

    def multipliers_for(self, n: int, q: int) -> tuple[int, int, int]:
        """(k_n, l_n, l_prime_n) taking stage n with denominator q forward.

        k_n defaults to 1 in every regime.  For n = 1 every regime uses
        k = l = 1 (q_2 = q_1**2).  The l_prime exponent is
        max(n**2 + 1, (n-1)**r - 1): the second term is the regime target and
        dominates from n = 3 on; the first keeps the stage-ordering and
        summability conditions meaningful at n = 2 where the regime target
        degenerates to l' = 1.
        """
        if self.regime == "custom":
            step = self.custom_step(n)
            return step.k, step.l, step.l_prime
        if n == 1:
            return 1, 1, 4
        if self.regime == "intermediate":
            e = n**self.r
            lp = q ** max(n * n + 1, (n - 1) ** self.r - 1)
        elif self.regime == "log":
            e = q
            lp = q ** max(n * n + 1, q - n)
        else:  # poly
            e = self.K**4
            if e < 3:
                raise ProfileError("poly regime needs K**4 >= 3")
            lp = q ** max(1, e - self.K - 3)
        if e < 2:
            raise ProfileError(
                f"regime target q**{e} at stage {n} is below the recursion floor q**2"
            )
        l = q ** (e - 2)
        return 1, l, lp

    def eps_for(self, n: int, q: int) -> Fraction:
        """Stage-n transition width.

        Exact schedule: 1/n**4 whenever q_n is large enough for the
        q_n > 1/eps_n requirement, else 1/(2 q_n) (the requirement is then
        unsatisfiable and validate_chain reports it).  Relaxed schedule: the
        fixed width 1/8, which keeps transition zones wide on desk grids.
        """
        if self.relax_eps:
            return Fraction(1, 8)
        n4 = n**4
        eps = Fraction(1, n4) if q > n4 else Fraction(1, 2 * q)
        # Keep the width usable as a twist parameter even at the base stage.
        return min(eps, Fraction(1, 8))

    def m_for(self, n: int) -> int:
        if self.regime == "poly":
            return self.K - 1
        return max(0, n - 1)

    def stage(self, n: int, p: int, q: int) -> StageParams:
        """Stage n with rotation number p/q and this profile's multipliers,
        width and smoothness for it."""
        k, l, lp = self.multipliers_for(n, q)
        return StageParams(
            n=n,
            p=p,
            q=q,
            k=k,
            l=l,
            l_prime=lp,
            alpha=Fraction(p, q),
            eps=self.eps_for(n, q),
            m_smooth=self.m_for(n),
        )

    def first_stage(self) -> StageParams:
        return self.stage(1, 1, self.q1)


def advance_stage(prev: StageParams, profile: ParamProfile) -> StageParams:
    """Stage n+1 from stage n: the step uses the multipliers ``prev`` carries,
    so successor consistency is exact by construction."""
    return profile.stage(prev.n + 1, prev.p_next, prev.q_next)


def build_chain(profile: ParamProfile, n_max: int) -> list[StageParams]:
    """Stages 1..n_max under the profile."""
    chain = [profile.first_stage()]
    while chain[-1].n < n_max:
        chain.append(advance_stage(chain[-1], profile))
    return chain


def idealized_q_sequence(q1: int, r: int, n_max: int) -> list[int]:
    """The closed-form denominators q~_{n+1} = q1**(prod_{m=1}^{n} m**r).

    Returns [q~_2, ..., q~_{n_max+1}].  This sequence is what the scaling
    identities are stated against; it intentionally decouples from the stage
    recursion, whose base case q_2 = q_1**2 differs (see module docstring).
    """
    if q1 < 2:
        raise ValueError("q1 must be >= 2")
    if r < 4:
        raise ValueError("r must be >= 4")
    out = []
    expo = 1
    for n in range(1, n_max + 1):
        expo *= n**r if n > 1 else 1
        digits = expo * math.log10(q1)
        if digits > MAX_IDEALIZED_DIGITS:
            raise OverflowError(
                f"q~_{n + 1} would have about {digits:.3g} digits "
                f"(> {MAX_IDEALIZED_DIGITS}); refusing to materialize it"
            )
        out.append(q1**expo)
    return out


# -- chain validation ----------------------------------------------------

CHECKS = ("successor", "ordering", "summability", "eps_small", "eps_vs_q", "l_condition")


@dataclass(frozen=True)
class CheckResult:
    name: str
    stage: int
    ok: bool
    applicable: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    results: tuple[CheckResult, ...]
    enforced: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results if r.applicable and r.name in self.enforced)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.applicable and not r.ok]

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            status = "pass" if r.ok else "FAIL"
            if not r.applicable:
                status = "n/a"
            enf = "" if r.name in self.enforced else " (advisory)"
            out.append(f"stage {r.stage:>3}  {r.name:<12} {status}{enf}  {r.detail}")
        return out


def validate_chain(chain: Sequence[StageParams], profile: ParamProfile) -> ValidationReport:
    """Per-stage report; never mutates its input.

    Checks: successor consistency for adjacent stages; the stage ordering
    q_n < q_n**(n^2) < l'_n q_n < q_{n+1}; the partial sum of 1/l'_n staying
    below 1; eps_n <= 1/n**4 and q_n > 1/eps_n (from stage 3 on: the squaring
    base case cannot satisfy them); and l_n >= l'_n.  Which failures count
    against the exit status depends on the profile: custom (desk) schedules
    enforce successor consistency only, exact regimes enforce everything.
    """
    if len(chain) < 2:
        raise ValueError("chain must have at least two stages")
    results: list[CheckResult] = []
    for a, b in zip(chain, chain[1:]):
        ok = b.q == a.q_next and b.alpha == a.alpha_next
        results.append(CheckResult("successor", b.n, ok, True, f"q={b.q} alpha={b.alpha}"))
    partial = Fraction(0)
    for st in chain:
        partial += Fraction(1, st.l_prime)
    results.append(
        CheckResult(
            "summability",
            chain[-1].n,
            partial < 1,
            True,
            f"sum 1/l' = {float(partial):.6g} over stages {chain[0].n}..{chain[-1].n}",
        )
    )
    for a, b in zip(chain, chain[1:]):
        n, q = a.n, a.q
        applicable = n >= 2
        ok = True
        detail = ""
        if applicable:
            lhs = q ** (n * n)
            ok = q < lhs < a.l_prime * q < b.q
            detail = f"q^(n^2) vs l'q vs q_next exponent chain"
        results.append(CheckResult("ordering", n, ok, applicable, detail))
    for st in chain:
        # Both width constraints are asymptotic: the squaring base case
        # (stages 1 and 2) cannot satisfy them for small q1.
        applicable = (not profile.relax_eps) and st.n >= 3
        ok = st.eps <= Fraction(1, st.n**4)
        results.append(
            CheckResult("eps_small", st.n, ok, applicable, f"eps={st.eps} vs 1/n^4")
        )
        ok2 = Fraction(st.q) > 1 / st.eps
        results.append(
            CheckResult("eps_vs_q", st.n, ok2, applicable, f"1/eps={1 / st.eps} vs q={st.q}")
        )
    for st in chain[:-1]:
        # norm-free floor of the step condition (the stack norm is >= 1);
        # stage 1 carries the pinned squaring step and is exempt
        results.append(
            CheckResult(
                "l_condition",
                st.n,
                st.l >= st.l_prime,
                st.n >= 2,
                f"l={st.l} l'={st.l_prime}",
            )
        )
    if profile.regime == "custom":
        enforced: tuple[str, ...] = ("successor",)
        if not profile.relax_eps:
            enforced = ("successor", "eps_small", "eps_vs_q")
    else:
        enforced = CHECKS
    return ValidationReport(tuple(results), enforced)


# -- serialization -------------------------------------------------------

SCHEMA_VERSION = 1


def chain_to_json(chain: Sequence[StageParams]) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "stages": [st.to_dict() for st in chain],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def chain_from_json(text: str) -> list[StageParams]:
    """Inverse of ``chain_to_json``; ChainFormatError on any malformed input."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ChainFormatError(f"not JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("stages"), list):
        raise ChainFormatError("missing 'stages' list")
    try:
        major = int(doc.get("schema_version", 0))
    except (TypeError, ValueError) as exc:
        raise ChainFormatError(f"bad schema_version: {exc}") from exc
    if major > SCHEMA_VERSION:
        raise ChainFormatError(f"unsupported schema_version {major}")
    return [StageParams.from_dict(d) for d in doc["stages"]]
