"""Desk-scale experiment builders.

Chains here use small custom multipliers so that finite-stage dynamics are
computable, running through exactly the same code paths as the exact growth
regimes.  Stage maps are only built once the stage denominator can carry the
construction (q >= 4 for the two-block twist); earlier stages contribute the
identity, which commutes with every rotation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .diffeo import (
    AbCSystem,
    Composite,
    MapNode,
    Rotation,
    build_ue_h,
    build_untwisted_h,
    build_wm_h,
)
from .params import CustomStep, ParamProfile, StageParams, build_chain
from .words import WordSelection, assemble_W, sample_selection

MIN_TWIST_Q = 4


def desk_profile(kl_schedule: Sequence[tuple[int, int, int]]) -> ParamProfile:
    """Custom relaxed-eps profile with q1 = 2 from explicit (k, l, l_prime)
    multipliers."""
    steps = tuple(CustomStep(k=k, l=l, l_prime=lp) for (k, l, lp) in kl_schedule)
    return ParamProfile(regime="custom", relax_eps=True, custom=steps)


# Stage-2 witness stage q_2 = 8, horizon q_3 = 4096, then one more stage.
UNTWISTED_DESK = desk_profile([(1, 2, 4), (1, 64, 8), (1, 1, 64), (1, 1, 64)])

# Vanishing-trend chain: q = 2, 4, 64, 262144 (horizons q_2, q_3 capped q_4).
VANISHING_DESK = desk_profile([(1, 1, 4), (1, 4, 8), (1, 64, 64), (1, 1, 64)])


@dataclass(frozen=True)
class BuiltChain:
    construction: str
    chain: tuple[StageParams, ...]
    stage_maps: tuple[MapNode, ...]  # aligned with chain
    selections: tuple[Optional[WordSelection], ...]

    def system(self, n: int) -> AbCSystem:
        """T_n = H_n o R_{alpha_{n+1}} o H_n^{-1} for stage n of the chain."""
        idx = next(i for i, st in enumerate(self.chain) if st.n == n)
        maps = tuple(
            m for m in self.stage_maps[: idx + 1] if not _is_identity(m)
        )
        H: MapNode = Composite(nodes=maps) if maps else Rotation(Fraction(0))
        stage = self.chain[idx]
        return AbCSystem(H=H, alpha_next=stage.alpha_next, stage=stage)


def _is_identity(node: MapNode) -> bool:
    return isinstance(node, Rotation) and node.alpha % 1 == 0


def build_systems(
    construction: str,
    profile: ParamProfile,
    n_max: int,
    seed: int = 0,
    word_eps: float = 0.25,
    sigma: Optional[float] = None,
    cap_tiles: int = 64,
) -> BuiltChain:
    """Chain plus per-stage conjugation maps for one construction; a stage
    with q below MIN_TWIST_Q contributes the identity.

    A weak-mixing stage's word is assembled from a verified selection of q
    words of length q over the stage alphabet of size n^2, sampled with seed
    ``seed + n`` (word_eps is chosen large at desk scale so the separation
    threshold is attainable at short lengths)."""
    if construction not in ("untwisted", "uniquely_ergodic", "weak_mixing"):
        raise ValueError(f"unknown construction {construction!r}")
    chain = build_chain(profile, n_max)
    maps: list[MapNode] = []
    sels: list[Optional[WordSelection]] = []
    for st in chain:
        sel = None
        if st.q < MIN_TWIST_Q:
            m = Rotation(Fraction(0))
        elif construction == "untwisted":
            m = build_untwisted_h(st)
        elif construction == "uniquely_ergodic":
            m = build_ue_h(st)
        else:
            q = st.q
            sel = sample_selection(s=st.n * st.n, k=q, n_words=q, eps=word_eps, seed=seed + st.n)
            m = build_wm_h(st, assemble_W(sel, q), sigma=sigma, cap_tiles=cap_tiles)
        maps.append(m)
        sels.append(sel)
    return BuiltChain(
        construction=construction,
        chain=tuple(chain),
        stage_maps=tuple(maps),
        selections=tuple(sels),
    )


def wm_desk_profile(q2: int) -> ParamProfile:
    """Chain reaching q_2 = q2 (a power of two times 2) with unit later steps."""
    if q2 % 4 != 0:
        raise ValueError("desk weak-mixing q2 must be divisible by 4")
    kl1 = q2 // 4
    return desk_profile([(1, kl1, 4), (1, 1, 8), (1, 1, 64)])
