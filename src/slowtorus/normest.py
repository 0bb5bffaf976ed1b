"""Finite-difference estimates of map norms and map distances.

The k-th norm of a torus map is the maximum over sampled points of the
absolute partial derivatives of order <= k of the map and of its inverse,
with the order-0 term taken as the sup of the lifted coordinate values
(minimized over a global integer shift).  Differences of coordinates are
always unwrapped on the circle before differencing; grid points whose
difference stencil comes too close to a leaf's non-smooth set are excluded
(see `diffeo.stencil`) and the excluded fraction reported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexity import grid_candidates
from .diffeo import (
    Array,
    MapNode,
    central_partials,
    circle_diff,
    stencil,
    stencil_offsets,
)

_FD_STEP = 1e-6  # the coarse finite-difference step; the fine one is half of it
_DEFAULT_GRID = 67  # prime: stays incommensurate with 1/q cell structures


@dataclass(frozen=True)
class NormEstimate:
    k: int
    value: float
    grid: int
    fd_step: float
    excluded_fraction: float
    fd_discrepancy: float


def _lifted_value_sup(node: MapNode, g: int, inverse: bool) -> float:
    """sup |coordinate of a continuous lift| over the closed square,
    minimized over a global integer shift, approximated on a g-grid."""
    xs = np.linspace(0.0, 1.0, g + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    values = (node.inverse if inverse else node.forward)(pts).reshape(g + 1, g + 1, 2)
    best = 0.0
    for coord in range(2):
        vals = values[..., coord]
        # unwrap along axis 0, then each row along axis 1
        lift = np.empty_like(vals)
        lift[0, 0] = vals[0, 0]
        lift[1:, 0] = vals[0, 0] + np.cumsum(circle_diff(vals[1:, 0], vals[:-1, 0]), axis=0)
        steps = circle_diff(vals[:, 1:], vals[:, :-1])
        lift[:, 1:] = lift[:, 0:1] + np.cumsum(steps, axis=1)
        lo, hi = float(lift.min()), float(lift.max())
        # best integer recentering of [lo, hi] around zero
        sup = math.inf
        for p in {-math.floor((lo + hi) / 2 + 0.5), -math.floor((lo + hi) / 2), 0}:
            sup = min(sup, max(abs(lo + p), abs(hi + p)))
        best = max(best, sup)
    return best


def _partials_sup(node: MapNode, pts: Array, h: float, k: int) -> tuple[float, Array]:
    """Largest |partial| of order 1 to k of the map and of its inverse over
    the points whose stencils are kept in both directions, and the mask of
    those points."""
    offsets = stencil_offsets(h, k)
    runs = [stencil(node, pts, offsets, inverse) for inverse in (False, True)]
    keep = runs[0][1] & runs[1][1]
    parts = [p for vals, _ in runs for p in central_partials(vals[:, keep], h)]
    return max(float(np.max(np.abs(p), initial=0.0)) for p in parts), keep


def triple_norm(node: MapNode, k: int, grid: int = _DEFAULT_GRID) -> NormEstimate:
    """Estimate of the order-k norm of node (covering the map and its
    inverse).  Orders 0 and 1 are reliable; order 2 is best-effort on
    piecewise maps.  Two steps (h, h/2) are compared and the richer h/2
    value reported together with their discrepancy; the h/2 stencils are
    taken at the points kept at step h.  Order 0 differences nothing, so it
    excludes no point."""
    if k not in (0, 1, 2):
        raise ValueError("supported orders are k in {0, 1, 2}")
    pts = grid_candidates(grid)
    value0 = max(_lifted_value_sup(node, grid, False), _lifted_value_sup(node, grid, True))
    if k == 0:
        return NormEstimate(k, value0, grid, _FD_STEP, 0.0, 0.0)
    vh, keep = _partials_sup(node, pts, _FD_STEP, k)
    vh2, _ = _partials_sup(node, pts[keep], _FD_STEP / 2, k)
    return NormEstimate(
        k=k,
        value=max(value0, vh2),
        grid=grid,
        fd_step=_FD_STEP,
        excluded_fraction=1.0 - float(np.mean(keep)),
        fd_discrepancy=abs(vh - vh2),
    )


def dk_distance(f: MapNode, g: MapNode, k: int, grid: int = _DEFAULT_GRID) -> float:
    """Max over the grid of coordinate differences (global integer shift
    minimized) and of partial-derivative differences up to order k, for the
    maps and their inverses.  Partials are compared at the points whose
    stencils are kept for both maps."""
    if k not in (0, 1, 2):
        raise ValueError("supported orders are k in {0, 1, 2}")
    pts = grid_candidates(grid)
    offsets = stencil_offsets(_FD_STEP, k)
    total = 0.0
    for inverse in (False, True):
        fv, fkeep = stencil(f, pts, offsets, inverse)
        gv, gkeep = stencil(g, pts, offsets, inverse)
        # inf over a global integer shift of the sup norm; the circle
        # representative already minimizes pointwise, a constant shift
        # can only help when all diffs share a sign
        total = max(total, float(np.max(np.abs(circle_diff(fv[0], gv[0])))))
        keep = fkeep & gkeep
        if k >= 1 and keep.any():
            pf = central_partials(fv[:, keep], _FD_STEP)
            pg = central_partials(gv[:, keep], _FD_STEP)
            total = max(total, max(float(np.max(np.abs(a - b))) for a, b in zip(pf, pg)))
    return total
