"""Finite-difference estimates of map norms and map distances.

The k-th norm of a torus map is the maximum over sampled points of the
absolute partial derivatives of order <= k of the map and of its inverse,
with the order-0 term taken as the sup of the lifted coordinate values
(minimized over a global integer shift).  Differences of coordinates are
always unwrapped on the circle before differencing; grid points too close to
a map's non-smooth set are excluded and the excluded fraction reported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffeo import Array, MapNode, circle_diff

_DEFAULT_FD = 1e-6
_DEFAULT_GRID = 67  # prime: stays incommensurate with 1/q cell structures


@dataclass(frozen=True)
class NormEstimate:
    k: int
    value: float
    grid: int
    fd_step: float
    excluded_fraction: float
    fd_discrepancy: float


def _grid_points(g: int) -> Array:
    if g < 1:
        raise ValueError(f"grid must be >= 1, got {g}")
    # grids sharing a factor with a map's cell count sample only g/q distinct
    # local positions; callers should prefer sizes coprime to the cell counts
    xs = (np.arange(g) + 0.5) / g
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=-1)


def _lifted_value_sup(node: MapNode, g: int, inverse: bool) -> float:
    """sup |coordinate of a continuous lift| over the closed square,
    minimized over a global integer shift, approximated on a g-grid."""
    best = 0.0
    for coord in range(2):
        xs = np.linspace(0.0, 1.0, g + 1)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        vals = node.apply(pts, inverse=inverse)[:, coord].reshape(g + 1, g + 1)
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


def _partials(node: MapNode, pts: Array, h: float, inverse: bool) -> list[Array]:
    """Signed first-order partials D_j f_i at pts (4 arrays)."""
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    fxp = node.apply(pts + ex, inverse=inverse)
    fxm = node.apply(pts - ex, inverse=inverse)
    fyp = node.apply(pts + ey, inverse=inverse)
    fym = node.apply(pts - ey, inverse=inverse)
    out = []
    for i in range(2):
        out.append(circle_diff(fxp[:, i], fxm[:, i]) / (2 * h))
        out.append(circle_diff(fyp[:, i], fym[:, i]) / (2 * h))
    return out


def _second_partials(node: MapNode, pts: Array, h: float, inverse: bool) -> list[Array]:
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    f0 = node.apply(pts, inverse=inverse)
    fxp = node.apply(pts + ex, inverse=inverse)
    fxm = node.apply(pts - ex, inverse=inverse)
    fyp = node.apply(pts + ey, inverse=inverse)
    fym = node.apply(pts - ey, inverse=inverse)
    fpp = node.apply(pts + ex + ey, inverse=inverse)
    fpm = node.apply(pts + ex - ey, inverse=inverse)
    fmp = node.apply(pts - ex + ey, inverse=inverse)
    fmm = node.apply(pts - ex - ey, inverse=inverse)
    out = []
    for i in range(2):
        dxx = (circle_diff(fxp[:, i], f0[:, i]) + circle_diff(fxm[:, i], f0[:, i])) / (h * h)
        dyy = (circle_diff(fyp[:, i], f0[:, i]) + circle_diff(fym[:, i], f0[:, i])) / (h * h)
        dxy = (
            circle_diff(fpp[:, i], fpm[:, i]) - circle_diff(fmp[:, i], fmm[:, i])
        ) / (4 * h * h)
        out.extend([dxx, dyy, dxy])
    return out


def _max_partials(node: MapNode, pts: Array, h: float, k: int) -> float:
    vals = []
    for inverse in (False, True):
        vals.extend(_partials(node, pts, h, inverse))
        if k >= 2:
            vals.extend(_second_partials(node, pts, h, inverse))
    return float(max(np.max(np.abs(v)) for v in vals)) if vals else 0.0


def triple_norm(
    node: MapNode,
    k: int,
    grid: int = _DEFAULT_GRID,
    fd_step: float = _DEFAULT_FD,
) -> NormEstimate:
    """Estimate of the order-k norm of node (covering the map and its
    inverse).  Orders 0 and 1 are reliable; order 2 is best-effort on
    piecewise maps.  Two steps (h, h/2) are compared and the richer h/2
    value reported together with their discrepancy."""
    if k not in (0, 1, 2):
        raise ValueError("supported orders are k in {0, 1, 2}")
    pts = _grid_points(grid)
    margin = np.minimum(node.smoothness_margin(pts), _image_margin(node, pts))
    keep = margin > 2.0 * fd_step
    excluded = 1.0 - float(np.mean(keep))
    pts = pts[keep]
    value0 = max(_lifted_value_sup(node, grid, False), _lifted_value_sup(node, grid, True))
    if k == 0 or pts.size == 0:
        return NormEstimate(k, value0, grid, fd_step, excluded, 0.0)
    vh = _max_partials(node, pts, fd_step, k)
    vh2 = _max_partials(node, pts, fd_step / 2, k)
    return NormEstimate(
        k=k,
        value=max(value0, vh2),
        grid=grid,
        fd_step=fd_step,
        excluded_fraction=excluded,
        fd_discrepancy=abs(vh - vh2),
    )


def _image_margin(node: MapNode, pts: Array) -> Array:
    """Margin of the inverse map at pts (the forward image's smooth zone)."""
    try:
        img = node.forward(pts)
    except NotImplementedError:
        return np.full(pts.shape[:-1], np.inf)
    return node.smoothness_margin(img)


def dk_distance(
    f: MapNode,
    g: MapNode,
    k: int,
    grid: int = _DEFAULT_GRID,
    fd_step: float = _DEFAULT_FD,
) -> float:
    """Max over the grid of coordinate differences (global integer shift
    minimized) and of partial-derivative differences up to order k, for the
    maps and their inverses."""
    if k not in (0, 1, 2):
        raise ValueError("supported orders are k in {0, 1, 2}")
    pts = _grid_points(grid)
    margin = np.minimum(f.smoothness_margin(pts), g.smoothness_margin(pts))
    keep = margin > 2.0 * fd_step
    pts_d = pts[keep]
    total = 0.0
    for inverse in (False, True):
        fv = f.apply(pts, inverse=inverse)
        gv = g.apply(pts, inverse=inverse)
        for i in range(2):
            diffs = circle_diff(fv[:, i], gv[:, i])
            # inf over a global integer shift of the sup norm; the circle
            # representative already minimizes pointwise, a constant shift
            # can only help when all diffs share a sign
            total = max(total, float(np.max(np.abs(diffs))))
        if k >= 1 and pts_d.size:
            pf = _partials(f, pts_d, fd_step, inverse)
            pg = _partials(g, pts_d, fd_step, inverse)
            for a, b in zip(pf, pg):
                total = max(total, float(np.max(np.abs(a - b))))
            if k >= 2:
                sf = _second_partials(f, pts_d, fd_step, inverse)
                sg = _second_partials(g, pts_d, fd_step, inverse)
                for a, b in zip(sf, sg):
                    total = max(total, float(np.max(np.abs(a - b))))
    return total


def check_submultiplicative(f: MapNode, g: MapNode, k: int = 1, grid: int = 47) -> dict:
    """|f o g|_1 <= C * |f|_1 * |g|_1 with C = 4 (chain-rule slack)."""
    if k != 1:
        raise ValueError("the composition bound is checked at k = 1")
    from .diffeo import Composite

    nf = triple_norm(f, 1, grid=grid).value
    ng = triple_norm(g, 1, grid=grid).value
    nfg = triple_norm(Composite(nodes=(f, g)), 1, grid=grid).value
    C = 4.0
    return {
        "lhs": nfg,
        "rhs": C * nf * ng,
        "C": C,
        "norm_f": nf,
        "norm_g": ng,
        "ok": nfg <= C * nf * ng,
    }
