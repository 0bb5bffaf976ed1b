"""The twist kinds against a reference evaluation, bit for bit.

The reference evaluates a tiled twist the way the package once did: one
square-twist call per block piece (per distinct symbol of a word-driven
twist), each on a stacked (m, 2) point array.  Its square twist is the
package's earlier one, frozen here: it copies the points and overwrites the
copy twice, selects the annulus by a boolean mask, and picks the leaf
coordinates by ``np.select``.  Every point must get the same bits either
way.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import slowtorus.diffeo as df


class SelectTwist(df.SquareTwist):
    """The square twist as the package once evaluated it."""

    @staticmethod
    def _arclength(u, v, rho):
        right = u >= np.abs(v)
        top = v >= np.abs(u)
        left = -u >= np.abs(v)
        s_right = np.mod(v, 8.0 * rho)
        s_top = 2.0 * rho - u
        s_left = 4.0 * rho - v
        s_bottom = 6.0 * rho + u
        return np.select([right, top, left], [s_right, s_top, s_left], default=s_bottom)

    @staticmethod
    def _on_square(rho, s):
        s = np.mod(s, 8.0 * rho)
        c1 = s < rho
        c2 = s < 3.0 * rho
        c3 = s < 5.0 * rho
        c4 = s < 7.0 * rho
        u = np.select([c1, c2, c3, c4], [rho, 2.0 * rho - s, -rho, s - 6.0 * rho], default=rho)
        v = np.select([c1, c2, c3, c4], [s, rho, 4.0 * rho - s, -rho], default=s - 8.0 * rho)
        return u, v

    def eval(self, pts, inverse=False):
        pts = np.asarray(pts, dtype=float)
        x = pts[..., 0]
        y = pts[..., 1]
        u = x - 0.5
        v = y - 0.5
        rho = np.maximum(np.abs(u), np.abs(v))
        out = pts.copy()

        rotate = rho <= self.r_rotate
        turned = (y, 1.0 - x) if inverse else (1.0 - y, x)
        out[..., 0] = np.where(rotate, turned[0], out[..., 0])
        out[..., 1] = np.where(rotate, turned[1], out[..., 1])

        mid = (~rotate) & (rho < self.r_identity)
        if np.any(mid):
            um, vm, rm = u[mid], v[mid], rho[mid]
            s = self._arclength(um, vm, rm)
            shift = self._fade(rm) * 2.0 * rm
            s2 = s - shift if inverse else s + shift
            u2, v2 = self._on_square(rm, s2)
            res = out[mid]
            res[..., 0] = u2 + 0.5
            res[..., 1] = v2 + 0.5
            out[mid] = res
        return out


def same_bits(a, b):
    """Equal shapes and equal float64 bits, so -0.0 differs from 0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def reference_pieces(node, lx):
    """(sel, X, back, stretch) of each block piece: one per block of a
    two-block twist, one per twisting symbol of a word-driven twist."""
    if isinstance(node, df.UntwistedH):
        q = node.q
        w = 1.0 - 1.0 / q
        scale = q / (q - 1.0)
        big = lx < w
        small = ~big
        return [
            (big, lx[big] * scale, lambda r: r / scale, q * scale),
            (small, (lx[small] - w) * q, lambda r: w + r / q, q * q),
        ]
    if isinstance(node, df.WordDrivenPhi):
        nblocks, block, inner = node._split(lx)
        sym = np.asarray(node.word, dtype=np.int64)[block]
        pieces = []
        for j in np.unique(sym):
            tiles = node.tiles_for(int(j))
            if tiles == 0:
                continue
            sel = sym == j
            z = inner[sel] * tiles
            tile = np.minimum(np.floor(z), tiles - 1)

            def back(r, b=block[sel], tile=tile, tiles=tiles):
                return (b + (tile + r) / tiles) / nblocks

            pieces.append((sel, z - tile, back, node.q * nblocks * tiles))
        return pieces
    return [(..., lx, lambda r: r, node.q)]


def reference_apply(node, pts, inverse):
    cell, lx, y = node._cell(pts)
    bx, by = lx.copy(), y.copy()
    tw = SelectTwist(node.eps)
    for sel, X, back, _ in reference_pieces(node, lx):
        res = tw.eval(np.stack([X, y[sel]], axis=-1), inverse=inverse)
        bx[sel] = back(res[..., 0])
        by[sel] = res[..., 1]
    out = np.empty(lx.shape + (2,), dtype=float)
    out[..., 0] = df.mod1((cell + bx) / node.q)
    out[..., 1] = df.mod1(by)
    return out


def reference_margin(node, pts):
    _, lx, y = node._cell(pts)
    out = np.full(lx.shape, np.inf)
    tw = SelectTwist(node.eps)
    for sel, X, _, stretch in reference_pieces(node, lx):
        out[sel] = tw.smoothness_margin(np.stack([X, y[sel]], axis=-1)) / stretch
    return np.minimum(out, node._seams(lx))


@hst.composite
def twist_nodes(draw):
    eps = draw(hst.floats(min_value=0.02, max_value=0.24))
    kind = draw(hst.sampled_from(["quasi_rot_tiled", "untwisted_h", "word_driven_phi"]))
    if kind == "quasi_rot_tiled":
        return df.QuasiRotTiled(q=draw(hst.integers(1, 16)), eps=eps)
    if kind == "untwisted_h":
        return df.UntwistedH(q=draw(hst.integers(4, 16)), eps=eps)
    # words up to 2 * 32^2 symbols long, drawn from a seed
    q = draw(hst.integers(1, 32))
    s = draw(hst.integers(2, 9))
    rng = np.random.Generator(np.random.Philox(draw(hst.integers(0, 2**32))))
    word = tuple(int(j) for j in rng.integers(0, s, 2 * q * q))
    return df.WordDrivenPhi(q=q, eps=eps, word=word, cap_tiles=draw(hst.integers(1, 64)))


def edge_lx(node, rng, n=40):
    """Cell coordinates on the cell edge, the inner block edges and the
    tile edges of ``node``."""
    if isinstance(node, df.UntwistedH):
        return np.array([0.0, 1.0 - 1.0 / node.q])
    if isinstance(node, df.WordDrivenPhi):
        nb = len(node.word)
        blocks = rng.integers(0, nb, n)
        tiles = np.array([node.tiles_for(node.word[i]) for i in blocks])
        k = np.floor(rng.random(n) * (tiles + 1))
        return (blocks + k / np.maximum(tiles, 1)) / nb
    return np.array([0.0])


@settings(max_examples=60, deadline=None)
@given(node=twist_nodes(), inverse=hst.booleans(), seed=hst.integers(0, 2**32))
def test_twist_kinds_match_the_per_piece_reference(node, inverse, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    lx = edge_lx(node, rng)
    cell = rng.integers(0, node.q, lx.size)
    x = (cell + lx) / node.q
    # each edge, one ulp either side of it, and points anywhere
    x = np.concatenate([x, np.nextafter(x, -1.0) % 1.0, np.nextafter(x, 2.0) % 1.0,
                        rng.random(400)])
    pts = np.stack([x, rng.random(x.size)], axis=-1)
    got = node.inverse(pts) if inverse else node.forward(pts)
    assert same_bits(got, reference_apply(node, pts, inverse))
    assert same_bits(node.smoothness_margin(pts), reference_margin(node, pts))


# the inputs 1.0, -0.0, 0.0 and 0.5 in every pairing
EDGE_INPUTS = np.array([[a, b] for a in (1.0, -0.0, 0.0, 0.5) for b in (1.0, -0.0, 0.0, 0.5)])


def pinned_twist_points(eps):
    """Points of the square twist where its branches meet, each with its
    neighbours one ulp either side in x and in y.

    The leaf points at positions 0, rho, 2*rho, ..., 7*rho (the corners, on
    |u| = |v|, and the side midpoints) of the leaves rho = r_rotate and
    r_identity and three leaves between them; their images and preimages,
    whose shifted leaf positions land on those, crossing 0 and 8*rho among
    them; and EDGE_INPUTS.
    """
    tw = SelectTwist(eps)
    rho = np.concatenate([[tw.r_rotate, tw.r_identity],
                          tw.r_rotate + eps * np.array([0.25, 0.5, 0.75])])
    rho, k = np.repeat(rho, 8), np.tile(np.arange(8.0), rho.size)
    u, v = tw._on_square(rho, k * rho)
    leaf = np.stack([u + 0.5, v + 0.5], axis=-1)
    pts = np.concatenate([leaf, tw.eval(leaf), tw.eval(leaf, inverse=True), EDGE_INPUTS])
    out = [pts]
    for axis in (0, 1):
        for to in (-np.inf, np.inf):
            moved = pts.copy()
            moved[:, axis] = np.nextafter(moved[:, axis], to)
            out.append(moved)
    return np.concatenate(out)


def place_in_blocks(node, twist_pts, seed=0):
    """Torus points that ``node`` hands to its square twist at about
    ``twist_pts``: one in each of as many random twisted blocks, mapped
    back through the block's own ``back``."""
    rng = np.random.Generator(np.random.Philox(seed))
    m = len(twist_pts)
    lx = rng.random(64 * m)
    sel, X, back, _ = node._blocks(lx)
    r = np.array(X, dtype=float, copy=True)
    r[:m] = twist_pts[:, 0]
    x = (rng.integers(0, node.q, m) + back(r)[:m]) / node.q
    return np.stack([x, twist_pts[:, 1]], axis=-1)


PINNED_EPS = [0.02, 0.1, 0.125, 0.24]


@pytest.mark.parametrize("eps", PINNED_EPS)
def test_square_twist_matches_frozen_reference_at_pinned_points(eps):
    pts = pinned_twist_points(eps)
    for inverse in (False, True):
        got = df.SquareTwist(eps).eval(pts, inverse)
        assert same_bits(got, SelectTwist(eps).eval(pts, inverse))
    assert same_bits(df.SquareTwist(eps).smoothness_margin(pts),
                     SelectTwist(eps).smoothness_margin(pts))


@pytest.mark.parametrize("eps", PINNED_EPS)
@pytest.mark.parametrize(
    "make",
    [
        lambda eps: df.QuasiRotTiled(q=4, eps=eps),
        lambda eps: df.UntwistedH(q=8, eps=eps),
        lambda eps: df.WordDrivenPhi(q=2, eps=eps, word=(0, 1, 2, 3, 1, 0, 3, 2), cap_tiles=3),
    ],
    ids=["quasi_rot_tiled", "untwisted_h", "word_driven_phi"],
)
def test_twist_kinds_match_the_reference_at_pinned_points(make, eps):
    node = make(eps)
    twist_pts = pinned_twist_points(eps)
    # the pinned twist points placed in blocks, and EDGE_INPUTS as torus
    # points; each with its neighbours one ulp either side in x
    pts = np.concatenate([place_in_blocks(node, twist_pts), EDGE_INPUTS])
    pts = np.concatenate([pts] + [np.stack([np.nextafter(pts[:, 0], to), pts[:, 1]], axis=-1)
                                  for to in (-np.inf, np.inf)])
    for inverse in (False, True):
        got = node.inverse(pts) if inverse else node.forward(pts)
        assert same_bits(got, reference_apply(node, pts, inverse))
    assert same_bits(node.smoothness_margin(pts), reference_margin(node, pts))
