"""The twist kinds against a reference evaluation, bit for bit.

The reference evaluates a tiled twist the way the package once did: one
square-twist call per block piece (per distinct symbol of a word-driven
twist), with the leaf coordinates picked by ``np.select``.  The package
makes one call per leaf call over the whole point array; every point must
get the same bits either way.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

import slowtorus.diffeo as df


class SelectTwist(df.SquareTwist):
    """The square twist with its leaf coordinates picked by np.select."""

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
    assert np.array_equal(got, reference_apply(node, pts, inverse))
    assert np.array_equal(node.smoothness_margin(pts), reference_margin(node, pts))
