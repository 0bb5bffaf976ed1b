"""Properties that hold for every registered map node kind.

One Hypothesis strategy per kind draws parameters inside the kind's
ConstructionError bounds; `test_every_kind_has_a_strategy` fails when a
kind joins the registry without one.
"""
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

import slowtorus.diffeo as df
from slowtorus.experiments import UNTWISTED_DESK, build_systems, wm_desk_profile

twist_eps = hst.floats(min_value=0.02, max_value=0.24)


@hst.composite
def vertical_shears(draw):
    # i1 >= ceil(2*eps*q) and i1 + a*s1*(s1+1)/2 <= q - ceil(2*eps*q)
    eps = draw(hst.floats(min_value=0.05, max_value=0.2))
    a = 2 * math.floor(1.0 / (3.0 * eps)) - 1
    q = draw(hst.integers(4, 64).filter(lambda q: q - 2 * math.ceil(2 * eps * q) >= a))
    lo = math.ceil(2.0 * eps * q)
    s1 = 1
    while 2 * lo + a * (s1 + 1) * (s1 + 2) // 2 <= q:
        s1 += 1
    s1 = draw(hst.integers(1, s1))
    i1 = draw(hst.integers(lo, q - lo - a * s1 * (s1 + 1) // 2))
    return df.VerticalStepShear(q=q, eps=eps, i1=i1, s1=s1)


@hst.composite
def horizontal_shears(draw):
    # a = b * strips; the collar j0 = strips * ceil(b*eps) must stay below a/2
    b = draw(hst.integers(3, 16))
    strips = draw(hst.integers(1, 64))
    eps = draw(hst.floats(min_value=0.01, max_value=((b - 1) // 2 - 0.01) / b))
    return df.HorizontalStepShear(a=b * strips, b=b, eps=eps)


@hst.composite
def word_phis(draw):
    # q * cap_tiles stays small: the block stretch 2*q^3*tiles turns a
    # global difference step into a local one that many times longer
    q = draw(hst.integers(1, 4))
    word = draw(hst.lists(hst.integers(0, 35), min_size=2 * q * q, max_size=2 * q * q))
    cap = draw(hst.integers(1, 2))
    return df.WordDrivenPhi(q=q, eps=draw(twist_eps), word=tuple(word), cap_tiles=cap)


LEAVES = {
    "rotation": hst.builds(df.Rotation, hst.fractions(max_denominator=64)),
    "quasi_rot_tiled": hst.builds(df.QuasiRotTiled, q=hst.integers(1, 16), eps=twist_eps),
    "untwisted_h": hst.builds(df.UntwistedH, q=hst.integers(4, 12), eps=twist_eps),
    "vertical_step_shear": vertical_shears(),
    "horizontal_step_shear": horizontal_shears(),
    "word_driven_phi": word_phis(),
}
NODE_STRATEGIES = {
    **LEAVES,
    "composite": hst.recursive(
        hst.one_of(*LEAVES.values()),
        lambda nodes: hst.lists(nodes, min_size=1, max_size=3).map(
            lambda ns: df.Composite(nodes=tuple(ns))
        ),
        max_leaves=4,
    ).filter(lambda n: isinstance(n, df.Composite)),
}

# the kinds that split each 1/q cell into rescaled square twists
TWIST_KINDS = sorted(
    kind
    for kind, cls in df.NODE_KINDS.items()
    if issubclass(cls, df._TiledTwist) and cls.__module__ == df.__name__
)

prop = settings(max_examples=25, deadline=None)


def points(seed, n=2000):
    return np.random.Generator(np.random.Philox(seed)).random((n, 2))


def tdist(a, b):
    """The torus distance of each point of a from its point of b."""
    d = np.abs(a - b)
    return np.max(np.minimum(d, 1 - d), axis=-1)


def stack_tol(node, pts, h=1e-7):
    """Round-off bound for a stack at each point: 1e-10 times the product,
    over its leaves, of the leaf's largest central-difference partial
    (torus differences at step h) at the point's image entering that leaf,
    and never below 1e-8.  A stack multiplies one leaf's round-off by the
    stretch of the leaves after it."""
    tol = np.full(len(pts), 1e-10)
    for leaf in reversed(df._leaves(node)):  # in application order
        vals, _ = df.stencil(leaf, pts, df.stencil_offsets(h, 1))
        tol *= np.max(np.abs(df.central_partials(vals, h)), axis=0)
        pts = leaf.forward(pts)
    return np.maximum(tol, 1e-8)


class Drawn:
    """Stands in for ``st.data()`` in an @example: a draw from `strategy`
    gives `node`, and a draw from any other strategy rejects the example,
    so that it runs under its own parametrized kind only."""

    def __init__(self, strategy, node):
        self.strategy, self.node = strategy, node

    def draw(self, strategy):
        assume(strategy is self.strategy)
        return self.node


# round-trips point seed 611 within 1.64e-8 (each leaf alone within 1.1e-16):
# float round-off times the stretch of the two step shears.  Its period is 1,
# so the rotation test shifts by 1 and draws no shift.
STRETCHED_STACK = Drawn(
    NODE_STRATEGIES["composite"],
    df.Composite((
        df.Composite((df.WordDrivenPhi(q=4, eps=0.125, word=(0,) * 29 + (2, 0, 0), cap_tiles=2),)),
        df.HorizontalStepShear(a=112, b=16, eps=0.0625),
        df.Composite((
            df.VerticalStepShear(q=49, eps=0.08786488421815847, i1=9, s1=3),
            df.Rotation(Fraction(258823, 21)),
        )),
    )),
)


def test_every_kind_has_a_strategy():
    # other test modules define helper kinds of their own
    package_kinds = {k for k, cls in df.NODE_KINDS.items() if cls.__module__ == df.__name__}
    assert set(NODE_STRATEGIES) == package_kinds


@pytest.mark.parametrize("kind", sorted(NODE_STRATEGIES))
@prop
@given(data=hst.data(), seed=hst.integers(0, 2**32))
@example(data=STRETCHED_STACK, seed=611)
def test_inverse_undoes_forward(kind, data, seed):
    node = data.draw(NODE_STRATEGIES[kind])
    pts = points(seed)
    tol = stack_tol(node, pts) if kind == "composite" else 1e-10
    assert np.all(tdist(node.inverse(node.forward(pts)), pts) <= tol)


@pytest.mark.parametrize("kind", sorted(NODE_STRATEGIES))
@prop
@given(data=hst.data())
def test_dict_and_json_roundtrip(kind, data):
    node = data.draw(NODE_STRATEGIES[kind])
    assert df.node_from_dict(node.to_dict()) == node
    text = df.node_to_json(node)
    assert df.node_to_json(df.node_from_json(text)) == text


def test_declared_periods():
    assert df.MapNode().period == 1
    assert df.Rotation(Fraction(2, 7)).period == 0
    assert df.HorizontalStepShear(a=32, b=4, eps=0.1).period == 0
    assert df.VerticalStepShear(q=8, eps=0.125, i1=2, s1=1).period == 8
    assert df.UntwistedH(q=12, eps=0.1).period == 12
    assert df.Composite(nodes=()).period == 0
    twists = (df.QuasiRotTiled(q=12, eps=0.1), df.HorizontalStepShear(a=32, b=4, eps=0.1))
    assert df.Composite(nodes=twists).period == 12
    inner = df.Composite(nodes=(df.UntwistedH(q=8, eps=0.1), df.Rotation(Fraction(1, 3))))
    assert df.Composite(nodes=(twists[0], inner)).period == 4


@pytest.mark.parametrize("kind", sorted(NODE_STRATEGIES))
@prop
@given(data=hst.data(), seed=hst.integers(0, 2**32))
@example(data=STRETCHED_STACK, seed=611)
def test_commutes_with_horizontal_rotation(kind, data, seed):
    # by 1/period, or by any shift when the period is 0
    node = data.draw(NODE_STRATEGIES[kind])
    if node.period == 0:
        shift = data.draw(hst.floats(min_value=0.0, max_value=1.0))
    else:
        shift = 1.0 / node.period
    pts = points(seed)
    moved = pts.copy()
    moved[:, 0] = df.mod1(moved[:, 0] + shift)
    want = node.forward(pts)
    want[:, 0] = df.mod1(want[:, 0] + shift)
    tol = stack_tol(node, pts) if kind == "composite" else 1e-10
    assert np.all(tdist(node.forward(moved), want) <= tol)


@pytest.mark.parametrize("kind", sorted(NODE_STRATEGIES))
@prop
@given(data=hst.data(), seed=hst.integers(0, 2**32))
@example(data=STRETCHED_STACK, seed=611)
def test_single_point_is_row_zero_of_a_batch(kind, data, seed):
    node = data.draw(NODE_STRATEGIES[kind])
    pt = points(seed, n=1)[0]
    for f in (node.forward, node.inverse):
        one = f(pt)
        assert one.shape == (2,)
        assert one.tobytes() == f(pt[None])[0].tobytes()


def inverse_det_error(node, pts, h):
    """|det D(node^-1) - 1| by central differences at the kept points."""
    vals, keep = df.stencil(node, pts, df.stencil_offsets(h, 1), inverse=True)
    dx0, dy0, dx1, dy1 = df.central_partials(vals[:, keep], h)
    return np.abs(dx0 * dy1 - dy0 * dx1 - 1.0), keep


@pytest.mark.parametrize("kind", sorted(LEAVES))
@prop
@given(data=hst.data(), seed=hst.integers(0, 2**32))
def test_leaf_jacobian_is_one(kind, data, seed):
    res = df.jacobian_mc(data.draw(LEAVES[kind]), 2000, 1e-6, seed=seed)
    assert res["max"] < 1e-5, res


@pytest.mark.parametrize("kind", sorted(LEAVES))
@prop
@given(data=hst.data(), seed=hst.integers(0, 2**32))
def test_leaf_inverse_jacobian_is_one(kind, data, seed):
    # each leaf judges the inverse's stencil by its margin at the inverse
    # image of the centre
    err, _ = inverse_det_error(data.draw(LEAVES[kind]), points(seed), 1e-6)
    assert np.max(err, initial=0.0) < 1e-5


# Composites join the Jacobian check as the built stage stacks.  A random
# stack at a fixed step does not: its error after exclusion is truncation,
# which falls as h^2, and reaches 3.2e-5 at h = 1e-6 for
# Composite(QuasiRotTiled(q=1, eps=0.125), QuasiRotTiled(q=3, eps=0.125)).
@pytest.mark.parametrize(
    "construction, profile, n, h",
    [
        ("weak_mixing", wm_desk_profile(8), 2, 1e-6),
        ("weak_mixing", wm_desk_profile(16), 2, 1e-6),
        ("weak_mixing", wm_desk_profile(32), 2, 1e-8),
        ("untwisted", UNTWISTED_DESK, 2, 1e-6),
        ("untwisted", UNTWISTED_DESK, 3, 1e-6),
    ],
    ids=["wm-q8", "wm-q16", "wm-q32", "untwisted-2", "untwisted-3"],
)
def test_stage_stack_jacobian_is_one(construction, profile, n, h):
    H = build_systems(construction, profile, n, seed=101).system(n).H
    res = df.jacobian_mc(H, 2000, h, seed=0)
    assert res["max"] < 1e-5 and res["n_used"] >= 100, res
    err, keep = inverse_det_error(H, points(0), h)
    assert np.max(err) < 1e-5 and keep.sum() >= 100


def twist_squares(node):
    """(left edge, width) of each square twist copy in the 1/q cell's
    coordinate, as each kind's docstring states its split."""
    if isinstance(node, df.UntwistedH):
        w = 1.0 - 1.0 / node.q
        return [(0.0, w), (w, 1.0 / node.q)]
    if isinstance(node, df.WordDrivenPhi):
        nb = len(node.word)
        return [
            ((i + k / tiles) / nb, 1.0 / (nb * tiles))
            for i, sym in enumerate(node.word)
            for tiles in [node.tiles_for(sym)]
            for k in range(tiles)
        ]
    return [(0.0, 1.0)]


def inner_block_edges(node):
    if isinstance(node, df.UntwistedH):
        return [1.0 - 1.0 / node.q]
    if isinstance(node, df.WordDrivenPhi):
        return [i / len(node.word) for i in range(1, len(node.word))]
    return []


@pytest.mark.parametrize("kind", TWIST_KINDS)
@prop
@given(data=hst.data(), seed=hst.integers(0, 2**32))
def test_margin_vanishes_on_block_edges_and_zone_squares(kind, data, seed):
    node = data.draw(NODE_STRATEGIES[kind])
    rng = np.random.Generator(np.random.Philox(seed))
    lx, y = [], []
    for left, width in twist_squares(node):
        for r in (node.twist.r_rotate, node.twist.r_identity):
            t = 0.5 + rng.uniform(-r, r, 4)
            for X, Y in ((0.5 + r, t), (0.5 - r, t), (t, 0.5 + r), (t, 0.5 - r)):
                lx.append(left + width * np.broadcast_to(X, t.shape))
                y.append(np.broadcast_to(Y, t.shape))
    for edge in inner_block_edges(node):
        lx.append(np.full(4, edge))
        y.append(rng.random(4))
    lx = np.concatenate(lx)
    cell = rng.integers(0, node.q, lx.size)
    pts = np.stack([(cell + lx) / node.q, np.concatenate(y)], axis=-1)
    assert np.max(node.smoothness_margin(pts)) <= 1e-12


def ramp_edges(node):
    """Points on both edges of every ramp of a step shear, at a random
    coordinate along the slide, as the kind's docstring places its ramps."""
    if isinstance(node, df.VerticalStepShear):
        a, start, xi = node.plateaus, node.i1, []
        for s in range(1, node.s1 + 1):
            xi += [start + i * s for i in range(1, a)]
            start += a * s
        edges = np.concatenate([np.array(xi, dtype=float) + d for d in (-node.eps, node.eps)])
        cells = np.arange(node.q)[:, None]
        return ((cells + edges / node.q) / node.q).ravel(), 0
    centers = np.arange(node.j0 + 1, node.a - node.j0 + 1, dtype=float)
    return np.concatenate([centers + d for d in (-node.eps, node.eps)]) / node.a, 1


@pytest.mark.parametrize("kind", ["vertical_step_shear", "horizontal_step_shear"])
@prop
@given(data=hst.data(), seed=hst.integers(0, 2**32))
def test_margin_vanishes_on_ramp_edges(kind, data, seed):
    node = data.draw(NODE_STRATEGIES[kind])
    edges, axis = ramp_edges(node)
    pts = np.random.Generator(np.random.Philox(seed)).random((edges.size, 2))
    pts[:, axis] = edges
    assert np.max(node.smoothness_margin(pts), initial=0.0) <= 1e-12


def test_word_symbols_beyond_base36_rejected():
    node = df.WordDrivenPhi(q=1, eps=0.1, word=(0, 36))
    with pytest.raises(ValueError, match="symbol 36"):
        df.node_to_json(node)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown node kind 'spiral'"):
        df.node_from_dict({"kind": "spiral"})


def test_new_kind_needs_only_its_dataclass(monkeypatch):
    monkeypatch.setattr(df, "NODE_KINDS", dict(df.NODE_KINDS))

    @dataclass(frozen=True)
    class VerticalRotation(df.MapNode):
        beta: Fraction
        turns: int = 1
        kind = "vertical_rotation"

        def forward(self, pts):
            out = np.array(pts, dtype=float)
            out[..., 1] = df.mod1(out[..., 1] + float(self.turns * self.beta))
            return out

    node = df.Composite(nodes=(VerticalRotation(Fraction(1, 3), turns=2), df.Rotation(Fraction(1, 5))))
    assert df.node_from_json(df.node_to_json(node)) == node
    assert VerticalRotation(Fraction(1, 3)).describe() == "vertical_rotation(beta=1/3, turns=1)"
