import math

import numpy as np
import pytest

import slowtorus.complexity as cx
import slowtorus.diffeo as df
from slowtorus.experiments import (
    UNTWISTED_DESK,
    build_systems,
    desk_profile,
    wm_desk_profile,
)


def tdist(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b))
    d = np.minimum(d, 1 - d)
    return np.max(d)


def test_ue_system_builds_and_is_invertible():
    built = build_systems("uniquely_ergodic", UNTWISTED_DESK, 2)
    sys2 = built.system(2)
    h = sys2.H
    rng = np.random.Generator(np.random.Philox(23))
    pts = rng.random((5000, 2))
    assert tdist(h.inverse(h.forward(pts)), pts) <= 1e-8
    # the stage map is the tiled twist after the staircase shear
    inner = sys2.H.nodes[0]
    assert isinstance(inner, df.Composite)
    assert isinstance(inner.nodes[0], df.QuasiRotTiled)
    assert isinstance(inner.nodes[1], df.VerticalStepShear)


def test_ue_zero_zone_reduces_to_twist():
    built = build_systems("uniquely_ergodic", UNTWISTED_DESK, 2)
    h = built.system(2).H.nodes[0]
    shear = h.nodes[1]
    q, eps = shear.q, shear.eps
    phi = h.nodes[0]
    x = 0.5 * eps / q  # inside the zero zone of the staircase
    p = np.array([[x, 0.42]])
    assert np.allclose(h.forward(p), phi.forward(p), atol=0)


def test_ue_equivariance_and_periodicity():
    built = build_systems("uniquely_ergodic", UNTWISTED_DESK, 2)
    sys2 = built.system(2)
    h = sys2.H
    rng = np.random.Generator(np.random.Philox(24))
    pts = rng.random((800, 2))
    q = sys2.stage.q
    shifted = pts.copy()
    shifted[:, 0] = (shifted[:, 0] + 1.0 / q) % 1.0
    lhs = h.forward(shifted)
    rhs = h.forward(pts)
    rhs[:, 0] = (rhs[:, 0] + 1.0 / q) % 1.0
    assert tdist(lhs, rhs) <= 1e-10
    orb = df.orbit_batch(sys2, np.array([0.3, 0.7]), sys2.q_next + 1)[:, 0]
    assert tdist(orb[-1], orb[0]) <= 1e-9


def test_ue_placement_respects_constraints():
    # each stage's shear starts at the lowest i1 and holds the most
    # staircases that fit (q = 8 and 512)
    built = build_systems("uniquely_ergodic", desk_profile([(1, 2, 4), (1, 8, 8), (1, 1, 64)]), 3)
    for st, h in zip(built.chain[1:], built.stage_maps[1:]):
        v = h.nodes[1]
        assert isinstance(v, df.VerticalStepShear)
        a, i1, s1 = v.plateaus, v.i1, v.s1
        assert i1 == math.ceil(2 * float(st.eps) * st.q)
        assert i1 + a * s1 * (s1 + 1) / 2 <= st.q - 2 * float(st.eps) * st.q
        with pytest.raises(df.ConstructionError, match="q - ceil"):
            df.VerticalStepShear(q=st.q, eps=v.eps, i1=i1, s1=s1 + 1)


def test_unknown_construction_rejected_before_any_stage():
    for n_max in (1, 2):
        with pytest.raises(ValueError, match="unknown construction 'spiral'"):
            build_systems("spiral", UNTWISTED_DESK, n_max)


def test_ue_separated_count_grows_with_stage():
    prof = desk_profile([(1, 2, 4), (1, 8, 8), (1, 1, 64)])
    built = build_systems("uniquely_ergodic", prof, 3)
    counts = []
    for n in (2, 3):
        sysn = built.system(n)
        m = min(sysn.q_next, 512)
        cfg = cx.BowenConfig(n_time=m, eps=0.125, grid=20)
        counts.append(cx.max_separated(sysn, cfg).count)
    assert counts[1] >= counts[0]


def test_untwisted_separated_dominates_witness_count(untwisted_sys2):
    # the greedy grid packing at the witness horizon exceeds the explicit
    # witness cardinality (the witness set realizes a lower bound)
    cfg = cx.BowenConfig(n_time=untwisted_sys2.q_next, eps=0.125, grid=32)
    count = cx.max_separated(untwisted_sys2, cfg).count
    assert count >= 12


def test_wm_selection_recorded():
    built = build_systems("weak_mixing", wm_desk_profile(8), 2, seed=101)
    sel = built.selections[1]
    assert sel is not None and sel.verified
    assert sel.n_words == 8 and sel.k == 8 and sel.alphabet_size == 4


def test_wm_word_length_must_divide():
    # stage 3 of this chain has n^2 = 9 not dividing q_3 = 64
    with pytest.raises(ValueError, match="multiple"):
        build_systems("weak_mixing", wm_desk_profile(8), 3, seed=101)


def test_identity_stages_below_twist_floor():
    built = build_systems("untwisted", UNTWISTED_DESK, 2)
    assert isinstance(built.stage_maps[0], df.Rotation)
    sys1 = built.system(1)
    rng = np.random.Generator(np.random.Philox(25))
    pts = rng.random((100, 2))
    orb = cx.orbit_array(sys1, pts, range(2))
    shift = float(sys1.alpha_next % 1)
    expect = pts.copy()
    expect[:, 0] = (expect[:, 0] + shift) % 1.0
    assert tdist(orb[1], expect) <= 1e-12
