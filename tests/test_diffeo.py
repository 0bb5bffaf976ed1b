from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import slowtorus.diffeo as df
from slowtorus.experiments import UNTWISTED_DESK, build_systems
from slowtorus.params import StageParams


def stage(n=2, q=8, eps=Fraction(1, 8), k=1, l=64, lp=8):
    p = 1
    alpha = Fraction(p, q)
    return StageParams(n=n, p=p, q=q, k=k, l=l, l_prime=lp, alpha=alpha, eps=eps, m_smooth=1)


def tdist(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b))
    d = np.minimum(d, 1 - d)
    return np.max(d)


# -- square twist -----------------------------------------------------------


def test_twist_rotation_zone_example():
    tw = df.SquareTwist(0.1)
    assert np.allclose(tw.eval(np.array([0.5, 0.25])), [0.75, 0.5], atol=1e-12)


def test_twist_identity_zone_bitwise():
    tw = df.SquareTwist(0.1)
    p = np.array([0.05, 0.5])
    out = tw.eval(p)
    assert out[0] == p[0] and out[1] == p[1]


def test_twist_fixes_center():
    for eps in (0.05, 0.1, 0.2):
        tw = df.SquareTwist(eps)
        out = tw.eval(np.array([0.5, 0.5]))
        assert np.all(out == np.array([0.5, 0.5]))


def test_twist_rotation_zone_matches_formula():
    tw = df.SquareTwist(0.1)
    rng = np.random.Generator(np.random.Philox(5))
    pts = 0.3 + 0.4 * rng.random((500, 2))  # inside [0.3, 0.7]^2
    out = tw.eval(pts)
    expect = np.stack([1.0 - pts[:, 1], pts[:, 0]], axis=-1)
    assert np.max(np.abs(out - expect)) <= 1e-12


def test_twist_roundtrip():
    tw = df.SquareTwist(0.1)
    rng = np.random.Generator(np.random.Philox(6))
    pts = rng.random((10000, 2))
    back = tw.eval(tw.eval(pts), inverse=True)
    assert np.max(np.abs(back - pts)) <= 1e-10


def test_twist_invalid_eps():
    with pytest.raises(df.ConstructionError):
        df.SquareTwist(0.3)


def test_twist_preserves_leaf_radius():
    tw = df.SquareTwist(0.1)
    rng = np.random.Generator(np.random.Philox(8))
    pts = rng.random((5000, 2))
    out = tw.eval(pts)
    rho_in = np.max(np.abs(pts - 0.5), axis=-1)
    rho_out = np.max(np.abs(out - 0.5), axis=-1)
    assert np.max(np.abs(rho_in - rho_out)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    eps=hst.floats(min_value=0.02, max_value=0.24),
    x=hst.floats(min_value=0.0, max_value=1.0),
    y=hst.floats(min_value=0.0, max_value=1.0),
)
def test_twist_roundtrip_property(eps, x, y):
    tw = df.SquareTwist(eps)
    p = np.array([x, y])
    back = tw.eval(tw.eval(p), inverse=True)
    assert np.max(np.abs(back - p)) <= 1e-8


# -- tiled twist ------------------------------------------------------------


def test_phi_q_one_equals_square_twist():
    tw = df.SquareTwist(0.1)
    rng = np.random.Generator(np.random.Philox(9))
    pts = rng.random((2000, 2))
    a = df.QuasiRotTiled(q=1, eps=0.1).forward(pts)
    b = tw.eval(pts)
    assert np.max(np.abs(a - b)) <= 1e-15


def test_phi_q_rescale_example():
    out = df.QuasiRotTiled(q=4, eps=0.1).apply(np.array([[0.125, 0.25]]))[0]
    assert np.allclose(out, [0.1875, 0.5], atol=1e-12)


def test_phi_q_equivariance():
    q = 4
    node = df.QuasiRotTiled(q=q, eps=0.1)
    rng = np.random.Generator(np.random.Philox(10))
    pts = rng.random((1000, 2))
    shifted = pts.copy()
    shifted[:, 0] = (shifted[:, 0] + 1.0 / q) % 1.0
    lhs = node.forward(shifted)
    rhs = node.forward(pts)
    rhs[:, 0] = (rhs[:, 0] + 1.0 / q) % 1.0
    assert tdist(lhs, rhs) <= 1e-12


# -- untwisted stage map ----------------------------------------------------


def test_untwisted_requires_q4():
    with pytest.raises(df.ConstructionError, match="q >= 4"):
        df.UntwistedH(q=3, eps=0.1)


def test_untwisted_blocks_map_to_themselves():
    h = df.UntwistedH(q=8, eps=0.125)
    rng = np.random.Generator(np.random.Philox(11))
    pts = rng.random((5000, 2))
    out = h.forward(pts)
    # block membership is preserved: wide -> wide, narrow -> narrow
    lx_in = (pts[:, 0] * 8) % 1.0
    lx_out = (out[:, 0] * 8) % 1.0
    big_in = lx_in < 1 - 1.0 / 8
    big_out = lx_out < 1 - 1.0 / 8
    assert np.all(big_in == big_out)
    cell_in = np.floor(pts[:, 0] * 8)
    cell_out = np.floor(out[:, 0] * 8)
    assert np.all(cell_in == cell_out)


def test_untwisted_near_boundary_identity():
    # x just left of the cell edge, inside the narrow block's identity zone
    h = df.UntwistedH(q=8, eps=0.125)
    eps = 0.125
    x = 1.0 / 8 - 0.5 * eps / 64  # within eps/q^2 of the boundary
    p = np.array([[x, 0.4]])
    out = h.forward(p)
    assert np.max(np.abs(out - p)) == 0.0


def test_untwisted_big_block_rotation_oracle():
    # compose the affine rescale with the exact quarter-turn by hand
    q, eps = 8, 0.125
    h = df.UntwistedH(q=q, eps=eps)
    w = 1.0 / q - 1.0 / (q * q)
    xs = np.linspace(0.35 * w, 0.6 * w, 7)
    ys = np.linspace(0.3, 0.7, 7)
    for x in xs:
        for y in ys:
            X = x / w
            if not (2 * eps <= X <= 1 - 2 * eps):
                continue
            expect = np.array([w * (1.0 - y), X])
            got = h.forward(np.array([[x, y]]))[0]
            assert np.max(np.abs(got - expect)) <= 1e-12, (x, y)


def test_untwisted_equivariance():
    h = df.UntwistedH(q=8, eps=0.125)
    rng = np.random.Generator(np.random.Philox(12))
    pts = rng.random((1000, 2))
    shifted = pts.copy()
    shifted[:, 0] = (shifted[:, 0] + 0.125) % 1.0
    lhs = h.forward(shifted)
    rhs = h.forward(pts)
    rhs[:, 0] = (rhs[:, 0] + 0.125) % 1.0
    assert tdist(lhs, rhs) <= 1e-12


def test_untwisted_strip_measure_preserved():
    # stratified Monte Carlo: image mass of a horizontal strip ~ its width
    h = df.UntwistedH(q=8, eps=0.125)
    g = 400  # 160000 stratified samples
    rng = np.random.Generator(np.random.Philox(13))
    base = (np.indices((g, g)).reshape(2, -1).T + rng.random((g * g, 2))) / g
    out = h.forward(base)
    lo, hi = 0.3, 0.55
    frac = np.mean((out[:, 1] >= lo) & (out[:, 1] < hi))
    assert abs(frac - (hi - lo)) <= 1e-3


# -- step shears ------------------------------------------------------------


def test_vertical_shear_plateau_oracle():
    q, eps = 8, 0.125
    v = df.VerticalStepShear(q=q, eps=eps, i1=2, s1=1)
    a = v.plateaus
    assert a == 3
    # plateau k of the single staircase has value -3*eps*k for k < b
    start = 2.0  # i1 in the rescaled coordinate
    for k, want in [(0, 0.0), (1, -3 * eps), (2, 0.0)]:
        xi = start + k * 1.0 + 0.5  # mid-plateau, step length s = 1
        x = xi / (q * q)
        got = v.psi(np.array([x]))[0]
        assert got == pytest.approx(want, abs=1e-12), k


def test_vertical_shear_zero_zones():
    q, eps = 8, 0.125
    v = df.VerticalStepShear(q=q, eps=eps, i1=2, s1=1)
    for x in [0.0, eps / q, 2 * eps / q, (1 - 2 * eps) / q, (1 - eps / 2) / q]:
        p = np.array([[x, 0.37]])
        assert np.all(v.forward(p) == p), x


def test_vertical_shear_period():
    v = df.VerticalStepShear(q=8, eps=0.125, i1=2, s1=1)
    xs = np.linspace(0, 1 / 8, 200, endpoint=False)
    assert np.allclose(v.psi(xs), v.psi(xs + 1 / 8), atol=1e-12)


def test_vertical_shear_placement_errors():
    with pytest.raises(df.ConstructionError, match="i1 >= ceil"):
        df.VerticalStepShear(q=8, eps=0.125, i1=1, s1=1)
    with pytest.raises(df.ConstructionError, match="q - ceil"):
        df.VerticalStepShear(q=8, eps=0.125, i1=2, s1=2)


def test_vertical_shear_is_measure_preserving():
    v = df.VerticalStepShear(q=8, eps=0.125, i1=2, s1=1)
    res = df.jacobian_mc(v, 10000, 1e-6, seed=21)
    assert res["max"] < 1e-6


def test_horizontal_shear_strip_translation():
    # strip i translates by b*i/a mod 1 on its plateau
    a, b, eps = 40, 5, 0.1
    g = df.HorizontalStepShear(a=a, b=b, eps=eps)
    j0 = g.j0
    assert j0 % (a // b) == 0 and j0 >= a * eps
    for i in (j0, j0 + 1, a // 2, a - j0 - 1):
        y = (i + 0.5) / a
        p = np.array([[0.2, y]])
        out = g.forward(p)[0]
        want = (0.2 + b * i / a) % 1.0
        assert out[0] == pytest.approx(want, abs=1e-12), i
        assert out[1] == y


def test_horizontal_shear_identity_collar():
    g = df.HorizontalStepShear(a=40, b=5, eps=0.1)
    for y in (0.0, 0.05, 0.1, 0.95, 1.0 - 1e-9):
        p = np.array([[0.77, y]])
        out = g.forward(p)[0]
        assert tdist(out, p[0]) <= 1e-12, y


def test_horizontal_shear_commutes_with_rotation():
    g = df.HorizontalStepShear(a=5120, b=5, eps=0.125)
    rng = np.random.Generator(np.random.Philox(14))
    pts = rng.random((1000, 2))
    shifted = pts.copy()
    shifted[:, 0] = (shifted[:, 0] + 1.0 / 8) % 1.0
    lhs = g.forward(shifted)
    rhs = g.forward(pts)
    rhs[:, 0] = (rhs[:, 0] + 1.0 / 8) % 1.0
    assert tdist(lhs, rhs) <= 1e-12


def _staircase_profile(z, centers, signs, width):
    """Sum of +-ramps at the given centers, each of half-width ``width``.

    Closed form: ramps are disjoint (centers at least 2*width apart), so at
    most one is partially active at any z; the rest contribute 0 or 1.
    """
    z = np.asarray(z, dtype=float)
    total = np.zeros_like(z)
    if len(centers) == 0:  # a single plateau (eps > 1/6 in the step shear)
        return total
    # completed ramps: center <= z - width
    idx = np.searchsorted(centers, z - width, side="right")
    csum = np.concatenate([[0.0], np.cumsum(signs)])
    total += csum[idx]
    # at most one active ramp: the first center > z - width
    nearest = np.clip(idx, 0, len(centers) - 1)
    c = centers[nearest]
    active = np.abs(z - c) < width
    total = np.where(
        active & (idx < len(centers)),
        total + signs[nearest] * df.ramp((z - c) / width),
        total,
    )
    return total


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("a, b, eps", [(40, 5, 0.1), (5120, 5, 0.125), (720896, 11, 0.125)])
def test_horizontal_shear_chi_matches_staircase(a, b, eps):
    # the closed form equals the generic staircase over the explicit centers
    # j0+1 ... a-j0, on random heights and on both sides of every ramp edge
    g = df.HorizontalStepShear(a=a, b=b, eps=eps)
    centers = np.arange(g.j0 + 1, a - g.j0 + 1, dtype=float)
    k = np.arange(a + 1)
    edges = np.concatenate([(k + d) / a for d in (-eps, 0.0, eps)])
    rng = np.random.Generator(np.random.Philox(15))
    for y in (rng.random(100_000), edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)):
        z = df.mod1(y) * a
        want = (b / a) * _staircase_profile(z, centers, np.ones_like(centers), eps)
        assert_same_bits(g.chi(y), want)


@pytest.mark.parametrize(
    "q, eps, i1, s1",
    [(8, 0.125, 2, 1), (8, 0.125, 3, 1), (64, 0.125, 16, 4), (512, 0.125, 128, 12),
     (64, 0.05, 7, 2), (40, 0.07, 6, 2), (30, 0.1, 7, 1), (100, 0.2, 40, 4)],
)
def test_vertical_shear_psi_matches_staircase(q, eps, i1, s1):
    # per staircase s, the generic staircase over the signed centers i*s,
    # i = 1 .. a-1: the first floor(1/(3*eps)) - 1 step down, the rest up
    v = df.VerticalStepShear(q=q, eps=eps, i1=i1, s1=s1)
    a = v.plateaus
    down = np.arange(1, a) <= (a + 1) // 2 - 1
    starts = i1 + a * np.cumsum(np.arange(s1 + 1))  # staircase s is a*s long

    def reference(x):
        frac = df.mod1(x) * q
        xi = (frac - np.floor(frac)) * q
        out = np.zeros_like(xi)
        for s in range(1, s1 + 1):
            inside = (xi >= starts[s - 1]) & (xi < starts[s])
            centers = np.arange(1, a) * float(s)
            signs = np.where(down, -1.0, 1.0)
            zeta = xi[inside] - starts[s - 1]
            out[inside] = 3.0 * eps * _staircase_profile(zeta, centers, signs, eps)
        return out

    centers = np.concatenate([starts[s - 1] + s * np.arange(a + 1) for s in range(1, s1 + 1)])
    xi = np.concatenate([centers + d for d in (-eps, 0.0, eps)])
    edges = ((np.arange(q)[:, None] + xi / q) / q).ravel()
    rng = np.random.Generator(np.random.Philox(16))
    for x in (rng.random(100_000), edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)):
        assert_same_bits(v.psi(x), reference(x))


# -- word-driven stage map --------------------------------------------------


def wm_stage_node(q=8, eps=0.125, seed=101):
    from slowtorus.words import assemble_W, sample_selection

    sel = sample_selection(s=4, k=q, n_words=q, eps=0.25, seed=seed)
    word = assemble_W(sel, q)
    return df.WordDrivenPhi(q=q, eps=eps, word=tuple(int(c) for c in word)), word


def test_word_phi_symbol_zero_blocks_fixed():
    phi, word = wm_stage_node()
    q = 8
    nblocks = 2 * q * q
    i = int(np.flatnonzero(np.asarray(word) == 0)[0])
    x = (i + 0.5) / (nblocks * q)
    p = np.array([[x, 0.41]])
    assert np.all(phi.forward(p) == p)


def test_word_phi_wrong_length_rejected():
    with pytest.raises(df.ConstructionError, match="2\\*q\\^2"):
        df.WordDrivenPhi(q=8, eps=0.125, word=(0, 1, 2))


def test_word_phi_roundtrip_and_equivariance():
    phi, _ = wm_stage_node()
    rng = np.random.Generator(np.random.Philox(15))
    pts = rng.random((3000, 2))
    back = phi.inverse(phi.forward(pts))
    assert tdist(back, pts) <= 1e-8
    shifted = pts.copy()
    shifted[:, 0] = (shifted[:, 0] + 0.125) % 1.0
    lhs = phi.forward(shifted)
    rhs = phi.forward(pts)
    rhs[:, 0] = (rhs[:, 0] + 0.125) % 1.0
    assert tdist(lhs, rhs) <= 1e-10


def test_wm_shear_plateau_translation_formula():
    # symbol-0 block, y on a shear plateau strip: pure horizontal translation
    st = stage(q=8, l=1, lp=8)
    phi, word = wm_stage_node()
    h = df.build_wm_h(st, word)
    shear = h.nodes[0]
    assert isinstance(shear, df.HorizontalStepShear)
    a, b = shear.a, shear.b
    i0 = int(np.flatnonzero(np.asarray(word) == 0)[0])
    x = (i0 + 0.5) / (2 * 8**3)
    strip = a // 2
    y = (strip + 0.5) / a
    p = np.array([[x, y]])
    out = h.forward(p)[0]
    want_x = (x + b * strip / a) % 1.0
    assert out[0] == pytest.approx(want_x, abs=1e-12)
    assert out[1] == pytest.approx(y, abs=1e-12)


def test_wm_shear_identity_low_strip():
    st = stage(q=8, l=1, lp=8)
    _, word = wm_stage_node()
    h = df.build_wm_h(st, word)
    p = np.array([[0.3, 0.05]])  # y in [0, eps]
    out = h.forward(p)
    phi_only = h.nodes[1].forward(p)
    assert tdist(out, phi_only) <= 1e-12


# -- orbits -----------------------------------------------------------------


def test_orbit_identity_stack_is_rotation():
    st = stage(q=3, l=1, lp=8, eps=Fraction(1, 8))
    sysm = df.AbCSystem(H=df.Rotation(Fraction(0)), alpha_next=Fraction(1, 3), stage=st)
    orb = df.orbit_batch(sysm, np.array([0.0, 0.0]), 4)[:, 0]
    want = np.array([[0, 0], [1 / 3, 0], [2 / 3, 0], [0, 0]])
    assert np.allclose(orb, want, atol=1e-15)


def test_orbit_periodicity(untwisted_sys2):
    orb = df.orbit_batch(untwisted_sys2, np.array([0.31, 0.47]), untwisted_sys2.q_next + 1)[:, 0]
    assert tdist(orb[-1], orb[0]) <= 1e-9


def test_orbit_matches_naive_composition(untwisted_sys2):
    x = np.array([0.23, 0.57])
    orb = df.orbit_batch(untwisted_sys2, x, 100)[:, 0]
    cur = x[None, :].copy()
    for t in range(100):
        assert tdist(cur[0], orb[t]) <= 1e-9, t
        cur = untwisted_sys2.step(cur)


def test_orbit_images_chunking_is_bitwise(untwisted_sys2, monkeypatch):
    # several time slices per forward call, with a short last chunk, give
    # the same bits as one slice per call: on 31 times below w = Q/g = 512,
    # and on 3 * 512 + 5 times, where the later ones are rotated copies
    seeds = np.array([[0.23, 0.57], [0.61, 0.08], [0.9, 0.33]])
    for n_time in (31, 3 * 512 + 5):
        monkeypatch.setattr(df, "ORBIT_CHUNK_POINTS", 7)
        chunked = df.orbit_batch(untwisted_sys2, seeds, n_time)
        monkeypatch.setattr(df, "ORBIT_CHUNK_POINTS", 1)
        assert np.array_equal(chunked, df.orbit_batch(untwisted_sys2, seeds, n_time))


def direct_orbit(sys, seeds, times, ulps=0):
    """H(mod1(u + t*alpha)) with u = H^{-1}(seeds): one forward call per
    time, t*alpha reduced mod 1 in exact arithmetic; with ``ulps``, each
    input's x moved that many ulps up."""
    u = sys.H.inverse(seeds)
    p, q = sys.alpha_next.numerator, sys.alpha_next.denominator
    out = []
    for t in times:
        pts = u.copy()
        pts[:, 0] = df.mod1(u[:, 0] + (t * p % q) / q)
        for _ in range(ulps):
            pts[:, 0] = np.nextafter(pts[:, 0], 2.0)
        out.append(sys.H.forward(pts))
    return np.stack(out)


@pytest.fixture(scope="module")
def ue_sys2():
    return build_systems("uniquely_ergodic", UNTWISTED_DESK, 2).system(2)


@pytest.mark.parametrize(
    "name, steep",
    [("untwisted_sys2", False), ("untwisted_sys3", True), ("ue_sys2", True), ("wm8", True)],
)
def test_orbit_batch_residue_path_matches_direct_evaluation(name, steep, request, wm_systems):
    # A rotated image H(u + k0/Q) + j/g rounds differently from a direct
    # H(u + k/Q).  A steep stack stretches that rounding: there the bound is
    # twice the move of the direct orbit itself when its inputs move up by
    # one ulp.  Measured, against that move: 2.1e-13 against 2.1e-13 at ue
    # stage 2, 3.9e-12 against 4.3e-12 on the untwisted stage-3 stack at
    # alpha = 37/512, 1.5e-11 against 2.6e-10 at wm q2=8; 6.1e-14 at
    # untwisted stage 2.
    sys = wm_systems[8] if name == "wm8" else request.getfixturevalue(name)
    assert sys.H.period == 8
    if sys.q_next > 4096:
        # the same steep stack under a shorter rotation, so one period of
        # it still holds eight rotated copies of every evaluated time
        sys = df.AbCSystem(H=sys.H, alpha_next=Fraction(37, 512), stage=sys.stage)
    rng = np.random.Generator(np.random.Philox(31))
    seeds = rng.random((40, 2))
    # every time of one period of alpha: t, t + q/8, ..., t + 7q/8 are
    # rotated copies of the evaluation at t < q/8
    q = sys.q_next
    got = df.orbit_batch(sys, seeds, q)
    assert got.shape == (q, 40, 2)
    times = range(q)
    want = direct_orbit(sys, seeds, times)
    tol = 2 * tdist(direct_orbit(sys, seeds, times, ulps=1), want) if steep else 1e-13
    assert tdist(got, want) <= tol


def count_forward_points(monkeypatch, cls):
    seen = []
    forward = cls.forward

    def counting(self, pts):
        seen.append(len(pts))
        return forward(self, pts)

    monkeypatch.setattr(cls, "forward", counting)
    return seen


def test_orbit_batch_evaluates_once_per_residue(untwisted_sys2, monkeypatch):
    # g = gcd(8, 4096) = 8: only the first 4096 / 8 = 512 times are evaluated
    seen = count_forward_points(monkeypatch, df.Composite)
    seeds = np.random.Generator(np.random.Philox(5)).random((100, 2))
    df.orbit_batch(untwisted_sys2, seeds, 4096)
    assert sum(seen) == 512 * 100


def test_orbit_batch_identity_stack_evaluates_once(monkeypatch):
    # period 0: every time is one residue class
    sysm = df.AbCSystem(H=df.Rotation(Fraction(0)), alpha_next=Fraction(3, 7), stage=stage(q=7))
    seen = count_forward_points(monkeypatch, df.Rotation)
    seeds = np.array([[0.1, 0.2], [0.4, 0.9], [0.75, 0.5]])
    orb = df.orbit_batch(sysm, seeds, 20)
    assert sum(seen) == 3
    want = df.mod1(seeds[None, :, 0] + np.array([(3 * t % 7) / 7 for t in range(20)])[:, None])
    assert tdist(orb[..., 0], want) <= 1e-15
    assert np.array_equal(orb[..., 1], np.broadcast_to(seeds[:, 1], (20, 3)))


def test_orbit_batch_first_times_of_classes_are_direct(untwisted_sys2):
    # the first w = Q/g = 512 times are each evaluated at their exact
    # rotation: the same bits as direct evaluation
    seeds = np.random.Generator(np.random.Philox(6)).random((30, 2))
    assert np.array_equal(df.orbit_batch(untwisted_sys2, seeds, 512),
                          direct_orbit(untwisted_sys2, seeds, range(512)))


def test_orbit_images_below_the_period_are_direct(wm_systems):
    # the word-driven stack under alpha = 37/512: w = 64, and every time
    # below w is written unrotated, as its float image and as its labels
    sys = df.AbCSystem(H=wm_systems[8].H, alpha_next=Fraction(37, 512), stage=wm_systems[8].stage)
    seeds = np.random.Generator(np.random.Philox(7)).random((50, 2))
    base = sys.H.inverse(seeds)
    want = direct_orbit(sys, seeds, range(64))
    assert np.array_equal(df.orbit_images(sys.H, base, sys.alpha_next, 64), want)

    def label(z):
        return np.floor(z[:, 0] * 8) + 8 * np.floor(z[:, 1] * 8)

    labels = df.orbit_images(sys.H, base, sys.alpha_next, 64, label=label, dtype=np.int64)
    assert np.array_equal(labels, label(want.reshape(-1, 2)).reshape(64, 50))


# -- inverse roundtrips across node kinds ------------------------------------


@pytest.mark.parametrize(
    "node",
    [
        df.Rotation(Fraction(2, 7)),
        df.QuasiRotTiled(q=4, eps=0.1),
        df.UntwistedH(q=8, eps=0.125),
        df.VerticalStepShear(q=8, eps=0.125, i1=2, s1=1),
        df.HorizontalStepShear(a=5120, b=5, eps=0.125),
        wm_stage_node()[0],
        df.Composite(
            nodes=(
                df.HorizontalStepShear(a=40, b=5, eps=0.1),
                df.VerticalStepShear(q=8, eps=0.125, i1=2, s1=1),
                df.UntwistedH(q=8, eps=0.125),
            )
        ),
    ],
    ids=lambda n: n.kind,
)
def test_inverse_roundtrip_all_kinds(node):
    rng = np.random.Generator(np.random.Philox(16))
    pts = rng.random((10000, 2))
    back = node.inverse(node.forward(pts))
    assert tdist(back, pts) <= 1e-10
    assert df.node_from_dict(node.to_dict()) == node


def test_composite_roundtrip(untwisted_sys3):
    rng = np.random.Generator(np.random.Philox(17))
    pts = rng.random((3000, 2))
    H = untwisted_sys3.H
    assert tdist(H.inverse(H.forward(pts)), pts) <= 1e-8


# -- Jacobian Monte Carlo ---------------------------------------------------


def test_jacobian_rotation_exact():
    res = df.jacobian_mc(df.Rotation(Fraction(1, 3)), 2000, 2**-16, seed=18)
    assert res["max"] < 1e-10


def test_jacobian_square_twist():
    res = df.jacobian_mc(df.QuasiRotTiled(q=1, eps=0.1), 10000, 1e-6, seed=19)
    assert res["max"] < 1e-3


def test_jacobian_fd_step_domain():
    with pytest.raises(ValueError):
        df.jacobian_mc(df.Rotation(Fraction(0)), 10, 1e-2, seed=0)


# -- serialization and description -------------------------------------------


def test_node_json_roundtrip(untwisted_sys3):
    text = df.node_to_json(untwisted_sys3.H)
    again = df.node_from_json(text)
    assert df.node_to_json(again) == text
    rng = np.random.Generator(np.random.Philox(20))
    pts = rng.random((200, 2))
    assert np.allclose(again.forward(pts), untwisted_sys3.H.forward(pts), atol=0)


def test_node_json_rational_fields():
    node = df.Rotation(Fraction(3, 8))
    d = node.to_dict()
    assert d["alpha"] == "3/8"


def test_describe_shows_layout(untwisted_sys2):
    text = untwisted_sys2.describe()
    assert "untwisted_h" in text
    assert "q=8" in text


def test_word_phi_serialization_roundtrip():
    phi, _ = wm_stage_node()
    again = df.node_from_json(df.node_to_json(phi))
    assert again == phi


def test_vertical_shear_fixes_vertical_lines():
    # the staircase shear slides each vertical line along itself
    v = df.VerticalStepShear(q=8, eps=0.125, i1=2, s1=1)
    rng = np.random.Generator(np.random.Philox(27))
    pts = rng.random((2000, 2))
    out = v.forward(pts)
    assert np.array_equal(out[:, 0], pts[:, 0])


def test_horizontal_shear_fixes_horizontal_lines():
    g = df.HorizontalStepShear(a=40, b=5, eps=0.1)
    rng = np.random.Generator(np.random.Philox(28))
    pts = rng.random((2000, 2))
    out = g.forward(pts)
    assert np.array_equal(out[:, 1], pts[:, 1])
