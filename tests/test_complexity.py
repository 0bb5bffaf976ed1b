import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import slowtorus.complexity as cx
import slowtorus.diffeo as df
from slowtorus.params import StageParams
from slowtorus.scaling import ScalingFamily


def rotation_system(alpha=Fraction(1, 4), q=4):
    st = StageParams(
        n=1, p=1, q=q, k=1, l=1, l_prime=4,
        alpha=Fraction(1, q), eps=Fraction(1, 8), m_smooth=0,
    )
    return df.AbCSystem(H=df.Rotation(Fraction(0)), alpha_next=alpha, stage=st)


IDENT_SYS = rotation_system(alpha=Fraction(0))
ROT_SYS = rotation_system(alpha=Fraction(1, 4))


# -- Bowen distance ----------------------------------------------------------


def bowen_dist(sys, x, y, n_time):
    """max over 0 <= i < n_time of the torus sup-distance of the orbits."""
    orb = df.orbit_batch(sys, np.stack([x, y]), cx.fold_times(sys, n_time))
    return float(np.max(df.torus_dist(orb[:, 0], orb[:, 1])))


def test_bowen_identity_is_static_distance():
    x, y = np.array([0.1, 0.2]), np.array([0.4, 0.9])
    d0 = float(df.torus_dist(x, y))
    for m in (1, 5, 50):
        assert bowen_dist(IDENT_SYS, x, y, m) == pytest.approx(d0, abs=1e-15)


def test_bowen_rotation_is_isometry():
    x, y = np.array([0.15, 0.33]), np.array([0.58, 0.41])
    d0 = float(df.torus_dist(x, y))
    for m in (1, 10, 100):
        assert bowen_dist(ROT_SYS, x, y, m) == pytest.approx(d0, abs=1e-12)


def test_bowen_monotone_in_horizon(untwisted_sys2):
    x, y = np.array([0.12, 0.37]), np.array([0.13, 0.37])
    vals = [bowen_dist(untwisted_sys2, x, y, m) for m in (1, 4, 16, 64, 256)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_bowen_jump_at_separation_time(untwisted_sys2):
    # two witness points straddling a rotation-kernel boundary reach a gap
    # of at least 1/4 within the stage horizon
    pts = cx.witness_set(8, 0.125, 0.125)
    p1, p2 = pts[0], pts[1]
    d = bowen_dist(untwisted_sys2, p1, p2, untwisted_sys2.q_next)
    assert d >= 0.25


# -- greedy packing/cover ----------------------------------------------------


def test_separated_rotation_grid_count():
    cfg = cx.BowenConfig(n_time=10, eps=0.3, grid=16)
    res = cx.max_separated(ROT_SYS, cfg)
    assert res.count == 9  # 3 x 3 packing of radius-0.3 sup balls
    assert res.witnesses.shape == (9, 2)


def test_separated_everything_within_half():
    cfg = cx.BowenConfig(n_time=5, eps=0.51, grid=8)
    assert cx.max_separated(ROT_SYS, cfg).count == 1


def test_cover_identity_coarse():
    cfg = cx.BowenConfig(n_time=1, eps=0.26, grid=16)
    assert cx.min_cover(IDENT_SYS, cfg) <= 16


def test_cover_rotation_independent_of_horizon():
    counts = {
        m: cx.min_cover(ROT_SYS, cx.BowenConfig(n_time=m, eps=0.3, grid=16))
        for m in (1, 10, 100)
    }
    assert counts[1] == counts[10] == counts[100]


def test_counts_monotone_in_horizon(untwisted_sys2):
    seps, covs = [], []
    for m in (1, 8, 64):
        cfg = cx.BowenConfig(n_time=m, eps=0.125, grid=20)
        seps.append(cx.max_separated(untwisted_sys2, cfg).count)
        covs.append(cx.min_cover(untwisted_sys2, cfg))
    assert all(b >= a for a, b in zip(seps, seps[1:]))
    assert all(b >= a for a, b in zip(covs, covs[1:]))


def test_packing_cover_chain(untwisted_sys2):
    # S(2e) <= N(e) <= S(e) on the same grid and horizon
    for m in (8, 64):
        s2 = cx.max_separated(
            untwisted_sys2, cx.BowenConfig(n_time=m, eps=0.25, grid=20)
        ).count
        n1 = cx.min_cover(untwisted_sys2, cx.BowenConfig(n_time=m, eps=0.125, grid=20))
        s1 = cx.max_separated(
            untwisted_sys2, cx.BowenConfig(n_time=m, eps=0.125, grid=20)
        ).count
        assert s2 <= n1 <= s1


def test_grid_must_resolve_radius():
    with pytest.raises(cx.GridError):
        cx.BowenConfig(n_time=1, eps=0.1, grid=16)


def test_explicit_candidate_list():
    pts = np.array([[0.1, 0.1], [0.2, 0.1], [0.6, 0.1], [0.6, 0.7]])
    kept = cx.greedy_centers(cx.orbit_array(ROT_SYS, pts, range(cx.fold_times(ROT_SYS, 3))), 0.2)
    # (0.1,0.1) excludes (0.2,0.1); the other two stay
    assert len(kept) == 3
    assert np.array_equal(pts[kept][0], pts[0])


@pytest.mark.parametrize("times", [[0, 1, 2], range(1, 4), range(0, 8, 2), 3])
def test_orbit_array_takes_only_consecutive_times(times):
    pts = np.array([[0.1, 0.1], [0.6, 0.7]])
    with pytest.raises(ValueError, match="range"):
        cx.orbit_array(ROT_SYS, pts, times)
    assert cx.orbit_array(ROT_SYS, pts, range(3)).shape == (3, 2, 2)


# -- witness sets ------------------------------------------------------------


def test_witness_count_formula():
    pts = cx.witness_set(8, 0.125, 0.125)
    assert len(pts) == (8 // 2) * (int(1 / (4 * 0.125)) + 1) == 12


def test_witness_untwisted_desk(untwisted_sys2):
    rep = cx.witness_untwisted(untwisted_sys2, eps=0.125)
    assert rep.count == rep.expected_count == 12
    assert rep.all_separated
    assert rep.min_pair_separation >= 0.125
    assert not rep.partial
    assert rep == reference_witness(untwisted_sys2, 0.125)


def test_witness_partial_flag(untwisted_sys3):
    rep = cx.witness_untwisted(untwisted_sys3, eps=0.125, max_horizon=256)
    assert rep.partial
    assert rep.horizon == 256
    assert rep == reference_witness(untwisted_sys3, 0.125, 256)


@pytest.mark.parametrize(
    "eps, max_horizon, n_failures, min_sep",
    [(0.3, None, 0, 0.421875), (0.25, 64, 7, 0.1913799867614685)],
)
def test_witness_matches_full_distances(untwisted_sys2, eps, max_horizon, n_failures, min_sep):
    # with no failure, the minimum lies above eps and must still be exact;
    # with failures, every pair closer than eps must be listed, in (i, j) order
    rep = cx.witness_untwisted(untwisted_sys2, eps=eps, max_horizon=max_horizon)
    assert len(rep.failures) == n_failures
    assert rep.min_pair_separation == min_sep
    assert rep == reference_witness(untwisted_sys2, eps, max_horizon)


def test_witness_untwisted_deep(untwisted_sys3):
    # the first 512 of the 6144 stage-3 witnesses over 4096 of the 2^24 times
    rep = cx.witness_untwisted(untwisted_sys3, eps=0.125, max_horizon=4096)
    assert (rep.count, rep.expected_count, rep.horizon, rep.partial) == (512, 6144, 4096, True)
    assert len(rep.failures) == 8274
    assert rep.failures[0] == (0, 4, 0.018505308125158937)
    assert rep.min_pair_separation == 0.0022098584798526666


def test_witness_levels_separate_without_dynamics():
    # distinct levels differ by at least eps in y at time zero
    pts = cx.witness_set(8, 0.125, 0.125)
    ys = sorted(set(round(float(p[1]), 12) for p in pts))
    assert all(b - a >= 0.125 - 1e-12 for a, b in zip(ys, ys[1:]))


# -- coded orbits ------------------------------------------------------------


def code_orbit(sys, part, x, n_time):
    """Cell labels along the orbit of x."""
    return cx.code_orbits(sys, part, x, n_time)[0]


def test_code_orbit_identity_constant():
    part = cx.GridPartition(4, 4)
    w = code_orbit(IDENT_SYS, part, np.array([0.3, 0.7]), 20)
    assert len(set(w.tolist())) == 1


def test_code_orbit_rotation_cycles():
    part = cx.GridPartition(4, 1)
    w = code_orbit(ROT_SYS, part, np.array([0.0, 0.0]), 4)
    assert w.tolist() == [0, 1, 2, 3]


def test_code_orbits_match_direct_labels_on_readme_samples(untwisted_sys2):
    # the README run's Hamming sample (seed 7, 2000 points, 8 x 8 cells) over
    # all 4096 times: every label of the residue path equals the label of a
    # direct evaluation H(u + t*alpha), though later times of a residue
    # class are rotated images
    part = cx.GridPartition(8, 8)
    pts = np.random.Generator(np.random.Philox(7)).random((2000, 2))
    words = cx.code_orbits(untwisted_sys2, part, pts, 4096)
    H, alpha = untwisted_sys2.H, untwisted_sys2.alpha_next
    u = H.inverse(pts)
    for t in range(4096):
        x = u.copy()
        x[:, 0] = df.mod1(u[:, 0] + (t * alpha.numerator % alpha.denominator) / alpha.denominator)
        assert np.array_equal(words[:, t], part.labels(H.forward(x))), t


def test_hamming_identity_needs_all_cells():
    part = cx.GridPartition(2, 2)
    res = cx.hamming_cover(IDENT_SYS, part, 10, eps=0.1, sample_size=1200, seed=4)
    assert res.count == 4


def test_hamming_rotation_cyclic_words():
    part = cx.GridPartition(4, 1)
    res = cx.hamming_cover(ROT_SYS, part, 40, eps=0.3, sample_size=1000, seed=5)
    assert res.count <= 4


def test_hamming_greedy_exact_radius():
    # one mismatch in T=10 is exactly eps*T for eps=0.1: inside the open
    # ball, since the float 0.1 is slightly above 1/10 (a float mean of the
    # mismatches rounds to 0.1 and would leave the word out)
    words = np.zeros((2, 10), dtype=np.uint8)
    words[1, 3] = 1
    assert cx.hamming_greedy(words, 0.1) == (1, 2)
    assert cx.hamming_greedy(words, 0.05) == (2, 2)
    # the greedy stops once (1 - eps)*n words are covered: an outlier among
    # ten words is left out
    words = np.zeros((10, 10), dtype=np.uint8)
    words[7] = 1
    assert cx.hamming_greedy(words, 0.1) == (1, 9)
    # Fraction(0.1) has a denominator of 2**55: with T=333 a word that
    # differs everywhere lies far outside the ball, not wrapped into it
    words = np.zeros((2, 333), dtype=np.uint8)
    words[1] = 1
    assert cx.hamming_greedy(words, 0.1) == (2, 2)


def test_hamming_sample_size_floor():
    with pytest.raises(ValueError):
        cx.hamming_cover(IDENT_SYS, cx.GridPartition(2, 2), 5, 0.1, 50, seed=0)
    # 100 / (1/3) is 300.0 in floats, but 300 * Fraction(1/3) is just below 100
    with pytest.raises(ValueError):
        cx.hamming_cover(IDENT_SYS, cx.GridPartition(2, 2), 5, 1 / 3, 300, seed=0)
    cx.check_samples(301, 1 / 3)


# -- the early-drop greedy against full distances -----------------------------


def reference_greedy_centers(orbits, eps):
    """Greedy Bowen centers from full distances over every time."""
    covered = np.zeros(orbits.shape[1], dtype=bool)
    kept = []
    for c in range(orbits.shape[1]):
        if not covered[c]:
            kept.append(c)
            covered |= df.torus_dist(orbits, orbits[:, c : c + 1]).max(axis=0) < eps
    return kept


def reference_witness(sys, eps, max_horizon=None):
    """WitnessReport from the full (N, N) Bowen matrix over every orbit time
    up to the horizon, unfolded, of the first 512 witnesses."""
    horizon = sys.q_next if max_horizon is None else min(sys.q_next, max_horizon)
    base = cx.witness_set(sys.stage.q, float(sys.stage.eps), eps)
    pts = base[:512]
    n = len(pts)
    dmat = np.zeros((n, n))
    for x in df.orbit_images(sys.H, pts, sys.alpha_next, horizon):
        dmat = np.maximum(dmat, df.torus_dist(x[:, None], x[None, :]))
    pairs = [(i, j, float(dmat[i, j])) for i in range(n) for j in range(i + 1, n)]
    failures = tuple(p for p in pairs if p[2] < eps)
    return cx.WitnessReport(
        count=n,
        expected_count=len(base),
        horizon=horizon,
        eps=eps,
        all_separated=not failures,
        min_pair_separation=min((p[2] for p in pairs), default=math.inf),
        failures=failures,
        partial=horizon < sys.q_next or n < len(base),
    )


def reference_hamming_greedy(words, eps):
    """Greedy Hamming cover from full mismatch counts as Fraction distances."""
    n, T = words.shape
    eps = Fraction(eps)
    covered = np.zeros(n, dtype=bool)
    balls = 0
    for c in range(n):
        if covered.sum() >= (1 - eps) * n:
            break
        if not covered[c]:
            balls += 1
            covered |= [Fraction(int(np.count_nonzero(w != words[c])), T) < eps for w in words]
    return balls, int(covered.sum())


@hst.composite
def lattice_orbits(draw):
    """(orbits, m, eps): (T, N, 2) orbits on the 1/32 lattice, read on their
    first m times, eps = k/32.  Points share a drifting path plus a small
    offset and sparse jumps, so many Bowen distances sit at or near eps."""
    T = draw(hst.integers(min_value=1, max_value=200))
    m = draw(hst.integers(min_value=1, max_value=T))
    n = draw(hst.integers(min_value=1, max_value=10))
    k = draw(hst.integers(min_value=1, max_value=15))
    rng = np.random.default_rng(draw(hst.integers(min_value=0, max_value=2**32 - 1)))
    path = rng.integers(0, 32, size=(1, T, 2))
    offset = rng.integers(-k - 1, k + 2, size=(n, 1, 2))
    jumps = rng.integers(-k - 1, k + 2, size=(n, T, 2)) * (rng.random((n, T, 1)) < 0.02)
    buf = ((path + offset + jumps) % 32) / 32.0
    # point-major storage, as orbit_array returns it, or time-major
    orbits = buf.transpose(1, 0, 2)
    if draw(hst.booleans()):
        orbits = np.ascontiguousarray(orbits)
    return orbits, m, k / 32


def _bowen_tie_case():
    # eps = 4/32 and T = 600, read in chunks of 1, 2, 4, ..., 128 times, then
    # 256 and 89: edges 0, 1, 3, 7, 15, 31, 63, 127, 255, 511, 600.  Each
    # tie point sits at exactly eps from point 0 at one time only, so it stays
    # out of the ball: point 1 at t=0, the whole first chunk; point 3 at
    # t=6 and point 4 at t=7, the last and first times of a doubled chunk;
    # point 5 at t=254 and point 6 at t=255, either side of the first chunk
    # at the cap; point 7 at t=511, the first time past the first chunk at
    # the cap, where the width stops doubling; point 8 at t=599, the last
    # time.  Point 2 is just inside the ball
    buf = np.zeros((9, 600, 2))
    buf[1, 0, 0] = 4 / 32
    buf[2, 5, 0] = 3 / 32
    buf[3, 6, 1] = 4 / 32
    buf[4, 7, 0] = 4 / 32
    buf[5, 254, 1] = 4 / 32
    buf[6, 255, 0] = 4 / 32
    buf[7, 511, 1] = 4 / 32
    buf[8, 599, 0] = 4 / 32
    return buf.transpose(1, 0, 2), 600, 4 / 32


def test_bowen_chunks_double_up_to_the_cap():
    assert cx._chunk_bounds(600, 1, cx._TIME_CHUNK) == [0, 1, 3, 7, 15, 31, 63, 127, 255, 511, 600]
    assert cx._chunk_bounds(1, 1, cx._TIME_CHUNK) == [0, 1]
    orbits, m, eps = _bowen_tie_case()
    assert cx.greedy_centers(orbits, eps) == [0, 1, 3, 4, 5, 6, 7, 8]


@settings(max_examples=60, deadline=None)
@given(case=lattice_orbits())
@example(case=_bowen_tie_case())
def test_greedy_centers_matches_full_distances(case):
    orbits, m, eps = case
    assert cx.greedy_centers(orbits[:m], eps) == reference_greedy_centers(orbits[:m], eps)


def test_greedy_centers_matches_full_distances_on_readme_orbits(untwisted_sys2):
    # the README grid over its first 64 orbit times, where 6611 pairs sit at
    # Bowen distance exactly 1/8: each must be decided the same way by the
    # chunked greedy as by full distances
    orbits = cx.orbit_array(untwisted_sys2, cx.grid_candidates(32), range(64))
    ties = 0
    for c in range(orbits.shape[1]):
        d = df.torus_dist(orbits[:, c + 1 :], orbits[:, c : c + 1]).max(axis=0)
        ties += int(np.count_nonzero(d == 0.125))
    assert ties == 6611
    assert cx.greedy_centers(orbits, 0.125) == reference_greedy_centers(orbits, 0.125)


@hst.composite
def near_words(draw):
    """(words, eps): up to 10 words of length T < 1300 over 3 symbols, each a
    copy of an earlier word with about ceil(eps*T) positions changed, spread
    over the whole word.  The symbols are 0, 1, 2 as uint8, or 0, 256, 512 as
    uint16, which share their low byte."""
    T = draw(hst.integers(min_value=1, max_value=1300))
    n = draw(hst.integers(min_value=1, max_value=10))
    eps = draw(hst.sampled_from([1 / 16, 0.1, 1 / 8, 0.3, 1 / 3]))
    radius = math.ceil(Fraction(eps) * T)
    rng = np.random.default_rng(draw(hst.integers(min_value=0, max_value=2**32 - 1)))
    words = np.zeros((n, T), dtype=np.uint8)
    words[0] = rng.integers(0, 3, size=T)
    for i in range(1, n):
        changes = draw(hst.sampled_from([radius - 1, radius, radius + 1, T]))
        pos = rng.choice(T, size=min(max(changes, 0), T), replace=False)
        words[i] = words[draw(hst.integers(min_value=0, max_value=i - 1))]
        words[i, pos] = (words[i, pos] + rng.integers(1, 3, size=len(pos))) % 3
    if draw(hst.booleans()):
        words = words.astype(np.uint16) * 256
    return words, eps


def _hamming_tie_case():
    # T=700, eps=1/8: radius ceil(87.5) = 88.  Word 1 has exactly 88
    # mismatches with word 0, half on each side of position 512, so it opens
    # a second ball; word 2 has 87 and is covered by the first
    words = np.zeros((3, 700), dtype=np.uint8)
    words[1, 468:556] = 1
    words[2, 469:556] = 1
    return words, 1 / 8


def _hamming_stop_case():
    # seven of eight words are covered by the first ball: (1 - 1/8)*8 = 7
    # words are enough, so the far word never opens a ball
    words = np.zeros((8, 1000), dtype=np.uint8)
    words[1:7, 505:520] = 1
    words[7] = 2
    return words, 1 / 8


def _hamming_wide_alphabet_case():
    # 300 cells as uint16 words of T=1001, which is no multiple of 8, so the
    # packed mismatch mask of the second chunk (positions 512-1000) ends in
    # a padded byte.  eps=1/8: radius ceil(125.125) = 126.  Word 1 has exactly
    # 126 mismatches with word 0, up to the last position, and opens a second
    # ball; word 2 has 125 and is covered by the first; word 3 has 126 across
    # the chunk edge and opens a third: (3, 4).  A changed symbol v becomes
    # (v + 256) % 300, so v < 44 keeps its low byte
    words = np.tile(np.arange(1001, dtype=np.uint16) % 300, (4, 1))
    for i, pos in ((1, slice(875, 1001)), (2, slice(876, 1001)), (3, slice(449, 575))):
        words[i, pos] = (words[i, pos] + 256) % 300
    return words, 1 / 8


@settings(max_examples=60, deadline=None)
@given(case=near_words())
@example(case=_hamming_tie_case())
@example(case=_hamming_stop_case())
@example(case=_hamming_wide_alphabet_case())
def test_hamming_greedy_matches_full_counts(case):
    words, eps = case
    assert cx.hamming_greedy(words, eps) == reference_hamming_greedy(words, eps)


# -- the fold: one symmetry period weighed as the whole horizon ---------------


def unfold(words, T):
    """The (n, T) words a folded (n, W) array stands for: column t % W."""
    return words[:, np.arange(T) % words.shape[1]]


def _hamming_fold_tie_case():
    # W=8 columns read as T=29 times: J, r = 3, 5, so columns 0-4 weigh 4 and
    # 5-7 weigh 3.  eps=1/4: radius ceil(7.25) = 8.  Word 1 differs from
    # word 0 at columns 0 and 1, 4 + 4 = 8 mismatches, exactly the radius, and
    # opens a second ball; word 2 differs at columns 5 and 6, 3 + 3 = 6, and
    # is covered by the first.  Weighing every column 3 covers word 1 too,
    # (1, 3); weighing the one 8-column chunk by its first column, 4, leaves
    # word 2 out as well, (3, 3).  Unfolded: (2, 3)
    words = np.zeros((3, 8), dtype=np.uint8)
    words[1, 0:2] = 1
    words[2, 5:7] = 1
    return words, 1 / 4, 29


def test_hamming_greedy_needs_a_time_per_column():
    with pytest.raises(ValueError):
        cx.hamming_greedy(np.zeros((2, 8), dtype=np.uint8), 0.25, 7)
    with pytest.raises(ValueError):
        cx.hamming_greedy(np.zeros((2, 0), dtype=np.uint8), 0.25)


@hst.composite
def folded_words(draw):
    """(words, eps, T): near_words read as T >= W times, with J up to 4."""
    words, eps = draw(near_words())
    T = draw(hst.integers(min_value=words.shape[1], max_value=4 * words.shape[1] + 3))
    return words, eps, T


@settings(max_examples=40, deadline=None)
@given(case=folded_words())
@example(case=_hamming_fold_tie_case())
def test_hamming_greedy_folded_matches_unfolded_counts(case):
    words, eps, T = case
    assert cx.hamming_greedy(words, eps, T) == reference_hamming_greedy(unfold(words, T), eps)


@pytest.fixture(scope="module")
def readme_sample():
    # the README run's Hamming sample: seed 7, 2000 points
    return np.random.Generator(np.random.Philox(7)).random((2000, 2))


@pytest.mark.parametrize(
    "part, T",
    [
        # 8 x 8 cells: w = 512, J, r = 8, 0; 7, 511; 1, 188
        pytest.param(cx.GridPartition(8, 8), 4096, id="8x8-T4096"),
        pytest.param(cx.GridPartition(8, 8), 4095, id="8x8-T4095"),
        pytest.param(cx.GridPartition(8, 8), 700, id="8x8-T700"),
        # 6 x 6 cells: gcd(8, 6) = 2, w = 2048, J, r = 2, 0; 1, 952
        pytest.param(cx.GridPartition(6, 6), 4096, id="6x6-T4096"),
        pytest.param(cx.GridPartition(6, 6), 3000, id="6x6-T3000"),
    ],
)
def test_hamming_cover_folds_exactly(untwisted_sys2, readme_sample, part, T):
    # the README stage-2 words over one period, weighed, against the full
    # words over all T times
    sys = untwisted_sys2
    res = cx.hamming_cover(sys, part, T, 0.125, 2000, seed=7)
    full = cx.hamming_greedy(cx.code_orbits(sys, part, readme_sample, T), 0.125)
    assert (res.count, round(res.covered_fraction * 2000)) == full


def test_bowen_counts_fold_exactly(untwisted_sys2):
    # the README grid: w = 512, so horizons past it read the first 512 times
    sys = untwisted_sys2
    assert df.orbit_period(sys.H, sys.alpha_next) == 512
    horizons = (1, 8, 511, 512, 513, 4096)
    counts = cx.bowen_counts(sys, 32, horizons, [0.125])
    orbits = cx.orbit_array(sys, cx.grid_candidates(32), range(4096))
    for m in horizons:
        assert counts[m, 0.125] == len(cx.greedy_centers(orbits[:m], 0.125)), m


def test_bowen_counts_run_each_folded_horizon_once(monkeypatch):
    # q_next = 512 and period 8 give w = 64: horizons 64 and 128 both read
    # the first 64 times, so two radii take 3 greedy runs each, not 4
    from slowtorus.experiments import build_systems, desk_profile

    sys = build_systems("untwisted", desk_profile([(1, 2, 4), (1, 8, 8), (1, 1, 64)]), 2).system(2)
    assert df.orbit_period(sys.H, sys.alpha_next) == 64
    greedy, calls = cx.greedy_centers, []
    monkeypatch.setattr(cx, "greedy_centers", lambda o, eps: calls.append(len(o)) or greedy(o, eps))
    horizons, radii = (1, 8, 64, 128), (0.125, 0.25)
    counts = cx.bowen_counts(sys, 20, horizons, radii)
    assert calls == [1, 8, 64] * 2
    orbits = cx.orbit_array(sys, cx.grid_candidates(20), range(128))
    for m in horizons:
        for eps in radii:
            assert counts[m, eps] == len(greedy(orbits[:m], eps)), (m, eps)


def test_max_separated_and_sandwich_fold_exactly(untwisted_built):
    # stage 1 is a rotation (w = 1) and stage 2 has w = 512: at m = 700 each
    # reads min(m, w) times, against greedy counts over all 700
    sys1, sys2 = untwisted_built.system(1), untwisted_built.system(2)
    cands = cx.grid_candidates(20)
    o1, o2 = (cx.orbit_array(s, cands, range(700)) for s in (sys1, sys2))
    sep = cx.max_separated(sys2, cx.BowenConfig(n_time=700, eps=0.125, grid=20))
    assert np.array_equal(sep.witnesses, cands[cx.greedy_centers(o2, 0.125)])
    res = cx.sandwich_check(sys1, sys2, m=700, eps=0.125, grid=20)
    got = (res.n_coarse_4eps, res.n_fine_2eps, res.n_coarse_eps, res.sep_fine_eps, res.sep_coarse_2eps)
    expect = [(o1, 0.5), (o2, 0.25), (o1, 0.125), (o2, 0.125), (o1, 0.25)]
    assert got == tuple(len(cx.greedy_centers(o, e)) for o, e in expect)


def test_partition_periods():
    assert cx.GridPartition(6, 3).period == 6


def test_coded_agreement_tracks_proximity():
    # a chain satisfying the step condition keeps one-stage-apart systems
    # pointwise close over the allowed horizon; coded orbits then disagree
    # at most on the boundary collars of the partition
    from slowtorus.experiments import build_systems, desk_profile

    prof = desk_profile([(1, 2, 4), (1, 4096, 2), (1, 1, 64)])
    built = build_systems("untwisted", prof, 2)
    sys1, sys2 = built.system(1), built.system(2)
    horizon = 2 * 8  # l'_2 * q_2
    rng = np.random.Generator(np.random.Philox(6))
    pts = rng.random((400, 2))
    o1 = cx.orbit_array(sys1, pts, range(horizon))
    o2 = cx.orbit_array(sys2, pts, range(horizon))
    delta = float(np.max(df.torus_dist(o1, o2)))
    assert delta <= 3.0 / (1 * 8)  # the proximity bound for k = 1, q = 8
    m = 4
    part = cx.GridPartition(m, m)
    w1 = part.labels(o1.reshape(-1, 2)).reshape(horizon, -1)
    w2 = part.labels(o2.reshape(-1, 2)).reshape(horizon, -1)
    disagree = float(np.mean(w1 != w2))
    collar = min(1.0, 4.0 * m * delta)
    assert disagree <= collar + 0.05


# -- sandwich and report -----------------------------------------------------


def test_sandwich_identity_trivial():
    res = cx.sandwich_check(IDENT_SYS, IDENT_SYS, m=4, eps=0.125, grid=20)
    assert res.ok and res.upgrade_ok


def test_sandwich_nearby_rotations():
    a = rotation_system(Fraction(1, 4))
    b = rotation_system(Fraction(1, 4) + Fraction(1, 64))
    res = cx.sandwich_check(a, b, m=8, eps=0.125, grid=20)
    assert res.ok


def test_slow_entropy_report_threshold_flags():
    fam = ScalingFamily("pol")
    records = [
        cx.CountRecord(stage=2, q=4, horizon=16, eps=0.1, count_kind="cover", count=16),
        cx.CountRecord(stage=3, q=16, horizon=256, eps=0.1, count_kind="cover", count=256),
    ]
    rep = cx.slow_entropy_report(records, [(fam, [0.5, 1.0, 2.0])])
    # counts equal m**1: increasing ratio below t=1, decreasing above
    assert rep.trend[("pol", 0.5, "cover", 0.1)] == "increasing"
    assert rep.trend[("pol", 2.0, "cover", 0.1)] == "decreasing"
    assert rep.trend[("pol", 1.0, "cover", 0.1)] == "flat"


def test_slow_entropy_report_rotation_decreasing():
    fam = ScalingFamily("pol")
    records = []
    for stage, m in [(1, 8), (2, 64)]:
        c = cx.min_cover(ROT_SYS, cx.BowenConfig(n_time=m, eps=0.3, grid=16))
        records.append(cx.CountRecord(stage, 4, m, 0.3, "cover", c))
    rep = cx.slow_entropy_report(records, [(fam, [0.5, 1.0])])
    assert rep.trend[("pol", 0.5, "cover", 0.3)] == "decreasing"
    assert rep.trend[("pol", 1.0, "cover", 0.3)] == "decreasing"


def test_witness_counts_increase_under_int1_below_one(untwisted_built):
    # separated-set lower bounds at the stage horizons, normalized by the
    # intermediate scale: the tail rises for t < 1 (the asymptotic threshold
    # at t = 1 itself needs the idealized growth and is out of reach here)
    fam = ScalingFamily("int1", 4, 2)
    records = []
    for n in (2, 3):
        st = next(s for s in untwisted_built.chain if s.n == n)
        count = (st.q // 2) * 3  # witness cardinality at eps = 1/8
        records.append(
            cx.CountRecord(st.n, st.q, st.q_next, 0.125, "separated", count)
        )
    rep = cx.slow_entropy_report(records, [(fam, [0.5, 1.0])])
    assert rep.trend[(fam.label(), 0.5, "separated", 0.125)] == "increasing"
    assert rep.trend[(fam.label(), 1.0, "separated", 0.125)] == "increasing"


def test_report_csv_columns():
    fam = ScalingFamily("int1", 4, 2)
    records = [
        cx.CountRecord(2, 4, 16, 0.125, "cover", 10),
        cx.CountRecord(3, 16, 64, 0.125, "cover", 20),
    ]
    rep = cx.slow_entropy_report(records, [(fam, [1.0])])
    assert cx.RatioRow._fields == (
        "stage", "horizon", "eps", "count_kind", "count", "family", "t", "log_ratio"
    )
    assert len(rep.rows) == 2


def test_report_trend_follows_one_radius():
    # at each radius the ratio rises from stage 2 to stage 3; read across
    # radii at horizon 64 (400 at eps 0.1, then 40 at eps 0.2) it falls
    records = [
        cx.CountRecord(2, 4, 16, 0.1, "cover", 100),
        cx.CountRecord(2, 4, 16, 0.2, "cover", 10),
        cx.CountRecord(3, 16, 64, 0.1, "cover", 400),
        cx.CountRecord(3, 16, 64, 0.2, "cover", 40),
    ]
    rep = cx.slow_entropy_report(records, [(ScalingFamily("pol"), [0.5])])
    assert rep.trend == {
        ("pol", 0.5, "cover", 0.1): "increasing",
        ("pol", 0.5, "cover", 0.2): "increasing",
    }


def test_report_rejects_packing_violation():
    records = [
        cx.CountRecord(2, 4, 16, 0.25, "separated", 30),
        cx.CountRecord(2, 4, 16, 0.25, "cover", 10),
        cx.CountRecord(3, 4, 64, 0.25, "cover", 12),
    ]
    with pytest.raises(AssertionError, match="packing/covering"):
        cx.slow_entropy_report(records, [(ScalingFamily("pol"), [1.0])])


def test_packing_chain_property_random_rotations():
    from fractions import Fraction as F
    from hypothesis import given, settings
    from hypothesis import strategies as hst

    @settings(max_examples=15, deadline=None)
    @given(
        num=hst.integers(min_value=0, max_value=11),
        den=hst.integers(min_value=2, max_value=12),
        eps_num=hst.integers(min_value=3, max_value=7),
        m=hst.integers(min_value=1, max_value=12),
    )
    def run(num, den, eps_num, m):
        sysm = rotation_system(F(num % den, den))
        eps = eps_num / 20.0
        s2 = cx.max_separated(sysm, cx.BowenConfig(m, 2 * eps, grid=17)).count
        n1 = cx.min_cover(sysm, cx.BowenConfig(m, eps, grid=17))
        s1 = cx.max_separated(sysm, cx.BowenConfig(m, eps, grid=17)).count
        assert s2 <= n1 <= s1

    run()
