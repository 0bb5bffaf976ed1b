from fractions import Fraction

import pytest

import slowtorus.diffeo as df
from slowtorus.normest import dk_distance, triple_norm

IDENT = df.Rotation(Fraction(0))
ROT = df.Rotation(Fraction(1, 3))
PHI4 = df.QuasiRotTiled(q=4, eps=0.1)
PHI8 = df.QuasiRotTiled(q=8, eps=0.1)


def test_identity_norm_is_one():
    est = triple_norm(IDENT, 1, grid=31)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_rotation_norm_is_one():
    est = triple_norm(ROT, 1, grid=31)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_order_zero_only():
    est = triple_norm(ROT, 0, grid=31)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_invalid_order():
    with pytest.raises(ValueError):
        triple_norm(IDENT, 3)


def test_tiled_twist_norm_scales_linearly_in_q():
    n4 = triple_norm(PHI4, 1)
    n8 = triple_norm(PHI8, 1)
    ratio = n8.value / n4.value
    assert 1.5 <= ratio <= 2.5
    assert n4.fd_discrepancy < 0.05 * n4.value


def test_norm_at_least_one_for_measure_preserving():
    for node in (IDENT, ROT, PHI4, df.UntwistedH(q=8, eps=0.125),
                  df.VerticalStepShear(q=8, eps=0.125, i1=2, s1=1)):
        est = triple_norm(node, 1, grid=31)
        assert est.value >= 1.0 - 1e-6, node.kind


def test_dk_zero_for_equal_maps():
    assert dk_distance(PHI4, PHI4, 1) == 0.0


def test_dk_rotations_is_circle_distance():
    d = dk_distance(ROT, df.Rotation(Fraction(1, 4)), 0, grid=16)
    assert d == pytest.approx(1 / 12, abs=1e-12)
    d2 = dk_distance(df.Rotation(Fraction(9, 10)), df.Rotation(Fraction(1, 10)), 0, grid=16)
    assert d2 == pytest.approx(0.2, abs=1e-12)


def test_dk_symmetry_and_triangle():
    maps = [ROT, PHI4, df.Rotation(Fraction(1, 5))]
    d = {}
    for i, f in enumerate(maps):
        for j, g in enumerate(maps):
            d[i, j] = dk_distance(f, g, 0, grid=16)
    for i in range(3):
        for j in range(3):
            assert d[i, j] == pytest.approx(d[j, i], abs=1e-12)
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class _Conj(df.MapNode):
    """h o R_alpha o h^{-1} as an evaluable node (test helper)."""

    def __init__(self, h, alpha):
        self.h = h
        self.rot = df.Rotation(alpha)

    def forward(self, pts):
        return self.h.forward(self.rot.forward(self.h.inverse(pts)))

    def inverse(self, pts):
        return self.h.forward(self.rot.inverse(self.h.inverse(pts)))

    def smoothness_margin(self, pts):
        return self.h.smoothness_margin(pts) / 8.0  # crude but conservative


def test_conjugation_distance_linear_in_rotation_gap():
    # d_1(h R_a h^{-1}, h R_b h^{-1}) ~ C * |a - b|: the fitted constant is
    # stable under halving the gap
    h = PHI4
    base = Fraction(1, 3)

    def d1(gap):
        return dk_distance(_Conj(h, base), _Conj(h, base + gap), 1, grid=23)

    # gaps must sit below the twist's feature size (~eps/q^2) for the linear
    # regime; larger gaps saturate the derivative difference
    gaps = [Fraction(1, 8192), Fraction(1, 16384), Fraction(1, 32768)]
    cs = [d1(gap) / float(gap) for gap in gaps]
    assert max(cs) <= 1.6 * min(cs), cs


def test_cover_count_bound_from_stack_norm(untwisted_sys2):
    # greedy covers stay below 4*C^4*|H|_1^4/eps^2 with C = 4 at any horizon
    from slowtorus.complexity import BowenConfig, min_cover

    norm_h = triple_norm(untwisted_sys2.H, 1, grid=31).value
    eps = 0.125
    bound = 4 * (4.0**4) * norm_h**4 / eps**2
    for m in (1, 8, 64):
        count = min_cover(untwisted_sys2, BowenConfig(n_time=m, eps=eps, grid=20))
        assert count <= bound


def test_shear_norm_tracks_strip_multiplier():
    # first-order estimate scales like the translation multiplier b
    b1, b2 = 5, 10
    g1 = df.HorizontalStepShear(a=b1 * 2 * 8**3, b=b1, eps=0.125)
    g2 = df.HorizontalStepShear(a=b2 * 2 * 8**3, b=b2, eps=0.125)
    n1 = triple_norm(g1, 1, grid=31).value
    n2 = triple_norm(g2, 1, grid=31).value
    ratio = n2 / n1
    assert ratio <= 3.0 * (b2 / b1) and ratio >= (b2 / b1) / 3.0


def test_excluded_fraction_reported():
    est = triple_norm(df.UntwistedH(q=8, eps=0.125), 1, grid=31)
    assert 0.0 <= est.excluded_fraction < 0.5


def test_order_two_best_effort_dominates_order_one():
    # second-order estimates include the first-order sups and the twist's
    # curvature, so they can only grow
    for node in (ROT, PHI4):
        e1 = triple_norm(node, 1, grid=23)
        e2 = triple_norm(node, 2, grid=23)
        assert e2.value >= e1.value - 1e-9
