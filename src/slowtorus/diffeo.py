"""Area-preserving torus primitives and their compositions.

Every map here acts on points of the unit torus represented as float arrays
of shape (..., 2) with coordinates in [0, 1).  All primitives are built from
three mechanisms, each exactly measure-preserving by construction:

  * the square twist: a quarter turn of an inner square that fades to the
    identity through a leaf-shift along square level sets (unit Jacobian on
    every leaf),
  * shears: translations along one coordinate by a smoothed staircase
    function of the other,
  * affine retilings: equivariant rescaling of a primitive into 1/q cells.

Conjugation stages compose these into a stack H = h_1 o ... o h_n; the
dynamical map is T = H o R_alpha o H^{-1} with the rotation coordinate
advanced in exact rational arithmetic.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import typing
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .params import StageParams
from .words import word_from_text, word_to_text

Array = np.ndarray

ORBIT_CHUNK_POINTS = 8192


class ConstructionError(ValueError):
    """A primitive cannot be built; the message names the violated constraint."""


# ---------------------------------------------------------------------------
# small numeric helpers


def mod1(a: Array) -> Array:
    return a - np.floor(a)


def as_points(p) -> Array:
    """Coerce a point or array of points to shape (n, 2) float64."""
    a = np.asarray(p, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.shape[-1] != 2:
        raise ValueError("points must have a trailing dimension of 2")
    return a


def torus_dist(p: Array, q: Array) -> Array:
    """Sup metric on the torus: max of coordinatewise circle distances."""
    d = np.abs(p - q)
    d = np.minimum(d, 1.0 - d)
    return np.maximum(d[..., 0], d[..., 1])


def circle_diff(a: Array, b: Array) -> Array:
    """Signed representative of a - b in [-1/2, 1/2)."""
    d = a - b
    return d - np.round(d)


def smoothstep(u: Array) -> Array:
    """Quintic smoothstep: 0 below 0, 1 above 1, C^2 in between."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


def ramp(u: Array) -> Array:
    """Increasing smooth ramp: 0 for u <= -1, 1 for u >= 1."""
    return smoothstep((np.asarray(u, dtype=float) + 1.0) * 0.5)


# ---------------------------------------------------------------------------
# the square twist


@dataclass(frozen=True)
class SquareTwist:
    """Quarter-turn of [0,1]^2 that is the identity near the boundary.

    Exact counterclockwise rotation by pi/2 about (1/2, 1/2) on
    [2*eps, 1-2*eps]^2, exact identity outside [eps, 1-eps]^2.  In the
    transition annulus each square level set {sup-distance from center = rho}
    is shifted along itself by a(rho) * 2*rho (a quarter of its perimeter
    8*rho, scaled by a smooth fade a), which preserves area leaf by leaf.
    """

    eps: float

    def __post_init__(self):
        if not (0.0 < self.eps < 0.25):
            raise ConstructionError(f"twist width must be in (0, 1/4), got {self.eps}")

    @property
    def r_rotate(self) -> float:
        return 0.5 - 2.0 * self.eps

    @property
    def r_identity(self) -> float:
        return 0.5 - self.eps

    # -- leaf coordinates -------------------------------------------------

    @staticmethod
    def _arclength(u: Array, v: Array, rho: Array) -> Array:
        """Position along the square leaf, counterclockwise from (rho, 0).
        |v| <= rho, so this is np.mod(v, 8*rho) with the same bits: v is
        never -0.0, being y - 0.5."""
        right = u >= np.abs(v)
        top = v >= np.abs(u)
        left = -u >= np.abs(v)
        s_right = np.where(v < 0, v + 8.0 * rho, v)
        s_top = 2.0 * rho - u
        s_left = 4.0 * rho - v
        s_bottom = 6.0 * rho + u
        return np.where(right, s_right, np.where(top, s_top, np.where(left, s_left, s_bottom)))

    # the point at position s of the leaf rho lies on side k, the count of
    # s >= rho, 3*rho, 5*rho, 7*rho, at u = _U_RHO[k]*rho + _U_S[k]*s and
    # v = _V_RHO[k]*rho + _V_S[k]*s.  Each coefficient is 0, +-1 or an even
    # number up to 8, so each product rounds as 2.0*rho, 6.0*rho, ... do, and
    # x + (-y) is x - y: every coordinate has the bits of 2.0*rho - s,
    # s - 6.0*rho and the rest, written out per side.
    _U_RHO = np.array([1.0, 2.0, -1.0, -6.0, 1.0])
    _U_S = np.array([0.0, -1.0, 0.0, 1.0, 0.0])
    _V_RHO = np.array([0.0, 1.0, 4.0, -1.0, -8.0])
    _V_S = np.array([1.0, 0.0, -1.0, 0.0, 1.0])

    @classmethod
    def _on_square(cls, rho: Array, s: Array) -> tuple[Array, Array]:
        # s is a leaf position shifted by at most 2*rho, in [-2*rho, 10*rho],
        # so this is np.mod(s, 8*rho) with the same bits: s - 8*rho is exact
        # (Sterbenz), as s < 16*rho
        perimeter = 8.0 * rho
        s = np.where(s < 0, s + perimeter, np.where(s >= perimeter, s - perimeter, s))
        k = (s >= rho).astype(np.intp) + (s >= 3.0 * rho) + (s >= 5.0 * rho) + (s >= 7.0 * rho)
        u = cls._U_RHO[k] * rho + cls._U_S[k] * s
        v = cls._V_RHO[k] * rho + cls._V_S[k] * s
        return u, v

    def _fade(self, rho: Array) -> Array:
        return 1.0 - smoothstep((rho - self.r_rotate) / self.eps)

    # -- evaluation ---------------------------------------------------------

    def eval_xy(self, x: Array, y: Array, inverse: bool = False) -> tuple[Array, Array]:
        """The twist, or its inverse, at the points (x, y) of two float
        arrays of one shape, as two new arrays."""
        u = x - 0.5
        v = y - 0.5
        rho = np.maximum(np.abs(u), np.abs(v))
        rotate = rho <= self.r_rotate
        # clockwise (u, v) -> (v, -u) or counterclockwise (u, v) -> (-v, u)
        if inverse:
            ox, oy = np.where(rotate, y, x), np.where(rotate, 1.0 - x, y)
        else:
            ox, oy = np.where(rotate, 1.0 - y, x), np.where(rotate, x, y)
        mid = np.nonzero((rho > self.r_rotate) & (rho < self.r_identity))
        if len(mid[0]):
            um, vm, rm = u[mid], v[mid], rho[mid]
            s = self._arclength(um, vm, rm)
            shift = self._fade(rm) * 2.0 * rm
            u2, v2 = self._on_square(rm, s - shift if inverse else s + shift)
            ox[mid] = u2 + 0.5
            oy[mid] = v2 + 0.5
        return ox, oy

    def eval(self, pts: Array, inverse: bool = False) -> Array:
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, 2)
        out = np.empty_like(flat)
        out[:, 0], out[:, 1] = self.eval_xy(flat[:, 0], flat[:, 1], inverse)
        return out.reshape(pts.shape)

    def smoothness_margin(self, pts: Array) -> Array:
        """Distance to the nearest set where the map is not smooth.

        Accounts for the zone circles, the diagonals of the square (where
        the leaf coordinates kink), and the preimages of the diagonals.  A
        point whose image is d from a diagonal is at least d / lip from that
        diagonal's preimage, with lip = 7 + 1.875/eps a Lipschitz bound of
        the map: the shifted arclength s + 2*rho*fade(rho) moves at most
        5 + 1.875/eps times as fast as the point, and the image point at
        most 2 more times as fast.
        """
        pts = np.asarray(pts, dtype=float)
        img = self.eval(pts)
        out = np.full(pts.shape[:-1], np.inf)
        for z, scale in ((pts, 1.0), (img, 1.0 / (7.0 + 1.875 / self.eps))):
            u = z[..., 0] - 0.5
            v = z[..., 1] - 0.5
            rho = np.maximum(np.abs(u), np.abs(v))
            diag = np.abs(np.abs(u) - np.abs(v)) / math.sqrt(2.0)
            out = np.minimum(out, diag * scale)
            for radius in (self.r_rotate, self.r_identity):
                out = np.minimum(out, np.abs(rho - radius))
        return out


# ---------------------------------------------------------------------------
# map nodes


# every node kind, by its `kind` name: a MapNode subclass that sets `kind`
# joins when it is defined
NODE_KINDS: dict[str, type] = {}


class MapNode:
    """Immutable torus map with forward/inverse evaluation on point arrays.

    A node kind is a frozen dataclass that sets ``kind``.  Its JSON form is
    the kind plus one entry per dataclass field, written by the codec of the
    field's type (see ``_FIELD_CODECS``).
    """

    kind: str = "abstract"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "kind" in cls.__dict__:
            NODE_KINDS[cls.kind] = cls

    def apply(self, pts: Array, inverse: bool = False) -> Array:
        """The map, or its inverse, at pts: the one body a node kind writes."""
        raise NotImplementedError

    def forward(self, pts: Array) -> Array:
        return self.apply(pts, False)

    def inverse(self, pts: Array) -> Array:
        return self.apply(pts, True)

    def smoothness_margin(self, pts: Array) -> Array:
        return np.full(np.asarray(pts).shape[:-1], np.inf)

    @property
    def period(self) -> int:
        """A p such that the map commutes with R_{1/p}, the horizontal
        rotation by 1/p; 0 when it commutes with every horizontal rotation.
        The default 1 claims no symmetry."""
        return 1

    def _json_fields(self) -> dict:
        """Each dataclass field in its JSON form, in field order."""
        return {name: enc(getattr(self, name)) for name, enc, _ in _field_codecs(type(self))}

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self._json_fields()}

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        items = ", ".join(f"{k}={v}" for k, v in self._json_fields().items())
        return f"{pad}{self.kind}({items})"


@dataclass(frozen=True)
class Rotation(MapNode):
    """R_alpha(x, y) = (x + alpha, y)."""

    alpha: Fraction = Fraction(0)
    kind = "rotation"

    @property
    def period(self) -> int:
        return 0

    def apply(self, pts: Array, inverse: bool = False) -> Array:
        shift = float(self.alpha % 1)
        out = np.array(pts, dtype=float, copy=True)
        out[..., 0] = mod1(out[..., 0] + (-shift if inverse else shift))
        return out


@dataclass(frozen=True)
class _TiledTwist(MapNode):
    """A twist kind: each 1/q cell is split into blocks, each carrying the
    square twist rescaled onto the block, so the map commutes with R_{1/q}.

    A kind states its split once, in ``_blocks``, as one piece over the
    whole point array, so ``apply`` and the smoothness margin each make one
    square-twist call.  Defines no ``kind``, so it does not register.
    """

    q: int
    eps: float

    @property
    def twist(self) -> SquareTwist:
        return SquareTwist(self.eps)

    @property
    def period(self) -> int:
        return self.q

    def _blocks(self, lx: Array) -> tuple:
        """The piece (sel, X, back, stretch) of the cell coordinate lx in
        [0, 1): ``lx[sel]`` are the twisted points, X their coordinate in
        their block's twist, in [0, 1], ``back`` maps the twist's x back to
        lx, and ``stretch`` is dX/dx on the torus (a scalar, or one value per
        selected point).  Points outside ``sel`` are fixed."""
        raise NotImplementedError

    def _seams(self, lx: Array):
        """Torus distance from each lx to the nearest inner block edge."""
        return np.inf

    def _cell(self, pts: Array) -> tuple[Array, Array, Array]:
        """(cell index, cell coordinate lx in [0, 1), y) of each point."""
        x = mod1(np.asarray(pts[..., 0], dtype=float))
        scaled = x * self.q
        cell = np.minimum(np.floor(scaled), self.q - 1)  # x*q may round to q
        return cell, scaled - cell, np.asarray(pts[..., 1], dtype=float)

    def apply(self, pts: Array, inverse: bool = False) -> Array:
        # on (n, 2) rows, so that a single (2,) point has a block to select
        pts = np.asarray(pts)
        cell, lx, y = self._cell(pts.reshape(-1, 2))
        sel, X, back, _ = self._blocks(lx)
        rx, ry = self.twist.eval_xy(X, y[sel], inverse)
        if sel is ...:
            bx, by = back(rx), ry
        else:  # points outside sel are fixed
            bx, by = lx.copy(), y.copy()
            bx[sel], by[sel] = back(rx), ry
        out = np.empty(lx.shape + (2,))
        out[..., 0] = mod1((cell + bx) / self.q)
        out[..., 1] = mod1(by)
        return out.reshape(pts.shape)

    def smoothness_margin(self, pts: Array) -> Array:
        # a local margin shrinks by the block's stretch
        _, lx, y = self._cell(pts)
        sel, X, _, stretch = self._blocks(lx)
        out = np.full(lx.shape, np.inf)
        out[sel] = self.twist.smoothness_margin(np.stack([X, y[sel]], axis=-1)) / stretch
        return np.minimum(out, self._seams(lx))


@dataclass(frozen=True)
class QuasiRotTiled(_TiledTwist):
    """The square twist rescaled horizontally into q cells, equivariantly."""

    kind = "quasi_rot_tiled"

    def __post_init__(self):
        if self.q < 1:
            raise ConstructionError("q must be >= 1")
        SquareTwist(self.eps)  # validates eps

    def _blocks(self, lx: Array) -> tuple:
        return ..., lx, lambda r: r, self.q


@dataclass(frozen=True)
class UntwistedH(_TiledTwist):
    """Two consecutive block twists per 1/q cell.

    On each cell, a wide block of width 1/q - 1/q^2 and a narrow block of
    width 1/q^2 each carry a twist rescaled to the block, so the cell maps
    onto itself and the map commutes with R_{1/q}.
    """

    kind = "untwisted_h"

    def __post_init__(self):
        if self.q < 4:
            raise ConstructionError("untwisted stage needs q >= 4 (two-block split)")
        SquareTwist(self.eps)

    def _blocks(self, lx: Array) -> tuple:
        q = self.q
        w = 1.0 - 1.0 / q  # wide-block fraction of the cell
        scale = q / (q - 1.0)
        big = lx < w
        return (
            ...,
            np.where(big, lx * scale, (lx - w) * q),
            lambda r: np.where(big, r / scale, w + r / q),
            np.where(big, q * scale, q * q),
        )

    def _seams(self, lx: Array):
        return np.abs(lx - (1.0 - 1.0 / self.q)) / self.q

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        q = self.q
        w = 1.0 / q - 1.0 / (q * q)
        return (
            f"{pad}untwisted_h(q={q}, eps={self.eps}): per 1/{q} cell, "
            f"wide twist on [0, {w:.6g}] and narrow twist on [{w:.6g}, {1.0 / q:.6g}]"
        )


def _ramps(z: Array, first, spacing, n: int, width: float) -> tuple[Array, Array, Array]:
    """n unit ramps of half-width ``width`` centred at first, first +
    spacing, ... (spacing > 2*width), in closed form: the ramps completed at
    each z (exact for an integer spacing), the mask of z inside a ramp, and
    that ramp's value in [0, 1]."""
    done = np.clip(np.floor((z - width - first) / spacing) + 1, 0, n)
    c = first + np.minimum(done, n - 1) * spacing
    active = (np.abs(z - c) < width) & (done < n)
    return done, active, ramp((z - c) / width)


class _StepShear(MapNode):
    """A shear: slides coordinate ``axis`` by ``offset`` of the other one, a
    smoothed staircase that a kind defines through ``_ramps``.  Defines no
    ``kind``, so it does not register."""

    axis = 0

    def apply(self, pts: Array, inverse: bool = False) -> Array:
        out = np.array(pts, dtype=float, copy=True)
        d = self.offset(out[..., 1 - self.axis])
        out[..., self.axis] = mod1(out[..., self.axis] + (-d if inverse else d))
        return out


@dataclass(frozen=True)
class VerticalStepShear(_StepShear):
    """(x, y) -> (x, y + psi(x)) with psi a smoothed up-down staircase.

    psi has period 1/q.  Within a period, rescaled by q^2, it descends in
    steps of height 3*eps on plateaus of length s for s = 1..s1 consecutive
    staircases, and is zero outside; i1 positions the first staircase.  The
    plateau count per staircase is a = 2*floor(1/(3*eps)) - 1 and the ramps
    between plateaus have half-width eps.  The layout is stated once, in
    ``plateaus``, ``staircases`` and ``_room``.
    """

    q: int
    eps: float
    i1: int
    s1: int
    kind = "vertical_step_shear"
    axis = 1

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0 / 3.0):
            raise ConstructionError("step shear needs eps in (0, 1/3)")
        if self.s1 < 1:
            raise ConstructionError("s1 must be >= 1")
        lo, hi = self._room(self.q, self.eps)
        if self.i1 < lo:
            raise ConstructionError(
                f"placement violates i1 >= ceil(2*eps*q) = {lo} (got i1={self.i1})"
            )
        end = self.staircases[-1][2]
        if end > hi:
            raise ConstructionError(
                f"placement violates i1 + a*s1*(s1+1)/2 <= q - ceil(2*eps*q) "
                f"= {hi} (got {end} at q={self.q}, eps={self.eps})"
            )

    @staticmethod
    def _room(q: int, eps: float) -> tuple[int, int]:
        # the staircases lie within [ceil(2*eps*q), q - ceil(2*eps*q)]
        lo = math.ceil(2.0 * eps * q)
        return lo, q - lo

    @classmethod
    def widest(cls, q: int, eps: float) -> Optional[VerticalStepShear]:
        """The shear from the lowest i1 with the most staircases that fit, or
        None when not even one staircase fits (or eps is out of range)."""
        i1, shear = cls._room(q, eps)[0], None
        try:
            for s1 in itertools.count(1):
                shear = cls(q=q, eps=eps, i1=i1, s1=s1)
        except ConstructionError:
            return shear

    @property
    def period(self) -> int:
        return self.q

    @property
    def plateaus(self) -> int:
        return 2 * math.floor(1.0 / (3.0 * self.eps)) - 1

    @property
    def staircases(self) -> list[tuple[int, int, int]]:
        """(s, start, end) of each staircase in the rescaled coordinate."""
        a, i1 = self.plateaus, self.i1
        return [(s, i1 + a * s * (s - 1) // 2, i1 + a * s * (s + 1) // 2)
                for s in range(1, self.s1 + 1)]

    def _rescaled(self, x: Array) -> Array:
        """xi = q^2 * (x mod 1/q), in [0, q)."""
        frac = mod1(np.asarray(x, dtype=float)) * self.q
        return (frac - np.floor(frac)) * self.q

    def psi(self, x: Array) -> Array:
        # a staircase's first (a-1)/2 ramps step down, the rest back up:
        # the net of the completed ones is an exact integer
        xi = self._rescaled(x)
        out = np.zeros_like(xi)
        down = (self.plateaus - 1) // 2
        for s, start, end in self.staircases:
            inside = (xi >= start) & (xi < end)
            done, active, r = _ramps(xi[inside] - start, s, s, self.plateaus - 1, self.eps)
            net = np.abs(done - down) - down
            step = net + np.where(done < down, -r, r)
            out[inside] = 3.0 * self.eps * np.where(active, step, net)
        return out

    offset = psi

    def smoothness_margin(self, pts: Array) -> Array:
        # distance to the nearest ramp edge c +- eps, c = start + i*s for
        # i = 0..a (both ends of every staircase count), divided by q^2
        xi = self._rescaled(pts[..., 0])
        out = np.full(xi.shape, np.inf)
        for s, start, _ in self.staircases:
            c = start + s * np.clip(np.round((xi - start) / s), 0, self.plateaus)
            out = np.minimum(out, np.abs(xi - (c - self.eps)))
            out = np.minimum(out, np.abs(xi - (c + self.eps)))
        return out / (self.q * self.q)

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        q2 = self.q * self.q
        spans = (f"steps of length {s} on [{lo}/{q2}, {hi}/{q2}]" for s, lo, hi in self.staircases)
        return (
            f"{pad}vertical_step_shear(q={self.q}, eps={self.eps}, {self.plateaus} plateaus "
            f"of height {3 * self.eps:.6g}): " + "; ".join(spans)
        )


@dataclass(frozen=True)
class HorizontalStepShear(_StepShear):
    """(x, y) -> (x + chi(y), y): strip i of height 1/a translates by b*i/a.

    chi is a smoothed staircase in y with a strips, plateau translation
    (b/a) * (#completed ramps).  The ramps are centered at a*y = j0+1, ...,
    a-j0, where j0 is the least multiple of a/b that is at least a*eps.
    Every a/b ramps add a whole turn and a - 2*j0 is a multiple of a/b, so
    the net translation near y in {0, 1} vanishes mod 1 and the map is the
    identity there.  Commutes with every horizontal rotation.
    """

    a: int
    b: int
    eps: float
    kind = "horizontal_step_shear"

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ConstructionError("shear needs a, b >= 1")
        if self.a % self.b != 0:
            raise ConstructionError("a must be a multiple of b (a = b * strips)")
        if not (0.0 < self.eps < 0.5):
            raise ConstructionError("shear smoothing width must be in (0, 1/2)")
        if 1.0 / (self.a / self.b) < 1e-12:
            raise ConstructionError("strip width below numeric resolution (< 1e-12)")
        if self.j0 * 2 >= self.a:
            raise ConstructionError(
                "identity collar consumes the whole strip range "
                f"(j0={self.j0}, a={self.a}): eps too large for this a, b"
            )

    @property
    def period(self) -> int:
        return 0

    @property
    def j0(self) -> int:
        # a/b strips make a whole turn; the collar is a whole number of turns
        turn = self.a // self.b
        return turn * math.ceil(self.a * self.eps / turn)

    def chi(self, y: Array) -> Array:
        """The staircase of unit ramps centered at the integers j0+1 ... a-j0."""
        z = mod1(np.asarray(y, dtype=float)) * self.a
        done, active, r = _ramps(z, self.j0 + 1, 1, self.a - 2 * self.j0, self.eps)
        return (self.b / self.a) * np.where(active, done + r, done)

    offset = chi

    def smoothness_margin(self, pts: Array) -> Array:
        y = mod1(np.asarray(pts[..., 1], dtype=float))
        z = y * self.a
        near = np.round(z)
        return (np.abs(np.abs(z - near) - self.eps)) / self.a


@dataclass(frozen=True)
class WordDrivenPhi(_TiledTwist):
    """Blockwise twists on [0, 1/q) driven by a symbol word of length 2*q^2.

    Block i (width 1/(2*q^3)) carries the identity for symbol 0 and a tiled
    twist with stretch 2*q^(j+2) for symbol j >= 1, capped at
    2*q^3*cap_tiles so narrow cells stay resolvable; extended
    1/q-equivariantly.
    """

    word: tuple[int, ...]
    cap_tiles: int = 64
    kind = "word_driven_phi"

    def __post_init__(self):
        if len(self.word) != 2 * self.q * self.q:
            raise ConstructionError(
                f"word length must be 2*q^2 = {2 * self.q * self.q}, got {len(self.word)}"
            )
        if min(self.word) < 0:
            raise ConstructionError("symbols must be non-negative")
        SquareTwist(self.eps)
        if self.cap_tiles < 1:
            raise ConstructionError("cap_tiles must be >= 1")
        worst = 2 * self.q**3 * self.tiles_for(max(self.word))  # 0: all identity
        if worst > 1e12:
            raise ConstructionError("block width below numeric resolution (< 1e-12)")

    def tiles_for(self, symbol: int) -> int:
        if symbol == 0:
            return 0
        return min(self.q ** (symbol - 1), self.cap_tiles)

    def _split(self, lx: Array) -> tuple[int, Array, Array]:
        """(block count, block index, coordinate within the block) of lx."""
        nblocks = 2 * self.q * self.q
        scaled = lx * nblocks
        block = np.minimum(np.floor(scaled), nblocks - 1).astype(np.int64)
        return nblocks, block, scaled - block

    @functools.cached_property
    def _block_tiles(self) -> Array:  # tiles_for of each block's symbol
        symbols, block_symbol = np.unique(self.word, return_inverse=True)
        return np.array([self.tiles_for(int(s)) for s in symbols], dtype=np.int64)[block_symbol]

    def _blocks(self, lx: Array) -> tuple:
        # a block of symbol j holds tiles_for(j) twists side by side
        nblocks, block, inner = self._split(lx)
        tiles = self._block_tiles[block]
        sel = tiles > 0
        block, tiles = block[sel], tiles[sel]
        z = inner[sel] * tiles
        tile = np.minimum(np.floor(z), tiles - 1)

        def back(r):
            return (block + (tile + r) / tiles) / nblocks

        return sel, z - tile, back, self.q * nblocks * tiles

    def _seams(self, lx: Array):
        nblocks, _, inner = self._split(lx)
        return np.minimum(inner, 1.0 - inner) / (self.q * nblocks)

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        counts = {}
        for s in self.word:
            counts[s] = counts.get(s, 0) + 1
        hist = ", ".join(f"{s}:{c}" for s, c in sorted(counts.items()))
        return (
            f"{pad}word_driven_phi(q={self.q}, eps={self.eps}, "
            f"blocks={len(self.word)}, symbol counts {{{hist}}}, cap_tiles={self.cap_tiles})"
        )


@dataclass(frozen=True)
class Composite(MapNode):
    """Composition in map order: Composite([f, g]) evaluates f(g(x))."""

    nodes: tuple[MapNode, ...]
    kind = "composite"

    @property
    def period(self) -> int:
        return functools.reduce(math.gcd, (node.period for node in self.nodes), 0)

    def apply(self, pts: Array, inverse: bool = False) -> Array:
        # through the children's forward/inverse, so a kind that writes
        # those instead of apply still composes
        out = np.asarray(pts, dtype=float)
        for node in self.nodes if inverse else reversed(self.nodes):
            out = node.inverse(out) if inverse else node.forward(out)
        return out

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        lines = [f"{pad}composite of {len(self.nodes)} maps (leftmost applied last):"]
        for node in self.nodes:
            lines.append(node.describe(indent + 2))
        return "\n".join(lines)


# (encode, decode) between a node field's value and its JSON form, by the
# field's annotated type
_FIELD_CODECS: dict = {
    int: (int, int),
    float: (float, float),
    Fraction: (lambda fr: f"{fr.numerator}/{fr.denominator}", Fraction),
    tuple[int, ...]: (word_to_text, word_from_text),
    tuple[MapNode, ...]: (
        lambda nodes: [n.to_dict() for n in nodes],
        lambda dicts: tuple(node_from_dict(d) for d in dicts),
    ),
}


@functools.cache
def _field_codecs(cls: type) -> tuple[tuple[str, Callable, Callable], ...]:
    """(name, encode, decode) for each dataclass field of a node kind."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        if hints[f.name] not in _FIELD_CODECS:
            raise TypeError(f"{cls.kind}.{f.name}: no JSON codec for type {hints[f.name]}")
        out.append((f.name, *_FIELD_CODECS[hints[f.name]]))
    return tuple(out)


def node_from_dict(d: dict) -> MapNode:
    """Inverse of ``MapNode.to_dict``; a missing field takes its default."""
    cls = NODE_KINDS.get(d.get("kind"))
    if cls is None:
        raise ValueError(f"unknown node kind {d.get('kind')!r}")
    return cls(**{name: dec(d[name]) for name, _, dec in _field_codecs(cls) if name in d})


def node_to_json(node: MapNode) -> str:
    return json.dumps(node.to_dict(), indent=2, sort_keys=True) + "\n"


def node_from_json(text: str) -> MapNode:
    return node_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# stage constructors


def build_untwisted_h(stage: StageParams) -> MapNode:
    """The two-block twist for one stage of the untwisted construction."""
    return UntwistedH(q=stage.q, eps=float(stage.eps))


def build_ue_h(stage: StageParams) -> MapNode:
    """The widest vertical staircase shear followed by the tiled twist; the
    identity when no staircase fits in the stage's 1/q cell."""
    twist = QuasiRotTiled(q=stage.q, eps=float(stage.eps))  # validates eps
    shear = VerticalStepShear.widest(stage.q, float(stage.eps))
    return Composite(nodes=(twist, shear)) if shear else Rotation(Fraction(0))


def build_wm_h(
    stage: StageParams,
    word: Sequence[int],
    sigma: Optional[float] = None,
    cap_tiles: int = 64,
) -> MapNode:
    """Word-driven blockwise twists followed by the horizontal strip shear."""
    n, q = stage.n, stage.q
    if sigma is None:
        sigma = 1.0 / n
    b = int(math.floor(n * q**sigma))
    if b < 1:
        raise ConstructionError("strip count multiplier floor(n*q^sigma) must be >= 1")
    a = b * 2 * q**3
    phi = WordDrivenPhi(q=q, eps=float(stage.eps), word=tuple(word), cap_tiles=cap_tiles)
    shear = HorizontalStepShear(a=a, b=b, eps=float(stage.eps))
    return Composite(nodes=(shear, phi))


# ---------------------------------------------------------------------------
# assembled systems and orbits


@dataclass(frozen=True)
class AbCSystem:
    """H o R_alpha o H^{-1} with the rotation advanced exactly."""

    H: MapNode
    alpha_next: Fraction
    stage: StageParams

    @property
    def q_next(self) -> int:
        return self.alpha_next.denominator

    def step(self, pts: Array, inverse: bool = False) -> Array:
        """One application of T (or T^{-1})."""
        return self.H.forward(Rotation(self.alpha_next).apply(self.H.inverse(pts), inverse))

    def describe(self) -> str:
        st = self.stage
        lines = [
            f"stage n={st.n}: q={st.q}, alpha={st.alpha}, eps={st.eps}, "
            f"next rotation {self.alpha_next} (q_next={self.q_next})",
            self.H.describe(2),
        ]
        return "\n".join(lines)


def orbit_batch(sys: AbCSystem, seeds: Array, n_time: int) -> Array:
    """Orbit positions for many seeds at times 0..n_time-1: returns
    (n_time, n_seeds, 2)."""
    seeds = as_points(seeds)
    return orbit_images(sys.H, sys.H.inverse(seeds), sys.alpha_next, n_time)


def orbit_period(H: MapNode, alpha: Fraction, period: int = 0) -> int:
    """w = Q/g for alpha = p/Q and g = gcd(H.period, period, Q).  H commutes
    with R_{1/g}, so the orbit under H R_alpha H^{-1} at time t + j*w is the
    orbit at time t rotated horizontally by (j*p mod g)/g.  ``period`` is a
    further symmetry the rotation must keep, such as a partition's cells
    (0, the default, adds none)."""
    Q = alpha.denominator
    return Q // math.gcd(H.period, period, Q)


def orbit_images(
    H: MapNode,
    base: Array,
    alpha: Fraction,
    n_time: int,
    label: Optional[Callable] = None,
    dtype=float,
) -> Array:
    """H(base + (t*alpha, 0)) for 0 <= t < n_time: the orbit of H(base) under
    H R_alpha H^{-1} without the inverse pull-back (base points are given in
    pre-conjugation coordinates), as (n_time, n, 2).  The float orbit is a
    view of a point-major (n, n_time, 2) buffer, so each point's orbit is
    contiguous for the greedy's gathers of its later distance chunks
    (complexity._ball).

    H commutes with R_{1/g} for g = gcd(H.period, Q), alpha = p/Q.  With
    w = Q/g (orbit_period), times t and t + j*w differ in rotation by
    j*w*p/Q, which is (j*p mod g)/g mod 1, so H(u + (t + j*w)*alpha) =
    H(u + t*alpha) + ((j*p mod g)/g, 0).  A rotation by a multiple of 1/g is
    an isometry of the sup metric, so a Bowen distance or (for a partition
    whose cells it permutes) a label mismatch at t + j*w equals the one at t:
    the complexity counts read only the first min(n_time, w) times (see
    complexity).  H.forward therefore runs only at t < min(n_time, w),
    at the exact rotation (t*p mod Q)/Q, on about ORBIT_CHUNK_POINTS points
    per call, and each image is written at t, t + w, t + 2w, ... rotated by
    (j*p mod g)/g.  Times below w get the bits of a direct evaluation; the
    later ones round differently, by about an ulp of input times the stack's
    stretch.  With ``label``, a per-point map from (m, 2) points to m
    values, the images are labelled as they are written, into a time-major
    (n_time, n) array of ``dtype``, so the float orbit is never held.
    """
    base = as_points(base)
    n = base.shape[0]
    p, Q = alpha.numerator, alpha.denominator
    w = orbit_period(H, alpha)
    g = Q // w
    if label is None:
        out = np.empty((n, n_time, 2), dtype=dtype).transpose(1, 0, 2)
    else:
        out = np.empty((n_time, n), dtype=dtype)
    step = max(1, ORBIT_CHUNK_POINTS // max(n, 1))
    for t0 in range(0, min(n_time, w), step):
        ts = range(t0, min(t0 + step, n_time, w))
        pts = np.repeat(base[None], len(ts), axis=0)
        pts[..., 0] = mod1(base[:, 0] + np.array([t * p % Q / Q for t in ts])[:, None])
        img = H.forward(pts.reshape(-1, 2)).reshape(len(ts), n, 2)
        for j, s in enumerate(range(t0, n_time, w)):
            moved = img[: n_time - s]
            if j * p % g:  # the stack's x is already in [0, 1): no copy unrotated
                moved = np.stack([mod1(moved[..., 0] + j * p % g / g), moved[..., 1]], axis=-1)
            m = len(moved)
            out[s : s + m] = moved if label is None else label(moved.reshape(-1, 2)).reshape(m, n)
    return out


# ---------------------------------------------------------------------------
# measure checks


def stencil_offsets(h: float, order: int) -> Array:
    """Offsets, centre first, of the central-difference stencil at step h for
    partials up to `order` (0, 1 or 2): the axis points, then the diagonal
    points of the mixed partial."""
    axis = [[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]]
    return np.array((axis[:1], axis, axis + [[h, h], [h, -h], [-h, h], [-h, -h]])[order])


def _leaves(node: MapNode) -> list[MapNode]:
    """The stack's leaf nodes in map order (the first one is applied last)."""
    if isinstance(node, Composite):
        return [leaf for sub in node.nodes for leaf in _leaves(sub)]
    return [node]


def stencil(
    node: MapNode, pts: Array, offsets: Array, inverse: bool = False
) -> tuple[Array, Array]:
    """The map, or its inverse, at pts + offset for each offset, as an array
    of shape (offsets, points, 2), and the mask of points whose stencil
    stays clear of every leaf's non-smooth set.

    The stack's leaves are walked in application order, each in its own
    input coordinates: before ``leaf.forward``, or after ``leaf.inverse``
    when inverting.  A point is kept only if at every leaf the centre's
    ``smoothness_margin`` exceeds twice the stencil's spread there, the
    largest torus distance from a stencil point to the centre.
    """
    # one array per offset: leaves run faster on these than on their stack
    cur = [np.asarray(pts, dtype=float) + off for off in offsets]
    keep = np.ones(len(cur[0]), dtype=bool)
    leaves = _leaves(node)
    for leaf in leaves if inverse else reversed(leaves):
        if inverse:
            cur = [leaf.inverse(c) for c in cur]
        d = np.abs(circle_diff(np.stack(cur), cur[0]))
        spread = np.maximum(d[..., 0], d[..., 1]).max(axis=0)
        keep &= leaf.smoothness_margin(cur[0]) > 2.0 * spread
        if not inverse:
            cur = [leaf.forward(c) for c in cur]
    return np.stack(cur), keep


def central_partials(vals: Array, h: float) -> list[Array]:
    """Partials from a stencil's values at step h, differences unwrapped on
    the circle: d/dx and d/dy of coordinate 0, then of coordinate 1; and,
    when the stencil has the diagonal points, d2/dx2, d2/dy2 and d2/dxdy of
    coordinate 0, then of coordinate 1."""
    coords = (vals[..., 0], vals[..., 1])
    out = []
    for f in coords:
        out += [circle_diff(f[1], f[2]) / (2 * h), circle_diff(f[3], f[4]) / (2 * h)]
    if len(vals) == 9:
        for f in coords:
            out += [
                (circle_diff(f[1], f[0]) + circle_diff(f[2], f[0])) / (h * h),
                (circle_diff(f[3], f[0]) + circle_diff(f[4], f[0])) / (h * h),
                (circle_diff(f[5], f[6]) - circle_diff(f[7], f[8])) / (4 * h * h),
            ]
    return out


def jacobian_mc(
    node: MapNode,
    samples: int,
    fd_step: float,
    seed: int = 0,
) -> dict:
    """Monte-Carlo check of |det Df - 1| by central differences.

    Uniform sample points; points whose difference stencil comes near a
    leaf's non-smooth set are excluded (see `stencil`; their count is
    reported).  Coordinate differences are unwrapped on the circle before
    differencing.
    """
    if not (1e-8 <= fd_step <= 1e-4):
        raise ValueError("fd_step must lie in [1e-8, 1e-4]")
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.random((samples, 2))
    vals, keep = stencil(node, pts, stencil_offsets(fd_step, 1))
    dx0, dy0, dx1, dy1 = central_partials(vals[:, keep], fd_step)
    err = np.abs(dx0 * dy1 - dy0 * dx1 - 1.0)
    return {
        "mean": float(np.mean(err)) if err.size else 0.0,
        "max": float(np.max(err)) if err.size else 0.0,
        "n_used": int(err.size),
        "n_excluded": int(samples - err.size),
    }
