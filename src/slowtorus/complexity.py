"""Orbit-complexity estimators: Bowen packings/covers, coded-orbit Hamming
covers, witness-set separation checks and scale-normalized reports.

Conventions (fixed for reproducibility and so the packing/covering chain
S(2e) <= N(e) <= S(e) holds exactly, ties included):

  * candidates are grid midpoints scanned in row-major order;
  * a separated set keeps a candidate iff its Bowen distance to every kept
    point is >= eps;
  * a cover repeatedly opens a ball at the lowest-index uncovered candidate
    and removes candidates at Bowen distance < eps (open balls).

Bowen and Hamming covers and the witness check share one membership step,
which builds each item's distance to a center chunk by chunk and drops the
item once that partial distance reaches the radius.  The columns are cut
into a head and then fixed-width chunks (_chunks): a Bowen distance is a
running max of torus distances over a head of time 0 alone, then over
_TIME_CHUNK times at a time; a Hamming distance is a running count of
mismatches over a head of max(radius, _WORD_CHUNK) positions, then over
_WORD_CHUNK columns at a time, each chunk's count summed in the smallest
unsigned dtype that holds its width.  The drop is exact: a max over more
times and a count over more positions can only grow, and the counts are
integers, so every result equals that of full distances, whatever the
chunks, and a kept item's distance is its full distance.  The head is
also held time-major, a copy of every item's head columns: a center is
measured against the contiguous run of all items after it at once, with no
gather, and only the items still in the ball and not yet covered are
gathered, item-major, for the later chunks.  The witness check drops a pair
at max(eps, the smallest pair distance found so far), so a dropped pair is
neither a failure (below eps) nor below the minimum: both stay exact.

Counts over T orbit times read only the first min(T, w) of them, with w the
system's orbit period (diffeo.orbit_period): the orbit at time t + j*w is the
orbit at time t rotated horizontally by a multiple of 1/g.  That rotation is
an isometry of the sup metric, so a Bowen max over T times is the max over
the first w, and it permutes the cells of a partition whose period g
divides, so a Hamming word's mismatches at t + j*w are those at t.  Folded,
column t < w of a word stands for the times t, t + w, ... < T: with
J, r = divmod(T, w) it weighs J + 1 for t < r and J otherwise, and the
weighted mismatch count equals the count over all T times.  In floats the
rotated copies can round differently, so the fold agrees with unfolded
orbits except where a distance sits within rounding of the radius.  Every
Bowen count of candidates (bowen_counts, max_separated, sandwich_check) reads
one builder, _bowen_grid: one orbit array per system, one greedy per
(folded horizon, radius).

Greedy results are bounds, not extremal values: a separated count is a lower
bound for the maximal packing of the grid, a cover count an upper bound for
the minimal cover of the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import diffeo
from .diffeo import AbCSystem, Array, as_points, mod1, orbit_batch, torus_dist
from .scaling import ScalingFamily, eval_log

_TIME_CHUNK = 128  # orbit times per Bowen distance chunk after the head, time 0
_WORD_CHUNK = 256  # word columns per Hamming mismatch chunk, and the fewest positions in the head


class GridError(ValueError):
    pass


def check_grid(grid: int, eps: float) -> None:
    """Grid midpoints resolve Bowen radius eps only if eps > 2/grid."""
    if grid < 1:
        raise GridError(f"grid must be >= 1, got {grid}")
    if eps <= 2.0 / grid:
        raise GridError(f"grid {grid} too coarse for eps={eps}: need eps > 2/grid")


def check_samples(sample_size: int, eps: float) -> None:
    """A Hamming cover at radius eps needs at least 100/eps samples, decided
    on the rational value of eps, as hamming_greedy reads it."""
    if sample_size * Fraction(eps) < 100:
        raise ValueError(f"sample_size must be >= 100/eps: {sample_size} samples for eps={eps}")


# ---------------------------------------------------------------------------
# configuration and partitions


@dataclass(frozen=True)
class BowenConfig:
    n_time: int
    eps: float
    grid: int = 32

    def __post_init__(self):
        if self.n_time < 1:
            raise ValueError("n_time must be >= 1")
        check_grid(self.grid, self.eps)


def grid_candidates(g: int) -> Array:
    """Row-major midpoints of a g x g grid."""
    if g < 1:
        raise ValueError(f"grid must be >= 1, got {g}")
    mids = (np.arange(g) + 0.5) / g
    ys, xs = np.meshgrid(mids, mids, indexing="ij")
    return np.stack([xs.ravel(), ys.ravel()], axis=-1)


@dataclass(frozen=True)
class GridPartition:
    """Cells [i/nx, (i+1)/nx) x [j/ny, (j+1)/ny), label = i * ny + j."""

    nx: int
    ny: int = 1

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"partition needs nx, ny >= 1, got {self.nx} x {self.ny}")

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def period(self) -> int:
        """R_{1/nx} permutes the cells."""
        return self.nx

    def labels(self, pts: Array) -> Array:
        x = mod1(np.asarray(pts[..., 0], dtype=float))
        y = mod1(np.asarray(pts[..., 1], dtype=float))
        i = np.minimum((x * self.nx).astype(np.int64), self.nx - 1)
        j = np.minimum((y * self.ny).astype(np.int64), self.ny - 1)
        return i * self.ny + j


# ---------------------------------------------------------------------------
# Bowen metric and greedy packing/cover


def fold_times(sys: AbCSystem, n_time: int, period: int = 0) -> int:
    """min(n_time, w): the orbit times a count over n_time times reads, with
    w = diffeo.orbit_period(sys.H, sys.alpha_next, period)."""
    return min(n_time, diffeo.orbit_period(sys.H, sys.alpha_next, period))


def orbit_array(sys: AbCSystem, candidates: Array, times: range) -> Array:
    """(T, N, 2) orbit positions of all candidates at times = range(T)."""
    if not isinstance(times, range) or times != range(len(times)):
        raise ValueError(f"orbit times must be range(T), got {times!r}")
    return orbit_batch(sys, candidates, len(times))


def _chunks(W: int, head: int, width: int, J: int = 1, r: int = 0) -> list[tuple[int, int, int]]:
    """(t0, t1, weight) per chunk of W columns: a head of ``head`` columns,
    then chunks of ``width``, split at column r.  A column below r weighs
    J + 1 and any other J (see the module docstring)."""
    edges = sorted({0, *range(min(head, W), W, width), W, r})
    return [(t0, t1, J + (t0 < r)) for t0, t1 in zip(edges, edges[1:])]


def _head(items: Array, metric) -> Array:
    """Time-major (t1, n, ...) copy of the first chunk's columns 0:t1 of an
    item-major (n, T, ...) array, as _ball reads them."""
    t1 = metric[0][0][1]
    return np.ascontiguousarray(items[:, :t1].swapaxes(0, 1))


def _ball(items: Array, head: Array, c: int, radius, metric, covered=None) -> tuple[Array, Array]:
    """The items after c within ``radius`` of item c, leaving out those
    ``covered`` marks, and their distances, for item-major (n, T, ...)
    ``items``, its _head, and ``metric = (chunks, part_dist, combine)``.
    Over the columns t0:t1 of each (t0, t1, weight) chunk,
    ``d = combine(d, part_dist(a, b, weight, axis))`` with a, b the columns
    of the candidates and of item c, reduced over their time axis; and a
    candidate leaves once ``d >= radius``.  ``combine`` must never lower
    ``d`` (a running max, a sum of counts), so a dropped item ends at
    radius or beyond, and a kept item's ``d`` is its full distance.  The
    first chunk measures every later item at once, off ``head``; the later
    chunks gather the candidates left from ``items``."""
    chunks, part_dist, combine = metric
    d = part_dist(head[:, c + 1 :], head[:, c : c + 1], chunks[0][2], 0)
    keep = d < radius
    if covered is not None:
        keep &= ~covered[c + 1 :]
    live = c + 1 + np.flatnonzero(keep)
    d = d[keep]
    for t0, t1, weight in chunks[1:]:
        if not len(live):
            break
        d = combine(d, part_dist(items[live, t0:t1], items[c, t0:t1], weight, 1))
        keep = d < radius
        live, d = live[keep], d[keep]
    return live, d


def _bowen_metric(n_time: int):
    """The Bowen metric over n_time orbit times, as _ball's metric: a running
    max of torus distances over a head of time 0 alone, which drops all but a
    few grid neighbours of the center, then over chunks of _TIME_CHUNK times."""
    return (
        _chunks(n_time, 1, _TIME_CHUNK),
        lambda a, b, _, axis: torus_dist(a, b).max(axis=axis),
        np.maximum,
    )


def _greedy_balls(items: Array, metric, radius, need=None) -> tuple[list[int], int]:
    """Greedy cover of the rows of an item-major (n, T, ...) array by open
    balls: open a ball at the first uncovered item and cover every uncovered
    item whose distance to it is < radius (see _ball); stop once ``need``
    items are covered (default: all).  Every item before the center is
    already covered, so only the items after it are measured.
    Returns (centers, covered items)."""
    n = items.shape[0]
    need = n if need is None else need
    head = _head(items, metric)
    covered = np.zeros(n, dtype=bool)
    centers: list[int] = []
    n_cov = 0
    for c in range(n):
        if n_cov >= need:
            break
        if covered[c]:
            continue
        centers.append(c)
        live, _ = _ball(items, head, c, radius, metric, covered)
        covered[c] = covered[live] = True
        n_cov += 1 + len(live)
    return centers, n_cov


def greedy_centers(orbits: Array, eps: float) -> list[int]:
    """Maximal eps-separated subset of the (T, N, 2) orbits, scanned in
    candidate order.

    The same set read as ball centers is a cover of the candidates with open
    eps-balls, so its size is simultaneously a lower bound for the maximal
    packing and an upper bound for the minimal cover of the grid.  The orbits
    are read point-major, which is contiguous for the views orbit_array
    returns.
    """
    return _greedy_balls(orbits.transpose(1, 0, 2), _bowen_metric(orbits.shape[0]), eps)[0]


@dataclass(frozen=True)
class SeparatedResult:
    count: int
    witnesses: Array  # (count, 2) candidate points


def _bowen_grid(
    sys: AbCSystem, cands: Array, horizons: Sequence[int], radii: Sequence[float]
) -> dict[tuple[int, float], list[int]]:
    """Greedy centers of the candidates keyed by (horizon, radius).  The
    orbits are built once, over T = fold_times(sys, max(horizons)) times, and
    the count at horizon m runs on their first min(m, T) times: the max over
    the later times repeats the max over these (see the module docstring).
    Horizons that fold to the same times share one greedy per radius."""
    orbits = orbit_array(sys, cands, range(fold_times(sys, max(horizons))))
    out: dict[tuple[int, float], list[int]] = {}
    for eps in radii:
        runs: dict[int, list[int]] = {}
        for m in horizons:
            t = min(m, orbits.shape[0])
            if t not in runs:
                runs[t] = greedy_centers(orbits[:t], eps)
            out[m, eps] = runs[t]
    return out


def max_separated(sys: AbCSystem, cfg: BowenConfig) -> SeparatedResult:
    """Greedy Bowen packing over the candidate grid (lower bound for S)."""
    cands = grid_candidates(cfg.grid)
    kept = _bowen_grid(sys, cands, [cfg.n_time], [cfg.eps])[cfg.n_time, cfg.eps]
    return SeparatedResult(count=len(kept), witnesses=cands[kept])


def min_cover(sys: AbCSystem, cfg: BowenConfig) -> int:
    """Greedy Bowen cover of the candidate grid (upper bound for N)."""
    return max_separated(sys, cfg).count


def bowen_counts(
    sys: AbCSystem, grid: int, horizons: Sequence[int], eps_list: Sequence[float]
) -> dict[tuple[int, float], int]:
    """Greedy counts of the grid candidates keyed by (horizon, eps).  Each
    count is both the separated and the cover count (see greedy_centers)."""
    for eps in eps_list:
        check_grid(grid, eps)
    centers = _bowen_grid(sys, grid_candidates(grid), horizons, eps_list)
    return {key: len(kept) for key, kept in centers.items()}


# ---------------------------------------------------------------------------
# witness sets for the untwisted construction


@dataclass(frozen=True)
class WitnessReport:
    count: int
    expected_count: int
    horizon: int
    eps: float
    all_separated: bool
    min_pair_separation: float
    failures: tuple[tuple[int, int, float], ...]  # (i, j, distance)
    partial: bool = False  # horizon truncated by the compute budget


# pairs grow as the square of the points: 512 points make 130816 pairs
WITNESS_POINTS = 512


def witness_set(stage_q: int, stage_eps: float, eps: float) -> Array:
    """The explicit separated-set candidates for the untwisted stage:
    x-offsets 2*j*eps_n/q^2 (j < q/2) on levels 3/8 + k*eps
    (0 <= k <= floor(1/(4*eps)))."""
    q = stage_q
    js = np.arange(q // 2)
    xs = (2.0 * js * stage_eps / (q * q)) % 1.0
    levels = [3.0 / 8.0 + k * eps for k in range(int(math.floor(1.0 / (4.0 * eps))) + 1)]
    pts = [(x, y) for y in levels for x in xs]
    return np.array(pts, dtype=float)


def witness_untwisted(
    sys: AbCSystem, eps: float, max_horizon: Optional[int] = None
) -> WitnessReport:
    """Check the untwisted witness set is (q_next, eps)-Bowen separated.

    The set is pushed through the conjugation stack; orbit enumeration is
    exact in the rotation coordinate, so the pairwise worst separations are
    sharp.  The orbits cover fold_times(sys, horizon) times, as every Bowen
    count does.  Each point i meets the points j > i through the greedy's
    membership step, at a drop radius that keeps the failures (pairs closer
    than eps) and the minimum exact (see the module docstring).
    A horizon larger than max_horizon, or a witness set larger than
    WITNESS_POINTS, is truncated and the report flagged partial.
    """
    st = sys.stage
    horizon = sys.q_next
    partial = False
    if max_horizon is not None and horizon > max_horizon:
        horizon = max_horizon
        partial = True
    base = witness_set(st.q, float(st.eps), eps)
    expected = len(base)
    if len(base) > WITNESS_POINTS:
        base = base[:WITNESS_POINTS]
        partial = True
    n_time = fold_times(sys, horizon)
    items = diffeo.orbit_images(sys.H, base, sys.alpha_next, n_time).transpose(1, 0, 2)
    metric = _bowen_metric(n_time)
    head = _head(items, metric)
    n = base.shape[0]
    failures: list[tuple[int, int, float]] = []
    min_sep = math.inf
    for i in range(n - 1):
        js, d = _ball(items, head, i, max(eps, min_sep), metric)
        bad = d < eps
        failures += [(i, j, dj) for j, dj in zip(js[bad].tolist(), d[bad].tolist())]
        min_sep = min(min_sep, d.min(initial=math.inf))
    return WitnessReport(
        count=n,
        expected_count=expected,
        horizon=horizon,
        eps=eps,
        all_separated=not failures,
        min_pair_separation=float(min_sep),
        failures=tuple(failures),
        partial=partial,
    )


# ---------------------------------------------------------------------------
# coded orbits and Hamming covers


def code_orbits(sys: AbCSystem, part: GridPartition, pts: Array, n_time: int) -> Array:
    """(n_samples, n_time) label words for many starting points, in the
    smallest unsigned dtype for the labels; the float orbit is never held."""
    u = sys.H.inverse(as_points(pts))
    dtype = np.min_scalar_type(part.n_cells - 1)
    words = diffeo.orbit_images(sys.H, u, sys.alpha_next, n_time, label=part.labels, dtype=dtype)
    return np.ascontiguousarray(words.T)


@dataclass(frozen=True)
class HammingCoverResult:
    count: int
    covered_fraction: float
    sample_size: int
    seed: int


def hamming_cover(
    sys: AbCSystem,
    part: GridPartition,
    n_time: int,
    eps: float,
    sample_size: int,
    seed: int,
) -> HammingCoverResult:
    """Greedy covering of coded sample orbits by Hamming balls of radius eps
    until at least a (1 - eps) fraction of the samples is covered; the ball
    count estimates the minimal Hamming cover of that measure.  The words are
    coded over the first fold_times(sys, n_time, part.period) times and
    weighed as n_time times (see hamming_greedy)."""
    check_samples(sample_size, eps)
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.random((sample_size, 2))
    words = code_orbits(sys, part, pts, fold_times(sys, n_time, part.period))
    count, covered = hamming_greedy(words, eps, n_time)
    return HammingCoverResult(
        count=count,
        covered_fraction=covered / sample_size,
        sample_size=sample_size,
        seed=seed,
    )


def hamming_greedy(words: Array, eps: float, n_time: Optional[int] = None) -> tuple[int, int]:
    """Greedy cover of the rows of an (n, W) word array, read as words of
    T = n_time positions (default W): open a ball at the first uncovered
    word, cover every word with fewer than eps*T mismatches, stop once at
    least (1 - eps)*n words are covered.  Both rules are exact: eps is read
    as the rational value of the float, and the integer mismatch counts are
    held against the Python int ceil(eps*T), which cannot overflow.

    With T > W the words are folded (see the module docstring): with
    J, r = divmod(T, W), a mismatch in a column below r counts J + 1 times
    and any other J times.  Mismatches are counted chunk by chunk (see
    _ball), and a word leaves the ball's candidates once its count reaches
    the radius.  The head spans max(radius, _WORD_CHUNK) of the T positions,
    ceil(max(radius, _WORD_CHUNK)/J) columns: fewer positions than the
    radius cannot drop a word.  Each later chunk spans _WORD_CHUNK columns,
    and no chunk straddles r.  A chunk's mismatches are summed in the
    smallest unsigned dtype that holds its width, then widened to int64 and
    multiplied by the chunk's weight.
    Returns (balls, covered words)."""
    eps = Fraction(eps)
    W = words.shape[1]
    T = W if n_time is None else n_time
    if not 0 < W <= T:
        raise ValueError(f"need 1 <= word columns <= n_time, got {W} columns for {T} times")
    J, r = divmod(T, W)
    radius = math.ceil(eps * T)
    centers, covered = _greedy_balls(
        words,
        (
            _chunks(W, -(-max(radius, _WORD_CHUNK) // J), _WORD_CHUNK, J, r),
            lambda a, b, weight, axis: weight
            * (a != b).sum(axis=axis, dtype=np.min_scalar_type(a.shape[axis])).astype(np.int64),
            np.add,
        ),
        radius,
        need=(1 - eps) * words.shape[0],
    )
    return len(centers), covered


# ---------------------------------------------------------------------------
# stage-to-stage checks


@dataclass(frozen=True)
class SandwichResult:
    ok: bool
    n_coarse_4eps: int
    n_fine_2eps: int
    n_coarse_eps: int
    sep_fine_eps: int
    sep_coarse_2eps: int
    upgrade_ok: bool


def sandwich_check(
    sys_n: AbCSystem,
    sys_next: AbCSystem,
    m: int,
    eps: float,
    grid: int = 32,
) -> SandwichResult:
    """Covers on a common grid and horizon: the one-stage-deeper system is
    squeezed between covers of the current stage at doubled and halved radii,
    and its separated count dominates the current stage's at doubled radius."""
    cands = grid_candidates(grid)
    coarse = _bowen_grid(sys_n, cands, [m], [4 * eps, eps, 2 * eps])
    fine = _bowen_grid(sys_next, cands, [m], [2 * eps, eps])
    n4, n1, s_coarse = (len(coarse[m, r]) for r in (4 * eps, eps, 2 * eps))
    n2, s_fine = (len(fine[m, r]) for r in (2 * eps, eps))
    return SandwichResult(
        ok=(n4 <= n2 <= n1),
        n_coarse_4eps=n4,
        n_fine_2eps=n2,
        n_coarse_eps=n1,
        sep_fine_eps=s_fine,
        sep_coarse_2eps=s_coarse,
        upgrade_ok=(s_fine >= s_coarse),
    )


# ---------------------------------------------------------------------------
# reports


class CountRecord(NamedTuple):
    """One row of raw_counts.csv, whose columns are these fields."""

    stage: int
    q: int
    horizon: int
    eps: float
    count_kind: str  # "separated" | "cover" | "hamming"
    count: int


class RatioRow(NamedTuple):
    """One row of counts.csv, whose columns are these fields."""

    stage: int
    horizon: int
    eps: float
    count_kind: str
    count: int
    family: str
    t: float
    log_ratio: float


@dataclass(frozen=True)
class ComplexityReport:
    rows: tuple[RatioRow, ...]
    trend: dict  # (family_label, t, count_kind, eps) -> "increasing" | "decreasing" | "flat"


def slow_entropy_report(
    records: Sequence[CountRecord],
    families: Sequence[tuple[ScalingFamily, Sequence[float]]],
) -> ComplexityReport:
    """Normalize counts by a_m(t) in log-space and flag tail directions.

    An increasing tail of count/a_m(t) over the stages is evidence the slow
    entropy is >= t at that scale; a decreasing tail, <= t.  Each tail
    follows one count kind at one radius eps, in (stage, horizon) order.
    """
    if len(records) < 2:
        raise ValueError("need at least two stage records")
    rows: list[RatioRow] = []
    trend: dict = {}
    ordered = sorted(records, key=lambda r: (r.count_kind, r.stage, r.horizon))
    for fam, ts in families:
        label = fam.label()
        for t in ts:
            tails: dict = {}  # (count_kind, eps) -> log ratios
            for rec in ordered:
                if rec.horizon < 2:
                    continue  # scale families need m > 1; static counts skipped
                lr = math.log(max(rec.count, 1)) - eval_log(fam, rec.horizon, t)
                rows.append(
                    RatioRow(
                        rec.stage, rec.horizon, rec.eps, rec.count_kind, rec.count, label, t, lr
                    )
                )
                tails.setdefault((rec.count_kind, rec.eps), []).append(lr)
            for (kind, eps), seq in tails.items():
                if len(seq) >= 2:
                    d = seq[-1] - seq[-2]
                    direction = "increasing" if d > 0 else ("decreasing" if d < 0 else "flat")
                    trend[(label, t, kind, eps)] = direction
    # packing/covering consistency across shared (stage, horizon) pairs
    _assert_packing_chain(records)
    return ComplexityReport(rows=tuple(rows), trend=trend)


def _assert_packing_chain(records: Sequence[CountRecord]) -> None:
    by_key: dict = {}
    for r in records:
        by_key[(r.stage, r.horizon, r.count_kind, r.eps)] = r.count
    for (stage, horizon, kind, eps), count in by_key.items():
        if kind != "separated":
            continue
        cover_same = by_key.get((stage, horizon, "cover", eps))
        if cover_same is not None and count > cover_same:
            raise AssertionError(
                f"packing/covering violated at stage {stage}, horizon {horizon}: "
                f"separated({eps}) = {count} > cover({eps}) = {cover_same}"
            )
        cover_half = by_key.get((stage, horizon, "cover", eps / 2))
        if cover_half is not None and count > cover_half:
            raise AssertionError(
                f"packing/covering violated at stage {stage}, horizon {horizon}: "
                f"separated({eps}) = {count} > cover({eps / 2}) = {cover_half}"
            )
