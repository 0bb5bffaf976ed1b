"""Coding-word selections with exact symbol uniformity and sliding Hamming
separation.

A selection is N words of length k over an alphabet of size s (s | k).  Words
are drawn uniformly, repaired to exact uniformity (surplus symbols removed at
random positions, deficits refilled left-to-right in symbol order), then
verified exhaustively: for every ordered pair and every shift t < (1-eps)*k
(t >= 1 when a word is compared against itself) the normalized Hamming
distance over the overlap must reach 1 - 1/s - eps*s.  Verification is
exhaustive, never probabilistic: one scan over the shifts per sampling round,
deciding every (pair, shift) on exact integer match counts against the exact
rational threshold, and returning the failing words for resampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

Array = np.ndarray


class SelectionError(RuntimeError):
    """Retry budget exhausted; carries the worst offending pair and shift."""

    def __init__(self, message: str, report: Optional["SelectionReport"] = None):
        super().__init__(message)
        self.report = report


_BASE36 = "0123456789abcdefghijklmnopqrstuvwxyz"


def word_to_text(word: Sequence[int]) -> str:
    """One lowercase base-36 digit per symbol; symbols must lie in 0..35."""
    w = np.asarray(word, dtype=np.int64)
    if w.size and (w.min() < 0 or w.max() >= len(_BASE36)):
        bad = int(w.min()) if w.min() < 0 else int(w.max())
        raise ValueError(f"symbol {bad} has no base-36 digit (symbols must lie in 0..35)")
    return "".join(_BASE36[c] for c in w.tolist())


def word_from_text(text: str) -> tuple[int, ...]:
    """Inverse of ``word_to_text``."""
    return tuple(int(c, 36) for c in text)


def separation_threshold(s: int, eps: float) -> float:
    return 1.0 - 1.0 / s - eps * s


def hamming_shift(w: Sequence[int], w2: Sequence[int], t: int) -> float:
    """Normalized Hamming distance between w and w2 slid left by t.

    Compares w[i] against w2[i + t] over the overlap of length k - t.
    """
    a = np.asarray(w)
    b = np.asarray(w2)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("words must be 1-d and of equal length")
    k = a.shape[0]
    if not (0 <= t < k):
        raise ValueError(f"shift must satisfy 0 <= t < {k}")
    if t == 0:
        return float(np.mean(a != b))
    return float(np.mean(a[: k - t] != b[t:]))


@dataclass(frozen=True)
class WordSelection:
    alphabet_size: int
    k: int
    eps: float
    words: Array  # (N, k) uint8/uint16
    seed: int
    verified: bool
    # the report of the verification that set `verified`, when one ran
    report: Optional[SelectionReport] = field(default=None, compare=False)

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise ValueError("alphabet must have at least 2 symbols")
        if self.k % self.alphabet_size != 0:
            raise ValueError("word length must be a multiple of the alphabet size")

    @property
    def n_words(self) -> int:
        return self.words.shape[0]

    def to_text(self) -> str:
        lines = [
            f"{self.alphabet_size} {self.k} {self.n_words} {self.eps!r} {self.seed}"
        ]
        lines.extend(word_to_text(row) for row in self.words)
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str, verify: bool = False) -> "WordSelection":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        s_, k_, n_, eps_, seed_ = lines[0].split()
        s, k, n, seed = int(s_), int(k_), int(n_), int(seed_)
        words = np.array(
            [word_from_text(ln.strip()) for ln in lines[1 : n + 1]],
            dtype=np.uint16,
        )
        if words.shape != (n, k):
            raise ValueError("selection body does not match its header")
        sel = WordSelection(
            alphabet_size=s, k=k, eps=float(eps_), words=words, seed=seed, verified=False
        )
        if verify:
            rep = verify_selection(sel)
            sel = replace(sel, verified=rep.passed, report=rep)
        return sel


@dataclass(frozen=True)
class SelectionReport:
    threshold: float
    uniform: bool
    min_pairwise_per_shift: Array  # (n_shifts,) inf where no pair exists
    min_self_sliding: float
    worst_pair: tuple[int, int, int, float]  # (i, j, t, distance)
    # the later word of every violating (i, j, t), in scan order: t first,
    # then row-major over (i, j); sample_selection resamples in this order
    failing: set[int]

    @property
    def min_pairwise(self) -> float:
        vals = self.min_pairwise_per_shift
        finite = vals[np.isfinite(vals)]
        return float(finite.min()) if finite.size else math.inf

    @property
    def passed(self) -> bool:
        return self.uniform and not self.failing


def _one_hot(words: Array, s: int) -> Array:
    n, k = words.shape
    out = np.zeros((n, k, s), dtype=np.float32)
    rows = np.repeat(np.arange(n), k)
    cols = np.tile(np.arange(k), n)
    out[rows, cols, words.ravel()] = 1.0
    return out


def _match_counts(onehot: Array, t: int) -> Array:
    """matches[i, j] = #positions where word_i[p] == word_j[p + t].

    The float32 one-hot product is exact: every count is an integer <= k,
    and k < 2**24, so the result is returned as int64.
    """
    n, k, s = onehot.shape
    a = onehot[:, : k - t, :].reshape(n, -1)
    b = onehot[:, t:, :].reshape(n, -1)
    return (a @ b.T).astype(np.int64)


def verify_selection(sel: WordSelection) -> SelectionReport:
    """Exhaustive check of uniformity and all pair/shift separations.

    One scan over the shifts.  A (pair, shift) with m matches over an
    overlap of o positions violates when its distance 1 - m/o is below
    1 - p/d, where p/d = 1/s + eps*s exactly; in integers, when
    m > (o*p) // d.  The report's distances are 1 - m/o in float64; its
    verdict and failing words come from the integer test alone.
    """
    s, k = sel.alphabet_size, sel.k
    words = np.asarray(sel.words)
    n = words.shape[0]
    thr = separation_threshold(s, sel.eps)
    bound = Fraction(1, s) + Fraction(sel.eps) * s  # exact: thr = 1 - bound
    target = k // s
    uniform = True
    for row in words:
        counts = np.bincount(row, minlength=s)
        if not np.all(counts == target):
            uniform = False
            break
    # pairwise shifts are strict (t < (1-eps)k); the self comparison also
    # covers the boundary shift t = (1-eps)k when it is an integer
    rest = (1 - Fraction(sel.eps)) * k
    t_pair_end = math.ceil(rest)  # exclusive
    t_self_last = math.floor(rest)  # inclusive
    n_shifts = max(1, max(t_pair_end, t_self_last + 1))
    min_pair = np.full(n_shifts, np.inf)
    min_self = math.inf
    worst = (0, 0, 0, math.inf)
    failing: set[int] = set()
    onehot = _one_hot(words, s)
    off_diag = ~np.eye(n, dtype=bool)
    for t in range(min(n_shifts, k)):
        overlap = k - t
        matches = _match_counts(onehot, t)
        # the closest pair has the most matches; first maximum, row-major
        if n > 1 and t < t_pair_end:
            pair = np.where(off_diag, matches, -1)
            i, j = divmod(int(np.argmax(pair)), n)
            dmin = 1.0 - int(pair[i, j]) / overlap
            min_pair[t] = dmin
            if dmin < worst[3]:
                worst = (i, j, t, dmin)
        if 1 <= t <= t_self_last:
            own = np.diagonal(matches)
            i = int(np.argmax(own))
            dself = 1.0 - int(own[i]) / overlap
            if dself < min_self:
                min_self = dself
                if dself < worst[3]:
                    worst = (i, i, t, dself)
        limit = (overlap * bound.numerator) // bound.denominator
        if matches.max() > limit:
            viol = matches > limit
            if t == 0 or t > t_self_last:
                np.fill_diagonal(viol, False)  # self comparison out of range
            if t >= t_pair_end:
                viol &= ~off_diag  # pairwise comparison out of range
            # resample the later word of each offending pair
            for i, j in zip(*np.nonzero(viol)):
                failing.add(int(max(i, j)))
    return SelectionReport(
        threshold=thr,
        uniform=uniform,
        min_pairwise_per_shift=min_pair,
        min_self_sliding=min_self,
        worst_pair=worst,
        failing=failing,
    )


def _repair_uniform(word: Array, s: int, rng: np.random.Generator) -> Array:
    """Make every symbol appear exactly k/s times.

    Remove surplus occurrences at uniformly random positions, then fill the
    vacated slots left-to-right with the deficient symbols in symbol order.
    """
    k = word.shape[0]
    target = k // s
    out = word.copy()
    counts = np.bincount(out, minlength=s)
    vacated: list[int] = []
    for sym in range(s):
        extra = counts[sym] - target
        if extra > 0:
            positions = np.flatnonzero(out == sym)
            drop = rng.choice(positions, size=extra, replace=False)
            vacated.extend(int(i) for i in drop)
    vacated.sort()
    fill: list[int] = []
    for sym in range(s):
        deficit = target - counts[sym]
        if deficit > 0:
            fill.extend([sym] * deficit)
    for pos, sym in zip(vacated, fill):
        out[pos] = sym
    return out


def sample_selection(
    s: int,
    k: int,
    n_words: int,
    eps: float,
    seed: int,
    max_rounds: int = 50,
) -> WordSelection:
    """Draw, repair and verify a selection; resample failing words.

    Deterministic given the seed (counter-based generator).  Raises
    SelectionError with the worst offending pair/shift when the retry budget
    is exhausted, which signals that k is below the feasibility threshold for
    these (s, eps).
    """
    if not 2 <= s <= 36:
        raise ValueError(f"alphabet must have 2 to 36 symbols (base-36 text), got {s}")
    if k < 1 or k % s != 0:
        raise ValueError(f"k must be a positive multiple of s = {s}, got {k}")
    if n_words < 1:
        raise ValueError(f"a selection needs at least one word, got {n_words}")
    if not 0.0 < eps < 1.0:  # eps >= 1 leaves no shift to verify
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    rng = np.random.Generator(np.random.Philox(seed))

    def fresh(count: int) -> Array:
        raw = rng.integers(0, s, size=(count, k), dtype=np.uint16).astype(np.uint8)
        return np.stack([_repair_uniform(w, s, rng) for w in raw])

    words = fresh(n_words)
    report = None
    for _ in range(max_rounds):
        sel = WordSelection(
            alphabet_size=s, k=k, eps=eps, words=words, seed=seed, verified=False
        )
        report = verify_selection(sel)
        if report.passed:
            return replace(sel, verified=True, report=report)
        words = words.copy()
        words[list(report.failing)] = fresh(len(report.failing))
    raise SelectionError(
        f"retry budget exhausted after {max_rounds} rounds; worst pair "
        f"(i={report.worst_pair[0]}, j={report.worst_pair[1]}, "
        f"t={report.worst_pair[2]}) at distance {report.worst_pair[3]:.4f} "
        f"< threshold {report.threshold:.4f}",
        report,
    )


def assemble_W(theta: WordSelection, q: int) -> np.ndarray:
    """Concatenate the q words (length q each) and append the symbolwise
    +1 (mod s) shift of the concatenation: a word of length 2*q**2."""
    if theta.n_words != q:
        raise ValueError(f"selection must hold exactly q = {q} words")
    if theta.k != q:
        raise ValueError(f"each word must have length q = {q}")
    w_bar = np.asarray(theta.words).reshape(-1)
    w_tilde = (w_bar + 1) % theta.alphabet_size
    return np.concatenate([w_bar, w_tilde]).astype(np.int64)
