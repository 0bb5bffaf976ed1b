"""Coding-word selections with exact symbol uniformity and sliding Hamming
separation.

A selection is N words of length k over an alphabet of size s (s | k).  Words
are drawn uniformly, repaired to exact uniformity (surplus symbols removed at
random positions, deficits refilled left-to-right in symbol order), then
verified exhaustively: for every ordered pair and every shift t < (1-eps)*k
(t >= 1 when a word is compared against itself) the normalized Hamming
distance over the overlap must reach 1 - 1/s - eps*s.  Verification is
exhaustive, never probabilistic: FFT cross-correlations of the symbol
indicators, taken over panels and blocks of words (each word transformed once
per panel), give the exact integer match count of every (pair, shift).  Two
column words share each transform: with B = 2**k.bit_length() > k, one
correlation against ind_j + B*ind_j' gives m_ij + B*m_ij', which is rounded
under a 0.25 guard and split into its low and high bits.  Each count is
decided against the exact rational threshold in integers, and the failing
words are returned for resampling.  The first sampling round checks every
comparison; later rounds check only those of the redrawn words, since every
comparison of two kept words passed the round before.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray


class SelectionError(RuntimeError):
    """Retry budget exhausted; carries the worst offending pair and shift."""

    def __init__(self, message: str, report: Optional["SelectionReport"] = None):
        super().__init__(message)
        self.report = report


_BASE36 = "0123456789abcdefghijklmnopqrstuvwxyz"
_DIGITS = np.frombuffer(_BASE36.encode("ascii"), dtype=np.uint8)


def word_to_text(word: Sequence[int]) -> str:
    """One lowercase base-36 digit per symbol; symbols must lie in 0..35."""
    w = np.asarray(word, dtype=np.int64)
    if w.size and (w.min() < 0 or w.max() >= len(_BASE36)):
        bad = int(w.min()) if w.min() < 0 else int(w.max())
        raise ValueError(f"symbol {bad} has no base-36 digit (symbols must lie in 0..35)")
    return _DIGITS[w].tobytes().decode("ascii")


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
        if self.k < 1 or self.k % self.alphabet_size != 0:
            raise ValueError(f"word length {self.k} is not a positive multiple of the alphabet")
        if not 0.0 < self.eps < 1.0:  # eps >= 1 leaves no shift to verify
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")

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
    def from_text(text: str) -> "WordSelection":
        """An unverified selection; verify_selection checks it."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        s_, k_, n_, eps_, seed_ = lines[0].split()
        s, k, n, seed = int(s_), int(k_), int(n_), int(seed_)
        rows = [word_from_text(ln.strip()) for ln in lines[1:]]
        even = all(len(w) == k for w in rows)  # a ragged body builds no array
        words = np.array(rows if even else [], dtype=np.uint16)
        sel = WordSelection(  # header first: no body shows a word of length 0
            alphabet_size=s, k=k, eps=float(eps_), words=words, seed=seed, verified=False
        )
        if not even or words.shape != (n, k):
            raise ValueError("selection body does not match its header")
        return sel


@dataclass(frozen=True)
class SelectionReport:
    threshold: float
    uniform: bool
    # the smallest distance of a pair i != j at each shift t <= (1-eps)*k;
    # inf where no pair is compared (one word, or t = (1-eps)*k exactly)
    min_pairwise_per_shift: Array
    min_self_sliding: float
    worst_pair: tuple[int, int, int, float]  # (i, j, t, distance)
    # the later word of every violating (i, j, t), added in scan order (t
    # first, then row-major over (i, j)); sample_selection resamples in the
    # set's iteration order, which is hash-slot order (see verify_selection)
    failing: set[int]

    @property
    def min_pairwise(self) -> float:
        vals = self.min_pairwise_per_shift
        finite = vals[np.isfinite(vals)]
        return float(finite.min()) if finite.size else math.inf

    @property
    def passed(self) -> bool:
        return self.uniform and not self.failing


# Cap on the correlation values held for one block pair: blocks of w words
# with w*w*L <= cap, where L is the FFT length.  2**16 gives 2x2 blocks at
# k = 4000 and 8x8 at k = 500, and keeps the blocks' products and
# correlations to about a megabyte.
_BLOCK_CORR = 1 << 16
# Cap on the spectra held for one panel of rows, s*(L/2 + 1) complex128
# values per word: 1.5 MiB holds all 40 words at s = 4 and k = 500, and 5
# at k = 4000.
_PANEL_BYTES = 3 << 19

_NO_VIOL = np.iinfo(np.int64).max


@functools.lru_cache(maxsize=16)
def _shift_limits(s: int, k: int, eps: float) -> tuple[int, Array]:
    """(t_pair_end, limit) of a selection's shift scan: the exclusive end of
    the pair shifts and, read-only, the largest match count that passes at
    each shift t <= (1-eps)*k, which are the scan's shifts.

    A (pair, shift) with m matches over an overlap of o positions violates
    when its distance 1 - m/o is below 1 - p/d, where p/d = 1/s + eps*s
    exactly; in integers, when m > (o*p) // d.  o*p is a Python int: it
    overflows int64 when eps is not dyadic.
    """
    bound = Fraction(1, s) + Fraction(eps) * s  # exact: thr = 1 - bound
    rest = (1 - Fraction(eps)) * k
    T = math.floor(rest) + 1  # in 1..k, as 0 < eps < 1
    # counts lie in 0..k, so clipping keeps every `m > limit` exact in int64
    p, d = bound.numerator, bound.denominator
    limit = np.array([min(max((o * p) // d, -1), k) for o in range(k, k - T, -1)], dtype=np.int64)
    limit.setflags(write=False)
    return math.ceil(rest), limit


class _ShiftScan:
    """The shifts every comparison of a selection runs over, their exact
    integer limits (``_shift_limits``), and the first violation of each
    word.

    Pairwise shifts are strict (t < (1-eps)k); the self comparison also
    covers the boundary shift t = (1-eps)k when it is an integer.
    """

    def __init__(self, sel: WordSelection):
        s, k = sel.alphabet_size, sel.k
        words = np.asarray(sel.words)
        if words.size and (words.min() < 0 or words.max() >= s):
            bad = int(words.min()) if words.min() < 0 else int(words.max())
            raise ValueError(f"symbol {bad} lies outside the alphabet 0..{s - 1}")
        self.words, self.s, self.n = words, s, words.shape[0]
        t_pair_end, self.limit = _shift_limits(s, k, sel.eps)
        self.T = self.limit.size
        shifts = np.arange(self.T)
        self.overlap = k - shifts
        self.pair_t = (shifts < t_pair_end) & (self.n > 1)
        self.self_t = shifts >= 1
        # per word: the first (t, i, j), as t*n*n + i*n + j, where it is the
        # later word of a violating comparison
        self.first_viol = np.full(self.n, _NO_VIOL, dtype=np.int64)

    def counts(
        self, order: Array, n_rows: int, visit: Callable[[Array, Array, Array], None]
    ) -> None:
        """Call visit(i, j, m) with m[a, b, t] = #{p : w_i[p] == w_j[p + t]}
        for i = i[a, b], j = j[a, b] and t < T.  Every ordered comparison
        with a word of order[:n_rows] is visited once, self ones included.

        The counts are exact integers, read off FFT cross-correlations: the
        sum over the symbols of the correlations of their float64
        indicators, zero-padded to a length L of at least 2k - 1.  One
        inverse transform per unordered pair gives both orders, m_ij(t) at
        index t and m_ji(t) at index L - t.  Two column words j and j' share
        each transform: with B = 2**k.bit_length() > k, the column sequence
        of a symbol is ind_j + B*ind_j' (packed before the forward
        transform, or combined as F_j + B*F_j' from spectra already held),
        so one product sum and one inverse transform per (row word, column
        pair) give v = m_ij(t) + B*m_ij'(t).  v is rounded to an integer,
        ArithmeticError is raised if it lies more than 0.25 from it, and
        its low and high bits are the two counts.  A block of c columns
        packs column b with b + ceil(c/2), so an odd block leaves its middle
        column unpaired.  The rows order[:n_rows] come in panels whose
        spectra fit in ``_PANEL_BYTES``, each correlated with its own words
        and every later word of ``order`` in blocks of w words with
        w*w*L <= ``_BLOCK_CORR``; a block's spectra are computed once per
        panel, so memory does not grow with the number of words.
        """
        words, s, n, T = self.words, self.s, self.n, self.T
        bits = words.shape[1].bit_length()
        base = 1 << bits  # > k >= every count
        size = 1 << (2 * words.shape[1] - 1).bit_length()
        width = max(1, min(n, math.isqrt(_BLOCK_CORR // size)))  # words per block
        freqs = size // 2 + 1
        panel = max(1, _PANEL_BYTES // (s * freqs * 16))  # rows per panel
        symbols = np.arange(s, dtype=words.dtype)[:, None]

        def indicators(lo: int, hi: int) -> Array:
            """The symbol indicators of order[lo:hi], (words, s, k) bool."""
            return words[order[lo:hi], None, :] == symbols

        def exact(f_rows: Array, f_cols: Array) -> Array:
            """The correlations of rows and packed columns, rounded to int64."""
            acc = f_rows[:, None, 0] * f_cols[None, :, 0]
            for a in range(1, s):
                acc += f_rows[:, None, a] * f_cols[None, :, a]
            corr = np.fft.irfft(acc, size)
            del acc  # freed before the counts are allocated, to bound the peak
            v = np.empty(corr.shape, dtype=np.int64)
            np.rint(corr, out=v, casting="unsafe")
            corr -= v
            if np.abs(corr, out=corr).max() > 0.25:
                raise ArithmeticError("cross-correlation too inexact to round")
            return v

        def unpack(v: Array, out: Array) -> None:
            """The counts of the low words, then of the high words, of v."""
            half = v.shape[1]
            np.bitwise_and(v, base - 1, out=out[:, :half])
            np.right_shift(v[:, : out.shape[1] - half], bits, out=out[:, half:])

        def visit_block(r0: int, r1: int, c0: int, c1: int, v: Array) -> None:
            i, j = np.meshgrid(order[r0:r1], order[c0:c1], indexing="ij")
            m = np.empty((r1 - r0, c1 - c0, T), dtype=np.int64)
            unpack(v[..., :T], m)
            visit(i, j, m)
            if r0 != c0:
                # m_ji(t) sits at index L - t of the correlation of (i, j),
                # and m_ji(0) = m_ij(0)
                rev = np.empty_like(m)
                rev[..., 0] = m[..., 0]
                unpack(v[..., : size - T : -1], rev[..., 1:])
                visit(j, i, rev)

        # one buffer for the conjugated spectra of every panel
        f_panel = np.empty((min(panel, n_rows), s, freqs), dtype=np.complex128)
        for lo in range(0, n_rows, panel):
            hi = min(lo + panel, n_rows)
            rows = [(a, min(a + width, hi)) for a in range(lo, hi, width)]
            for a, b in rows:
                ind = indicators(a, b).astype(np.float64)
                np.fft.rfft(ind, size, out=f_panel[a - lo : b - lo])
            np.conjugate(f_panel, out=f_panel)
            for c0, c1 in rows + [(c, min(c + width, n)) for c in range(hi, n, width)]:
                half = (c1 - c0 + 1) // 2
                if c0 < hi:
                    f = f_panel[c0 - lo : c1 - lo]
                    f_cols = np.conj(f[:half])
                    f_cols[: c1 - c0 - half] += base * np.conj(f[half:])
                else:
                    ind = indicators(c0, c1)
                    x = ind[:half].astype(np.float64)
                    x[: c1 - c0 - half] += base * ind[half:]
                    f_cols = np.fft.rfft(x, size)
                for r0, r1 in rows:
                    if r0 > c0:
                        break
                    visit_block(r0, r1, c0, c1, exact(f_panel[r0 - lo : r1 - lo], f_cols))

    def note(self, i: Array, j: Array, m: Array, top: Optional[Array] = None) -> None:
        """Record the violations among the counts m of comparisons (i, j);
        `top`, when given, is m.max(axis=(0, 1))."""
        if top is None:
            top = m.max(axis=(0, 1))
        ts = np.flatnonzero(top > self.limit)
        if not ts.size:
            return
        a, b, c = np.nonzero(m[..., ts] > self.limit[ts])
        n, t = self.n, ts[c]
        vi, vj = i[a, b], j[a, b]
        ok = np.where(vi == vj, self.self_t[t], self.pair_t[t])
        vi, vj, t = vi[ok], vj[ok], t[ok]
        np.minimum.at(self.first_viol, np.maximum(vi, vj), t * n * n + vi * n + vj)

    def failing(self) -> set[int]:
        """The later word of every violating comparison noted so far.

        A set of ints iterates in hash-slot order (value modulo table size:
        30, 3, 17 iterate 17, 3, 30); insertion order only decides which of
        two colliding ints comes first, so the words go in in scan order:
        by their first violation (t, i, j).
        """
        hit = np.flatnonzero(self.first_viol != _NO_VIOL)
        return set(hit[np.argsort(self.first_viol[hit])].tolist())


def verify_selection(sel: WordSelection) -> SelectionReport:
    """Exhaustive check of uniformity and all pair/shift separations.

    The match count m_ij(t) = #{p : w_i[p] == w_j[p + t]} of every ordered
    pair (self pairs included) and every shift t is an exact integer from
    the blocked FFT cross-correlations of ``_ShiftScan.counts``, which
    transforms each word once per panel of rows.  Each (pair, shift) is
    decided against the exact rational threshold in integers: the report's
    distances are 1 - m/o in float64, and its verdict and failing words come
    from the integer test alone.  The scan keeps, per shift, the most matches
    of a pair i != j and of a word against itself; the per-shift distances
    come from these maxima.  The worst shift is the first minimum over the
    shifts (pair before self), and ``worst_pair`` is the first comparison,
    row-major over (i, j), that reaches its maximum there, found by an exact
    recount of that one shift.  ``failing`` is filled in the order its words
    first violate.
    """
    s, k = sel.alphabet_size, sel.k
    scan = _ShiftScan(sel)
    n, T, overlap = scan.n, scan.T, scan.overlap
    pair_t, self_t = scan.pair_t, scan.self_t
    thr = separation_threshold(s, sel.eps)
    target = k // s
    uniform = True
    for row in scan.words:
        counts = np.bincount(row, minlength=s)
        if not np.all(counts == target):
            uniform = False
            break
    # per shift, the most matches of a pair i != j and of a word against itself
    pair_best = np.full(T, -1, dtype=np.int64)
    self_best = np.full(T, -1, dtype=np.int64)

    def fold(i: Array, j: Array, m: Array) -> None:
        top = m.max(axis=(0, 1))
        same = i == j
        if same.any():
            np.maximum(self_best, m[same].max(axis=0), out=self_best)
            np.maximum(pair_best, np.where(same[..., None], -1, m).max(axis=(0, 1)), out=pair_best)
        else:
            np.maximum(pair_best, top, out=pair_best)
        scan.note(i, j, m, top)

    scan.counts(np.arange(n), n, fold)

    min_pair = np.where(pair_t, 1.0 - pair_best / overlap, np.inf)
    min_self_t = np.where(self_t, 1.0 - self_best / overlap, np.inf)
    min_self = float(min_self_t.min())
    # the scan order: shift by shift, the pair candidate before the self one
    cand = np.stack([min_pair, min_self_t], axis=1).reshape(-1)
    worst = (0, 0, 0, math.inf)
    if np.isfinite(cand.min()):
        t, is_self = divmod(int(cand.argmin()), 2)
        best = (self_best if is_self else pair_best)[t]
        # recount the worst shift row by row: its first comparison at `best`
        w, cols = scan.words, np.arange(n)
        for i in range(n):
            m = np.count_nonzero(w[i, : k - t] == w[:, t:], axis=1)
            hit = np.flatnonzero((m == best) & ((cols == i) == is_self))
            if hit.size:
                worst = (i, int(hit[0]), t, float(cand[2 * t + is_self]))
                break
    return SelectionReport(
        threshold=thr,
        uniform=uniform,
        min_pairwise_per_shift=min_pair,
        min_self_sliding=min_self,
        worst_pair=worst,
        failing=scan.failing(),
    )


def _failing_after(sel: WordSelection, redrawn: Sequence[int]) -> set[int]:
    """``verify_selection(sel).failing`` when every violating comparison of
    ``sel`` has a word in ``redrawn``: only those comparisons are scanned,
    in both orders and with the redrawn words' self shifts."""
    scan = _ShiftScan(sel)
    mask = np.bincount(np.asarray(redrawn, dtype=np.int64), minlength=scan.n) > 0
    rows = np.flatnonzero(mask)
    scan.counts(np.concatenate([rows, np.flatnonzero(~mask)]), rows.size, scan.note)
    return scan.failing()


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
    of ``max_rounds`` sampling rounds is exhausted, which signals that k is
    below the feasibility threshold for these (s, eps).

    Round 1 verifies every comparison.  The later word of each violating one
    is redrawn, so two kept words cannot violate in the next round: later
    rounds scan only the comparisons of the redrawn words, which names the
    same failing words in the same order.  The words that pass, or the last
    words drawn, get one full verification for their report.
    """
    if not 2 <= s <= 36:
        raise ValueError(f"alphabet must have 2 to 36 symbols (base-36 text), got {s}")
    if k < 1 or k % s != 0:
        raise ValueError(f"k must be a positive multiple of s = {s}, got {k}")
    if n_words < 1:
        raise ValueError(f"a selection needs at least one word, got {n_words}")
    if not 0.0 < eps < 1.0:  # eps >= 1 leaves no shift to verify
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    rng = np.random.Generator(np.random.Philox(seed))

    def fresh(count: int) -> Array:
        raw = rng.integers(0, s, size=(count, k), dtype=np.uint16).astype(np.uint8)
        return np.stack([_repair_uniform(w, s, rng) for w in raw])

    def unverified(words: Array) -> WordSelection:
        return WordSelection(alphabet_size=s, k=k, eps=eps, words=words, seed=seed, verified=False)

    sel = unverified(fresh(n_words))
    report = verify_selection(sel)
    failing = report.failing
    for _ in range(1, max_rounds):
        if not failing:
            break
        redrawn = list(failing)
        words = sel.words.copy()
        words[redrawn] = fresh(len(redrawn))
        sel = unverified(words)
        failing = _failing_after(sel, redrawn)
        report = None
    if report is None:  # a retry round ran: report on the words it checked
        report = verify_selection(sel)
    if report.passed:
        return replace(sel, verified=True, report=report)
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
