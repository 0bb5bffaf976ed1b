import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import slowtorus.words as words_module
from slowtorus.words import (
    SelectionError,
    WordSelection,
    assemble_W,
    sample_selection,
    separation_threshold,
    verify_selection,
)


def test_sample_minimal_balanced_word():
    sel = sample_selection(s=2, k=4, n_words=1, eps=0.3, seed=3)
    counts = np.bincount(sel.words[0], minlength=2)
    assert counts[0] == counts[1] == 2
    assert sel.verified


def test_selection_passes_at_scale_smoke():
    sel = sample_selection(s=4, k=2000, n_words=40, eps=1 / 16, seed=0)
    assert sel.verified
    rep = verify_selection(sel)
    assert rep.passed and rep.uniform
    assert rep.min_pairwise >= 0.5
    assert rep.min_self_sliding >= 0.5
    for field in ("passed", "uniform", "failing", "min_pairwise", "min_self_sliding"):
        assert getattr(sel.report, field) == getattr(rep, field)


def test_small_case_fails_exhaustively():
    # every balanced word of length 4 over {0,1} violates self-sliding
    for w in set(itertools.permutations([0, 0, 1, 1])):
        sel = WordSelection(
            alphabet_size=2, k=4, eps=0.01, words=np.array([w]), seed=0, verified=False
        )
        assert not verify_selection(sel).passed
    with pytest.raises(SelectionError, match="worst pair"):
        sample_selection(s=2, k=4, n_words=4, eps=0.01, seed=0)


def test_verify_single_word_sections():
    sel = sample_selection(s=2, k=8, n_words=1, eps=0.3, seed=5)
    rep = verify_selection(sel)
    assert np.all(np.isinf(rep.min_pairwise_per_shift))  # no pairs exist
    assert np.isfinite(rep.min_self_sliding)


def test_verify_flags_periodic_word():
    w = np.array([[0, 1, 0, 1, 0, 1, 0, 1]])
    sel = WordSelection(alphabet_size=2, k=8, eps=0.01, words=w, seed=0, verified=False)
    rep = verify_selection(sel)
    assert rep.min_self_sliding == 0.0  # shift 2 realigns the period
    assert not rep.passed


def test_verify_borderline_distance_passes():
    # shift 3 leaves 3 matches over an overlap of 5: distance 2/5, exactly
    # the threshold 1 - 1/2 - 0.05*2 (a float32 distance falls just below it)
    w = np.array([[1, 1, 1, 0, 0, 1, 0, 0]])
    sel = WordSelection(alphabet_size=2, k=8, eps=0.05, words=w, seed=0, verified=False)
    rep = verify_selection(sel)
    assert rep.passed
    assert rep.min_self_sliding == 0.4


def shift_counts(words, s):
    """Yield, for each shift t, counts[i, j] = #{p : w_i[p] == w_j[p + t]}
    from the per-shift product of the words' one-hot encodings (exact: the
    float64 products sum integers far below 2**53)."""
    n, k = words.shape
    onehot = (words[:, :, None] == np.arange(s)).astype(np.float64)
    for t in range(k):
        a = onehot[:, : k - t].reshape(n, -1)
        b = onehot[:, t:].reshape(n, -1)
        yield (a @ b.T).astype(np.int64)


def reference_report(words, s, eps):
    """The report of a plain scan over the shifts of verify_selection, row
    by row over (i, j) within a shift, with exact Fraction thresholds:
    (worst_pair, min_pairwise_per_shift, min_self_sliding, failing), with
    the failing words added to the set in the order they first violate."""
    n, k = words.shape
    thr = 1 - Fraction(1, s) - Fraction(eps) * s
    rest = (1 - Fraction(eps)) * k
    t_pair_end = math.ceil(rest)
    t_self_last = math.floor(rest)
    n_shifts = max(1, t_pair_end, t_self_last + 1)
    min_pair = [math.inf] * n_shifts
    min_self, worst, failing = math.inf, (0, 0, 0, math.inf), set()
    for t, m in zip(range(n_shifts), shift_counts(words, s)):
        o = k - t
        if n > 1 and t < t_pair_end:
            # max() keeps the first of equal counts: the row-major first pair
            c, i, j = max(
                ((m[i, j], i, j) for i in range(n) for j in range(n) if i != j),
                key=lambda cand: cand[0],
            )
            min_pair[t] = 1.0 - int(c) / o
            if min_pair[t] < worst[3]:
                worst = (i, j, t, min_pair[t])
        if 1 <= t <= t_self_last:
            c, i = max(((m[i, i], i) for i in range(n)), key=lambda cand: cand[0])
            d = 1.0 - int(c) / o
            min_self = min(min_self, d)
            if d < worst[3]:
                worst = (i, i, t, d)
        # distance (o - c)/o < thr  <=>  c > the largest count at thr
        bad = m > math.floor(o * (1 - thr))
        for i, j in zip(*np.nonzero(bad)):
            if 1 <= t <= t_self_last if i == j else t < t_pair_end:
                failing.add(int(max(i, j)))
    return worst, min_pair, min_self, failing


def assert_report_is(rep, words, s, eps):
    worst, min_pair, min_self, failing = reference_report(words, s, eps)
    assert rep.worst_pair == worst
    assert rep.min_pairwise_per_shift.tolist() == min_pair
    assert rep.min_self_sliding == min_self
    # a set iterates in an order that depends on its insertions
    assert list(rep.failing) == list(failing)
    assert rep.passed == (rep.uniform and not failing)


def fft_length(k):
    return 1 << (2 * k - 1).bit_length()


@hst.composite
def small_selections(draw):
    """(s, eps, words): up to 12 exactly uniform words of length k <= 24."""
    s = draw(hst.integers(min_value=2, max_value=4))
    k = s * draw(hst.integers(min_value=1, max_value=24 // s))
    n = draw(hst.integers(min_value=1, max_value=12))
    eps = draw(hst.sampled_from([0.02, 0.05, 1 / 16, 0.1]))
    balanced = [sym for sym in range(s) for _ in range(k // s)]
    return s, eps, [draw(hst.permutations(balanced)) for _ in range(n)]


def budgets(mp, s, k, block, panel):
    """Blocks of `block` words and panels of `panel` rows, so that
    comparisons cross block and panel boundaries."""
    mp.setattr(words_module, "_BLOCK_CORR", block * block * fft_length(k))
    mp.setattr(words_module, "_PANEL_BYTES", panel * s * (fft_length(k) // 2 + 1) * 16)


@settings(max_examples=200, deadline=None)
@given(
    case=small_selections(),
    block=hst.integers(min_value=1, max_value=3),
    panel=hst.integers(min_value=1, max_value=3),
)
# passes at distance exactly 2/5 = 1 - 1/2 - 0.05*2, which float32 puts below
@example(case=(2, 0.05, [[0, 0, 0, 1, 1, 0, 1, 1]]), block=1, panel=1)
# (1 - 0.1)*10 is 9.0 in floats but just below 9 exactly, so the self shift
# t=9 (overlap 1, one match) is out of range
@example(case=(2, 0.1, [[0, 0, 0, 1, 0, 1, 1, 1, 1, 0]]), block=1, panel=1)
# (1 - 1/8)*8 = 7 exactly: t=7 is a self shift but not a pair shift, and
# only pairs match there
@example(
    case=(2, 0.125, [[0, 0, 1, 1, 0, 1, 0, 1], [1, 1, 0, 0, 1, 0, 1, 0]]), block=1, panel=1
)
# blocks {0, 1} and {2}: at the worst shift t=2, pair (1, 0) of the first
# block and pair (0, 2) of the second match equally; (0, 2) comes first
@example(
    case=(2, 0.1, [[0, 1, 1, 0, 0, 0, 1, 1], [1, 0, 0, 0, 1, 1, 0, 1], [1, 1, 0, 1, 1, 0, 0, 0]]),
    block=2,
    panel=3,
)
# panels {0, 1, 2} and {3, 4} cut the blocks {0, 1}, {2}, {3, 4}: word 2
# closes a panel and is a row block of its own
@example(
    case=(
        2,
        0.1,
        [
            [0, 1, 1, 0, 0, 0, 1, 1],
            [1, 0, 0, 0, 1, 1, 0, 1],
            [1, 1, 0, 1, 1, 0, 0, 0],
            [0, 1, 1, 0, 0, 0, 1, 1],
            [0, 1, 0, 1, 0, 1, 0, 1],
        ],
    ),
    block=2,
    panel=3,
)
# panels of 2 rows and blocks of 3 words: the column blocks {2, 3, 4} and
# {4, 5, 6} lie past a panel, and their middle words go unpaired
@example(
    case=(
        2,
        0.1,
        [
            [0, 0, 1, 0, 1, 0, 1, 1],
            [1, 1, 0, 0, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 0, 1, 1],
            [1, 0, 0, 1, 0, 1, 1, 0],
            [0, 1, 1, 1, 0, 0, 1, 0],
            [0, 0, 0, 0, 1, 1, 1, 1],
            [1, 1, 0, 1, 1, 0, 0, 0],
        ],
    ),
    block=3,
    panel=2,
)
# k = 15 = B - 1 for the packing base B = 16: past the one-row panel {0},
# word 0 matches the column pair (1, 2) 15 times and 0 times at t=0
@example(
    case=(
        3,
        0.1,
        [
            [0, 0, 1, 2, 1, 0, 2, 2, 1, 0, 1, 2, 0, 2, 1],
            [0, 0, 1, 2, 1, 0, 2, 2, 1, 0, 1, 2, 0, 2, 1],
            [1, 1, 2, 0, 2, 1, 0, 0, 2, 1, 2, 0, 1, 0, 2],
        ],
    ),
    block=2,
    panel=1,
)
# k = 8 = B/2: the pair (0, 1) of the panel's own spectra packs 8 and 0
# matches at t=0 for row 0, and 0 and 8 for row 1
@example(
    case=(2, 0.1, [[0, 1, 1, 0, 1, 0, 0, 1], [1, 0, 0, 1, 0, 1, 1, 0], [0, 1, 1, 0, 1, 0, 0, 1]]),
    block=2,
    panel=2,
)
# the worst comparison is a word against itself: both words match twice at
# the self shift t=8 (overlap 2), and word 0 comes first
@example(
    case=(2, 0.05, [[1, 0, 1, 1, 0, 0, 0, 1, 1, 0], [0, 0, 1, 1, 1, 1, 1, 0, 0, 0]]),
    block=1,
    panel=1,
)
# at the worst shift t=7 no pair of row 0 matches 3 times, but word 0 does
# against itself: the first maximal pair is (1, 0)
@example(
    case=(2, 0.1, [[1, 0, 1, 1, 0, 0, 0, 1, 0, 1], [1, 0, 1, 1, 0, 0, 1, 0, 1, 0]]),
    block=1,
    panel=1,
)
def test_verify_matches_exact_reference(case, block, panel):
    s, eps, rows = case
    words = np.array(rows, dtype=np.uint8)
    k = words.shape[1]
    sel = WordSelection(alphabet_size=s, k=k, eps=eps, words=words, seed=0, verified=False)
    with pytest.MonkeyPatch.context() as mp:
        budgets(mp, s, k, block, panel)
        rep = verify_selection(sel)
    assert_report_is(rep, words, s, eps)


@pytest.mark.parametrize("panel", [2, 7])
def test_scan_visits_every_count_once(panel, monkeypatch):
    # blocks of 3 words and 9 symbols: column pairs are packed with base 32
    s, k, n = 9, 18, 7
    rng = np.random.Generator(np.random.Philox(3))
    words = np.stack([rng.permutation(np.repeat(np.arange(s, dtype=np.uint8), k // s)) for _ in range(n)])
    sel = WordSelection(alphabet_size=s, k=k, eps=0.1, words=words, seed=0, verified=False)
    budgets(monkeypatch, s, k, 3, panel)
    scan = words_module._ShiftScan(sel)
    seen = {}

    def visit(i, j, m):
        for a, b in np.ndindex(i.shape):
            assert (i[a, b], j[a, b]) not in seen
            seen[i[a, b], j[a, b]] = m[a, b].tolist()

    scan.counts(np.arange(n), n, visit)
    want = list(shift_counts(words, s))[: scan.T]
    assert seen == {(i, j): [int(m[i, j]) for m in want] for i in range(n) for j in range(n)}


def violating_pairs(words, s, eps):
    """The word pairs (i, j), i <= j, of every violating comparison."""
    n, k = words.shape
    rest = (1 - Fraction(eps)) * k
    bound = Fraction(1, s) + Fraction(eps) * s  # the threshold is 1 - bound
    pairs = set()
    for t, m in zip(range(k), shift_counts(words, s)):
        for i, j in zip(*np.nonzero(m > math.floor((k - t) * bound))):
            if (1 <= t <= rest) if i == j else t < rest:
                pairs.add((int(min(i, j)), int(max(i, j))))
    return pairs


@settings(max_examples=200, deadline=None)
@given(
    case=small_selections(),
    block=hst.integers(min_value=1, max_value=3),
    panel=hst.integers(min_value=1, max_value=3),
    data=hst.data(),
)
def test_retry_scan_names_the_failing_words_in_order(case, block, panel, data):
    # a resampling round checks only the comparisons of the redrawn words;
    # when every violating comparison has one, it names the failing words
    # of the full verification, in the same order
    s, eps, rows = case
    words = np.array(rows, dtype=np.uint8)
    n, k = words.shape
    # one word of each violating pair, and any others
    redrawn = {data.draw(hst.sampled_from(pair)) for pair in sorted(violating_pairs(words, s, eps))}
    redrawn |= set(data.draw(hst.lists(hst.integers(0, n - 1), min_size=0 if redrawn else 1)))
    sel = WordSelection(alphabet_size=s, k=k, eps=eps, words=words, seed=0, verified=False)
    with pytest.MonkeyPatch.context() as mp:
        budgets(mp, s, k, block, panel)
        failing = words_module._failing_after(sel, data.draw(hst.permutations(sorted(redrawn))))
    assert list(failing) == list(verify_selection(sel).failing)


def test_failing_iterates_in_scan_order():
    # word 9 repeats word 0 and violates at t=0; word 1 has period 4 and
    # violates against itself at t=4.  9 and 1 share a slot of the set's
    # 8-slot table, so the set iterates 9 first only if 9 was added first.
    rows = [
        "303110313031022321022102",
        "012301230123012301230123",
        "203110002231013321223310",
        "332001030221131312123200",
        "123310130322003021211032",
        "031133321021121002232300",
        "120022321231331010332001",
        "313020231013003212122301",
        "121323210313213020032100",
        "303110313031022321022102",
    ]
    sel = WordSelection.from_text("\n".join(["4 24 10 0.18 0", *rows]))
    rep = verify_selection(sel)
    assert list(rep.failing) == [9, 1, 6]
    assert_report_is(rep, sel.words, 4, 0.18)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_matches_reference_at_scale(seed, monkeypatch):
    # the first round of these seeds fails, so every part of the report,
    # failing words included, is compared across many blocks of 8 words
    first = []
    verify = words_module.verify_selection
    monkeypatch.setattr(
        words_module, "verify_selection", lambda sel: first.append(sel) or verify(sel)
    )
    monkeypatch.setattr(words_module, "_MAX_ROUNDS", 1)
    with pytest.raises(SelectionError):
        sample_selection(s=4, k=500, n_words=40, eps=1 / 16, seed=seed)
    rep = verify(first[0])
    assert rep.failing
    assert_report_is(rep, first[0].words, 4, 1 / 16)


def reference_rounds(s, k, n_words, eps, seed, max_rounds):
    """The sampling rounds of a loop that verifies every comparison in every
    round: yields (selection, report) until a report passes or max_rounds
    reports failed."""
    rng = np.random.Generator(np.random.Philox(seed))

    def fresh(count):
        raw = rng.integers(0, s, size=(count, k), dtype=np.uint16).astype(np.uint8)
        return np.stack([words_module._repair_uniform(w, s, rng) for w in raw])

    words = fresh(n_words)
    for _ in range(max_rounds):
        sel = WordSelection(alphabet_size=s, k=k, eps=eps, words=words, seed=seed, verified=False)
        report = verify_selection(sel)
        yield sel, report
        if report.passed:
            return
        words = words.copy()
        words[list(report.failing)] = fresh(len(report.failing))


def report_fields(rep):
    return (
        rep.threshold,
        rep.uniform,
        rep.min_pairwise_per_shift.tolist(),
        rep.min_self_sliding,
        rep.worst_pair,
        list(rep.failing),  # the iteration order resampling follows
        rep.passed,
    )


# the k = 500 word seeds of the benchmark's rounds 1 and 3, with k a
# multiple of each alphabet size
@pytest.mark.parametrize("seed", [*range(16, 24), *range(48, 56)])
@pytest.mark.parametrize("s, k", [(2, 500), (3, 501), (4, 500)])
def test_retry_rounds_match_full_verification(s, k, seed, monkeypatch):
    rounds = list(reference_rounds(s, k, 40, 1 / 16, seed, 3))
    for max_rounds in (1, 2, 3):
        monkeypatch.setattr(words_module, "_MAX_ROUNDS", max_rounds)
        sel, want = rounds[min(max_rounds, len(rounds)) - 1]
        if want.passed:
            got = sample_selection(s, k, 40, 1 / 16, seed)
            assert np.array_equal(got.words, sel.words) and got.verified
            assert report_fields(got.report) == report_fields(want)
            continue
        with pytest.raises(SelectionError) as err:
            sample_selection(s, k, 40, 1 / 16, seed)
        assert str(err.value) == (
            f"retry budget exhausted after {max_rounds} rounds; worst pair "
            f"(i={want.worst_pair[0]}, j={want.worst_pair[1]}, "
            f"t={want.worst_pair[2]}) at distance {want.worst_pair[3]:.4f} "
            f"< threshold {want.threshold:.4f}"
        )
        assert report_fields(err.value.report) == report_fields(want)


def test_many_round_selection_is_pinned():
    # eight sampling rounds, seven of them retry scans
    text = sample_selection(4, 500, 40, 1 / 16, 19).to_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "53fdd616fe62d5f54b61565c3988f707e1865f64424d4630d6be52e3c9a350b3"


# numpy 2.x imports numpy.ma lazily, on the first np.unique or np.setdiff1d
# call: about 10 ms, inside whatever run makes that call
NO_MASKED_ARRAYS = """
import sys
import numpy as np
if "numpy.ma" in sys.modules:
    print("preloaded")
    raise SystemExit
from slowtorus.diffeo import WordDrivenPhi
from slowtorus.words import sample_selection
phi = WordDrivenPhi(q=4, eps=0.125, word=tuple(i % 5 for i in range(32)), cap_tiles=4)
pts = np.random.Generator(np.random.Philox(0)).random((1000, 2))
phi.inverse(phi.forward(pts))
assert sample_selection(4, 500, 40, 1 / 16, 19).verified  # after seven retry scans
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""


def test_twists_and_retry_rounds_leave_masked_arrays_unloaded():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "preloaded":
        pytest.skip("import numpy alone loads numpy.ma")
    assert proc.stdout.strip() == "[]"


def test_selection_rejects_empty_words():
    message = "word length 0 is not a positive multiple of the alphabet"
    with pytest.raises(ValueError, match=message):
        WordSelection(alphabet_size=2, k=0, eps=0.25, words=np.zeros((2, 0)), seed=0,
                      verified=False)
    with pytest.raises(ValueError, match=message):
        WordSelection.from_text("2 0 2 0.25 1\n")


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.25, 1.5])
def test_selection_rejects_eps_outside_unit_interval(eps):
    # eps >= 1 leaves no shift to verify; eps = 0 would scan every shift
    message = re.escape(f"eps must lie in (0, 1), got {eps}")
    with pytest.raises(ValueError, match=message):
        WordSelection(alphabet_size=2, k=4, eps=eps, words=np.array([[0, 0, 1, 1], [0, 1, 0, 1]]),
                      seed=0, verified=False)
    with pytest.raises(ValueError, match=message):
        WordSelection.from_text(f"2 4 2 {eps!r} 1\n0011\n0101\n")


def test_text_rejects_more_words_than_its_header():
    with pytest.raises(ValueError, match="selection body does not match its header"):
        WordSelection.from_text("2 4 2 0.25 1\n0011\n0101\n1100\n")


@pytest.mark.parametrize("body", ["0011\n010\n", "0011\n01010\n"], ids=["short", "long"])
def test_text_rejects_ragged_body(body):
    with pytest.raises(ValueError, match="selection body does not match its header"):
        WordSelection.from_text("2 4 2 0.25 1\n" + body)


def test_verify_memory_stays_lean():
    # one k=4000 verification: the per-shift one-hot product it replaced
    # peaked at 5.22 MB traced, the blocked FFT at 2.93 MB
    k = 4000
    rng = np.random.default_rng(0)
    words = rng.permuted(np.tile(np.repeat(np.arange(4, dtype=np.uint8), k // 4), (40, 1)), axis=1)
    sel = WordSelection(alphabet_size=4, k=k, eps=1 / 16, words=words, seed=0, verified=False)
    tracemalloc.start()
    try:
        verify_selection(sel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_verify_rejects_symbols_outside_alphabet():
    with pytest.raises(ValueError, match=r"symbol 9 lies outside the alphabet 0\.\.3"):
        verify_selection(WordSelection.from_text("4 4 1 0.1 0\n0129\n"))
    words = np.array([[0, 1, -1, 2]])
    sel = WordSelection(alphabet_size=4, k=4, eps=0.1, words=words, seed=0, verified=False)
    with pytest.raises(ValueError, match=r"symbol -1 lies outside the alphabet 0\.\.3"):
        verify_selection(sel)


def test_verification_is_idempotent():
    sel = sample_selection(s=4, k=64, n_words=8, eps=0.25, seed=7)
    rep = verify_selection(sel)
    assert rep.passed == sel.verified == True  # noqa: E712
    # the selection carries the report of the round that passed
    assert sel.report.min_pairwise == rep.min_pairwise
    assert sel.report.min_self_sliding == rep.min_self_sliding


def test_assemble_example():
    sel = WordSelection(
        alphabet_size=2,
        k=2,
        eps=0.25,
        words=np.array([[0, 1], [1, 0]]),
        seed=0,
        verified=True,
    )
    W = assemble_W(sel, 2)
    assert "".join(map(str, W)) == "01101001"
    assert len(W) == 2 * 2 * 2


def test_assemble_dimension_checks():
    sel = sample_selection(s=2, k=4, n_words=2, eps=0.3, seed=1)
    with pytest.raises(ValueError):
        assemble_W(sel, 4)  # needs 4 words
    with pytest.raises(ValueError):
        assemble_W(sel, 2)  # words must have length q = 2


def test_assemble_shift_permutes_frequencies():
    sel = sample_selection(s=4, k=16, n_words=16, eps=0.25, seed=9)
    W = assemble_W(sel, 16)
    w_bar, w_tilde = W[: 16 * 16], W[16 * 16 :]
    for x in range(4):
        assert np.sum(w_tilde == x) == np.sum(w_bar == (x - 1) % 4)


def test_serialization_roundtrip():
    sel = sample_selection(s=4, k=32, n_words=5, eps=0.25, seed=11)
    text = sel.to_text()
    again = WordSelection.from_text(text)
    assert np.array_equal(again.words, sel.words)
    assert again.alphabet_size == sel.alphabet_size
    assert again.eps == sel.eps
    assert again.seed == sel.seed
    assert verify_selection(again).passed == sel.verified


def test_base36_symbols_roundtrip():
    words = np.array([[0, 10, 20, 30, 35, 1, 11, 21, 31, 2] * 4], dtype=np.uint16)
    # 40 symbols over alphabet 40 won't divide evenly; use 36-symbol alphabet
    words = words[:, :36]
    words = np.array([np.arange(36)])
    sel = WordSelection(
        alphabet_size=36, k=36, eps=0.2, words=words, seed=0, verified=False
    )
    again = WordSelection.from_text(sel.to_text())
    assert np.array_equal(again.words, sel.words)


def test_text_rejects_symbols_beyond_base36():
    sel = WordSelection(
        alphabet_size=40, k=40, eps=0.2, words=np.array([np.arange(40)]), seed=0, verified=False
    )
    with pytest.raises(ValueError, match="symbol 39"):
        sel.to_text()


def test_threshold_formula():
    assert separation_threshold(4, 1 / 16) == pytest.approx(0.5)
    assert separation_threshold(2, 0.01) == pytest.approx(0.48)


@settings(max_examples=20, deadline=None)
@given(
    s=hst.integers(min_value=2, max_value=5),
    mult=hst.integers(min_value=2, max_value=8),
    seed=hst.integers(min_value=0, max_value=2**32),
)
def test_repair_gives_exact_uniformity(s, mult, seed):
    k = s * mult
    # eps large enough that the threshold is non-positive: sampling succeeds
    eps = 1.0 / s + 0.01
    sel = sample_selection(s=s, k=k, n_words=3, eps=eps, seed=seed)
    for row in sel.words:
        counts = np.bincount(row, minlength=s)
        assert np.all(counts == k // s)


@pytest.mark.slow
def test_single_round_success_monotone_in_k(monkeypatch):
    # LLN trend: one sampling round (no retries) succeeds more often as k
    # grows; allow one inversion across the 20-seed batches.
    monkeypatch.setattr(words_module, "_MAX_ROUNDS", 1)
    ks = [500, 1000, 2000, 4000]
    rates = []
    for k in ks:
        succ = 0
        for seed in range(20):
            try:
                sample_selection(s=4, k=k, n_words=40, eps=1 / 16, seed=seed)
                succ += 1
            except SelectionError:
                pass
        rates.append(succ / 20.0)
    inversions = sum(1 for a, b in zip(rates, rates[1:]) if b < a)
    assert inversions <= 1, rates
    assert rates[-1] >= rates[0]
