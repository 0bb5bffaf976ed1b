import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from slowtorus.words import (
    SelectionError,
    WordSelection,
    assemble_W,
    hamming_shift,
    sample_selection,
    separation_threshold,
    verify_selection,
)


def test_hamming_shift_examples():
    assert hamming_shift([0, 1, 0, 1], [0, 1, 0, 1], 0) == 0.0
    assert hamming_shift([0, 1, 0, 1], [1, 0, 1, 0], 0) == 1.0
    # periodic word against itself at its period: zero distance
    w = [0, 1, 2, 0, 1, 2]
    assert hamming_shift(w, w, 3) == 0.0


def test_hamming_shift_bounds():
    with pytest.raises(ValueError):
        hamming_shift([0, 1], [0, 1], 2)


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


def reference_failing(words, s, eps):
    """Later word of every violating (i, j, t), from integer match counts
    and Fraction distances, over the shift ranges of verify_selection."""
    n, k = words.shape
    thr = 1 - Fraction(1, s) - Fraction(eps) * s
    rest = (1 - Fraction(eps)) * k
    t_pair_end = math.ceil(rest)
    t_self_last = math.floor(rest)
    bad = set()
    for i, j, t in itertools.product(range(n), range(n), range(k)):
        if not (1 <= t <= t_self_last if i == j else t < t_pair_end):
            continue
        matches = sum(int(a == b) for a, b in zip(words[i, : k - t], words[j, t:]))
        if Fraction(k - t - matches, k - t) < thr:
            bad.add(max(i, j))
    return bad


@hst.composite
def small_selections(draw):
    """(s, eps, words): up to 4 exactly uniform words of length k <= 24."""
    s = draw(hst.integers(min_value=2, max_value=4))
    k = s * draw(hst.integers(min_value=1, max_value=24 // s))
    n = draw(hst.integers(min_value=1, max_value=4))
    eps = draw(hst.sampled_from([0.02, 0.05, 1 / 16, 0.1]))
    balanced = [sym for sym in range(s) for _ in range(k // s)]
    return s, eps, [draw(hst.permutations(balanced)) for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(case=small_selections())
# passes at distance exactly 2/5 = 1 - 1/2 - 0.05*2, which float32 puts below
@example(case=(2, 0.05, [[0, 0, 0, 1, 1, 0, 1, 1]]))
# (1 - 0.1)*10 is 9.0 in floats but just below 9 exactly, so the self shift
# t=9 (overlap 1, one match) is out of range
@example(case=(2, 0.1, [[0, 0, 0, 1, 0, 1, 1, 1, 1, 0]]))
def test_verify_matches_exact_reference(case):
    s, eps, rows = case
    words = np.array(rows, dtype=np.uint8)
    k = words.shape[1]
    sel = WordSelection(alphabet_size=s, k=k, eps=eps, words=words, seed=0, verified=False)
    rep = verify_selection(sel)
    want = reference_failing(words, s, eps)
    assert rep.failing == want
    assert rep.passed == (not want)


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
    again = WordSelection.from_text(text, verify=True)
    assert np.array_equal(again.words, sel.words)
    assert again.alphabet_size == sel.alphabet_size
    assert again.eps == sel.eps
    assert again.seed == sel.seed
    assert again.verified == sel.verified


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
def test_single_round_success_monotone_in_k():
    # LLN trend: one sampling round (no retries) succeeds more often as k
    # grows; allow one inversion across the 20-seed batches.
    ks = [500, 1000, 2000, 4000]
    rates = []
    for k in ks:
        succ = 0
        for seed in range(20):
            try:
                sample_selection(s=4, k=k, n_words=40, eps=1 / 16, seed=seed, max_rounds=1)
                succ += 1
            except SelectionError:
                pass
        rates.append(succ / 20.0)
    inversions = sum(1 for a, b in zip(rates, rates[1:]) if b < a)
    assert inversions <= 1, rates
    assert rates[-1] >= rates[0]
