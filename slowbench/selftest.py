"""Self-test of the output checks: genuine outputs pass, corrupted ones fail.

Usage (from the root of a checkout): python3 slowbench/selftest.py

It runs one small `slowtorus run` (the README chain with a short horizon
cap) and one small word selection, then feeds the checks those outputs and
copies corrupted on purpose: a changed count, a changed hamming row, a
changed pol ratio, a failed witness line, a selection with a violating
pair, a non-uniform word, a map that is not area-preserving and outputs
that differ between two runs.  Exits 0 when every corruption is rejected
and every genuine output accepted.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import sys
from pathlib import Path

for _var in ("SLOWTORUS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(Path.cwd() / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import plan  # noqa: E402

SMALL_RUN = dict(plan.README_CONFIG, horizon_cap=64, hamming_samples=800, seed=11)


class Skew:
    """(x, y) -> (x, 1.5 y): invertible on its range, not area-preserving."""

    kind = "skew"

    def forward(self, p):
        return np.stack([p[:, 0], (1.5 * p[:, 1]) % 1.0], axis=1)

    def inverse(self, p):
        return np.stack([p[:, 0], p[:, 1] / 1.5], axis=1)

    def smoothness_margin(self, p):
        return np.full(len(p), 1.0)


def _rewrite(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    if old not in text:
        raise AssertionError(f"{path.name} holds no {old!r} to corrupt")
    path.write_text(text.replace(old, new, 1))


def main() -> int:
    from slowtorus import cli, words

    work = BENCH / "scratch" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    ops = plan.write_configs([plan.run_op("run", SMALL_RUN)], work / "configs")
    os.chdir(work)
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(ops[0]["argv"]) != 0:
            raise AssertionError("small run failed")
    results: list[tuple[str, bool, bool]] = []  # (case, want_pass, passed)

    def case(name: str, want_pass: bool, errs: list[str]) -> None:
        results.append((name, want_pass, not errs))

    def run_case(name: str, want_pass: bool, corrupt=None) -> None:
        out = work / f"out_{name}"
        shutil.copytree(work / "out", out)
        if corrupt:
            corrupt(out)
        case(name, want_pass, checks.check_run(ops[0], out, untwisted=True))

    run_case("genuine run", True)
    run_case("changed Bowen count", False,
             lambda o: _rewrite(o / "raw_counts.csv", "2,8,8,0.125,cover,72", "2,8,8,0.125,cover,73"))
    run_case("changed separated count", False,
             lambda o: _rewrite(o / "raw_counts.csv", "2,8,8,0.125,separated,72",
                                "2,8,8,0.125,separated,71"))
    hamming = next(ln for ln in (work / "out" / "raw_counts.csv").read_text().splitlines()
                   if ",hamming," in ln)
    bumped = hamming.rsplit(",", 1)[0] + "," + str(int(hamming.rsplit(",", 1)[1]) + 1)
    run_case("changed hamming count", False,
             lambda o: _rewrite(o / "raw_counts.csv", hamming, bumped))
    run_case("failed witness line", False,
             lambda o: _rewrite(o / "summary.txt", "witness separation pass", "witness separation FAIL"))

    counts = [(2, 64, 0.125, "separated", 10), (2, 64, 0.125, "cover", 10),
              (2, 64, 0.125, "hamming", 5), (2, 64, 0.125, "hamming", 5)]
    case("duplicate hamming rows agree", True, checks.check_counts(counts))
    case("hamming rows disagree", False, checks.check_counts(counts[:3] + [(2, 64, 0.125, "hamming", 6)]))
    case("separated > cover", False,
         checks.check_counts([(2, 64, 0.125, "separated", 11), (2, 64, 0.125, "cover", 10)]))
    case("separated(2e) > cover(e)", False, checks.check_counts(
        [(2, 64, 0.25, "separated", 12), (2, 64, 0.25, "cover", 12),
         (2, 64, 0.125, "separated", 11), (2, 64, 0.125, "cover", 11)]))
    pol = {"stage": "2", "horizon": "64", "eps": "0.125", "count_kind": "cover", "count": "10",
           "family": "pol", "t": "0.5", "log_ratio": repr(math.log(10) - 0.5 * math.log(64))}
    raw = [(2, 64, 0.125, "cover", 10)]
    case("genuine pol row", True, checks.check_pol_rows([pol], raw))
    case("changed pol ratio", False, checks.check_pol_rows([dict(pol, log_ratio="0.25")], raw))

    sel = words.sample_selection(s=4, k=500, n_words=40, eps=0.0625, seed=0)
    genuine = {"s": 4, "k": 500, "n": 40, "eps": 0.0625, "seed": 0,
               "words": np.asarray(sel.words, dtype=np.int64)}
    case("genuine selection", True, checks.check_selection(genuine, sel.verified))
    pair = dict(genuine, words=genuine["words"].copy())
    pair["words"][1] = pair["words"][0]
    case("selection with a violating pair", False, checks.check_selection(pair, True))
    skew = dict(genuine, words=genuine["words"].copy())
    skew["words"][0, np.flatnonzero(skew["words"][0] == 1)[0]] = 0
    case("non-uniform word", False, checks.check_selection(skew, True))
    case("wrong verified flag", False, checks.check_selection(genuine, False))

    case("area-changing map", False, checks.check_map(Skew(), seed=1))
    case("outputs differ between runs", False,
         checks.compare_digests({"out/a": "00"}, {"out/a": "01"}, "two runs"))

    bad = [(name, want) for name, want, got in results if got != want]
    for name, want, got in results:
        print(f"{'ok  ' if got == want else 'FAIL'} {name}: {'accepted' if got else 'rejected'}")
    shutil.rmtree(work, ignore_errors=True)
    print(f"{len(results) - len(bad)}/{len(results)} cases as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
