"""Checks of the program's outputs, computed apart from the program.

Each check returns a list of error strings; an empty list is a pass.  The
checks take parsed data, so `selftest.py` can feed them corrupted copies.
The program supplies only the map H of each stage system (the object the
counts describe); orbits, greedy sets, Hamming words, match counts and
thresholds are all recomputed here with exact integer or rational
comparisons where the definitions allow.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# parsing


def read_table(path: Path) -> list[dict]:
    """Rows of a header-echoed CSV file as dicts of strings."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def raw_counts(rows: list[dict]) -> list[tuple]:
    """(stage, horizon, eps, kind, count) from raw_counts.csv rows."""
    return [
        (int(r["stage"]), int(r["horizon"]), float(r["eps"]), r["count_kind"], int(r["count"]))
        for r in rows
    ]


def parse_selection(text: str) -> dict:
    """A selection file: header lines, then "s k n eps seed", then words."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    s, k, n, eps, seed = lines[0].split()
    words = np.array([[int(c, 36) for c in ln.strip()] for ln in lines[1:]], dtype=np.int64)
    return {"s": int(s), "k": int(k), "n": int(n), "eps": float(eps), "seed": int(seed),
            "words": words}


# ---------------------------------------------------------------------------
# count tables


def check_counts(counts: list[tuple]) -> list[str]:
    """separated <= cover at every (stage, horizon, eps); separated(2e) <=
    cover(e) where both radii were run; all hamming rows of a stage agree."""
    errs = []
    by_key = {(st, h, e, kind): c for st, h, e, kind, c in counts}
    for (st, h, e, kind), c in by_key.items():
        if kind != "separated":
            continue
        cov = by_key.get((st, h, e, "cover"))
        if cov is None:
            errs.append(f"stage {st} horizon {h} eps {e}: separated row has no cover row")
        elif c > cov:
            errs.append(f"stage {st} horizon {h} eps {e}: separated {c} > cover {cov}")
        cov_half = by_key.get((st, h, e / 2, "cover"))
        if cov_half is not None and c > cov_half:
            errs.append(
                f"stage {st} horizon {h}: separated({e}) {c} > cover({e / 2}) {cov_half}"
            )
    hamming: dict = {}
    for st, _h, _e, kind, c in counts:
        if kind == "hamming":
            hamming.setdefault(st, set()).add(c)
    for st, values in hamming.items():
        if len(values) != 1:
            errs.append(f"stage {st}: hamming rows disagree: {sorted(values)}")
    return errs


def check_pol_rows(ratio_rows: list[dict], counts: list[tuple]) -> list[str]:
    """Every counts.csv row carries the raw count of its key, and each `pol`
    row's log_ratio is log(count) - t*log(m)."""
    errs = []
    by_key = {(st, h, e, kind): c for st, h, e, kind, c in counts}
    n_pol = 0
    for r in ratio_rows:
        key = (int(r["stage"]), int(r["horizon"]), float(r["eps"]), r["count_kind"])
        count = int(r["count"])
        if by_key.get(key) != count:
            errs.append(f"counts.csv row {key} has count {count}, raw count {by_key.get(key)}")
        if r["family"] != "pol":
            continue
        n_pol += 1
        m, t = int(r["horizon"]), float(r["t"])
        want = math.log(max(count, 1)) - t * math.log(m)
        got = float(r["log_ratio"])
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            errs.append(f"pol row {key} t={t}: log_ratio {got!r} != {want!r}")
    if n_pol == 0:
        errs.append("counts.csv has no pol rows")
    return errs


def check_witness(summary: str) -> list[str]:
    """Every witness line of the summary is a pass with count == expected."""
    lines = [ln for ln in summary.splitlines() if "witness separation" in ln]
    if not lines:
        return ["summary has no witness line"]
    errs = []
    for ln in lines:
        m = re.search(r"witness separation (\S+) .*\(count=(\d+), expected=(\d+)", ln)
        if m is None or m.group(1) != "pass" or m.group(2) != m.group(3):
            errs.append(f"witness line not a pass with count == expected: {ln!r}")
    return errs


# ---------------------------------------------------------------------------
# independent orbits, Bowen greedy and Hamming cover


def rotation_offsets(alpha: Fraction, n_time: int) -> np.ndarray:
    """t * alpha mod 1 for t < n_time, reduced exactly before rounding."""
    return np.array([float((t * alpha) % 1) for t in range(n_time)])


def orbits(H, alpha: Fraction, pts: np.ndarray, n_time: int):
    """Yield T^t(pts) = H(R^t(H^-1 pts)) for t < n_time."""
    u = H.inverse(pts)
    cur = np.empty_like(u)
    for off in rotation_offsets(alpha, n_time):
        x = u[:, 0] + off
        cur[:, 0] = x - np.floor(x)
        cur[:, 1] = u[:, 1]
        yield H.forward(cur)


def _circle(d: np.ndarray) -> np.ndarray:
    d = np.abs(d)
    return np.minimum(d, 1.0 - d)


def bowen_separated_count(H, alpha: Fraction, grid: int, n_time: int, eps: float) -> int:
    """Plain greedy packing: scan grid midpoints row by row and keep a point
    iff its Bowen distance to every kept point is >= eps."""
    mids = (np.arange(grid) + 0.5) / grid
    pts = np.array([(x, y) for y in mids for x in mids])
    orb = np.stack(list(orbits(H, alpha, pts, n_time)))  # (T, N, 2)
    kept: list[int] = []
    for c in range(len(pts)):
        if kept:
            d = _circle(orb[:, kept, :] - orb[:, c : c + 1, :]).max(axis=(0, 2))
            if d.min() < eps:
                continue
        kept.append(c)
    return len(kept)


def hamming_words(H, alpha: Fraction, pts: np.ndarray, n_time: int, cells: int) -> np.ndarray:
    """(samples, n_time) cell labels i*cells + j of the cells*cells grid."""
    out = np.empty((len(pts), n_time), dtype=np.uint8)
    for t, p in enumerate(orbits(H, alpha, pts, n_time)):
        xy = p - np.floor(p)
        ij = np.minimum(np.floor(xy * cells).astype(np.int64), cells - 1)
        out[:, t] = ij[:, 0] * cells + ij[:, 1]
    return out


def hamming_ball_count(words: np.ndarray, eps: Fraction) -> tuple[int, Fraction]:
    """Greedy Hamming cover with integer mismatch counts: open a ball at the
    first uncovered word, cover words with mismatches < eps*T, stop once at
    least (1 - eps) of the words are covered.  Returns (balls, covered)."""
    n, T = words.shape
    radius = eps * T
    covered = np.zeros(n, dtype=bool)
    n_cov = balls = 0
    for c in range(n):
        if n_cov >= (1 - eps) * n:
            break
        if covered[c]:
            continue
        unc = np.flatnonzero(~covered)
        mism = np.count_nonzero(words[unc] != words[c], axis=1)
        new = unc[mism * radius.denominator < radius.numerator]
        covered[new] = True
        n_cov += len(new)
        balls += 1
    return balls, Fraction(n_cov, n)


# ---------------------------------------------------------------------------
# word selections


def match_counts(words: np.ndarray, s: int):
    """Yield (i, m_i) with m_i[j, t] = #{p : w_i[p] == w_j[p + t]} for
    0 <= t < k, as exact integers from per-symbol cross-correlations."""
    n, k = words.shape
    size = 1 << (2 * k - 1).bit_length()
    spec = [np.fft.rfft((words == a).astype(float), size) for a in range(s)]
    for i in range(n):
        acc = sum(np.conj(f[i]) * f for f in spec)
        corr = np.fft.irfft(acc, size)[:, :k]
        m = np.rint(corr)
        if np.abs(corr - m).max() > 0.25:
            raise ArithmeticError("cross-correlation too inexact to round")
        yield i, m.astype(np.int64)


def selection_verdict(sel: dict) -> tuple[bool, list[str]]:
    """Exact verdict for a selection: every word holds each symbol k/s
    times, and for every ordered pair i != j and shift t < (1-eps)k, and for
    every word against itself at 1 <= t <= (1-eps)k, the Hamming distance
    over the overlap k - t is at least 1 - 1/s - eps*s."""
    s, k, eps = sel["s"], sel["k"], Fraction(sel["eps"])
    words = sel["words"]
    reasons = []
    if words.shape != (sel["n"], k):
        return False, [f"selection body is {words.shape}, header says ({sel['n']}, {k})"]
    for i, w in enumerate(words):
        if not np.array_equal(np.bincount(w, minlength=s), np.full(s, k // s)):
            reasons.append(f"word {i} is not exactly uniform")
    # distance >= thr  <=>  matches <= overlap * (1/s + eps*s)
    limit = Fraction(1, s) + eps * s
    t = np.arange(k)
    overlap = k - t
    span = (1 - eps) * k
    pair_t = t < span
    self_t = (t >= 1) & (t <= span)
    bad_pairs, bad_self = [], []
    for i, m in match_counts(words, s):
        bad = m * limit.denominator > overlap * limit.numerator  # (n, k)
        self_bad = bad[i] & self_t
        bad[i] = False
        for j, tt in np.argwhere(bad & pair_t):
            bad_pairs.append((i, int(j), int(tt)))
        if self_bad.any():
            bad_self.append(i)
    if bad_pairs:
        i, j, tt = bad_pairs[0]
        reasons.append(f"{len(bad_pairs)} violating pair/shifts, first (i={i}, j={j}, t={tt})")
    if bad_self:
        reasons.append(f"words {bad_self[:5]} violate self-separation")
    return not reasons, reasons


def check_selection(sel: dict, claimed: bool) -> list[str]:
    passed, reasons = selection_verdict(sel)
    if passed != claimed:
        return [f"program says verified={claimed}, exact check says {passed}: {reasons}"]
    return []


# ---------------------------------------------------------------------------
# maps


def leaf_nodes(node) -> list:
    subs = getattr(node, "nodes", None)
    if subs is None:
        return [node]
    return [leaf for sub in subs for leaf in leaf_nodes(sub)]


def check_map(H, seed: int, n_points: int = 4096) -> list[str]:
    """inverse(forward(p)) == p on seeded points, and det DF ~ 1 for every
    node of the stack by central differences at points at least 10 steps
    away from the node's seams."""
    errs = []
    pts = np.random.Generator(np.random.Philox(seed)).random((n_points, 2))
    back = H.inverse(H.forward(pts))
    err = _circle(back - pts).max()
    # the word-driven stack stretches by up to ~4e6, so float64 roundoff
    # alone reaches ~2e-8 there
    if not err < 1e-7:
        errs.append(f"roundtrip error {err:.3g} >= 1e-7")
    for node in leaf_nodes(H):
        margin = node.smoothness_margin(pts)
        # the largest step that leaves 5% of the points 10 steps from a seam
        for h in (1e-7, 1e-8):
            keep = margin > 10 * h
            if keep.sum() >= n_points // 20:
                break
        else:
            errs.append(f"{node.kind}: only {int(keep.sum())} points away from seams")
            continue
        p = pts[keep]
        ex, ey = np.array([h, 0.0]), np.array([0.0, h])
        fx = node.forward(p + ex) - node.forward(p - ex)
        fy = node.forward(p + ey) - node.forward(p - ey)
        fx -= np.round(fx)
        fy -= np.round(fy)
        det = (fx[:, 0] * fy[:, 1] - fy[:, 0] * fx[:, 1]) / (4 * h * h)
        worst = np.abs(det - 1).max()
        if not worst < 1e-3:
            errs.append(f"{node.kind}: |det DF - 1| reaches {worst:.3g} (step {h})")
    return errs


# ---------------------------------------------------------------------------
# determinism


def digest_tree(root: Path, names: list[str]) -> dict:
    """sha256 of every file under root/<name> for the given output names."""
    out = {}
    for name in names:
        base = root / name
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def compare_digests(a: dict, b: dict, what: str) -> list[str]:
    if a == b:
        return []
    diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return [f"{what}: outputs differ in {diff}"]


# ---------------------------------------------------------------------------
# one benchmark run


def check_outputs(ops: list[dict], rounds: list[dict], workload: str) -> list[str]:
    """All checks on the first round's outputs of every operation that did
    not fail."""
    errs = []
    rdir = Path(rounds[0]["dir"])
    for op, res in zip(ops, rounds[0]["ops"]):
        if res["rc"] != 0:
            continue
        if op["kind"] == "run":
            found = check_run(op, rdir / op["config"]["outdir"], workload == "untwisted-desk")
        else:
            found = check_words(op, rdir / op["name"], res["stdout"])
        errs += [f"{op['name']}: {e}" for e in found]
    return errs


def check_run(op: dict, out: Path, untwisted: bool) -> list[str]:
    import plan
    from slowtorus.cli import load_config

    cfg = load_config(op["config_path"], {})
    counts = raw_counts(read_table(out / "raw_counts.csv"))
    errs = check_counts(counts) + check_pol_rows(read_table(out / "counts.csv"), counts)
    summary = (out / "summary.txt").read_text()
    if untwisted:
        errs += check_witness(summary)
    by_key = {(st, h, e, kind): c for st, h, e, kind, c in counts}
    for st, system, selection in plan.stage_systems(cfg):
        H, alpha = system.H, system.alpha_next
        for eps in cfg.eps_list:
            for h in (1, st.q):
                want = bowen_separated_count(H, alpha, cfg.grid, h, eps)
                for kind in ("separated", "cover"):
                    got = by_key.get((st.n, h, eps, kind))
                    if got != want:
                        errs.append(f"stage {st.n} h={h} eps={eps}: {kind} {got}, recount {want}")
        T = max(plan.resolve_horizon(h, st, cfg.horizon_cap) for h in cfg.horizons)
        eps_h = max(cfg.eps_list)
        pts = np.random.Generator(np.random.Philox(cfg.seed)).random((cfg.hamming_samples, 2))
        words = hamming_words(H, alpha, pts, T, cfg.hamming_partition)
        balls, covered = hamming_ball_count(words, Fraction(eps_h))
        rows = [c for (n, h, e, kind), c in by_key.items() if kind == "hamming" and n == st.n]
        if not rows or by_key.get((st.n, T, eps_h, "hamming")) != balls:
            errs.append(f"stage {st.n}: hamming rows {rows} at T={T}, recount {balls}")
        if covered < 1 - Fraction(eps_h):
            errs.append(f"stage {st.n}: recount covers only {float(covered)} of the samples")
        errs += [f"stage {st.n} map: {e}" for e in check_map(H, seed=cfg.seed + st.n)]
        if selection is not None:
            sel = parse_selection((out / f"selection_stage{st.n}.txt").read_text())
            m = re.search(rf"stage {st.n}: word selection verified=(\w+)", summary)
            errs += check_selection(sel, m is not None and m.group(1) == "True")
    return errs


def check_words(op: dict, out: Path, stdout: str) -> list[str]:
    import plan

    sel = parse_selection((out / "selection.txt").read_text())
    want = (plan.WORDS_ALPHABET, op["k"], plan.WORDS_COUNT, plan.WORDS_EPS)
    if (sel["s"], sel["k"], sel["n"], sel["eps"]) != want:
        return [f"selection header {(sel['s'], sel['k'], sel['n'], sel['eps'])} != {want}"]
    claimed = "verified=True" in stdout
    report = (out / "selection_report.txt").read_text()
    errs = []
    if (f"passed={claimed}" not in report.splitlines()):
        errs.append(f"selection_report.txt disagrees with verified={claimed}")
    return errs + check_selection(sel, claimed)


def check_determinism(ops: list[dict], rounds: list[dict], store: Path, key: str) -> list[str]:
    """Every round wrote the same bytes, and so did every earlier run of the
    same workload and seed on the same sources (kept in `store`)."""
    names = [op["config"]["outdir"] if op["kind"] == "run" else op["name"] for op in ops]
    digests = [digest_tree(Path(r["dir"]), names) for r in rounds]
    errs = []
    for i, d in enumerate(digests[1:], 1):
        errs += compare_digests(digests[0], d, f"round {i} vs round 0")
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{key}.json"
    if path.exists():
        errs += compare_digests(json.loads(path.read_text()), digests[0], "earlier run")
    elif not errs:
        path.write_text(json.dumps(digests[0], indent=1, sort_keys=True) + "\n")
    return errs
