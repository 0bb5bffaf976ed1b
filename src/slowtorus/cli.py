"""Batch experiment runner.

Subcommands: params, run, plotdata, words, norms, describe.  A JSON config
file drives everything; command-line flags override config fields, which
override defaults.  Outputs are deterministic given (config, seed) and every
file echoes the config hash.  Exit codes: 0 success, 2 validation failure,
3 budget exceeded, 4 construction error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence, Union, get_args, get_origin, get_type_hints

from . import complexity as cx
from . import diffeo, normest, params, reporting, scaling, words
from .experiments import BuiltChain, build_systems
from .params import CustomStep, ParamProfile

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_CONSTRUCTION = 4


class ConfigError(ValueError):
    """A config file cannot be read, holds no JSON object, names fields
    ExperimentConfig does not have, or holds a value of the wrong type."""


@dataclass(frozen=True)
class ExperimentConfig:
    construction: str = "untwisted"
    regime: str = "custom"
    q1: int = 2
    r: int = 4
    K: int = 2
    relax_eps: bool = True
    kl_schedule: tuple[tuple[int, int, int], ...] = ((1, 2, 4), (1, 64, 8), (1, 1, 64))
    n_min: int = 2
    n_max: int = 2
    grid: int = 32
    horizons: tuple[Union[str, int], ...] = ("1", "q", "q_next")
    eps_list: tuple[float, ...] = (0.125,)
    families: tuple[tuple[str, int, int], ...] = (("int1", 4, 2), ("pol", 0, 0))
    t_grid: tuple[float, ...] = (0.5, 1.0)
    seed: int = 0
    outdir: str = "out"
    max_orbit_evals: float = 1e9
    horizon_cap: int = 4096
    hamming_samples: int = 2000
    hamming_partition: int = 8
    word_eps: float = 0.25
    sigma: Optional[float] = None
    cap_tiles: int = 64

    def profile(self) -> ParamProfile:
        return ParamProfile(
            regime=self.regime,
            q1=self.q1,
            r=self.r,
            K=self.K,
            relax_eps=self.relax_eps,
            custom=tuple(CustomStep(*step) for step in self.kl_schedule),
        )

    def scale_families(self) -> list[scaling.ScalingFamily]:
        return [scaling.ScalingFamily(*fam) for fam in self.families]


def load_config(path: Optional[str], overrides: dict) -> ExperimentConfig:
    data: dict = {}
    if path:
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # missing, unreadable or not JSON
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} must hold a JSON object, not {type(loaded).__name__}")
        data.update(loaded)
    data.update({k: v for k, v in overrides.items() if v is not None})
    types = get_type_hints(ExperimentConfig)
    for key, tp in types.items():
        if get_origin(tp) is tuple and isinstance(data.get(key), list):
            data[key] = tuple(tuple(v) if isinstance(v, list) else v for v in data[key])
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for key, value in data.items():
        tp = types[key]
        if not _has_type(value, tp):
            want = tp.__name__ if isinstance(tp, type) else str(tp).replace("typing.", "")
            raise ConfigError(f"config field {key} must be {want}, got {value!r}")
    if data.get("seed", 0) < 0:
        raise ConfigError(f"seed must be >= 0, got {data['seed']}")
    return ExperimentConfig(**data)


def _has_type(value, tp) -> bool:
    """Whether a loaded value already is of the annotated type tp; an int
    stands for a float, a bool for neither."""
    args = get_args(tp)
    if get_origin(tp) is Union:
        return any(_has_type(value, t) for t in args)
    if get_origin(tp) is tuple:
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:  # tuple[T, ...]
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_has_type, value, args))
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else tp)


# horizons named by the stage they are read from
_STAGE_HORIZONS = {
    "q": lambda st: st.q,
    "q_next": lambda st: st.q_next,
    "lq": lambda st: st.l_prime * st.q,
}


def _parse_horizons(cfg: ExperimentConfig) -> list[Callable[[params.StageParams], int]]:
    """One function of the stage per configured horizon; ValueError on an
    empty list, a name that is not a horizon, or a horizon or cap below 1."""
    if not cfg.horizons:
        raise ValueError("horizons must not be empty")
    out = []
    for h in cfg.horizons:
        if h in _STAGE_HORIZONS:
            out.append(_STAGE_HORIZONS[h])
            continue
        try:
            m = int(h)
        except ValueError:
            raise ValueError(f"unknown horizon {h!r}: use q, q_next, lq or an integer") from None
        if m < 1:
            raise ValueError("horizons and horizon_cap must be >= 1")
        out.append(lambda st, m=m: m)
    if cfg.horizon_cap < 1:
        raise ValueError("horizons and horizon_cap must be >= 1")
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_params(cfg: ExperimentConfig) -> int:
    try:
        profile = cfg.profile()
        chain = params.build_chain(profile, cfg.n_max)
    except params.ProfileError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    report = params.validate_chain(chain, profile)
    outdir = Path(cfg.outdir)
    reporting.write_with_header(outdir / "chain.json", cfg, params.chain_to_json(chain))
    body = "\n".join(report.lines()) + f"\npassed={report.passed}"
    reporting.write_with_header(outdir / "validation.txt", cfg, body)
    if not report.passed:
        for r in report.failures():
            print(f"validation failure: stage {r.stage} {r.name}: {r.detail}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"chain of {len(chain)} stages written to {outdir / 'chain.json'}")
    return EXIT_OK


def _build_or_report(cfg: ExperimentConfig) -> Optional[BuiltChain]:
    """The configured chain and stage maps, or None after printing the
    construction error."""
    try:
        return build_systems(
            cfg.construction,
            cfg.profile(),
            cfg.n_max,
            seed=cfg.seed,
            word_eps=cfg.word_eps,
            sigma=cfg.sigma,
            cap_tiles=cfg.cap_tiles,
        )
    except (diffeo.ConstructionError, words.SelectionError, ValueError) as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return None


def _budget_estimate(
    cfg: ExperimentConfig, stages: Sequence[params.StageParams], horizons: dict[int, list[int]]
) -> float:
    """Orbit evaluations and witness pair-times of a run.  Per measured
    stage: the grid and the Hamming samples, each followed to the stage's
    largest horizon, and for an untwisted run the pairs of the witness points
    (at most cx.WITNESS_POINTS), each compared at min(q_next, horizon_cap)
    times.  Every time up to the horizon is counted, so this is an upper
    bound: the counts read only the times below one symmetry period (see
    complexity)."""
    est = 0
    for st in stages:
        est += (cfg.grid * cfg.grid + cfg.hamming_samples) * max(horizons[st.n])
        if cfg.construction == "untwisted":
            wit = cx.witness_set(st.q, float(st.eps), cfg.eps_list[0])
            est += math.comb(min(len(wit), cx.WITNESS_POINTS), 2) * min(st.q_next, cfg.horizon_cap)
    return float(est)


def cmd_run(cfg: ExperimentConfig, force: bool = False) -> int:
    try:
        if not cfg.eps_list:
            raise ValueError("eps_list must not be empty")
        for eps in cfg.eps_list:
            cx.check_grid(cfg.grid, eps)
        cx.check_samples(cfg.hamming_samples, max(cfg.eps_list))
        horizon_fns = _parse_horizons(cfg)
        part = cx.GridPartition(cfg.hamming_partition, cfg.hamming_partition)
        fams = [(fam, list(cfg.t_grid)) for fam in cfg.scale_families()]
        if any(t <= 0 for t in cfg.t_grid):
            raise scaling.ScaleDomainError(f"t_grid must be positive, got {list(cfg.t_grid)}")
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    built = _build_or_report(cfg)
    if built is None:
        return EXIT_CONSTRUCTION
    outdir = Path(cfg.outdir)
    stages = zip(built.chain, built.selections)
    measured = [(st, sel) for st, sel in stages if cfg.n_min <= st.n <= cfg.n_max]
    horizons = {
        st.n: sorted({min(h(st), cfg.horizon_cap) for h in horizon_fns}) for st, _ in measured
    }
    # the report normalizes every count at a horizon >= 2 by each family
    try:
        for m in sorted({m for hs in horizons.values() for m in hs if m >= 2}):
            for fam, ts in fams:
                for t in ts:
                    scaling.eval_log(fam, m, t)
    except scaling.ScaleDomainError as exc:
        print(
            f"validation failure: scale family {fam.label()} at horizon {m}: {exc}",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    est = _budget_estimate(cfg, [st for st, _ in measured], horizons)
    if est > cfg.max_orbit_evals and not force:
        print(
            f"budget exceeded: estimated {est:.3g} orbit evaluations and witness pair-times "
            f"> {cfg.max_orbit_evals:.3g} (use --force to override)",
            file=sys.stderr,
        )
        return EXIT_BUDGET

    records: list[cx.CountRecord] = []
    summary: list[str] = []
    eps_h = max(cfg.eps_list)
    for st, sel in measured:
        sys_n = built.system(st.n)
        # the stage's orbit array lives only inside bowen_counts, so it is
        # released before the Hamming words are built
        counts = cx.bowen_counts(sys_n, cfg.grid, horizons[st.n], cfg.eps_list)
        for eps in cfg.eps_list:
            for m in horizons[st.n]:
                for kind in ("separated", "cover"):
                    records.append(cx.CountRecord(st.n, st.q, m, eps, kind, counts[m, eps]))
        m = max(horizons[st.n])
        ham = cx.hamming_cover(sys_n, part, m, eps_h, cfg.hamming_samples, cfg.seed)
        records.append(cx.CountRecord(st.n, st.q, m, eps_h, "hamming", ham.count))
        if cfg.construction == "untwisted":
            wit = cx.witness_untwisted(
                sys_n, eps=cfg.eps_list[0], max_horizon=cfg.horizon_cap
            )
            ok = wit.all_separated and wit.count == wit.expected_count
            summary.append(
                f"stage {st.n}: witness separation "
                f"{'pass' if ok else 'FAIL'}{' (partial horizon)' if wit.partial else ''} "
                f"(count={wit.count}, expected={wit.expected_count}, "
                f"min separation={wit.min_pair_separation:.6g})"
            )
        if sel is not None:
            reporting.write_with_header(
                outdir / f"selection_stage{st.n}.txt", cfg, sel.to_text()
            )
            summary.append(
                f"stage {st.n}: word selection verified={sel.verified} "
                f"(s={sel.alphabet_size}, k={sel.k}, N={sel.n_words})"
            )

    if len(records) >= 2:
        report = cx.slow_entropy_report(records, fams)
        reporting.write_csv(outdir / "counts.csv", cfg, cx.RatioRow._fields, report.rows)
        trend_lines = [
            f"{fam},t={t},{kind},eps={eps}: {direction}"
            for (fam, t, kind, eps), direction in sorted(report.trend.items())
        ]
        reporting.write_with_header(outdir / "trends.txt", cfg, "\n".join(trend_lines))
    reporting.write_csv(outdir / "raw_counts.csv", cfg, cx.CountRecord._fields, records)
    reporting.write_with_header(
        outdir / "summary.txt", cfg, "\n".join(summary) if summary else "no stage summaries"
    )
    print(f"run complete: {len(records)} count records in {outdir}")
    return EXIT_OK


def cmd_plotdata(report_files: Sequence[str], outdir: str) -> int:
    # every report is read and every file name checked before anything is written
    files: dict = {}  # curve file name -> body
    manifest = []
    stems = Counter(Path(p).stem for p in report_files)
    for pos, path_str in enumerate(report_files, 1):
        path = Path(path_str)
        # reports that share a stem are told apart by their position
        label = path.stem if stems[path.stem] == 1 else f"{path.stem}-{pos}"
        try:
            text = path.read_text()
        except OSError as exc:
            print(f"validation failure: cannot read report {path}: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        if not lines:
            continue
        header = lines[0].split(",")
        required = {"stage", "horizon", "eps", "family", "t", "log_ratio", "count_kind"}
        if not required.issubset(header):
            missing = sorted(required - set(header))
            print(f"validation failure: {path}: missing columns {missing}", file=sys.stderr)
            return EXIT_VALIDATION
        idx = {name: header.index(name) for name in header}
        curves: dict = {}
        for ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) < len(header):
                print(
                    f"validation failure: {path}: row {ln!r} has {len(cells)} of "
                    f"{len(header)} columns",
                    file=sys.stderr,
                )
                return EXIT_VALIDATION
            key = tuple(cells[idx[c]] for c in ("family", "t", "count_kind", "eps"))
            curves.setdefault(key, []).append(
                (cells[idx["horizon"]], cells[idx["log_ratio"]])
            )
        for (fam, t, kind, eps), rows in sorted(curves.items()):
            safe_fam = fam.replace(",", "_").replace("=", "")
            name = f"curve_{label}_{safe_fam}_t{t}_eps{eps}_{kind}.dat"
            if name in files:
                print(f"validation failure: {path}: {name} is written twice", file=sys.stderr)
                return EXIT_VALIDATION
            files[name] = "\n".join(f"{m} {v}" for m, v in rows) + "\n"
            manifest.append(
                {"file": name, "source": str(path), "family": fam, "t": t, "kind": kind, "eps": eps}
            )
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, body in files.items():
        (out / name).write_text(body, newline="\n")
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n"
    )
    print(f"{len(manifest)} curve files in {out}")
    return EXIT_OK


def cmd_words(cfg: ExperimentConfig, s: int, k: int, n_words: int, eps: float) -> int:
    try:
        sel = words.sample_selection(s=s, k=k, n_words=n_words, eps=eps, seed=cfg.seed)
    except ValueError as exc:  # rejected arguments, raised before any sampling
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except words.SelectionError as exc:
        print(f"selection failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    outdir = Path(cfg.outdir)
    reporting.write_with_header(outdir / "selection.txt", cfg, sel.to_text())
    rep = sel.report
    body = [
        f"threshold={rep.threshold!r}",
        f"uniform={rep.uniform}",
        f"min_pairwise={rep.min_pairwise!r}",
        f"min_self_sliding={rep.min_self_sliding!r}",
        f"passed={rep.passed}",
    ]
    reporting.write_with_header(outdir / "selection_report.txt", cfg, "\n".join(body))
    print(f"selection of {n_words} words written; verified={sel.verified}")
    return EXIT_OK


_NORM_NODES = {
    "rotation": lambda q, eps: diffeo.Rotation(Fraction(1, q)),
    "quasi_rot": lambda q, eps: diffeo.QuasiRotTiled(q=q, eps=eps),
    "untwisted": lambda q, eps: diffeo.UntwistedH(q=q, eps=eps),
}


def cmd_norms(cfg: ExperimentConfig, node_kind: str, q: int, eps: float, k_max: int) -> int:
    if node_kind not in _NORM_NODES:
        print(f"unknown node kind {node_kind!r}; choose from {sorted(_NORM_NODES)}", file=sys.stderr)
        return EXIT_VALIDATION
    if cfg.grid < 1:
        print(f"validation failure: grid must be >= 1, got {cfg.grid}", file=sys.stderr)
        return EXIT_VALIDATION
    if q < 1:
        print(f"validation failure: q must be >= 1, got {q}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        node = _NORM_NODES[node_kind](q, eps)
    except diffeo.ConstructionError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    rows = []
    for k in range(0, k_max + 1):
        est = normest.triple_norm(node, k, grid=cfg.grid)
        rows.append(
            (
                f"{node_kind}(q={q},eps={eps})",
                k,
                est.value,
                est.grid,
                est.fd_step,
                est.excluded_fraction,
            )
        )
    reporting.write_csv(
        Path(cfg.outdir) / "norms.csv",
        cfg,
        ("node", "k", "estimate", "grid", "fd_step", "excluded_fraction"),
        rows,
    )
    print(f"{len(rows)} norm rows written")
    return EXIT_OK


def cmd_describe(cfg: ExperimentConfig) -> int:
    built = _build_or_report(cfg)
    if built is None:
        return EXIT_CONSTRUCTION
    for st in built.chain:
        if cfg.n_min <= st.n <= cfg.n_max:
            print(built.system(st.n).describe())
            print()
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--outdir", help="output directory")
    p.add_argument("--seed", type=int, help="64-bit experiment seed")
    p.add_argument("--construction", choices=["untwisted", "uniquely_ergodic", "weak_mixing"])
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--grid", type=int)


def _overrides(args: argparse.Namespace) -> dict:
    keys = ("outdir", "seed", "construction", "n_max", "grid")
    return {k: getattr(args, k, None) for k in keys}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="slowtorus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="build and validate a parameter chain")
    _add_common(p_params)

    p_run = sub.add_parser("run", help="run complexity measurements")
    _add_common(p_run)
    p_run.add_argument("--force", action="store_true", help="override the budget guard")

    p_plot = sub.add_parser("plotdata", help="extract plot curves from report CSVs")
    p_plot.add_argument("reports", nargs="+", help="counts.csv files")
    p_plot.add_argument("--outdir", default="plotdata")

    p_words = sub.add_parser("words", help="sample and verify a word selection")
    _add_common(p_words)
    p_words.add_argument("--alphabet", type=int, default=4, help="symbols, 2 to 36")
    p_words.add_argument("--length", type=int, default=2000)
    p_words.add_argument("--count", type=int, default=40)
    p_words.add_argument("--eps", type=float, default=1.0 / 16.0)

    p_norms = sub.add_parser("norms", help="finite-difference norm estimates")
    _add_common(p_norms)
    p_norms.add_argument("--node", default="quasi_rot")
    p_norms.add_argument("--q", type=int, default=4)
    p_norms.add_argument("--eps", type=float, default=0.1)
    p_norms.add_argument("--k-max", type=int, default=1, choices=(0, 1, 2), dest="k_max")

    p_desc = sub.add_parser("describe", help="print the built map stack")
    _add_common(p_desc)

    args = parser.parse_args(argv)

    if args.command == "plotdata":
        return cmd_plotdata(args.reports, args.outdir)

    try:
        cfg = load_config(getattr(args, "config", None), _overrides(args))
    except ConfigError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.command in ("run", "describe") and max(cfg.n_min, 1) > cfg.n_max:
        print("validation failure: no stage n with max(n_min, 1) <= n <= n_max", file=sys.stderr)
        return EXIT_VALIDATION
    if args.command == "params":
        return cmd_params(cfg)
    if args.command == "run":
        return cmd_run(cfg, force=args.force)
    if args.command == "words":
        return cmd_words(cfg, args.alphabet, args.length, args.count, args.eps)
    if args.command == "norms":
        return cmd_norms(cfg, args.node, args.q, args.eps, args.k_max)
    if args.command == "describe":
        return cmd_describe(cfg)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
