"""Workload plans: the configs and commands one round of a workload runs.

Every input is made from the benchmark seed alone; the program sees only the
generated config files and the command-line flags below.  One operation is
one CLI command together with its output check, and a round is the fixed
list of operations of a workload.
"""
from __future__ import annotations

import json
from pathlib import Path

# The README desk config, field for field.  untwisted-desk uses it with only
# `seed` taken from the benchmark seed, so `--seed 7` runs it exactly.
README_CONFIG = {
    "construction": "untwisted",
    "regime": "custom",
    "q1": 2,
    "kl_schedule": [[1, 2, 4], [1, 64, 8], [1, 1, 64]],
    "n_min": 2,
    "n_max": 2,
    "grid": 32,
    "horizons": ["1", "q", "q_next"],
    "eps_list": [0.125],
    "families": [["int1", 4, 2], ["pol", 0, 0]],
    "t_grid": [0.5, 1.0],
    "seed": 7,
    "outdir": "out",
    "horizon_cap": 4096,
}

# Weak-mixing chain of wm_desk_profile(32): q_2 = 32, q_3 = 1024.  The cap
# and the sample count keep one command within about 10 s; the two radii
# turn on the program's own S(2e) <= N(e) <= S(e) assertion.
WM_CONFIG = {
    "construction": "weak_mixing",
    "regime": "custom",
    "q1": 2,
    "kl_schedule": [[1, 8, 4], [1, 1, 8], [1, 1, 64]],
    "n_min": 2,
    "n_max": 2,
    "grid": 32,
    "horizons": ["1", "q", "q_next"],
    "eps_list": [0.125, 0.25],
    "horizon_cap": 64,
    "hamming_samples": 800,
    "outdir": "out",
}

# word-selection: alphabet 4, eps 1/16, 40 words.  At k = 500 most seeds
# need several sampling rounds; at k = 2000 and 4000 one round passes.
WORDS_ALPHABET = 4
WORDS_EPS = 0.0625
WORDS_COUNT = 40
WORDS_SHORT_K = 500
WORDS_SHORT_N = 8
WORDS_LONG_K = (2000, 4000)

WORKLOADS = ("untwisted-desk", "wm-q32-2eps", "word-selection")


def make_plan(workload: str, seed: int) -> list[dict]:
    """Operations of one round: [{"name", "kind", "config", "argv"}].

    `config` is the JSON config the command reads; `argv` the arguments
    after the program name, with the config path written as "{config}".
    """
    if workload == "untwisted-desk":
        cfg = dict(README_CONFIG, seed=seed)
        return [run_op("run", cfg)]
    if workload == "wm-q32-2eps":
        cfg = dict(WM_CONFIG, seed=seed)
        return [run_op("run", cfg)]
    if workload == "word-selection":
        ops = []
        base = 16 * seed
        for i in range(WORDS_SHORT_N):
            ops.append(_words_op(f"k{WORDS_SHORT_K}_{i}", WORDS_SHORT_K, base + i))
        for j, k in enumerate(WORDS_LONG_K):
            ops.append(_words_op(f"k{k}", k, base + WORDS_SHORT_N + j))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def run_op(name: str, cfg: dict) -> dict:
    return {
        "name": name,
        "kind": "run",
        "config": cfg,
        "argv": ["run", "--config", "{config}"],
    }


def _words_op(name: str, k: int, word_seed: int) -> dict:
    cfg = {"seed": word_seed, "outdir": name}
    argv = [
        "words", "--config", "{config}",
        "--alphabet", str(WORDS_ALPHABET),
        "--length", str(k),
        "--count", str(WORDS_COUNT),
        "--eps", repr(WORDS_EPS),
    ]
    return {"name": name, "kind": "words", "config": cfg, "argv": argv, "k": k}


def write_configs(ops: list[dict], config_dir: Path) -> list[dict]:
    """Write each op's config file; return the ops with concrete argv."""
    config_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for op in ops:
        path = (config_dir / f"{op['name']}.json").resolve()
        path.write_text(json.dumps(op["config"], indent=1, sort_keys=True) + "\n")
        argv = [str(path) if a == "{config}" else a for a in op["argv"]]
        out.append(dict(op, config_path=str(path), argv=argv))
    return out


def resolve_horizon(h: str, stage, cap: int) -> int:
    """A config horizon ("1", "q" or "q_next") at a stage, as the program
    resolves it."""
    return {"1": 1, "q": stage.q, "q_next": min(stage.q_next, cap)}[h]


def stage_systems(cfg) -> list:
    """(stage, system, selection) for every stage a loaded `run` config
    measures, built by the program as `slowtorus run` builds them."""
    from slowtorus.experiments import build_systems

    built = build_systems(
        cfg.construction, cfg.profile(), cfg.n_max, seed=cfg.seed,
        word_eps=cfg.word_eps, sigma=cfg.sigma, cap_tiles=cfg.cap_tiles,
    )
    return [
        (st, built.system(st.n), sel)
        for st, sel in zip(built.chain, built.selections)
        if cfg.n_min <= st.n <= cfg.n_max
    ]
