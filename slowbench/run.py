"""Benchmark of the slowtorus CLI: one workload, timed, traced or checked.

Usage (from the root of a checkout):

    python3 slowbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: untwisted-desk, wm-q32-2eps, word-selection (see README.md).
The run compiles the package's bytecode, times several fresh-interpreter
set-ups, then runs whole rounds of the workload's CLI commands, each round
in a fresh workload process, until S seconds have passed (at least one
round).  After timing it checks every output apart from the program.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
under --trace 0 and the per-layer metrics under --trace 1.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread everywhere, identically on every commit; set before numpy loads
THREAD_VARS = (
    "SLOWTORUS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import plan  # noqa: E402

SETUP_PROBES = 5


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "slowtorus" / "cli.py").is_file():
        print(f"no slowtorus sources under {src}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    sys.path.insert(0, str(src))

    scratch = BENCH / "scratch" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    ops = plan.write_configs(plan.make_plan(args.workload, args.seed), scratch / "configs")

    # bytecode compiled and files cached before any timing
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src / "slowtorus"), str(BENCH)],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    _worker(ops, scratch / "warm", env, probe=True, trace=0)

    setups = [_worker(ops, scratch / f"probe{i}", env, probe=True, trace=0)["setup_s"]
              for i in range(SETUP_PROBES)]
    rounds = []
    t_begin = time.monotonic()
    while not rounds or time.monotonic() - t_begin < args.seconds:
        rdir = scratch / f"round{len(rounds)}"
        rounds.append(_worker(ops, rdir, env, probe=False, trace=args.trace))
    setups += [r["setup_s"] for r in rounds]

    attempted = sum(len(r["ops"]) for r in rounds)
    failed_ops = [(i, o) for i, r in enumerate(rounds) for o in r["ops"] if o["rc"] != 0]
    for i, o in failed_ops:
        print(f"round {i} op {o['name']}: exit {o['rc']}", file=sys.stderr)

    import checks  # imports numpy and slowtorus: after timing

    errors = checks.check_outputs(ops, rounds, args.workload)
    errors += checks.check_determinism(
        ops, rounds, BENCH / "results" / "digests",
        f"{_source_hash(src)}-{args.workload}-seed{args.seed}")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    if args.trace:
        metrics = _layer_metrics(rounds)
    else:
        metrics = {
            "wall_s": {"value": _median(r["wall_s"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": _median(r["cpu_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": _median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": metrics,
    }
    _save(args, rounds, setups, errors, result)
    if not errors:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _worker(ops, cwd: Path, env, probe: bool, trace: int) -> dict:
    """Run one fresh workload process in cwd and return its report, with
    setup_s measured from just before the interpreter was started."""
    cwd.mkdir(parents=True, exist_ok=True)
    task = {"ops": ops, "probe": probe, "trace": trace, "result": str(cwd / "result.json")}
    task_path = cwd / "task.json"
    task_path.write_text(json.dumps(task))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(task_path)],
                          cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process failed with exit {proc.returncode}")
    report = json.loads((cwd / "result.json").read_text())
    report["setup_s"] = report["setup_done"] - t0
    report["dir"] = str(cwd)
    return report


def _median(values) -> float:
    return statistics.median(list(values))


def _layer_metrics(rounds) -> dict:
    import tracer

    per_round = []
    for r in rounds:
        m = tracer.layer_metrics(r["spans"], r["needed_evals"])
        m["diffeo.H_forward_us_per_point"] = r["map_timing"]["forward_us"]
        m["diffeo.H_inverse_us_per_point"] = r["map_timing"]["inverse_us"]
        per_round.append(m)
    return {name: {"value": _median(m[name] for m in per_round), "unit": unit}
            for name, unit in tracer.LAYER_METRICS}


def _source_hash(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "slowtorus").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _save(args, rounds, setups, errors, result) -> None:
    """Keep the run's figures and, when traced, its spans for later reading."""
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = BENCH / "results"
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "args": vars(args),
        "setups_s": setups,
        "rounds": [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
                   | {"ops": [{k: o[k] for k in ("name", "rc", "wall_s")} for o in r["ops"]]}
                   for r in rounds],
        "errors": errors,
        "result": result,
    }
    (out / f"{name}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if args.trace:
        traces = BENCH / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{name}.json").write_text(json.dumps([r["spans"] for r in rounds]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
