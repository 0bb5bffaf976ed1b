"""One workload process: set up, run one round of CLI commands, report.

Usage: python3 worker.py TASK.json

TASK.json holds {"ops": [...], "trace": 0|1, "probe": bool, "result": path}.
The process imports slowtorus and loads every op's config (set-up), writes
the monotonic time at which set-up ended, and unless it is a set-up probe
runs the ops in order through `slowtorus.cli.main` in its working
directory.  It reports per-op exit codes, the wall and CPU time of the
commands, its peak resident memory and, when traced, the spans.
"""
import contextlib
import io
import json
import resource
import sys
import time
import traceback

from plan import resolve_horizon, stage_systems


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(task_path: str) -> int:
    with open(task_path) as fh:
        task = json.load(fh)
    from slowtorus import cli

    configs = [cli.load_config(op["config_path"], {}) for op in task["ops"]]
    result = {"setup_done": time.monotonic()}
    if not task["probe"]:
        result.update(_run_round(task, cli, configs))
    with open(task["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def _run_round(task: dict, cli, configs) -> dict:
    tracer = None
    if task["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = []
    cpu0, t0 = _cpu(), time.perf_counter()
    for op in task["ops"]:
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if tracer is None:
                    rc = cli.main(op["argv"])
                else:
                    rc = tracer.span("cli." + op["argv"][0], cli.main, (op["argv"],))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashed command is a failed operation
            rc = "exception: " + traceback.format_exc(limit=3)
        ops.append(
            {"name": op["name"], "rc": rc, "wall_s": time.perf_counter() - start,
             "stdout": out.getvalue()}
        )
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res = {"ops": ops, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_mb}
    if tracer is not None:
        res["spans"] = list(tracer.spans)  # before the timing below adds any
        stages = [(cfg, st, system)
                  for cfg, op in zip(configs, task["ops"]) if op["kind"] == "run"
                  for st, system, _sel in stage_systems(cfg)]
        res["map_timing"] = _map_timing([system for _cfg, _st, system in stages])
        res["needed_evals"] = sum(
            cfg.grid * cfg.grid * max(resolve_horizon(h, st, cfg.horizon_cap) for h in cfg.horizons)
            for cfg, st, _system in stages
        )
    return res


def _map_timing(systems) -> dict:
    """Median microseconds per point of H.forward and H.inverse on a fixed
    seeded set of 4096 points, over the given stage systems (0 without)."""
    import numpy as np

    if not systems:
        return {"forward_us": 0.0, "inverse_us": 0.0}
    pts = np.random.Generator(np.random.Philox(20211017)).random((4096, 2))
    fwd, inv = [], []
    for system in systems:
        for fn, acc in ((system.H.forward, fwd), (system.H.inverse, inv)):
            fn(pts)
            for _ in range(15):
                t = time.perf_counter()
                fn(pts)
                acc.append((time.perf_counter() - t) / len(pts) * 1e6)
    return {"forward_us": float(np.median(fwd)), "inverse_us": float(np.median(inv))}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
