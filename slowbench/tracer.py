"""Spans around calls into slowtorus's public functions, recorded from outside.

Nothing inside the package is changed on disk: `install` replaces module
attributes with timing wrappers in the workload process only.  A span is
(name, start, end, parent, info); `layer_metrics` folds the spans of one
round into the per-layer metrics.
"""
from __future__ import annotations

import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, args=(), kwargs=None, info=None):
        """Call fn(*args, **kwargs) inside a span; info(result, args, kwargs)
        returns counts recorded on the span (computed outside its time)."""
        kwargs = kwargs or {}
        idx = len(self.spans)
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(idx)
        rec["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
        if info is not None:
            rec["info"] = info(result, args, kwargs)
        return result

    def wrap(self, module, attr: str, name: str, info=None) -> None:
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs, info)

        setattr(module, attr, wrapper)


def _arg(pos: int, key: str):
    def get(args, kwargs):
        return args[pos] if len(args) > pos else kwargs[key]

    return get


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need.

    A function imported by name into another module is wrapped in each
    namespace it is called through.
    """
    from slowtorus import cli, complexity, diffeo, experiments, reporting, words

    cands, times = _arg(1, "candidates"), _arg(2, "times")
    pts, n_time = _arg(2, "pts"), _arg(3, "n_time")

    def orbit_evals(res, a, k):
        return {"evals": len(cands(a, k)) * len(times(a, k))}

    def code_evals(res, a, k):
        return {"evals": len(pts(a, k)) * int(n_time(a, k))}

    def file_bytes(res, a, k):
        path = a[0] if a else k["path"]
        return {"bytes": Path(path).stat().st_size}

    tracer.wrap(cli, "build_systems", "experiments.build_systems")
    tracer.wrap(experiments, "build_chain", "params.build_chain")
    tracer.wrap(complexity, "orbit_array", "complexity.orbit_array", orbit_evals)
    tracer.wrap(
        complexity, "greedy_centers", "complexity.greedy_centers",
        lambda r, a, k: {"kept": len(r)},
    )
    tracer.wrap(
        complexity, "hamming_cover", "complexity.hamming_cover",
        lambda r, a, k: {"balls": r.count},
    )
    tracer.wrap(complexity, "code_orbits", "complexity.code_orbits", code_evals)
    tracer.wrap(complexity, "witness_untwisted", "complexity.witness_untwisted")
    tracer.wrap(complexity, "slow_entropy_report", "complexity.slow_entropy_report")
    tracer.wrap(complexity, "orbit_batch", "diffeo.orbit_batch")
    tracer.wrap(diffeo, "orbit_batch", "diffeo.orbit_batch")
    tracer.wrap(diffeo, "orbit_images", "diffeo.orbit_images")
    tracer.wrap(words, "sample_selection", "words.sample_selection")
    tracer.wrap(experiments, "sample_selection", "words.sample_selection")
    tracer.wrap(words, "verify_selection", "words.verify_selection")
    tracer.wrap(reporting, "write_with_header", "reporting.write", file_bytes)


# (metric, unit) in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("complexity.hamming_cover_s", "s"),
    ("complexity.hamming_greedy_s", "s"),
    ("complexity.hamming_cover_calls", "count"),
    ("complexity.hamming_balls", "count"),
    ("complexity.code_orbits_s", "s"),
    ("complexity.code_orbits_evals", "count"),
    ("complexity.orbit_array_s", "s"),
    ("complexity.orbit_array_calls", "count"),
    ("complexity.orbit_array_evals", "count"),
    ("complexity.orbit_evals_needed_ratio", "ratio"),
    ("complexity.greedy_centers_s", "s"),
    ("complexity.greedy_centers_calls", "count"),
    ("complexity.greedy_centers_kept", "count"),
    ("complexity.witness_untwisted_s", "s"),
    ("complexity.slow_entropy_report_s", "s"),
    ("diffeo.H_forward_us_per_point", "us"),
    ("diffeo.H_inverse_us_per_point", "us"),
    ("diffeo.orbit_batch_s", "s"),
    ("diffeo.orbit_images_s", "s"),
    ("words.verify_selection_s", "s"),
    ("words.verify_selection_calls", "count"),
    ("words.selection_rounds", "count"),
    ("words.sample_selection_s", "s"),
    ("words.resample_s", "s"),
    ("experiments.build_systems_s", "s"),
    ("params.build_chain_s", "s"),
    ("reporting.write_s", "s"),
    ("reporting.bytes_written", "bytes"),
    ("cli.self_s", "s"),
)


def layer_metrics(spans: list[dict], needed_evals: int) -> dict:
    """Per-layer metrics of one round.  Root spans are the CLI commands;
    a layer the round never calls reads 0."""

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(dur(s) for s in named(name))

    def info_sum(name, key):
        return sum(s["info"][key] for s in named(name))

    def child_time(parent_name, child_name):
        parents = {i for i, s in enumerate(spans) if s["name"] == parent_name}
        return sum(dur(s) for s in spans if s["name"] == child_name and s["parent"] in parents)

    roots = {i for i, s in enumerate(spans) if s["parent"] is None}
    root_time = sum(dur(spans[i]) for i in roots)
    child_of_root = sum(dur(s) for s in spans if s["parent"] in roots)
    sel_parents = {i for i, s in enumerate(spans) if s["name"] == "words.sample_selection"}
    orbit_evals = info_sum("complexity.orbit_array", "evals")
    return {
        "complexity.hamming_cover_s": total("complexity.hamming_cover"),
        "complexity.hamming_greedy_s": total("complexity.hamming_cover")
        - child_time("complexity.hamming_cover", "complexity.code_orbits"),
        "complexity.hamming_cover_calls": len(named("complexity.hamming_cover")),
        "complexity.hamming_balls": info_sum("complexity.hamming_cover", "balls"),
        "complexity.code_orbits_s": total("complexity.code_orbits"),
        "complexity.code_orbits_evals": info_sum("complexity.code_orbits", "evals"),
        "complexity.orbit_array_s": total("complexity.orbit_array"),
        "complexity.orbit_array_calls": len(named("complexity.orbit_array")),
        "complexity.orbit_array_evals": orbit_evals,
        "complexity.orbit_evals_needed_ratio": needed_evals / orbit_evals if orbit_evals else 0.0,
        "complexity.greedy_centers_s": total("complexity.greedy_centers"),
        "complexity.greedy_centers_calls": len(named("complexity.greedy_centers")),
        "complexity.greedy_centers_kept": info_sum("complexity.greedy_centers", "kept"),
        "complexity.witness_untwisted_s": total("complexity.witness_untwisted"),
        "complexity.slow_entropy_report_s": total("complexity.slow_entropy_report"),
        "diffeo.orbit_batch_s": total("diffeo.orbit_batch"),
        "diffeo.orbit_images_s": total("diffeo.orbit_images"),
        "words.verify_selection_s": total("words.verify_selection"),
        "words.verify_selection_calls": len(named("words.verify_selection")),
        "words.selection_rounds": sum(
            1 for s in spans if s["name"] == "words.verify_selection" and s["parent"] in sel_parents
        ),
        "words.sample_selection_s": total("words.sample_selection"),
        "words.resample_s": total("words.sample_selection")
        - child_time("words.sample_selection", "words.verify_selection"),
        "experiments.build_systems_s": total("experiments.build_systems"),
        "params.build_chain_s": total("params.build_chain"),
        "reporting.write_s": total("reporting.write"),
        "reporting.bytes_written": info_sum("reporting.write", "bytes"),
        "cli.self_s": root_time - child_of_root,
    }
