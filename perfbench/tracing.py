"""Spans around the calls `sgdcheck.cli` makes into the library's layers.

The tracer replaces names in the `sgdcheck.cli` namespace (and the methods of
the problem classes) with wrappers, so nothing in the package changes.  Each
span keeps its name, parent, start, end, time spent in child spans, counts
taken from the call's arguments or result, and, when memory tracing is on,
the `tracemalloc` peak above the span's starting allocation (numpy buffers
included).  Self time is the span's duration minus its children's.
"""
from __future__ import annotations

import functools
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

MIB = 1024.0 * 1024.0


@dataclass(eq=False, slots=True)
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_time: float = 0.0
    counts: dict = field(default_factory=dict)
    base_bytes: int = 0
    peak_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    @property
    def peak_alloc_mb(self) -> float:
        return (self.peak_bytes - self.base_bytes) / MIB


class Tracer:
    """Records nested spans in memory; `memory=True` also tracks peak allocation."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def enter(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, 0.0)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                outer = self.spans[parent]
                outer.peak_bytes = max(outer.peak_bytes, peak)
            tracemalloc.reset_peak()
            span.base_bytes = span.peak_bytes = current
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            span.peak_bytes = max(span.peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        if span.parent is not None:
            outer = self.spans[span.parent]
            outer.child_time += span.duration
            outer.peak_bytes = max(outer.peak_bytes, span.peak_bytes)

    def subtree(self, root: int) -> dict[int, Span]:
        """The root span and every span below it, by index."""
        found = {root: self.spans[root]}
        for index in range(root + 1, len(self.spans)):
            span = self.spans[index]
            if span.parent in found:
                found[index] = span
        return found


def _rows(array) -> int:
    shape = np.shape(array)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _noise_counts(args, kwargs, result) -> dict:
    return {"noise_values": int(np.size(result)), "noise_bytes": int(np.asarray(result).nbytes)}


def _gradient_counts(args, kwargs, result) -> dict:
    return {"gradient_rows": _rows(result)}


def _replication_counts(args, kwargs, result) -> dict:
    # run_replications(problem, schedule, x0, steps, cert, master_seed, count)
    return {"rep_steps": int(args[3]) * int(args[6])}


def _recurrence_counts(args, kwargs, result) -> dict:
    # check_recurrence compares only the steps where every replication is in region.
    fraction = args[0].in_region_fraction
    checked = int(np.count_nonzero(fraction == 1.0))
    return {"steps_checked": checked, "steps_excluded": int(fraction.shape[0]) - checked}


# Names that sgdcheck.cli imports from each layer: (span name, counter).
CLI_CALLS = {
    "load_config": ("config.load_config", None),
    "build_problem": ("config.build_problem", None),
    "build_schedule": ("config.build_schedule", None),
    "validate_schedule": ("schedule.validate_schedule", None),
    "derive_seed": ("engine.derive_seed", None),
    "SeededGenerator": ("engine.SeededGenerator", None),
    "run_replications": ("engine.run_replications", _replication_counts),
    "estimate_dn": ("analyzer.estimate_dn", None),
    "bound_sequence": ("analyzer.bound_sequence", None),
    "check_recurrence": ("analyzer.check_recurrence", _recurrence_counts),
    "check_neighborhood": ("analyzer.check_neighborhood", None),
    "check_convergence": ("analyzer.check_convergence", None),
    "check_descent_inequality": ("analyzer.check_descent_inequality", None),
    "product_decay": ("analyzer.product_decay", None),
    "sample_in_ball": ("objective.sample_in_ball", None),
    "audit_certificate": ("objective.audit_certificate", None),
    "check_gradients": ("objective.check_gradients", None),
}

# Methods of every problem family that the CLI and the layers above call.
PROBLEM_METHODS = {
    "certify": ("objective.certify", None),
    "noise_block": ("objective.noise_block", _noise_counts),
    "pointwise_gradient": ("objective.pointwise_gradient", _gradient_counts),
    "pointwise_loss": ("objective.pointwise_loss", None),
    "mean_gradient": ("objective.mean_gradient", None),
    "mean_loss": ("objective.mean_loss", None),
}


def _wrap(tracer: Tracer, original, name: str, counter):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = tracer.enter(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.exit(span)
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result

    return traced


def instrument(tracer: Tracer, cli_module, objective_module):
    """Wrap the library calls of `sgdcheck.cli`; returns a function that undoes it.

    Names missing from the package are skipped, so their metrics read 0.
    """
    patched = []
    for attr, (name, counter) in CLI_CALLS.items():
        if hasattr(cli_module, attr):
            patched.append((cli_module, attr, getattr(cli_module, attr)))
            setattr(cli_module, attr, _wrap(tracer, getattr(cli_module, attr), name, counter))
    families = [
        value for value in vars(objective_module).values()
        if isinstance(value, type)
        and issubclass(value, objective_module.StochasticProblem)
        and value is not objective_module.StochasticProblem
    ]
    for family in families:
        for attr, (name, counter) in PROBLEM_METHODS.items():
            if attr in vars(family):
                original = vars(family)[attr]
                patched.append((family, attr, original))
                setattr(family, attr, _wrap(tracer, original, name, counter))

    def restore():
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return restore


def _total(spans, name: str) -> float:
    return sum(s.duration for s in spans.values() if s.name == name)


def _self(spans, name: str) -> float:
    return sum(s.self_time for s in spans.values() if s.name == name)


def _calls(spans, name: str) -> int:
    return sum(1 for s in spans.values() if s.name == name)


def _count(spans, name: str, key: str) -> int:
    return sum(s.counts.get(key, 0) for s in spans.values() if s.name == name)


def _peak(spans, name: str) -> float:
    return max((s.peak_alloc_mb for s in spans.values() if s.name == name), default=0.0)


def run_metrics(tracer: Tracer, root: int) -> dict:
    """Per-layer times and counts of one traced `sgdcheck run`."""
    spans = tracer.subtree(root)
    engine_noise_bytes = sum(
        s.counts.get("noise_bytes", 0)
        for s in spans.values()
        if s.name == "objective.noise_block"
        and spans[s.parent].name == "engine.run_replications"
    )
    rep_steps = _count(spans, "engine.run_replications", "rep_steps")
    engine_total = _total(spans, "engine.run_replications")
    checks = ("analyzer.check_recurrence", "analyzer.check_neighborhood",
              "analyzer.check_convergence")
    root_span = tracer.spans[root]
    return {
        "config.load_s": _total(spans, "config.load_config"),
        "config.build_s": _total(spans, "config.build_problem") + _total(spans, "config.build_schedule"),
        "objective.certify_s": _total(spans, "objective.certify"),
        "objective.noise_block_s": _total(spans, "objective.noise_block"),
        "objective.noise_values": _count(spans, "objective.noise_block", "noise_values"),
        "objective.pointwise_gradient_s": _total(spans, "objective.pointwise_gradient"),
        "objective.pointwise_gradient_calls": _calls(spans, "objective.pointwise_gradient"),
        "objective.gradient_rows": _count(spans, "objective.pointwise_gradient", "gradient_rows"),
        "schedule.validate_s": _total(spans, "schedule.validate_schedule"),
        "engine.self_s": _self(spans, "engine.run_replications"),
        "engine.rep_steps": rep_steps,
        "engine.rep_steps_per_s": rep_steps / engine_total if engine_total > 0 else 0.0,
        "engine.noise_bytes_computed": engine_noise_bytes,
        "analyzer.estimate_dn_s": _total(spans, "analyzer.estimate_dn"),
        "analyzer.bound_sequence_s": _total(spans, "analyzer.bound_sequence"),
        "analyzer.checks_s": sum(_total(spans, name) for name in checks),
        "analyzer.steps_checked": _count(spans, "analyzer.check_recurrence", "steps_checked"),
        "analyzer.steps_excluded": _count(spans, "analyzer.check_recurrence", "steps_excluded"),
        "analyzer.descent_s": _self(spans, "analyzer.check_descent_inequality"),
        "analyzer.product_decay_s": _total(spans, "analyzer.product_decay"),
        "cli.self_s": root_span.self_time,
        "cli.run_span_s": root_span.duration,
    }


def run_memory_metrics(tracer: Tracer, root: int) -> dict:
    spans = tracer.subtree(root)
    return {
        "engine.peak_alloc_mb": _peak(spans, "engine.run_replications"),
        "analyzer.estimate_dn_peak_alloc_mb": _peak(spans, "analyzer.estimate_dn"),
        "cli.run_peak_alloc_mb": tracer.spans[root].peak_alloc_mb,
    }


def verify_metrics(tracer: Tracer, root: int) -> dict:
    spans = tracer.subtree(root)
    return {
        "objective.audit_s": _total(spans, "objective.audit_certificate"),
        "objective.gradient_check_s": _total(spans, "objective.check_gradients"),
        "cli.verify_self_s": tracer.spans[root].self_time,
        "cli.verify_span_s": tracer.spans[root].duration,
    }


def verify_memory_metrics(tracer: Tracer, root: int) -> dict:
    return {"objective.verify_peak_alloc_mb": tracer.spans[root].peak_alloc_mb}


def span_tree(tracer: Tracer, root: int) -> list[dict]:
    """Spans under a root, merged by path: calls, total, self, peak and counts."""
    paths: dict[int, str] = {}
    merged: dict[str, dict] = {}
    for index in range(root, len(tracer.spans)):
        span = tracer.spans[index]
        if index != root and span.parent not in paths:
            continue
        path = span.name if index == root else f"{paths[span.parent]}/{span.name}"
        paths[index] = path
        entry = merged.setdefault(
            path, {"path": path, "calls": 0, "total_s": 0.0, "self_s": 0.0,
                   "peak_alloc_mb": 0.0, "counts": {}}
        )
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += span.self_time
        entry["peak_alloc_mb"] = max(entry["peak_alloc_mb"], span.peak_alloc_mb)
        for key, value in span.counts.items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return list(merged.values())
