"""Per-layer tracing of the protostream package, applied from outside it.

Each traced function is replaced by a wrapper in every ``protostream``
module that holds a reference to it, so ``protostream.encoder.forward`` and
the ``forward`` that ``protostream.simulate`` imported are both wrapped.  A
wrapper records one span per call (name, start, end, parent span) into an
in-memory list; spans of one job share the job's identifier.  Nothing under
``src/`` is modified, and ``uninstall`` restores every replaced attribute.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict

# layer (package module) -> public functions whose calls become spans
LAYERS = {
    "mixture": ("gmm_update", "e_step", "log_likelihood", "batch_suffstats",
                "forget_and_merge", "m_step", "split_resurrect"),
    "encoder": ("forward", "backward"),
    "simulate": ("run_experiment", "student_step", "loss_and_grads", "assign",
                 "consistency_loss", "teacher_step",
                 "prototype_step_decoupled", "probe_accuracy"),
    "datagen": ("make_dataset", "make_views"),
    "collapse": ("count_unique", "angular_stats"),
    "analysis": ("pca_project", "gaussian_kde2d", "vmf_kde_angles"),
    "checkpoint": ("save_checkpoint", "load_checkpoint", "read_matrix_csv"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# spans whose per-call latency distribution is reported
LATENCY_SPANS = ("mixture.gmm_update", "mixture.e_step", "simulate.student_step")


def _file_bytes(param):
    def count(bound, result):
        return os.path.getsize(bound.arguments[param])
    return count


def _splits(bound, result):
    _, events = result
    return sum(1 for ev in events if ev.kind == "split")


def _representatives(bound, result):
    return result.unique_count


# work counters taken at a span boundary: span name -> (counter name, fn)
COUNTERS = {
    "mixture.split_resurrect": ("mixture.split_resurrect.splits", _splits),
    "collapse.count_unique": ("collapse.count_unique.representatives",
                              _representatives),
    "checkpoint.save_checkpoint": ("checkpoint.save_checkpoint.bytes",
                                   _file_bytes("path")),
    "checkpoint.load_checkpoint": ("checkpoint.load_checkpoint.bytes",
                                   _file_bytes("path")),
    "checkpoint.read_matrix_csv": ("checkpoint.read_matrix_csv.bytes",
                                   _file_bytes("path")),
}

COUNTER_NAMES = tuple(name for name, _ in COUNTERS.values())


class Tracer:
    """Span recorder; ``install`` before a job, ``uninstall`` after it."""

    def __init__(self):
        self.spans: list = []  # (job, name, start, end, parent index)
        self.counters: dict = defaultdict(lambda: defaultdict(int))  # job -> name -> n
        self.job = -1
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)

    def install(self, job: int) -> None:
        self.job = job
        by_module = {name: mod for name, mod in sys.modules.items()
                     if name == "protostream" or name.startswith("protostream.")}
        for span in SPAN_NAMES:
            layer, fn_name = span.split(".")
            original = getattr(by_module[f"protostream.{layer}"], fn_name)
            wrapper = self._wrap(span, original)
            for mod in by_module.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        self._stack.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.job, name, start, end, parent)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                self.counters[self.job][counter[0]] += counter[1](bound, result)
            return result

        return traced

    def job_summary(self, job: int) -> dict:
        """calls, total_s and self_s per span name, plus counters, for one job.

        Self time is a span's duration minus the durations of its direct
        children, so summed self times never count an interval twice.
        """
        child_time: dict = defaultdict(float)
        for index, (j, _, start, end, parent) in enumerate(self.spans):
            if j == job and parent >= 0:
                child_time[parent] += end - start
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        durations: dict = defaultdict(list)
        for index, (j, name, start, end, _) in enumerate(self.spans):
            if j != job:
                continue
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[index]
            durations[name].append(end - start)
        return {"calls": dict(calls), "total_s": dict(total), "self_s": dict(own),
                "durations": dict(durations),
                "counters": dict(self.counters[job])}

    def dump(self, path) -> None:
        """Write all spans as JSON lines of [job, name, start, end, parent]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def percentile_ms(values: list, q: int) -> float:
    """The q-th percentile (1..99) of durations in seconds, in milliseconds."""
    if len(values) < 2:
        return 1e3 * values[0] if values else 0.0
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(summaries: list) -> tuple[dict, list]:
    """Per-layer metrics over traced jobs, and the counts that did not repeat.

    Counts (calls and work counters) are taken from the first traced job and
    must equal those of every other traced job; times are per-job medians;
    latency percentiles pool the calls of all traced jobs.
    """
    first = summaries[0]
    mismatches = []
    for later in summaries[1:]:
        for key in ("calls", "counters"):
            if later[key] != first[key]:
                mismatches.append(key)
    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = first["calls"].get(span, 0)
        for key in ("total_s", "self_s"):
            metrics[f"{span}.{key}"] = statistics.median(
                s[key].get(span, 0.0) for s in summaries)
    for name in COUNTER_NAMES:
        metrics[name] = first["counters"].get(name, 0)
    for span in LATENCY_SPANS:
        pooled = [d for s in summaries for d in s["durations"].get(span, [])]
        metrics[f"{span}.p50_ms"] = percentile_ms(pooled, 50)
        metrics[f"{span}.p90_ms"] = percentile_ms(pooled, 90)
    return metrics, sorted(set(mismatches))
