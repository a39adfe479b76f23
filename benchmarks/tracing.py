"""Spans around the package's layers, recorded from outside the package.

``Tracer`` replaces public functions on the modules that call them (for
example ``onebitcs.harness.gen_gaussian_matrix``, the name ``_run_cell``
looks up) with wrappers that record a span per call: name, start, end,
parent and an optional note taken from the result. Spans stay in memory;
``layer_metrics`` turns them into the per-layer metrics. A layer is the
first part of a span name and is named after the package module.

Blind spots: private functions (``_signs``, ``_sign_gradient``, ``_run_cell``)
fall into the self time of the nearest traced caller, and pool workers are
not traced, so a traced pass runs with one worker.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass


def _matrix_bytes(ensemble) -> int:
    return ensemble.matrix.nbytes


def _iterations_and_stop(trace) -> tuple[int, str]:
    return trace.iterations_used, trace.stop_reason


# (module that calls the function, attribute there, span name, what to note from the result)
TRACED = [
    ("harness", "gen_gaussian_matrix", "model.gen_gaussian_matrix", _matrix_bytes),
    ("probes", "gen_gaussian_matrix", "model.gen_gaussian_matrix", _matrix_bytes),
    ("harness", "gen_sparse_signal", "model.gen_sparse_signal", None),
    ("algorithms", "gen_sparse_signal", "model.gen_sparse_signal", None),
    ("probes", "gen_sparse_signal", "model.gen_sparse_signal", None),
    ("cli", "gen_sparse_signal", "model.gen_sparse_signal", None),
    ("harness", "sign_quantize", "model.sign_quantize", None),
    ("probes", "sign_quantize", "model.sign_quantize", None),
    ("harness", "nbiht_run", "algorithms.nbiht_run", _iterations_and_stop),
    ("harness", "biht_run", "algorithms.biht_run", _iterations_and_stop),
    ("harness", "iht_run", "algorithms.iht_run", _iterations_and_stop),
    ("harness", "one_shot_estimate", "algorithms.one_shot_estimate", None),
    ("algorithms", "hard_threshold", "sparse_ops.hard_threshold", None),
    ("probes", "hard_threshold", "sparse_ops.hard_threshold", None),
    ("algorithms", "normalize", "sparse_ops.normalize", None),
    ("cli", "normalize", "sparse_ops.normalize", None),
    ("algorithms", "hamming_distance", "sparse_ops.hamming_distance", None),
    ("harness", "hamming_distance", "sparse_ops.hamming_distance", None),
    ("probes", "hamming_distance", "sparse_ops.hamming_distance", None),
    ("probes", "sparse_dual_norm", "sparse_ops.sparse_dual_norm", None),
    ("probes", "geodesic_distance", "sparse_ops.geodesic_distance", None),
    ("cli", "run_sweep", "harness.run_sweep", None),
    ("harness", "build_manifest", "harness.build_manifest", None),
    ("harness", "substream_seed", "rng.substream_seed", None),
    ("probes", "substream_seed", "rng.substream_seed", None),
    ("cli", "emit_report", "report.emit_report", None),
    ("report", "write_records_csv", "report.write_records_csv", None),
    ("report", "write_manifest", "report.write_manifest", None),
    ("report", "render_loglog_svg", "report.render_loglog_svg", None),
    ("cli", "check_unbiasedness", "probes.check_unbiasedness", None),
    ("cli", "check_embedding", "probes.check_embedding", None),
    ("cli", "raic_probe", "probes.raic_probe", None),
    ("cli", "gaussian_width_estimate", "probes.gaussian_width_estimate", None),
    ("cli", "projection_inequality_check", "probes.projection_inequality_check", None),
    ("cli", "decomposition_check", "probes.decomposition_check", None),
]

LAYERS = ("model", "algorithms", "sparse_ops", "harness", "report", "probes", "rng", "cli")
PROBES = ("unbiased", "embedding", "raic", "width", "projection", "decomposition")

@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    note: object = None


class Tracer:
    """Records nested spans; ``with tracer:`` installs the wrappers and removes them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, note=None):
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, self._open[-1] if self._open else None, note))
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def _wrap(self, function, name: str, note):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        # The body of ``span`` inlined: this runs on every call in the iteration loops.
        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_spans[-1] if open_spans else None)
            open_spans.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = clock()
                open_spans.pop()
            if note is not None:
                span.note = note(result)
            return result

        return traced

    def __enter__(self):
        for module_name, attr, name, note in TRACED:
            module = importlib.import_module(f"onebitcs.{module_name}")
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, note))
        return self

    def __exit__(self, *exc):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        return False


def _durations(spans: list[Span]) -> tuple[dict, dict, dict]:
    """Total time, self time and call count per span name."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    for span, covered in zip(spans, child_time):
        duration = span.end - span.start
        total[span.name] = total.get(span.name, 0.0) + duration
        self_time[span.name] = self_time.get(span.name, 0.0) + duration - covered
        calls[span.name] = calls.get(span.name, 0) + 1
    return total, self_time, calls


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, name -> (value, unit)."""
    total, self_time, calls = _durations(spans)

    def seconds(name):
        return total.get(name, 0.0)

    metrics = {
        f"layer.{layer}.self_s": (
            sum((v for k, v in self_time.items() if k.split(".")[0] == layer), 0.0), "s")
        for layer in LAYERS
    }
    matrix_bytes = sum(s.note for s in spans if s.name == "model.gen_gaussian_matrix")
    metrics.update({
        "model.gen_gaussian_matrix.s": (seconds("model.gen_gaussian_matrix"), "s"),
        "model.gen_gaussian_matrix.calls": (calls.get("model.gen_gaussian_matrix", 0), "count"),
        "model.matrix_mb": (matrix_bytes / 2**20, "MiB"),
        "model.gen_sparse_signal.s": (seconds("model.gen_sparse_signal"), "s"),
        "model.sign_quantize.s": (seconds("model.sign_quantize"), "s"),
    })
    for algo in ("nbiht", "biht", "iht"):
        runs = [s for s in spans if s.name == f"algorithms.{algo}_run"]
        metrics[f"algorithms.{algo}_run.self_s"] = (self_time.get(f"algorithms.{algo}_run", 0.0), "s")
        metrics[f"algorithms.{algo}.iterations"] = (sum(s.note[0] for s in runs), "count")
    metrics["algorithms.one_shot_estimate.s"] = (seconds("algorithms.one_shot_estimate"), "s")

    nbiht = [s for s in spans if s.name == "algorithms.nbiht_run"]
    nbiht_s = sum(s.end - s.start for s in nbiht)
    budget = [s for s in nbiht if s.note[1] == "max_iters"]
    iterations = sum(s.note[0] for s in nbiht)
    metrics.update({
        "algorithms.nbiht.runs": (len(nbiht), "count"),
        "algorithms.nbiht.iter_us": (nbiht_s / iterations * 1e6 if iterations else 0.0, "us"),
        "algorithms.nbiht.max_iters_frac": (len(budget) / len(nbiht) if nbiht else 0.0, "ratio"),
        "algorithms.nbiht.budget_time_frac": (
            sum(s.end - s.start for s in budget) / nbiht_s if nbiht_s else 0.0, "ratio"),
    })
    for name in ("hard_threshold", "normalize", "hamming_distance", "sparse_dual_norm"):
        metrics[f"sparse_ops.{name}.s"] = (seconds(f"sparse_ops.{name}"), "s")
    metrics["sparse_ops.hard_threshold.calls"] = (calls.get("sparse_ops.hard_threshold", 0), "count")
    metrics.update({
        "harness.run_sweep.self_s": (self_time.get("harness.run_sweep", 0.0), "s"),
        "harness.build_manifest.s": (seconds("harness.build_manifest"), "s"),
        "rng.substream_seed.s": (seconds("rng.substream_seed"), "s"),
        "report.emit_report.s": (seconds("report.emit_report"), "s"),
        "report.write_records_csv.s": (seconds("report.write_records_csv"), "s"),
        "report.render_loglog_svg.s": (seconds("report.render_loglog_svg"), "s"),
        "cli.parse_and_dispatch.self_s": (self_time.get("cli.parse_and_dispatch", 0.0), "s"),
    })
    probe_s = {p: 0.0 for p in PROBES}
    for span in spans:
        if span.name == "cli.parse_and_dispatch" and span.note in probe_s:
            probe_s[span.note] += span.end - span.start
    metrics.update({f"probes.{p}.s": (v, "s") for p, v in probe_s.items()})
    return metrics
