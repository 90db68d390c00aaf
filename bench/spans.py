"""Span recorder for the benchmark's traced runs.

Layers are measured from outside the package: `install` replaces a public
function with a timing wrapper at every module attribute through which the
package (or the benchmark) looks it up, and `uninstall` puts the originals
back. Untraced runs use only `timed_calls`, on one function.

A span records its name, layer, wall interval (perf_counter, which is
CLOCK_MONOTONIC on Linux and therefore comparable across processes), the CPU
time of its thread, its parent span and a few counts taken from the call's
arguments. Spans opened on a thread-pool worker take as parent the innermost
span open on the thread that enabled tracing, which is the thread blocked in
the Gram assembly that owns the pool.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time

# (module, attribute, layer, span name, counter). Every attribute through
# which a wrapped function is looked up at call time is listed, because
# `from .x import f` binds a second name that patching `x.f` would miss.
WRAP_TABLE = (
    ("distreg.synth", "generate", "synth", "generate", "points"),
    ("distreg.analysis", "generate", "synth", "generate", "points"),
    ("distreg.cli", "generate", "synth", "generate", "points"),
    ("distreg.embedding", "kernel_matrix", "embedding", "kernel_matrix", "evals"),
    ("distreg.gram", "kernel_matrix", "embedding", "kernel_matrix", "evals"),
    ("distreg.gram", "embed_inner", "outer", "tilt", None),
    ("distreg.analysis", "build_gram", "gram", "build_gram", "gram_pairs"),
    ("distreg.cli", "build_gram", "gram", "build_gram", "gram_pairs"),
    ("distreg.solver", "build_cross_gram", "gram", "cross_gram", "cross_pairs"),
    ("distreg.analysis", "fit_coefficient", "solver", "fit", None),
    ("distreg.analysis", "fit_krr", "solver", "fit", None),
    ("distreg.cli", "fit_coefficient", "solver", "fit", None),
    ("distreg.cli", "fit_krr", "solver", "fit", None),
    ("distreg.analysis", "solve_alpha", "solver", "solve_alpha", None),
    ("distreg.analysis", "excess_error", "solver", "excess_error", None),
    ("distreg.solver", "predict", "solver", "predict", None),
    ("distreg.cli", "predict", "solver", "predict", None),
    ("distreg.analysis", "select_lambda_holdout", "analysis", "select_lambda", None),
    ("distreg.analysis", "run_rate_experiment", "analysis", "run_rate_experiment", None),
    ("distreg.analysis", "saturation_compare", "analysis", "saturation_compare", None),
    ("distreg.io", "read_bags", "io", "read_bags", "file_in"),
    ("distreg.io", "load_model", "io", "load_model", "file_in"),
    ("distreg.io", "save_model", "io", "save_model", "file_out"),
    ("distreg.cli", "main", "cli", "main", None),
)

LAYERS = ("synth", "embedding", "outer", "gram", "solver", "analysis", "io", "cli")


def _bag_sizes(bags) -> list[int]:
    return [b.size for b in bags]


def _counts(counter: str | None, args, result) -> dict:
    """Work counts of one call, taken from its arguments (never from internals)."""
    if counter == "points":  # generate(meta, m, n_points)
        return {"points": int(args[1]) * int(args[2])}
    if counter == "evals":  # kernel_matrix(spec, s, t)
        return {"evals": len(args[1]) * len(args[2])}
    if counter == "gram_pairs":  # build_gram(kspec, espec, bags): upper triangle
        sizes = _bag_sizes(args[2])
        total = sum(sizes)
        return {"pair_evals": (total * total + sum(n * n for n in sizes)) // 2}
    if counter == "cross_pairs":  # build_cross_gram(kspec, espec, test, train)
        test = _bag_sizes(args[2])
        train = _bag_sizes(args[3])
        return {"pair_evals": sum(test) * sum(train) + sum(n * n for n in test)}
    if counter == "file_in":
        return {"bytes_read": os.path.getsize(args[0])}
    if counter == "file_out":  # save_model(model, path)
        return {"bytes_written": os.path.getsize(args[1])}
    return {}


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[str] = []
        self._pid = os.getpid()
        self._next_id = 0
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[str]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = None
        with self._lock:
            span_id = f"{self._pid}.{self._next_id}"
            self._next_id += 1
        span = {"id": span_id, "parent": parent, "layer": layer, "name": name,
                "cpu0": time.thread_time(), "t0": time.perf_counter()}
        stack.append(span_id)
        return span

    def close(self, span: dict, counts: dict | None = None) -> None:
        span["t1"] = time.perf_counter()
        span["cpu1"] = time.thread_time()
        self._stack().pop()
        if counts:
            span.update(counts)
        self.spans.append(span)

    def _wrap(self, fn, layer: str, name: str, counter: str | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(span, {"error": True})
                raise
            tracer.close(span, _counts(counter, args, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry of WRAP_TABLE; the originals are kept for uninstall."""
        for mod_name, attr, layer, name, counter in WRAP_TABLE:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, name, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def take(self) -> list[dict]:
        spans, self.spans = self.spans, []
        return spans


@contextlib.contextmanager
def timed_calls(module, attr: str):
    """Sum the wall time of calls to module.attr, and keep the last result.

    Untraced runs use this on `distreg.solver.predict` alone, to split an
    in-process job into its predict part and the rest at the cost of two
    clock reads per call.
    """
    original = getattr(module, attr)
    record = {"result": None, "seconds": 0.0}

    @functools.wraps(original)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            record["result"] = original(*args, **kwargs)
            return record["result"]
        finally:
            record["seconds"] += time.perf_counter() - t0

    setattr(module, attr, timed)
    try:
        yield record
    finally:
        setattr(module, attr, original)


def exclusive_times(spans: list[dict], t_start: float, t_end: float) -> tuple[dict, float]:
    """Wall-clock self time of every span, and the uncovered part of [t_start, t_end].

    At each instant the elapsed time goes to the innermost open spans (those
    with no open child), split evenly when several run at once on different
    threads. The self times therefore add up to the covered part of the
    interval, and self plus uncovered equals t_end - t_start exactly.
    """
    by_id = {s["id"]: s for s in spans}
    events = []
    for s in spans:
        events.append((max(s["t0"], t_start), 1, s["id"]))
        events.append((min(s["t1"], t_end), 0, s["id"]))
    events.sort()
    self_time = {s["id"]: 0.0 for s in spans}
    active: set[str] = set()
    open_children: dict[str, int] = {}
    leaves: set[str] = set()
    covered = 0.0
    prev = t_start
    for t, is_start, sid in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                self_time[leaf] += share
            covered += t - prev
        prev = max(prev, t)
        parent = by_id[sid]["parent"]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                open_children[parent] = open_children.get(parent, 0) + 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return self_time, (t_end - t_start) - covered


def layer_metrics(spans: list[dict], t_start: float, t_end: float) -> dict:
    """Per-layer metrics of one traced job spanning [t_start, t_end].

    `<function>_s` metrics sum span durations, so calls running at once on
    pool threads count once per thread. `<layer>.self_s` is the layer's share
    of the job's wall clock from `exclusive_times`; together with
    `trace.unattributed_s` these add up to `trace.wall_s`.
    """
    exclusive, unattributed = exclusive_times(spans, t_start, t_end)

    def pick(name):
        return [s for s in spans if s["name"] == name]

    def seconds(name):
        return sum(s["t1"] - s["t0"] for s in pick(name))

    def total(name, key):
        return sum(s.get(key, 0) for s in pick(name))

    evals = total("kernel_matrix", "evals")
    kernel_s = seconds("kernel_matrix")
    pair_evals = total("build_gram", "pair_evals") + total("cross_gram", "pair_evals")
    gram_s = seconds("build_gram") + seconds("cross_gram")
    m = {
        "synth.generate_s": seconds("generate"),
        "synth.generate_calls": len(pick("generate")),
        "synth.points": total("generate", "points"),
        "embedding.kernel_matrix_s": kernel_s,
        "embedding.kernel_matrix_calls": len(pick("kernel_matrix")),
        "embedding.kernel_evals": evals,
        "embedding.evals_per_s": evals / kernel_s if kernel_s else 0.0,
        "embedding.kernel_bytes_computed": 8 * evals,
        "outer.tilt_s": seconds("tilt"),
        "outer.tilt_calls": len(pick("tilt")),
        "gram.build_gram_s": seconds("build_gram"),
        "gram.build_gram_calls": len(pick("build_gram")),
        "gram.cross_gram_s": seconds("cross_gram"),
        "gram.cross_gram_calls": len(pick("cross_gram")),
        "gram.pair_evals": pair_evals,
        "gram.pair_evals_per_s": pair_evals / gram_s if gram_s else 0.0,
        "solver.fit_s": seconds("fit"),
        "solver.fit_calls": len(pick("fit")),
        "solver.solve_alpha_s": seconds("solve_alpha"),
        "solver.solve_alpha_calls": len(pick("solve_alpha")),
        "solver.predict_self_s": sum(exclusive[s["id"]] for s in pick("predict")),
        "analysis.select_lambda_s": seconds("select_lambda"),
        "analysis.select_lambda_calls": len(pick("select_lambda")),
        "io.read_bags_s": seconds("read_bags"),
        "io.bytes_read": total("read_bags", "bytes_read") + total("load_model", "bytes_read"),
        "io.save_model_s": seconds("save_model"),
        "io.load_model_s": seconds("load_model"),
        "io.model_bytes": total("save_model", "bytes_written"),
        "trace.wall_s": t_end - t_start,
        "trace.unattributed_s": unattributed,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(exclusive[s["id"]] for s in spans if s["layer"] == layer)
    # Thread CPU seconds per wrapped function, for the full record only.
    for name in {s["name"] for s in spans}:
        m[f"cpu.{name}_s"] = sum(s["cpu1"] - s["cpu0"] for s in pick(name))
    return m
