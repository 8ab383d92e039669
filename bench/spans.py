"""Spans and counts recorded from outside the program, around the calls
into each layer of depnn.

classifier imports shortest_path, attach_subtrees, encode_word,
encode_backward, build_windows, conv_forward, conv_backward and softmax by
name, so each wrapper is bound both on depnn.classifier, where the calls
are looked up, and on the function's home module. sgd_step and zero_grads
are wrapped on the ParameterStore class, train_step and predict on the
Model class. A name the program no longer has is left alone and its layer
reads 0.

Spans stay in memory until the run ends. A layer's self time is its spans'
duration minus the part covered by their child spans. Counts are taken from
the values a wrapped call receives or returns, inside a "trace.counters"
span, so the counting time lands in no layer's self time.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter_ns

import numpy as np

COUNTERS = "trace.counters"
TRAIN_STEP = "classifier.train_step"
PREDICT = "classifier.predict"

# layers timed inside each instance operation (train_step or predict);
# classifier.self is whatever of an operation these do not cover
LAYERS = ("adp.shortest_path", "adp.attach_subtrees",
          "subtree.encode_word", "subtree.encode_backward",
          "path_cnn.build_windows", "path_cnn.conv_forward", "path_cnn.conv_backward",
          "numerics.softmax", "numerics.sgd_step", "numerics.zero_grads")

# calls the benchmark makes itself, once per round, outside any operation
SETUP_CALLS = ("corpus.read_parsed_instances", "corpus.Vocabulary.build",
               "classifier.Model.build", "classifier.Model.load")
SCORE = "evaluation.score"
TOUCHED_SAMPLE = 8


@contextmanager
def rebound(owner, attr: str, value):
    """Bind owner.attr to value for the duration of the block."""
    original = vars(owner)[attr]
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Spans in four parallel lists of strings and ints, which the garbage
    collector does not scan, so a long run does not slow collections."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []     # index of the enclosing span, or -1
        self.starts: list[int] = []      # perf_counter_ns
        self.ends: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def _enter(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0)
        self._open.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def _exit(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def wrap(self, name: str, fn, before=None, after=None):
        """fn inside a span; before(counts, args) and after(counts, args,
        result) run in a counters span of their own."""
        def traced(*args, **kwargs):
            if before is not None:
                with self.span(COUNTERS):
                    before(self.counts, args)
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if after is not None:
                with self.span(COUNTERS):
                    after(self.counts, args, result)
            return result
        return traced

    def spans(self):
        """(name, parent, start_ns, end_ns) per span, in start order."""
        return zip(self.names, self.parents, self.starts, self.ends)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans()):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


# --- counters -----------------------------------------------------------------

def _count_builds(counts, args, result):
    counts["adp.builds"] += 1


def _count_nodes(counts, args, result):
    stack = [result]
    while stack:
        node = stack.pop()
        counts["subtree.nodes"] += 1
        stack.extend(kid for _, kid in getattr(node, "children", ()))


def _count_windows(counts, args, result):
    counts["path_cnn.windows"] += len(result)


def _count_live_windows(counts, args, result):
    """Windows that win at least one pooled unit, out of those computed."""
    argmax = getattr(result, "argmax", None)
    feature_map = getattr(result, "feature_map", None)
    if argmax is not None and feature_map is not None:
        counts["path_cnn.live_windows"] += np.unique(argmax).size
        counts["path_cnn.computed_windows"] += feature_map.shape[0]


def _count_touched(counts, args):
    """Parameter entries with a nonzero gradient when the update runs,
    counted on every TOUCHED_SAMPLE-th update: a count is a full pass over
    every gradient, as long as the dense update itself."""
    counts["numerics.updates"] += 1
    if counts["numerics.updates"] % TOUCHED_SAMPLE != 1:
        return
    store = args[0]
    for name in store.names():
        grad = store.grad(name)
        counts["numerics.touched_entries"] += np.count_nonzero(grad)
        counts["numerics.update_entries"] += grad.size


@contextmanager
def traced_program(tracer: Tracer, depnn):
    """Install the layer wrappers on the program for the block's duration."""
    adp, classifier, numerics = depnn.adp, depnn.classifier, depnn.numerics
    subtree, path_cnn = depnn.subtree, depnn.path_cnn
    # (span name, owners that bind the function, attribute, before, after)
    targets = [
        ("adp.shortest_path", (classifier, adp), "shortest_path", None, _count_builds),
        ("adp.attach_subtrees", (classifier, adp), "attach_subtrees", None, None),
        ("subtree.encode_word", (classifier, subtree), "encode_word", None, _count_nodes),
        ("subtree.encode_backward", (classifier, subtree), "encode_backward", None, None),
        ("path_cnn.build_windows", (classifier, path_cnn), "build_windows", None, _count_windows),
        ("path_cnn.conv_forward", (classifier, path_cnn), "conv_forward", None,
         _count_live_windows),
        ("path_cnn.conv_backward", (classifier, path_cnn), "conv_backward", None, None),
        ("numerics.softmax", (classifier, numerics), "softmax", None, None),
        ("numerics.sgd_step", (numerics.ParameterStore,), "sgd_step", _count_touched, None),
        ("numerics.zero_grads", (numerics.ParameterStore,), "zero_grads", None, None),
        (TRAIN_STEP, (classifier.Model,), "train_step", None, None),
        (PREDICT, (classifier.Model,), "predict", None, None),
    ]
    with ExitStack() as stack:
        for name, owners, attr, before, after in targets:
            wrappers = {}
            for owner in owners:
                original = vars(owner).get(attr)
                if original is None:
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = tracer.wrap(name, original, before, after)
                stack.enter_context(rebound(owner, attr, wrappers[id(original)]))
        yield


# --- per-layer metrics ----------------------------------------------------------

def _times(tracer: Tracer) -> tuple[dict[str, int], dict[str, list[int]]]:
    """Self time per span name, and every span's duration per name, in ns."""
    covered = [0] * len(tracer.names)
    for name, parent, start, end in tracer.spans():
        if parent >= 0:
            covered[parent] += end - start
    self_ns: dict[str, int] = defaultdict(int)
    durations: dict[str, list[int]] = defaultdict(list)
    for i, (name, parent, start, end) in enumerate(tracer.spans()):
        self_ns[name] += end - start - covered[i]
        durations[name].append(end - start)
    return self_ns, durations


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from the recorded spans.
    Per-instance figures divide by the number of operations (train_step
    plus predict calls); per-step figures by the number of train_step calls."""
    self_ns, durations = _times(tracer)
    n_steps = len(durations[TRAIN_STEP])
    n_ops = n_steps + len(durations[PREDICT])
    counts = tracer.counts

    def ms_per_op(name):
        return _ratio(self_ns[name] / 1e6, n_ops)

    def ms_per_step(name):
        return _ratio(self_ns[name] / 1e6, n_steps)

    def median_s(name):
        return statistics.median(durations[name]) / 1e9 if durations[name] else 0.0

    metrics = {
        "numerics.sgd_step.ms_per_step": (ms_per_step("numerics.sgd_step"), "ms"),
        "numerics.zero_grads.ms_per_step": (ms_per_step("numerics.zero_grads"), "ms"),
        "numerics.touched_frac": (_ratio(counts["numerics.touched_entries"],
                                         counts["numerics.update_entries"]), "frac"),
        "numerics.softmax.ms_per_inst": (ms_per_op("numerics.softmax"), "ms"),
        "path_cnn.conv_backward.ms_per_inst": (ms_per_op("path_cnn.conv_backward"), "ms"),
        "path_cnn.conv_forward.ms_per_inst": (ms_per_op("path_cnn.conv_forward"), "ms"),
        "path_cnn.build_windows.ms_per_inst": (ms_per_op("path_cnn.build_windows"), "ms"),
        "path_cnn.windows_per_inst": (_ratio(counts["path_cnn.windows"], n_ops), "count"),
        "path_cnn.live_window_frac": (_ratio(counts["path_cnn.live_windows"],
                                             counts["path_cnn.computed_windows"]), "frac"),
        "subtree.encode_word.ms_per_inst": (ms_per_op("subtree.encode_word"), "ms"),
        "subtree.encode_backward.ms_per_inst": (ms_per_op("subtree.encode_backward"), "ms"),
        "subtree.nodes_per_inst": (_ratio(counts["subtree.nodes"], n_ops), "count"),
        "adp.shortest_path.ms_per_inst": (ms_per_op("adp.shortest_path"), "ms"),
        "adp.attach_subtrees.ms_per_inst": (ms_per_op("adp.attach_subtrees"), "ms"),
        "adp.builds_per_step": (_ratio(counts["adp.builds"], n_ops), "count"),
        "classifier.self.ms_per_inst": (ms_per_op(TRAIN_STEP) + ms_per_op(PREDICT), "ms"),
    }
    for name in SETUP_CALLS:
        metrics[f"{name}.s"] = (median_s(name), "s")
    metrics[f"{SCORE}.ms"] = (median_s(SCORE) * 1e3, "ms")
    metrics["trace.overhead_frac"] = (overhead_frac, "frac")
    return metrics


def op_time_split(tracer: Tracer) -> dict[str, float]:
    """Mean ms per operation: its whole span, the self time of the layers
    and classifier that tile it, and the counting inside it. The spans tile
    the operation, so layers + counters = op; the layer sum is compared with
    the untraced operation by the caller."""
    self_ns, durations = _times(tracer)
    n_ops = len(durations[TRAIN_STEP]) + len(durations[PREDICT])
    split = {
        "op": sum(durations[TRAIN_STEP]) + sum(durations[PREDICT]),
        "layers": sum(self_ns[name] for name in LAYERS + (TRAIN_STEP, PREDICT)),
        "update": self_ns["numerics.sgd_step"] + self_ns["numerics.zero_grads"],
        "counters": sum(durations[COUNTERS]),
    }
    return {key: _ratio(ns / 1e6, n_ops) for key, ns in split.items()}
