"""The depnn benchmark: SGD training and prediction at the published
configurations, measured from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run generates the workload's inputs from the seed in a child process
(bench/generate.py), then repeats rounds until S seconds have passed. A
train round reads the corpus, builds the vocabulary and the model, and
calls Model.train; an eval round loads the model, reads the held-out file,
predicts every instance and scores the labels. Every round's outputs are
checked, and so are those of a fixed canary against reference.json.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics. With --trace 1 rounds alternate between untraced and
traced, the metrics are the per-layer ones, and the spans are written to
.bench_work/trace-NAME.jsonl. --record-reference runs only the canary and
stores its results in reference.json.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: runs are single-threaded
# processes, and the reference losses depend on the order BLAS sums in
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from generate import model_config
from spans import Tracer, layer_metrics, op_time_split, rebound, traced_program
from workloads import CANARY_SEED, ROOT, WORKLOADS, Workload, canary, import_depnn

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
WORK_DIR = ROOT / ".bench_work"
REL_TOL = 1e-9
GENERATE_TIMEOUT_S = 300


@dataclass
class Round:
    """One set-up plus one Model.train call or one predict-and-score pass."""
    attempted: int                     # SGD steps or predictions
    failed: int = 0
    setup_s: float | None = None
    busy_s: float | None = None        # the Model.train call, or predicting plus scoring
    op_ns: list[int] = field(default_factory=list)
    outputs: list | None = None        # epoch losses, or (label, top probability) pairs

    @property
    def inst_per_s(self) -> float | None:
        if self.busy_s is None or self.failed:
            return None
        return self.attempted / self.busy_s


def close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def no_span(name):
    return nullcontext()


def timed(fn, sink: list[int]):
    def wrapper(*args, **kwargs):
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        sink.append(perf_counter_ns() - start)
        return result
    return wrapper


# --- rounds ---------------------------------------------------------------------

def train_round(depnn, workload: Workload, seed: int, inputs: Path, span,
                expected: list[float] | None) -> Round:
    """Set up, train, and check each epoch's mean loss against `expected`."""
    corpus, classifier = depnn.corpus, depnn.classifier
    result = Round(attempted=workload.n_train * workload.epochs)
    try:
        start = perf_counter()
        with span("corpus.read_parsed_instances"):
            instances = corpus.read_parsed_instances(inputs / "corpus.inst")
        with span("corpus.Vocabulary.build"):
            vocab = corpus.Vocabulary.build(instances)
        with span("classifier.Model.build"):
            model = classifier.Model.build(model_config(depnn, workload, seed), vocab)
        result.setup_s = perf_counter() - start
        step = vars(classifier.Model)["train_step"]
        with rebound(classifier.Model, "train_step", timed(step, result.op_ns)):
            start = perf_counter()
            report = model.train(instances[:workload.n_train], epochs=workload.epochs)
            result.busy_s = perf_counter() - start
        model.store.validate_finite()
    except Exception:
        traceback.print_exc()
        result.failed = result.attempted
        return result
    result.outputs = list(report.epoch_losses)
    for epoch in range(workload.epochs):
        loss = result.outputs[epoch] if epoch < len(result.outputs) else math.nan
        if not math.isfinite(loss) or (expected is not None and not close(loss, expected[epoch])):
            result.failed += workload.n_train
    return result


def eval_round(depnn, workload: Workload, inputs: Path, span,
               expected: list[tuple[str, float]]) -> Round:
    """Set up, predict every held-out instance, score, and check each
    prediction against `expected`."""
    corpus, classifier, evaluation = depnn.corpus, depnn.classifier, depnn.evaluation
    result = Round(attempted=len(expected))
    try:
        start = perf_counter()
        with span("classifier.Model.load"):
            model = classifier.Model.load(inputs / "model.depnn")
        with span("corpus.read_parsed_instances"):
            instances = corpus.read_parsed_instances(inputs / "heldout.inst")
        result.setup_s = perf_counter() - start
        predictions = []
        start = perf_counter()
        for instance in instances:
            op_start = perf_counter_ns()
            predictions.append(model.predict(instance))
            result.op_ns.append(perf_counter_ns() - op_start)
        with span("evaluation.score"):
            report = evaluation.score([inst.gold for inst in instances],
                                      [p.label for p in predictions])
        result.busy_s = perf_counter() - start
    except Exception:
        traceback.print_exc()
        result.failed = result.attempted
        return result
    if len(predictions) != len(expected) or report.total != len(expected):
        result.failed = result.attempted
        return result
    result.outputs = [(p.label, float(p.distribution.max())) for p in predictions]
    for p, (label, top), (ref_label, ref_top) in zip(predictions, result.outputs, expected):
        dist = p.distribution
        valid = (bool(np.isfinite(dist).all()) and abs(float(dist.sum()) - 1.0) <= REL_TOL
                 and label == ref_label and close(top, ref_top))
        result.failed += not valid
    return result


# --- runs -----------------------------------------------------------------------

def load_reference(workload_name: str):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload_name)


def run_canary(depnn, name: str, workload: Workload, inputs: Path, reference) -> Round:
    small = canary(workload)
    if small.kind == "train":
        expected = None if reference is None else reference["epoch_losses"]
        return train_round(depnn, small, CANARY_SEED, inputs, no_span, expected)
    if reference is None:
        reference = json.loads((inputs / "heldout.ref.json").read_text())
    return eval_round(depnn, small, inputs, no_span,
                      list(zip(reference["labels"], reference["top_prob"])))


def record_reference(depnn, name: str, workload: Workload, inputs: Path) -> int:
    result = run_canary(depnn, name, workload, inputs, None)
    if result.outputs is None:
        print(f"error: the {name} canary raised; nothing recorded", file=sys.stderr)
        return 3
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if workload.kind == "train":
        table[name] = {"epoch_losses": result.outputs}
    else:
        table[name] = {"labels": [label for label, _ in result.outputs],
                       "top_prob": [top for _, top in result.outputs]}
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded the {name} canary in {REFERENCE.name}")
    return 0


def timed_rounds(depnn, workload: Workload, seed: int, inputs: Path, seconds: float,
                 tracer) -> tuple[list[Round], list[Round]]:
    """Rounds until `seconds` have passed: (untraced, traced). With a tracer
    the rounds alternate, starting untraced, and end on a traced one."""
    plain: list[Round] = []
    traced: list[Round] = []
    expected = None
    if workload.kind == "eval":
        ref = json.loads((inputs / "heldout.ref.json").read_text())
        expected = list(zip(ref["labels"], ref["top_prob"]))
    deadline = perf_counter() + seconds
    while True:
        # each round stands for a fresh process: encode_word's recursive
        # closure is a reference cycle that keeps the previous round's
        # ParameterStore alive until the cyclic collector runs
        gc.collect()
        use_tracer = tracer is not None and len(traced) < len(plain)
        with traced_program(tracer, depnn) if use_tracer else nullcontext():
            span = tracer.span if use_tracer else no_span
            if workload.kind == "train":
                result = train_round(depnn, workload, seed, inputs, span, expected)
                if expected is None and result.outputs is not None and not result.failed:
                    expected = result.outputs
            else:
                result = eval_round(depnn, workload, inputs, span, expected)
        (traced if use_tracer else plain).append(result)
        if perf_counter() >= deadline and (tracer is None or len(traced) == len(plain)):
            return plain, traced


def median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def percentile_ms(op_ns: list[int], q: float) -> float:
    return float(np.percentile(np.asarray(op_ns, dtype=np.float64), q)) / 1e6 if op_ns else 0.0


def end_to_end_metrics(rounds: list[Round]) -> tuple[dict, dict]:
    """name -> (value, unit), and name -> sample count."""
    op_ns = [ns for r in rounds for ns in r.op_ns]
    setups = [r.setup_s for r in rounds if r.setup_s is not None]
    rates = [r.inst_per_s for r in rounds if r.inst_per_s is not None]
    metrics = {
        "setup_s": (median(setups), "s"),
        "inst_per_s": (median(rates), "1/s"),
        "inst_ms.p50": (percentile_ms(op_ns, 50), "ms"),
        "inst_ms.p90": (percentile_ms(op_ns, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {"setup_s": len(setups), "inst_per_s": len(rates),
               "inst_ms.p50": len(op_ns), "inst_ms.p90": len(op_ns), "peak_rss_mb": 1}
    return metrics, samples


# --- provenance -----------------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it says."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def provenance(workload_name: str, seed: int, trace: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload_name, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "git": git_state(),
    }


# --- main -----------------------------------------------------------------------

def generate(workload_name: str, seed: int, out: Path) -> None:
    cmd = [sys.executable, str(BENCH_DIR / "generate.py"), "--workload", workload_name,
           "--seed", str(seed), "--out", str(out)]
    with subprocess.Popen(cmd, cwd=ROOT) as child:
        try:
            code = child.wait(timeout=GENERATE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise
    if code != 0:
        raise RuntimeError(f"input generation exited with code {code}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<40} {value:>14.6f} {unit:<6} {note}".rstrip())


def main(argv=None) -> int:
    args = parse_args(argv)
    depnn = import_depnn()
    if depnn is None:
        print(f"error: no depnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        generate(args.workload, args.seed, inputs)
        if args.record_reference:
            return record_reference(depnn, args.workload, workload, inputs / "canary")
        tracer = Tracer() if args.trace else None
        plain, traced = timed_rounds(depnn, workload, args.seed, inputs / "timed",
                                     args.seconds, tracer)
        reference = load_reference(args.workload)
        gc.collect()
        check = run_canary(depnn, args.workload, workload, inputs / "canary", reference)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    all_rounds = plain + traced + [check]
    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    unit_name = "SGD steps" if workload.kind == "train" else "predictions"
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(plain)}+{len(traced)} unit={unit_name}")
    for label, rounds in (("untraced", plain), ("traced", traced)):
        if rounds:
            print(f"{label} rounds: inst_per_s " + " ".join(
                f"{r.inst_per_s:.3f}" if r.inst_per_s else "failed" for r in rounds)
                + " setup_s " + " ".join(f"{r.setup_s:.4f}" for r in rounds if r.setup_s))
    if reference is None:
        print(f"warning: no canary reference for {args.workload}; canary only self-checked")
        failed += check.attempted
    print_metric("failed_frac", failed / attempted, "frac", f"({failed}/{attempted}, canary "
                 f"{check.failed}/{check.attempted})")

    if args.trace:
        traced_rate = median(r.inst_per_s for r in traced)
        overhead = median(r.inst_per_s for r in plain) / traced_rate - 1.0 if traced_rate else 0.0
        metrics = layer_metrics(tracer, overhead)
        split = op_time_split(tracer)
        untraced_op_ns = [ns for r in plain for ns in r.op_ns]
        untraced_ms = sum(untraced_op_ns) / len(untraced_op_ns) / 1e6 if untraced_op_ns else 0.0
        gap = split["layers"] / untraced_ms - 1.0 if untraced_ms else 0.0
        print_metric("trace.op_ms", split["op"], "ms", "(traced operation, whole span)")
        print_metric("trace.layers_plus_self_ms", split["layers"], "ms",
                     "(layer self times + classifier.self)")
        print_metric("trace.counters_ms", split["counters"], "ms", "(counting inside the op)")
        print_metric("trace.untraced_op_ms", untraced_ms, "ms", "(the operation, untraced rounds)")
        print_metric("trace.layers_vs_untraced_frac", gap, "frac",
                     "(within trace.overhead_frac)" if abs(gap) <= abs(overhead)
                     else "(outside trace.overhead_frac)")
        print_metric("trace.update_share", split["update"] / split["op"] if split["op"] else 0.0,
                     "frac", "(sgd_step + zero_grads of the traced op)")
        tracer.write(WORK_DIR / f"trace-{args.workload}.jsonl")
        for name, (value, unit) in metrics.items():
            print_metric(name, value, unit)
    else:
        metrics, samples = end_to_end_metrics(plain)
        for name, (value, unit) in metrics.items():
            print_metric(name, value, unit, f"(n={samples[name]})")
        op_ns = [ns for r in plain for ns in r.op_ns]
        print_metric("inst_ms.p99", percentile_ms(op_ns, 99), "ms",
                     f"(n={len(op_ns)}, printed only: too noisy to gate on)")

    print(json.dumps({"provenance": provenance(args.workload, args.seed, bool(args.trace))}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
