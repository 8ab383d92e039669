"""Scoring and model inspection: direction-sensitive macro-F1 excluding
Other, per-relation breakdowns, and path-similarity ranking.

Scoring convention: per relation type, predictions in either direction
count toward the predicted total and gold instances in either direction
toward the gold total, but a true positive requires the exact directional
label. A direction flip therefore costs both precision and recall, which
is how the task's official scorer treats it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adp import render_path, shortest_path
from .corpus import LABELS, OTHER_LABEL, RELATION_TYPES, label_index, label_type


class LengthMismatch(ValueError):
    pass


class ZeroVector(ValueError):
    pass


@dataclass
class TypeScore:
    gold: int
    predicted: int
    correct: int

    @property
    def precision(self) -> float:
        return self.correct / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return self.correct / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class EvaluationReport:
    confusion: np.ndarray              # gold rows x predicted columns, 19x19
    per_type: dict[str, TypeScore]     # the 9 relation types
    macro_f1: float                    # mean F1 over the 9 types, Other excluded
    accuracy: float
    total: int


def score(gold_labels, predicted_labels) -> EvaluationReport:
    gold_labels = list(gold_labels)
    predicted_labels = list(predicted_labels)
    if len(gold_labels) != len(predicted_labels):
        raise LengthMismatch(
            f"{len(gold_labels)} gold labels vs {len(predicted_labels)} predictions")

    confusion = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    per_type = {t: TypeScore(0, 0, 0) for t in RELATION_TYPES}
    exact = 0
    for gold, pred in zip(gold_labels, predicted_labels):
        confusion[label_index(gold), label_index(pred)] += 1
        if gold == pred:
            exact += 1
        gold_type, pred_type = label_type(gold), label_type(pred)
        if gold_type != OTHER_LABEL:
            per_type[gold_type].gold += 1
        if pred_type != OTHER_LABEL:
            per_type[pred_type].predicted += 1
            if gold == pred:
                per_type[pred_type].correct += 1

    macro = sum(per_type[t].f1 for t in RELATION_TYPES) / len(RELATION_TYPES)
    accuracy = exact / len(gold_labels) if gold_labels else 0.0
    return EvaluationReport(confusion, per_type, macro, accuracy, len(gold_labels))


def render_report(report: EvaluationReport) -> str:
    width = max(len(t) for t in RELATION_TYPES)
    lines = [f"{'relation':<{width}}  {'P':>7} {'R':>7} {'F1':>7} {'gold':>5} {'pred':>5}"]
    for t in RELATION_TYPES:
        s = report.per_type[t]
        lines.append(f"{t:<{width}}  {s.precision:>7.4f} {s.recall:>7.4f} "
                     f"{s.f1:>7.4f} {s.gold:>5} {s.predicted:>5}")
    lines.append("")
    lines.append(f"macro-F1 (excluding Other): {report.macro_f1:.4f}")
    lines.append(f"accuracy:                   {report.accuracy:.4f}")
    lines.append(f"instances:                  {report.total}")
    return "\n".join(lines)


def metric_lines(report: EvaluationReport) -> list[str]:
    """Machine-readable rendering, one 'name TAB value' per line."""
    lines = [f"macro_f1\t{report.macro_f1:.9f}",
             f"accuracy\t{report.accuracy:.9f}",
             f"instances\t{report.total}"]
    for t in RELATION_TYPES:
        s = report.per_type[t]
        lines.append(f"precision/{t}\t{s.precision:.9f}")
        lines.append(f"recall/{t}\t{s.recall:.9f}")
        lines.append(f"f1/{t}\t{s.f1:.9f}")
    return lines


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine similarity of a zero-norm vector is undefined")
    return float(np.dot(u, v) / (nu * nv))


def nearest_paths(query, candidates, model, top_n: int = 3):
    """Rank candidate instances by cosine similarity of their pooled path
    representations to the query's. Returns (ranked (instance, similarity)
    pairs, ids of candidates skipped for having zero-norm representations).
    Ties break on instance id."""
    query_repr = model.path_repr(query)
    if not np.linalg.norm(query_repr):
        raise ZeroVector(f"query instance {query.id} has a zero path representation")
    scored = []
    skipped = []
    for candidate in candidates:
        try:
            similarity = cosine(query_repr, model.path_repr(candidate))
        except ZeroVector:
            skipped.append(candidate.id)
            continue
        scored.append((candidate, similarity))
    scored.sort(key=lambda pair: (-pair[1], pair[0].id))
    return scored[:top_n], skipped


def describe_path(instance) -> str:
    """The instance's shortest path as 'form label form ...' text."""
    steps = shortest_path(instance.graph, instance.e1.head_index,
                          instance.e2.head_index)
    return render_path(instance.graph, steps)
