import math
from types import SimpleNamespace

import numpy as np
import pytest

from depnn import synth
from depnn.corpus import LABELS, RELATION_TYPES
from depnn.evaluation import (EvaluationReport, LengthMismatch, TypeScore,
                              ZeroVector, cosine, describe_path, metric_lines,
                              nearest_paths, render_report, score)

from conftest import tiny_model

CE12, CE21 = "Cause-Effect(e1,e2)", "Cause-Effect(e2,e1)"
IA12 = "Instrument-Agency(e1,e2)"
MT12 = "Message-Topic(e1,e2)"
O = "Other"

# 12-instance case: one direction flip (#3), one cross-type error (#5),
# Other confusions (#9, #12)
HAND_GOLD = [CE12, CE12, CE12, IA12, IA12, MT12, MT12, O, O, CE21, IA12, MT12]
HAND_PRED = [CE12, CE12, CE21, IA12, MT12, MT12, MT12, O, CE12, CE21, IA12, O]


class TestScore:
    def test_perfect_predictions_give_macro_one(self):
        gold = list(LABELS)   # every directional label once, plus Other
        report = score(gold, gold)
        assert report.macro_f1 == 1.0
        assert report.accuracy == 1.0

    def test_all_other_gives_macro_zero(self):
        gold = list(LABELS)
        report = score(gold, [O] * len(gold))
        assert report.macro_f1 == 0.0

    def test_hand_scored_case(self):
        report = score(HAND_GOLD, HAND_PRED)
        ce = report.per_type["Cause-Effect"]
        assert (ce.gold, ce.predicted, ce.correct) == (4, 5, 3)
        assert math.isclose(ce.precision, 0.6, abs_tol=1e-12)
        assert math.isclose(ce.recall, 0.75, abs_tol=1e-12)
        assert math.isclose(ce.f1, 2 / 3, abs_tol=1e-12)

        ia = report.per_type["Instrument-Agency"]
        assert (ia.gold, ia.predicted, ia.correct) == (3, 2, 2)
        assert math.isclose(ia.precision, 1.0, abs_tol=1e-12)
        assert math.isclose(ia.recall, 2 / 3, abs_tol=1e-12)
        assert math.isclose(ia.f1, 0.8, abs_tol=1e-12)

        mt = report.per_type["Message-Topic"]
        assert (mt.gold, mt.predicted, mt.correct) == (3, 3, 2)
        assert math.isclose(mt.f1, 2 / 3, abs_tol=1e-12)

        expected_macro = (2 / 3 + 0.8 + 2 / 3) / 9
        assert math.isclose(report.macro_f1, expected_macro, abs_tol=1e-12)
        assert math.isclose(report.accuracy, 8 / 12, abs_tol=1e-12)
        assert report.confusion.sum() == 12

    def test_confusion_diagonal_counts_exact_matches(self):
        report = score(HAND_GOLD, HAND_PRED)
        assert report.confusion.trace() == 8

    def test_joint_permutation_invariance(self, rng):
        order = rng.permutation(len(HAND_GOLD))
        shuffled = score([HAND_GOLD[i] for i in order],
                         [HAND_PRED[i] for i in order])
        reference = score(HAND_GOLD, HAND_PRED)
        assert shuffled.macro_f1 == reference.macro_f1
        assert np.array_equal(np.sort(shuffled.confusion, axis=None),
                              np.sort(reference.confusion, axis=None))
        for t in RELATION_TYPES:
            assert shuffled.per_type[t] == reference.per_type[t]

    def test_direction_flip_keeps_precision_denominator(self):
        gold = [CE12, CE12, O]
        flipped = score(gold, [CE21, CE12, O])
        corrected = score(gold, [CE12, CE12, O])
        ce_flipped = flipped.per_type["Cause-Effect"]
        ce_corrected = corrected.per_type["Cause-Effect"]
        assert ce_flipped.predicted == ce_corrected.predicted == 2
        assert ce_flipped.correct == 1 and ce_corrected.correct == 2

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            score([O], [O, O])

    def test_renderings_are_stable(self):
        report = score(HAND_GOLD, HAND_PRED)
        assert render_report(report) == render_report(score(HAND_GOLD, HAND_PRED))
        lines = metric_lines(report)
        assert f"macro_f1\t{report.macro_f1:.9f}" in lines
        assert all("\t" in line for line in lines)


def f1_delta(report_a, report_b):
    """Type-aligned F1 differences, report_a minus report_b."""
    return {t: report_a.per_type[t].f1 - report_b.per_type[t].f1
            for t in RELATION_TYPES}


class TestDeltas:
    def test_identical_reports_zero_delta(self):
        # scoring the same labels twice gives the same per-type F1
        a = score(HAND_GOLD, HAND_PRED)
        b = score(list(HAND_GOLD), list(HAND_PRED))
        assert all(v == 0.0 for v in f1_delta(a, b).values())

    def test_published_subtree_gains(self):
        # F1 before/after adding subtrees, for the two most affected types
        def fake_report(f1_by_type):
            per_type = {t: TypeScore(1, 1, 1) for t in RELATION_TYPES}
            report = EvaluationReport(np.zeros((19, 19), dtype=np.int64),
                                      per_type, 0.0, 0.0, 0)
            for t, f1 in f1_by_type.items():
                gold = 1000
                correct = round(f1 * gold)   # P == R == F1 when gold == predicted
                report.per_type[t] = TypeScore(gold, gold, correct)
            return report

        without = fake_report({"Instrument-Agency": 0.683, "Product-Producer": 0.776})
        with_sub = fake_report({"Instrument-Agency": 0.714, "Product-Producer": 0.801})
        delta = f1_delta(with_sub, without)
        assert math.isclose(delta["Instrument-Agency"], 0.031, abs_tol=1e-9)
        assert math.isclose(delta["Product-Producer"], 0.025, abs_tol=1e-9)

    def test_arithmetic_on_constructed_reports(self):
        a = score(HAND_GOLD, HAND_PRED)
        b = score(HAND_GOLD, HAND_GOLD)
        delta = f1_delta(b, a)
        assert math.isclose(delta["Cause-Effect"], 1.0 - 2 / 3, abs_tol=1e-12)


class TestCosine:
    def test_self_similarity(self):
        v = np.array([0.3, -0.7, 2.0])
        assert math.isclose(cosine(v, v), 1.0, abs_tol=1e-12)

    def test_positive_scaling_invariant_and_symmetric(self, rng):
        u, v = rng.normal(size=5), rng.normal(size=5)
        assert math.isclose(cosine(u, 3.7 * u), 1.0, abs_tol=1e-12)
        assert math.isclose(cosine(u, v), cosine(v, u), abs_tol=1e-15)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            cosine(np.zeros(3), np.ones(3))


class FakeReprModel:
    """Duck-typed stand-in mapping instance ids onto fixed path vectors."""

    def __init__(self, vectors):
        self.vectors = vectors

    def path_repr(self, instance):
        return self.vectors[instance.id]


class TestNearestPaths:
    def stub(self, i):
        return SimpleNamespace(id=i)

    def test_query_in_candidates_ranks_first_with_similarity_one(self):
        model = FakeReprModel({1: np.array([1.0, 0.0]),
                               2: np.array([0.8, 0.1]),
                               3: np.array([0.0, 1.0])})
        ranked, skipped = nearest_paths(self.stub(1), [self.stub(i) for i in (1, 2, 3)],
                                        model, top_n=3)
        assert skipped == []
        assert ranked[0][0].id == 1
        assert math.isclose(ranked[0][1], 1.0, abs_tol=1e-12)

    def test_antipodal_candidate_ranked_last(self):
        q = np.array([0.5, -0.25, 1.0])
        model = FakeReprModel({1: q, 2: -q, 3: np.array([1.0, 1.0, 1.0])})
        ranked, _ = nearest_paths(self.stub(1), [self.stub(2), self.stub(3)],
                                  model, top_n=2)
        assert ranked[-1][0].id == 2
        assert math.isclose(ranked[-1][1], -1.0, abs_tol=1e-12)

    def test_zero_candidates_skipped_zero_query_raises(self):
        model = FakeReprModel({1: np.ones(2), 2: np.zeros(2), 3: np.ones(2)})
        ranked, skipped = nearest_paths(self.stub(1), [self.stub(2), self.stub(3)],
                                        model, top_n=5)
        assert skipped == [2]
        assert [r[0].id for r in ranked] == [3]
        model_zero = FakeReprModel({1: np.zeros(2)})
        with pytest.raises(ZeroVector):
            nearest_paths(self.stub(1), [], model_zero)

    def test_deterministic_tie_break_by_id(self):
        v = np.array([1.0, 1.0])
        model = FakeReprModel({1: v, 5: 2 * v, 4: 3 * v})
        ranked, _ = nearest_paths(self.stub(1), [self.stub(5), self.stub(4)],
                                  model, top_n=2)
        assert [r[0].id for r in ranked] == [4, 5]

    def test_trained_model_groups_same_relation_paths(self):
        instances = synth.make_separable_corpus(30)
        model = tiny_model(instances, dim=10, dim_c=6, hidden=16)
        model.train(instances, epochs=30)
        query = instances[0]
        same_class = {i.id for i in instances if i.gold == query.gold and i != query}
        ranked, _ = nearest_paths(query, [i for i in instances if i.id != query.id],
                                  model, top_n=2)
        assert {r[0].id for r in ranked} <= same_class
        assert describe_path(query).count(" ") >= 2   # word rel word at least
