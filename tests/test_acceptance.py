"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria tied to the licensed dataset, pretrained embeddings, or the
official scorer run only when the corresponding environment variables
point at local copies:

  DEPNN_SEMEVAL_TRAIN / DEPNN_SEMEVAL_TEST   raw dataset files
  DEPNN_SEMEVAL_TRAIN_INST / DEPNN_SEMEVAL_TEST_INST   converted instances
  DEPNN_EMB200                                200-d embedding text file
  DEPNN_SCORER                                official perl scorer script
"""

import math
import os
import re
import subprocess
import time
from types import SimpleNamespace

import numpy as np
import pytest

from depnn import synth
from depnn.adp import attach_subtrees, shortest_path
from depnn.classifier import Model, TrainConfig
from depnn.cli import main
from depnn.corpus import (LABELS, Vocabulary, dataset_stats,
                          read_parsed_instances, read_semeval_raw,
                          write_parsed_instances)
from depnn.evaluation import metric_lines, score
from depnn.numerics import gradient_check

from conftest import enumerate_tree_path, offpath_descendants, random_tree

GRADCHECK_CONFIG = TrainConfig(dim=8, dim_c=5, hidden=7, window=5, lex_dim=4,
                               use_ner=True, use_wordnet=True, seed=2)


def passline(criterion, message):
    print(f"[acceptance] criterion {criterion}: PASS ({message})")


def one_word_path_case(case_id, gold):
    """Entity heads that coincide give the degenerate one-word path; real
    instances cannot express this (spans must not overlap), so a stand-in
    carries it through the full model."""
    from depnn.adp import Arc, DependencyGraph, Token

    tokens = [Token(1, "anchor", ner_tag="OBJ", wn_hypernym="act.n.02"),
              Token(2, "alpha"), Token(3, "beta"), Token(4, "Gamma")]
    arcs = [Arc(0, 1, "root"), Arc(1, 2, "dobj"), Arc(2, 3, "det"),
            Arc(1, 4, "amod")]
    graph = DependencyGraph(tokens, arcs)
    head = SimpleNamespace(head_index=1)
    return SimpleNamespace(id=case_id, graph=graph, e1=head, e2=head, gold=gold)


def test_criterion_1_gradient_correctness():
    instances = list(synth.make_gradcheck_instances(20, seed=31))
    extras = [one_word_path_case(1001, LABELS[2]),
              one_word_path_case(1002, LABELS[17])]
    vocab = Vocabulary.build(instances)
    model = Model.build(GRADCHECK_CONFIG, vocab)

    path_lengths = set()
    worst = {name: 0.0 for name in model.store.names()}
    started = time.monotonic()
    for inst in instances + extras:
        steps = shortest_path(inst.graph, inst.e1.head_index, inst.e2.head_index)
        path_lengths.add(len(steps))
        model.store.zero_grads()
        model.accumulate_gradients(inst)
        errors = gradient_check(lambda: model.evaluate_loss(inst), model.store,
                                epsilon=1e-5)
        for name, err in errors.items():
            worst[name] = max(worst[name], err)
    elapsed = time.monotonic() - started

    offenders = {name: err for name, err in worst.items() if err >= 1e-5}
    assert not offenders, f"gradient mismatches: {offenders}"
    assert path_lengths >= {1, 2, 3, 4, 5, 6}
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    passline(1, f"{len(instances) + len(extras)} ADPs, worst error "
                f"{max(worst.values()):.2e}, {elapsed:.1f}s")


def _thousand_trees():
    rng = np.random.default_rng(424242)
    cases = []
    for _ in range(1000):
        graph = random_tree(rng)
        n = len(graph.tokens)
        a = 1 + int(rng.integers(n))
        b = 1 + int(rng.integers(n))
        cases.append((graph, a, b))
    return cases


def test_criterion_2_path_oracle_equivalence():
    started = time.monotonic()
    for graph, a, b in _thousand_trees():
        assert shortest_path(graph, a, b) == enumerate_tree_path(graph, a, b)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"path oracle comparison took {elapsed:.1f}s"
    passline(2, f"1000 trees, {elapsed:.2f}s")


def test_criterion_3_subtree_partition():
    for graph, a, b in _thousand_trees():
        adp = attach_subtrees(graph, shortest_path(graph, a, b))
        path = set(adp.path_tokens)
        union = set()
        for word in adp.path_tokens:
            tokens = adp.subtree_tokens(word)
            assert tokens.isdisjoint(path)
            assert tokens.isdisjoint(union)
            assert tokens == offpath_descendants(graph, path, word)
            union |= tokens
        oracle_union = set()
        for word in path:
            oracle_union |= offpath_descendants(graph, path, word)
        assert union == oracle_union
    passline(3, "1000 trees partition correctly")


def test_criterion_4_overfit_sanity():
    instances = synth.make_separable_corpus(50)
    vocab = Vocabulary.build(instances)
    model = Model.build(TrainConfig(dim=10, dim_c=6, hidden=16, window=3,
                                    learning_rate=0.05, seed=9), vocab)
    accuracy = 0.0
    epochs_used = 0
    for epoch in range(200):
        model.train(instances, epochs=1)
        epochs_used = epoch + 1
        accuracy = score([inst.gold for inst in instances],
                         [model.predict(inst).label for inst in instances]).accuracy
        if accuracy >= 0.99:
            break
    assert accuracy >= 0.99, f"only reached {accuracy:.3f} after 200 epochs"

    tiny = Model.build(TrainConfig(dim=10, dim_c=6, hidden=16, window=3,
                                   learning_rate=1e-6, seed=9), vocab)
    inst = instances[0]
    previous = tiny.evaluate_loss(inst)
    for _ in range(25):
        tiny.train_step(inst)
        current = tiny.evaluate_loss(inst)
        assert current <= previous + 1e-15, "loss rose under a 1e-6 step"
        previous = current
    passline(4, f"accuracy {accuracy:.3f} after {epochs_used} epochs; "
                f"25 monotone 1e-6 steps")


HAND_GOLD = ["Cause-Effect(e1,e2)", "Cause-Effect(e1,e2)", "Cause-Effect(e1,e2)",
             "Instrument-Agency(e1,e2)", "Instrument-Agency(e1,e2)",
             "Message-Topic(e1,e2)", "Message-Topic(e1,e2)", "Other", "Other",
             "Cause-Effect(e2,e1)", "Instrument-Agency(e1,e2)",
             "Message-Topic(e1,e2)"]
HAND_PRED = ["Cause-Effect(e1,e2)", "Cause-Effect(e1,e2)", "Cause-Effect(e2,e1)",
             "Instrument-Agency(e1,e2)", "Message-Topic(e1,e2)",
             "Message-Topic(e1,e2)", "Message-Topic(e1,e2)", "Other",
             "Cause-Effect(e1,e2)", "Cause-Effect(e2,e1)",
             "Instrument-Agency(e1,e2)", "Other"]


def test_criterion_5_scorer_correctness():
    report = score(HAND_GOLD, HAND_PRED)
    # hand-scored: CE P=3/5 R=3/4, IA P=1 R=2/3, MT P=2/3 R=2/3, others empty
    expect = {
        "Cause-Effect": (0.6, 0.75, 2 / 3),
        "Instrument-Agency": (1.0, 2 / 3, 0.8),
        "Message-Topic": (2 / 3, 2 / 3, 2 / 3),
    }
    for rel_type, (p, r, f1) in expect.items():
        got = report.per_type[rel_type]
        assert math.isclose(got.precision, p, abs_tol=1e-9)
        assert math.isclose(got.recall, r, abs_tol=1e-9)
        assert math.isclose(got.f1, f1, abs_tol=1e-9)
    assert math.isclose(report.macro_f1, (0.6 * 0.75 * 2 / 1.35 + 0.8 + 2 / 3) / 9,
                        abs_tol=1e-9)

    full = list(LABELS)
    assert score(full, full).macro_f1 == 1.0
    assert score(full, ["Other"] * 19).macro_f1 == 0.0
    passline(5, "hand-scored case, perfect case, all-Other case")


@pytest.mark.skipif("DEPNN_SCORER" not in os.environ,
                    reason="official scorer not available (set DEPNN_SCORER)")
def test_criterion_5_official_scorer_agreement(tmp_path):
    scorer = os.environ["DEPNN_SCORER"]
    rng = np.random.default_rng(8)
    for trial in range(100):
        n = 40 + int(rng.integers(60))
        gold = [LABELS[int(rng.integers(19))] for _ in range(n)]
        pred = [LABELS[int(rng.integers(19))] for _ in range(n)]
        gold_path = tmp_path / f"gold{trial}.txt"
        pred_path = tmp_path / f"pred{trial}.txt"
        gold_path.write_text("".join(f"{i + 1}\t{l}\n" for i, l in enumerate(gold)))
        pred_path.write_text("".join(f"{i + 1}\t{l}\n" for i, l in enumerate(pred)))
        output = subprocess.run(
            ["perl", scorer, str(pred_path), str(gold_path)],
            capture_output=True, text=True, check=True).stdout
        section = output[output.find("(9+1)-WAY EVALUATION TAKING DIRECTIONALITY"):]
        official = float(re.findall(r"macro-averaged F1 = ([0-9.]+)%", section)[-1])
        ours = score(gold, pred).macro_f1 * 100
        assert math.isclose(ours, official, abs_tol=0.005), (trial, ours, official)
    passline(5, "matches the official scorer on 100 randomized files")


def test_criterion_6_percentage_arithmetic():
    # exact Table-2 count multiset, checked against the published percentages
    train_counts = {"Other": 1410, "Cause-Effect": 1003, "Component-Whole": 941,
                    "Entity-Destination": 845, "Product-Producer": 717,
                    "Entity-Origin": 716, "Member-Collection": 690,
                    "Message-Topic": 634, "Content-Container": 540,
                    "Instrument-Agency": 504}
    labels = []
    for rel_type, count in train_counts.items():
        labels += ([rel_type + "(e1,e2)"] * count if rel_type != "Other"
                   else ["Other"] * count)
    stats = dataset_stats(labels)
    assert stats.total == 8000
    assert str(stats.percent("Other")) == "17.63"
    assert str(stats.percent("Cause-Effect")) == "12.54"
    passline(6, "published percentages reproduced from published counts")


@pytest.mark.skipif("DEPNN_SEMEVAL_TRAIN" not in os.environ
                    or "DEPNN_SEMEVAL_TEST" not in os.environ,
                    reason="official dataset not available (set DEPNN_SEMEVAL_TRAIN/TEST)")
def test_criterion_6_official_dataset_statistics():
    train = read_semeval_raw(os.environ["DEPNN_SEMEVAL_TRAIN"])
    stats = dataset_stats([r.label for r in train])
    assert stats.total == 8000
    assert stats.by_type["Other"] == 1410
    assert str(stats.percent("Other")) == "17.63"
    assert stats.by_type["Cause-Effect"] == 1003
    assert str(stats.percent("Cause-Effect")) == "12.54"

    test = read_semeval_raw(os.environ["DEPNN_SEMEVAL_TEST"])
    stats = dataset_stats([r.label for r in test])
    assert stats.total == 2717
    assert stats.by_type["Other"] == 454
    assert str(stats.percent("Other")) == "16.71"
    passline(6, "official dataset statistics reproduced exactly")


def test_criterion_7_hyperparameter_fidelity(tmp_path, capsys):
    cfg50 = TrainConfig.for_embedding_dim(50)
    assert (cfg50.window, cfg50.learning_rate, cfg50.dim_c, cfg50.hidden) == \
        (5, 0.05, 25, 200)
    cfg200 = TrainConfig.for_embedding_dim(200)
    assert (cfg200.window, cfg200.learning_rate, cfg200.dim_c, cfg200.hidden) == \
        (5, 0.05, 100, 400)

    corpus_path = tmp_path / "c.inst"
    write_parsed_instances(corpus_path, synth.make_separable_corpus(10))
    for dim, snippet in ((50, "k=5 lambda=0.05 dim=50 dim_c=25 l=200"),
                         (200, "k=5 lambda=0.05 dim=200 dim_c=100 l=400")):
        emb = tmp_path / f"vec{dim}.txt"
        rng = np.random.default_rng(dim)
        with open(emb, "w", encoding="utf-8") as fh:
            for word in ("engine", "barrel", "lecture"):
                fh.write(word + " " + " ".join(
                    f"{v:.4f}" for v in rng.uniform(-0.1, 0.1, dim)) + "\n")
        assert main(["train", "--instances", str(corpus_path),
                     "--out", str(tmp_path / f"m{dim}.model"),
                     "--embeddings", str(emb), "--epochs", "0"]) == 0
        assert snippet in capsys.readouterr().out
    passline(7, "defaults echo the published settings for 50-d and 200-d")


def test_criterion_8_ablation_behavior():
    from depnn.adp import Arc, DependencyGraph, Token
    from depnn.corpus import Instance, entity_mention

    def instance(i, offpath_form):
        tokens = [Token(1, "engine"), Token(2, "wields"), Token(3, "closet"),
                  Token(4, offpath_form), Token(5, "barely")]
        arcs = [Arc(0, 2, "root"), Arc(2, 1, "nsubj"), Arc(2, 3, "dobj"),
                Arc(2, 4, "advmod"), Arc(4, 5, "amod")]
        graph = DependencyGraph(tokens, arcs)
        return Instance(i, graph, entity_mention(graph, 1, 1),
                        entity_mention(graph, 3, 3), "Other")

    base, edited = instance(1, "slowly"), instance(2, "openly")
    vocab = Vocabulary.build([base, edited])

    path_only = Model.build(TrainConfig(dim=8, dim_c=5, hidden=7, window=3,
                                        use_subtrees=False, seed=6), vocab)
    assert np.array_equal(path_only.predict(base).distribution,
                          path_only.predict(edited).distribution)

    # k=5 puts the subtree-bearing middle word into every window, so the
    # constructed edit must reach the pooled representation
    with_subtrees = Model.build(TrainConfig(dim=8, dim_c=5, hidden=7, window=5,
                                            use_subtrees=True, seed=6), vocab)
    assert not np.array_equal(with_subtrees.predict(base).distribution,
                              with_subtrees.predict(edited).distribution)
    passline(8, "path-only output bit-invariant to off-path edits; "
                "subtrees react to them")


def test_criterion_9_determinism(tmp_path):
    instances = synth.make_separable_corpus(30)

    def run(tag):
        vocab = Vocabulary.build(instances)
        model = Model.build(TrainConfig(dim=8, dim_c=5, hidden=7, window=3,
                                        epochs=3, seed=77), vocab)
        report = model.train(instances)
        path = tmp_path / f"{tag}.model"
        model.save(path)
        gold = [inst.gold for inst in instances]
        pred = [model.predict(inst).label for inst in instances]
        return path.read_bytes(), report.lines(), metric_lines(score(gold, pred))

    first = run("a")
    second = run("b")
    assert first[0] == second[0], "model files differ"
    assert first[1] == second[1], "training reports differ"
    assert first[2] == second[2], "evaluation reports differ"
    passline(9, "bit-identical model files and reports across runs")


_STRETCH_VARS = ("DEPNN_SEMEVAL_TRAIN_INST", "DEPNN_SEMEVAL_TEST_INST",
                 "DEPNN_EMB200")


@pytest.mark.skipif(any(v not in os.environ for v in _STRETCH_VARS),
                    reason="needs converted SemEval instances and 200-d embeddings "
                           f"(set {', '.join(_STRETCH_VARS)})")
def test_criterion_10_stretch_full_corpus():
    from depnn.corpus import load_embeddings

    train = read_parsed_instances(os.environ["DEPNN_SEMEVAL_TRAIN_INST"])
    test = read_parsed_instances(os.environ["DEPNN_SEMEVAL_TEST_INST"])
    embeddings = load_embeddings(os.environ["DEPNN_EMB200"], expected_dim=200)
    gold = [inst.gold for inst in test]

    results = {}
    for tag, use_subtrees in (("PATH", False), ("PATH+SUB", True)):
        config = TrainConfig.for_embedding_dim(200, use_subtrees=use_subtrees,
                                               seed=1)
        model = Model.build(config, Vocabulary.build(train), embeddings)
        model.train(train)
        pred = [model.predict(inst).label for inst in test]
        results[tag] = score(gold, pred).macro_f1 * 100
    assert results["PATH"] < results["PATH+SUB"]
    assert abs(results["PATH+SUB"] - 82.8) <= 1.5
    passline(10, f"PATH {results['PATH']:.1f} < PATH+SUB {results['PATH+SUB']:.1f}")
