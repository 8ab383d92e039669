"""DependencyGraph's columns against the object-building oracle
(conftest.ObjectGraph and object_graph, the Token-and-Arc graph the
instance reader used to build).

On synthetic corpora at the shapes of the three bench workloads, the graph
read from token rows, the graph synth generates and the oracle's graph
agree; the object form (the constructor from Token and Arc objects, and
the tokens and arcs properties), which bench/generate.py redraws word forms
through, gives the graph that the rows with those forms give; compiling an
instance gives the rows the oracle's objects give; and generating, reading
and compiling a corpus make no Token and no Arc.
"""

from dataclasses import replace

import numpy as np
import pytest

from depnn import adp, synth
from depnn.adp import Arc, DependencyGraph, Token, TreeViolation
from depnn.classifier import Model, TrainConfig
from depnn.corpus import (Vocabulary, _graph, _instance_to_record, read_parsed_instances,
                          write_parsed_instances)

from conftest import assert_same_graph, object_compile, object_graph

# make_gradcheck_instances' (max_path, max_depth) of each bench workload
WORKLOAD_SHAPES = {"train-200d": (6, 3), "train-50d-small": (8, 4), "eval-200d": (6, 3)}


def workload_corpus(name, n=120):
    max_path, max_depth = WORKLOAD_SHAPES[name]
    return synth.make_gradcheck_instances(n, seed=5, max_path=max_path, max_depth=max_depth)


CORPORA = {**{name: (lambda name=name: workload_corpus(name)) for name in WORKLOAD_SHAPES},
           "separable": lambda: synth.make_separable_corpus(60)}


@pytest.mark.parametrize("corpus_name", sorted(CORPORA))
def test_graph_of_rows_matches_the_object_oracle(corpus_name):
    for instance in CORPORA[corpus_name]():
        rows = _instance_to_record(instance)["tokens"]
        graph = _graph(rows)
        assert_same_graph(graph, object_graph(rows))
        # the generator's graph, read from the same rows, is the same graph
        assert_same_graph(instance.graph, object_graph(rows))


def test_constructor_round_trips_its_tokens_and_arcs():
    for instance in workload_corpus("train-50d-small", 40):
        graph = instance.graph
        again = DependencyGraph(reversed(graph.tokens), reversed(graph.arcs), graph.inactive)
        assert_same_graph(again, object_graph(_instance_to_record(instance)["tokens"]))
        assert (again.tokens, again.arcs) == (graph.tokens, graph.arcs)


# a sentence whose token 6 is kept out of the tree (a collapsed preposition)
INACTIVE_ROWS = [["The", None, 2, "det", None, None], ["thief", None, 3, "nsubj", "PER", None],
                 ["broke", "break", 0, "root", None, None], ["the", None, 5, "det", None, None],
                 ["lock", None, 3, "dobj", None, None], ["with", None, -1, None, None, None],
                 ["screwdriver", None, 3, "prep_with", "OBJ", "artifact.n.01"]]


def columns(graph):
    """A graph's columns, each as a list, and its inactive tokens."""
    return ([list(getattr(graph, name)) for name in ("forms", "lemmas", "ner_tags", "wn_tags",
                                                    "heads", "relations", "children", "depths")]
            + [graph.inactive])


@pytest.mark.parametrize("corpus_name", sorted(WORKLOAD_SHAPES) + ["inactive-token"])
def test_object_form_redraws_forms_as_the_rows_would(corpus_name):
    # bench/generate.py gives a synthetic graph new word forms through the
    # object form; the graph must be the one its rows with those forms read as
    if corpus_name == "inactive-token":
        graphs = [(_graph(INACTIVE_ROWS), INACTIVE_ROWS)]
    else:
        graphs = [(instance.graph, _instance_to_record(instance)["tokens"])
                  for instance in workload_corpus(corpus_name, 60)]
    for graph, rows in graphs:
        forms = [f"w{(7 * i) % 5}" for i in range(len(graph.tokens))]
        tokens = [replace(tok, form=form) for tok, form in zip(graph.tokens, forms)]
        rebuilt = DependencyGraph(tokens, graph.arcs, graph.inactive)
        assert columns(rebuilt) == columns(_graph([[form] + row[1:]
                                                   for form, row in zip(forms, rows)]))


def test_rows_and_objects_refuse_the_same_trees(rng):
    # random head columns over 1..4 tokens, one token sometimes kept out of
    # the tree: the column graph is refused exactly where the oracle is
    for _ in range(2000):
        n = 1 + int(rng.integers(4))
        rows = [[f"w{i}", None, int(rng.integers(-1, n + 1)), "x", None, None]
                for i in range(1, n + 1)]
        try:
            oracle = object_graph(rows)
        except TreeViolation:
            with pytest.raises(TreeViolation):
                _graph(rows)
        else:
            assert_same_graph(_graph(rows), oracle)


@pytest.mark.parametrize("corpus_name", sorted(WORKLOAD_SHAPES))
@pytest.mark.parametrize("lexical", [False, True])
def test_compile_matches_the_object_oracle(corpus_name, lexical):
    instances = workload_corpus(corpus_name, 60)
    model = Model.build(TrainConfig(dim=6, dim_c=4, hidden=5, window=5, lex_dim=3,
                                    use_ner=lexical, use_wordnet=lexical),
                        Vocabulary.build(instances))
    for instance in instances:
        rows = _instance_to_record(instance)["tokens"]
        compiled = model.compile(instance)
        schedule, rel_rows, lex_rows = object_compile(model, instance, object_graph(rows))
        for got, want in ((compiled.schedule, schedule), (compiled.rel_rows, rel_rows),
                          (compiled.lex_rows, lex_rows)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("corpus_name", sorted(CORPORA))
def test_write_read_write_is_byte_identical(tmp_path, corpus_name):
    first, second = tmp_path / "first.inst", tmp_path / "second.inst"
    write_parsed_instances(first, CORPORA[corpus_name]())
    write_parsed_instances(second, read_parsed_instances(first))
    assert second.read_bytes() == first.read_bytes()


def test_reading_and_compiling_make_no_token_or_arc(tmp_path, monkeypatch):
    path = tmp_path / "corpus.inst"
    made = {"Token": 0, "Arc": 0}
    token_init, arc_new = Token.__init__, Arc.__new__

    def counted_token(self, *args, **kwargs):
        made["Token"] += 1
        token_init(self, *args, **kwargs)

    def counted_arc(cls, *args, **kwargs):
        made["Arc"] += 1
        return arc_new(cls, *args, **kwargs)

    monkeypatch.setattr(Token, "__init__", counted_token)
    monkeypatch.setattr(Arc, "__new__", counted_arc)
    write_parsed_instances(path, workload_corpus("train-50d-small", 80))
    write_parsed_instances(tmp_path / "separable.inst", synth.make_separable_corpus(20))
    instances = read_parsed_instances(path)
    model = Model.build(TrainConfig(dim=6, dim_c=4, hidden=5, use_ner=True, use_wordnet=True),
                        Vocabulary.build(instances))
    for instance in instances:
        model.compile(instance)
    assert made == {"Token": 0, "Arc": 0}
    # the counters see what the graph makes on demand
    tokens, arcs = instances[0].graph.tokens, instances[0].graph.arcs
    assert made == {"Token": len(tokens), "Arc": len(arcs)} and tokens


def test_shortest_path_is_bound_on_the_classifier():
    # the bench wraps the path builder where Model.compile reads it
    from depnn import classifier
    assert classifier.shortest_path is adp.shortest_path
