"""DependencyGraph's columns against the object-building oracle
(conftest.ObjectGraph and object_graph, the Token-and-Arc graph the
instance reader used to build).

On synthetic corpora at the shapes of the three bench workloads, the graph
read from token rows, the graph the constructor builds from Token and Arc
objects and the oracle's graph agree; compiling an instance gives the rows
the oracle's objects give; and reading and compiling a file makes no Token
and no Arc.
"""

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
        # the constructor's graph is the same graph
        assert_same_graph(instance.graph, object_graph(rows))


def test_constructor_round_trips_its_tokens_and_arcs():
    for instance in workload_corpus("train-50d-small", 40):
        graph = instance.graph
        again = DependencyGraph(reversed(graph.tokens), reversed(graph.arcs), graph.inactive)
        assert_same_graph(again, object_graph(_instance_to_record(instance)["tokens"]))
        assert (again.tokens, again.arcs) == (graph.tokens, graph.arcs)


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
    write_parsed_instances(path, workload_corpus("train-50d-small", 80))
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
