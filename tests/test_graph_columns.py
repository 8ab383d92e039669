"""DependencyGraph's columns and compiled schedules against definitions
written straight from DEPNN-INST token rows (conftest.row_columns: the
columns, tokens and arcs a reader must make, and when rows form one tree;
conftest.schedule_of_rows: what compiling an instance must make).

On synthetic corpora at the shapes of the three bench workloads, the graph
read from token rows and the graph synth generates have the columns their
rows define; the object form (the constructor from Token and Arc objects,
and the tokens and arcs properties), which bench/generate.py redraws word
forms through, gives the graph that the rows with those forms give; the
reader and the object form refuse exactly the rows that are not one tree;
compiling an instance gives the schedule, relation rows and lexical rows
its rows define; and generating, reading and compiling a corpus make no
Token and no Arc.
"""

from dataclasses import replace

import numpy as np
import pytest

from depnn import adp, synth
from depnn.adp import Arc, DependencyGraph, Token, TreeViolation
from depnn.classifier import Model, TrainConfig
from depnn.corpus import (Vocabulary, _graph, _instance_to_record, read_parsed_instances,
                          write_parsed_instances)

from conftest import (WORKLOAD_SHAPES, assert_graph_of_rows, row_columns, schedule_of_rows,
                      workload_corpus)

CORPORA = {**{name: (lambda name=name: workload_corpus(name)) for name in WORKLOAD_SHAPES},
           "separable": lambda: synth.make_separable_corpus(60)}


@pytest.mark.parametrize("corpus_name", sorted(CORPORA))
def test_graph_of_rows_matches_the_object_oracle(corpus_name):
    for instance in CORPORA[corpus_name]():
        rows = _instance_to_record(instance)["tokens"]
        assert_graph_of_rows(_graph(rows), rows)
        # the generator's graph, read from the same rows, is the same graph
        assert_graph_of_rows(instance.graph, rows)


def test_constructor_round_trips_its_tokens_and_arcs():
    for instance in workload_corpus("train-50d-small", 40):
        graph = instance.graph
        again = DependencyGraph(reversed(graph.tokens), reversed(graph.arcs), graph.inactive)
        assert_graph_of_rows(again, _instance_to_record(instance)["tokens"])


# a sentence whose token 6 is kept out of the tree (a collapsed preposition)
INACTIVE_ROWS = [["The", None, 2, "det", None, None], ["thief", None, 3, "nsubj", "PER", None],
                 ["broke", "break", 0, "root", None, None], ["the", None, 5, "det", None, None],
                 ["lock", None, 3, "dobj", None, None], ["with", None, -1, None, None, None],
                 ["screwdriver", None, 3, "prep_with", "OBJ", "artifact.n.01"]]


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
        assert_graph_of_rows(rebuilt, [[form] + row[1:] for form, row in zip(forms, rows)])


def test_graphs_share_their_empty_containers():
    # every leaf holds the one empty tuple, and every graph without an
    # inactive token the one empty frozenset, however the graph was built
    graphs = [instance.graph for instance in workload_corpus("train-50d-small", 40)]
    graphs += [DependencyGraph(graph.tokens, graph.arcs) for graph in graphs[:5]]
    graphs += [_graph(INACTIVE_ROWS)]
    assert len({id(kids) for graph in graphs for kids in graph.children if not kids}) == 1
    assert len({id(graph.inactive) for graph in graphs if not graph.inactive}) == 1
    assert graphs[-1].inactive == {6}


def test_rows_and_objects_refuse_the_same_trees(rng):
    # random head columns over 1..4 tokens, one token sometimes kept out of
    # the tree: the reader, and the object form given the rows' tokens and
    # arcs, refuse exactly the rows that are not one tree
    for _ in range(2000):
        n = 1 + int(rng.integers(4))
        rows = [[f"w{i}", None, int(rng.integers(-1, n + 1)), "x", None, None]
                for i in range(1, n + 1)]
        for row in rows[::2]:
            # a root row, or a row kept out of the tree, may leave out its relation
            if row[2] < 1:
                row[3] = None
        want = row_columns(rows)
        for build in (lambda: _graph(rows),
                      lambda: DependencyGraph(want.tokens, want.arcs, want.inactive)):
            if want.tree:
                assert_graph_of_rows(build(), rows)
            else:
                with pytest.raises(TreeViolation):
                    build()


@pytest.mark.parametrize("corpus_name", sorted(WORKLOAD_SHAPES))
@pytest.mark.parametrize("lexical", [False, True])
def test_compile_matches_the_object_oracle(corpus_name, lexical):
    instances = workload_corpus(corpus_name, 60)
    model = Model.build(TrainConfig(dim=6, dim_c=4, hidden=5, window=5, lex_dim=3,
                                    use_ner=lexical, use_wordnet=lexical),
                        Vocabulary.build(instances))
    for instance in instances:
        compiled = model.compile(instance)
        want = schedule_of_rows(_instance_to_record(instance)["tokens"],
                                (instance.e1.head_index, instance.e2.head_index),
                                model.vocab, model.config)
        for got, expected in zip((compiled.schedule, compiled.rel_rows, compiled.lex_rows), want):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)


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
