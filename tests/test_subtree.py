import numpy as np
import pytest

from depnn.adp import shortest_path
from depnn.classifier import TrainConfig, parameter_layout
from depnn.corpus import (DEFAULT_RELATION, PATH_END, PATH_START, UNK, Instance,
                          Vocabulary, VocabularyError, entity_mention)
from depnn.numerics import Gradient, ParameterStore, init_uniform, row_plan
from depnn.subtree import (COMP_BIAS, COMP, LEAF_VEC, PARENT, PATH, ROW, WORD_EMB,
                           comp_names, compile_nodes, encode, encode_backward)

from conftest import (assert_bit_identical, attach_subtrees, copy_store, dense_sgd_oracle,
                      encode_word, encode_word_backward, graph_of, preorder, random_tree,
                      subtree_tokens, tiny_model, zero_buffers)


def worked_example(**overrides):
    forms = ["priests", "broke", "commandment", "Sabbath", "the", "work"]
    graph = graph_of(6, [(0, 2, "root"), (2, 1, "nsubj"), (2, 3, "dobj"),
                         (2, 4, "prep_on"), (4, 5, "det"), (2, 6, "prep_during")],
                     forms=forms)
    instance = Instance(1, graph, entity_mention(graph, 1, 1),
                        entity_mention(graph, 6, 6), "Other")
    model = tiny_model([instance], **overrides)
    return instance, model, model.compile(instance)


def encoded(model, compiled):
    """p of every scheduled node: priests, broke, commandment, Sabbath, the,
    work on the worked example."""
    return encode(compiled.schedule, model.store, comp_names(model.vocab))


def backward(model, compiled, nodes, d_path, gradient):
    encode_backward(compiled.schedule, compiled.path_slots, compiled.word_rows, nodes, d_path,
                    model.store, gradient, comp_names(model.vocab))


def zero_store(model):
    for name in model.store.names():
        model.store.value(name).fill(0.0)


class TestForward:
    def test_leaf_is_word_embedding_plus_leaf_vector(self):
        _, model, compiled = worked_example()
        nodes = encoded(model, compiled)
        x = model.store.value(WORD_EMB)[model.vocab.word_row("priests")]
        expected = np.concatenate([x, model.store.value(LEAF_VEC)])
        assert np.array_equal(nodes[0], expected)
        assert compiled.schedule[PARENT, 1] != 0     # priests has no child

    def test_worked_composition(self):
        _, model, compiled = worked_example()
        store, vocab = model.store, model.vocab
        emb = store.value(WORD_EMB)
        bias = store.value(COMP_BIAS)
        leaf = store.value(LEAF_VEC)

        # independent recomputation of the two-level composition
        p_the = np.concatenate([emb[vocab.word_row("the")], leaf])
        c_sabbath = np.tanh(store.value("comp/det") @ p_the + bias)
        p_sabbath = np.concatenate([emb[vocab.word_row("Sabbath")], c_sabbath])
        p_commandment = np.concatenate([emb[vocab.word_row("commandment")], leaf])
        c_broke = np.tanh(store.value("comp/dobj") @ p_commandment
                          + store.value("comp/prep_on") @ p_sabbath
                          + bias)
        expected = np.concatenate([emb[vocab.word_row("broke")], c_broke])

        nodes = encoded(model, compiled)
        assert np.allclose(nodes[1], expected, atol=0, rtol=0)

    def test_zero_store_fixed_point(self):
        _, model, compiled = worked_example()
        zero_store(model)
        assert not encoded(model, compiled).any()

    def test_subtree_vector_in_tanh_range(self):
        _, model, compiled = worked_example()
        c = encoded(model, compiled)[1, model.config.dim:]
        assert np.all(c > -1.0) and np.all(c < 1.0)

    def test_include_subtree_false_gives_bare_word(self):
        _, model, compiled = worked_example(use_subtrees=False)
        assert compiled.schedule[PARENT].tolist() == [PATH] * 3
        x = model.store.value(WORD_EMB)[model.vocab.word_row("broke")]
        assert np.array_equal(encoded(model, compiled)[1],
                              np.concatenate([x, model.store.value(LEAF_VEC)]))

    def test_child_order_invariance(self):
        instance, model, compiled = worked_example()
        reference = encoded(model, compiled)

        # the same tree with its arcs listed in reverse schedules the same
        graph = instance.graph
        shuffled = graph_of(6, [(a.head, a.dependent, a.relation)
                                for a in reversed(graph.arcs)],
                            forms=[t.form for t in graph.tokens])
        again = compile_nodes(shuffled, [1, 2, 6], model.vocab)
        assert_bit_identical(again, compiled.schedule)

        # naive order-following sum agrees up to float reassociation
        store, vocab = model.store, model.vocab
        leaf = store.value(LEAF_VEC)
        emb = store.value(WORD_EMB)

        def naive(node, arcs_of):
            x = emb[vocab.word_row(graph.forms[node])]
            arcs = arcs_of.get(node, ())
            if not arcs:
                return np.concatenate([x, leaf])
            pre = np.zeros_like(store.value(COMP_BIAS))
            for arc in arcs:   # descending order, no sorting
                pre = pre + store.value(f"comp/{arc.relation}") @ naive(arc.dependent, arcs_of)
            return np.concatenate([x, np.tanh(pre + store.value(COMP_BIAS))])

        arcs_of = {}
        for arc in reversed(graph.arcs):
            if arc.head != 0 and arc.dependent not in (1, 6):
                arcs_of.setdefault(arc.head, []).append(arc)
        assert np.allclose(naive(2, arcs_of), reference[1], atol=1e-12)

    def test_reads_exactly_the_subtree_tokens(self):
        instance, model, _ = worked_example()

        class CountingVocab:
            def __init__(self, inner):
                self.inner = inner
                self.word_lookups = 0

            def word_row(self, form):
                self.word_lookups += 1
                return self.inner.word_row(form)

            def comp_id(self, relation):
                return self.inner.comp_id(relation)

        counting = CountingVocab(model.vocab)
        tokens, _ = shortest_path(instance.graph, 1, 6)
        compile_nodes(instance.graph, tokens, counting)
        adp = attach_subtrees(instance.graph, tokens)
        assert counting.word_lookups == sum(1 + len(subtree_tokens(adp, w))
                                            for w in adp.tokens)

    def test_missing_embedding_without_unk(self):
        # a vocabulary whose word lookup could miss is refused when it is made
        _, model, _ = worked_example()
        with pytest.raises(VocabularyError, match="words has no '<unk>' entry"):
            Vocabulary(words=(), relations=model.vocab.relations,
                       comp_relations=model.vocab.comp_relations,
                       ner_tags=model.vocab.ner_tags, wn_tags=model.vocab.wn_tags)


class TestBackward:
    def test_zero_upstream_accumulates_nothing(self):
        _, model, compiled = worked_example()
        nodes = encoded(model, compiled)
        gradient = model.store.zeros_like()
        backward(model, compiled, nodes, np.zeros((3, nodes.shape[1])), Gradient(gradient, -1.0))
        for name in model.store.names():
            assert not gradient.value(name).any()

    def test_repeated_structure_doubles_gradients(self):
        _, model, compiled = worked_example()
        nodes = encoded(model, compiled)
        upstream = np.linspace(-1.0, 1.0, 3 * nodes.shape[1]).reshape(3, -1)

        once = model.store.zeros_like()
        backward(model, compiled, nodes, upstream, Gradient(once, -1.0))
        single = {name: once.value(name) for name in model.store.names()}

        twice = model.store.zeros_like()
        backward(model, compiled, nodes, upstream, Gradient(twice, -1.0))
        backward(model, compiled, nodes, upstream, Gradient(twice, -1.0))
        # each composition matrix takes one accumulation per pass (det, dobj,
        # prep_on each appear once), so doubling is bitwise exact there;
        # multi-contribution buffers like the bias double up to reassociation
        for name, grad in single.items():
            doubled = twice.value(name)
            if name.startswith("comp/") and grad.any():
                assert np.array_equal(doubled, 2.0 * grad)
            else:
                assert np.allclose(doubled, 2.0 * grad, rtol=1e-14, atol=0)

    def test_leaf_routes_into_leaf_vector(self):
        _, model, compiled = worked_example()
        nodes = encoded(model, compiled)
        gradient = model.store.zeros_like()
        d_path = np.zeros((3, nodes.shape[1]))
        d_path[0] = np.arange(nodes.shape[1], dtype=float)     # priests, a leaf
        backward(model, compiled, nodes, d_path, Gradient(gradient, -1.0))
        dim = model.config.dim
        row = model.vocab.word_row("priests")
        assert np.array_equal(gradient.value(WORD_EMB)[row], d_path[0, :dim])
        assert np.array_equal(gradient.value(LEAF_VEC), d_path[0, dim:])


RELATIONS = ("nsubj", "dobj", "det")
ORACLE_CONFIG = TrainConfig(dim=6, dim_c=4, hidden=5, window=3)
# every relation with a matrix of its own, or dobj and det falling back to
# comp/<default>, so that one matrix takes edges of several relations
COMP_RELATIONS = [(DEFAULT_RELATION,) + RELATIONS, (DEFAULT_RELATION, "nsubj")]


def build_tree_model(graph, comp_relations, words=None):
    """A vocabulary of the graph's forms and a seeded store for it."""
    forms = tuple(tok.form for tok in graph.tokens)
    vocab = Vocabulary(words=(UNK,) + forms if words is None else words,
                       relations=(UNK, PATH_START, PATH_END),
                       comp_relations=comp_relations,
                       ner_tags=(UNK,), wn_tags=(UNK,))
    store = ParameterStore()
    for name, (shape, kind) in parameter_layout(ORACLE_CONFIG, vocab).items():
        store.register(name, shape, kind)
    init_uniform(store, seed=len(forms))
    return vocab, store


def random_path(rng, graph):
    n = len(graph.tokens)
    return shortest_path(graph, 1 + int(rng.integers(n)), 1 + int(rng.integers(n)))[0]


class TestRecursiveOracle:
    """The flat encoder against the recursive one kept in conftest, on
    random trees whose arcs share three relations, so that one composition
    matrix takes outer products from several depths. Every node's p and
    every tensor of the gradient match bit for bit, except the composition
    matrices': each is one product over its edges, which sums in another
    order than the recursion, so those match within 1e-12. The flat
    gradient is a zeroed store stepped at rate -1, the recursive one the
    oracle's dense buffers. At a learning rate the flat backward steps a
    copy of the store in place, which then is the recursive gradient's
    dense update, to the same tolerances."""

    LEARNING_RATE = 0.3

    @pytest.mark.parametrize("include_subtree", [True, False])
    @pytest.mark.parametrize("comp_relations", COMP_RELATIONS)
    def test_matches_recursive_oracle(self, rng, include_subtree, comp_relations):
        shared_depths = 0
        for _ in range(150):
            graph = random_tree(rng, max_nodes=14, labels=RELATIONS)
            vocab, store = build_tree_model(graph, comp_relations)
            names = comp_names(vocab)
            path = random_path(rng, graph)
            schedule = compile_nodes(graph, path, vocab, include_subtree)
            nodes = encode(schedule, store, names)

            adp = attach_subtrees(graph, path)
            caches = [encode_word(graph, adp, w, store, vocab, include_subtree) for w in path]
            expected = [node for cache in caches for node in preorder(cache)]
            assert len(expected) == len(nodes)
            for slot, node in enumerate(expected):
                assert_bit_identical(nodes[slot], node.p)
                assert schedule[ROW, slot] == node.word_row

            d_path = rng.normal(size=(len(path), nodes.shape[1]))
            path_slots = np.flatnonzero(schedule[PARENT] == PATH)
            flat, recursive = store.zeros_like(), zero_buffers(store)
            encode_backward(schedule, path_slots, row_plan(schedule[ROW]), nodes, d_path, store,
                            Gradient(flat, -1.0), names)
            for cache, d_p in zip(caches, d_path):
                encode_word_backward(cache, d_p, store, recursive, vocab)
            for name in store.names():
                if name.startswith("comp/"):
                    assert np.allclose(flat.value(name), recursive[name],
                                       rtol=0, atol=1e-12)
                else:
                    assert_bit_identical(flat.value(name), recursive[name])

            expected = dense_sgd_oracle(store, recursive, self.LEARNING_RATE)
            copy = copy_store(store)
            encode_backward(schedule, path_slots, row_plan(schedule[ROW]), nodes, d_path, copy,
                            Gradient(copy, self.LEARNING_RATE), names)
            for name in store.names():
                if name.startswith("comp/"):
                    assert np.allclose(copy.value(name), expected[name], rtol=0, atol=1e-12)
                else:
                    assert_bit_identical(copy.value(name), expected[name])

            comps = schedule[COMP].tolist()
            parents = schedule[PARENT].tolist()
            depth = []
            for parent in parents:
                depth.append(0 if parent == PATH else depth[parent] + 1)
            by_comp = {}
            for slot, comp in enumerate(comps):
                if comp != PATH:
                    by_comp.setdefault(comp, set()).add(depth[slot])
            shared_depths += any(len(d) > 1 for d in by_comp.values())
        if include_subtree:
            assert shared_depths > 10

    def test_missing_embedding_refused_at_construction(self):
        graph = graph_of(3, [(0, 1, "root"), (1, 2, "det"), (1, 3, "nsubj")])
        forms = tuple(tok.form for tok in graph.tokens)
        # no UNK, and no row for w1: refused before any instance is compiled
        with pytest.raises(VocabularyError) as caught:
            build_tree_model(graph, (DEFAULT_RELATION,), words=forms[1:])
        assert caught.value.field == "words"
