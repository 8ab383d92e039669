import numpy as np
import pytest

from depnn.adp import AugmentedDependencyPath, attach_subtrees, shortest_path
from depnn.corpus import Instance, Vocabulary, entity_mention
from depnn.numerics import Gradient
from depnn.subtree import (COMP_BIAS, LEAF_VEC, WORD_EMB, MissingEmbedding,
                           encode_backward, encode_word)

from conftest import graph_of, subtree_tokens, tiny_model


def worked_example():
    forms = ["priests", "broke", "commandment", "Sabbath", "the", "work"]
    graph = graph_of(6, [(0, 2, "root"), (2, 1, "nsubj"), (2, 3, "dobj"),
                         (2, 4, "prep_on"), (4, 5, "det"), (2, 6, "prep_during")],
                     forms=forms)
    instance = Instance(1, graph, entity_mention(graph, 1, 1),
                        entity_mention(graph, 6, 6), "Other")
    model = tiny_model([instance])
    adp = attach_subtrees(graph, shortest_path(graph, 1, 6))
    return graph, instance, model, adp


def zero_store(model):
    for name in model.store.names():
        model.store.value(name).fill(0.0)


class TestForward:
    def test_leaf_is_word_embedding_plus_leaf_vector(self):
        graph, _, model, adp = worked_example()
        cache = encode_word(graph, adp, 1, model.store, model.vocab)  # "priests"
        x = model.store.value(WORD_EMB)[model.vocab.word_row("priests")]
        expected = np.concatenate([x, model.store.value(LEAF_VEC)])
        assert np.array_equal(cache.p, expected)
        assert cache.is_leaf

    def test_worked_composition(self):
        graph, _, model, adp = worked_example()
        store, vocab = model.store, model.vocab
        emb = store.value(WORD_EMB)
        bias = store.value(COMP_BIAS)
        leaf = store.value(LEAF_VEC)

        # independent recomputation of the two-level composition
        p_the = np.concatenate([emb[vocab.word_row("the")], leaf])
        c_sabbath = np.tanh(store.value(vocab.comp_name("det")) @ p_the + bias)
        p_sabbath = np.concatenate([emb[vocab.word_row("Sabbath")], c_sabbath])
        p_commandment = np.concatenate([emb[vocab.word_row("commandment")], leaf])
        c_broke = np.tanh(store.value(vocab.comp_name("dobj")) @ p_commandment
                          + store.value(vocab.comp_name("prep_on")) @ p_sabbath
                          + bias)
        expected = np.concatenate([emb[vocab.word_row("broke")], c_broke])

        cache = encode_word(graph, adp, 2, store, vocab)
        assert np.allclose(cache.p, expected, atol=0, rtol=0)

    def test_zero_store_fixed_point(self):
        graph, _, model, adp = worked_example()
        zero_store(model)
        cache = encode_word(graph, adp, 2, model.store, model.vocab)
        assert not cache.p.any()
        assert not cache.c.any()

    def test_subtree_vector_in_tanh_range(self):
        graph, _, model, adp = worked_example()
        cache = encode_word(graph, adp, 2, model.store, model.vocab)
        assert np.all(cache.c > -1.0) and np.all(cache.c < 1.0)

    def test_include_subtree_false_gives_bare_word(self):
        graph, _, model, adp = worked_example()
        cache = encode_word(graph, adp, 2, model.store, model.vocab,
                            include_subtree=False)
        x = model.store.value(WORD_EMB)[model.vocab.word_row("broke")]
        assert np.array_equal(cache.p,
                              np.concatenate([x, model.store.value(LEAF_VEC)]))

    def test_child_order_invariance(self):
        graph, _, model, adp = worked_example()
        reference = encode_word(graph, adp, 2, model.store, model.vocab)

        shuffled = AugmentedDependencyPath(
            adp.steps, {w: tuple(reversed(arcs)) for w, arcs in adp.subtrees.items()})
        again = encode_word(graph, shuffled, 2, model.store, model.vocab)
        assert np.array_equal(reference.p, again.p)   # canonical order pins bits

        # naive order-following sum agrees up to float reassociation
        store, vocab = model.store, model.vocab
        leaf = store.value(LEAF_VEC)
        emb = store.value(WORD_EMB)

        def naive(node, children_of):
            x = emb[vocab.word_row(graph.token(node).form)]
            arcs = children_of.get(node, ())
            if not arcs:
                return np.concatenate([x, leaf])
            pre = np.zeros_like(store.value(COMP_BIAS))
            for arc in arcs:   # given order, no sorting
                pre = pre + store.value(vocab.comp_name(arc.relation)) @ naive(
                    arc.dependent, children_of)
            return np.concatenate([x, np.tanh(pre + store.value(COMP_BIAS))])

        children_of = {}
        for arc in shuffled.subtrees[2]:
            children_of.setdefault(arc.head, []).append(arc)
        assert np.allclose(naive(2, children_of), reference.p, atol=1e-12)

    def test_reads_exactly_the_subtree_tokens(self):
        graph, _, model, adp = worked_example()

        class CountingVocab:
            def __init__(self, inner):
                self.inner = inner
                self.word_lookups = 0

            def word_row(self, form):
                self.word_lookups += 1
                return self.inner.word_row(form)

            def comp_name(self, relation):
                return self.inner.comp_name(relation)

        counting = CountingVocab(model.vocab)
        encode_word(graph, adp, 2, model.store, counting)
        assert counting.word_lookups == 1 + len(subtree_tokens(adp, 2))

    def test_missing_embedding_without_unk(self):
        graph, _, model, adp = worked_example()
        bare = Vocabulary(words=(), relations=model.vocab.relations,
                          comp_relations=model.vocab.comp_relations,
                          ner_tags=model.vocab.ner_tags, wn_tags=model.vocab.wn_tags)
        with pytest.raises(MissingEmbedding):
            encode_word(graph, adp, 1, model.store, bare)


class TestBackward:
    def test_zero_upstream_accumulates_nothing(self):
        graph, _, model, adp = worked_example()
        cache = encode_word(graph, adp, 2, model.store, model.vocab)
        gradient = Gradient(model.store)
        encode_backward(cache, np.zeros_like(cache.p), model.store, gradient, model.vocab)
        for name in model.store.names():
            assert not gradient.full(name).any()

    def test_repeated_structure_doubles_gradients(self):
        graph, _, model, adp = worked_example()
        cache = encode_word(graph, adp, 2, model.store, model.vocab)
        upstream = np.linspace(-1.0, 1.0, cache.p.size)

        once = Gradient(model.store)
        encode_backward(cache, upstream, model.store, once, model.vocab)
        single = {name: once.full(name) for name in model.store.names()}

        twice = Gradient(model.store)
        encode_backward(cache, upstream, model.store, twice, model.vocab)
        encode_backward(cache, upstream, model.store, twice, model.vocab)
        # each composition matrix takes one accumulation per pass (det, dobj,
        # prep_on each appear once), so doubling is bitwise exact there;
        # multi-contribution buffers like the bias double up to reassociation
        for name, grad in single.items():
            doubled = twice.full(name)
            if name.startswith("comp/") and grad.any():
                assert np.array_equal(doubled, 2.0 * grad)
            else:
                assert np.allclose(doubled, 2.0 * grad, rtol=1e-14, atol=0)

    def test_leaf_routes_into_leaf_vector(self):
        graph, _, model, adp = worked_example()
        cache = encode_word(graph, adp, 1, model.store, model.vocab)
        gradient = Gradient(model.store)
        upstream = np.arange(cache.p.size, dtype=float)
        encode_backward(cache, upstream, model.store, gradient, model.vocab)
        dim = model.config.dim
        row = model.vocab.word_row("priests")
        assert np.array_equal(gradient.full(WORD_EMB)[row], upstream[:dim])
        assert np.array_equal(gradient.full(LEAF_VEC), upstream[dim:])
