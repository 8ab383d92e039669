"""A reference DepNN, composed from the independent oracles in conftest.

The paper's model, term by term: the unique tree path between the entity
heads (enumerate_tree_path) and the subtrees attached to it
(attach_subtrees); each path word's p = [x, c] from the recursive encoder
(encode_word); the filter window by window with max-pooling over the path
(oracle_conv_forward); the entity heads' lexical rows; a softmax and its
cross-entropy. The backward runs through the same oracles into dense
buffers, and training takes one dense SGD step per instance, in the order
Model.train shuffles.

It shares no code path with what it checks: it reads the graph's columns
and arcs, and calls no function of classifier, subtree, path_cnn or adp,
nor numerics.softmax. Its gradient is one zeroed numpy buffer per tensor
(conftest.zero_buffers), written by += alone, with no RowPlan and no factor
pair.
"""

import numpy as np

from depnn.classifier import NER_EMB, OUT_W, WN_EMB
from depnn.corpus import label_index

from conftest import (attach_subtrees, copy_store, encode_word, encode_word_backward,
                      enumerate_tree_path, oracle_conv_backward, oracle_conv_forward,
                      zero_buffers)


class ReferenceDepNN:
    """A DepNN of one configuration and vocabulary over its own copy of a
    store's values."""

    def __init__(self, config, vocab, store):
        self.config, self.vocab, self.store = config, vocab, copy_store(store)
        self.lex_tables = ([NER_EMB] if config.use_ner else []) + (
            [WN_EMB] if config.use_wordnet else [])
        self._rng = np.random.default_rng(config.seed)

    def _lex_row(self, table, graph, head):
        if table == NER_EMB:
            return self.vocab.ner_row(graph.ner_tags[head])
        return self.vocab.wn_row(graph.wn_tags[head])

    def loss_and_gradient(self, instance):
        """The instance's cross-entropy and its gradient, one dense buffer
        per tensor."""
        config, store, vocab, graph = self.config, self.store, self.vocab, instance.graph
        heads = (instance.e1.head_index, instance.e2.head_index)
        tokens, labels = enumerate_tree_path(graph, *heads)
        adp = attach_subtrees(graph, tokens)
        words = [encode_word(graph, adp, word, store, vocab, config.use_subtrees)
                 for word in tokens]
        conv = oracle_conv_forward(len(tokens), config.window, [w.p for w in words], labels,
                                   store, vocab, config.conv_tanh)
        lex = [(table, self._lex_row(table, graph, head))
               for table in self.lex_tables for head in heads]
        combined = np.concatenate([conv.pooled] + [store.value(t)[row] for t, row in lex])
        logits = store.value(OUT_W) @ combined
        exp = np.exp(logits - logits.max())
        distribution = exp / exp.sum()
        gold = label_index(instance.gold)

        gradient = zero_buffers(store)
        d_logits = distribution.copy()
        d_logits[gold] -= 1.0
        gradient[OUT_W] += np.outer(d_logits, combined)
        d_combined = store.value(OUT_W).T @ d_logits
        hidden = conv.pooled.size
        for i, (table, row) in enumerate(lex):
            start = hidden + i * config.lex_dim
            gradient[table][row] += d_combined[start:start + config.lex_dim]
        d_words = oracle_conv_backward(conv, d_combined[:hidden], store, gradient)
        for cache, d_p in zip(words, d_words):
            encode_word_backward(cache, d_p, store, gradient, vocab)
        return -float(np.log(distribution[gold])), gradient

    def train(self, instances, epochs):
        """Shuffled per-instance SGD, each step value -= rate * gradient on
        every tensor; returns the epochs' mean losses."""
        order = np.arange(len(instances))
        losses = []
        for _ in range(epochs):
            if self.config.shuffle:
                self._rng.shuffle(order)
            total = 0.0
            for idx in order:
                loss, gradient = self.loss_and_gradient(instances[idx])
                for name, grad in gradient.items():
                    self.store.value(name)[...] -= self.config.learning_rate * grad
                total += loss
            losses.append(total / len(instances))
        return losses
