"""Bottom-up recursive encoding of the subtree attached to each path word.

Every word w gets a representation p_w = [x_w, c_w]: its word embedding
concatenated with a subtree vector. Words without an attached subtree take
the learned leaf vector for c_w; otherwise c_w = tanh(sum over children q
of C_rel(w,q) . p_q + bias), where C_rel is the composition matrix of the
dependency relation joining w to q. The backward pass mirrors the
recursion, accumulating gradients into the store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ParameterStore, tanh_backward

WORD_EMB = "word_emb"
REL_EMB = "rel_emb"
COMP_BIAS = "comp_bias"
LEAF_VEC = "leaf_vec"
PAD_WORD = "pad_word"


class MissingEmbedding(KeyError):
    pass


@dataclass
class NodeCache:
    """Forward-pass state for one subtree node, kept for backprop."""
    token: int
    word_row: int
    p: np.ndarray
    c: np.ndarray
    is_leaf: bool
    children: list[tuple[str, "NodeCache"]]


def encode_word(graph, adp, word: int, store: ParameterStore, vocab,
                include_subtree: bool = True) -> NodeCache:
    """Encode a path word together with its attached subtree.

    With include_subtree=False the word is treated as bare (c = leaf
    vector), which is how the path-only ablation runs. Children are summed
    in ascending token order; the sum is order-independent up to float
    reassociation, so the canonical order just pins the bit pattern.
    """
    children_of: dict[int, list] = {}
    if include_subtree:
        for arc in adp.subtrees[word]:
            children_of.setdefault(arc.head, []).append(arc)
    return _encode(word, graph, children_of, store, vocab)


# The recursions are module-level functions rather than closures: a closure
# that calls itself is a reference cycle, which would keep the store alive
# until the cyclic garbage collector runs.
def _encode(node: int, graph, children_of, store: ParameterStore, vocab) -> NodeCache:
    try:
        row = vocab.word_row(graph.token(node).form)
    except LookupError as exc:
        raise MissingEmbedding(str(exc)) from None
    x = store.value(WORD_EMB)[row]
    arcs = sorted(children_of.get(node, ()), key=lambda a: a.dependent)
    if not arcs:
        c = store.value(LEAF_VEC)
        return NodeCache(node, row, np.concatenate([x, c]), c, True, [])
    kids = [(arc.relation, _encode(arc.dependent, graph, children_of, store, vocab))
            for arc in arcs]
    pre = store.value(COMP_BIAS).copy()
    for relation, kid in kids:
        pre += store.value(vocab.comp_name(relation)) @ kid.p
    c = np.tanh(pre)
    return NodeCache(node, row, np.concatenate([x, c]), c, False, kids)


def encode_backward(cache: NodeCache, upstream: np.ndarray,
                    store: ParameterStore, vocab) -> None:
    """Propagate a gradient on p_w back through the subtree recursion,
    accumulating into word embeddings, composition matrices, the
    composition bias, and the leaf vector."""
    _backward(cache, upstream, cache.p.size - cache.c.size, store, vocab)


def _backward(node: NodeCache, d_p: np.ndarray, dim: int,
              store: ParameterStore, vocab) -> None:
    store.add_rows(WORD_EMB, node.word_row, d_p[:dim])
    d_c = d_p[dim:]
    if node.is_leaf:
        store.grad(LEAF_VEC)[...] += d_c
        return
    d_pre = tanh_backward(node.c, d_c)
    store.grad(COMP_BIAS)[...] += d_pre
    for relation, kid in node.children:
        name = vocab.comp_name(relation)
        store.grad(name)[...] += np.outer(d_pre, kid.p)
        _backward(kid, store.value(name).T @ d_pre, dim, store, vocab)
