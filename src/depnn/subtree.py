"""Bottom-up encoding of the subtree attached to each path word.

Every word w gets a representation p_w = [x_w, c_w]: its word embedding
concatenated with a subtree vector. Words without an attached subtree take
the learned leaf vector for c_w; otherwise c_w = tanh(sum over children q
of C_rel(w,q) . p_q + bias), where C_rel is the composition matrix of the
dependency relation joining w to q.

An instance's nodes are compiled once into a schedule of integers, and the
forward and backward passes run from it without recursion. Children are
summed in ascending token order; the sum is order-independent up to float
reassociation, so the canonical order just pins the bit pattern. The
backward's composition gradients are one product per matrix, in BLAS order.
"""

from __future__ import annotations

import numpy as np

from .numerics import Gradient, ParameterStore, RowPlan, tanh_backward

WORD_EMB = "word_emb"
COMP_BIAS = "comp_bias"
LEAF_VEC = "leaf_vec"

# the rows of a schedule; a path word's parent slot and comp id are PATH
ROW, PARENT, COMP = range(3)
PATH = -1


def comp_names(vocab) -> list[str]:
    """Store names of the composition matrices, indexed by comp id."""
    return [f"comp/{relation}" for relation in vocab.comp_relations]


def compile_nodes(graph, path_tokens, vocab, include_subtree: bool = True) -> np.ndarray:
    """The encoder's schedule for a path: a (3, n_nodes) int32 array whose
    columns are the nodes in pre-order, each path word in path order
    followed by its attached subtree, children in ascending token order.
    Row ROW holds a node's word-embedding row, PARENT the slot of its
    parent, COMP the comp id of the relation from its parent; both are
    PATH on a path word.

    With include_subtree=False every path word is bare (c = leaf vector),
    which is how the path-only ablation runs.
    """
    on_path = set(path_tokens)
    forms, relations, children = graph.forms, graph.relations, graph.children
    rows: list[int] = []
    parents: list[int] = []
    comps: list[int] = []
    for word in path_tokens:
        stack = [(word, PATH, PATH)]
        while stack:
            token, parent, comp = stack.pop()
            if include_subtree and children[token]:
                slot = len(rows)
                # pushed in reverse, so the lowest child is popped first
                stack += [(kid, slot, vocab.comp_id(relations[kid]))
                          for kid in reversed(children[token]) if kid not in on_path]
            rows.append(vocab.word_row(forms[token]))
            parents.append(parent)
            comps.append(comp)
    return np.array([rows, parents, comps], dtype=np.int32)


def encode(schedule: np.ndarray, store: ParameterStore, names: list[str]) -> np.ndarray:
    """p = [x, c] of every scheduled node, one row each.

    A node's children follow it in pre-order, so walking the slots in
    reverse reaches every node after all of its descendants. A child files
    itself under its parent; the parent then sums its children lowest slot
    first, which is ascending token order.
    """
    rows, parents, comps = schedule
    word_emb = store.value(WORD_EMB)
    dim = word_emb.shape[1]
    bias = store.value(COMP_BIAS)
    nodes = np.empty((len(rows), dim + bias.size))
    nodes[:, :dim] = word_emb[rows]
    nodes[:, dim:] = store.value(LEAF_VEC)      # internal nodes are overwritten below
    parents, comps = parents.tolist(), comps.tolist()
    matrices = {comp: store.value(names[comp]) for comp in set(comps) if comp != PATH}
    children: dict[int, list[int]] = {}
    for slot in range(len(parents) - 1, -1, -1):
        below = children.pop(slot, None)
        if below is not None:
            pre = bias.copy()
            for kid in reversed(below):
                pre += matrices[comps[kid]] @ nodes[kid]
            np.tanh(pre, out=nodes[slot, dim:])
        if parents[slot] != PATH:
            children.setdefault(parents[slot], []).append(slot)
    return nodes


def encode_backward(schedule: np.ndarray, path_slots: np.ndarray, word_rows: RowPlan,
                    nodes: np.ndarray, d_path: np.ndarray, store: ParameterStore,
                    gradient: Gradient, names: list[str]) -> None:
    """Propagate the gradient on the path words' p (one row each, in path
    order, for their schedule slots path_slots) back through the subtrees,
    into the gradient of word embeddings, composition matrices, the
    composition bias and the leaf vector.

    The nodes are walked in pre-order, each taking its share from its
    parent (C.T @ d_pre), so the bias, leaf-vector and word rows accumulate
    in depth-first recursion order. After the walk, the bias and leaf sums,
    each matrix's one product (its parents' d_pre rows by its children's p
    rows) and the word rows, summed by word_rows (the RowPlan of the ROW
    row), go through gradient.step, each taking its step in place.
    """
    rows, parents, comps = schedule
    dim = store.value(WORD_EMB).shape[1]
    d_nodes = np.empty_like(nodes)
    d_nodes[path_slots] = d_path
    d_pre = np.empty((len(rows), nodes.shape[1] - dim))    # read on internal nodes only
    d_bias, d_leaf = np.zeros((2, nodes.shape[1] - dim))
    parents, comps = parents.tolist() + [PATH], comps.tolist()    # PATH past the last slot
    transposed = {comp: store.value(names[comp]).T for comp in set(comps) if comp != PATH}
    kids: dict[int, list[int]] = {}        # comp id -> the children it composes
    for slot, comp in enumerate(comps):
        if comp != PATH:
            kids.setdefault(comp, []).append(slot)
            np.matmul(transposed[comp], d_pre[parents[slot]], out=d_nodes[slot])
        d_c = d_nodes[slot, dim:]
        if parents[slot + 1] == slot:       # its first child is next
            tanh_backward(nodes[slot, dim:], d_c, out=d_pre[slot])
            d_bias += d_pre[slot]
        else:
            d_leaf += d_c
    gradient.step(COMP_BIAS, ..., d_bias)
    gradient.step(LEAF_VEC, ..., d_leaf)
    for comp, slots in kids.items():
        gradient.step(names[comp], ..., d_pre[schedule[PARENT, slots]].T @ nodes[slots])
    gradient.step(WORD_EMB, word_rows, d_nodes[:, :dim])
