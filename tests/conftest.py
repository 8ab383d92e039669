"""Shared builders and independent brute-force oracles for the test suite."""

from types import SimpleNamespace

import numpy as np
import pytest

from depnn.adp import Arc, DependencyGraph, Direction, PathStep, Token
from depnn.classifier import Model, TrainConfig
from depnn.corpus import INSTANCE_FORMAT_HEADER, PATH_END, PATH_START, Vocabulary
from depnn.numerics import ParameterStore, load_store, save_store, tanh_backward
from depnn.path_cnn import CONV_B, CONV_W
from depnn.subtree import PAD_WORD, REL_EMB


def graph_of(n_tokens, arcs, forms=None, inactive=(), **token_fields):
    """Build a graph from (head, dependent, relation) triples. token_fields
    maps an index to extra Token keyword arguments."""
    tokens = []
    for i in range(1, n_tokens + 1):
        form = forms[i - 1] if forms else f"w{i}"
        tokens.append(Token(i, form, **token_fields.get(i, {})))
    return DependencyGraph(tokens, [Arc(*a) for a in arcs], inactive)


def random_tree(rng, max_nodes=12, labels=("nsubj", "dobj", "det", "amod", "prep_with")):
    """Random recursive tree rooted at token 1."""
    n = 1 + int(rng.integers(max_nodes))
    tokens = [Token(i, f"w{i}") for i in range(1, n + 1)]
    arcs = [Arc(0, 1, "root")]
    for i in range(2, n + 1):
        parent = 1 + int(rng.integers(i - 1))
        arcs.append(Arc(parent, i, labels[int(rng.integers(len(labels)))]))
    return DependencyGraph(tokens, arcs)


def enumerate_tree_path(graph, a, b):
    """Exhaustive-DFS path oracle: the unique simple path from a to b in the
    undirected view, with relation labels and directions read straight off
    the arc set."""
    adjacency = {}
    relation_of = {}
    for arc in graph.arcs:
        if arc.head == 0:
            continue
        adjacency.setdefault(arc.head, []).append(arc.dependent)
        adjacency.setdefault(arc.dependent, []).append(arc.head)
        relation_of[(arc.head, arc.dependent)] = arc.relation

    found = []

    def dfs(node, seen, acc):
        if node == b:
            found.append(list(acc))
            return
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                acc.append(nxt)
                dfs(nxt, seen, acc)
                acc.pop()
                seen.remove(nxt)

    dfs(a, {a}, [a])
    assert len(found) == 1, f"expected a unique simple path, found {len(found)}"
    tokens = found[0]
    steps = [PathStep(tokens[0])]
    for prev, cur in zip(tokens, tokens[1:]):
        if (prev, cur) in relation_of:
            steps.append(PathStep(cur, relation_of[(prev, cur)], Direction.FORWARD))
        else:
            steps.append(PathStep(cur, relation_of[(cur, prev)], Direction.INVERSE))
    return steps


def offpath_descendants(graph, path_tokens, word):
    """Reachability oracle: descendants of a path word, never stepping onto
    another path token."""
    out = set()
    stack = [word]
    while stack:
        node = stack.pop()
        for arc in graph.children(node):
            if arc.dependent in path_tokens or arc.dependent in out:
                continue
            out.add(arc.dependent)
            stack.append(arc.dependent)
    return out


def enumerate_windows(n_words, k):
    """Window oracle: per path word, the k items of the alternating sequence
    centered on it, as (kind, ref) slots. Word slots reference a 0-based
    path-word position (None = pad), relation slots a 0-based
    inner-relation position or a "start"/"end" sentinel."""
    windows = []
    half = (k - 1) // 2
    for word_pos in range(n_words):
        center = 2 * word_pos + 1      # word w_j sits at sequence index 2j+1
        window = []
        for offset in range(-half, half + 1):
            idx = center + offset
            if idx % 2 == 1:           # odd sequence indices are words
                word = (idx - 1) // 2
                window.append(("word", word if 0 <= word < n_words else None))
            elif idx <= 0:
                window.append(("rel", "start"))
            elif idx >= 2 * n_words:
                window.append(("rel", "end"))
            else:
                window.append(("rel", idx // 2 - 1))
        windows.append(window)
    return windows


def oracle_conv_forward(n_words, k, word_vecs, rel_labels, store, vocab,
                        use_tanh=True):
    """Per-window convolution oracle: concatenates each window's slot
    vectors one by one and applies the filter window by window."""
    windows = enumerate_windows(n_words, k)
    conv_w = store.value(CONV_W)
    rel_emb = store.value(REL_EMB)
    pad = store.value(PAD_WORD)
    sentinel_rows = {"start": vocab.relation_row(PATH_START),
                     "end": vocab.relation_row(PATH_END)}
    label_rows = [vocab.relation_row(label) for label in rel_labels]
    inputs, slot_rows, feature_rows = [], [], []
    for window in windows:
        pieces, rows = [], []
        for kind, ref in window:
            if kind == "word":
                pieces.append(pad if ref is None else word_vecs[ref])
                rows.append(None)
            else:
                row = sentinel_rows[ref] if ref in sentinel_rows else label_rows[ref]
                pieces.append(rel_emb[row])
                rows.append(row)
        x = np.concatenate(pieces)
        pre = conv_w @ x + store.value(CONV_B)
        feature_rows.append(np.tanh(pre) if use_tanh else pre)
        inputs.append(x)
        slot_rows.append(rows)
    feature_map = np.stack(feature_rows)
    return SimpleNamespace(windows=windows, slot_rows=slot_rows, inputs=inputs,
                           feature_map=feature_map, pooled=feature_map.max(axis=0),
                           argmax=feature_map.argmax(axis=0), use_tanh=use_tanh)


def oracle_conv_backward(cache, upstream, store):
    """Per-window, per-slot backward oracle for oracle_conv_forward's cache;
    accumulates into the store and returns the path-word gradients."""
    conv_w = store.value(CONV_W)
    d_features = np.zeros_like(cache.feature_map)
    for coord, win in enumerate(cache.argmax):
        d_features[win, coord] += upstream[coord]

    word_dim = store.value(PAD_WORD).size
    rel_dim = store.value(REL_EMB).shape[1]
    d_words = {}
    for i, x in enumerate(cache.inputs):
        d_out = d_features[i]
        if not d_out.any():
            continue
        d_pre = tanh_backward(cache.feature_map[i], d_out) if cache.use_tanh else d_out
        store.grad(CONV_W)[...] += np.outer(d_pre, x)
        store.grad(CONV_B)[...] += d_pre
        d_x = conv_w.T @ d_pre
        offset = 0
        for (kind, ref), row in zip(cache.windows[i], cache.slot_rows[i]):
            if kind == "word":
                segment = d_x[offset:offset + word_dim]
                if ref is None:
                    store.grad(PAD_WORD)[...] += segment
                else:
                    d_words.setdefault(ref, np.zeros(word_dim))
                    d_words[ref] += segment
                offset += word_dim
            else:
                store.grad(REL_EMB)[row] += d_x[offset:offset + rel_dim]
                offset += rel_dim
    return [d_words.get(i, np.zeros(word_dim)) for i in range(len(cache.windows))]


def dense_sgd_oracle(store, learning_rate):
    """What a full-table update makes of every tensor: value - lr * grad,
    computed on copies, per tensor name."""
    return {name: store.value(name) - learning_rate * store.grad(name)
            for name in store.names()}


VALID_RECORD = ('{"id": 1, "tokens": [["a", null, 0, "root", null, null], '
                '["b", null, 1, "x", null, null]], "e1": [1, 1], "e2": [2, 2], '
                '"label": "Other"}')

# one malformed DEPNN-INST record per shape rule, each with a phrase of the
# error it must raise
MALFORMED_RECORDS = {
    "not-an-object": ("[1, 2]", "JSON object"),
    "missing-id": (VALID_RECORD.replace('"id": 1, ', ""), "'id'"),
    "string-id": (VALID_RECORD.replace('"id": 1', '"id": "1"'), "'id'"),
    "tokens-not-a-list": (VALID_RECORD.replace('"tokens": [[', '"tokens": {"t": [[')
                          .replace('null]], "e1"', 'null]]}, "e1"'), "'tokens'"),
    "five-column-row": (VALID_RECORD.replace('["b", null, 1, "x", null, null]',
                                             '["b", null, 1, "x", null]'), "6 columns"),
    "head-not-int": (VALID_RECORD.replace('["b", null, 1,', '["b", null, "1",'),
                     "head an integer"),
    "relation-missing": (VALID_RECORD.replace('1, "x"', '1, null'), "needs a relation"),
    "span-of-three": (VALID_RECORD.replace('"e2": [2, 2]', '"e2": [2, 2, 2]'), "'e2'"),
    "span-not-int": (VALID_RECORD.replace('"e1": [1, 1]', '"e1": [1, "1"]'), "'e1'"),
    "label-not-string": (VALID_RECORD.replace('"Other"', '7'), "'label'"),
}


def write_instance_file(path, *records):
    path.write_text("\n".join((INSTANCE_FORMAT_HEADER,) + records) + "\n",
                    encoding="utf-8")
    return path


TINY_CONFIG = dict(dim=6, dim_c=4, hidden=5, window=3, lex_dim=3, seed=11)


def tiny_model(instances, **overrides):
    settings = dict(TINY_CONFIG)
    settings.update(overrides)
    config = TrainConfig(**settings)
    return Model.build(config, Vocabulary.build(instances))


def rewrite_model_file(path, drop=None, narrow=None):
    """Rewrite a saved model file without tensor `drop`, or with the last
    column of tensor `narrow` cut off; the stored metadata is kept."""
    source, meta = load_store(path)
    store = ParameterStore()
    for name in source.names():
        if name == drop:
            continue
        value = source.value(name)[..., :-1] if name == narrow else source.value(name)
        store.register(name, value.shape, source.kind(name))
        store.set_value(name, value)
    save_store(path, store, meta)


def truncate_model_file(path, n_bytes):
    """Cut the last n_bytes off a saved model file."""
    data = path.read_bytes()
    path.write_bytes(data[:-n_bytes])


def edit_manifest(path, edit):
    """Rewrite the manifest of a saved model file: `edit` takes and returns
    the list of manifest lines after the magic line, each split into its
    TAB-separated fields. The payload is kept."""
    data = path.read_bytes()
    header_end = data.index(b"\n\n")
    magic, *lines = data[:header_end].decode("ascii").split("\n")
    fields = edit([line.split("\t") for line in lines])
    manifest = "\n".join([magic] + ["\t".join(f) for f in fields])
    path.write_bytes(manifest.encode("ascii") + data[header_end:])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
