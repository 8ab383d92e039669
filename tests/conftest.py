"""Shared builders and independent brute-force oracles for the test suite."""

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest

from depnn import numerics
from depnn.adp import INVERSE_SUFFIX, Arc, DependencyGraph, Token, TreeViolation
from depnn.classifier import Model, TrainConfig
from depnn.corpus import (DEFAULT_RELATION, INSTANCE_FORMAT_HEADER, PATH_END, PATH_START,
                          RESERVED_RELATIONS, UNK, Vocabulary)
from depnn.numerics import ParameterStore, load_store, row_plan, save_store, tanh_backward
from depnn.path_cnn import CONV_B, CONV_W, filter_blocks, relation_rows, word_slots
from depnn.subtree import (COMP_BIAS, LEAF_VEC, PAD_WORD, PATH, REL_EMB, WORD_EMB,
                           compile_nodes)


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


class ObjectGraph:
    """The graph as one Token per token and one Arc per arc, checked by a
    head-chain walk per token: the object-building oracle of
    DependencyGraph's columns."""

    def __init__(self, tokens, arcs, inactive=()):
        self.tokens = tuple(tokens)
        self.inactive = frozenset(inactive)
        if not self.tokens:
            raise TreeViolation("a sentence needs at least one token")
        self._by_index = {}
        for tok in self.tokens:
            if tok.index < 1:
                raise TreeViolation(f"token index {tok.index} below 1")
            if tok.index in self._by_index:
                raise TreeViolation(f"duplicate token index {tok.index}")
            self._by_index[tok.index] = tok
        for idx in self.inactive:
            if idx not in self._by_index:
                raise TreeViolation(f"inactive index {idx} has no token")
        self.arcs = tuple(sorted((Arc(*a) for a in arcs), key=lambda a: (a.head, a.dependent)))
        self.root_arc = {}            # every token's arc from its head, the root's included
        self._children = {}
        for arc in self.arcs:
            if arc.dependent not in self._by_index:
                raise TreeViolation(f"arc dependent {arc.dependent} has no token")
            if arc.head != 0 and arc.head not in self._by_index:
                raise TreeViolation(f"arc head {arc.head} has no token")
            if arc.dependent in self.inactive or arc.head in self.inactive:
                raise TreeViolation(f"inactive token participates in arc {arc}")
            if arc.dependent in self.root_arc:
                raise TreeViolation(f"token {arc.dependent} has more than one head")
            self.root_arc[arc.dependent] = arc
            if arc.head != 0:
                self._children.setdefault(arc.head, []).append(arc)
        active = [t.index for t in self.tokens if t.index not in self.inactive]
        roots = [i for i in active if i not in self.root_arc or self.root_arc[i].head == 0]
        if len(roots) != 1:
            raise TreeViolation(f"expected exactly one root, found {sorted(roots)}")
        self.root = roots[0]
        self._depth = {self.root: 0}
        for idx in active:
            chain = []
            node = idx
            while node not in self._depth:
                chain.append(node)
                arc = self.root_arc.get(node)
                node = arc.head if arc is not None else 0
                if node in chain or len(chain) > len(self.tokens):
                    raise TreeViolation(f"cycle through token {idx}")
            for offset, member in enumerate(reversed(chain), start=1):
                self._depth[member] = self._depth[node] + offset

    def token(self, index):
        return self._by_index[index]

    def children(self, index):
        return tuple(self._children.get(index, ()))

    def head_arc(self, index):
        arc = self.root_arc.get(index)
        return None if arc is None or arc.head == 0 else arc

    def depth(self, index):
        return self._depth[index]


def object_graph(rows):
    """The ObjectGraph of checked DEPNN-INST token rows, one Token and one
    Arc made per row, as the instance reader built its graphs."""
    tokens, arcs, inactive = [], [], []
    for pos, (form, lemma, head, rel, ner, wn) in enumerate(rows, start=1):
        tokens.append(Token(pos, form, lemma, ner, wn))
        if head == -1:
            inactive.append(pos)
        else:
            arcs.append(Arc(head, pos, rel or "root") if head == 0 else Arc(head, pos, rel))
    return ObjectGraph(tokens, arcs, inactive)


def assert_same_graph(graph, oracle):
    """A DependencyGraph against its ObjectGraph: the tokens, the arcs, the
    root, and per token its depth, its children in order and its head arc."""
    assert graph.tokens == oracle.tokens
    assert graph.arcs == oracle.arcs
    assert (graph.children[0], graph.inactive) == ([oracle.root], oracle.inactive)
    for tok in oracle.tokens:
        i = tok.index
        arc = oracle.root_arc.get(i)
        assert (graph.heads[i], graph.relations[i]) == (
            (-1, None) if i in oracle.inactive else (0, None) if arc is None
            else (arc.head, arc.relation))
        if i in oracle.inactive:
            assert (graph.depths[i], graph.children[i]) == (-1, [])
            continue
        assert graph.depths[i] == oracle.depth(i)
        assert graph.children[i] == [kid.dependent for kid in oracle.children(i)]
        if oracle.head_arc(i) is not None:
            assert Arc(graph.heads[i], i, graph.relations[i]) == oracle.head_arc(i)


def object_shortest_path(graph, a, b):
    """adp.shortest_path climbing an ObjectGraph's Arc objects."""
    tokens, labels, down = [a], [], []
    while a != b:
        if graph.depth(a) >= graph.depth(b):
            arc = graph.head_arc(a)
            tokens.append(arc.head)
            labels.append(arc.relation + INVERSE_SUFFIX)
            a = arc.head
        else:
            arc = graph.head_arc(b)
            down.append(arc)
            b = arc.head
    for arc in reversed(down):
        tokens.append(arc.dependent)
        labels.append(arc.relation)
    return tokens, labels


def object_compile(model, instance, graph):
    """What Model.compile made of an instance by way of its ObjectGraph: the
    subtree schedule, the relation rows and the lexical rows, each node's
    form and children read off Token and Arc objects."""
    vocab = model.vocab
    tokens, labels = object_shortest_path(graph, instance.e1.head_index,
                                          instance.e2.head_index)
    on_path = set(tokens)
    rows, parents, comps = [], [], []
    for word in tokens:
        stack = [(word, PATH, PATH)]
        while stack:
            token, parent, comp = stack.pop()
            rows.append(vocab.word_row(graph.token(token).form))
            parents.append(parent)
            comps.append(comp)
            if model.config.use_subtrees:
                slot = len(parents) - 1
                stack += [(arc.dependent, slot, vocab.comp_id(arc.relation))
                          for arc in reversed(graph.children(token))
                          if arc.dependent not in on_path]
    heads = (graph.token(instance.e1.head_index), graph.token(instance.e2.head_index))
    lex_rows = [[vocab.ner_row(tok.ner_tag) if table == "ner_emb" else vocab.wn_row(tok.wn_hypernym)
                 for tok in heads] for table in model._lex_tables]
    return (np.array([rows, parents, comps], dtype=np.int32), relation_rows(labels, vocab),
            np.array(lex_rows, dtype=np.int32).reshape(-1, 2))


def enumerate_tree_path(graph, a, b):
    """Exhaustive-DFS path oracle: the unique simple path from a to b in the
    undirected view, as shortest_path's (tokens, labels): a hop along an
    arc is its bare relation, a hop against one its relation + _inv, read
    straight off the arc set."""
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
    labels = [relation_of[(prev, cur)] if (prev, cur) in relation_of
              else relation_of[(cur, prev)] + INVERSE_SUFFIX
              for prev, cur in zip(tokens, tokens[1:])]
    return tokens, labels


def offpath_descendants(graph, path_tokens, word):
    """Reachability oracle: descendants of a path word, never stepping onto
    another path token."""
    out = set()
    stack = [word]
    while stack:
        node = stack.pop()
        for kid in graph.children[node]:
            if kid in path_tokens or kid in out:
                continue
            out.add(kid)
            stack.append(kid)
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


def oracle_conv_backward(cache, upstream, store, gradient):
    """Per-window, per-slot backward oracle for oracle_conv_forward's cache;
    accumulates into a Gradient's dense buffers and returns the path-word
    gradients."""
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
        won = np.flatnonzero(d_out)         # the filter rows with a nonzero gradient
        gradient[CONV_W][won] += np.outer(d_pre[won], x)
        gradient[CONV_B] += d_pre
        d_x = conv_w.T @ d_pre
        offset = 0
        for (kind, ref), row in zip(cache.windows[i], cache.slot_rows[i]):
            if kind == "word":
                segment = d_x[offset:offset + word_dim]
                if ref is None:
                    gradient[PAD_WORD] += segment
                else:
                    d_words.setdefault(ref, np.zeros(word_dim))
                    d_words[ref] += segment
                offset += word_dim
            else:
                gradient[REL_EMB][row] += d_x[offset:offset + rel_dim]
                offset += rel_dim
    return [d_words.get(i, np.zeros(word_dim)) for i in range(len(cache.windows))]


def gathered_conv_backward(cache, upstream, store, gradient):
    """path_cnn.conv_backward with each filter block's step formed as a
    gathered copy: the block's winning windows, scaled by their units'
    gradients. The filter steps through gradient.step block by block; the
    bias and pad-vector gradients add into dense buffers."""
    d_pre = tanh_backward(cache.pooled, upstream) if cache.use_tanh else upstream
    conv_w = store.value(CONV_W)
    d_features = np.zeros_like(cache.feature_map)
    d_features[cache.argmax, np.arange(d_pre.size)] = d_pre
    d_inputs = np.zeros_like(cache.inputs)
    gradient[CONV_B] += d_pre
    for block in filter_blocks(conv_w):
        d_inputs += d_features[:, block] @ conv_w[block]    # before the block's update
        step = cache.inputs[cache.argmax[block]]
        step *= d_pre[block, None]
        gradient.step(CONV_W, block, step)

    windows = cache.windows
    is_word = word_slots(windows.shape[1])
    word_dim, rel_dim = store.value(PAD_WORD).size, store.value(REL_EMB).shape[1]
    d_word_slots, d_rel_slots, start = [], [], 0
    for word in is_word.tolist():
        width = word_dim if word else rel_dim
        (d_word_slots if word else d_rel_slots).append(d_inputs[:, start:start + width])
        start += width
    d_words = np.zeros((len(windows) + 1, word_dim))
    np.add.at(d_words, windows[:, is_word], np.stack(d_word_slots, axis=1))
    gradient.step(REL_EMB, row_plan(cache.rel_rows[windows[:, ~is_word]]),
                  np.stack(d_rel_slots, axis=1))
    gradient[PAD_WORD] += d_words[0]
    return d_words[1:]


def slot_plans(cache):
    """The RowPlans that Model.compile makes for conv_backward: of the word
    slots of cache.windows, and of the relation rows in its relation slots."""
    is_word = word_slots(cache.windows.shape[1])
    return (row_plan(cache.windows[:, is_word]),
            row_plan(cache.rel_rows[cache.windows[:, ~is_word]]))


def count_applies(monkeypatch) -> list[int]:
    """The inner dimension of every product that applies deferred steps,
    from now on, in order."""
    applies = []
    subtract = numerics._subtract_product

    def counted(value, left, right):
        applies.append(len(right))
        subtract(value, left, right)

    monkeypatch.setattr(numerics, "_subtract_product", counted)
    return applies


def assert_bit_identical(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def copy_store(store):
    """A new ParameterStore holding a copy of every tensor of `store`."""
    copy = ParameterStore()
    for name in store.names():
        value = store.value(name)
        copy.register(name, value.shape, store.kind(name))[...] = value
    return copy


def dense_sgd_oracle(store, gradient, learning_rate):
    """What a full-table update makes of every tensor: value - lr * grad,
    with grad the gradient's whole tensor (zero where nothing wrote it),
    computed on copies, per name."""
    return {name: store.value(name) - learning_rate * gradient[name]
            for name in store.names()}


class RowSums:
    """The embedding-row route that Gradient.step's row path replaced: per
    table, per row, the sum of that row's deltas in call order, kept across
    every call of a step, and stepped onto the table once, at the step's end."""

    def __init__(self, store):
        self.store = store
        self.rows = {}

    def add_rows(self, name, rows, delta):
        """grad[rows] += delta, for an int row or an array of rows with one
        delta each; a row's sum starts as its first delta + 0.0, in a new
        array."""
        sums = self.rows.setdefault(name, {})
        if isinstance(rows, (int, np.integer)):
            pairs = ((rows, delta),)
        else:
            pairs = zip(np.ravel(rows).tolist(),
                        np.reshape(delta, (-1,) + self.store.value(name).shape[1:]))
        for row, row_delta in pairs:
            total = sums.get(row)
            if total is None:
                sums[row] = row_delta + 0.0
            else:
                total += row_delta

    def full(self, name):
        """The gradient of the whole table, zero where nothing was written."""
        full = np.zeros(self.store.value(name).shape)
        for row, total in self.rows.get(name, {}).items():
            full[row] += total
        return full

    def apply(self, learning_rate):
        """value -= learning_rate * grad on exactly the rows written."""
        for name, sums in self.rows.items():
            if sums:
                rows = np.fromiter(sums, dtype=np.intp, count=len(sums))
                self.store.value(name)[rows] -= learning_rate * np.array(list(sums.values()))


@dataclass(frozen=True)
class AugmentedDependencyPath:
    """The tokens of the shortest path between two entity heads plus, per
    path word, the arcs of the subtree attached to it off the path."""
    tokens: tuple[int, ...]
    subtrees: dict[int, tuple[Arc, ...]] = field(hash=False)


def attach_subtrees(graph, tokens) -> AugmentedDependencyPath:
    """Subtree oracle: for each path word, every descendant arc reachable
    without stepping onto another path token."""
    on_path = set(tokens)
    subtrees = {}
    for word in tokens:
        collected = []
        stack = [word]
        while stack:
            node = stack.pop()
            for kid in graph.children[node]:
                if kid in on_path:
                    continue
                collected.append(Arc(node, kid, graph.relations[kid]))
                stack.append(kid)
        subtrees[word] = tuple(collected)
    return AugmentedDependencyPath(tuple(tokens), subtrees)


def subtree_tokens(adp, word):
    """The tokens of the subtree attached to a path word."""
    return {arc.dependent for arc in adp.subtrees[word]}


def scheduled_subtrees(graph, path_tokens):
    """compile_nodes' schedule read back as tokens: per path word, the set
    of tokens scheduled under it. Each scheduled node's parent slot must
    hold its head token. Forms must be unique within the graph, so that a
    word row below UNK's names one token."""
    forms = tuple(tok.form for tok in graph.tokens)
    assert len(set(forms)) == len(forms)
    vocab = Vocabulary(words=forms + (UNK,), relations=(UNK, PATH_START, PATH_END),
                       comp_relations=(DEFAULT_RELATION,), ner_tags=(UNK,), wn_tags=(UNK,))
    rows, parents, _ = compile_nodes(graph, list(path_tokens), vocab)
    tokens = [graph.tokens[row].index for row in rows.tolist()]
    subtrees = {}
    for token, parent in zip(tokens, parents.tolist()):
        if parent == PATH:
            word = token
            subtrees[word] = set()
        else:
            assert graph.heads[token] == tokens[parent]
            subtrees[word].add(token)
    assert list(subtrees) == list(path_tokens)
    return subtrees


def oracle_comp_name(vocab, relation):
    """Store name of a relation's composition matrix, or of the default one
    when the vocabulary gives the relation none."""
    key = relation if relation in vocab.comp_relations else DEFAULT_RELATION
    return f"comp/{key}"


@dataclass
class NodeCache:
    """Forward-pass state of one node of the recursive encoder oracle."""
    token: int
    word_row: int
    p: np.ndarray
    c: np.ndarray
    is_leaf: bool
    children: list


def encode_word(graph, adp, word, store, vocab, include_subtree=True):
    """Recursive subtree encoder oracle: one path word and its attached
    subtree, children summed in ascending token order."""
    children_of = {}
    if include_subtree:
        for arc in adp.subtrees[word]:
            children_of.setdefault(arc.head, []).append(arc)
    return _encode(word, graph, children_of, store, vocab)


def _encode(node, graph, children_of, store, vocab):
    row = vocab.word_row(graph.forms[node])
    x = store.value(WORD_EMB)[row]
    arcs = sorted(children_of.get(node, ()), key=lambda a: a.dependent)
    if not arcs:
        c = store.value(LEAF_VEC)
        return NodeCache(node, row, np.concatenate([x, c]), c, True, [])
    kids = [(arc.relation, _encode(arc.dependent, graph, children_of, store, vocab))
            for arc in arcs]
    pre = store.value(COMP_BIAS).copy()
    for relation, kid in kids:
        pre += store.value(oracle_comp_name(vocab, relation)) @ kid.p
    c = np.tanh(pre)
    return NodeCache(node, row, np.concatenate([x, c]), c, False, kids)


def encode_word_backward(cache, upstream, store, gradient, vocab):
    """Backward pass of the recursive encoder oracle for one path word."""
    _backward(cache, upstream, cache.p.size - cache.c.size, store, gradient, vocab)


def _backward(node, d_p, dim, store, gradient, vocab):
    gradient.step(WORD_EMB, node.word_row, d_p[:dim])
    d_c = d_p[dim:]
    if node.is_leaf:
        gradient[LEAF_VEC] += d_c
        return
    d_pre = tanh_backward(node.c, d_c)
    gradient[COMP_BIAS] += d_pre
    for relation, kid in node.children:
        name = oracle_comp_name(vocab, relation)
        gradient[name] += np.outer(d_pre, kid.p)
        _backward(kid, store.value(name).T @ d_pre, dim, store, gradient, vocab)


def preorder(cache):
    """The oracle's nodes of one path word, in pre-order."""
    out, stack = [], [cache]
    while stack:
        node = stack.pop()
        out.append(node)
        stack += [kid for _, kid in reversed(node.children)]
    return out


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
    "id-too-long": (VALID_RECORD.replace('"id": 1', '"id": ' + "9" * 5000), "bad record"),
    # a relation names a tensor in the model file's TAB-separated ASCII manifest
    "relation-with-tab": (VALID_RECORD.replace('"x"', '"x\\ty"'), "without TAB"),
    "relation-not-ascii": (VALID_RECORD.replace('"x"', '"\\u00e9x"'), "must be ASCII"),
    # a relation's directed labels and the vocabulary's own entries key one
    # row each; a relation named like one of them would share it
    "relation-inverse-suffix": (VALID_RECORD.replace('"x"', '"x_inv"'),
                                "relation 'x_inv' is reserved"),
    **{f"relation-{name.strip('<>')}": (VALID_RECORD.replace('"x"', f'"{name}"'),
                                         f"relation '{name}' is reserved")
       for name in RESERVED_RELATIONS},
    "unknown-label": (VALID_RECORD.replace('"Other"', '"Foo"'),
                      "unknown relation label 'Foo'"),
    # a record of the right shape that is not one instance: the error names
    # the instance once
    "rootless-cycle": (VALID_RECORD.replace('["a", null, 0, "root"', '["a", null, 2, "y"'),
                       "instance 1: expected exactly one root"),
    "overlapping-spans": (VALID_RECORD.replace('"e2": [2, 2]', '"e2": [1, 2]'),
                          "instance 1: entity spans overlap"),
    "no-tokens": ('{"id": 1, "tokens": [], "e1": [1, 1], "e2": [2, 2], "label": "Other"}',
                  "instance 1: a sentence needs at least one token"),
    # head -1 marks a token kept out of the tree; no other negative head is one
    "head-99": (VALID_RECORD.replace('["b", null, 1,', '["b", null, 99,'),
                "instance 1: arc head 99 has no token"),
    "head-minus-2": (VALID_RECORD.replace('["b", null, 1,', '["b", null, -2,'),
                     "instance 1: arc head -2 has no token"),
    "span-from-zero": (VALID_RECORD.replace('"e1": [1, 1]', '"e1": [0, 1]'),
                       r"instance 1: span \[0, 1\] leaves the sentence"),
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
        store.register(name, value.shape, source.kind(name))[...] = value
    save_store(path, store, meta)


def rewrite_model_meta(path, edit):
    """Rewrite the user metadata of a saved model file: `edit` takes the
    metadata dict and returns the one to store. The tensors are kept."""
    store, meta = load_store(path)
    save_store(path, store, edit(meta))


def _edited(**changes):
    """A metadata edit that sets each given field, or drops it for None;
    a name like config__dim reaches field dim of object config."""
    def edit(meta):
        for name, value in changes.items():
            *parents, key = name.split("__")
            target = meta
            for parent in parents:
                target = target[parent]
            if value is None:
                del target[key]
            else:
                target[key] = value
        return meta
    return edit


def _dropped(field, entry):
    """A metadata edit that takes one entry out of a vocabulary field."""
    def edit(meta):
        meta["vocab"][field].remove(entry)
        return meta
    return edit


def _appended(field, entry):
    """A metadata edit that lists an entry of a vocabulary field a second
    time, at its end."""
    def edit(meta):
        meta["vocab"][field].append(entry)
        return meta
    return edit


# one bad piece of model-file metadata per rule, each with a phrase of the
# ModelFileMismatch it must raise
BAD_MODEL_META = {
    "format-only": (lambda meta: {"format": "depnn-model"}, "'config' is missing"),
    "format-not-a-model": (_edited(format="depnn-embeddings"), "'format' should be 'depnn-model'"),
    "labels-missing": (_edited(labels=None), "'labels' is missing"),
    "labels-not-a-list": (_edited(labels="Other"), "'labels' should be a list of strings"),
    "unknown-field": (_edited(extra=1), "'extra' is unknown"),
    "config-not-an-object": (_edited(config=[]), "'config' should be an object"),
    "config-unknown-key": (_edited(config__momentum=0.9), "'config.momentum' is unknown"),
    "config-key-missing": (_edited(config__conv_tanh=None), "'config.conv_tanh' is missing"),
    "config-dim-a-string": (_edited(config__dim="6"), "'config.dim' should be an integer"),
    "config-hidden-a-bool": (_edited(config__hidden=True), "'config.hidden' should be an integer"),
    "config-rate-a-string": (_edited(config__learning_rate="0.05"),
                             "'config.learning_rate' should be a number"),
    "config-tanh-an-int": (_edited(config__conv_tanh=1), "'config.conv_tanh' should be a boolean"),
    "config-even-window": (_edited(config__window=4), "'config': window size must be odd"),
    "config-rate-nan": (_edited(config__learning_rate=float("nan")),
                        "'config': learning rate must be finite"),
    "config-negative-seed": (_edited(config__seed=-11), "'config': seed must be non-negative"),
    "vocab-missing": (_edited(vocab=None), "'vocab' is missing"),
    "vocab-list-missing": (_edited(vocab__wn_tags=None), "'vocab.wn_tags' is missing"),
    "vocab-words-not-strings": (_edited(vocab__words=[1, 2]),
                                "'vocab.words' should be a list of strings"),
    "vocab-words-without-unk": (_dropped("words", UNK),
                                "'vocab.words': vocabulary words has no '<unk>' entry"),
    "vocab-relations-without-unk": (
        _dropped("relations", UNK), "'vocab.relations': vocabulary relations has no '<unk>'"),
    "vocab-relations-without-start": (
        _dropped("relations", PATH_START),
        "'vocab.relations': vocabulary relations has no '<path-start>'"),
    "vocab-relations-without-end": (
        _dropped("relations", PATH_END),
        "'vocab.relations': vocabulary relations has no '<path-end>'"),
    "vocab-comp-without-default": (
        _dropped("comp_relations", DEFAULT_RELATION),
        "'vocab.comp_relations': vocabulary comp_relations has no '<default>'"),
    "vocab-ner-without-unk": (_dropped("ner_tags", UNK),
                              "'vocab.ner_tags': vocabulary ner_tags has no '<unk>'"),
    "vocab-wn-without-unk": (_dropped("wn_tags", UNK),
                             "'vocab.wn_tags': vocabulary wn_tags has no '<unk>'"),
    "vocab-relations-start-twice": (
        _appended("relations", PATH_START),
        "'vocab.relations': vocabulary relations lists '<path-start>' twice"),
}


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
