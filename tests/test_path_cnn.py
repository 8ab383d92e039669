import numpy as np
import pytest

from depnn import numerics, synth
from depnn.adp import shortest_path
from depnn.path_cnn import (CONV_B, CONV_W, PAD_WORD, REL_EMB, InvalidWindowSize,
                            conv_backward, conv_forward, max_over_time, relation_rows,
                            window_pieces, window_width, words_per_window)
from depnn.numerics import (PRODUCT_ROWS, Gradient, ShapeMismatch, row_blocks, row_plan,
                            tanh_backward)
from depnn.subtree import comp_names, encode

from conftest import (assert_bit_identical, dense_sgd_oracle, enumerate_windows, graph_of,
                      model_gradient, oracle_conv_backward, oracle_conv_forward, tiny_model,
                      zero_buffers)
from depnn.corpus import PATH_END, PATH_START, Instance, entity_mention


def harness(n_words=3, **model_overrides):
    """A tiny model plus a chain instance with n_words on the path."""
    arcs = [(0, 1, "root")] + [(i, i + 1, f"r{i}") for i in range(1, n_words)]
    graph = graph_of(n_words, arcs)
    instance = Instance(1, graph, entity_mention(graph, 1, 1),
                        entity_mention(graph, n_words, n_words), "Other")
    model = tiny_model([instance], **model_overrides)
    return model, instance


def chain_labels(n_words):
    """The directed labels of harness' chain path of n_words."""
    return [f"r{i}" for i in range(1, n_words)]


def chain_relations(model, n_words):
    """relation_rows of harness' chain path of n_words at the model's window."""
    return relation_rows(chain_labels(n_words), model.vocab, model.config.window)


def run_conv(model, n_words, word_vecs=None, use_tanh=True):
    width = model.config.dim + model.config.dim_c
    if word_vecs is None:
        word_vecs = [np.full(width, 0.1 * (i + 1)) for i in range(n_words)]
    return conv_forward(chain_relations(model, n_words), word_vecs, model.store,
                        use_tanh=use_tanh)


def distinct_chain(k, n_words, rng):
    """harness' model at window k over a chain of 8 words, and n_words
    random word vectors: every word, relation, sentinel and pad vector
    differs from every other."""
    model, _ = harness(8, window=k)
    vecs = list(rng.normal(size=(n_words, model.config.dim + model.config.dim_c)))
    return model, vecs


def hand_windows(*windows):
    """Window vectors from their items, one tuple of vectors per window."""
    return np.stack([np.concatenate(items) for items in windows])


class TestWindows:
    """A window is a run of the path's blocks: conv_forward's window vectors
    are, bit for bit, the concatenation of each window's items, slot by
    slot, as the per-window oracle or a hand enumeration makes them."""

    @staticmethod
    def items(model, rng, n_words):
        """The pad, the start, r1 .. r{n_words-1} and end vectors of the
        model, and n_words random word vectors."""
        rel = model.store.value(REL_EMB)
        names = [PATH_START] + chain_labels(n_words) + [PATH_END]
        relations = [rel[model.vocab.relation_row(name)] for name in names]
        pad = model.store.value(PAD_WORD)
        return pad, relations, list(rng.normal(size=(n_words, pad.size)))

    def test_three_word_path_k3(self, rng):
        model, _ = harness(8, window=3)
        _, (start, r1, r2, end), (p0, p1, p2) = self.items(model, rng, 3)
        cache = conv_forward(chain_relations(model, 3), [p0, p1, p2], model.store)
        assert_bit_identical(cache.inputs, hand_windows((start, p0, r1), (r1, p1, r2),
                                                        (r2, p2, end)))

    def test_one_word_path_k3(self, rng):
        model, _ = harness(8, window=3)
        _, (start, end), (p0,) = self.items(model, rng, 1)
        cache = conv_forward(chain_relations(model, 1), [p0], model.store)
        assert_bit_identical(cache.inputs, hand_windows((start, p0, end)))

    def test_two_word_path_k5_hand_enumerated(self, rng):
        model, _ = harness(8, window=5)
        pad, (start, r1, end), (p0, p1) = self.items(model, rng, 2)
        cache = conv_forward(chain_relations(model, 2), [p0, p1], model.store)
        assert_bit_identical(cache.inputs, hand_windows((pad, start, p0, r1, p1),
                                                        (p0, r1, p1, end, pad)))

    def test_every_window_has_declared_slot_counts(self, rng):
        # slot by slot against the (kind, ref) windows of the conftest
        # oracle, every word, relation, sentinel and pad vector distinct
        for k in (3, 5, 7, 9):
            for n in range(1, 9):
                model, vecs = distinct_chain(k, n, rng)
                cache = conv_forward(chain_relations(model, n), vecs, model.store)
                oracle = oracle_conv_forward(n, k, vecs, chain_labels(n), model.store,
                                             model.vocab)
                assert cache.window == k
                assert_bit_identical(cache.inputs, np.stack(oracle.inputs))
                assert all(sum(kind == "word" for kind, _ in window) == words_per_window(k)
                           for window in oracle.windows)

    def test_blocks_relation_rows(self):
        model, _ = harness(3, window=9)
        start, r1, r2, end = (model.vocab.relation_row(name)
                              for name in (PATH_START, "r1", "r2", PATH_END))
        # R_j from j = -(k - 1) // 4, one per block: n + (k - 1) / 2 blocks
        expected = {3: [start, r1, r2, end], 5: [start, start, r1, r2, end],
                    7: [start, start, r1, r2, end, end],
                    9: [start, start, start, r1, r2, end, end]}
        for k, rows in expected.items():
            assert relation_rows(["r1", "r2"], model.vocab, k).tolist() == rows

    def test_window_pieces(self):
        # rel_dim 2, word_dim 3: a block is 5 columns
        assert window_pieces(3, 2, 3) == ((0, 0, 5), (1, 0, 2))
        assert window_pieces(5, 2, 3) == ((0, 2, 5), (1, 0, 5), (2, 0, 5))
        assert window_pieces(7, 2, 3) == ((0, 0, 5), (1, 0, 5), (2, 0, 5), (3, 0, 2))
        assert window_pieces(9, 2, 3) == ((0, 2, 5), (1, 0, 5), (2, 0, 5), (3, 0, 5),
                                          (4, 0, 5))

    def test_invalid_window_sizes(self):
        for k in (1, 2, 4, 0, -3):
            with pytest.raises(InvalidWindowSize):
                window_pieces(k, 2, 3)

    def test_window_count_equals_word_count(self):
        for k in (3, 5, 7):
            model, _ = harness(5, window=k)
            for n in range(1, 6):
                assert len(run_conv(model, n).inputs) == n

    def test_words_per_window(self):
        assert words_per_window(3) == 1
        assert words_per_window(5) == 3
        assert words_per_window(7) == 3
        assert words_per_window(9) == 5

    def test_window_width_matches_filter_and_slots(self):
        dim, dim_c = 7, 3
        for k in (3, 5, 7):
            assert window_width(k, dim, dim_c) == dim * k + dim_c * words_per_window(k)
            assert sum(b - a for _, a, b in window_pieces(k, dim, dim + dim_c)) == \
                window_width(k, dim, dim_c)


class TestPooling:
    def test_hand_max(self):
        pooled, argmax = max_over_time(np.array([[1.0, -3.0], [0.5, 2.0]]))
        assert pooled.tolist() == [1.0, 2.0]
        assert argmax.tolist() == [0, 1]

    def test_tie_goes_to_lowest_window(self):
        pooled, argmax = max_over_time(np.array([[.5, .5], [.5, .5]]))
        assert argmax.tolist() == [0, 0]


class TestConvForward:
    def test_zero_inputs_zero_bias_give_zero(self):
        model, _ = harness(3)
        for name in model.store.names():
            model.store.value(name).fill(0.0)
        cache = run_conv(model, 3)
        assert not cache.pooled.any()

    def test_single_window_degenerate_pooling(self):
        model, _ = harness(2)
        cache = run_conv(model, 1)
        assert np.array_equal(cache.pooled, cache.feature_map[0])
        assert not cache.argmax.any()

    def test_pooled_equals_elementwise_max(self):
        model, _ = harness(4)
        cache = run_conv(model, 4)
        assert np.array_equal(cache.pooled, cache.feature_map.max(axis=0))

    def test_dominant_window_wins_exactly(self):
        model, _ = harness(2)
        width = model.config.dim + model.config.dim_c
        model.store.value(CONV_W)[...] = np.abs(model.store.value(CONV_W))
        model.store.value(REL_EMB).fill(0.0)
        model.store.value(PAD_WORD).fill(0.0)
        strong = [np.full(width, 0.5), np.full(width, 0.5)]
        cache = run_conv(model, 2, word_vecs=[strong[0], np.full(width, -0.5)])
        assert np.array_equal(cache.pooled, cache.feature_map[0])
        assert not cache.argmax.any()

    def test_permuting_windows_leaves_pooled_unchanged(self, rng):
        # the oracle's windows, filtered as conv_forward filters its own in
        # another order, pool to the same vector
        model, vecs = distinct_chain(3, 3, rng)
        direct = conv_forward(chain_relations(model, 3), vecs, model.store)
        oracle = oracle_conv_forward(3, 3, vecs, chain_labels(3), model.store, model.vocab)
        assert_bit_identical(direct.inputs, np.stack(oracle.inputs))
        pre = model.store.matmul_t(CONV_W, np.stack(oracle.inputs)[[2, 0, 1]])
        pre += model.store.value(CONV_B)
        permuted, _ = max_over_time(np.tanh(pre))
        assert np.allclose(direct.pooled, permuted, atol=0)

    def test_shape_mismatch_on_wrong_filter(self):
        model, _ = harness(2)
        with pytest.raises(ShapeMismatch):
            conv_forward(relation_rows(["r1"], model.vocab, 5), [np.zeros(10)] * 2,
                         model.store)    # filter was sized for k=3


class TestWordSlotPlan:
    @pytest.mark.parametrize("k", [3, 5, 7, 9])
    def test_matches_add_at(self, rng, k):
        """conv_backward sums the window vectors' word segments onto the
        path words as np.add.at does, in window-major order, into zeros,
        bit for bit."""
        for n_words in range(1, 9):
            model, vecs = distinct_chain(k, n_words, rng)
            cache = conv_forward(chain_relations(model, n_words), vecs, model.store)
            upstream = rng.normal(size=model.config.hidden)
            d_words = conv_backward(cache, upstream, model.store,
                                    Gradient(model.store.zeros_like(), -1.0),
                                    row_plan(chain_relations(model, n_words)))
            # the window vectors' gradient, as conv_backward forms it
            d_features = np.zeros_like(cache.feature_map)
            d_features[cache.argmax, np.arange(upstream.size)] = tanh_backward(cache.pooled,
                                                                               upstream)
            d_inputs = model.store.matmul(CONV_W, d_features)
            word_dim, rel_dim = len(vecs[0]), model.config.dim
            rows, segments = [], []
            for d_x, window in zip(d_inputs, enumerate_windows(n_words, k)):
                offset = 0
                for kind, ref in window:
                    size = word_dim if kind == "word" else rel_dim
                    if kind == "word" and ref is not None:
                        rows.append(ref)
                        segments.append(d_x[offset:offset + size])
                    offset += size
            expected = np.zeros((n_words, word_dim))
            np.add.at(expected, rows, segments)
            assert_bit_identical(np.ascontiguousarray(d_words), expected)


class TestConvBackward:
    def test_zero_upstream_zero_gradients(self):
        model, _ = harness(3)
        cache = run_conv(model, 3)
        gradient = model.store.zeros_like()
        d_words = conv_backward(cache, np.zeros(model.config.hidden), model.store,
                                Gradient(gradient, -1.0), row_plan(chain_relations(model, 3)))
        for name in model.store.names():
            assert not gradient.value(name).any()
        assert all(not d.any() for d in d_words)

    def test_non_argmax_window_gets_exactly_zero(self):
        model, _ = harness(2)
        cache = run_conv(model, 2)
        coord = 0
        upstream = np.zeros(model.config.hidden)
        upstream[coord] = 1.0
        winner = int(cache.argmax[coord])
        d_words = conv_backward(cache, upstream, model.store,
                                Gradient(model.store.zeros_like(), -1.0),
                                row_plan(chain_relations(model, 2)))
        # with k=3 each path word appears in exactly one window
        assert d_words[winner].any()
        assert not d_words[1 - winner].any()

    def test_word_gradients_accumulate_across_windows(self):
        # with k=5 the middle word of a 3-word path sits in all 3 windows
        model, _ = harness(3, window=5)
        cache = run_conv(model, 3)
        upstream = np.linspace(0.5, 1.5, model.config.hidden)
        d_words = conv_backward(cache, upstream, model.store,
                                Gradient(model.store.zeros_like(), -1.0),
                                row_plan(chain_relations(model, 3)))
        assert len(d_words) == 3
        assert all(d.shape == (model.config.dim + model.config.dim_c,)
                   for d in d_words)


def limit_block_rows(monkeypatch, rows, width):
    """Make the store cut a filter of this width into blocks of `rows` in its
    products (numerics.row_blocks); its applies are cut finer too."""
    monkeypatch.setattr(numerics, "SMALL_PRODUCT", rows * PRODUCT_ROWS * width)


class TestFilterBlocks:
    """numerics.row_blocks as the store's products cut the filter: each
    block within SMALL_PRODUCT for up to PRODUCT_ROWS windows."""

    def test_small_product_sets_rows_per_block(self):
        # 32 rows of the 200-d filter, 128 of the 50-d one, within SMALL_PRODUCT
        assert row_blocks(400, PRODUCT_ROWS * 1300)[:2] == [slice(0, 32), slice(32, 64)]
        assert len(row_blocks(400, PRODUCT_ROWS * 1300)) == 13
        assert row_blocks(200, PRODUCT_ROWS * 325) == [slice(0, 128), slice(128, 256)]
        # 98 rows of the 50-d filter at k=7 (width 425)
        assert row_blocks(200, PRODUCT_ROWS * 425)[0] == slice(0, 98)

    def test_blocks_cover_every_row_once(self):
        for hidden in (1, 7, 32, 33, 200):
            for width in (22, 325, 1300, 10**6):
                rows = np.arange(hidden)
                covered = np.concatenate([rows[b] for b in row_blocks(hidden, PRODUCT_ROWS * width)])
                assert covered.tolist() == rows.tolist()


def random_paths(model, instances):
    """Subtree-encoded path vectors and directed relation labels per instance."""
    for inst in instances:
        compiled = model.compile(inst)
        nodes = encode(compiled.schedule, model.store, comp_names(model.vocab))
        _, labels = shortest_path(inst.graph, inst.e1.head_index, inst.e2.head_index)
        yield list(nodes[compiled.path_slots]), labels


def chain_paths(model, rng):
    """Paths of 1 to 24 words, each drawn untied and tied: a tied path has
    one word vector and one relation throughout, so the windows inside it
    are equal and pool to the lowest."""
    width, relations = model.config.dim + model.config.dim_c, model.vocab.relations[3:]
    for n_words in range(1, 25):
        for drawn in (n_words, 1):
            vecs = np.resize(rng.normal(size=(drawn, width)), (n_words, width))
            yield list(vecs), list(np.resize(rng.choice(relations, size=drawn), n_words - 1))


def max_gap(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)).max()


class TestOracleEquivalence:
    """The vectorized conv against the per-window, per-slot oracle in
    conftest, to 1e-12, on subtree-encoded paths: the forward, with the
    window each unit pools, and the backward without a rate and with one.
    Without a rate, the backward stepping a zeroed store at rate -1, the
    path-word gradients and every tensor's gradient are compared; with one
    the path-word gradients, and every tensor the step leaves against the
    dense update of the oracle's gradient."""

    LEARNING_RATE = 0.3

    @classmethod
    def assert_matches_per_window_oracle(cls, model, paths, rng,
                                         learning_rate=LEARNING_RATE) -> int:
        """Checks every path, the step only given a learning_rate; returns
        how many paths held two equal windows."""
        store, vocab, k = model.store, model.vocab, model.config.window
        use_tanh = model.config.conv_tanh
        tied = 0
        for vecs, labels in paths:
            n, rel_rows = len(vecs), relation_rows(labels, vocab, k)
            new = conv_forward(rel_rows, vecs, store, use_tanh=use_tanh)
            old = oracle_conv_forward(n, k, vecs, labels, store, vocab, use_tanh=use_tanh)
            assert np.array_equal(new.argmax, old.argmax)
            assert max_gap(new.pooled, old.pooled) <= 1e-12
            tied += len(np.unique(new.feature_map, axis=0)) < n

            upstream = rng.normal(size=model.config.hidden)
            rel_plan = row_plan(rel_rows)
            grads_new, grads_old = store.zeros_like(), zero_buffers(store)
            d_new = conv_backward(new, upstream, store, Gradient(grads_new, -1.0), rel_plan)
            d_old = oracle_conv_backward(old, upstream, store, grads_old)
            for name in store.names():
                assert max_gap(grads_new.value(name), grads_old[name]) <= 1e-12, name
            # the filter's, bit for bit: each unit's gradient times its
            # winning window, added into a zeroed buffer (0.0 + makes -0.0 +0.0)
            d_pre = tanh_backward(new.pooled, upstream) if use_tanh else upstream
            assert_bit_identical(grads_new.value(CONV_W),
                                 0.0 + d_pre[:, None] * new.inputs[new.argmax])
            assert len(d_new) == len(d_old) == n
            for a, b in zip(d_new, d_old):
                assert max_gap(a, b) <= 1e-12
            if learning_rate is None:
                continue

            before = {name: store.value(name).copy() for name in store.names()}
            expected = dense_sgd_oracle(store, grads_old, learning_rate)
            d_new = conv_backward(new, upstream, store, Gradient(store, learning_rate), rel_plan)
            for a, b in zip(d_new, d_old):
                assert max_gap(a, b) <= 1e-12
            for name in store.names():
                assert max_gap(store.value(name), expected[name]) <= 1e-12, name
                store.value(name)[...] = before[name]
        return tied

    @pytest.mark.parametrize("use_tanh", [True, False])
    @pytest.mark.parametrize("k", [3, 5, 7, 9])
    def test_matches_per_window_oracle(self, k, use_tanh, rng):
        instances = synth.make_gradcheck_instances(12, seed=100 + k)
        model = tiny_model(instances, window=k, conv_tanh=use_tanh)
        self.assert_matches_per_window_oracle(model, random_paths(model, instances), rng)

    # (hidden, dim, dim_c, k, rows per block or None for PRODUCT_ROWS')
    BLOCKED_SHAPES = {
        "tiny-2-row-blocks": (5, 6, 4, 3, 2),
        "tiny-8-row-blocks": (33, 6, 4, 5, 8),
        "50d": (200, 50, 25, 5, None),       # 128 + 72 rows
        "200d": (400, 200, 100, 5, None),    # 13 blocks of up to 32 rows
    }

    @pytest.mark.parametrize("use_tanh", [True, False])
    @pytest.mark.parametrize("shape", sorted(BLOCKED_SHAPES))
    def test_blocks_match_oracles(self, monkeypatch, shape, use_tanh, rng):
        """Across filter blocks the forward and backward match the
        per-window oracle to 1e-12. A training step's filter update across
        blocks is TestFusedFilterUpdate's."""
        hidden, dim, dim_c, k, rows = self.BLOCKED_SHAPES[shape]
        instances = synth.make_gradcheck_instances(6, seed=hidden)
        model = tiny_model(instances, hidden=hidden, dim=dim, dim_c=dim_c, window=k,
                           conv_tanh=use_tanh)
        width = window_width(k, dim, dim_c)
        if rows is not None:
            limit_block_rows(monkeypatch, rows, width)
        assert len(row_blocks(hidden, PRODUCT_ROWS * width)) > 1
        self.assert_matches_per_window_oracle(model, random_paths(model, instances), rng)


class TestProductFilterUpdate:
    """conv_backward forms the filter's gradient as one product of the
    routed unit gradients and the windows. On the published filter shapes,
    on chain_paths' 1 to 24 windows, tied and untied, it matches the
    per-window oracle as TestOracleEquivalence checks it, with a learning
    rate and without one; without one the filter's gradient is bit for bit
    the gathered copy of each unit's winning window scaled by the unit's
    gradient, since every entry of the product sums a single nonzero term.
    The tiny filters of TestOracleEquivalence do not always round equal
    windows alike, so only these get tied windows."""

    # (hidden, dim, dim_c) at k=5: 400 x 1300 in 13 blocks, the last of 16
    # rows, and 200 x 325 in blocks of 128 and 72 rows
    SHAPES = {"200d": (400, 200, 100), "50d": (200, 50, 25)}

    @pytest.mark.parametrize("learning_rate", [None, 0.3])
    @pytest.mark.parametrize("use_tanh", [True, False])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_matches_gathered_copy(self, shape, use_tanh, learning_rate, rng):
        hidden, dim, dim_c = self.SHAPES[shape]
        model, _ = harness(2, hidden=hidden, dim=dim, dim_c=dim_c, window=5,
                           conv_tanh=use_tanh)
        blocks = row_blocks(hidden, PRODUCT_ROWS * window_width(5, dim, dim_c))
        rows = [len(range(hidden)[block]) for block in blocks]
        assert rows == ([32] * 12 + [16] if shape == "200d" else [128, 72])
        tied = TestOracleEquivalence.assert_matches_per_window_oracle(
            model, chain_paths(model, rng), rng, learning_rate)
        assert tied >= 20


class TestFusedFilterUpdate:
    """train_step hands conv_w's step to the store inside conv_backward, to
    hold pending; every tensor must be what the gradient formed with the
    same blocks and a dense update give, within
    1e-12, since the deferred step scales its factors before their product.
    The budget is cut to 4 rows a block, so hidden 7, 33 and 200 end on a
    part block and 32 on a whole one."""

    @pytest.mark.parametrize("use_subtrees", [True, False])
    @pytest.mark.parametrize("conv_tanh", [True, False])
    @pytest.mark.parametrize("hidden", [7, 32, 33, 200])
    def test_train_step_matches_buffered_update(self, monkeypatch, hidden, conv_tanh,
                                                use_subtrees):
        instances = synth.make_gradcheck_instances(4, seed=hidden)
        settings = dict(hidden=hidden, conv_tanh=conv_tanh,
                        use_subtrees=use_subtrees, learning_rate=0.3)
        fused = tiny_model(instances, **settings)
        buffered = tiny_model(instances, **settings)
        learning_rate = fused.config.learning_rate
        limit_block_rows(monkeypatch, 4, fused.store.value(CONV_W).shape[1])
        for inst in instances:
            gradient = model_gradient(buffered, inst)
            expected = dense_sgd_oracle(buffered.store, gradient, learning_rate)
            fused.train_step(fused.compile(inst))
            assert fused.store.factors(CONV_W)[1] is not None
            for name, value in expected.items():
                assert max_gap(fused.store.value(name), value) <= 1e-12, name
                buffered.store.value(name)[...] = value
