import numpy as np
import pytest

from depnn import numerics, synth
from depnn.adp import shortest_path
from depnn.path_cnn import (CONV_W, InvalidWindowSize, build_windows, conv_backward,
                            conv_forward, max_over_time, relation_rows, window_width,
                            word_slots, words_per_window)
from depnn.numerics import (PRODUCT_ROWS, Gradient, ShapeMismatch, row_blocks, row_plan,
                            tanh_backward)
from depnn.subtree import PAD_WORD, REL_EMB, comp_names, encode

from conftest import (assert_bit_identical, dense_sgd_oracle, enumerate_windows, graph_of,
                      oracle_conv_backward, oracle_conv_forward, slot_plans, tiny_model)
from depnn.corpus import Instance, entity_mention


def harness(n_words=3, **model_overrides):
    """A tiny model plus a chain instance with n_words on the path."""
    arcs = [(0, 1, "root")] + [(i, i + 1, f"r{i}") for i in range(1, n_words)]
    graph = graph_of(n_words, arcs)
    instance = Instance(1, graph, entity_mention(graph, 1, 1),
                        entity_mention(graph, n_words, n_words), "Other")
    model = tiny_model([instance], **model_overrides)
    return model, instance


def chain_relations(model, n_words):
    """relation_rows of harness' chain path of n_words: r1 .. r{n_words-1}."""
    return relation_rows([f"r{i}" for i in range(1, n_words)], model.vocab)


def run_conv(model, n_words, k, word_vecs=None, use_tanh=True):
    width = model.config.dim + model.config.dim_c
    if word_vecs is None:
        word_vecs = [np.full(width, 0.1 * (i + 1)) for i in range(n_words)]
    return conv_forward(build_windows(n_words, k), chain_relations(model, n_words), word_vecs,
                        model.store, use_tanh=use_tanh)


class TestWindows:
    # word slots index [pad, p_0 .. p_{n-1}], relation slots
    # [start, r_0 .. r_{n-2}, end]
    def test_three_word_path_k3(self):
        # (start p_0 r_0) (r_0 p_1 r_1) (r_1 p_2 end)
        assert build_windows(3, 3).tolist() == [[0, 1, 1], [1, 2, 2], [2, 3, 3]]

    def test_one_word_path_k3(self):
        # (start p_0 end)
        assert build_windows(1, 3).tolist() == [[0, 1, 1]]

    def test_two_word_path_k5_hand_enumerated(self):
        # (pad start p_0 r_0 p_1) (p_0 r_0 p_1 end pad)
        assert build_windows(2, 5).tolist() == [[0, 0, 1, 1, 2], [1, 1, 2, 2, 0]]
        assert word_slots(5).tolist() == [True, False, True, False, True]

    def test_invalid_window_sizes(self):
        for k in (1, 2, 4, 0, -3):
            with pytest.raises(InvalidWindowSize):
                build_windows(3, k)

    def test_window_count_equals_word_count(self):
        for k in (3, 5, 7):
            for n in range(1, 6):
                assert len(build_windows(n, k)) == n

    def test_words_per_window(self):
        assert words_per_window(3) == 1
        assert words_per_window(5) == 3
        assert words_per_window(7) == 3
        assert words_per_window(9) == 5

    def test_every_window_has_declared_slot_counts(self):
        # slot by slot against the (kind, ref) windows of the conftest oracle
        def oracle_index(ref, n):
            if ref is None or ref == "start":
                return 0
            return n if ref == "end" else ref + 1

        for k in (3, 5, 7, 9):
            for n in range(1, 5):
                windows = build_windows(n, k)
                assert windows.shape == (n, k)
                for window, slots in zip(windows.tolist(), enumerate_windows(n, k)):
                    kinds = [kind == "word" for kind, _ in slots]
                    assert kinds == word_slots(k).tolist()
                    assert sum(kinds) == words_per_window(k)
                    assert window == [oracle_index(ref, n) for _, ref in slots]

    def test_window_width_matches_filter_and_slots(self):
        dim, dim_c = 7, 3
        for k in (3, 5, 7):
            assert window_width(k, dim, dim_c) == dim * k + dim_c * words_per_window(k)


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
        cache = run_conv(model, 3, 3)
        assert not cache.pooled.any()

    def test_single_window_degenerate_pooling(self):
        model, _ = harness(2)
        cache = run_conv(model, 1, 3)
        assert np.array_equal(cache.pooled, cache.feature_map[0])
        assert not cache.argmax.any()

    def test_pooled_equals_elementwise_max(self):
        model, _ = harness(4)
        cache = run_conv(model, 4, 3)
        assert np.array_equal(cache.pooled, cache.feature_map.max(axis=0))

    def test_dominant_window_wins_exactly(self):
        model, _ = harness(2)
        width = model.config.dim + model.config.dim_c
        model.store.value(CONV_W)[...] = np.abs(model.store.value(CONV_W))
        model.store.value(REL_EMB).fill(0.0)
        model.store.value(PAD_WORD).fill(0.0)
        strong = [np.full(width, 0.5), np.full(width, 0.5)]
        cache = run_conv(model, 2, 3,
                         word_vecs=[strong[0], np.full(width, -0.5)])
        assert np.array_equal(cache.pooled, cache.feature_map[0])
        assert not cache.argmax.any()

    def test_permuting_windows_leaves_pooled_unchanged(self):
        model, _ = harness(3)
        windows = build_windows(3, 3)
        width = model.config.dim + model.config.dim_c
        vecs = [np.full(width, 0.1 * (i + 1)) for i in range(3)]
        labels = ["r1", "r2"]
        rel_rows = relation_rows(labels, model.vocab)
        direct = conv_forward(windows, rel_rows, vecs, model.store)
        permuted = conv_forward(windows[[2, 0, 1]], rel_rows, vecs, model.store)
        assert np.allclose(direct.pooled, permuted.pooled, atol=0)

    def test_shape_mismatch_on_wrong_filter(self):
        model, _ = harness(2)
        with pytest.raises(ShapeMismatch):
            run_conv(model, 2, 5)   # filter was sized for k=3


class TestWordSlotPlan:
    @pytest.mark.parametrize("k", [3, 5, 7, 9])
    def test_matches_add_at(self, rng, k):
        """The RowPlan of the windows' word slots sums their deltas onto
        [pad, p_0 ..] as np.add.at does into a zeroed array, bit for bit."""
        is_word = word_slots(k)
        for n_words in range(1, 9):
            windows = build_windows(n_words, k)
            deltas = rng.normal(size=(n_words, int(is_word.sum()), 6))
            deltas[rng.random(deltas.shape) < 0.2] = -0.0
            expected = np.zeros((n_words + 1, 6))
            np.add.at(expected, windows[:, is_word], deltas)
            rows, sums = row_plan(windows[:, is_word]).sums(deltas)
            summed = np.zeros((n_words + 1, 6))
            summed[rows] = sums
            assert_bit_identical(summed, expected)


class TestConvBackward:
    def test_zero_upstream_zero_gradients(self):
        model, _ = harness(3)
        cache = run_conv(model, 3, 3)
        gradient = Gradient(model.store)
        d_words = conv_backward(cache, np.zeros(model.config.hidden),
                                model.store, gradient,
                                *slot_plans(cache, chain_relations(model, 3)))
        for name in model.store.names():
            assert not gradient[name].any()
        assert all(not d.any() for d in d_words)

    def test_non_argmax_window_gets_exactly_zero(self):
        model, _ = harness(2)
        cache = run_conv(model, 2, 3)
        coord = 0
        upstream = np.zeros(model.config.hidden)
        upstream[coord] = 1.0
        winner = int(cache.argmax[coord])
        d_words = conv_backward(cache, upstream, model.store, Gradient(model.store),
                                *slot_plans(cache, chain_relations(model, 2)))
        # with k=3 each path word appears in exactly one window
        assert d_words[winner].any()
        assert not d_words[1 - winner].any()

    def test_word_gradients_accumulate_across_windows(self):
        # with k=5 the middle word of a 3-word path sits in all 3 windows
        model, _ = harness(3, window=5)
        cache = run_conv(model, 3, 5)
        upstream = np.linspace(0.5, 1.5, model.config.hidden)
        d_words = conv_backward(cache, upstream, model.store, Gradient(model.store),
                                *slot_plans(cache, chain_relations(model, 3)))
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
    Without a rate the path-word gradients and every tensor's gradient are
    compared; with one the path-word gradients, every tensor the step
    leaves against the dense update of the oracle's gradient, and the
    step's Gradient, which must hold nothing."""

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
            n, rel_rows = len(vecs), relation_rows(labels, vocab)
            new = conv_forward(build_windows(n, k), rel_rows, vecs, store, use_tanh=use_tanh)
            old = oracle_conv_forward(n, k, vecs, labels, store, vocab, use_tanh=use_tanh)
            assert np.array_equal(new.argmax, old.argmax)
            assert max_gap(new.pooled, old.pooled) <= 1e-12
            tied += len(np.unique(new.feature_map, axis=0)) < n

            upstream = rng.normal(size=model.config.hidden)
            plans = slot_plans(new, rel_rows)
            grads_new, grads_old = Gradient(store), Gradient(store)
            d_new = conv_backward(new, upstream, store, grads_new, *plans)
            d_old = oracle_conv_backward(old, upstream, store, grads_old)
            for name in store.names():
                assert max_gap(grads_new[name], grads_old[name]) <= 1e-12, name
            # the filter's, bit for bit: each unit's gradient times its
            # winning window, added into a zeroed buffer (0.0 + makes -0.0 +0.0)
            d_pre = tanh_backward(new.pooled, upstream) if use_tanh else upstream
            assert_bit_identical(grads_new[CONV_W], 0.0 + d_pre[:, None] * new.inputs[new.argmax])
            assert len(d_new) == len(d_old) == n
            for a, b in zip(d_new, d_old):
                assert max_gap(a, b) <= 1e-12
            if learning_rate is None:
                continue

            before = {name: store.value(name).copy() for name in store.names()}
            expected = dense_sgd_oracle(store, grads_old, learning_rate)
            stepped = Gradient(store, learning_rate)
            d_new = conv_backward(new, upstream, store, stepped, *plans)
            assert not stepped      # every tensor, relation rows too, stepped in place
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
    """train_step hands conv_w's step to the store inside conv_backward, and
    the step's Gradient never holds conv_w; every tensor must be what the
    gradient formed with the same blocks and a dense update give, within
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
            gradient = Gradient(buffered.store)
            buffered.accumulate_gradients(buffered.compile(inst), gradient)
            expected = dense_sgd_oracle(buffered.store, gradient, learning_rate)
            fused.train_step(fused.compile(inst))
            assert fused.store.factors(CONV_W)[1] is not None
            for name, value in expected.items():
                assert max_gap(fused.store.value(name), value) <= 1e-12, name
                buffered.store.value(name)[...] = value
