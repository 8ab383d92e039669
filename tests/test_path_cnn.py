import numpy as np
import pytest

from depnn import synth
from depnn.adp import attach_subtrees, directed_label, shortest_path
from depnn.path_cnn import (CONV_W, InvalidWindowSize, build_windows,
                            conv_backward, conv_forward, max_over_time,
                            window_width, word_slots, words_per_window)
from depnn.numerics import ShapeMismatch
from depnn.subtree import PAD_WORD, REL_EMB, encode_word

from conftest import (enumerate_windows, graph_of, oracle_conv_backward,
                      oracle_conv_forward, tiny_model)
from depnn.corpus import Instance, entity_mention


def harness(n_words=3, **model_overrides):
    """A tiny model plus a chain instance with n_words on the path."""
    arcs = [(0, 1, "root")] + [(i, i + 1, f"r{i}") for i in range(1, n_words)]
    graph = graph_of(n_words, arcs)
    instance = Instance(1, graph, entity_mention(graph, 1, 1),
                        entity_mention(graph, n_words, n_words), "Other")
    model = tiny_model([instance], **model_overrides)
    return model, instance


def run_conv(model, n_words, k, word_vecs=None, rel_labels=None, use_tanh=True):
    width = model.config.dim + model.config.dim_c
    if word_vecs is None:
        word_vecs = [np.full(width, 0.1 * (i + 1)) for i in range(n_words)]
    if rel_labels is None:
        rel_labels = [f"r{i}" for i in range(1, n_words)]
    windows = build_windows(n_words, k)
    return conv_forward(windows, word_vecs, rel_labels, model.store,
                        model.vocab, use_tanh=use_tanh)


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
        cache = run_conv(model, 1, 3, rel_labels=[])
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
        direct = conv_forward(windows, vecs, labels, model.store, model.vocab)
        permuted = conv_forward(windows[[2, 0, 1]], vecs,
                                labels, model.store, model.vocab)
        assert np.allclose(direct.pooled, permuted.pooled, atol=0)

    def test_shape_mismatch_on_wrong_filter(self):
        model, _ = harness(2)
        with pytest.raises(ShapeMismatch):
            run_conv(model, 2, 5)   # filter was sized for k=3


class TestConvBackward:
    def test_zero_upstream_zero_gradients(self):
        model, _ = harness(3)
        cache = run_conv(model, 3, 3)
        model.store.zero_grads()
        d_words = conv_backward(cache, np.zeros(model.config.hidden),
                                model.store, model.vocab)
        for name in model.store.names():
            assert not model.store.grad(name).any()
        assert all(not d.any() for d in d_words)

    def test_non_argmax_window_gets_exactly_zero(self):
        model, _ = harness(2)
        cache = run_conv(model, 2, 3)
        model.store.zero_grads()
        coord = 0
        upstream = np.zeros(model.config.hidden)
        upstream[coord] = 1.0
        winner = int(cache.argmax[coord])
        d_words = conv_backward(cache, upstream, model.store, model.vocab)
        # with k=3 each path word appears in exactly one window
        assert d_words[winner].any()
        assert not d_words[1 - winner].any()

    def test_word_gradients_accumulate_across_windows(self):
        # with k=5 the middle word of a 3-word path sits in all 3 windows
        model, _ = harness(3, window=5)
        cache = run_conv(model, 3, 5)
        model.store.zero_grads()
        upstream = np.linspace(0.5, 1.5, model.config.hidden)
        d_words = conv_backward(cache, upstream, model.store, model.vocab)
        assert len(d_words) == 3
        assert all(d.shape == (model.config.dim + model.config.dim_c,)
                   for d in d_words)


class TestOracleEquivalence:
    """The vectorized conv against the per-window, per-slot oracle in
    conftest, on random subtree-encoded paths."""

    @pytest.mark.parametrize("use_tanh", [True, False])
    @pytest.mark.parametrize("k", [3, 5, 7, 9])
    def test_matches_per_window_oracle(self, k, use_tanh, rng):
        instances = synth.make_gradcheck_instances(12, seed=100 + k)
        model = tiny_model(instances, window=k, conv_tanh=use_tanh)
        store = model.store
        for inst in instances:
            adp = attach_subtrees(inst.graph, shortest_path(
                inst.graph, inst.e1.head_index, inst.e2.head_index))
            vecs = [encode_word(inst.graph, adp, w, store, model.vocab).p
                    for w in adp.path_tokens]
            labels = [directed_label(s.relation, s.direction) for s in adp.steps[1:]]
            n = len(vecs)
            new = conv_forward(build_windows(n, k), vecs, labels, store,
                               model.vocab, use_tanh=use_tanh)
            old = oracle_conv_forward(n, k, vecs, labels, store, model.vocab,
                                      use_tanh=use_tanh)
            assert np.array_equal(new.argmax, old.argmax)
            assert np.abs(new.pooled - old.pooled).max() <= 1e-12

            upstream = rng.normal(size=model.config.hidden)
            store.zero_grads()
            d_new = conv_backward(new, upstream, store, model.vocab)
            grads_new = {name: store.grad(name).copy() for name in store.names()}
            store.zero_grads()
            d_old = oracle_conv_backward(old, upstream, store)
            for name in store.names():
                assert np.abs(grads_new[name] - store.grad(name)).max() <= 1e-12, name
            assert len(d_new) == len(d_old) == n
            for a, b in zip(d_new, d_old):
                assert np.abs(a - b).max() <= 1e-12
            store.zero_grads()
