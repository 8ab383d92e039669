"""The store's contract for the conv filter's deferred SGD step. A
training step hands the filter's step to the store as two factors, held
pending and applied in one product when the buffers are full. That
training so matches steps taken at once, within 1e-12 across several
applies, test_reference checks against the reference DepNN's whole runs."""

import numpy as np
import pytest

from depnn import classifier, synth
from depnn.numerics import DEFERRED_ROWS, Gradient, NonFiniteValue, ParameterStore, tanh_backward
from depnn.path_cnn import CONV_W, conv_backward

from conftest import assert_bit_identical, count_applies, tiny_model


def max_gap(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)).max()


class TestPendingSteps:
    @staticmethod
    def store_with(rng, shape=(7, 5)):
        store = ParameterStore()
        store.register("w", shape)[...] = rng.normal(size=shape)
        return store

    def test_value_applies_once_and_is_idempotent(self, monkeypatch, rng):
        store = self.store_with(rng)
        expected = store.value("w").copy()
        for rank in (1, 2, 3):
            left, right = rng.normal(size=(7, rank)), rng.normal(size=(rank, 5))
            expected -= left @ right
            store.defer("w", left, right)
        applies = count_applies(monkeypatch)
        assert store.factors("w")[1].shape == (7, 6)

        applied = store.value("w").copy()
        assert applies == [6]
        assert max_gap(applied, expected) <= 1e-12
        assert_bit_identical(store.value("w"), applied)
        assert applies == [6]
        assert store.factors("w")[1] is None

    def test_full_buffers_apply_before_the_next_step(self, monkeypatch, rng):
        store = self.store_with(rng)
        expected = store.value("w").copy()
        applies = count_applies(monkeypatch)
        for rank in (DEFERRED_ROWS - 1, 1, 2, DEFERRED_ROWS + 1, 3):
            left, right = rng.normal(size=(7, rank)), rng.normal(size=(rank, 5))
            expected -= left @ right
            store.defer("w", left, right)
        # a full buffer is applied when the next step would not fit, and a
        # step larger than the buffers at once
        assert applies == [DEFERRED_ROWS, 2, DEFERRED_ROWS + 1]
        assert max_gap(store.value("w"), expected) <= 1e-12

    def test_validate_finite_checks_the_applied_tensor(self, rng):
        store = self.store_with(rng)
        store.defer("w", np.full((7, 1), np.nan), np.ones((1, 5)))
        with pytest.raises(NonFiniteValue, match="w"):
            store.validate_finite()

    def test_train_returns_with_nothing_pending(self):
        instances = synth.make_gradcheck_instances(6, seed=3)
        model = tiny_model(instances)
        model.train_step(model.compile(instances[0]))
        assert model.store.factors(CONV_W)[1] is not None
        model.train(instances, epochs=1)
        assert model.store.factors(CONV_W)[1] is None

    def test_zero_rate_leaves_filter_bit_identical(self, monkeypatch):
        instances = synth.make_gradcheck_instances(40, seed=5)
        model = tiny_model(instances, learning_rate=0.0)
        before = model.store.value(CONV_W).copy()
        applies = count_applies(monkeypatch)
        for inst in instances:
            model.train_step(model.compile(inst))
        assert len(applies) >= 2
        assert_bit_identical(model.store.value(CONV_W), before)

    def test_gradient_without_rate_holds_dense_filter_gradient(self, monkeypatch):
        """Without a rate, in a zeroed store stepped at rate -1, the filter's
        gradient is its definition, bit for bit: per instance, each unit's
        gradient times its winning window, d_pre[:, None] *
        cache.inputs[cache.argmax]. Each entry of one instance's product sums
        a single nonzero term. One store summing the instances applies their
        pending factors as one product, which is within 1e-12 of the sum of
        the definitions."""
        instances = synth.make_gradcheck_instances(6, seed=7)
        calls = []

        def recorded(cache, upstream, *args):
            calls.append((cache, upstream.copy()))
            return conv_backward(cache, upstream, *args)

        monkeypatch.setattr(classifier, "conv_backward", recorded)
        for conv_tanh in (True, False):
            model = tiny_model(instances, conv_tanh=conv_tanh)
            summed = model.store.zeros_like()
            total = np.zeros(summed.value(CONV_W).shape)
            calls.clear()
            for inst in instances:
                alone = model.store.zeros_like()
                model.accumulate_gradients(model.compile(inst), Gradient(alone, -1.0))
                model.accumulate_gradients(model.compile(inst), Gradient(summed, -1.0))
                cache, upstream = calls[-1]
                d_pre = tanh_backward(cache.pooled, upstream) if cache.use_tanh else upstream
                expected = np.zeros(total.shape)
                expected += d_pre[:, None] * cache.inputs[cache.argmax]
                assert_bit_identical(alone.value(CONV_W), expected)
                total += expected
            assert model.store.factors(CONV_W)[1] is None
            assert len(calls) == 2 * len(instances)
            assert np.abs(summed.value(CONV_W) - total).max() <= 1e-12
