"""The store's contract for the conv filter's deferred SGD step. A
training step hands the filter's step to the store as two factors, held
pending and applied in one product when the buffers are full. That
training so matches steps taken at once, within 1e-12 across several
applies, test_reference checks against the reference DepNN's whole runs."""

import numpy as np
import pytest

from depnn import classifier, synth
from depnn.numerics import DEFERRED_ROWS, Gradient, NonFiniteValue, ParameterStore
from depnn.path_cnn import CONV_W

from conftest import assert_bit_identical, count_applies, gathered_conv_backward, tiny_model


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
        instances = synth.make_gradcheck_instances(6, seed=7)
        model = tiny_model(instances)
        gradients = {}
        for backward in ("deferred", "gathered"):
            if backward == "gathered":      # its filter gradient adds into a dense buffer
                monkeypatch.setattr(classifier, "conv_backward", gathered_conv_backward)
            gradient = gradients[backward] = Gradient(model.store)
            for inst in instances:
                model.accumulate_gradients(model.compile(inst), gradient)
            assert model.store.factors(CONV_W)[1] is None
        # each entry of one instance's filter gradient sums one nonzero term
        assert_bit_identical(gradients["deferred"][CONV_W], gradients["gathered"][CONV_W])
