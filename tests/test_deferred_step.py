"""The conv filter's deferred SGD step. A training step hands the filter's
step to the store as two factors, held pending and applied in one product
when the buffers are full; training so must match the step taken at once,
block by block (conftest.sequential_conv_backward), within 1e-12 across
several applies. Then the store's contract for pending steps."""

import numpy as np
import pytest

from depnn import classifier, numerics, synth
from depnn.numerics import DEFERRED_ROWS, Gradient, NonFiniteValue, ParameterStore
from depnn.path_cnn import CONV_W

from conftest import assert_bit_identical, sequential_conv_backward, tiny_model


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


def max_gap(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)).max()


class TestSequentialOracle:
    # (hidden, dim, dim_c) at k=5: the published 200-d and 50-d filters
    SHAPES = {"200d": (400, 200, 100), "50d": (200, 50, 25)}

    @pytest.mark.parametrize("conv_tanh", [True, False])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_training_matches_sequential_steps(self, monkeypatch, shape, conv_tanh):
        hidden, dim, dim_c = self.SHAPES[shape]
        instances = synth.make_gradcheck_instances(40, seed=hidden)
        settings = dict(hidden=hidden, dim=dim, dim_c=dim_c, window=5,
                        conv_tanh=conv_tanh)
        deferred, sequential = tiny_model(instances, **settings), tiny_model(instances, **settings)
        steps = instances * 2

        applies = count_applies(monkeypatch)
        deferred_losses = [deferred.train_step(deferred.compile(inst)) for inst in steps]
        assert len(applies) >= 2 and max(applies) <= DEFERRED_ROWS
        assert deferred.store.factors(CONV_W)[1] is not None

        monkeypatch.setattr(classifier, "conv_backward", sequential_conv_backward)
        sequential_losses = [sequential.train_step(sequential.compile(inst)) for inst in steps]
        assert len(applies) >= 2 and sequential.store.factors(CONV_W)[1] is None

        assert max_gap(deferred_losses, sequential_losses) <= 1e-12
        for name in sequential.store.names():
            assert max_gap(deferred.store.value(name), sequential.store.value(name)) <= 1e-12, name


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
        for backward in ("deferred", "sequential"):
            if backward == "sequential":
                monkeypatch.setattr(classifier, "conv_backward", sequential_conv_backward)
            gradient = gradients[backward] = Gradient(model.store)
            for inst in instances:
                model.accumulate_gradients(model.compile(inst), gradient)
            assert model.store.factors(CONV_W)[1] is None
        # each entry of one instance's filter gradient sums one nonzero term
        assert_bit_identical(gradients["deferred"][CONV_W], gradients["sequential"][CONV_W])
