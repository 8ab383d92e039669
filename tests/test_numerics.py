import math

import numpy as np
import pytest

from depnn import synth

from depnn.numerics import (BIAS, EMBEDDING, WEIGHT, ModelFormatError,
                            NonFiniteLoss, ParameterStore, ShapeMismatch, assert_finite,
                            NonFiniteValue, gradient_check, init_uniform,
                            load_store, save_store, softmax, tanh_backward)

from conftest import (dense_sgd_oracle, edit_manifest, tiny_model,
                      truncate_model_file)


class TestKernels:
    def test_tanh_backward_at_origin_passes_upstream(self):
        upstream = np.array([0.3, -1.2, 7.0])
        assert np.array_equal(tanh_backward(np.zeros(3), upstream), upstream)

    def test_tanh_backward_matches_finite_differences(self, rng):
        x = rng.normal(size=10)
        upstream = rng.normal(size=10)
        y = np.tanh(x)
        analytic = tanh_backward(y, upstream)
        eps = 1e-6
        numeric = upstream * (np.tanh(x + eps) - np.tanh(x - eps)) / (2 * eps)
        assert np.all(np.abs(analytic - numeric)
                      <= 1e-8 * np.maximum(np.abs(numeric), 1.0))

    def test_softmax_uniform_on_zero_logits(self):
        out = softmax(np.zeros(19))
        assert np.allclose(out, np.full(19, 1 / 19), atol=0, rtol=1e-15)

    def test_softmax_shift_invariance(self, rng):
        v = rng.normal(size=8)
        assert np.allclose(softmax(v), softmax(v + 123.456), atol=1e-15)

    def test_softmax_direct_evaluation(self):
        v = np.array([1.0, 2.0, 3.0])
        direct = np.exp(v) / np.exp(v).sum()
        assert np.allclose(softmax(v), direct, rtol=1e-15)

    def test_softmax_sums_to_one(self, rng):
        for _ in range(20):
            out = softmax(rng.normal(size=13) * 10)
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.all(out > 0) and np.all(out < 1)

    def test_assert_finite(self):
        assert_finite(np.ones(3), "ok")
        with pytest.raises(NonFiniteValue):
            assert_finite(np.array([1.0, np.inf]), "bad")


class TestParameterStore:
    def test_register_and_shapes(self):
        store = ParameterStore()
        w = store.register("w", (2, 3))
        assert w.shape == (2, 3)
        assert store.grad("w").shape == (2, 3)
        with pytest.raises(ValueError):
            store.register("w", (2, 3))

    def test_set_value_shape_checked(self):
        store = ParameterStore()
        store.register("w", (2, 2))
        with pytest.raises(ShapeMismatch):
            store.set_value("w", np.zeros(3))

    def test_sgd_step_and_zero(self):
        store = ParameterStore()
        store.register("w", (2,))
        store.set_value("w", [1.0, 2.0])
        store.grad("w")[...] = [0.5, -0.5]
        store.sgd_step(0.1)
        assert np.allclose(store.value("w"), [0.95, 2.05])
        store.zero_grads()
        assert not store.grad("w").any()


def assert_bit_identical(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestRowRecordedUpdate:
    def build(self, rng):
        store = ParameterStore()
        store.register("table", (30, 4), EMBEDDING)
        store.register("lex", (6, 3), EMBEDDING)
        store.register("pad_word", (5,), EMBEDDING)
        store.register("w", (3, 4), WEIGHT)
        store.register("b", (3,), BIAS)
        init_uniform(store, seed=3)
        store.set_value("b", rng.normal(size=3))
        return store

    def write(self, store, rng):
        """Duplicate rows through both add_rows forms, dense writes through
        grad(), and one tensor left without gradient."""
        store.add_rows("table", np.array([[4, 9], [4, 4]]), rng.normal(size=(2, 2, 4)))
        store.add_rows("table", 9, rng.normal(size=4))
        store.add_rows("table", np.array([27, 0, 27]), rng.normal(size=(3, 4)))
        store.add_rows("lex", 2, rng.normal(size=3))
        store.add_rows("lex", 2, rng.normal(size=3))
        store.grad("pad_word")[...] += rng.normal(size=5)
        store.grad("w")[...] += rng.normal(size=(3, 4))

    def test_matches_dense_oracle_bit_for_bit(self, rng):
        store = self.build(rng)
        for lr in (0.05, 0.3, 1.0):
            self.write(store, rng)
            expected = dense_sgd_oracle(store, lr)
            store.sgd_step(lr)
            for name in store.names():
                assert_bit_identical(store.value(name), expected[name])
                assert not store.grad(name).any(), name

    def test_add_rows_accumulates_duplicates_in_order(self, rng):
        store = self.build(rng)
        deltas = rng.normal(size=(3, 4))
        store.add_rows("table", np.array([7, 7, 7]), deltas)
        expected = np.zeros(4)
        for delta in deltas:
            expected += delta
        assert_bit_identical(store.grad("table")[7], expected)
        assert not np.delete(store.grad("table"), 7, axis=0).any()

    def test_zero_grads_clears_the_row_record(self, rng):
        store = self.build(rng)
        store.add_rows("table", 5, np.ones(4))
        store.zero_grads()
        store.grad("table")[11] += 1.0      # a dense write is applied in full
        expected = dense_sgd_oracle(store, 0.5)
        store.sgd_step(0.5)
        assert_bit_identical(store.value("table"), expected["table"])
        assert not store.grad("table").any()

    def test_accumulated_model_gradients_match_dense_oracle(self):
        instances = synth.make_gradcheck_instances(6, seed=8)
        model = tiny_model(instances, use_ner=True, use_wordnet=True)
        for i, inst in enumerate(instances):
            model.accumulate_gradients(inst)
            if i % 2 == 0:
                continue                    # each update sums two instances
            expected = dense_sgd_oracle(model.store, model.config.learning_rate)
            model.store.sgd_step(model.config.learning_rate)
            for name in model.store.names():
                assert_bit_identical(model.store.value(name), expected[name])
                assert not model.store.grad(name).any(), name


class TestInitUniform:
    def build(self):
        store = ParameterStore()
        store.register("m", (400, 400), WEIGHT)
        store.register("b", (64,), BIAS)
        store.register("leaf", (16,), BIAS)
        store.register("emb", (400, 400), EMBEDDING)
        return store

    def test_deterministic_bit_identical(self):
        a, b = self.build(), self.build()
        init_uniform(a, seed=99)
        init_uniform(b, seed=99)
        for name in a.names():
            assert np.array_equal(a.value(name), b.value(name))

    def test_biases_zero(self):
        store = self.build()
        init_uniform(store, seed=5)
        assert not store.value("b").any()
        assert not store.value("leaf").any()

    def test_mean_within_three_standard_errors(self):
        store = self.build()
        init_uniform(store, seed=7)
        # uniform(-a, a) has sd a/sqrt(3); the sample mean of n draws has
        # standard error a/(sqrt(3) sqrt(n))
        for name, bound in (("m", math.sqrt(6 / 800)), ("emb", 0.01)):
            values = store.value(name)
            se = bound / math.sqrt(3) / math.sqrt(values.size)
            assert abs(values.mean()) < 3 * se
            assert np.all(np.abs(values) <= bound)

    def test_weight_must_be_matrix(self):
        store = ParameterStore()
        store.register("v", (4,), WEIGHT)
        with pytest.raises(ShapeMismatch):
            init_uniform(store, seed=1)


class TestGradientCheck:
    def linear_setup(self):
        # quadratic loss |W x - y|^2 over a single weight matrix
        store = ParameterStore()
        store.register("w", (3, 4))
        store.set_value("w", np.arange(12, dtype=float).reshape(3, 4) / 7.0)
        x = np.array([0.3, -1.0, 2.0, 0.5])
        y = np.array([1.0, 0.0, -1.0])

        def loss():
            r = store.value("w") @ x - y
            return float(r @ r)

        residual = store.value("w") @ x - y
        store.grad("w")[...] = 2.0 * np.outer(residual, x)
        return store, loss

    def test_linear_model_tight(self):
        store, loss = self.linear_setup()
        errors = gradient_check(loss, store)
        assert errors["w"] < 1e-9

    def test_corrupted_gradient_detected(self):
        store, loss = self.linear_setup()
        store.grad("w")[...] *= 2.0
        errors = gradient_check(loss, store)
        assert errors["w"] > 0.3

    def test_non_finite_loss_raises(self):
        store = ParameterStore()
        store.register("w", (1,))

        with pytest.raises(NonFiniteLoss):
            gradient_check(lambda: float("nan"), store)

    def test_sampling_subset(self):
        store, loss = self.linear_setup()
        errors = gradient_check(loss, store, sample=5)
        assert errors["w"] < 1e-9


class TestSerialization:
    def build_store(self):
        store = ParameterStore()
        store.register("alpha", (3, 2), WEIGHT)
        store.register("beta", (4,), BIAS)
        store.register("table", (5, 3), EMBEDDING)
        init_uniform(store, seed=21)
        store.set_value("beta", [0.1, -0.2, 0.3, -0.4])
        return store

    def test_round_trip_double_precision(self, tmp_path):
        store = self.build_store()
        path = tmp_path / "m.model"
        save_store(path, store, {"note": "hello", "n": 3})
        loaded, meta = load_store(path)
        assert meta == {"note": "hello", "n": 3}
        assert loaded.names() == store.names()
        for name in store.names():
            assert np.array_equal(loaded.value(name), store.value(name))
            assert loaded.kind(name) == store.kind(name)

    def test_magic_line_leads_file(self, tmp_path):
        path = tmp_path / "m.model"
        save_store(path, self.build_store(), {})
        assert path.read_bytes().startswith(b"DEPNN1\n")

    def test_single_precision_option(self, tmp_path):
        store = self.build_store()
        path = tmp_path / "m.model"
        save_store(path, store, {}, precision="f4")
        loaded, _ = load_store(path)
        for name in store.names():
            assert loaded.value(name).dtype == np.float64
            assert np.allclose(loaded.value(name), store.value(name), atol=1e-6)

    def test_identical_stores_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save_store(p1, self.build_store(), {"k": [1, 2]})
        save_store(p2, self.build_store(), {"k": [1, 2]})
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_names_path_and_tensor(self, tmp_path):
        path = tmp_path / "m.model"
        save_store(path, self.build_store(), {})
        truncate_model_file(path, 8)
        with pytest.raises(ModelFormatError, match=f"{path}: tensor 'table'.*truncated"):
            load_store(path)

    def saved(self, tmp_path, edit=None):
        path = tmp_path / "m.model"
        save_store(path, self.build_store(), {})
        if edit is not None:
            edit_manifest(path, edit)
        return path

    # manifest lines in file order: __meta__, alpha, beta, table
    def test_duplicated_manifest_line_names_path_and_tensor(self, tmp_path):
        path = self.saved(tmp_path, lambda lines: lines + [lines[2]])
        with pytest.raises(ModelFormatError, match=f"{path}: tensor 'beta' is listed twice"):
            load_store(path)

    @pytest.mark.parametrize("edit_beta, phrase", [
        (lambda f: f[:2] + ["f2"] + f[3:], "unknown dtype 'f2' for 'beta'"),
        (lambda f: f[:1] + ["four"] + f[2:], "bad shape or offset for 'beta'"),
        (lambda f: f[:3] + ["-8"], "negative shape or offset for 'beta'"),
        (lambda f: f + ["0"], "manifest line for 'beta' has 5 fields"),
    ])
    def test_malformed_manifest_line(self, tmp_path, edit_beta, phrase):
        def edit(lines):
            lines[2] = edit_beta(lines[2])
            return lines
        path = self.saved(tmp_path, edit)
        with pytest.raises(ModelFormatError, match=f"{path}: {phrase}"):
            load_store(path)

    def test_overlapping_tensors_rejected(self, tmp_path):
        def edit(lines):
            lines[3][3] = lines[2][3]       # table starts where beta does
            return lines
        path = self.saved(tmp_path, edit)
        with pytest.raises(ModelFormatError, match=f"{path}: tensor '(beta|table)' overlaps"):
            load_store(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOTAMODEL\nxx\n\n")
        with pytest.raises(ValueError):
            load_store(path)
