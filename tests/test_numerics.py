import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from depnn import numerics, synth

from depnn.classifier import NER_EMB, WN_EMB, Model, TrainConfig
from depnn.corpus import Vocabulary, read_parsed_instances, write_parsed_instances
from depnn.numerics import (BIAS, EMBEDDING, INIT_BLOCK, PRODUCT_ROWS, WEIGHT, Gradient,
                            ModelFormatError, NonFiniteLoss, ParameterStore, ShapeMismatch,
                            assert_finite, NonFiniteValue, RowPlan, gradient_check, init_uniform,
                            load_store, row_plan, save_store, softmax, tanh_backward)
from depnn.path_cnn import REL_EMB
from depnn.subtree import WORD_EMB

from conftest import (assert_bit_identical, count_applies, dense_sgd_oracle, edit_manifest,
                      model_gradient, tiny_model, truncate_model_file, zero_buffers)


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
        assert store.value("w") is w
        with pytest.raises(ValueError):
            store.register("w", (2, 3))

    @pytest.mark.parametrize("name", ["a\tb", "a\nb"])
    def test_name_with_a_manifest_separator_is_refused(self, name):
        with pytest.raises(ValueError) as info:
            ParameterStore().register(name, (2,))
        assert (info.type, str(info.value)) == (
            ValueError, f"parameter name {name!r} contains manifest separators")


class TestStoreProducts:
    """ParameterStore.matmul and matmul_t multiply by a tensor in row blocks
    and subtract its pending steps from each product, applying nothing."""

    @staticmethod
    def pending_store(rng, shape):
        """A store whose tensor "w", of filter-sized entries, holds three
        pending steps."""
        store = ParameterStore()
        store.register("w", shape)[...] = 0.05 * rng.normal(size=shape)
        for rank in (1, 2, 3):
            store.defer("w", 0.05 * rng.normal(size=(shape[0], rank)),
                        0.05 * rng.normal(size=(rank, shape[1])))
        return store

    # (shape, rows per block): the 200-d and 50-d filters in their own
    # blocks, and a small tensor cut into blocks of 2 rows and a part block
    @pytest.mark.parametrize("shape, rows", [((400, 1300), None), ((200, 325), None),
                                             ((7, 5), 2)])
    def test_products_match_value_and_apply_nothing(self, monkeypatch, rng, shape, rows):
        if rows is not None:
            monkeypatch.setattr(numerics, "SMALL_PRODUCT", rows * PRODUCT_ROWS * shape[1])
        store = self.pending_store(rng, shape)
        applies = count_applies(monkeypatch)
        products = []
        for windows in (1, 4, 24):
            x = rng.uniform(-1, 1, size=(windows, shape[1]))
            y = rng.uniform(-1, 1, size=(windows, shape[0]))
            products.append((x, store.matmul_t("w", x), y, store.matmul("w", y)))
        assert applies == []
        assert store.factors("w")[1].shape == (shape[0], 6)
        value = store.value("w")
        for x, product_t, y, product in products:
            assert np.abs(product_t - x @ value.T).max() <= 1e-12
            assert np.abs(product - y @ value).max() <= 1e-12

    def test_wrong_width_raises_shape_mismatch(self, rng):
        store = self.pending_store(rng, (7, 5))
        with pytest.raises(ShapeMismatch, match="'w' has rows of 5, not 6"):
            store.matmul_t("w", np.ones((3, 6)))


class TestRowRecordedUpdate:
    def build(self, rng):
        store = ParameterStore()
        store.register("table", (30, 4), EMBEDDING)
        store.register("lex", (6, 3), EMBEDDING)
        store.register("pad_word", (5,), EMBEDDING)
        store.register("w", (3, 4), WEIGHT)
        store.register("b", (3,), BIAS)
        init_uniform(store, seed=3)
        store.value("b")[...] = rng.normal(size=3)
        return store

    # the rows each table's step names, repeated in a 2-D and a 1-D index
    ROWS = {"table": np.array([[4, 9], [4, 4], [9, 27], [0, 27]]), "lex": np.array([2, 2])}

    @staticmethod
    def deltas(seed):
        """One delta per table entry, and dense ones; the same seed draws
        the same deltas."""
        rng = np.random.default_rng(seed)
        return {"table": rng.normal(size=(4, 2, 4)), "lex": rng.normal(size=(2, 3)),
                "pad_word": rng.normal(size=5), "w": rng.normal(size=(3, 4))}

    def write(self, gradient, deltas):
        """One step per tensor, through a RowPlan for the tables."""
        for name, delta in deltas.items():
            gradient.step(name, row_plan(self.ROWS[name]) if name in self.ROWS else ...,
                          delta.copy())

    def buffers(self, store, deltas):
        """The dense gradient the deltas sum to: np.add.at into zeros."""
        summed = zero_buffers(store)
        for name, delta in deltas.items():
            np.add.at(summed[name], self.ROWS.get(name, ...), delta)
        return summed

    def test_matches_dense_oracle_bit_for_bit(self, rng):
        store = self.build(rng)
        for seed, lr in enumerate((0.05, 0.3, 1.0)):
            deltas = self.deltas(seed)
            buffers = self.buffers(store, deltas)
            summed = store.zeros_like()
            self.write(Gradient(summed, -1.0), deltas)
            expected = dense_sgd_oracle(store, buffers, lr)
            self.write(Gradient(store, lr), deltas)
            for name in store.names():
                assert_bit_identical(summed.value(name), buffers[name])
                assert_bit_identical(store.value(name), expected[name])

    def test_step_adds_without_a_rate_and_steps_with_one(self, rng):
        store = self.build(rng)
        deltas = rng.normal(size=(2, 3, 4))
        summed = store.zeros_like()
        for delta in deltas:        # at rate -1 a zeroed store adds each delta
            Gradient(summed, -1.0).step("w", slice(1, 3), delta[1:].copy())
        assert_bit_identical(summed.value("w")[1:], deltas[0, 1:] + deltas[1, 1:])
        assert not summed.value("w")[0].any()
        for lr in (0.3, 0.0):       # a rate of zero steps too, by nothing
            expected = store.value("w") - lr * deltas[0]
            Gradient(store, lr).step("w", ..., deltas[0].copy())
            assert_bit_identical(store.value("w"), expected)

    def test_row_step_sums_duplicates_in_order(self, rng):
        gradient = self.build(rng).zeros_like()
        deltas = rng.normal(size=(4, 4))
        given = deltas.copy()
        Gradient(gradient, -1.0).step("table", row_plan(np.array([7, 7, 7, 7])), deltas)
        expected = np.zeros(4)
        for delta in deltas:
            expected += delta
        assert_bit_identical(gradient.value("table")[7], expected)
        assert not np.delete(gradient.value("table"), 7, axis=0).any()
        assert_bit_identical(deltas, given)     # the sums are not the caller's array

    def test_dense_and_row_writes_on_one_tensor_sum(self, rng):
        store = self.build(rng)
        deltas = rng.normal(size=(3, 4))
        expected = np.zeros((30, 4))
        expected[5] += deltas[0]
        expected[11] += 1.0
        expected[5] += deltas[1]
        expected[11] += deltas[2]
        updated = store.value("table") - 0.5 * expected
        for lr in (None, 0.5):      # None: the gradient, in a zeroed store at rate -1
            target = store.zeros_like() if lr is None else store
            gradient = Gradient(target, -1.0 if lr is None else lr)
            gradient.step("table", 5, deltas[0].copy())
            gradient.step("table", 11, np.ones(4))
            gradient.step("table", row_plan(np.array([5, 11])), deltas[1:])
            if lr is None:
                assert_bit_identical(target.value("table"), expected)
        # with the rate, the three steps reach the table one after the other
        assert np.allclose(store.value("table"), updated, rtol=0, atol=1e-15)

    def test_accumulated_model_gradients_match_dense_oracle(self):
        instances = synth.make_gradcheck_instances(6, seed=8)
        model = tiny_model(instances, use_ner=True, use_wordnet=True)
        learning_rate = model.config.learning_rate
        for first, second in zip(instances[::2], instances[1::2]):
            gradient = model_gradient(model, first, second)     # each update sums two
            assert all(gradient[name].any() for name in (WORD_EMB, REL_EMB, NER_EMB, WN_EMB))
            expected = dense_sgd_oracle(model.store, gradient, learning_rate)
            step = Gradient(model.store, learning_rate)
            for name, summed in gradient.items():   # the sums step as a training step's would
                step.step(name, ..., summed)
            for name in model.store.names():
                assert_bit_identical(model.store.value(name), expected[name])


class TestRowStep:
    """RowPlan.sums, and Gradient.step through a RowPlan, against their
    definition: a call's deltas summed by np.add.at into a zeroed table, bit
    for bit, on random row arrays with repeats, 1-D and 2-D indexes, and
    deltas that hold -0.0. Without a rate (None) the Gradient steps a zeroed
    store at rate -1, which adds each call's sum; with one the table becomes
    value - lr * that sum. np.add.at starts a row at 0.0 + its first delta
    and RowPlan.sums at the first delta + 0.0, so both make +0.0 of a row
    whose only delta is -0.0."""

    @staticmethod
    def table(rng):
        store = ParameterStore()
        store.register("table", (int(rng.integers(1, 40)), int(rng.integers(1, 6))), EMBEDDING)
        init_uniform(store, seed=int(rng.integers(1000)))
        return store

    @staticmethod
    def rows(rng, n_rows, ndim):
        shape = ((int(rng.integers(1, 25)),) if ndim == 1
                 else (int(rng.integers(1, 8)), int(rng.integers(1, 5))))
        # a few distinct rows at most, so most draws repeat some
        return rng.integers(0, min(n_rows, 1 + int(rng.integers(6))), size=shape)

    @staticmethod
    def deltas(rng, rows, width):
        deltas = rng.normal(size=rows.shape + (width,))
        deltas[rng.random(deltas.shape) < 0.3] = -0.0
        return deltas

    @staticmethod
    def add_at(shape, rows, deltas):
        summed = np.zeros(shape)
        np.add.at(summed, rows, deltas)
        return summed

    @pytest.mark.parametrize("learning_rate", [None, 0.05, 1.0])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_matches_add_rows_and_apply(self, rng, ndim, learning_rate):
        repeated = 0
        for _ in range(200):
            store = self.table(rng)
            shape = store.value("table").shape
            rows = self.rows(rng, shape[0], ndim)
            repeated += len(np.unique(rows)) < rows.size
            deltas = self.deltas(rng, rows, shape[1])
            given, before = deltas.copy(), store.value("table").copy()
            target = store.zeros_like() if learning_rate is None else store
            Gradient(target, -1.0 if learning_rate is None else learning_rate).step(
                "table", row_plan(rows), deltas)
            assert_bit_identical(deltas, given)
            summed = self.add_at(shape, rows, deltas)
            if learning_rate is None:
                assert_bit_identical(target.value("table"), summed)
            else:
                assert_bit_identical(store.value("table"), before - learning_rate * summed)
        assert repeated > 100

    def test_two_calls_without_a_rate_add_per_call_sums(self, rng):
        """Each call sums its own rows and steps a zeroed store by them at
        rate -1, so a row that both calls write holds (0 + S1) + S2."""
        for _ in range(50):
            for ndim in (1, 2):
                store = self.table(rng)
                shape = store.value("table").shape
                gradient, expected = store.zeros_like(), np.zeros(shape)
                for _ in range(2):
                    rows = self.rows(rng, shape[0], ndim)
                    deltas = self.deltas(rng, rows, shape[1])
                    Gradient(gradient, -1.0).step("table", row_plan(rows), deltas)
                    expected += self.add_at(shape, rows, deltas)
                assert_bit_identical(gradient.value("table"), expected)

    def test_plan_sums_match_row_sums(self, rng):
        """RowPlan.sums against np.add.at into zeros, bit for bit, over 1 to
        40 entries naming rows up to 6 times, in (n,) and (n, k) indexes:
        each named row once, its sum a new array."""
        repeats = 0
        for trial in range(400):
            n_rows, width = int(rng.integers(1, 12)), int(rng.integers(1, 5))
            named = rng.choice(n_rows, size=min(n_rows, int(rng.integers(1, 8))), replace=False)
            rows = rng.permutation(np.repeat(named, rng.integers(1, 7, size=named.size)))[:40]
            if trial % 2 and rows.size % 2 == 0:
                rows = rows.reshape(-1, 2)
            deltas = self.deltas(rng, rows, width)
            repeats += np.bincount(rows.ravel()).max() > 1
            given = deltas.copy()
            distinct, sums = row_plan(rows).sums(deltas)
            assert_bit_identical(deltas, given)     # the sums are a new array
            assert sorted(distinct.tolist()) == np.unique(rows).tolist()
            summed = np.zeros((n_rows, width))
            summed[distinct] = sums
            assert_bit_identical(summed, self.add_at((n_rows, width), rows, deltas))
        assert repeats > 100

    def test_plan_orders_rows_by_use_then_first_sight(self):
        plan = row_plan(np.array([[3, 8], [5, 3], [8, 3], [1, 9]]))
        assert isinstance(plan, RowPlan) and plan.dtype == np.int32
        # 3 is named three times, 8 twice; then 5, 1, 9 in the order first seen
        assert plan.tolist() == [5, 2, 2, 1, 3, 8, 5, 1, 9, 0, 1, 2, 6, 7, 3, 4, 5]

    def test_an_index_array_is_refused(self, rng):
        store = ParameterStore()
        store.register("table", (4, 2), EMBEDDING)
        with pytest.raises(TypeError, match="RowPlan"):
            Gradient(store, 1.0).step("table", np.array([1, 1]), np.ones((2, 2)))


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

    @pytest.mark.parametrize("shape, kind, bound", [
        ((INIT_BLOCK // 7 + 3, 7), EMBEDDING, 0.01),
        ((9, INIT_BLOCK // 4 + 5), WEIGHT, math.sqrt(6 / (9 + INIT_BLOCK // 4 + 5))),
        ((2 * INIT_BLOCK,), EMBEDDING, 0.01),
    ])
    def test_block_fill_equals_one_full_draw(self, shape, kind, bound):
        store = ParameterStore()
        store.register("t", shape, kind)
        init_uniform(store, seed=31)
        expected = np.random.default_rng(31).uniform(-bound, bound, shape)
        assert_bit_identical(store.value("t"), expected)


class TestGradientCheck:
    def linear_setup(self):
        # quadratic loss |W x - y|^2 over a single weight matrix
        store = ParameterStore()
        store.register("w", (3, 4))[...] = np.arange(12, dtype=float).reshape(3, 4) / 7.0
        x = np.array([0.3, -1.0, 2.0, 0.5])
        y = np.array([1.0, 0.0, -1.0])

        def loss():
            r = store.value("w") @ x - y
            return float(r @ r), ()     # smooth: no branches

        residual = store.value("w") @ x - y
        gradient = store.zeros_like()
        gradient.value("w")[...] = 2.0 * np.outer(residual, x)
        return store, gradient, loss

    def test_linear_model_tight(self):
        store, gradient, loss = self.linear_setup()
        errors, skipped = gradient_check(loss, store, gradient)
        assert errors["w"] < 1e-9
        assert skipped == 0

    def test_corrupted_gradient_detected(self):
        store, gradient, loss = self.linear_setup()
        gradient.value("w")[...] *= 2.0
        errors, _ = gradient_check(loss, store, gradient)
        assert errors["w"] > 0.3

    def test_floor_does_not_hide_an_error_on_a_small_entry(self):
        # an entry whose derivative is 1e-3, its analytic value off by a
        # relative 5e-4: divided by the entry, not by a floor above it
        store = ParameterStore()
        store.register("w", (1,))[...] = 0.5
        gradient = store.zeros_like()
        gradient.value("w")[...] = 1e-3 * (1.0 + 5e-4)

        def loss():
            return 1e-3 * float(store.value("w")[0]), ()

        errors, _ = gradient_check(loss, store, gradient)
        assert 4e-4 < errors["w"] < 6e-4

    def test_non_finite_loss_raises(self):
        store = ParameterStore()
        store.register("w", (1,))

        with pytest.raises(NonFiniteLoss):
            gradient_check(lambda: (float("nan"), ()), store, store.zeros_like())

    def test_entry_straddling_a_kink_is_skipped_and_counted(self):
        # loss max(w): the first two entries lie within epsilon of a tie, so
        # their two perturbed forwards pick different winners
        store = ParameterStore()
        store.register("w", (3,))[...] = [1.0, 1.0 + 5e-6, 0.0]
        gradient = store.zeros_like()
        gradient.value("w")[...] = [0.0, 1.0, 0.5]      # the last entry's is wrong

        def loss():
            return float(store.value("w").max()), store.value("w").argmax()

        errors, skipped = gradient_check(loss, store, gradient)
        assert skipped == 2
        assert errors["w"] == 1.0


def _edit_beta(path, edit):
    """Rewrite the fields of tensor beta's line in a saved file's manifest."""
    def edit_lines(lines):
        lines[2] = edit(lines[2])
        return lines
    edit_manifest(path, edit_lines)


class TestSerialization:
    def build_store(self):
        store = ParameterStore()
        store.register("alpha", (3, 2), WEIGHT)
        store.register("beta", (4,), BIAS)
        store.register("table", (5, 3), EMBEDDING)
        init_uniform(store, seed=21)
        store.value("beta")[...] = [0.1, -0.2, 0.3, -0.4]
        return store

    def test_precision_other_than_f8_or_f4_is_refused(self, tmp_path):
        path = tmp_path / "m.model"
        with pytest.raises(ValueError) as info:
            save_store(path, self.build_store(), {}, precision="f2")
        assert (info.type, str(info.value)) == (ValueError,
                                                "precision must be 'f8' or 'f4', not 'f2'")
        assert not path.exists()

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

    @pytest.mark.parametrize("big", [1e39, -1e39])
    def test_single_precision_refuses_a_finite_value_it_cannot_hold(self, tmp_path, big):
        path = tmp_path / "m.model"
        save_store(path, self.build_store(), {})
        before = path.read_bytes()
        store = self.build_store()
        store.value("table")[4, 1] = big
        with pytest.raises(NonFiniteValue, match="tensor 'table' holds a value beyond "
                                                 "float32's range"):
            save_store(path, store, {}, precision="f4")
        assert path.read_bytes() == before
        save_store(path, store, {})         # float64 holds it
        assert load_store(path)[0].value("table")[4, 1] == big

    def test_single_precision_holds_values_up_to_its_largest(self, tmp_path):
        store = self.build_store()
        store.value("table")[0, 0], store.value("alpha")[2, 1] = 3.4e38, -3.4e38
        path = tmp_path / "m.model"
        save_store(path, store, {}, precision="f4")
        loaded, _ = load_store(path)
        for name in store.names():
            assert_bit_identical(loaded.value(name),
                                 store.value(name).astype(np.float32).astype(np.float64))

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

    # each case damages the saved file at its path: beta's manifest line,
    # the __meta__ line, or the __meta__ JSON (its "kinds" and "user" keys
    # renamed in place, so its size is kept)
    @pytest.mark.parametrize("damage, phrase", [
        (lambda path: _edit_beta(path, lambda f: f[:2] + ["f2"] + f[3:]),
         "unknown dtype 'f2' for 'beta'"),
        (lambda path: _edit_beta(path, lambda f: f[:1] + ["four"] + f[2:]),
         "bad shape or offset for 'beta'"),
        (lambda path: _edit_beta(path, lambda f: f[:3] + ["-8"]),
         "negative shape or offset for 'beta'"),
        (lambda path: _edit_beta(path, lambda f: f + ["0"]),
         "manifest line for 'beta' has 5 fields"),
        (lambda path: edit_manifest(path, lambda lines: lines[1:]), "missing __meta__ entry"),
        (lambda path: path.write_bytes(path.read_bytes().replace(b'"kinds"', b'"kindz"')),
         "__meta__ lacks 'kinds' or 'user'"),
        (lambda path: path.write_bytes(path.read_bytes().replace(b'"user"', b'"usex"')),
         "__meta__ lacks 'kinds' or 'user'"),
    ])
    def test_malformed_manifest_line(self, tmp_path, damage, phrase):
        path = self.saved(tmp_path)
        damage(path)
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

    @pytest.mark.parametrize("precision", ["f8", "f4"])
    def test_zero_size_tensor_round_trips(self, tmp_path, precision):
        store = self.build_store()
        store.register("empty", (0, 3), EMBEDDING)
        path = tmp_path / "m.model"
        save_store(path, store, {}, precision=precision)
        loaded, _ = load_store(path)
        assert loaded.value("empty").shape == (0, 3)
        assert np.allclose(loaded.value("table"), store.value("table"), atol=1e-6)

    def test_single_precision_equals_float32_rounding(self, tmp_path):
        store = self.build_store()
        path = tmp_path / "m.model"
        save_store(path, store, {}, precision="f4")
        loaded, _ = load_store(path)
        for name in store.names():
            rounded = store.value(name).astype(np.float32).astype(np.float64)
            assert_bit_identical(loaded.value(name), rounded)

    def test_short_read_names_path_and_tensor(self, tmp_path, monkeypatch):
        # a file that shrinks after its size was taken
        path = tmp_path / "m.model"
        save_store(path, self.build_store(), {})
        full_size = path.stat().st_size
        truncate_model_file(path, 8)
        monkeypatch.setattr(numerics.os, "fstat", lambda fd: SimpleNamespace(st_size=full_size))
        with pytest.raises(ModelFormatError,
                           match=f"{path}: tensor 'table' is cut short: read 112 of 120"):
            load_store(path)

    @pytest.mark.parametrize("precision", ["f8", "f4"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_path_and_tensor(self, tmp_path, precision, bad):
        # a tensor of three blocks and a bit, its bad value in the last one
        store = self.build_store()
        store.register("wide", (3 * INIT_BLOCK + 5,), WEIGHT)[-2] = bad
        path = tmp_path / "m.model"
        save_store(path, store, {}, precision=precision)
        with pytest.raises(ModelFormatError,
                           match=f"{path}: tensor 'wide' holds a non-finite value"):
            load_store(path)

    def test_short_read_of_a_later_block_counts_the_whole_tensor(self, tmp_path, monkeypatch):
        store = self.build_store()
        store.register("wide", (3 * INIT_BLOCK + 5,), WEIGHT)
        path = tmp_path / "m.model"
        save_store(path, store, {})
        full_size = path.stat().st_size
        truncate_model_file(path, 8)
        monkeypatch.setattr(numerics.os, "fstat", lambda fd: SimpleNamespace(st_size=full_size))
        n_bytes = 8 * (3 * INIT_BLOCK + 5)
        with pytest.raises(ModelFormatError, match=f"{path}: tensor 'wide' is cut short: "
                                                   f"read {n_bytes - 8} of {n_bytes} bytes"):
            load_store(path)

    @pytest.mark.parametrize("kind", ["bias-ish", ["bias"]])
    def test_unknown_kind_names_path_and_tensor(self, tmp_path, kind):
        path = tmp_path / "m.model"
        store = self.build_store()
        store._kinds["beta"] = kind             # register would refuse it
        save_store(path, store, {})
        with pytest.raises(ModelFormatError,
                           match=f"{path}: tensor 'beta': unknown parameter kind"):
            load_store(path)

    def test_too_many_dimensions_is_a_format_error(self, tmp_path):
        path = tmp_path / "m.model"
        save_store(path, self.build_store(), {})

        def edit(lines):
            lines[2][1] = ",".join(["1"] * 70)     # beta: 70 dimensions of one entry
            return lines
        edit_manifest(path, edit)
        with pytest.raises(ModelFormatError, match=f"{path}: tensor 'beta': maximum supported"):
            load_store(path)


def traced_peak(fn):
    """(result of fn(), peak bytes numpy and Python allocated during the
    call above what was allocated before it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestMemoryBounds:
    """Loading, initializing and saving a store hold each parameter's bytes
    once, in its value buffer, plus at most one block or one tensor's bytes
    beyond it; the store keeps no gradient."""
    SLACK = 256 * 1024      # Python objects and numpy's casting buffers

    def build(self):
        store = ParameterStore()
        store.register("emb", (20000, 50), EMBEDDING)
        store.register("w", (100, 300), WEIGHT)
        store.register("b", (100,), BIAS)
        return store

    @staticmethod
    def value_bytes(store):
        return sum(store.value(name).nbytes for name in store.names())

    def test_init_uniform_holds_no_full_size_draw(self):
        init_uniform(self.build(), seed=1)      # first use imports generator internals
        stored = self.value_bytes(self.build())

        def build_and_init():
            store = self.build()
            init_uniform(store, seed=2)
            return store
        _, peak = traced_peak(build_and_init)
        assert peak <= stored + self.SLACK

    @pytest.mark.parametrize("precision", ["f8", "f4"])
    def test_load_store_holds_each_tensor_once(self, tmp_path, precision):
        store = self.build()
        init_uniform(store, seed=3)
        path = tmp_path / "m.model"
        save_store(path, store, {"note": "x"}, precision=precision)
        load_store(path)
        loaded, peak = traced_peak(lambda: load_store(path)[0])
        if precision == "f8":
            assert peak <= 1.05 * self.value_bytes(store) + self.SLACK
            for name in store.names():
                assert_bit_identical(loaded.value(name), store.value(name))
        else:
            # one block at a time is read in float32 and widened
            assert peak <= self.value_bytes(store) + INIT_BLOCK * 4 + self.SLACK

    def test_compiled_instances_are_compact(self):
        # the train-50d-small corpus shape: 600 instances with paths of up to
        # 8 words and subtrees up to 4 deep, at 50-d with NER and WordNet
        instances = synth.make_gradcheck_instances(600, max_path=8, max_depth=4)
        config = TrainConfig.for_embedding_dim(50, use_ner=True, use_wordnet=True)
        model = Model.build(config, Vocabulary.build(instances))
        model.compile(instances[0])             # first use sets up numpy's caches
        compiled, peak = traced_peak(lambda: [model.compile(inst) for inst in instances])
        assert sum(c.schedule.shape[1] for c in compiled) > 20 * len(instances)
        assert peak / len(instances) <= 2048

    def test_read_instances_are_compact(self, tmp_path):
        # the same corpus read back from its file: a leaf's children, a
        # graph's missing inactive tokens and each distinct string of the read
        # are shared, not one object each
        path = tmp_path / "corpus.inst"
        write_parsed_instances(path, synth.make_gradcheck_instances(600, max_path=8,
                                                                    max_depth=4))
        read_parsed_instances(path)             # first use sets up the reader's caches
        instances, peak = traced_peak(lambda: read_parsed_instances(path))
        assert len(instances) == 600
        assert peak / len(instances) <= 4500

    def test_model_load_holds_each_tensor_once(self, tmp_path):
        instances = synth.make_gradcheck_instances(3)
        # a wide table of few rows, so the vocabulary's Python objects stay
        # small beside the tensors
        model = tiny_model(instances, dim=400, dim_c=25, hidden=50)
        words = model.vocab.words + tuple(f"extra{i:04d}" for i in range(2500))
        vocab = dataclasses.replace(model.vocab, words=words)
        model = Model.build(model.config, vocab)
        path = tmp_path / "m.model"
        model.save(path)
        Model.load(path)
        loaded, peak = traced_peak(lambda: Model.load(path))
        assert peak <= 1.05 * self.value_bytes(model.store) + self.SLACK
        for name in model.store.names():
            assert_bit_identical(loaded.store.value(name), model.store.value(name))

    @pytest.mark.parametrize("precision", ["f8", "f4"])
    def test_save_store_copies_at_most_one_tensor(self, tmp_path, precision):
        store = self.build()
        init_uniform(store, seed=4)
        path = tmp_path / "m.model"
        save_store(path, store, {})
        _, peak = traced_peak(lambda: save_store(path, store, {}, precision=precision))
        largest = max(store.value(name).nbytes for name in store.names())
        assert peak <= largest + self.SLACK
        if precision == "f8":
            # nothing is converted: the payload goes out of the buffers
            assert peak <= self.SLACK
