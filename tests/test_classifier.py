import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from depnn import synth
from depnn.classifier import (EmptyPath, Model, ModelFileMismatch, OUT_W,
                              TrainConfig, cross_entropy)
from depnn.corpus import LABELS, Instance, entity_mention
from depnn.evaluation import score
from depnn.numerics import NonFiniteLoss, gradient_check
from depnn.path_cnn import CONV_B

from conftest import graph_of, rewrite_model_file, tiny_model


def one_instance():
    return synth.make_separable_corpus(1)[0]


def accuracy(model, instances):
    return score([inst.gold for inst in instances],
                 [model.predict(inst).label for inst in instances]).accuracy


class TestConfig:
    def test_table_defaults_50d(self):
        cfg = TrainConfig.for_embedding_dim(50)
        assert (cfg.window, cfg.learning_rate) == (5, 0.05)
        assert (cfg.dim_c, cfg.hidden) == (25, 200)

    def test_table_defaults_200d(self):
        cfg = TrainConfig.for_embedding_dim(200)
        assert (cfg.dim_c, cfg.hidden) == (100, 400)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(window=4)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(dim=0)

    def test_round_trip_dict(self):
        cfg = TrainConfig(dim=10, use_ner=True)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


class TestForward:
    def test_zero_store_gives_uniform_distribution(self):
        inst = one_instance()
        model = tiny_model([inst])
        for name in model.store.names():
            model.store.value(name).fill(0.0)
        pred = model.predict(inst)
        assert np.allclose(pred.distribution, np.full(len(LABELS), 1 / len(LABELS)),
                           rtol=1e-15)

    def test_distribution_sums_to_one_and_argmax_label(self):
        inst = one_instance()
        model = tiny_model([inst])
        pred = model.predict(inst)
        assert abs(pred.distribution.sum() - 1.0) < 1e-12
        assert pred.label == LABELS[int(np.argmax(pred.distribution))]

    def test_constructed_output_row_forces_class(self):
        inst = one_instance()
        model = tiny_model([inst])
        _, cache = model._forward(inst)
        m = cache.combined
        out = model.store.value(OUT_W)
        out.fill(0.0)
        out[3] = 10.0 * m / float(m @ m)
        pred = model.predict(inst)
        assert pred.label == LABELS[3]
        assert math.isclose(np.log(pred.distribution[3] /
                                   pred.distribution[0]), 10.0, rel_tol=1e-9)

    def test_empty_path_error(self):
        graph = graph_of(3, [(0, 1, "root"), (1, 3, "dobj")], inactive={2})
        fake = SimpleNamespace(id=9, graph=graph,
                               e1=SimpleNamespace(head_index=2),
                               e2=SimpleNamespace(head_index=3), gold="Other")
        model = tiny_model([one_instance()])
        with pytest.raises(EmptyPath):
            model.predict(fake)


class TestLoss:
    def test_certain_prediction_has_zero_loss(self):
        dist = np.zeros(19)
        dist[4] = 1.0
        assert cross_entropy(dist, 4) == 0.0

    def test_uniform_loss_is_log_19(self):
        dist = np.full(19, 1 / 19)
        assert math.isclose(cross_entropy(dist, 7), math.log(19), rel_tol=1e-12)

    def test_matches_direct_formula(self, rng):
        raw = rng.uniform(0.05, 1.0, size=19)
        dist = raw / raw.sum()
        gold = 11
        one_hot = np.zeros(19)
        one_hot[gold] = 1.0
        direct = -float(np.sum(one_hot * np.log(dist)))
        assert math.isclose(cross_entropy(dist, gold), direct, rel_tol=1e-12)

    def test_loss_nonnegative(self, rng):
        for _ in range(20):
            raw = rng.uniform(0.01, 1.0, size=19)
            dist = raw / raw.sum()
            assert cross_entropy(dist, int(rng.integers(19))) >= 0.0


class TestTraining:
    def test_zero_learning_rate_changes_nothing(self):
        inst = one_instance()
        model = tiny_model([inst], learning_rate=0.0)
        before = {n: model.store.value(n).copy() for n in model.store.names()}
        model.train_step(inst)
        for name, value in before.items():
            assert np.array_equal(model.store.value(name), value)

    def test_repeated_instance_converges(self):
        inst = one_instance()
        model = tiny_model([inst], dim=12, dim_c=8, hidden=24, learning_rate=0.05)
        losses = [model.train_step(inst) for _ in range(200)]
        assert losses[-1] < 0.01
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_tiny_step_descends(self):
        inst = one_instance()
        model = tiny_model([inst], learning_rate=1e-6)
        previous = model.evaluate_loss(inst)
        for _ in range(10):
            model.train_step(inst)
            current = model.evaluate_loss(inst)
            assert current <= previous + 1e-15
            previous = current

    def test_gradients_pass_finite_difference_check(self):
        instances = synth.make_gradcheck_instances(2, seed=5)
        model = tiny_model(instances, use_ner=True, use_wordnet=True)
        model.store.zero_grads()
        model.accumulate_gradients(instances[0])
        errors = gradient_check(lambda: model.evaluate_loss(instances[0]),
                                model.store)
        assert max(errors.values()) < 1e-5

    def test_zero_epochs_leave_store_untouched(self):
        instances = synth.make_separable_corpus(6)
        model = tiny_model(instances, epochs=0)
        before = {n: model.store.value(n).copy() for n in model.store.names()}
        report = model.train(instances)
        assert report.epoch_losses == []
        for name, value in before.items():
            assert np.array_equal(model.store.value(name), value)

    def test_overfits_separable_corpus(self):
        instances = synth.make_separable_corpus(30)
        model = tiny_model(instances, dim=10, dim_c=6, hidden=16,
                           learning_rate=0.05)
        for _ in range(100):
            model.train(instances, epochs=1)
            if accuracy(model, instances) >= 0.99:
                break
        assert accuracy(model, instances) >= 0.99

    def test_validation_f1_reported(self):
        instances = synth.make_separable_corpus(12)
        model = tiny_model(instances)
        report = model.train(instances, validation=instances, epochs=2)
        assert len(report.val_f1) == 2
        assert all(f is not None for f in report.val_f1)

    def test_store_freed_without_cycle_collection(self):
        # a model dropped after training or predicting must not wait for the
        # cyclic garbage collector to release its parameters
        instances = synth.make_gradcheck_instances(3)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            model = tiny_model(instances)
            model.train_step(instances[0])
            model.predict(instances[1])
            store = weakref.ref(model.store)
            del model
            assert store() is None
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_loss_aborts(self):
        inst = one_instance()
        model = tiny_model([inst])
        model.store.value(OUT_W)[...] = np.inf
        with pytest.raises(NonFiniteLoss):
            model.train_step(inst)


class TestAblation:
    def edited_pair(self):
        """Two instances identical on the path, differing in one off-path
        subtree token."""
        forms_a = ["engine", "wields", "closet", "slowly"]
        forms_b = ["engine", "wields", "closet", "openly"]
        arcs = [(0, 2, "root"), (2, 1, "nsubj"), (2, 3, "dobj"), (2, 4, "advmod")]
        instances = []
        for i, forms in enumerate((forms_a, forms_b)):
            g = graph_of(4, arcs, forms=forms)
            instances.append(Instance(i + 1, g, entity_mention(g, 1, 1),
                                      entity_mention(g, 3, 3), "Other"))
        return instances

    def test_no_subtrees_is_invariant_to_offpath_edits(self):
        a, b = self.edited_pair()
        model = tiny_model([a, b], use_subtrees=False)
        assert np.array_equal(model.predict(a).distribution,
                              model.predict(b).distribution)

    def test_subtrees_react_to_offpath_edits(self):
        a, b = self.edited_pair()
        # k=5 puts the subtree-bearing middle word into every window, so the
        # edit is guaranteed to reach the pooled representation
        model = tiny_model([a, b], use_subtrees=True, window=5)
        assert not np.array_equal(model.predict(a).distribution,
                                  model.predict(b).distribution)

    def test_four_feature_systems(self):
        instances = synth.make_separable_corpus(8)
        shapes = {}
        for name, flags in {
            "path": dict(use_subtrees=False),
            "path+wn": dict(use_subtrees=False, use_wordnet=True),
            "path+ner": dict(use_subtrees=False, use_ner=True),
            "path+sub": dict(use_subtrees=True),
        }.items():
            model = tiny_model(instances, **flags)
            shapes[name] = model.store.value(OUT_W).shape[1]
            assert abs(model.predict(instances[0]).distribution.sum() - 1) < 1e-12
        hidden, lex = 5, 3   # TINY_CONFIG values
        assert shapes["path"] == hidden
        assert shapes["path+sub"] == hidden
        assert shapes["path+wn"] == hidden + 2 * lex
        assert shapes["path+ner"] == hidden + 2 * lex


class TestPersistence:
    def test_save_load_round_trip_predictions(self, tmp_path):
        instances = synth.make_separable_corpus(10)
        model = tiny_model(instances, use_ner=True)
        model.train(instances, epochs=2)
        path = tmp_path / "m.model"
        model.save(path)
        loaded = Model.load(path)
        for inst in instances:
            assert np.array_equal(model.predict(inst).distribution,
                                  loaded.predict(inst).distribution)
        assert loaded.config == model.config
        assert loaded.vocab.words == model.vocab.words

    @pytest.mark.parametrize("drop, narrow", [(CONV_B, None), (None, OUT_W)])
    def test_load_rejects_tensors_that_do_not_fit_config(self, tmp_path, drop, narrow):
        instances = synth.make_separable_corpus(5)
        path = tmp_path / "m.model"
        tiny_model(instances).save(path)
        rewrite_model_file(path, drop=drop, narrow=narrow)
        with pytest.raises(ModelFileMismatch, match=f"m.model: tensor '{drop or narrow}'"):
            Model.load(path)

    def test_single_precision_round_trip_close(self, tmp_path):
        instances = synth.make_separable_corpus(5)
        model = tiny_model(instances)
        path = tmp_path / "m.model"
        model.save(path, precision="f4")
        loaded = Model.load(path)
        for inst in instances:
            assert np.allclose(model.predict(inst).distribution,
                               loaded.predict(inst).distribution, atol=1e-5)
