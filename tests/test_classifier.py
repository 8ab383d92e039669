import gc
import math
import weakref
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

from depnn import synth
from depnn import classifier
from depnn.classifier import (EmptyDataset, InvalidConfig, Model,
                              ModelFileMismatch, OUT_W, TrainConfig, cross_entropy)
from depnn.adp import DependencyGraph, InvalidSpan
from depnn.corpus import (LABELS, UNK, DimensionMismatch, EmbeddingTable, Instance, Vocabulary,
                          entity_mention)
from depnn.evaluation import score
from depnn.numerics import Gradient, NonFiniteLoss, gradient_check
from depnn.path_cnn import CONV_B, InvalidWindowSize
from depnn.subtree import comp_names

from conftest import (BAD_MODEL_META, TINY_CONFIG, assert_bit_identical, dense_sgd_oracle,
                      graph_of, model_gradient, rewrite_model_file, rewrite_model_meta,
                      tiny_model)


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
        with pytest.raises(InvalidWindowSize):
            TrainConfig(window=4)
        with pytest.raises(InvalidConfig):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(InvalidConfig):
            TrainConfig(dim=0)
        with pytest.raises(InvalidConfig, match="epochs must be non-negative"):
            TrainConfig(epochs=-1)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(InvalidConfig, match="learning rate must be finite"):
            TrainConfig(learning_rate=rate)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidConfig, match="seed must be non-negative"):
            TrainConfig(seed=-1)

    def test_round_trip_dict(self):
        cfg = TrainConfig(dim=10, use_ner=True)
        assert TrainConfig(**asdict(cfg)) == cfg

    def test_embeddings_of_another_dimension_are_refused(self):
        embeddings = EmbeddingTable(3, {}, np.zeros(3))
        with pytest.raises(DimensionMismatch,
                           match="^embeddings are 3-d but the model wants 6-d$"):
            Model.build(TrainConfig(**TINY_CONFIG), Vocabulary.build([one_instance()]),
                        embeddings)

    def test_tensor_beyond_an_array_is_refused_before_any_is_made(self, monkeypatch):
        # 2**61 float64 rows are 2**64 bytes, past sys.maxsize: numpy would
        # refuse the filter outright, and the tensors before it are not made
        made = []
        monkeypatch.setattr(classifier.ParameterStore, "register", lambda *args: made.append(args))
        with pytest.raises(InvalidConfig, match=rf"^tensor 'conv_w' of shape \({2 ** 61}, \d+\) "
                                                "holds more bytes than an array can$"):
            Model.build(TrainConfig(**{**TINY_CONFIG, "hidden": 2 ** 61}),
                        Vocabulary.build([one_instance()]))
        assert made == []


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
        cache = model._forward(model.compile(inst))
        m = cache.combined
        out = model.store.value(OUT_W)
        out.fill(0.0)
        out[3] = 10.0 * m / float(m @ m)
        pred = model.predict(inst)
        assert pred.label == LABELS[3]
        assert math.isclose(np.log(pred.distribution[3] /
                                   pred.distribution[0]), 10.0, rel_tol=1e-9)

    def test_empty_path_error(self):
        # Instance refuses a head outside the tree; a query that skips that
        # check still gets no path, and predict names the missing token
        graph = graph_of(3, [(0, 1, "root"), (1, 3, "dobj")], inactive={2})
        fake = SimpleNamespace(id=9, graph=graph,
                               e1=SimpleNamespace(head_index=2),
                               e2=SimpleNamespace(head_index=3), gold="Other")
        model = tiny_model([one_instance()])
        with pytest.raises(InvalidSpan, match="no active token with index 2"):
            model.predict(fake)

    def test_unbuildable_path_fails_before_the_first_step(self):
        instances = synth.make_separable_corpus(6)
        model = tiny_model(instances)
        graph = graph_of(3, [(0, 1, "root"), (1, 3, "dobj")], inactive={2})
        # entity 1 is headed by a token kept out of the tree, past Instance's check
        unbuildable = SimpleNamespace(id=9, graph=graph,
                                      e1=SimpleNamespace(head_index=2),
                                      e2=SimpleNamespace(head_index=3), gold="Other")
        before = {n: model.store.value(n).copy() for n in model.store.names()}
        with pytest.raises(InvalidSpan, match="no active token with index 2"):
            model.train(instances[:3] + [unbuildable] + instances[3:])
        for name, value in before.items():
            assert np.array_equal(model.store.value(name), value)

    def test_form_unseen_in_training_reads_as_unk(self):
        # the vocabulary holds the training forms only, so a form that
        # training never saw reads the UNK row, even when the embeddings the
        # model was built from hold a vector for it
        instances = synth.make_separable_corpus(20)
        unseen = "Quokka"
        embeddings = EmbeddingTable(TINY_CONFIG["dim"], {unseen: np.full(6, 0.09)},
                                    np.zeros(6))
        model = Model.build(TrainConfig(**TINY_CONFIG), Vocabulary.build(instances), embeddings)
        model.train(instances, epochs=2)
        assert not {unseen, unseen.lower()} & set(model.vocab.words)
        query = instances[0]

        def with_head_form(form):
            head = query.e1.head_index
            tokens = [replace(tok, form=form) if tok.index == head else tok
                      for tok in query.graph.tokens]
            graph = DependencyGraph(tokens, query.graph.arcs, query.graph.inactive)
            return Instance(query.id, graph, query.e1, query.e2, query.gold)

        as_unk = model.predict(with_head_form(UNK)).distribution
        assert np.array_equal(model.predict(with_head_form(unseen)).distribution, as_unk)
        assert not np.array_equal(model.predict(query).distribution, as_unk)


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
        model.train_step(model.compile(inst))
        for name, value in before.items():
            assert np.array_equal(model.store.value(name), value)

    def test_repeated_instance_converges(self):
        inst = one_instance()
        model = tiny_model([inst], dim=12, dim_c=8, hidden=24, learning_rate=0.05)
        compiled = model.compile(inst)
        losses = [model.train_step(compiled) for _ in range(200)]
        assert losses[-1] < 0.01
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_tiny_step_descends(self):
        model = tiny_model([one_instance()], learning_rate=1e-6)
        inst = model.compile(one_instance())
        previous, _ = model.evaluate_loss(inst)
        for _ in range(10):
            model.train_step(inst)
            current, _ = model.evaluate_loss(inst)
            assert current <= previous + 1e-15
            previous = current

    def test_gradients_pass_finite_difference_check(self):
        instances = synth.make_gradcheck_instances(2, seed=5)
        model = tiny_model(instances, use_ner=True, use_wordnet=True)
        gradient = model.store.zeros_like()
        compiled = model.compile(instances[0])
        model.accumulate_gradients(compiled, Gradient(gradient, -1.0))
        errors, _ = gradient_check(lambda: model.evaluate_loss(compiled),
                                   model.store, gradient)
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

    def test_calls_of_one_epoch_replay_one_call_of_many(self, monkeypatch):
        # the shuffle stream continues across train calls: three one-epoch
        # calls step the instances in the order of one three-epoch call
        instances = synth.make_separable_corpus(12)
        order = []
        step = Model.train_step

        def recorded(model, compiled):
            order.append(compiled.id)
            return step(model, compiled)
        monkeypatch.setattr(Model, "train_step", recorded)
        model = tiny_model(instances)
        for _ in range(3):
            model.train(instances, epochs=1)
        calls, order[:] = list(order), []
        twin = tiny_model(instances)
        twin.train(instances, epochs=3)
        assert calls == order
        epochs = [order[i:i + 12] for i in range(0, 36, 12)]
        assert all(sorted(epoch) == [inst.id for inst in instances] for epoch in epochs)
        assert len({tuple(epoch) for epoch in epochs}) == 3
        # the same steps; each call applies the conv filter's deferred steps
        # when it returns, which can round a last bit differently
        for name in model.store.names():
            assert np.allclose(model.store.value(name), twin.store.value(name),
                               rtol=1e-12, atol=1e-15)

    def test_validation_f1_reported(self):
        instances = synth.make_separable_corpus(12)
        model = tiny_model(instances)
        report = model.train(instances, validation=instances, epochs=2)
        assert len(report.val_f1) == 2
        assert all(f is not None for f in report.val_f1)

    def test_validation_f1_scores_the_validation_instances(self):
        # validated on instances other than the training ones: each epoch's
        # F1 is score() of the model's predictions of them as the epoch ends
        instances = synth.make_separable_corpus(12)
        held_out = synth.make_gradcheck_instances(10, seed=6)
        model = tiny_model(instances + held_out)
        gold = [inst.gold for inst in held_out]
        expected = []

        def progress(epoch, mean_loss, val_f1):
            expected.append(score(gold, [model.predict(inst).label for inst in held_out]).macro_f1)

        report = model.train(instances, validation=held_out, progress=progress, epochs=3)
        assert report.val_f1 == expected

    def test_store_freed_without_cycle_collection(self):
        # a model dropped after training or predicting must not wait for the
        # cyclic garbage collector to release its parameters
        instances = synth.make_gradcheck_instances(3)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            model = tiny_model(instances)
            model.train_step(model.compile(instances[0]))
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
            model.train_step(model.compile(inst))

    def test_empty_dataset_is_a_typed_value_error(self):
        model = tiny_model([one_instance()])
        with pytest.raises(EmptyDataset, match="non-empty dataset"):
            model.train([])
        assert issubclass(EmptyDataset, ValueError)

    def test_unlabeled_instance_cannot_train(self):
        inst = one_instance()
        model = tiny_model([inst])
        unlabeled = Instance(inst.id, inst.graph, inst.e1, inst.e2, None)
        with pytest.raises(KeyError, match="no gold label"):
            model.train([unlabeled])


class TestInPlaceOutputUpdate:
    """train_step applies out_w's update in the backward pass, once the
    gradient on the layer below is formed, and each composition matrix's
    after the subtree backward's walk, as it does every other tensor's,
    the embedding rows included, through one Gradient at the learning rate;
    the result must be the dense update of the gradient a zeroed store
    sums, within 1e-12, since conv_w's step is held as two factors, scaled
    before their product. Summed in one zeroed store, the composition
    gradients of several instances add."""

    @pytest.mark.parametrize("lexical", [True, False])
    def test_train_step_matches_buffered_update(self, monkeypatch, lexical):
        instances = synth.make_gradcheck_instances(6, seed=19)
        settings = dict(use_ner=lexical, use_wordnet=lexical, learning_rate=0.3)
        fused = tiny_model(instances, **settings)
        buffered = tiny_model(instances, **settings)
        made = []

        class SpyGradient(Gradient):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(classifier, "Gradient", SpyGradient)
        comps = set(comp_names(fused.vocab))
        composed = 0
        for step, inst in enumerate(instances, start=1):
            gradient = model_gradient(buffered, inst)
            assert gradient[OUT_W].any()
            composed += sum(gradient[name].any() for name in comps)
            expected = dense_sgd_oracle(buffered.store, gradient, 0.3)
            fused.train_step(fused.compile(inst))
            assert len(made) == step and made[-1].rate == 0.3   # one Gradient a step
            for name, value in expected.items():
                assert np.abs(fused.store.value(name) - value).max() <= 1e-12, name
                buffered.store.value(name)[...] = value
        assert composed > len(instances)

    def test_composition_gradients_of_two_instances_sum(self):
        instances = synth.make_gradcheck_instances(6, seed=19)
        model = tiny_model(instances)
        comps = comp_names(model.vocab)
        shared = 0
        for first, second in zip(instances[::2], instances[1::2]):
            alone = [model_gradient(model, inst) for inst in (first, second)]
            both = model_gradient(model, first, second)
            for name in comps:
                assert_bit_identical(both[name], alone[0][name] + alone[1][name])
            shared += sum(alone[0][name].any() and alone[1][name].any() for name in comps)
        assert shared


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

    @pytest.mark.parametrize("case", sorted(BAD_MODEL_META))
    def test_load_rejects_bad_metadata(self, tmp_path, case):
        edit, phrase = BAD_MODEL_META[case]
        path = tmp_path / "m.model"
        tiny_model(synth.make_separable_corpus(5)).save(path)
        rewrite_model_meta(path, edit)
        with pytest.raises(ModelFileMismatch, match=f"m.model: metadata field {phrase}"):
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
