"""Model against the reference DepNN (reference.py): per instance, the loss
and every tensor's gradient of Model.accumulate_gradients; per run, every
tensor and every epoch loss after Model.train. Each is measured as
max|model - reference| <= 1e-12 * max|reference|, per tensor.

Model.train holds the filter's SGD step pending and applies it as one
product (ParameterStore.defer), where the reference steps every tensor at
once; each run here applies it several times, so the runs check the
deferred step too. The runs match at one and at two BLAS threads.
"""

import numpy as np
import pytest

from depnn import synth
from depnn.classifier import Model, TrainConfig
from depnn.corpus import Vocabulary, read_parsed_instances
from depnn.numerics import DEFERRED_ROWS, Gradient

from conftest import count_applies
from reference import ReferenceDepNN
from test_fingerprint import CONFIGS, EPOCHS, SEED, SYNTHETIC

TOLERANCE = 1e-12

CORPORA = {"synthetic": lambda: read_parsed_instances(SYNTHETIC),
           "gradcheck": lambda: synth.make_gradcheck_instances(40, seed=3)}

# name -> (embedding dim, TrainConfig overrides): the pinned configs and the
# two ablations
INSTANCE_CONFIGS = {**CONFIGS, "50d-linear-conv": (50, {"conv_tanh": False}),
                    "50d-no-subtrees": (50, {"use_subtrees": False})}

# name -> (corpus, embedding dim, TrainConfig overrides)
RUNS = {**{f"synthetic-{name}": ("synthetic", *config) for name, config in CONFIGS.items()},
        **{f"gradcheck-{dim}d{'' if tanh else '-linear-conv'}": ("gradcheck", dim,
                                                                 {"conv_tanh": tanh})
           for dim in (50, 200) for tanh in (True, False)}}


def assert_close(actual, expected, what):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, what
    gap = np.abs(actual - expected).max(initial=0.0)
    assert gap <= TOLERANCE * np.abs(expected).max(initial=0.0), (what, gap)


def model_and_reference(instances, dim, overrides):
    config = TrainConfig.for_embedding_dim(dim, seed=SEED, epochs=EPOCHS, **overrides)
    model = Model.build(config, Vocabulary.build(instances))
    return model, ReferenceDepNN(config, model.vocab, model.store)


@pytest.mark.parametrize("config", sorted(INSTANCE_CONFIGS))
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_instance_gradient_matches_reference(corpus, config):
    instances = CORPORA[corpus]()
    model, reference = model_and_reference(instances, *INSTANCE_CONFIGS[config])
    for inst in instances:
        gradient = model.store.zeros_like()
        loss = model.accumulate_gradients(model.compile(inst), Gradient(gradient, -1.0))
        expected_loss, expected = reference.loss_and_gradient(inst)
        assert_close(loss, expected_loss, (inst.id, "loss"))
        for name in model.store.names():
            assert_close(gradient.value(name), expected[name], (inst.id, name))


@pytest.mark.parametrize("run", sorted(RUNS))
def test_training_matches_reference(monkeypatch, run):
    corpus, dim, overrides = RUNS[run]
    instances = CORPORA[corpus]()
    model, reference = model_and_reference(instances, dim, overrides)
    applies = count_applies(monkeypatch)
    report = model.train(instances)
    # applied when the buffers fill, and what is left when train returns
    assert len(applies) >= 3 and max(applies) <= DEFERRED_ROWS
    expected_losses = reference.train(instances, EPOCHS)
    assert len(report.epoch_losses) == EPOCHS
    for epoch, (loss, expected) in enumerate(zip(report.epoch_losses, expected_losses)):
        assert_close(loss, expected, ("epoch", epoch))
    for name in model.store.names():
        assert_close(model.store.value(name), reference.store.value(name), name)
