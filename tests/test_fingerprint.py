"""Pinned behaviour fingerprint: the sha256 of a model trained on the bundled
synthetic corpus. An algebraically exact refactor must leave these bytes
unchanged; a change that alters the numerics, however slightly, does not.

The constants are tied to this numpy/BLAS build. Only the 50-d configs are
pinned: at 200-d the GEMMs are large enough that the result depends on the
number of BLAS threads, so a 200-d pin would fail on a host whose default
thread count differs.
"""

import hashlib
import pathlib

import pytest

from depnn.classifier import Model, TrainConfig
from depnn.corpus import Vocabulary, read_parsed_instances

SYNTHETIC = pathlib.Path(__file__).resolve().parent.parent / "data" / "synthetic.inst"
EPOCHS = 3
SEED = 1

FINGERPRINTS = {
    "50d": "9dd6ff070b63e0694e5753c3af4b5a308497d6f098631fa05e52ac8a6f00698a",
    "50d-lexical": "971c8132e977338e1536f7f9dc61b5139795280cec27e72b8fdd903016583e1f",
}
OVERRIDES = {
    "50d": {},
    "50d-lexical": {"use_ner": True, "use_wordnet": True},
}


def trained_model_sha256(tmp_path, **overrides) -> str:
    instances = read_parsed_instances(SYNTHETIC)
    config = TrainConfig.for_embedding_dim(50, seed=SEED, epochs=EPOCHS, **overrides)
    model = Model.build(config, Vocabulary.build(instances))
    model.train(instances)
    path = tmp_path / "model.depnn"
    model.save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_trained_model_bytes_are_pinned(tmp_path, name):
    assert trained_model_sha256(tmp_path, **OVERRIDES[name]) == FINGERPRINTS[name]
