"""Pinned behaviour fingerprint: the sha256 of a model trained on the bundled
synthetic corpus. An algebraically exact refactor must leave these bytes
unchanged; a change that alters the numerics, however slightly, does not.

The constants are tied to this numpy/BLAS build and to a CPU on which
OpenBLAS runs small products on its small-matrix kernels (x86-64 with
AVX-512). There each matrix product of a training step runs on one thread,
since the parameter store multiplies by the conv filter, and applies its
deferred steps, in row blocks within numerics.SMALL_PRODUCT, so the bytes do
not depend on the number of BLAS threads and every config trains in the test
process.

    python tests/test_fingerprint.py NAME

prints the sha256 of config NAME.
"""

import hashlib
import pathlib
import sys
import tempfile

import pytest

from depnn.classifier import Model, TrainConfig
from depnn.corpus import Vocabulary, read_parsed_instances

SYNTHETIC = pathlib.Path(__file__).resolve().parent.parent / "data" / "synthetic.inst"
EPOCHS = 3
SEED = 1

FINGERPRINTS = {
    "50d": "2ac5ca1ffa41f9de0bf281c7a38dbf5e80261cd9701871827cf4dabf30d5fc1c",
    "50d-lexical": "7c9abe8ba846edcebc1596f828af05b97eaf35e2910cacedff3d2c577ff6b1ed",
    "200d": "1501d9da9279ca32039ff3a832dba71cdc374b99869e9e7fbd1adc376763f6b6",
    "50d-k7": "d9248d57e5ea9415172cf56c573c292067ac6086c26c50174d5aea37238815a8",
    "50d-k9": "fc1837186e090ce9d169eee751cb34327a6cbf41f4bcb9195cc8ff86973eef35",
}
# name -> (embedding dim, TrainConfig overrides)
CONFIGS = {
    "50d": (50, {}),
    "50d-lexical": (50, {"use_ner": True, "use_wordnet": True}),
    "200d": (200, {}),
    "50d-k7": (50, {"window": 7}),
    "50d-k9": (50, {"window": 9}),
}


def trained_model_sha256(directory, name) -> str:
    dim, overrides = CONFIGS[name]
    instances = read_parsed_instances(SYNTHETIC)
    config = TrainConfig.for_embedding_dim(dim, seed=SEED, epochs=EPOCHS, **overrides)
    model = Model.build(config, Vocabulary.build(instances))
    model.train(instances)
    path = pathlib.Path(directory) / "model.depnn"
    model.save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_trained_model_bytes_are_pinned(tmp_path, name):
    assert trained_model_sha256(tmp_path, name) == FINGERPRINTS[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print(trained_model_sha256(scratch, sys.argv[1]))
