"""Pinned behaviour fingerprint: the sha256 of a model trained on the bundled
synthetic corpus. An algebraically exact refactor must leave these bytes
unchanged; a change that alters the numerics, however slightly, does not.

The constants are tied to this numpy/BLAS build. At 200-d the GEMMs are
large enough that the result depends on the number of BLAS threads, so the
200-d config trains in a child process whose BLAS is limited to one thread
before numpy loads; the 50-d configs train in the test process.

    python tests/test_fingerprint.py NAME

prints the sha256 of config NAME, trained in the calling process.
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

import depnn
from depnn.classifier import Model, TrainConfig
from depnn.corpus import Vocabulary, read_parsed_instances

SYNTHETIC = pathlib.Path(__file__).resolve().parent.parent / "data" / "synthetic.inst"
EPOCHS = 3
SEED = 1

FINGERPRINTS = {
    "50d": "9dd6ff070b63e0694e5753c3af4b5a308497d6f098631fa05e52ac8a6f00698a",
    "50d-lexical": "971c8132e977338e1536f7f9dc61b5139795280cec27e72b8fdd903016583e1f",
    "200d": "01f8c65541aa48af27cbec7461f7d23ce19722a0ad090edffa9d29971b6888d1",
}
# name -> (embedding dim, TrainConfig overrides)
CONFIGS = {
    "50d": (50, {}),
    "50d-lexical": (50, {"use_ner": True, "use_wordnet": True}),
    "200d": (200, {}),
}
ONE_BLAS_THREAD = {"200d"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def trained_model_sha256(directory, name) -> str:
    dim, overrides = CONFIGS[name]
    instances = read_parsed_instances(SYNTHETIC)
    config = TrainConfig.for_embedding_dim(dim, seed=SEED, epochs=EPOCHS, **overrides)
    model = Model.build(config, Vocabulary.build(instances))
    model.train(instances)
    path = pathlib.Path(directory) / "model.depnn"
    model.save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def one_thread_sha256(name) -> str:
    """trained_model_sha256 in a child process with one BLAS thread, on the
    depnn source tree this process imported."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    src = str(pathlib.Path(depnn.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, __file__, name], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_trained_model_bytes_are_pinned(tmp_path, name):
    if name in ONE_BLAS_THREAD:
        sha = one_thread_sha256(name)
    else:
        sha = trained_model_sha256(tmp_path, name)
    assert sha == FINGERPRINTS[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print(trained_model_sha256(scratch, sys.argv[1]))
