"""Workload parameters shared by the generator and the measuring run.

Each workload runs in one single-threaded process. Its inputs are written
as DEPNN-INST 1 files from the workload seed; the reason each workload
exists is recorded next to its name in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the canary inputs are the same in every run, so their results can be
# compared with the values recorded in reference.json
CANARY_SEED = 0


@dataclass(frozen=True)
class Workload:
    kind: str              # "train" or "eval"
    dim: int               # published config keyed by embedding size
    lexical: bool          # NER and WordNet features
    max_path: int          # make_gradcheck_instances shape parameters
    max_depth: int
    lexicon: int           # distinct word forms the Zipf draws come from
    pad_lexicon: bool      # corpus covers the whole lexicon: len(vocab.words) = lexicon + 1
    n_train: int           # train: instances per Model.train call; eval: instances the model is prepared on
    epochs: int            # train: epochs per Model.train call; eval: preparation epochs
    n_heldout: int = 0     # eval only: instances predicted per pass


WORKLOADS: dict[str, Workload] = {
    "train-200d": Workload(
        kind="train", dim=200, lexical=False, max_path=6, max_depth=3,
        lexicon=24_999, pad_lexicon=True, n_train=40, epochs=2),
    "train-50d-small": Workload(
        kind="train", dim=50, lexical=True, max_path=8, max_depth=4,
        lexicon=9_000, pad_lexicon=False, n_train=600, epochs=2),
    "eval-200d": Workload(
        kind="eval", dim=200, lexical=False, max_path=6, max_depth=3,
        lexicon=24_999, pad_lexicon=True, n_train=30, epochs=1, n_heldout=2000),
}


def canary(workload: Workload) -> Workload:
    """The workload's model configuration on a few instances and a small
    lexicon: cheap enough to run after every measurement."""
    return replace(workload, lexicon=60, pad_lexicon=False, n_train=6,
                   n_heldout=20 if workload.kind == "eval" else 0)


def import_depnn():
    """Import depnn from this checkout's src/, never from an installed copy.
    Returns None when the checkout has no sources."""
    src = ROOT / "src"
    if not (src / "depnn" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    depnn = importlib.import_module("depnn")
    if Path(depnn.__file__).resolve().parent != src / "depnn":
        raise ImportError(f"depnn was imported from {depnn.__file__}, not {src}")
    for module in ("adp", "classifier", "corpus", "evaluation", "numerics",
                   "path_cnn", "subtree", "synth"):
        importlib.import_module(f"depnn.{module}")
    return depnn
