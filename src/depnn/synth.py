"""Deterministic synthetic corpora.

Two generators: a small separable training corpus whose gold label is
recoverable from the relation labels on the path (used for overfitting
sanity checks and as the bundled dataless CI corpus), and random-tree
instances with controlled path lengths and subtree depths for gradient
checking. Both read their instances from DEPNN-INST token rows through
corpus.instance_from_record, as the instance reader does.
"""

from __future__ import annotations

import numpy as np

from .corpus import LABELS, Instance, instance_from_record

SEPARABLE_SEED = 20240
GRADCHECK_SEED = 77

# relation-label pairs that make the classes recoverable from the path alone;
# one class per relation type plus Other, so a fully fit model scores 1.0
_CLASSES = [
    ("Cause-Effect(e1,e2)", "sparks", "yields"),
    ("Component-Whole(e1,e2)", "fits_in", "houses"),
    ("Content-Container(e1,e2)", "holds", "inside_of"),
    ("Entity-Destination(e1,e2)", "sent_to", "receives"),
    ("Entity-Origin(e1,e2)", "drawn_from", "source_of"),
    ("Instrument-Agency(e1,e2)", "wields", "applied_to"),
    ("Member-Collection(e1,e2)", "joins", "gathers"),
    ("Message-Topic(e1,e2)", "speaks_on", "about"),
    ("Product-Producer(e1,e2)", "made_by", "turns_out"),
    ("Other", "near", "alongside"),
]

_NOUNS = ["engine", "barrel", "lecture", "hammer", "vapor", "closet",
          "pamphlet", "chisel", "furnace", "crate"]
_VERBS = ["describes", "produces", "contains", "strikes", "emits"]
_MODS = ["slowly", "quietly", "twice", "openly", "barely", "deftly"]
_NER = ["OBJ", "ACT", None]
_WN = ["artifact.n.01", "act.n.02", None]


def _pick(rng, pool):
    return pool[int(rng.integers(len(pool)))]


def make_separable_corpus(n: int = 50, seed: int = SEPARABLE_SEED) -> list[Instance]:
    """Instances whose gold label is determined by the relation labels
    joining the entity heads to the verb between them."""
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(n):
        gold, head_rel, tail_rel = _CLASSES[i % len(_CLASSES)]
        rows = [
            [_pick(rng, _NOUNS), None, 2, head_rel, _pick(rng, _NER), _pick(rng, _WN)],
            [_pick(rng, _VERBS), None, 0, "root", None, None],
            [_pick(rng, _NOUNS), None, 2, tail_rel, _pick(rng, _NER), _pick(rng, _WN)],
        ]
        # hang a small modifier chain off the verb on ~2/3 of the instances
        if rng.random() < 0.65:
            rows.append([_pick(rng, _MODS), None, 2, "advmod", None, None])
            if rng.random() < 0.5:
                rows.append([_pick(rng, _MODS), None, 4, "amod", None, None])
        instances.append(instance_from_record(
            {"id": i + 1, "tokens": rows, "e1": [1, 1], "e2": [3, 3], "label": gold}, None))
    return instances


def make_gradcheck_instances(n: int = 20, seed: int = GRADCHECK_SEED,
                             max_path: int = 6, max_depth: int = 3) -> list[Instance]:
    """Random instances with path lengths 2..max_path and random attached
    subtrees of bounded depth, exercising every parameter tensor.

    Distinct entity spans force at least two path words; the degenerate
    one-word path (coinciding entity heads) has to be driven directly.
    """
    rng = np.random.default_rng(seed)
    relations = ["nsubj", "dobj", "prep_with", "amod", "det", "advmod"]
    words = ["alpha", "beta", "Gamma", "delta", "epsilon", "zeta", "eta"]
    instances = []
    for i in range(n):
        path_len = 2 + int(rng.integers(max_path - 1))
        rows = [[_pick(rng, words), None, 0, "root", _pick(rng, _NER), _pick(rng, _WN)]
                for _ in range(path_len)]
        # orient the chain to a single peak so every node keeps one head
        peak = 1 + int(rng.integers(path_len))
        for j in range(1, path_len):
            dependent, head = (j, j + 1) if j < peak else (j + 1, j)
            rows[dependent - 1][2:4] = head, _pick(rng, relations)

        def grow(parent: int, depth: int):
            if depth >= max_depth:
                return
            for _ in range(int(rng.integers(3))):
                tag, hyp = _pick(rng, _NER), _pick(rng, _WN)
                rows.append([_pick(rng, words), None, parent, _pick(rng, relations), tag, hyp])
                grow(len(rows), depth + 1)

        for j in range(1, path_len + 1):
            grow(j, 0)
        gold = LABELS[int(rng.integers(len(LABELS)))]
        instances.append(instance_from_record({"id": i + 1, "tokens": rows, "e1": [1, 1],
                                               "e2": [path_len, path_len], "label": gold}, None))
    return instances
