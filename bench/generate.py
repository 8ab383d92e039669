"""Write one workload's inputs from a seed.

    python3 bench/generate.py --workload NAME --seed N --out DIR

Instance shapes come from depnn.synth.make_gradcheck_instances; word forms
are redrawn from a seeded Zipf lexicon so that each step touches scattered
embedding rows. Two input sets are written, each through
corpus.write_parsed_instances:

    DIR/timed/   from --seed, the inputs the measurement runs on
    DIR/canary/  from CANARY_SEED with the canary sizes, the same every run

Train workloads get corpus.inst: the first n_train instances are the ones
trained on; with pad_lexicon, further instances cover every lexicon form
that the first n_train did not draw, as a full training corpus would. Eval
workloads get model.depnn (trained on such a corpus, outside the timed
run), heldout.inst (from a different seed stream) and heldout.ref.json,
the labels and top probabilities the in-memory model gave before it was
saved.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from workloads import CANARY_SEED, WORKLOADS, Workload, canary, import_depnn

# word forms are drawn with probability proportional to 1 / rank**ZIPF_S
ZIPF_S = 1.0

# independent random streams derived from one workload seed
_SHAPES, _FORMS, _PAD_SHAPES, _HELDOUT_SHAPES, _HELDOUT_FORMS = range(5)


def stream_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def lexicon_form(rank: int) -> str:
    return f"w{rank}"


class ZipfForms:
    """Word forms drawn with probability proportional to 1 / rank**ZIPF_S."""

    def __init__(self, workload: Workload, seed: int):
        weights = 1.0 / np.arange(1, workload.lexicon + 1) ** ZIPF_S
        self._p = weights / weights.sum()
        self._rng = np.random.default_rng(seed)

    def draw(self, n: int) -> list[str]:
        ranks = self._rng.choice(len(self._p), size=n, p=self._p)
        return [lexicon_form(int(r)) for r in ranks]


def with_forms(depnn, instance, forms, new_id: int):
    """The same tree and entity spans with new token forms."""
    adp, corpus = depnn.adp, depnn.corpus
    graph = instance.graph
    tokens = [replace(tok, form=form) for tok, form in zip(graph.tokens, forms)]
    return corpus.Instance(new_id, adp.DependencyGraph(tokens, graph.arcs, graph.inactive),
                           instance.e1, instance.e2, instance.gold)


def shaped(depnn, workload: Workload, n: int, seed: int, forms: ZipfForms, first_id: int = 1):
    shapes = depnn.synth.make_gradcheck_instances(
        n, seed=seed, max_path=workload.max_path, max_depth=workload.max_depth)
    return [with_forms(depnn, inst, forms.draw(len(inst.graph.tokens)), first_id + i)
            for i, inst in enumerate(shapes)]


def padding(depnn, workload: Workload, seed: int, used: set[str], forms: ZipfForms, first_id: int):
    """Instances that between them use every lexicon form not in `used`;
    the last one's spare tokens take Zipf draws."""
    unused = [f for f in map(lexicon_form, range(workload.lexicon)) if f not in used]
    out = []
    batch = 0
    while unused:
        shapes = depnn.synth.make_gradcheck_instances(
            200, seed=stream_seed(seed, 100 + batch),
            max_path=workload.max_path, max_depth=workload.max_depth)
        batch += 1
        for inst in shapes:
            if not unused:
                break
            n_tok = len(inst.graph.tokens)
            take, unused = unused[:n_tok], unused[n_tok:]
            take += forms.draw(n_tok - len(take))
            out.append(with_forms(depnn, inst, take, first_id + len(out)))
    return out


def training_corpus(depnn, workload: Workload, seed: int):
    forms = ZipfForms(workload, stream_seed(seed, _FORMS))
    head = shaped(depnn, workload, workload.n_train, stream_seed(seed, _SHAPES), forms)
    if not workload.pad_lexicon:
        return head
    used = {tok.form for inst in head for tok in inst.graph.tokens}
    return head + padding(depnn, workload, stream_seed(seed, _PAD_SHAPES), used, forms,
                          first_id=len(head) + 1)


def model_config(depnn, workload: Workload, seed: int):
    return depnn.classifier.TrainConfig.for_embedding_dim(
        workload.dim, use_ner=workload.lexical, use_wordnet=workload.lexical,
        epochs=workload.epochs, seed=seed)


def write_inputs(depnn, workload: Workload, seed: int, out: Path) -> None:
    corpus, classifier = depnn.corpus, depnn.classifier
    out.mkdir(parents=True, exist_ok=True)
    instances = training_corpus(depnn, workload, seed)
    if workload.kind == "train":
        corpus.write_parsed_instances(out / "corpus.inst", instances)
        return

    model = classifier.Model.build(model_config(depnn, workload, seed),
                                   corpus.Vocabulary.build(instances))
    model.train(instances[:workload.n_train], epochs=workload.epochs)
    model.save(out / "model.depnn")
    heldout_forms = ZipfForms(workload, stream_seed(seed, _HELDOUT_FORMS))
    heldout = shaped(depnn, workload, workload.n_heldout,
                     stream_seed(seed, _HELDOUT_SHAPES), heldout_forms)
    corpus.write_parsed_instances(out / "heldout.inst", heldout)
    predictions = [model.predict(inst) for inst in heldout]
    reference = {"labels": [p.label for p in predictions],
                 "top_prob": [float(p.distribution.max()) for p in predictions]}
    (out / "heldout.ref.json").write_text(json.dumps(reference))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    depnn = import_depnn()
    if depnn is None:
        print("error: src/depnn not found in this checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    write_inputs(depnn, workload, args.seed, args.out / "timed")
    write_inputs(depnn, canary(workload), CANARY_SEED, args.out / "canary")
    return 0


if __name__ == "__main__":
    sys.exit(main())
