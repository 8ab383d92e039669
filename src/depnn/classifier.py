"""The relation classifier: lexical features, softmax output, cross-entropy
loss, and the per-instance SGD training loop."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import corpus
from .adp import (AugmentedDependencyPath, Disconnected, InvalidSpan,
                  attach_subtrees, directed_label, shortest_path)
from .corpus import LABELS, Instance, Vocabulary, label_index
from .evaluation import score
from .numerics import (BIAS, EMBEDDING, WEIGHT, NonFiniteLoss, ParameterStore,
                       init_uniform, load_store, save_store, softmax)
from .path_cnn import (CONV_B, CONV_W, ConvCache, build_windows, conv_backward,
                       conv_forward, window_width)
from .subtree import (COMP_BIAS, LEAF_VEC, PAD_WORD, REL_EMB, WORD_EMB,
                      NodeCache, encode_backward, encode_word)

NER_EMB = "ner_emb"
WN_EMB = "wn_emb"
OUT_W = "out_w"

# dim_c and hidden-layer settings tuned per pretrained embedding size
_DIM_DEFAULTS = {50: (25, 200), 200: (100, 400)}


class EmptyPath(ValueError):
    pass


class ModelFileMismatch(ValueError):
    """A model file whose tensors do not fit the configuration and
    vocabulary stored with it."""


@dataclass
class TrainConfig:
    dim: int = 50
    dim_c: int = 25
    hidden: int = 200
    window: int = 5
    learning_rate: float = 0.05
    epochs: int = 25
    seed: int = 1
    use_subtrees: bool = True
    use_ner: bool = False
    use_wordnet: bool = False
    lex_dim: int = 25
    conv_tanh: bool = True
    shuffle: bool = True

    def __post_init__(self):
        if min(self.dim, self.dim_c, self.hidden, self.lex_dim) < 1:
            raise ValueError("all dimensions must be positive")
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window size must be odd and >= 3, got {self.window}")
        # zero is allowed so a no-op step stays expressible for diagnostics
        if self.learning_rate < 0:
            raise ValueError("learning rate must be non-negative")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")

    @classmethod
    def for_embedding_dim(cls, dim: int, **overrides) -> "TrainConfig":
        """Defaults keyed by embedding size: 50-d -> dim_c 25, hidden 200;
        200-d -> dim_c 100, hidden 400; otherwise scaled from dim."""
        dim_c, hidden = _DIM_DEFAULTS.get(dim, (max(1, dim // 2), 4 * dim))
        merged = {"dim": dim, "dim_c": dim_c, "hidden": hidden}
        merged.update(overrides)
        return cls(**merged)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        return cls(**data)


@dataclass
class Prediction:
    label: str
    distribution: np.ndarray      # over the 19 labels, sums to 1
    path_repr: np.ndarray         # pooled convolution output


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    val_f1: list[float | None] = field(default_factory=list)

    def lines(self) -> list[str]:
        return [epoch_line(i + 1, loss, val_f1) for i, (loss, val_f1)
                in enumerate(zip(self.epoch_losses, self.val_f1))]


def epoch_line(epoch: int, mean_loss: float, val_f1: float | None) -> str:
    """The progress line of one training epoch."""
    line = f"epoch={epoch} mean_loss={mean_loss:.6f}"
    if val_f1 is not None:
        line += f" val_macro_f1={val_f1:.4f}"
    return line


def cross_entropy(distribution: np.ndarray, gold_idx: int) -> float:
    """-log of the gold coordinate; the one-hot target collapses the full
    sum to this single term."""
    return -float(np.log(max(distribution[gold_idx], 1e-300)))


@dataclass
class _ForwardCache:
    word_caches: list[NodeCache]
    conv: ConvCache
    lex_rows: list[tuple[str, int]]   # (embedding table name, row)
    combined: np.ndarray              # path representation + lexical features
    distribution: np.ndarray


def parameter_layout(config: TrainConfig, vocab: Vocabulary) -> dict[str, tuple]:
    """Name -> (shape, kind) of every tensor of a model with this
    configuration and vocabulary."""
    dim, dim_c = config.dim, config.dim_c
    layout = {
        WORD_EMB: ((len(vocab.words), dim), EMBEDDING),
        REL_EMB: ((len(vocab.relations), dim), EMBEDDING),
        COMP_BIAS: ((dim_c,), BIAS),
        LEAF_VEC: ((dim_c,), BIAS),
        PAD_WORD: ((dim + dim_c,), EMBEDDING),
        CONV_W: ((config.hidden, window_width(config.window, dim, dim_c)), WEIGHT),
        CONV_B: ((config.hidden,), BIAS),
    }
    for relation in vocab.comp_relations:
        layout[f"comp/{relation}"] = ((dim_c, dim + dim_c), WEIGHT)
    lex_width = 0
    if config.use_ner:
        layout[NER_EMB] = ((len(vocab.ner_tags), config.lex_dim), EMBEDDING)
        lex_width += 2 * config.lex_dim
    if config.use_wordnet:
        layout[WN_EMB] = ((len(vocab.wn_tags), config.lex_dim), EMBEDDING)
        lex_width += 2 * config.lex_dim
    layout[OUT_W] = ((len(LABELS), config.hidden + lex_width), WEIGHT)
    return layout


class Model:
    """A parameter store plus the vocabulary and configuration needed to run
    and train the classifier. Inference against a frozen model is safe from
    concurrent callers; training mutates and must stay single-threaded."""

    def __init__(self, config: TrainConfig, vocab: Vocabulary, store: ParameterStore):
        self.config = config
        self.vocab = vocab
        self.store = store
        self._rng = np.random.default_rng(config.seed)

    @classmethod
    def build(cls, config: TrainConfig, vocab: Vocabulary,
              embeddings: corpus.EmbeddingTable | None = None) -> "Model":
        if embeddings is not None and embeddings.dim != config.dim:
            raise corpus.DimensionMismatch(
                f"embeddings are {embeddings.dim}-d but the model wants {config.dim}-d")
        store = ParameterStore()
        for name, (shape, kind) in parameter_layout(config, vocab).items():
            store.register(name, shape, kind)
        init_uniform(store, config.seed)
        if embeddings is not None:
            table = store.value(WORD_EMB)
            for row, word in enumerate(vocab.words):
                table[row] = embeddings.unk if word == corpus.UNK else embeddings.lookup(word)
        return cls(config, vocab, store)

    # --- forward -------------------------------------------------------------

    def _build_adp(self, instance: Instance) -> AugmentedDependencyPath:
        try:
            steps = shortest_path(instance.graph, instance.e1.head_index,
                                  instance.e2.head_index)
        except (Disconnected, InvalidSpan) as exc:
            raise EmptyPath(f"instance {instance.id}: {exc}") from None
        return attach_subtrees(instance.graph, steps)

    def _lex_rows(self, instance: Instance) -> list[tuple[str, int]]:
        rows: list[tuple[str, int]] = []
        heads = (instance.graph.token(instance.e1.head_index),
                 instance.graph.token(instance.e2.head_index))
        if self.config.use_ner:
            rows += [(NER_EMB, self.vocab.ner_row(tok.ner_tag)) for tok in heads]
        if self.config.use_wordnet:
            rows += [(WN_EMB, self.vocab.wn_row(tok.wn_hypernym)) for tok in heads]
        return rows

    def _forward(self, instance: Instance) -> tuple[Prediction, _ForwardCache]:
        adp = self._build_adp(instance)
        word_caches = [
            encode_word(instance.graph, adp, word, self.store, self.vocab,
                        include_subtree=self.config.use_subtrees)
            for word in adp.path_tokens
        ]
        rel_labels = [directed_label(step.relation, step.direction)
                      for step in adp.steps[1:]]
        windows = build_windows(len(word_caches), self.config.window)
        conv = conv_forward(windows, [c.p for c in word_caches], rel_labels,
                            self.store, self.vocab, use_tanh=self.config.conv_tanh)
        lex_rows = self._lex_rows(instance)
        pieces = [conv.pooled] + [self.store.value(name)[row] for name, row in lex_rows]
        combined = np.concatenate(pieces) if len(pieces) > 1 else conv.pooled
        distribution = softmax(self.store.value(OUT_W) @ combined)
        prediction = Prediction(LABELS[int(np.argmax(distribution))],
                                distribution, conv.pooled.copy())
        return prediction, _ForwardCache(word_caches, conv, lex_rows,
                                         combined, distribution)

    def predict(self, instance: Instance) -> Prediction:
        return self._forward(instance)[0]

    def path_repr(self, instance: Instance) -> np.ndarray:
        return self.predict(instance).path_repr

    def evaluate_loss(self, instance: Instance) -> float:
        """Forward-only cross-entropy on a labeled instance."""
        prediction, _ = self._forward(instance)
        return cross_entropy(prediction.distribution, label_index(instance.gold))

    # --- backward ------------------------------------------------------------

    def _backward(self, cache: _ForwardCache, gold_idx: int) -> None:
        d_logits = cache.distribution.copy()
        d_logits[gold_idx] -= 1.0
        self.store.grad(OUT_W)[...] += np.outer(d_logits, cache.combined)
        d_combined = self.store.value(OUT_W).T @ d_logits

        hidden = cache.conv.pooled.size
        d_pooled = d_combined[:hidden]
        offset = hidden
        for name, row in cache.lex_rows:
            width = self.store.value(name).shape[1]
            self.store.grad(name)[row] += d_combined[offset:offset + width]
            offset += width

        d_words = conv_backward(cache.conv, d_pooled, self.store, self.vocab)
        for node_cache, d_p in zip(cache.word_caches, d_words):
            encode_backward(node_cache, d_p, self.store, self.vocab)

    def accumulate_gradients(self, instance: Instance) -> float:
        """Forward + backward without touching the parameters; returns the
        loss. Gradients add onto whatever is already in the buffers."""
        prediction, cache = self._forward(instance)
        gold_idx = label_index(instance.gold)
        loss = cross_entropy(prediction.distribution, gold_idx)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"instance {instance.id}: loss is {loss}")
        self._backward(cache, gold_idx)
        return loss

    def train_step(self, instance: Instance) -> float:
        """One SGD update on one instance; gradients are cleared afterward."""
        loss = self.accumulate_gradients(instance)
        self.store.sgd_step(self.config.learning_rate)
        self.store.zero_grads()
        return loss

    def train(self, instances, validation=None, progress=None,
              epochs: int | None = None) -> TrainReport:
        """Epochs of shuffled per-instance SGD. The shuffle stream continues
        across calls, so n calls of one epoch replay one call of n epochs."""
        if not instances:
            raise ValueError("training needs a non-empty dataset")
        report = TrainReport()
        n_epochs = self.config.epochs if epochs is None else epochs
        order = np.arange(len(instances))
        for epoch in range(n_epochs):
            if self.config.shuffle:
                self._rng.shuffle(order)
            total = 0.0
            for idx in order:
                total += self.train_step(instances[idx])
            mean_loss = total / len(instances)
            val_f1 = None
            if validation:
                gold = [inst.gold for inst in validation]
                pred = [self.predict(inst).label for inst in validation]
                val_f1 = score(gold, pred).macro_f1
            report.epoch_losses.append(mean_loss)
            report.val_f1.append(val_f1)
            if progress is not None:
                progress(epoch + 1, mean_loss, val_f1)
        return report

    # --- persistence ---------------------------------------------------------

    def save(self, path, precision: str = "f8") -> None:
        self.store.validate_finite()
        meta = {
            "format": "depnn-model",
            "config": self.config.to_dict(),
            "vocab": self.vocab.to_dict(),
            "labels": list(LABELS),
        }
        save_store(path, self.store, meta, precision=precision)

    @classmethod
    def load(cls, path) -> "Model":
        store, meta = load_store(path)
        if meta.get("format") != "depnn-model":
            raise ModelFileMismatch(f"{path}: not a classifier model file")
        if tuple(meta["labels"]) != LABELS:
            raise ModelFileMismatch(f"{path}: label set does not match this build")
        config = TrainConfig.from_dict(meta["config"])
        vocab = Vocabulary.from_dict(meta["vocab"])
        layout = parameter_layout(config, vocab)
        for name in sorted(layout.keys() | set(store.names())):
            found = (store.value(name).shape, store.kind(name)) if name in store else None
            if found != layout.get(name):
                raise ModelFileMismatch(
                    f"{path}: tensor {name!r} should be (shape, kind) "
                    f"{layout.get(name, 'absent')}, found {found or 'none'}")
        return cls(config, vocab, store)
