"""The relation classifier: instance compilation, lexical features, softmax
output, cross-entropy loss, and the per-instance SGD training loop."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import corpus
from .adp import shortest_path
from .corpus import LABELS, Instance, UnknownLabel, Vocabulary, label_index
from .evaluation import score
from .numerics import (BIAS, EMBEDDING, WEIGHT, Gradient, NonFiniteLoss, ParameterStore,
                       RowPlan, init_uniform, load_store, row_plan, save_store, softmax)
from .path_cnn import (CONV_B, CONV_W, ConvCache, InvalidWindowSize, build_windows,
                       check_window_size, conv_backward, conv_forward, relation_rows,
                       window_width, word_slots)
from .subtree import (COMP_BIAS, LEAF_VEC, PAD_WORD, PARENT, PATH, REL_EMB, ROW, WORD_EMB,
                      comp_names, compile_nodes, encode, encode_backward)

NER_EMB = "ner_emb"
WN_EMB = "wn_emb"
OUT_W = "out_w"

# dim_c and hidden-layer settings tuned per pretrained embedding size
_DIM_DEFAULTS = {50: (25, 200), 200: (100, 400)}


class EmptyDataset(ValueError):
    pass


class InvalidConfig(ValueError):
    """A TrainConfig value outside its range."""


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
            raise InvalidConfig("all dimensions must be positive")
        check_window_size(self.window)
        # zero is allowed so a no-op step stays expressible for diagnostics;
        # nan < 0 is false, so a NaN rate needs the finiteness test
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise InvalidConfig(f"learning rate must be finite and non-negative, "
                                f"got {self.learning_rate}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be non-negative, got {self.seed}")
        if self.epochs < 0:
            raise InvalidConfig("epochs must be non-negative")

    @classmethod
    def for_embedding_dim(cls, dim: int, **overrides) -> "TrainConfig":
        """Defaults keyed by embedding size: 50-d -> dim_c 25, hidden 200;
        200-d -> dim_c 100, hidden 400; otherwise scaled from dim."""
        dim_c, hidden = _DIM_DEFAULTS.get(dim, (max(1, dim // 2), 4 * dim))
        merged = {"dim": dim, "dim_c": dim_c, "hidden": hidden}
        merged.update(overrides)
        return cls(**merged)


@dataclass
class Prediction:
    label: str
    distribution: np.ndarray      # over the 19 labels, sums to 1


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    val_f1: list[float | None] = field(default_factory=list)


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


@dataclass(frozen=True, slots=True)
class CompiledInstance:
    """An instance as one model reads it, looked up once: integers only,
    valid for the vocabulary and configuration it was compiled with. The
    RowPlans sum a training step's embedding rows; prediction compiles the
    two built per instance as None."""
    id: int
    gold: int | None          # label index; None when unlabeled
    schedule: np.ndarray      # subtree.compile_nodes' schedule of the path's nodes
    rel_rows: np.ndarray      # path_cnn.relation_rows, sentinels included
    windows: np.ndarray       # path_cnn.build_windows' index, shared by paths of one length
    lex_rows: np.ndarray      # per Model._lex_tables entry, the two entity heads' rows
    word_rows: RowPlan | None         # of the schedule's word rows
    rel_slots: RowPlan | None         # of the relation rows in the windows' relation slots
    word_slots: RowPlan               # of the windows' word slots, shared with them
    lex_plans: tuple[RowPlan, ...]    # per lexical table, of its rows; shared


@dataclass
class _ForwardCache:
    nodes: np.ndarray                 # p = [x, c] of every scheduled node
    conv: ConvCache
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
    for name in comp_names(vocab):
        layout[name] = ((dim_c, dim + dim_c), WEIGHT)
    lex_width = 0
    if config.use_ner:
        layout[NER_EMB] = ((len(vocab.ner_tags), config.lex_dim), EMBEDDING)
        lex_width += 2 * config.lex_dim
    if config.use_wordnet:
        layout[WN_EMB] = ((len(vocab.wn_tags), config.lex_dim), EMBEDDING)
        lex_width += 2 * config.lex_dim
    layout[OUT_W] = ((len(LABELS), config.hidden + lex_width), WEIGHT)
    return layout


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# (description, check) of a model file's metadata values, per field
_OBJECT = ("an object", lambda v: isinstance(v, dict))
_STRINGS = ("a list of strings",
            lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v))
_TYPE_CHECKS = {
    "int": ("an integer", _is_int),
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
}
_META_CHECKS = {"format": ("a string", lambda v: isinstance(v, str)),
                "labels": _STRINGS, "config": _OBJECT, "vocab": _OBJECT}
_CONFIG_CHECKS = {f.name: _TYPE_CHECKS[f.type] for f in fields(TrainConfig)}
_VOCAB_CHECKS = {f.name: _STRINGS for f in fields(Vocabulary)}


def _check_fields(path, data: dict, checks: dict, prefix: str = "") -> None:
    """Raise ModelFileMismatch naming the first field of `data` that is
    unknown, missing or fails its check."""
    for key in sorted(data.keys() | checks.keys()):
        field_name = prefix + key
        if key not in checks:
            raise ModelFileMismatch(f"{path}: metadata field {field_name!r} is unknown")
        if key not in data:
            raise ModelFileMismatch(f"{path}: metadata field {field_name!r} is missing")
        description, check = checks[key]
        if not check(data[key]):
            raise ModelFileMismatch(
                f"{path}: metadata field {field_name!r} should be {description}")


class Model:
    """A parameter store plus the vocabulary and configuration needed to run
    and train the classifier. Inference against a frozen model is safe from
    concurrent callers; training mutates and must stay single-threaded."""

    def __init__(self, config: TrainConfig, vocab: Vocabulary, store: ParameterStore):
        self.config = config
        self.vocab = vocab
        self.store = store
        self._rng = np.random.default_rng(config.seed)
        self._comp_names = comp_names(vocab)
        # per path length: build_windows' index, the RowPlan of its word slots, its relation slots
        self._windows: dict[int, tuple[np.ndarray, RowPlan, np.ndarray]] = {}
        self._lex_plans: dict[tuple[int, ...], tuple[RowPlan, ...]] = {}   # per lex_rows
        # the lexical tables, each read at both entity heads
        self._lex_tables = (([NER_EMB] if config.use_ner else [])
                            + ([WN_EMB] if config.use_wordnet else []))

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

    # --- compilation ----------------------------------------------------------

    def compile(self, instance: Instance, plans: bool = True) -> CompiledInstance:
        """Look the instance up once: its path, the subtrees attached to it,
        the windows over it and the entity heads' lexical tags, as rows of
        this model's tensors, and the RowPlans of a training step. plans=False
        leaves out the two built per instance, which prediction does not read
        and which cost about as much as the rest."""
        graph = instance.graph
        tokens, labels = shortest_path(graph, instance.e1.head_index, instance.e2.head_index)
        schedule = compile_nodes(graph, tokens, self.vocab, self.config.use_subtrees)
        rel_rows = relation_rows(labels, self.vocab)
        heads = (instance.e1.head_index, instance.e2.head_index)
        lex_rows = tuple(self.vocab.ner_row(graph.ner_tags[head]) if table == NER_EMB
                         else self.vocab.wn_row(graph.wn_tags[head])
                         for table in self._lex_tables for head in heads)
        if lex_rows not in self._lex_plans:
            self._lex_plans[lex_rows] = tuple(map(row_plan, np.reshape(lex_rows, (-1, 2))))
        if len(tokens) not in self._windows:
            index = build_windows(len(tokens), self.config.window)
            index.flags.writeable = False
            is_word = word_slots(self.config.window)
            self._windows[len(tokens)] = index, row_plan(index[:, is_word]), index[:, ~is_word]
        windows, word_slot_plan, rel_slots = self._windows[len(tokens)]
        gold = None if instance.gold is None else label_index(instance.gold)
        return CompiledInstance(
            instance.id, gold, schedule, rel_rows, windows,
            np.array(lex_rows, dtype=np.int32).reshape(-1, 2),
            row_plan(schedule[ROW]) if plans else None,
            row_plan(rel_rows[rel_slots]) if plans else None,
            word_slot_plan, self._lex_plans[lex_rows])

    # --- forward -------------------------------------------------------------

    def _forward(self, compiled: CompiledInstance) -> _ForwardCache:
        schedule = compiled.schedule
        nodes = encode(schedule, self.store, self._comp_names)
        conv = conv_forward(compiled.windows, compiled.rel_rows,
                            nodes[schedule[PARENT] == PATH], self.store,
                            use_tanh=self.config.conv_tanh)
        pieces = [conv.pooled] + [self.store.value(name)[rows].ravel() for name, rows
                                  in zip(self._lex_tables, compiled.lex_rows)]
        combined = np.concatenate(pieces) if len(pieces) > 1 else conv.pooled
        distribution = softmax(self.store.value(OUT_W) @ combined)
        return _ForwardCache(nodes, conv, combined, distribution)

    def _predict(self, compiled: CompiledInstance) -> Prediction:
        distribution = self._forward(compiled).distribution
        return Prediction(LABELS[int(np.argmax(distribution))], distribution)

    def predict(self, instance: Instance) -> Prediction:
        return self._predict(self.compile(instance, plans=False))

    def path_repr(self, instance: Instance) -> np.ndarray:
        """The pooled convolution output of the instance's path."""
        return self._forward(self.compile(instance, plans=False)).conv.pooled

    def evaluate_loss(self, compiled: CompiledInstance) -> tuple[float, np.ndarray]:
        """Forward-only cross-entropy on a labeled instance, with the
        max-pool winners it took, as numerics.gradient_check reads them."""
        cache = self._forward(compiled)
        return cross_entropy(cache.distribution, self._gold(compiled)), cache.conv.argmax

    @staticmethod
    def _gold(compiled: CompiledInstance) -> int:
        if compiled.gold is None:
            raise UnknownLabel(f"instance {compiled.id} has no gold label")
        return compiled.gold

    # --- backward ------------------------------------------------------------

    def _backward(self, compiled: CompiledInstance, cache: _ForwardCache,
                  gradient: Gradient) -> None:
        d_logits = cache.distribution.copy()
        d_logits[compiled.gold] -= 1.0
        d_combined = self.store.value(OUT_W).T @ d_logits
        # a training step's Gradient updates out_w here, once d_combined is formed
        gradient.step(OUT_W, ..., d_logits[:, None] * cache.combined)

        hidden = cache.conv.pooled.size
        # one step per table: a row that both heads share sums both deltas first
        d_lex = d_combined[hidden:].reshape(-1, 2, self.config.lex_dim)
        for name, plan, d_rows in zip(self._lex_tables, compiled.lex_plans, d_lex):
            gradient.step(name, plan, d_rows)

        d_path = conv_backward(cache.conv, d_combined[:hidden], self.store, gradient,
                               compiled.word_slots, compiled.rel_slots)
        encode_backward(compiled.schedule, compiled.word_rows, cache.nodes, d_path, self.store,
                        gradient, self._comp_names)

    def accumulate_gradients(self, compiled: CompiledInstance, gradient: Gradient) -> float:
        """Forward + backward; returns the loss. The instance's gradient adds
        onto what `gradient` holds, or, with a learning rate, steps every
        tensor during the backward pass."""
        cache = self._forward(compiled)
        loss = cross_entropy(cache.distribution, self._gold(compiled))
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"instance {compiled.id}: loss is {loss}")
        self._backward(compiled, cache, gradient)
        return loss

    def train_step(self, compiled: CompiledInstance) -> float:
        """One SGD update on one instance: every tensor, the embedding rows
        the instance read included, takes its step inside the backward pass."""
        return self.accumulate_gradients(compiled, Gradient(self.store,
                                                            self.config.learning_rate))

    def train(self, instances, validation=None, progress=None,
              epochs: int | None = None) -> TrainReport:
        """Epochs of shuffled per-instance SGD. The shuffle stream continues
        across calls, so n calls of one epoch replay one call of n epochs.
        Every instance is compiled once per call, before the first step, and
        every pending step is applied before it returns."""
        if not instances:
            raise EmptyDataset("training needs a non-empty dataset")
        compiled = [self.compile(inst) for inst in instances]
        held_out = [self.compile(inst, plans=False) for inst in validation or ()]
        report = TrainReport()
        n_epochs = self.config.epochs if epochs is None else epochs
        order = np.arange(len(instances))
        for epoch in range(n_epochs):
            if self.config.shuffle:
                self._rng.shuffle(order)
            total = 0.0
            for idx in order:
                total += self.train_step(compiled[idx])
            mean_loss = total / len(instances)
            val_f1 = None
            if validation:
                gold = [inst.gold for inst in validation]
                pred = [self._predict(held).label for held in held_out]
                val_f1 = score(gold, pred).macro_f1
            report.epoch_losses.append(mean_loss)
            report.val_f1.append(val_f1)
            if progress is not None:
                progress(epoch + 1, mean_loss, val_f1)
        self.store.apply_pending()
        return report

    # --- persistence ---------------------------------------------------------

    def save(self, path, precision: str = "f8") -> None:
        self.store.validate_finite()
        meta = {
            "format": "depnn-model",
            "config": asdict(self.config),
            # each field's tuple as is: asdict would copy every entry
            "vocab": {f.name: getattr(self.vocab, f.name) for f in fields(Vocabulary)},
            "labels": list(LABELS),
        }
        save_store(path, self.store, meta, precision=precision)

    @classmethod
    def load(cls, path) -> "Model":
        store, meta = load_store(path)
        if meta.get("format") != "depnn-model":
            raise ModelFileMismatch(f"{path}: metadata field 'format' should be 'depnn-model'")
        _check_fields(path, meta, _META_CHECKS)
        _check_fields(path, meta["config"], _CONFIG_CHECKS, "config.")
        _check_fields(path, meta["vocab"], _VOCAB_CHECKS, "vocab.")
        if tuple(meta["labels"]) != LABELS:
            raise ModelFileMismatch(f"{path}: label set does not match this build")
        try:
            config = TrainConfig(**meta["config"])
        except (InvalidConfig, InvalidWindowSize) as exc:
            raise ModelFileMismatch(f"{path}: metadata field 'config': {exc}") from None
        try:
            vocab = Vocabulary(**{name: tuple(entries)
                                  for name, entries in meta["vocab"].items()})
        except corpus.VocabularyError as exc:
            raise ModelFileMismatch(
                f"{path}: metadata field 'vocab.{exc.field}': {exc}") from None
        layout = parameter_layout(config, vocab)
        for name in sorted(layout.keys() | set(store.names())):
            found = (store.value(name).shape, store.kind(name)) if name in store else None
            if found != layout.get(name):
                raise ModelFileMismatch(
                    f"{path}: tensor {name!r} should be (shape, kind) "
                    f"{layout.get(name, 'absent')}, found {found or 'none'}")
        return cls(config, vocab, store)
