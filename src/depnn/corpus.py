"""Corpus ingestion: SemEval-2010 task-8 raw files, the parsed-instance
interchange format, pretrained embedding tables, vocabulary construction,
and label-set bookkeeping."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP

import numpy as np

from .adp import (Arc, DependencyGraph, EntityMention, InvalidSpan, Token,
                  TreeViolation, entity_mention)

RELATION_TYPES = (
    "Cause-Effect",
    "Component-Whole",
    "Content-Container",
    "Entity-Destination",
    "Entity-Origin",
    "Instrument-Agency",
    "Member-Collection",
    "Message-Topic",
    "Product-Producer",
)
OTHER_LABEL = "Other"

LABELS = tuple(
    f"{t}({order})" for t in RELATION_TYPES for order in ("e1,e2", "e2,e1")
) + (OTHER_LABEL,)

_LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}

UNK = "<unk>"
PATH_START = "<path-start>"
PATH_END = "<path-end>"
DEFAULT_RELATION = "<default>"

INSTANCE_FORMAT_HEADER = "DEPNN-INST 1"


class UnknownLabel(KeyError):
    pass


class FormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class SpanError(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class AlignmentError(ValueError):
    pass


def label_index(label: str) -> int:
    try:
        return _LABEL_INDEX[label]
    except KeyError:
        raise UnknownLabel(label) from None


def label_type(label: str) -> str:
    """Fold a directional label onto its relation type; Other maps to itself."""
    if label == OTHER_LABEL:
        return OTHER_LABEL
    base = label.split("(", 1)[0]
    if base not in RELATION_TYPES or label not in _LABEL_INDEX:
        raise UnknownLabel(label)
    return base


@dataclass
class Instance:
    """One classification problem: a parsed sentence, two entity mentions,
    and (in training data) the gold relation label."""
    id: int
    graph: DependencyGraph
    e1: EntityMention
    e2: EntityMention
    gold: str | None = None

    def __post_init__(self):
        for mention in (self.e1, self.e2):
            for idx in (mention.start, mention.end, mention.head_index):
                if not self.graph.has_token(idx):
                    raise SpanError(f"instance {self.id}: span index {idx} has no token")
            if not mention.start <= mention.head_index <= mention.end:
                raise SpanError(f"instance {self.id}: head outside span {mention}")
        if set(range(self.e1.start, self.e1.end + 1)) & set(range(self.e2.start, self.e2.end + 1)):
            raise SpanError(f"instance {self.id}: entity spans overlap")

    @property
    def tokens(self):
        return self.graph.tokens


# --- SemEval raw format ----------------------------------------------------

_SENTENCE_RE = re.compile(r'^(\d+)\t"(.*)"$')
_MARKER_RE = re.compile(r"<e([12])>(.*?)</e\1>", re.S)


@dataclass
class RawRecord:
    id: int
    text: str                 # marker-free sentence
    e1_span: tuple[int, int]  # character offsets into text, end exclusive
    e2_span: tuple[int, int]
    label: str | None = None
    comment: str | None = None


def _strip_markers(marked: str, line_no: int) -> tuple[str, tuple[int, int], tuple[int, int]]:
    spans: dict[str, tuple[int, int]] = {}
    text = []
    cursor = 0
    out_len = 0
    for match in _MARKER_RE.finditer(marked):
        which, inner = match.group(1), match.group(2)
        if which in spans:
            raise FormatError(f"duplicate <e{which}> marker", line_no)
        text.append(marked[cursor:match.start()])
        out_len += match.start() - cursor
        spans[which] = (out_len, out_len + len(inner))
        text.append(inner)
        out_len += len(inner)
        cursor = match.end()
    text.append(marked[cursor:])
    if set(spans) != {"1", "2"}:
        raise FormatError("sentence must contain exactly one <e1> and one <e2> marker", line_no)
    return "".join(text), spans["1"], spans["2"]


def read_semeval_raw(path) -> list[RawRecord]:
    """Parse the official marked-sentence / label / comment block format."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\r") for line in fh.read().split("\n")]

    records: list[RawRecord] = []
    i = 0
    n = len(lines)
    while i < n:
        if not lines[i].strip():
            i += 1
            continue
        line_no = i + 1
        match = _SENTENCE_RE.match(lines[i])
        if not match:
            raise FormatError("expected '<id>\\t\"<sentence>\"'", line_no)
        rec_id = int(match.group(1))
        text, e1_span, e2_span = _strip_markers(match.group(2), line_no)
        i += 1

        label = None
        comment = None
        if i < n and lines[i].strip() and not lines[i].startswith("Comment"):
            label = lines[i].strip()
            if label not in _LABEL_INDEX:
                raise FormatError(f"unknown relation label {label!r}", i + 1)
            i += 1
        if i < n and lines[i].startswith("Comment"):
            comment = lines[i].split(":", 1)[1].strip() if ":" in lines[i] else ""
            i += 1
        if i < n and lines[i].strip():
            raise FormatError("expected blank separator after instance block", i + 1)
        records.append(RawRecord(rec_id, text, e1_span, e2_span, label, comment))
    return records


# --- parsed-instance interchange format ------------------------------------

def _instance_to_record(instance: Instance) -> dict:
    tokens = []
    for tok in instance.graph.tokens:
        if tok.index in instance.graph.inactive:
            head, rel = -1, None
        else:
            arc = instance.graph.head_arc(tok.index)
            head = arc.head if arc is not None else 0
            rel = arc.relation if arc is not None else "root"
        tokens.append([tok.form, tok.lemma, head, rel, tok.ner_tag, tok.wn_hypernym])
    return {
        "id": instance.id,
        "tokens": tokens,
        "e1": [instance.e1.start, instance.e1.end],
        "e2": [instance.e2.start, instance.e2.end],
        "label": instance.gold,
    }


def _instance_from_record(record: dict, line_no: int) -> Instance:
    rec_id = record["id"]
    tokens = []
    arcs = []
    inactive = []
    for pos, row in enumerate(record["tokens"], start=1):
        form, lemma, head, rel, ner, wn = row
        tokens.append(Token(pos, form, lemma, ner, wn))
        if head == -1:
            inactive.append(pos)
        elif head == 0:
            arcs.append(Arc(0, pos, rel or "root"))
        else:
            arcs.append(Arc(head, pos, rel))
    try:
        graph = DependencyGraph(tokens, arcs, inactive)
    except TreeViolation as exc:
        raise TreeViolation(f"instance {rec_id}: {exc}") from None
    try:
        e1 = entity_mention(graph, *record["e1"])
        e2 = entity_mention(graph, *record["e2"])
    except InvalidSpan as exc:
        raise SpanError(f"instance {rec_id}: {exc}") from None
    label = record.get("label")
    if label is not None:
        label_index(label)
    return Instance(rec_id, graph, e1, e2, label)


def write_parsed_instances(path, instances) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(INSTANCE_FORMAT_HEADER + "\n")
        for instance in instances:
            fh.write(json.dumps(_instance_to_record(instance), sort_keys=True) + "\n")


def read_parsed_instances(path) -> list[Instance]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != INSTANCE_FORMAT_HEADER:
            raise FormatError(f"expected header {INSTANCE_FORMAT_HEADER!r}, got {header!r}", 1)
        instances = []
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"bad record: {exc}", line_no) from None
            instances.append(_instance_from_record(record, line_no))
    return instances


# --- parse-annotation blocks and marker alignment ---------------------------

def read_parse_blocks(path) -> dict[int, list[list]]:
    """Token tables produced by an external parser, one block per instance.

    A block starts with '#id <n>' and holds one TAB-separated token row per
    line: index, form, lemma, head, relation, then optional ner and wordnet
    columns. '_' marks an absent value; head -1 marks a token folded out of
    the tree (collapsed prepositions).
    """
    blocks: dict[int, list[list]] = {}
    current: list[list] | None = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                current = None
                continue
            if line.startswith("#id"):
                try:
                    rec_id = int(line.split()[1])
                except (IndexError, ValueError):
                    raise FormatError("bad '#id <n>' line", line_no) from None
                if rec_id in blocks:
                    raise FormatError(f"duplicate #id {rec_id}", line_no)
                current = blocks.setdefault(rec_id, [])
                continue
            if current is None:
                raise FormatError("token row outside any '#id' block", line_no)
            cols = line.split("\t")
            if len(cols) < 5:
                raise FormatError("token row needs at least 5 columns", line_no)
            cols = [None if c == "_" else c for c in cols] + [None] * (7 - len(cols))
            try:
                index = int(cols[0])
                head = int(cols[3])
            except (TypeError, ValueError):
                raise FormatError("index and head must be integers", line_no) from None
            if index != len(current) + 1:
                raise FormatError(f"token index {index} out of order", line_no)
            current.append([cols[1], cols[2], head, cols[4], cols[5], cols[6]])
    return blocks


def align_instance(raw: RawRecord, token_rows: list[list]) -> Instance:
    """Map the raw record's entity character spans onto token spans by
    locating each token form in the marker-free sentence."""
    spans = []
    cursor = 0
    for row in token_rows:
        form = row[0]
        at = raw.text.find(form, cursor)
        if at < 0:
            raise AlignmentError(f"instance {raw.id}: token {form!r} not found in sentence")
        spans.append((at, at + len(form)))
        cursor = at + len(form)

    def covering(char_span):
        touched = [i + 1 for i, (s, e) in enumerate(spans)
                   if s < char_span[1] and e > char_span[0]]
        if not touched:
            raise AlignmentError(f"instance {raw.id}: no tokens under entity span {char_span}")
        return min(touched), max(touched)

    record = {
        "id": raw.id,
        "tokens": token_rows,
        "e1": list(covering(raw.e1_span)),
        "e2": list(covering(raw.e2_span)),
        "label": raw.label,
    }
    return _instance_from_record(record, 0)


def convert(raw_records, parse_blocks) -> tuple[list[Instance], list[tuple[int, str]]]:
    """Join raw records with parse blocks by id; unalignable instances are
    reported rather than guessed at."""
    instances = []
    failures = []
    for raw in raw_records:
        rows = parse_blocks.get(raw.id)
        if rows is None:
            failures.append((raw.id, "no parse block with this id"))
            continue
        try:
            instances.append(align_instance(raw, rows))
        except (AlignmentError, SpanError, TreeViolation) as exc:
            failures.append((raw.id, str(exc)))
    return instances, failures


# --- embeddings -------------------------------------------------------------

@dataclass
class EmbeddingTable:
    dim: int
    vectors: dict[str, np.ndarray]
    unk: np.ndarray

    def lookup(self, word: str) -> np.ndarray:
        hit = self.vectors.get(word)
        if hit is None:
            hit = self.vectors.get(word.lower())
        return self.unk if hit is None else hit

    def __len__(self) -> int:
        return len(self.vectors)


def load_embeddings(path, expected_dim: int | None = None) -> EmbeddingTable:
    """Read 'word v1 .. vd' lines; a leading 'count dim' header is skipped.
    The UNK vector is the arithmetic mean of all loaded vectors."""
    vectors: dict[str, np.ndarray] = {}
    dim = expected_dim
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if line_no == 1 and len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts):
                continue  # count/dim header
            word, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
            if len(values) != dim:
                raise DimensionMismatch(
                    f"line {line_no}: expected {dim} values for {word!r}, got {len(values)}")
            try:
                vectors[word] = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                raise FormatError(f"non-numeric embedding value for {word!r}", line_no) from None
    if dim is None:
        raise FormatError("embedding file is empty and no dimension was given")
    if vectors:
        unk = np.mean(np.stack(list(vectors.values())), axis=0)
    else:
        unk = np.zeros(dim)
    return EmbeddingTable(dim, vectors, unk)


# --- vocabulary -------------------------------------------------------------

@dataclass
class Vocabulary:
    """Row assignments for words, path relations, composition-matrix keys,
    and lexical tags. Lookups are total: absent entries fall back to UNK
    rows (or the shared DEFAULT composition matrix)."""
    words: tuple[str, ...]
    relations: tuple[str, ...]       # directed path labels + sentinels
    comp_relations: tuple[str, ...]  # composition-matrix keys
    ner_tags: tuple[str, ...]
    wn_tags: tuple[str, ...]

    def __post_init__(self):
        self._word_index = {w: i for i, w in enumerate(self.words)}
        self._relation_index = {r: i for i, r in enumerate(self.relations)}
        self._comp = set(self.comp_relations)
        self._ner_index = {t: i for i, t in enumerate(self.ner_tags)}
        self._wn_index = {t: i for i, t in enumerate(self.wn_tags)}

    @classmethod
    def build(cls, instances) -> "Vocabulary":
        forms: set[str] = set()
        base_relations: set[str] = set()
        ner: set[str] = set()
        wn: set[str] = set()
        for instance in instances:
            for tok in instance.graph.tokens:
                forms.add(tok.form)
                if tok.ner_tag is not None:
                    ner.add(tok.ner_tag)
                if tok.wn_hypernym is not None:
                    wn.add(tok.wn_hypernym)
            for arc in instance.graph.arcs:
                if arc.head != 0:
                    base_relations.add(arc.relation)
        directed = sorted(base_relations | {r + "_inv" for r in base_relations})
        return cls(
            words=(UNK,) + tuple(sorted(forms)),
            relations=(UNK, PATH_START, PATH_END) + tuple(directed),
            comp_relations=(DEFAULT_RELATION,) + tuple(sorted(base_relations)),
            ner_tags=(UNK,) + tuple(sorted(ner)),
            wn_tags=(UNK,) + tuple(sorted(wn)),
        )

    def word_row(self, form: str) -> int:
        row = self._word_index.get(form)
        if row is None:
            row = self._word_index.get(form.lower())
        if row is None:
            row = self._word_index.get(UNK)
        if row is None:
            raise LookupError("vocabulary has no UNK word entry")
        return row

    def relation_row(self, label: str) -> int:
        row = self._relation_index.get(label)
        if row is None:
            row = self._relation_index.get(UNK)
        if row is None:
            raise LookupError("vocabulary has no UNK relation entry")
        return row

    def comp_name(self, relation: str) -> str:
        """Parameter-store name of the composition matrix for a relation."""
        key = relation if relation in self._comp else DEFAULT_RELATION
        return f"comp/{key}"

    def ner_row(self, tag: str | None) -> int:
        return self._ner_index.get(tag, self._ner_index[UNK]) if tag else self._ner_index[UNK]

    def wn_row(self, tag: str | None) -> int:
        return self._wn_index.get(tag, self._wn_index[UNK]) if tag else self._wn_index[UNK]

    def to_dict(self) -> dict:
        return {
            "words": list(self.words),
            "relations": list(self.relations),
            "comp_relations": list(self.comp_relations),
            "ner_tags": list(self.ner_tags),
            "wn_tags": list(self.wn_tags),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Vocabulary":
        return cls(tuple(data["words"]), tuple(data["relations"]),
                   tuple(data["comp_relations"]), tuple(data["ner_tags"]),
                   tuple(data["wn_tags"]))


# --- dataset statistics ------------------------------------------------------

@dataclass
class CorpusStats:
    total: int
    by_type: dict[str, int]   # folded relation types plus Other

    def percent(self, rel_type: str) -> Decimal:
        if self.total == 0:
            return Decimal("0.00")
        return (Decimal(self.by_type.get(rel_type, 0) * 100) / Decimal(self.total)
                ).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)

    def lines(self) -> list[str]:
        order = sorted(self.by_type, key=lambda t: (-self.by_type[t], t))
        out = [f"{t:<20} {self.by_type[t]:>6} ({self.percent(t)}%)" for t in order]
        out.append(f"{'Total':<20} {self.total:>6} (100.00%)" if self.total else
                   f"{'Total':<20} {self.total:>6} (0.00%)")
        return out


def dataset_stats(labels) -> CorpusStats:
    """Per-relation-type counts with directions folded, as reported for the
    dataset; percentages are half-up rounded to two decimals."""
    by_type = {t: 0 for t in RELATION_TYPES}
    by_type[OTHER_LABEL] = 0
    total = 0
    for label in labels:
        if label is None:
            raise ValueError("dataset_stats needs labeled data")
        by_type[label_type(label)] += 1
        total += 1
    return CorpusStats(total, by_type)
