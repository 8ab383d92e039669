"""Corpus ingestion: SemEval-2010 task-8 raw files, the parsed-instance
interchange format, pretrained embedding tables, vocabulary construction,
and label-set bookkeeping."""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, fields
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path

import numpy as np

from .adp import (INVERSE_SUFFIX, DependencyGraph, EntityMention, InvalidSpan, TreeViolation,
                  entity_mention)

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
    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message if path is None else f"{path}: {message}")
        self.line = line
        self.path = path


class DimensionMismatch(ValueError):
    pass


class AlignmentError(ValueError):
    pass


class VocabularyError(ValueError):
    """A vocabulary field without an entry that its lookups fall back to,
    or listing an entry twice, so that one of its rows is never read."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"vocabulary {field} {problem}")
        self.field = field


@contextmanager
def open_utf8(path):
    """Open a text file to read as UTF-8. Bytes that are not UTF-8 raise a
    FormatError naming the file, the line and the column of the first one,
    and a FormatError raised inside the block gains the file's name."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except FormatError as exc:
        if exc.path is None:
            exc.path = path
            exc.args = (f"{path}: {exc}",)
        raise
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = data[:exc.start]
            column = exc.start - before.rfind(b"\n")
            raise FormatError(f"byte 0x{data[exc.start]:02x} at column {column} is not UTF-8",
                              before.count(b"\n") + 1, path) from None
        raise


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


@dataclass(slots=True)
class Instance:
    """One classification problem: a parsed sentence, two entity mentions,
    and (in training data) the gold relation label."""
    id: int
    graph: DependencyGraph
    e1: EntityMention
    e2: EntityMention
    gold: str | None = None

    def __post_init__(self):
        """Both entity heads are active tokens of the one tree, each inside
        its own span, and the spans do not overlap: so the instance has a
        path between its heads."""
        heads = self.graph.heads
        for mention in (self.e1, self.e2):
            for idx in (mention.start, mention.end, mention.head_index):
                if not 0 < idx < len(heads):
                    raise InvalidSpan(f"span index {idx} has no token")
            if not mention.start <= mention.head_index <= mention.end:
                raise InvalidSpan(f"head outside span {mention}")
            if heads[mention.head_index] == -1:
                raise InvalidSpan(f"head {mention.head_index} is not in the tree")
        if self.e1.start <= self.e2.end and self.e2.start <= self.e1.end:
            raise InvalidSpan("entity spans overlap")


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
    with open_utf8(path) as fh:
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
            try:
                rec_id = int(match.group(1))
            except ValueError:      # more digits than int() converts
                raise FormatError("instance id is too long", line_no) from None
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
    graph = instance.graph
    rows = zip(graph.forms, graph.lemmas, graph.heads, graph.relations, graph.ner_tags,
               graph.wn_tags)
    next(rows)      # slot 0, the root's virtual head
    return {
        "id": instance.id,
        "tokens": [[form, lemma, head, "root" if head == 0 else rel, ner, wn]
                   for form, lemma, head, rel, ner, wn in rows],
        "e1": [instance.e1.start, instance.e1.end],
        "e2": [instance.e2.start, instance.e2.end],
        "label": instance.gold,
    }


_TEXT = (str, type(None))


def _is_int(value) -> bool:
    return type(value) is int


def _check_arc(head: int, relation: str | None, pos: int, line_no: int,
               checked: set[str]) -> None:
    """An arc from a head other than the root needs a relation. A relation
    names its composition matrix in the model file's ASCII manifest, whose
    fields are TAB-separated lines; named like a reserved entry or a
    directed label (INVERSE_SUFFIX), it would share their row. `checked`
    holds the relations of this read that passed: a relation's checks
    depend on its string alone, so a reader calls this only for a relation
    not in it, and a missing relation's head rule runs per token."""
    if relation is None:
        if head not in (0, -1):
            raise FormatError(f"token {pos}: an arc from head {head} needs a relation", line_no)
        return
    if not (relation.isascii() and "\t" not in relation and "\n" not in relation):
        raise FormatError(f"token {pos}: relation {relation!r} must be ASCII without "
                          "TAB or newline", line_no)
    if relation in RESERVED_RELATIONS or relation.endswith(INVERSE_SUFFIX):
        raise FormatError(f"token {pos}: relation {relation!r} is reserved: no relation ends "
                          f"in {INVERSE_SUFFIX!r} or is {', '.join(RESERVED_RELATIONS)}", line_no)
    checked.add(relation)


def _check_record(record, line_no: int, checked: set[str]) -> None:
    """Raise FormatError unless the record has the fields, the field types
    and the token rows that _instance_to_record writes, and a label of the
    label set or none; `checked` is _check_arc's."""
    if not isinstance(record, dict):
        raise FormatError("record must be a JSON object", line_no)
    for key in ("id", "tokens", "e1", "e2"):
        if key not in record:
            raise FormatError(f"record has no {key!r} field", line_no)
    if not _is_int(record["id"]):
        raise FormatError("'id' must be an integer", line_no)
    if not isinstance(record["tokens"], list):
        raise FormatError("'tokens' must be a list of token rows", line_no)
    for key in ("e1", "e2"):
        span = record[key]
        if not isinstance(span, list) or len(span) != 2 or not all(map(_is_int, span)):
            raise FormatError(f"{key!r} must be a [start, end] pair of integers", line_no)
    label = record.get("label")
    if type(label) not in _TEXT:
        raise FormatError("'label' must be a string or null", line_no)
    if label is not None and label not in _LABEL_INDEX:
        raise FormatError(f"unknown relation label {label!r}", line_no)
    # exact type tests: this loop runs once per token of every record read
    for pos, row in enumerate(record["tokens"], start=1):
        if type(row) is not list or len(row) != 6:
            raise FormatError(f"token {pos}: expected a row of 6 columns "
                              "[form, lemma, head, relation, ner, wordnet]", line_no)
        form, lemma, head, rel, ner, wn = row
        if (type(form) is not str or type(head) is not int or type(lemma) not in _TEXT
                or type(rel) not in _TEXT or type(ner) not in _TEXT or type(wn) not in _TEXT):
            raise FormatError(f"token {pos}: form must be a string, head an integer, "
                              "and lemma, relation, ner and wordnet strings or null", line_no)
        if rel not in checked:
            _check_arc(head, rel, pos, line_no, checked)


# the row that stands at slot 0 of the graph's columns, the root's virtual head
_HEAD_SLOT = (None, None, -1, None, None, None)


def _graph(rows, strings: dict | None = None) -> DependencyGraph:
    """The dependency graph of checked token rows [form, lemma, head,
    relation, ner, wordnet]: head 0 marks the root, whose relation may be
    absent, and head -1 a token kept out of the tree, whose relation is
    ignored. The rows' columns are the graph's, each string replaced by
    the first equal one in `strings`, the one table of a read, so that the
    graphs of a read share each distinct string."""
    share = ({} if strings is None else strings).setdefault
    forms, lemmas, heads, rels, ner_tags, wn_tags = zip(_HEAD_SLOT, *rows)
    relations = [None if head == -1 else (rel or "root") if head == 0 else rel
                 for head, rel in zip(heads, map(share, rels, rels))]
    return DependencyGraph.from_columns(
        tuple(map(share, forms, forms)), tuple(map(share, lemmas, lemmas)),
        tuple(map(share, ner_tags, ner_tags)), tuple(map(share, wn_tags, wn_tags)), heads,
        relations)


def instance_from_record(record, line_no: int | None, strings: dict | None = None,
                         checked: set[str] | None = None) -> Instance:
    """The instance of one DEPNN-INST record, or a FormatError naming
    line_no, the record's line in its file (None for a record of no file).
    A reader passes the one string table (_graph's) and the one set of
    checked relations (_check_arc's) of its read to every record."""
    _check_record(record, line_no, set() if checked is None else checked)
    rec_id = record["id"]
    try:
        graph = _graph(record["tokens"], strings)
        return Instance(rec_id, graph, entity_mention(graph, *record["e1"]),
                        entity_mention(graph, *record["e2"]), record.get("label"))
    except (TreeViolation, InvalidSpan) as exc:
        raise FormatError(f"instance {rec_id}: {exc}", line_no) from None


def write_parsed_instances(path, instances) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(INSTANCE_FORMAT_HEADER + "\n")
        for instance in instances:
            fh.write(json.dumps(_instance_to_record(instance), sort_keys=True) + "\n")


def read_parsed_instances(path) -> list[Instance]:
    with open_utf8(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != INSTANCE_FORMAT_HEADER:
            raise FormatError(f"expected header {INSTANCE_FORMAT_HEADER!r}, got {header!r}", 1)
        instances = []
        strings: dict = {}
        checked: set[str] = set()
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:   # a JSONDecodeError, or an int too long to convert
                raise FormatError(f"bad record: {exc}", line_no) from None
            instances.append(instance_from_record(record, line_no, strings, checked))
    return instances


# --- parse-annotation blocks and marker alignment ---------------------------

def read_parse_blocks(path) -> dict[int, list[list]]:
    """Token tables produced by an external parser, one block per instance.

    A block starts with '#id <n>' and holds one TAB-separated token row per
    line: index, form, lemma, head, relation, then optional ner and wordnet
    columns. '_' marks an absent value in every column but the form; head -1
    marks a token folded out of the tree (collapsed prepositions).
    """
    blocks: dict[int, list[list]] = {}
    current: list[list] | None = None
    checked: set[str] = set()
    with open_utf8(path) as fh:
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
            # a form is never absent, so a '_' there is the form itself
            cols = cols[:2] + [None if c == "_" else c for c in cols[2:]]
            cols += [None] * (7 - len(cols))
            try:
                index = int(cols[0])
                head = int(cols[3])
            except (TypeError, ValueError):
                raise FormatError("index and head must be integers", line_no) from None
            if index != len(current) + 1:
                raise FormatError(f"token index {index} out of order", line_no)
            if cols[4] not in checked:
                _check_arc(head, cols[4], index, line_no, checked)
            current.append([cols[1], cols[2], head, cols[4], cols[5], cols[6]])
    return blocks


def align_instance(raw: RawRecord, token_rows: list[list], strings: dict) -> Instance:
    """Map the raw record's entity character spans onto token spans by
    locating each token form in the marker-free sentence, and build the
    instance from the token rows that read_parse_blocks checked, sharing
    strings through `strings` as _graph does."""
    spans = []
    cursor = 0
    for row in token_rows:
        form = row[0]
        at = raw.text.find(form, cursor)
        if at < 0:
            raise AlignmentError(f"token {form!r} not found in sentence")
        spans.append((at, at + len(form)))
        cursor = at + len(form)

    def covering(char_span):
        touched = [i + 1 for i, (s, e) in enumerate(spans)
                   if s < char_span[1] and e > char_span[0]]
        if not touched:
            raise AlignmentError(f"no tokens under entity span {char_span}")
        return min(touched), max(touched)

    e1, e2 = covering(raw.e1_span), covering(raw.e2_span)
    graph = _graph(token_rows, strings)
    return Instance(raw.id, graph, entity_mention(graph, *e1), entity_mention(graph, *e2),
                    raw.label)


def convert(raw_records, parse_blocks) -> tuple[list[Instance], list[tuple[int, str]]]:
    """Join raw records with parse blocks by id; unalignable instances are
    reported rather than guessed at. The instances share each distinct
    string through one table, dropped on return."""
    instances = []
    failures = []
    strings: dict = {}
    for raw in raw_records:
        rows = parse_blocks.get(raw.id)
        if rows is None:
            failures.append((raw.id, "no parse block with this id"))
            continue
        try:
            instances.append(align_instance(raw, rows, strings))
        except (AlignmentError, InvalidSpan, TreeViolation) as exc:
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


def load_embeddings(path) -> EmbeddingTable:
    """Read 'word v1 .. vd' lines split on ASCII spaces only (a word may hold
    U+00A0); a leading 'count dim' header is skipped. The UNK vector is the
    arithmetic mean of all loaded vectors."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = [part for part in line.rstrip("\n").split(" ") if part]
            if not parts:
                continue
            if line_no == 1 and len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts):
                continue  # count/dim header
            word, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
            if len(values) != dim:
                raise FormatError(f"expected {dim} values for {word!r}, got {len(values)}",
                                  line_no)
            try:
                vector = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                raise FormatError(f"non-numeric embedding value for {word!r}", line_no) from None
            if not np.isfinite(vector).all():
                raise FormatError(f"non-finite embedding value for {word!r}", line_no)
            vectors[word] = vector
    if dim is None:
        raise FormatError("embedding file holds no vectors", path=path)
    unk = np.mean(np.stack(list(vectors.values())), axis=0)
    return EmbeddingTable(dim, vectors, unk)


# --- vocabulary -------------------------------------------------------------

# the entries each vocabulary field must hold: the fallbacks of its lookups,
# and the path's sentinel relations
REQUIRED_ENTRIES = {"words": (UNK,), "relations": (UNK, PATH_START, PATH_END),
                    "comp_relations": (DEFAULT_RELATION,), "ner_tags": (UNK,),
                    "wn_tags": (UNK,)}
RESERVED_RELATIONS = REQUIRED_ENTRIES["relations"] + REQUIRED_ENTRIES["comp_relations"]


@dataclass
class Vocabulary:
    """Row assignments for words, path relations, composition-matrix keys,
    and lexical tags. Lookups are total: absent entries fall back to UNK
    rows (or the shared DEFAULT composition matrix), which every field must
    hold, as REQUIRED_ENTRIES says, and no field lists an entry twice."""
    words: tuple[str, ...]
    relations: tuple[str, ...]       # directed path labels + sentinels
    comp_relations: tuple[str, ...]  # composition-matrix keys
    ner_tags: tuple[str, ...]
    wn_tags: tuple[str, ...]

    def __post_init__(self):
        (self._word_index, self._relation_index, self._comp_index, self._ner_index,
         self._wn_index) = (self._row_index(f.name) for f in fields(self))

    def _row_index(self, name: str) -> dict[str, int]:
        entries = getattr(self, name)
        index = {entry: row for row, entry in enumerate(entries)}
        for entry in REQUIRED_ENTRIES[name]:
            if entry not in index:
                raise VocabularyError(name, f"has no {entry!r} entry")
        if len(index) < len(entries):      # index keeps a repeated entry's last row
            twice = next(entry for row, entry in enumerate(entries) if index[entry] != row)
            raise VocabularyError(name, f"lists {twice!r} twice")
        return index

    @classmethod
    def build(cls, instances) -> "Vocabulary":
        forms: set[str] = set()
        base_relations: set[str] = set()
        ner: set[str] = set()
        wn: set[str] = set()
        for instance in instances:
            graph = instance.graph
            forms.update(graph.forms)
            ner.update(graph.ner_tags)
            wn.update(graph.wn_tags)
            base_relations.update(rel for head, rel in zip(graph.heads, graph.relations)
                                  if head > 0)
        # slot 0 and absent tags are None; a word form or tag written <unk>,
        # as PTB-style corpora hold, reads the UNK row
        for collected in (forms, ner, wn):
            collected.discard(None)
            collected.discard(UNK)
        directed = sorted(base_relations | {r + INVERSE_SUFFIX for r in base_relations})
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
            row = self._word_index.get(form.lower(), self._word_index[UNK])
        return row

    def relation_row(self, label: str) -> int:
        return self._relation_index.get(label, self._relation_index[UNK])

    def comp_id(self, relation: str) -> int:
        """Index in comp_relations of the composition matrix for a relation;
        a relation without a matrix of its own shares DEFAULT_RELATION's."""
        return self._comp_index.get(relation, self._comp_index[DEFAULT_RELATION])

    def ner_row(self, tag: str | None) -> int:
        return self._ner_index.get(tag, self._ner_index[UNK]) if tag else self._ner_index[UNK]

    def wn_row(self, tag: str | None) -> int:
        return self._wn_index.get(tag, self._wn_index[UNK]) if tag else self._wn_index[UNK]


# --- dataset statistics ------------------------------------------------------

@dataclass
class CorpusStats:
    total: int
    by_type: dict[str, int]   # folded relation types plus Other

    def percent(self, rel_type: str) -> Decimal:
        return (Decimal(self.by_type.get(rel_type, 0) * 100) / Decimal(self.total)
                ).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)

    def lines(self) -> list[str]:
        order = sorted(self.by_type, key=lambda t: (-self.by_type[t], t))
        out = [f"{t:<20} {self.by_type[t]:>6} ({self.percent(t)}%)" for t in order]
        out.append(f"{'Total':<20} {self.total:>6} (100.00%)")
        return out


def dataset_stats(labels) -> CorpusStats:
    """Per-relation-type counts with directions folded, as reported for the
    dataset; percentages are half-up rounded to two decimals."""
    labels = list(labels)
    if not labels or None in labels:
        raise ValueError("dataset_stats needs labeled data")
    by_type = {t: 0 for t in RELATION_TYPES}
    by_type[OTHER_LABEL] = 0
    for label in labels:
        by_type[label_type(label)] += 1
    return CorpusStats(len(labels), by_type)
