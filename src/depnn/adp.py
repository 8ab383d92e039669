"""Dependency-parse data model and augmented-path construction.

A sentence arrives as a single-rooted dependency tree. Given two entity
mentions, the augmented dependency path is the unique tree path between
the entity head words plus, for each word on that path, the dependency
subtree hanging off it (descendants reachable without stepping onto the
path); the subtrees are read straight off the graph when an instance is
compiled (subtree.compile_nodes). Nothing here changes after
construction, and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple


class TreeViolation(ValueError):
    pass


class InvalidSpan(ValueError):
    pass


# marks a relation traversed from the dependent up to its head
INVERSE_SUFFIX = "_inv"


@dataclass(frozen=True)
class Token:
    index: int                     # 1-based position in the sentence
    form: str
    lemma: str | None = None
    ner_tag: str | None = None
    wn_hypernym: str | None = None


class Arc(NamedTuple):
    head: int        # 0 marks the sentence root's virtual head
    dependent: int
    relation: str


class DependencyGraph:
    """A single-rooted dependency tree held as per-token columns, each
    indexed by token index (1..n); slot 0 stands for the root's virtual head.

    forms, lemmas, ner_tags, wn_tags   the token's own fields
    heads       its head: 0 on the root, -1 on a token kept out of the tree
    relations   the relation of the arc from its head; None without an arc
    children    its dependents in ascending index order; slot 0 holds the root
    depths      its depth below the root; -1 out of the tree

    Tokens listed in `inactive` (e.g. prepositions folded into collapsed
    relation labels) stay in the columns but take no part in arcs. Every
    reader builds through from_columns; the object form (this constructor,
    and Token and Arc objects made only when `tokens` or `arcs` is read)
    is kept for bench/generate.py, which redraws word forms through it.
    """

    def __init__(self, tokens, arcs, inactive=()):
        tokens = sorted(tokens, key=attrgetter("index"))
        for pos, tok in enumerate(tokens, start=1):
            if tok.index < 1:
                raise TreeViolation(f"token index {tok.index} below 1")
            if tok.index != pos:
                raise TreeViolation(f"duplicate token index {tok.index}" if tok.index < pos
                                    else f"no token with index {pos}")
        n = len(tokens)
        heads = [0] * (n + 1)
        relations = [None] * (n + 1)
        heads[0] = -1
        for idx in inactive:
            if not 1 <= idx <= n:
                raise TreeViolation(f"inactive index {idx} has no token")
            heads[idx] = -1
        has_arc = set()
        for arc in arcs:
            head, dependent, relation = arc
            if not 1 <= dependent <= n:
                raise TreeViolation(f"arc dependent {dependent} has no token")
            if not 0 <= head <= n:
                raise TreeViolation(f"arc head {head} has no token")
            if heads[dependent] == -1:     # an inactive head is refused in _build
                raise TreeViolation(f"inactive token participates in arc {Arc(*arc)}")
            if dependent in has_arc:
                raise TreeViolation(f"token {dependent} has more than one head")
            has_arc.add(dependent)
            heads[dependent], relations[dependent] = head, relation
        fields = [(None,) * 4] + [(t.form, t.lemma, t.ner_tag, t.wn_hypernym) for t in tokens]
        self._build(*zip(*fields), heads, relations)

    @classmethod
    def from_columns(cls, forms, lemmas, ner_tags, wn_tags, heads, relations):
        """The graph of columns laid out as the class describes them, slot 0
        included; heads and relations as the arcs give them, checked here
        to form one tree. The columns are kept, not copied."""
        graph = cls.__new__(cls)
        graph._build(forms, lemmas, ner_tags, wn_tags, heads, relations)
        return graph

    def _build(self, forms, lemmas, ner_tags, wn_tags, heads, relations):
        """Check the heads and file each token under its head in one pass,
        then set the depths in one walk down from the root: an active token
        that the walk does not reach lies on a cycle."""
        n = len(heads) - 1
        if n < 1:
            raise TreeViolation("a sentence needs at least one token")
        children = [[] for _ in heads]
        inactive = []
        for dependent in range(1, n + 1):
            head = heads[dependent]
            if head == -1:
                inactive.append(dependent)
            elif 0 <= head <= n:
                children[head].append(dependent)
            else:
                raise TreeViolation(f"arc head {head} has no token")
        for idx in inactive:
            if children[idx]:
                dependent = children[idx][0]
                raise TreeViolation(f"inactive token participates in arc "
                                    f"{Arc(idx, dependent, relations[dependent])}")
        if len(children[0]) != 1:
            raise TreeViolation(f"expected exactly one root, found {children[0]}")
        root = children[0][0]
        depths = [-1] * (n + 1)
        depths[root] = 0
        reached = [root]
        for node in reached:        # the list grows as the walk goes down
            depth = depths[node] + 1
            for kid in children[node]:
                depths[kid] = depth
            reached += children[node]
        if len(reached) + len(inactive) != n:
            cycle = next(i for i in range(1, n + 1) if depths[i] < 0 and heads[i] != -1)
            raise TreeViolation(f"cycle through token {cycle}")
        self.forms, self.lemmas, self.ner_tags, self.wn_tags = forms, lemmas, ner_tags, wn_tags
        self.heads, self.relations = heads, relations
        self.children, self.depths = children, depths
        self.inactive: frozenset[int] = frozenset(inactive)

    @property
    def tokens(self) -> tuple[Token, ...]:
        return tuple(map(Token, range(1, len(self.heads)), self.forms[1:], self.lemmas[1:],
                         self.ner_tags[1:], self.wn_tags[1:]))

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """Every arc, in (head, dependent) order."""
        return tuple(Arc(head, dependent, self.relations[dependent])
                     for head, below in enumerate(self.children) for dependent in below
                     if self.relations[dependent] is not None)


@dataclass(frozen=True)
class EntityMention:
    """Inclusive token span plus the span token anchoring paths."""
    start: int
    end: int
    head_index: int


def find_entity_head(graph: DependencyGraph, start: int, end: int) -> int:
    """The unique span token whose head lies outside the span; annotation
    noise with several such tokens is broken toward the shallowest one."""
    heads, n = graph.heads, len(graph.heads) - 1
    if start > end:
        raise InvalidSpan(f"empty span [{start}, {end}]")
    if end - start >= n:   # more indices than the sentence has tokens
        raise InvalidSpan(f"span [{start}, {end}] leaves the sentence")
    span = [i for i in range(max(start, 1), min(end, n) + 1) if heads[i] != -1]
    if not span:
        raise InvalidSpan(f"span [{start}, {end}] covers no active token")
    if start < 1 or end > n:
        raise InvalidSpan(f"span [{start}, {end}] leaves the sentence")
    # a head inside the span is active, so a head outside it is one outside
    # [start, end]; the span's shallowest token is always such a candidate
    depths = graph.depths
    return min((depths[i], i) for i in span if not start <= heads[i] <= end)[1]


def entity_mention(graph: DependencyGraph, start: int, end: int) -> EntityMention:
    return EntityMention(start, end, find_entity_head(graph, start, end))


def shortest_path(graph: DependencyGraph, a: int, b: int) -> tuple[list[int], list[str]]:
    """The unique tree path from a to b: both ends climb their head arcs,
    the deeper one first, until they meet at the lowest common ancestor.

    Returns the path's n tokens from a to b and the n - 1 directed labels
    between consecutive tokens: a hop from a dependent up to its head is
    its relation + INVERSE_SUFFIX, a hop down the bare relation. A
    validated graph is one tree, so every pair of active tokens has a path.
    """
    heads, relations, depths = graph.heads, graph.relations, graph.depths
    for idx in (a, b):
        if not 0 < idx < len(heads) or heads[idx] == -1:
            raise InvalidSpan(f"no active token with index {idx}")
    tokens, labels = [a], []
    down: list[int] = []          # tokens climbed from b, walked back down at the end
    while a != b:
        if depths[a] >= depths[b]:
            labels.append(relations[a] + INVERSE_SUFFIX)
            a = heads[a]
            tokens.append(a)
        else:
            down.append(b)
            b = heads[b]
    for token in reversed(down):
        tokens.append(token)
        labels.append(relations[token])
    return tokens, labels
