"""Dependency-parse data model and augmented-path construction.

A sentence arrives as a single-rooted dependency tree. Given two entity
mentions, the augmented dependency path is the unique tree path between
the entity head words plus, for each word on that path, the dependency
subtree hanging off it (descendants reachable without stepping onto the
path); the subtrees are read straight off the graph when an instance is
compiled (subtree.compile_nodes). All types here are immutable after
construction and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True)
class Arc:
    head: int        # 0 marks the sentence root's virtual head
    dependent: int
    relation: str


class DependencyGraph:
    """Tokens plus typed head/dependent arcs forming a single-rooted tree.

    Tokens listed in `inactive` (e.g. prepositions folded into collapsed
    relation labels) stay in the token list but take no part in arcs.
    """

    def __init__(self, tokens, arcs, inactive=()):
        self.tokens: tuple[Token, ...] = tuple(tokens)
        self.inactive: frozenset[int] = frozenset(inactive)
        if not self.tokens:
            raise TreeViolation("a sentence needs at least one token")

        self._by_index: dict[int, Token] = {}
        for tok in self.tokens:
            if tok.index < 1:
                raise TreeViolation(f"token index {tok.index} below 1")
            if tok.index in self._by_index:
                raise TreeViolation(f"duplicate token index {tok.index}")
            self._by_index[tok.index] = tok
        for idx in self.inactive:
            if idx not in self._by_index:
                raise TreeViolation(f"inactive index {idx} has no token")

        self.arcs: tuple[Arc, ...] = tuple(sorted(
            (a if isinstance(a, Arc) else Arc(*a) for a in arcs),
            key=lambda a: (a.head, a.dependent)))
        self._head_arc: dict[int, Arc] = {}
        self._children: dict[int, list[Arc]] = {}
        for arc in self.arcs:
            if arc.dependent not in self._by_index:
                raise TreeViolation(f"arc dependent {arc.dependent} has no token")
            if arc.head != 0 and arc.head not in self._by_index:
                raise TreeViolation(f"arc head {arc.head} has no token")
            if arc.dependent in self.inactive or arc.head in self.inactive:
                raise TreeViolation(f"inactive token participates in arc {arc}")
            if arc.dependent in self._head_arc:
                raise TreeViolation(f"token {arc.dependent} has more than one head")
            self._head_arc[arc.dependent] = arc
            if arc.head != 0:
                # arcs are sorted by (head, dependent): each list is in dependent order
                self._children.setdefault(arc.head, []).append(arc)

        roots = [i for i in self.active_indices()
                 if i not in self._head_arc or self._head_arc[i].head == 0]
        if len(roots) != 1:
            raise TreeViolation(f"expected exactly one root, found {sorted(roots)}")
        self.root: int = roots[0]

        self._depth: dict[int, int] = {self.root: 0}
        for idx in self.active_indices():
            chain = []
            node = idx
            while node not in self._depth:
                chain.append(node)
                arc = self._head_arc.get(node)
                node = arc.head if arc is not None else 0
                if node in chain or len(chain) > len(self.tokens):
                    raise TreeViolation(f"cycle through token {idx}")
            base = self._depth[node]
            for offset, member in enumerate(reversed(chain), start=1):
                self._depth[member] = base + offset

    def token(self, index: int) -> Token:
        return self._by_index[index]

    def has_token(self, index: int) -> bool:
        return index in self._by_index

    def active_indices(self) -> list[int]:
        return [t.index for t in self.tokens if t.index not in self.inactive]

    def children(self, index: int) -> tuple[Arc, ...]:
        return tuple(self._children.get(index, ()))

    def head_arc(self, index: int) -> Arc | None:
        arc = self._head_arc.get(index)
        if arc is not None and arc.head == 0:
            return None
        return arc

    def head_index(self, index: int) -> int | None:
        arc = self.head_arc(index)
        return None if arc is None else arc.head

    def depth(self, index: int) -> int:
        return self._depth[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DependencyGraph):
            return NotImplemented
        return (self.tokens == other.tokens and self.arcs == other.arcs
                and self.inactive == other.inactive)

    def __hash__(self):
        return hash((self.tokens, self.arcs, self.inactive))


@dataclass(frozen=True)
class EntityMention:
    """Inclusive token span plus the span token anchoring paths."""
    start: int
    end: int
    head_index: int


def find_entity_head(graph: DependencyGraph, start: int, end: int) -> int:
    """The unique span token whose head lies outside the span; annotation
    noise with several such tokens is broken toward the shallowest one."""
    if start > end:
        raise InvalidSpan(f"empty span [{start}, {end}]")
    if end - start >= len(graph.tokens):   # more indices than the sentence has tokens
        raise InvalidSpan(f"span [{start}, {end}] leaves the sentence")
    span = [i for i in range(start, end + 1)
            if graph.has_token(i) and i not in graph.inactive]
    if not span:
        raise InvalidSpan(f"span [{start}, {end}] covers no active token")
    if any(not graph.has_token(i) for i in range(start, end + 1)):
        raise InvalidSpan(f"span [{start}, {end}] leaves the sentence")
    inside = set(span)
    candidates = [i for i in span
                  if graph.head_index(i) is None or graph.head_index(i) not in inside]
    if not candidates:
        raise InvalidSpan(f"span [{start}, {end}] has no head candidate")
    return min(candidates, key=lambda i: (graph.depth(i), i))


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
    for idx in (a, b):
        if not graph.has_token(idx) or idx in graph.inactive:
            raise InvalidSpan(f"no active token with index {idx}")
    tokens, labels = [a], []
    down: list[Arc] = []          # arcs climbed from b, walked back down at the end
    while a != b:
        if graph.depth(a) >= graph.depth(b):
            arc = graph.head_arc(a)
            tokens.append(arc.head)
            labels.append(arc.relation + INVERSE_SUFFIX)
            a = arc.head
        else:
            arc = graph.head_arc(b)
            down.append(arc)
            b = arc.head
    for arc in reversed(down):
        tokens.append(arc.dependent)
        labels.append(arc.relation)
    return tokens, labels
