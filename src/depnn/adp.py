"""Dependency-parse data model and augmented-path construction.

A sentence arrives as a single-rooted dependency tree. Given two entity
mentions, the augmented dependency path is the unique tree path between
the entity head words plus, for each word on that path, the dependency
subtree hanging off it (descendants reachable without stepping onto the
path). All types here are immutable after construction and every
operation is a pure function.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum


class TreeViolation(ValueError):
    pass


class InvalidSpan(ValueError):
    pass


class Disconnected(ValueError):
    pass


class Direction(Enum):
    """How an arc was traversed when walking a path."""
    FORWARD = "forward"   # head to dependent
    INVERSE = "inverse"   # dependent to head

INVERSE_SUFFIX = "_inv"


def directed_label(relation: str, direction: Direction) -> str:
    """Render a traversed relation; dependent-to-head hops get an _inv suffix."""
    if direction is Direction.INVERSE:
        return relation + INVERSE_SUFFIX
    return relation


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
                self._children.setdefault(arc.head, []).append(arc)
        for kids in self._children.values():
            kids.sort(key=lambda a: a.dependent)

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


@dataclass(frozen=True)
class PathStep:
    """One token on a path plus the relation that led into it (None on the
    first step)."""
    token: int
    relation: str | None = None
    direction: Direction | None = None


def shortest_path(graph: DependencyGraph, a: int, b: int) -> list[PathStep]:
    """Breadth-first search over the undirected arc set from a to b.

    In a tree the result is the unique simple path. Hops from a dependent up
    to its head carry Direction.INVERSE; head-to-dependent hops carry
    Direction.FORWARD.
    """
    for idx in (a, b):
        if not graph.has_token(idx) or idx in graph.inactive:
            raise InvalidSpan(f"no active token with index {idx}")
    if a == b:
        return [PathStep(a)]

    adjacency: dict[int, list[tuple[int, str, Direction]]] = {}
    for arc in graph.arcs:
        if arc.head == 0:
            continue
        adjacency.setdefault(arc.head, []).append(
            (arc.dependent, arc.relation, Direction.FORWARD))
        adjacency.setdefault(arc.dependent, []).append(
            (arc.head, arc.relation, Direction.INVERSE))
    for neighbors in adjacency.values():
        neighbors.sort(key=lambda item: item[0])

    parent: dict[int, tuple[int, str, Direction]] = {}
    seen = {a}
    queue = deque([a])
    while queue:
        node = queue.popleft()
        if node == b:
            break
        for nxt, relation, direction in adjacency.get(node, ()):
            if nxt in seen:
                continue
            seen.add(nxt)
            parent[nxt] = (node, relation, direction)
            queue.append(nxt)
    if b not in seen:
        raise Disconnected(f"no path between tokens {a} and {b}")

    steps = [PathStep(b, parent[b][1], parent[b][2])]
    node = parent[b][0]
    while node != a:
        prev, relation, direction = parent[node]
        steps.append(PathStep(node, relation, direction))
        node = prev
    steps.append(PathStep(a))
    steps.reverse()
    return steps


@dataclass(frozen=True)
class AugmentedDependencyPath:
    """The shortest path between two entity heads plus, per path word, the
    arcs of the subtree attached to it off the path."""
    steps: tuple[PathStep, ...]
    subtrees: dict[int, tuple[Arc, ...]] = field(hash=False)

    @property
    def path_tokens(self) -> tuple[int, ...]:
        return tuple(step.token for step in self.steps)

    def subtree_tokens(self, word: int) -> set[int]:
        return {arc.dependent for arc in self.subtrees[word]}


def attach_subtrees(graph: DependencyGraph, steps) -> AugmentedDependencyPath:
    """Collect, for each path word, every descendant arc reachable without
    stepping onto another path token."""
    steps = tuple(steps)
    on_path = {step.token for step in steps}
    subtrees: dict[int, tuple[Arc, ...]] = {}
    for word in (step.token for step in steps):
        collected: list[Arc] = []
        stack = [word]
        while stack:
            node = stack.pop()
            for arc in graph.children(node):
                if arc.dependent in on_path:
                    continue
                collected.append(arc)
                stack.append(arc.dependent)
        subtrees[word] = tuple(collected)
    return AugmentedDependencyPath(steps, subtrees)


def render_path(graph: DependencyGraph, steps) -> str:
    """Human-readable path: word forms interleaved with directed labels."""
    parts: list[str] = []
    for i, step in enumerate(steps):
        if i > 0:
            parts.append(directed_label(step.relation, step.direction))
        parts.append(graph.token(step.token).form)
    return " ".join(parts)


def collapse_prepositions(graph: DependencyGraph) -> DependencyGraph:
    """Fold prep -> pobj chains into single prep_<form> arcs.

    Each matched preposition token is dropped from arc participation (kept
    in the token list, flagged inactive); its remaining dependents, if any,
    are re-headed onto the preposition's object. Unmatched prep arcs are
    left intact, and already-collapsed graphs pass through unchanged.
    """
    arcs = list(graph.arcs)
    inactive = set(graph.inactive)
    while True:
        children: dict[int, list[Arc]] = {}
        for arc in arcs:
            children.setdefault(arc.head, []).append(arc)
        match = None
        for arc in sorted(arcs, key=lambda a: (a.head, a.dependent)):
            if arc.relation != "prep" or arc.head == 0:
                continue
            objects = [c for c in children.get(arc.dependent, ())
                       if c.relation == "pobj"]
            if objects:
                match = (arc, min(objects, key=lambda c: c.dependent))
                break
        if match is None:
            break
        prep_arc, obj_arc = match
        prep = prep_arc.dependent
        label = "prep_" + graph.token(prep).form.lower()
        rebuilt = [a for a in arcs if a not in (prep_arc, obj_arc) and a.head != prep]
        rebuilt.append(Arc(prep_arc.head, obj_arc.dependent, label))
        for orphan in children.get(prep, ()):
            if orphan is not obj_arc:
                rebuilt.append(Arc(obj_arc.dependent, orphan.dependent, orphan.relation))
        arcs = rebuilt
        inactive.add(prep)
    return DependencyGraph(graph.tokens, arcs, inactive)
