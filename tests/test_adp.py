import pytest

from depnn.adp import (Arc, DependencyGraph, Direction, InvalidSpan,
                       PathStep, Token, TreeViolation, attach_subtrees,
                       collapse_prepositions, directed_label, find_entity_head,
                       render_path, shortest_path)
from depnn.path_cnn import build_windows, word_slots

from conftest import enumerate_tree_path, graph_of, offpath_descendants, random_tree


def thief_graph():
    # The thief broke the lock with a screwdriver (collapsed parse; the
    # preposition token stays in the sentence but is out of the tree)
    forms = ["The", "thief", "broke", "the", "lock", "with", "screwdriver"]
    arcs = [(0, 3, "root"), (3, 2, "nsubj"), (2, 1, "det"),
            (3, 5, "dobj"), (5, 4, "det"), (3, 7, "prep_with")]
    return graph_of(7, arcs, forms=forms, inactive={6})


class TestGraphValidation:
    def test_two_heads_rejected(self):
        with pytest.raises(TreeViolation):
            graph_of(3, [(0, 1, "root"), (1, 2, "a"), (1, 3, "b"), (2, 3, "c")])

    def test_cycle_rejected(self):
        with pytest.raises(TreeViolation):
            graph_of(3, [(0, 1, "root"), (2, 3, "a"), (3, 2, "b")])

    def test_two_roots_rejected(self):
        with pytest.raises(TreeViolation):
            graph_of(3, [(1, 3, "a")])

    def test_duplicate_index_rejected(self):
        with pytest.raises(TreeViolation):
            DependencyGraph([Token(1, "a"), Token(1, "b")], [Arc(0, 1, "root")])

    def test_inactive_token_must_stay_out_of_arcs(self):
        with pytest.raises(TreeViolation):
            graph_of(2, [(0, 1, "root"), (1, 2, "det")], inactive={2})


class TestFindEntityHead:
    def test_singleton_span(self):
        g = graph_of(3, [(0, 2, "root"), (2, 1, "a"), (2, 3, "b")])
        assert find_entity_head(g, 3, 3) == 3

    def test_whole_sentence_returns_root(self):
        g = graph_of(4, [(0, 2, "root"), (2, 1, "a"), (2, 3, "b"), (3, 4, "c")])
        assert find_entity_head(g, 1, 4) == 2

    def test_multi_token_span_head(self):
        # span [2,3]: token 2 is headed inside the span (by 3), token 3 is
        # headed by 5, outside, so 3 anchors the mention
        g = graph_of(6, [(0, 6, "root"), (6, 5, "a"), (5, 3, "b"),
                         (3, 2, "c"), (5, 4, "d"), (6, 1, "e")])
        assert find_entity_head(g, 2, 3) == 3

    def test_tie_breaks_toward_root(self):
        # both 2 and 3 are headed outside [2,3]; 3 is shallower
        g = graph_of(5, [(0, 4, "root"), (4, 3, "a"), (4, 5, "b"),
                         (5, 2, "c"), (2, 1, "d")])
        assert g.depth(3) < g.depth(2)
        assert find_entity_head(g, 2, 3) == 3

    def test_invalid_spans(self):
        g = graph_of(3, [(0, 1, "root"), (1, 2, "a"), (2, 3, "b")])
        with pytest.raises(InvalidSpan):
            find_entity_head(g, 3, 2)
        with pytest.raises(InvalidSpan):
            find_entity_head(g, 2, 9)


class TestShortestPath:
    def test_same_token(self):
        g = graph_of(3, [(0, 1, "root"), (1, 2, "a"), (2, 3, "b")])
        assert shortest_path(g, 2, 2) == [PathStep(2)]

    def test_thief_sentence_path(self):
        g = thief_graph()
        steps = shortest_path(g, 2, 7)
        assert [s.token for s in steps] == [2, 3, 7]
        assert steps[1].relation == "nsubj"
        assert steps[1].direction is Direction.INVERSE
        assert steps[2].relation == "prep_with"
        assert steps[2].direction is Direction.FORWARD
        assert render_path(g, steps) == "thief nsubj_inv broke prep_with screwdriver"

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(300):
            g = random_tree(rng)
            n = len(g.tokens)
            a = 1 + int(rng.integers(n))
            b = 1 + int(rng.integers(n))
            assert shortest_path(g, a, b) == enumerate_tree_path(g, a, b)

    def test_direction_involution(self, rng):
        for _ in range(100):
            g = random_tree(rng)
            n = len(g.tokens)
            a, b = 1 + int(rng.integers(n)), 1 + int(rng.integers(n))
            forward = shortest_path(g, a, b)
            backward = shortest_path(g, b, a)
            assert [s.token for s in backward] == [s.token for s in forward][::-1]
            flipped = {Direction.FORWARD: Direction.INVERSE,
                       Direction.INVERSE: Direction.FORWARD}
            forward_hops = [(s.relation, s.direction) for s in forward[1:]]
            backward_hops = [(s.relation, flipped[s.direction]) for s in backward[1:]]
            assert backward_hops == forward_hops[::-1]

    def test_bad_endpoint(self):
        g = thief_graph()
        with pytest.raises(InvalidSpan):
            shortest_path(g, 2, 6)   # inactive preposition token

    def test_directed_label_rendering(self):
        assert directed_label("nsubj", Direction.INVERSE) == "nsubj_inv"
        assert directed_label("dobj", Direction.FORWARD) == "dobj"


class TestAttachSubtrees:
    def test_chain_has_empty_subtrees(self):
        g = graph_of(4, [(0, 1, "root"), (1, 2, "a"), (2, 3, "b"), (3, 4, "c")])
        adp = attach_subtrees(g, shortest_path(g, 1, 4))
        assert adp.path_tokens == (1, 2, 3, 4)
        assert all(adp.subtrees[w] == () for w in adp.path_tokens)

    def test_worked_example_subtree(self):
        # priests broke ... work: "broke" carries dobj->commandment and
        # prep_on->Sabbath, with det->the below Sabbath
        forms = ["priests", "broke", "commandment", "Sabbath", "the", "work"]
        g = graph_of(6, [(0, 2, "root"), (2, 1, "nsubj"), (2, 3, "dobj"),
                         (2, 4, "prep_on"), (4, 5, "det"), (2, 6, "prep_during")],
                     forms=forms)
        adp = attach_subtrees(g, shortest_path(g, 1, 6))
        assert adp.path_tokens == (1, 2, 6)
        assert set(adp.subtrees[2]) == {Arc(2, 3, "dobj"), Arc(2, 4, "prep_on"),
                                        Arc(4, 5, "det")}
        assert adp.subtrees[1] == ()
        assert adp.subtrees[6] == ()

    def test_partition_against_reachability_oracle(self, rng):
        for _ in range(200):
            g = random_tree(rng)
            n = len(g.tokens)
            a, b = 1 + int(rng.integers(n)), 1 + int(rng.integers(n))
            adp = attach_subtrees(g, shortest_path(g, a, b))
            path = set(adp.path_tokens)
            seen = set()
            for word in adp.path_tokens:
                tokens = adp.subtree_tokens(word)
                assert tokens == offpath_descendants(g, path, word)
                assert tokens.isdisjoint(path)
                assert tokens.isdisjoint(seen)
                seen |= tokens

    def test_elements_alternate_with_sentinels(self, rng):
        # reading each window's center word and the relation before it, plus
        # the last window's closing relation, spells the alternating sequence
        # start p_0 r_0 p_1 ... p_{n-1} end: relation slots index
        # [start, r_0 .. r_{n-2}, end], word slots [pad, p_0 .. p_{n-1}]
        for _ in range(50):
            g = random_tree(rng)
            n_tokens = len(g.tokens)
            a, b = 1 + int(rng.integers(n_tokens)), 1 + int(rng.integers(n_tokens))
            n = len(attach_subtrees(g, shortest_path(g, a, b)).path_tokens)
            for k in (3, 5, 7, 9):
                windows = build_windows(n, k)
                half = (k - 1) // 2
                sequence = []
                for window in windows:
                    sequence += [("rel", window[half - 1]), ("word", window[half])]
                sequence.append(("rel", windows[-1][half + 1]))
                assert sequence == [("word", (i + 1) // 2) if i % 2 else ("rel", i // 2)
                                    for i in range(2 * n + 1)]

    def test_single_word_path_elements(self):
        g = graph_of(2, [(0, 1, "root"), (1, 2, "det")])
        n = len(shortest_path(g, 1, 1))
        for k in (3, 5, 7, 9):
            [window] = build_windows(n, k).tolist()
            half = (k - 1) // 2
            # the word between the start and end sentinels, padded outside
            expected = [int(i == half) if is_word else int(i > half)
                        for i, is_word in enumerate(word_slots(k))]
            assert window == expected


class TestCollapsePrepositions:
    def test_no_preposition_is_fixpoint(self):
        g = graph_of(3, [(0, 1, "root"), (1, 2, "nsubj"), (1, 3, "dobj")])
        assert collapse_prepositions(g) == g

    def test_basic_collapse(self):
        forms = ["broke", "with", "screwdriver"]
        g = graph_of(3, [(0, 1, "root"), (1, 2, "prep"), (2, 3, "pobj")],
                     forms=forms)
        collapsed = collapse_prepositions(g)
        assert Arc(1, 3, "prep_with") in collapsed.arcs
        assert collapsed.inactive == {2}
        assert len(collapsed.tokens) == 3     # token list kept intact

    def test_three_level_nesting_hand_rewrite(self):
        forms = ["broke", "with", "hammer", "of", "steel", "from", "forge"]
        g = graph_of(7, [(0, 1, "root"), (1, 2, "prep"), (2, 3, "pobj"),
                         (3, 4, "prep"), (4, 5, "pobj"), (5, 6, "prep"),
                         (6, 7, "pobj")], forms=forms)
        collapsed = collapse_prepositions(g)
        expected = {Arc(0, 1, "root"), Arc(1, 3, "prep_with"),
                    Arc(3, 5, "prep_of"), Arc(5, 7, "prep_from")}
        assert set(collapsed.arcs) == expected
        assert collapsed.inactive == {2, 4, 6}

    def test_idempotent(self):
        forms = ["broke", "with", "hammer", "of", "steel", "from", "forge"]
        g = graph_of(7, [(0, 1, "root"), (1, 2, "prep"), (2, 3, "pobj"),
                         (3, 4, "prep"), (4, 5, "pobj"), (5, 6, "prep"),
                         (6, 7, "pobj")], forms=forms)
        once = collapse_prepositions(g)
        assert collapse_prepositions(once) == once

    def test_unmatched_prep_left_intact(self):
        g = graph_of(3, [(0, 1, "root"), (1, 2, "prep"), (2, 3, "amod")])
        assert collapse_prepositions(g) == g

    def test_orphan_dependents_reheaded_to_object(self):
        forms = ["fixed", "with", "care", "right"]
        g = graph_of(4, [(0, 1, "root"), (1, 2, "prep"), (2, 3, "pobj"),
                         (2, 4, "advmod")], forms=forms)
        collapsed = collapse_prepositions(g)
        assert Arc(1, 3, "prep_with") in collapsed.arcs
        assert Arc(3, 4, "advmod") in collapsed.arcs
        assert collapsed.inactive == {2}

    def test_collapsed_graph_feeds_path(self):
        forms = ["The", "thief", "broke", "the", "lock", "with", "screwdriver"]
        g = graph_of(7, [(0, 3, "root"), (3, 2, "nsubj"), (2, 1, "det"),
                         (3, 5, "dobj"), (5, 4, "det"), (3, 6, "prep"),
                         (6, 7, "pobj")], forms=forms)
        collapsed = collapse_prepositions(g)
        steps = shortest_path(collapsed, 2, 7)
        assert render_path(collapsed, steps) == \
            "thief nsubj_inv broke prep_with screwdriver"
