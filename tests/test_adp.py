import pytest

from depnn.adp import (INVERSE_SUFFIX, Arc, DependencyGraph, InvalidSpan, Token,
                       TreeViolation, find_entity_head, shortest_path)
from depnn.path_cnn import build_windows, word_slots

from conftest import (enumerate_tree_path, graph_of, offpath_descendants, random_tree,
                      scheduled_subtrees)


def toggle_inverse(label):
    if label.endswith(INVERSE_SUFFIX):
        return label[:-len(INVERSE_SUFFIX)]
    return label + INVERSE_SUFFIX


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

    def test_arc_from_head_minus_one_rejected(self):
        # in the columns head -1 marks a token kept out of the tree, so the
        # constructor refuses it rather than silently deactivating token 2
        with pytest.raises(TreeViolation, match="arc head -1 has no token"):
            graph_of(2, [(0, 1, "root"), (-1, 2, "det")])

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
        assert g.depths[3] < g.depths[2]
        assert find_entity_head(g, 2, 3) == 3

    def test_invalid_spans(self):
        g = graph_of(3, [(0, 1, "root"), (1, 2, "a"), (2, 3, "b")])
        with pytest.raises(InvalidSpan):
            find_entity_head(g, 3, 2)
        with pytest.raises(InvalidSpan):
            find_entity_head(g, 2, 9)


    def test_span_wider_than_the_sentence_fails_at_once(self):
        g = graph_of(3, [(0, 1, "root"), (1, 2, "a"), (2, 3, "b")])
        with pytest.raises(InvalidSpan, match="leaves the sentence"):
            find_entity_head(g, 2, 10**15)


class TestShortestPath:
    def test_same_token(self):
        g = graph_of(3, [(0, 1, "root"), (1, 2, "a"), (2, 3, "b")])
        assert shortest_path(g, 2, 2) == ([2], [])

    def test_thief_sentence_path(self):
        g = thief_graph()
        # thief climbs nsubj up to broke, then prep_with leads down
        assert shortest_path(g, 2, 7) == ([2, 3, 7], ["nsubj_inv", "prep_with"])

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
            tokens, labels = shortest_path(g, a, b)
            back_tokens, back_labels = shortest_path(g, b, a)
            assert back_tokens == tokens[::-1]
            assert back_labels == [toggle_inverse(label) for label in labels][::-1]

    def test_bad_endpoint(self):
        g = thief_graph()
        with pytest.raises(InvalidSpan):
            shortest_path(g, 2, 6)   # inactive preposition token

    def test_every_pair_matches_oracle_and_inactive_ends_fail(self, rng):
        # every pair of a random tree, a == b included, against the DFS
        # oracle; a token kept out of the tree, or no token at all, at
        # either end is an InvalidSpan
        for _ in range(60):
            tree = random_tree(rng)
            n = len(tree.tokens)
            g = DependencyGraph(tree.tokens + (Token(n + 1, "of"),), tree.arcs,
                                inactive={n + 1})
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    assert shortest_path(g, a, b) == enumerate_tree_path(g, a, b)
                for outside in (n + 1, n + 2):
                    with pytest.raises(InvalidSpan):
                        shortest_path(g, a, outside)
                    with pytest.raises(InvalidSpan):
                        shortest_path(g, outside, a)

    def test_directed_label_rendering(self):
        # a hop up to the head carries the _inv suffix, a hop down the bare relation
        g = thief_graph()
        assert shortest_path(g, 2, 3)[1] == ["nsubj_inv"]
        assert shortest_path(g, 3, 5)[1] == ["dobj"]


class TestAttachSubtrees:
    """The subtrees that compiling an instance attaches to its path."""

    def test_chain_has_empty_subtrees(self):
        g = graph_of(4, [(0, 1, "root"), (1, 2, "a"), (2, 3, "b"), (3, 4, "c")])
        subtrees = scheduled_subtrees(g, shortest_path(g, 1, 4)[0])
        assert subtrees == {1: set(), 2: set(), 3: set(), 4: set()}

    def test_worked_example_subtree(self):
        # priests broke ... work: "broke" carries dobj->commandment and
        # prep_on->Sabbath, with det->the below Sabbath
        forms = ["priests", "broke", "commandment", "Sabbath", "the", "work"]
        g = graph_of(6, [(0, 2, "root"), (2, 1, "nsubj"), (2, 3, "dobj"),
                         (2, 4, "prep_on"), (4, 5, "det"), (2, 6, "prep_during")],
                     forms=forms)
        subtrees = scheduled_subtrees(g, shortest_path(g, 1, 6)[0])
        assert subtrees == {1: set(), 2: {3, 4, 5}, 6: set()}

    def test_partition_against_reachability_oracle(self, rng):
        for _ in range(200):
            g = random_tree(rng)
            n = len(g.tokens)
            a, b = 1 + int(rng.integers(n)), 1 + int(rng.integers(n))
            subtrees = scheduled_subtrees(g, shortest_path(g, a, b)[0])
            path = set(subtrees)
            seen = set()
            for word, tokens in subtrees.items():
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
            n = len(shortest_path(g, a, b)[0])
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
        n = len(shortest_path(g, 1, 1)[0])
        for k in (3, 5, 7, 9):
            [window] = build_windows(n, k).tolist()
            half = (k - 1) // 2
            # the word between the start and end sentinels, padded outside
            expected = [int(i == half) if is_word else int(i > half)
                        for i, is_word in enumerate(word_slots(k))]
            assert window == expected

