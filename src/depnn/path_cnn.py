"""Convolution over the word/relation sequence of a shortest dependency
path, with max-over-time pooling.

The path is viewed as an alternating sequence bounded by learned start/end
sentinel relation vectors. One window is taken per path word, centered on
it and spanning k consecutive items of the alternating sequence (stride 2
between windows). Word slots falling outside the sequence are filled with
a learned pad vector; relation slots outside take the nearer sentinel's
vector. Window vectors are concatenated, pushed through the filter matrix
(plus bias and tanh by default), and the feature map is max-pooled
elementwise across windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PATH_END, PATH_START
from .numerics import ParameterStore, ShapeMismatch, tanh_backward
from .subtree import PAD_WORD, REL_EMB

CONV_W = "conv_w"
CONV_B = "conv_b"


class InvalidWindowSize(ValueError):
    pass


def check_window_size(k: int) -> None:
    if k < 3 or k % 2 == 0:
        raise InvalidWindowSize(f"window size must be odd and >= 3, got {k}")


def word_slots(k: int) -> np.ndarray:
    """Boolean mask over a window's k columns, True at the word slots: the
    even offsets from the center."""
    check_window_size(k)
    return (np.arange(k) - (k - 1) // 2) % 2 == 0


def words_per_window(k: int) -> int:
    """Number of word slots in one window: 1 for k=3, 3 for k=5 and k=7,
    5 for k=9, ..."""
    return int(word_slots(k).sum())


def window_width(k: int, dim: int, dim_c: int) -> int:
    """Length of a concatenated window vector: dim per item plus dim_c per
    word slot."""
    return dim * k + dim_c * words_per_window(k)


def build_windows(n_words: int, k: int) -> np.ndarray:
    """One window per path word, as an (n_words, k) integer array.

    A word slot indexes [pad, p_0 .. p_{n-1}] and a relation slot indexes
    [start, r_0 .. r_{n-2}, end], where r_i joins p_i to p_{i+1}.
    """
    check_window_size(k)
    if n_words < 1:
        raise ValueError("a path has at least one word")
    half = (k - 1) // 2
    # offset o of window w holds item w + 1 + floor(o / 2) of its list; words
    # past either end are the pad (0), relations clamp to the sentinels
    index = np.arange(n_words)[:, None] + np.arange(2 - half, half + 3) // 2
    clamped = np.minimum(np.maximum(index, 0), n_words)
    return np.where(word_slots(k) & (index > n_words), 0, clamped)


def max_over_time(feature_map: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise max across windows; ties go to the lowest window index."""
    pooled = feature_map.max(axis=0)
    argmax = feature_map.argmax(axis=0)
    return pooled, argmax


@dataclass
class ConvCache:
    windows: np.ndarray       # build_windows' index array
    rel_rows: np.ndarray      # relation-embedding row of start, r_0 .. r_{n-2}, end
    word_cols: np.ndarray     # mask of the window-vector entries from word slots
    inputs: np.ndarray        # concatenated window vectors, one row per window
    feature_map: np.ndarray   # post-activation, one row per window
    pooled: np.ndarray
    argmax: np.ndarray
    use_tanh: bool


def conv_forward(windows, word_vecs, rel_labels, store: ParameterStore, vocab,
                 use_tanh: bool = True) -> ConvCache:
    """Run the filter over every window and max-pool the feature map.

    word_vecs are the encoded p_w vectors of the path words, in order;
    rel_labels the directed labels of the relations between them (one fewer
    than words).
    """
    conv_w = store.value(CONV_W)
    rel_emb = store.value(REL_EMB)
    pad = store.value(PAD_WORD)
    is_word = word_slots(windows.shape[1])
    word_cols = np.repeat(is_word, np.where(is_word, pad.size, rel_emb.shape[1]))
    if word_cols.size != conv_w.shape[1]:
        raise ShapeMismatch(
            f"window vector has length {word_cols.size}, filter expects {conv_w.shape[1]}")
    rel_rows = np.array([vocab.relation_row(PATH_START)]
                        + [vocab.relation_row(label) for label in rel_labels]
                        + [vocab.relation_row(PATH_END)])

    n_windows = len(windows)
    inputs = np.empty((n_windows, word_cols.size))
    words = np.vstack([pad, *word_vecs])
    inputs[:, word_cols] = words[windows[:, is_word]].reshape(n_windows, -1)
    inputs[:, ~word_cols] = rel_emb[rel_rows[windows[:, ~is_word]]].reshape(n_windows, -1)
    pre = inputs @ conv_w.T + store.value(CONV_B)
    feature_map = np.tanh(pre) if use_tanh else pre
    pooled, argmax = max_over_time(feature_map)
    return ConvCache(windows, rel_rows, word_cols, inputs, feature_map, pooled,
                     argmax, use_tanh)


def conv_backward(cache: ConvCache, upstream: np.ndarray,
                  store: ParameterStore, vocab) -> np.ndarray:
    """Route each pooled coordinate's gradient into its argmax window, then
    through the filter into relation embeddings, the pad vector, and the
    path-word vectors (returned, one row per path word in path order)."""
    d_pre = tanh_backward(cache.pooled, upstream) if cache.use_tanh else upstream
    # max-pooling routes each hidden unit to exactly one window; scaling the
    # gathered rows in place keeps to one hidden x width temporary
    d_conv_w = cache.inputs[cache.argmax]
    d_conv_w *= d_pre[:, None]
    store.grad(CONV_W)[...] += d_conv_w
    store.grad(CONV_B)[...] += d_pre
    d_features = np.zeros_like(cache.feature_map)
    d_features[cache.argmax, np.arange(d_pre.size)] = d_pre
    d_inputs = d_features @ store.value(CONV_W)

    windows, word_cols = cache.windows, cache.word_cols
    is_word = word_slots(windows.shape[1])
    n_windows, word_dim = len(windows), store.value(PAD_WORD).size
    d_words = np.zeros((n_windows + 1, word_dim))
    np.add.at(d_words, windows[:, is_word],
              d_inputs[:, word_cols].reshape(n_windows, -1, word_dim))
    np.add.at(store.grad(REL_EMB), cache.rel_rows[windows[:, ~is_word]],
              d_inputs[:, ~word_cols].reshape(n_windows, -1, store.value(REL_EMB).shape[1]))
    store.grad(PAD_WORD)[...] += d_words[0]
    return d_words[1:]
