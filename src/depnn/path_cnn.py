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

import functools
from dataclasses import dataclass

import numpy as np

from .corpus import PATH_END, PATH_START
from .numerics import Gradient, ParameterStore, RowPlan, tanh_backward
from .subtree import PAD_WORD, REL_EMB

CONV_W = "conv_w"
CONV_B = "conv_b"


class InvalidWindowSize(ValueError):
    pass


def check_window_size(k: int) -> None:
    if k < 3 or k % 2 == 0:
        raise InvalidWindowSize(f"window size must be odd and >= 3, got {k}")


@functools.cache
def word_slots(k: int) -> np.ndarray:
    """Boolean mask over a window's k columns, True at the word slots: the
    even offsets from the center. Read-only, made once per k."""
    check_window_size(k)
    slots = (np.arange(k) - (k - 1) // 2) % 2 == 0
    slots.flags.writeable = False
    return slots


@functools.cache
def slot_columns(k: int, word_dim: int, rel_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns of a window vector that its word slots fill, and those
    that its relation slots fill, each in slot order; read-only."""
    is_word = np.repeat(word_slots(k), np.where(word_slots(k), word_dim, rel_dim))
    columns = np.flatnonzero(is_word), np.flatnonzero(~is_word)
    for cols in columns:
        cols.flags.writeable = False
    return columns


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
    """Elementwise max across windows; a tie between bit-equal features goes
    to the lowest window index (equal windows can differ: see conv_forward)."""
    pooled = feature_map.max(axis=0)
    argmax = feature_map.argmax(axis=0)
    return pooled, argmax


@dataclass
class ConvCache:
    windows: np.ndarray       # build_windows' index array
    inputs: np.ndarray        # concatenated window vectors, one row per window
    feature_map: np.ndarray   # post-activation, one row per window
    pooled: np.ndarray
    argmax: np.ndarray
    use_tanh: bool


def relation_rows(rel_labels, vocab) -> np.ndarray:
    """Relation-embedding rows of [start, r_0 .. r_{n-2}, end], from the
    directed labels of the relations between a path's n words."""
    return np.array([vocab.relation_row(PATH_START)]
                    + [vocab.relation_row(label) for label in rel_labels]
                    + [vocab.relation_row(PATH_END)], dtype=np.int32)


def conv_forward(windows, rel_rows, word_vecs, store: ParameterStore,
                 use_tanh: bool = True) -> ConvCache:
    """Run the filter over every window and max-pool the feature map.

    rel_rows are relation_rows' index of the path; word_vecs the encoded
    p_w vectors of the path words, one row each, in order. Equal windows can
    get features up to 4.4e-16 apart, from their rows of the one product, at
    the tests' small filter widths, and then pool to the higher window.
    """
    # slot by slot, the window's items from [pad, p_0 ..] or [start, r_0 .. end]
    tables = (store.value(REL_EMB)[rel_rows],
              np.concatenate((store.value(PAD_WORD)[None], word_vecs)))
    inputs = np.concatenate([tables[word][slot] for word, slot
                             in zip(word_slots(windows.shape[1]).tolist(), windows.T)], axis=1)
    pre = store.matmul_t(CONV_W, inputs)
    pre += store.value(CONV_B)
    feature_map = np.tanh(pre, out=pre) if use_tanh else pre
    pooled, argmax = max_over_time(feature_map)
    return ConvCache(windows, inputs, feature_map, pooled, argmax, use_tanh)


def conv_backward(cache: ConvCache, upstream: np.ndarray, store: ParameterStore,
                  gradient: Gradient, word_plan: RowPlan, rel_plan: RowPlan) -> np.ndarray:
    """Route each pooled coordinate's gradient into its argmax window, then
    through the filter into the gradient of the filter, relation embeddings,
    the pad vector and the filter bias, and into the path-word vectors
    (returned, one row per path word in path order).

    word_plan is the RowPlan of the windows' word slots, rel_plan that of
    the relation-embedding rows in their relation slots. Each goes through
    gradient.step, so a training step's Gradient updates them here, in
    place, the relation rows in one step. The filter's gradient is the
    product of the routed unit gradients and the windows, of rank at most
    the window count: a training step's Gradient hands it to the store as
    those two factors, to hold pending, once the window vectors' gradient
    has read the filter with every earlier step."""
    d_pre = tanh_backward(cache.pooled, upstream) if cache.use_tanh else upstream.copy()
    d_features = np.zeros_like(cache.feature_map)
    d_features[cache.argmax, np.arange(d_pre.size)] = d_pre
    gradient.step(CONV_B, ..., d_pre)       # spends d_pre, not upstream: read last above
    d_inputs = store.matmul(CONV_W, d_features)
    gradient.step(CONV_W, ..., (d_features.T, cache.inputs))

    # the window vectors' slots, split back apart: word slots go to the path
    # words and the pad, relation slots to their relation-embedding rows
    word_dim, rel_dim = store.value(PAD_WORD).size, store.value(REL_EMB).shape[1]
    word_cols, rel_cols = slot_columns(cache.windows.shape[1], word_dim, rel_dim)
    rows, sums = word_plan.sums(d_inputs[:, word_cols].reshape(-1, word_dim))
    d_words = np.zeros((len(cache.windows) + 1, word_dim))
    d_words[rows] = sums
    gradient.step(REL_EMB, rel_plan, d_inputs[:, rel_cols].reshape(-1, rel_dim))
    gradient.step(PAD_WORD, ..., d_words[0])
    return d_words[1:]
