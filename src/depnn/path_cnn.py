"""Convolution over the word/relation sequence of a shortest dependency
path, with max-over-time pooling.

The path is viewed as an alternating sequence bounded by learned start/end
sentinel relation vectors: start, p_0, r_0, p_1, ..., r_{n-2}, p_{n-1}, end.
One window is taken per path word, centered on it and spanning k
consecutive items of that sequence (stride 2 between windows). Word items
outside the sequence are the learned pad vector; relation items outside
are the nearer sentinel's vector.

A path of n words is laid out as n + h blocks [R_j | p_j], for k = 2h + 1,
j counting from -((k - 1) // 4): R_j is the relation row before path word
j (start for j <= 0, r_{j-1} inside, end for j >= n), and p_j the word, or
the pad past either end. Read row by row, the blocks are the sequence, so
window i is one contiguous run of them starting in block i, which
window_pieces gives as column ranges of successive blocks. The window
vectors are pushed through the filter matrix (plus bias and tanh by
default), and the feature map is max-pooled elementwise across windows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .corpus import PATH_END, PATH_START
from .numerics import Gradient, ParameterStore, RowPlan, tanh_backward

REL_EMB = "rel_emb"
PAD_WORD = "pad_word"
CONV_W = "conv_w"
CONV_B = "conv_b"


class InvalidWindowSize(ValueError):
    pass


def check_window_size(k: int) -> None:
    if k < 3 or k % 2 == 0:
        raise InvalidWindowSize(f"window size must be odd and >= 3, got {k}")


def words_per_window(k: int) -> int:
    """Number of word items in one window: 1 for k=3, 3 for k=5 and k=7,
    5 for k=9, ..."""
    return 2 * ((k - 1) // 4) + 1


def window_width(k: int, dim: int, dim_c: int) -> int:
    """Length of a concatenated window vector: dim per item plus dim_c per
    word item."""
    return dim * k + dim_c * words_per_window(k)


@functools.cache
def window_pieces(k: int, rel_dim: int, word_dim: int) -> tuple[tuple[int, int, int], ...]:
    """Window i's vector as pieces (t, a, b) in order, each the columns a:b
    of block i + t. A window of k = 4m + 3 opens on a block's relation row,
    one of k = 4m + 1 on its word."""
    check_window_size(k)
    width = rel_dim + word_dim
    start = 0 if k % 4 == 3 else rel_dim
    stop = start + window_width(k, rel_dim, word_dim - rel_dim)
    return tuple((t, max(start - t * width, 0), min(stop - t * width, width))
                 for t in range(-(-stop // width)))


def max_over_time(feature_map: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise max across windows; a tie between bit-equal features goes
    to the lowest window index (equal windows can differ: see conv_forward)."""
    pooled = feature_map.max(axis=0)
    argmax = feature_map.argmax(axis=0)
    return pooled, argmax


@dataclass
class ConvCache:
    window: int               # k
    inputs: np.ndarray        # concatenated window vectors, one row per window
    feature_map: np.ndarray   # post-activation, one row per window
    pooled: np.ndarray
    argmax: np.ndarray
    use_tanh: bool


def relation_rows(rel_labels, vocab, k: int) -> np.ndarray:
    """Relation-embedding rows R_j of the n + h blocks of a path at window
    k, from the directed labels of the relations between its n words."""
    lead = (k - 1) // 4
    return np.array([vocab.relation_row(PATH_START)] * (lead + 1)
                    + [vocab.relation_row(label) for label in rel_labels]
                    + [vocab.relation_row(PATH_END)] * ((k - 1) // 2 - lead), dtype=np.int32)


def conv_forward(rel_rows, word_vecs, store: ParameterStore, use_tanh: bool = True) -> ConvCache:
    """Run the filter over every window and max-pool the feature map.

    rel_rows are relation_rows of the path, whose n + h entries set the
    window k = 2h + 1; word_vecs the encoded p_w vectors of the path's n
    words, one row each, in order. Equal windows can get features up to
    4.4e-16 apart, from their rows of the one product, at the tests' small
    filter widths, and then pool to the higher window.
    """
    n, h = len(word_vecs), len(rel_rows) - len(word_vecs)
    rel_emb, pad = store.value(REL_EMB), store.value(PAD_WORD)
    rel_dim, lead = rel_emb.shape[1], h // 2        # lead: the blocks before p_0
    blocks = np.empty((n + h, rel_dim + pad.size))
    blocks[:, :rel_dim] = rel_emb[rel_rows]
    blocks[:, rel_dim:] = pad
    blocks[lead:lead + n, rel_dim:] = word_vecs
    inputs = np.concatenate([blocks[t:t + n, a:b] for t, a, b
                             in window_pieces(2 * h + 1, rel_dim, pad.size)], axis=1)
    pre = store.matmul_t(CONV_W, inputs)
    pre += store.value(CONV_B)
    feature_map = np.tanh(pre, out=pre) if use_tanh else pre
    pooled, argmax = max_over_time(feature_map)
    return ConvCache(2 * h + 1, inputs, feature_map, pooled, argmax, use_tanh)


def conv_backward(cache: ConvCache, upstream: np.ndarray, store: ParameterStore,
                  gradient: Gradient, rel_plan: RowPlan) -> np.ndarray:
    """Route each pooled coordinate's gradient into its argmax window, then
    through the filter into the gradient of the filter, relation embeddings,
    the pad vector and the filter bias, and into the path-word vectors
    (returned, one row per path word in path order).

    The window vectors' gradient is added back onto the blocks, each
    block's windows in ascending order. rel_plan is the RowPlan of the
    blocks' relation rows, and goes through gradient.step, so each row
    takes its one step here, in place. The filter's gradient is the
    product of the routed unit gradients and the windows, of rank at most
    the window count: the Gradient hands it to its store as those two
    factors, to hold pending, once the window vectors' gradient has read
    the filter with every earlier step."""
    d_pre = tanh_backward(cache.pooled, upstream) if cache.use_tanh else upstream.copy()
    d_features = np.zeros_like(cache.feature_map)
    d_features[cache.argmax, np.arange(d_pre.size)] = d_pre
    gradient.step(CONV_B, ..., d_pre)       # spends d_pre, not upstream: read last above
    d_inputs = store.matmul(CONV_W, d_features)
    gradient.step(CONV_W, ..., (d_features.T, cache.inputs))

    n, k = len(d_inputs), cache.window
    rel_dim, word_dim = store.value(REL_EMB).shape[1], store.value(PAD_WORD).size
    d_blocks = np.zeros((n + (k - 1) // 2, rel_dim + word_dim))
    end = d_inputs.shape[1]
    # block i + t takes window i's piece t: each block's windows in ascending order
    for t, a, b in reversed(window_pieces(k, rel_dim, word_dim)):
        d_blocks[t:t + n, a:b] += d_inputs[:, end - (b - a):end]
        end -= b - a
    gradient.step(REL_EMB, rel_plan, d_blocks[:, :rel_dim])
    lead = (k - 1) // 4
    pad_blocks = [*range(lead), *range(lead + n, len(d_blocks))]
    gradient.step(PAD_WORD, ..., d_blocks[pad_blocks, rel_dim:].sum(axis=0))
    return d_blocks[lead:lead + n, rel_dim:]
