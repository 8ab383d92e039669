"""Dense numeric kernels, a named-parameter registry, the per-step gradient
that updates it in place, and a gradient checker.

All arithmetic runs in float64. Model files may be written in float32;
values are widened back to float64 on load.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

MODEL_MAGIC = "DEPNN1"
META_NAME = "__meta__"

WEIGHT = "weight"
BIAS = "bias"
EMBEDDING = "embedding"

_DTYPE_CODES = {"f8": "<f8", "f4": "<f4", "u1": "|u1"}

# multiply-adds in a product that OpenBLAS (0.3.31, AVX-512 x86-64) runs on
# its small-matrix kernels: on one thread, reading the operands in place. A
# larger one is packed first, and split across threads, which can round it
# differently with the thread count.
SMALL_PRODUCT = 100 ** 3

# windows of a path that matmul's and matmul_t's row blocks are cut for: 32
# rows of the 200-d filter (400 x 1300), 128 of the 50-d one (200 x 325). Up
# to this many windows a block stays within SMALL_PRODUCT, on kernels that
# read the filter in place, so a product reads it once: 4 windows by the
# whole 200-d filter took 0.50 ms, in blocks 0.25 ms.
PRODUCT_ROWS = 24

# rows a tensor's deferred steps hold (ParameterStore.defer), 0.9 MB at
# 200-d; a train-200d step adds about 4.6. Its mean step, seed-5 inputs, one
# BLAS thread, median of six alternating 5-s processes, in ms (applies):
# 16 rows 2.07 (0.21), 32 2.12 (0.13), 64 2.00 (0.13), 128 2.10 (0.15);
# 2.58 stepping at once. At 64, 7% of steps apply: outside the 90th percentile.
DEFERRED_ROWS = 64


class ShapeMismatch(ValueError):
    pass


class NonFiniteValue(ArithmeticError):
    pass


class NonFiniteLoss(ArithmeticError):
    pass


class ModelFormatError(ValueError):
    """A model file that is not a well-formed DEPNN1 file."""


def tanh_backward(y, upstream, out=None):
    """Gradient through tanh, expressed in terms of the tanh output y."""
    return np.multiply(upstream, 1.0 - y * y, out=out)


def softmax(v):
    """Max-subtracted exponential normalization. Output sums to 1."""
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(v - v.max())
    return e / e.sum()


def assert_finite(arr, name="tensor"):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{name} contains non-finite values")


class ParameterStore:
    """Named float64 tensors, each with a kind: weight, bias or embedding.

    It holds a model's values or, made by zeros_like and stepped at rate
    -1, a gradient of them; every write is a Gradient's step. A low-rank
    step, value -= left @ right, may be held pending (defer); value()
    applies what is pending first, and matmul() and matmul_t() subtract it
    from their products.

    Single-writer: forward passes are safe from any number of threads while
    nothing is pending, but updates must be serialized externally.
    """

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}
        self._kinds: dict[str, str] = {}
        self._factors: dict[str, tuple[np.ndarray, np.ndarray]] = {}   # left.T, right
        self._pending: dict[str, int] = {}      # their rows in use, where any are

    def register(self, name: str, shape, kind: str = WEIGHT) -> np.ndarray:
        if name in self._values:
            raise ValueError(f"parameter {name!r} already registered")
        if "\t" in name or "\n" in name:
            raise ValueError(f"parameter name {name!r} contains manifest separators")
        if kind not in (WEIGHT, BIAS, EMBEDDING):
            raise ValueError(f"unknown parameter kind {kind!r}")
        value = self._values[name] = np.zeros(shape, dtype=np.float64)
        self._kinds[name] = kind
        return value

    def zeros_like(self) -> ParameterStore:
        """A new store of the same names, shapes and kinds, every value zero."""
        zeros = ParameterStore()
        for name in self.names():
            zeros.register(name, self._values[name].shape, self._kinds[name])
        return zeros

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def names(self) -> list[str]:
        return sorted(self._values)

    def value(self, name: str) -> np.ndarray:
        if name in self._pending:
            self.apply_pending(name)
        return self._values[name]

    def factors(self, name: str) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """(stored, left, right), nothing applied: the tensor is stored -
        left @ right, or stored where left is None."""
        rows = self._pending.get(name)
        if rows is None:
            return self._values[name], None, None
        left_t, right = self._factors[name]
        return self._values[name], left_t[:rows].T, right[:rows]

    def matmul_t(self, name: str, x: np.ndarray) -> np.ndarray:
        """x @ value(name).T, nothing applied."""
        stored, left, right = self.factors(name)
        if x.shape[1] != stored.shape[1]:
            raise ShapeMismatch(f"{name!r} has rows of {stored.shape[1]}, not {x.shape[1]}")
        product = np.empty((len(x), len(stored)))
        for block in row_blocks(len(stored), PRODUCT_ROWS * stored.shape[1]):
            np.matmul(x, stored[block].T, out=product[:, block])
        if left is not None:
            product -= (x @ right.T) @ left.T
        return product

    def matmul(self, name: str, y: np.ndarray) -> np.ndarray:
        """y @ value(name), nothing applied."""
        stored, left, right = self.factors(name)
        product = np.zeros((len(y), stored.shape[1]))
        for block in row_blocks(len(stored), PRODUCT_ROWS * stored.shape[1]):
            product += y[:, block] @ stored[block]
        if left is not None:
            product -= (y @ left) @ right
        return product

    def defer(self, name: str, left: np.ndarray, right: np.ndarray) -> None:
        """Hold value -= left @ right pending: left's columns and right's rows
        join two buffers of DEFERRED_ROWS rows, applied as one product when
        the next step would not fit. A larger step is applied at once."""
        if self._pending.get(name, 0) + len(right) > DEFERRED_ROWS:
            self.value(name)        # applies what is pending
        if len(right) > DEFERRED_ROWS:
            return _subtract_product(self._values[name], left, right)
        if name not in self._factors:
            self._factors[name] = (np.empty((DEFERRED_ROWS, len(left))),
                                   np.empty((DEFERRED_ROWS, right.shape[1])))
        left_t, held = self._factors[name]
        rows = self._pending.get(name, 0)
        left_t[rows:rows + len(right)] = left.T
        held[rows:rows + len(right)] = right
        self._pending[name] = rows + len(right)

    def apply_pending(self, *names: str) -> None:
        """Apply the pending steps of `names`, or of every tensor."""
        for name in names or list(self._pending):
            left_t, right = self._factors[name]
            rows = self._pending.pop(name)
            _subtract_product(self._values[name], left_t[:rows].T, right[:rows])

    def kind(self, name: str) -> str:
        return self._kinds[name]

    def validate_finite(self) -> None:
        for name in self._values:
            assert_finite(self.value(name), name)


def _subtract_product(value: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """value -= left @ right, in row blocks whose products stay within
    SMALL_PRODUCT: 64 rows onto the 200-d filter took 1.3 ms in blocks of 12
    rows, 1.7 ms in packed blocks of 25."""
    for block in row_blocks(len(value), right.size):
        value[block] -= left[block] @ right


def row_blocks(length: int, row_cost: int) -> list[slice]:
    """Row blocks of `length` rows, in order, each within SMALL_PRODUCT at row_cost a row."""
    rows = max(1, SMALL_PRODUCT // row_cost)
    return [slice(start, start + rows) for start in range(0, length, rows)]


class Gradient:
    """A store and a rate: the one write into the store's tensors. A
    training step's steps the model's store at the learning rate; a
    gradient is what a zeroed store of the same layout (zeros_like) holds
    after a backward at rate -1, as 0 - (-delta) is delta exactly."""

    __slots__ = ("_store", "rate")

    def __init__(self, store: ParameterStore, rate: float):
        self._store = store
        self.rate = rate

    def step(self, name: str, index, delta) -> None:
        """value[index] -= rate * delta, spending a dense delta: it is scaled
        in place. A pair (left, right), with index ..., is the delta left @
        right: left is spent, and the store holds the step pending (defer),
        which is not bit for bit the step taken at once.

        Rows of a table, repeated or not, are named by a RowPlan, with one
        delta per entry of the index it was built from: the plan sums a
        repeated row's deltas in call order (RowPlan.sums), then each row
        takes one step, so a table's update is bit for bit the dense one of
        what a zeroed buffer would have summed: two steps on one row would
        round twice."""
        if isinstance(delta, tuple):
            left, right = delta
            left *= self.rate
            return self._store.defer(name, left, right)
        if isinstance(index, RowPlan):
            index, delta = index.sums(delta)
        elif isinstance(index, np.ndarray):
            raise TypeError(f"rows of {name!r} are named by a RowPlan, not an index array")
        delta *= self.rate
        self._store.value(name)[index] -= delta


class RowPlan(np.ndarray):
    """A repeated-index sum compiled once (row_plan), as one int32 array:
    [m, R, c_1 .. c_R, the m distinct rows, the entries in summing order].
    The rows named most come first, ties in the order first seen, so the c_r
    rows named more than r times lead; the entries are each row's first,
    then per rank r the (r+1)-th of each of those c_r rows."""

    __slots__ = ()

    def sums(self, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rows, and each one's deltas (one per entry, in the
        index's row-major order) summed in call order from the first + 0.0."""
        m, ranks = self[:2].tolist()
        ordered = deltas.reshape(-1, deltas.shape[-1])[self[2 + ranks + m:]]
        sums, end = ordered[:m], m
        sums += 0.0
        for count in self[2:2 + ranks].tolist():
            sums[:count] += ordered[end:end + count]
            end += count
        return self[2 + ranks:2 + ranks + m], sums


def row_plan(index: np.ndarray) -> RowPlan:
    """The RowPlan of an integer index of any shape, read in row-major order."""
    entries: dict[int, list[int]] = {}
    for entry, row in enumerate(index.ravel().tolist()):
        entries.setdefault(row, [row]).append(entry)    # the row, then its entries
    # one tuple per rank, the rows named most first; None past a row's last entry
    ranks = list(itertools.zip_longest(*sorted(entries.values(), key=len, reverse=True)))
    counts = [rank.index(None) if rank[-1] is None else len(rank) for rank in ranks[2:]]
    flat = [len(entries), len(counts), *counts, *ranks[0], *ranks[1]] if ranks else [0, 0]
    for rank, count in zip(ranks[2:], counts):
        flat += rank[:count]
    plan = RowPlan(len(flat), np.int32)
    plan[:] = flat
    return plan


def init_uniform(store: ParameterStore, seed: int) -> None:
    """Fill a store deterministically: Xavier-uniform weight matrices,
    zero biases, and small uniform embeddings in +/-0.01.

    Each tensor is drawn straight into its buffer, one double per element
    in sequence, and scaled in place by numpy's own uniform arithmetic,
    low + (high - low) * r: bit for bit one full-size uniform draw, without
    its full-size temporary."""
    rng = np.random.default_rng(seed)
    for name in store.names():
        value, kind = store.value(name), store.kind(name)
        if kind == BIAS:
            value.fill(0.0)
            continue
        if kind == EMBEDDING:
            bound = 0.01
        else:
            if value.ndim != 2:
                raise ShapeMismatch(f"weight {name!r} must be 2-D, got shape {value.shape}")
            fan_out, fan_in = value.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
        flat = value.reshape(-1)
        rng.random(out=flat)
        flat *= bound - -bound
        flat += -bound


# the least denominator of gradient_check's relative error, so that rounding
# noise on a near-zero entry does not register as disagreement
GRADCHECK_FLOOR = 1e-4


def gradient_check(loss_fn, store: ParameterStore, gradient: ParameterStore,
                   epsilon: float = 1e-5) -> tuple[dict[str, float], int]:
    """Compare the analytic gradient against central differences.

    `loss_fn` must be a deterministic, forward-only closure over the store's
    current values that returns the loss and an array of the branches its
    forward took (DepNN's max-pool winners), and `gradient` a store of the
    same layout holding the analytic gradient of that loss at those values. An entry whose two perturbed
    forwards take different branches straddles a kink, where the difference
    measures no derivative: it is skipped and counted. Returns per tensor the
    max over its other entries of |analytic - numeric| /
    max(|analytic|, |numeric|, GRADCHECK_FLOOR), and the count skipped.
    """
    results: dict[str, float] = {}
    skipped = 0
    for name in store.names():
        flat = store.value(name).reshape(-1)
        grad = gradient.value(name).reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + epsilon
            loss_plus, branches_plus = loss_fn()
            flat[i] = original - epsilon
            loss_minus, branches_minus = loss_fn()
            flat[i] = original
            if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
                raise NonFiniteLoss(f"loss non-finite while perturbing {name}[{i}]")
            if not np.array_equal(branches_plus, branches_minus):
                skipped += 1
                continue
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            analytic = grad[i]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), GRADCHECK_FLOOR)
            if err > worst:
                worst = err
        results[name] = worst
    return results, skipped


def _shape_csv(shape) -> str:
    return ",".join(str(s) for s in shape)


def save_store(path, store: ParameterStore, meta: dict | None = None,
               precision: str = "f8") -> None:
    """Write a DEPNN1 model file.

    Layout: the magic line, one manifest line per tensor
    (name TAB shape TAB dtype TAB byte offset), a blank line, then the raw
    little-endian row-major payload. Registration kinds and caller metadata
    travel in a reserved JSON byte tensor so the file is self-contained.
    The manifest is written first and each tensor's bytes after it in
    turn, so no copy of the whole payload is built; an f8 tensor is
    written from its buffer, an f4 one through a copy of that tensor alone;
    a finite value beyond float32's range raises NonFiniteValue first.
    """
    if precision not in ("f8", "f4"):
        raise ValueError(f"precision must be 'f8' or 'f4', not {precision!r}")
    for name in store.names() if precision == "f4" else ():
        with np.errstate(over="ignore"):      # refused below, before the file is opened
            narrowed = store.value(name).astype("<f4")
        if np.isinf(narrowed).sum() != np.isinf(store.value(name)).sum():
            raise NonFiniteValue(f"tensor {name!r} holds a value beyond float32's range")
    blob = {
        "kinds": {name: store.kind(name) for name in store.names()},
        "user": meta or {},
    }
    meta_bytes = json.dumps(blob, sort_keys=True).encode("utf-8")
    itemsize = np.dtype(_DTYPE_CODES[precision]).itemsize
    manifest_lines = [MODEL_MAGIC, f"{META_NAME}\t{len(meta_bytes)}\tu1\t0"]
    offset = len(meta_bytes)
    for name in store.names():
        array = store.value(name)
        manifest_lines.append(f"{name}\t{_shape_csv(array.shape)}\t{precision}\t{offset}")
        offset += array.size * itemsize
    with open(path, "wb") as fh:
        fh.write(("\n".join(manifest_lines) + "\n\n").encode("ascii"))
        fh.write(meta_bytes)
        for name in store.names():
            array = store.value(name).astype(_DTYPE_CODES[precision], copy=False)
            fh.write(array.reshape(-1).view(np.uint8))


def _read_manifest(path, lines: list[str], payload_size: int) -> list[tuple]:
    """(name, shape, dtype, offset) per manifest line, each checked to be
    well-formed, unique, and to lie inside the payload without overlap."""
    entries = []
    for line in lines:
        fields = line.split("\t")
        name = fields[0]
        if len(fields) != 4:
            raise ModelFormatError(f"{path}: manifest line for {name!r} has "
                                   f"{len(fields)} fields, expected 4")
        _, shape_csv, dtype, offset = fields
        if dtype not in _DTYPE_CODES:
            raise ModelFormatError(f"{path}: unknown dtype {dtype!r} for {name!r}")
        try:
            shape = tuple(int(s) for s in shape_csv.split(",")) if shape_csv else ()
            offset = int(offset)
        except ValueError:
            raise ModelFormatError(f"{path}: bad shape or offset for {name!r}") from None
        if offset < 0 or any(s < 0 for s in shape):
            raise ModelFormatError(f"{path}: negative shape or offset for {name!r}")
        entries.append((name, shape, dtype, offset))

    names = set()
    end = 0
    for name, shape, dtype, offset in sorted(entries, key=lambda e: e[3]):
        if name in names:
            raise ModelFormatError(f"{path}: tensor {name!r} is listed twice")
        names.add(name)
        if offset < end:
            raise ModelFormatError(f"{path}: tensor {name!r} overlaps the tensor before it")
        end = offset + _nbytes(shape, dtype)
        if end > payload_size:
            raise ModelFormatError(
                f"{path}: tensor {name!r} needs payload bytes {offset}..{end}, "
                f"but the file holds {payload_size} (truncated?)")
    return entries


def _nbytes(shape, dtype: str) -> int:
    # math.prod on Python ints: a product of huge dimensions cannot wrap
    return math.prod(shape) * np.dtype(_DTYPE_CODES[dtype]).itemsize


def _read_manifest_lines(path, fh) -> list[str]:
    """The manifest lines after the magic line, read up to the blank line
    that ends them; fh is left at the first payload byte."""
    if fh.readline(len(MODEL_MAGIC) + 1) != MODEL_MAGIC.encode("ascii") + b"\n":
        raise ModelFormatError(f"{path}: not a {MODEL_MAGIC} model file")
    lines = []
    while (line := fh.readline()) != b"\n":
        if not line.endswith(b"\n"):
            raise ModelFormatError(f"{path}: missing manifest terminator")
        try:
            lines.append(line[:-1].decode("ascii"))
        except UnicodeDecodeError:
            raise ModelFormatError(f"{path}: manifest is not ASCII") from None
    return lines


# elements read per call in _read_tensor: 256 KB of float64
INIT_BLOCK = 32768


def _read_tensor(path, fh, name: str, value: np.ndarray, stored: np.dtype) -> None:
    """Fill a contiguous buffer (a tensor's float64 one, or __meta__'s
    bytes) from fh, which holds its elements in dtype `stored`, in blocks
    of INIT_BLOCK elements: each block is converted through a block-sized
    buffer when stored in another dtype, and checked to be finite while it
    is in cache. A short read or a NaN or infinity raises ModelFormatError."""
    flat = value.reshape(-1)
    convert = None if stored == value.dtype else np.empty(min(flat.size, INIT_BLOCK), stored)
    for start in range(0, flat.size, INIT_BLOCK):
        block = flat[start:start + INIT_BLOCK]
        raw = block if convert is None else convert[:block.size]
        got = fh.readinto(raw.view(np.uint8))
        if got != raw.nbytes:
            raise ModelFormatError(f"{path}: tensor {name!r} is cut short: read "
                                   f"{start * stored.itemsize + got} of "
                                   f"{flat.size * stored.itemsize} bytes")
        if raw is not block:
            block[...] = raw
        if not np.isfinite(block).all():
            raise ModelFormatError(f"{path}: tensor {name!r} holds a non-finite value")


def load_store(path) -> tuple[ParameterStore, dict]:
    """Read a DEPNN1 model file back into a float64 store; returns
    (store, user metadata). A malformed file raises ModelFormatError.

    The file is streamed: the manifest is checked against the payload size
    taken from the file's size, __meta__ is read for the tensor kinds, and
    then each tensor in manifest order is registered and its bytes read
    straight into the new float64 buffer, block by block (_read_tensor). A
    tensor stored in another dtype or byte order is converted one block at
    a time. So the largest allocation beyond the store is one block. A
    tensor holding a NaN or an infinity is refused."""
    with open(path, "rb") as fh:
        lines = _read_manifest_lines(path, fh)
        payload_start = fh.tell()
        payload_size = os.fstat(fh.fileno()).st_size - payload_start
        entries = _read_manifest(path, lines, payload_size)

        meta = [e for e in entries if e[0] == META_NAME]
        if not meta:
            raise ModelFormatError(f"{path}: missing {META_NAME} entry")
        _, shape, dtype, offset = meta[0]
        raw = np.empty(_nbytes(shape, dtype), dtype=np.uint8)
        fh.seek(payload_start + offset)
        _read_tensor(path, fh, META_NAME, raw, raw.dtype)
        try:
            blob = json.loads(raw.tobytes().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ModelFormatError(f"{path}: {META_NAME} is not JSON") from None
        if not (isinstance(blob, dict) and isinstance(blob.get("kinds"), dict)
                and isinstance(blob.get("user"), dict)):
            raise ModelFormatError(f"{path}: {META_NAME} lacks 'kinds' or 'user'")
        kinds = blob["kinds"]

        store = ParameterStore()
        for name, shape, dtype, offset in entries:
            if name == META_NAME:
                continue
            try:
                value = store.register(name, shape, kinds.get(name, WEIGHT))
            except ValueError as exc:       # an unknown kind, or too many dimensions
                raise ModelFormatError(f"{path}: tensor {name!r}: {exc}") from None
            fh.seek(payload_start + offset)
            _read_tensor(path, fh, name, value, np.dtype(_DTYPE_CODES[dtype]))
    return store, blob["user"]
