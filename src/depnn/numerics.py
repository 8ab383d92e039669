"""Dense numeric kernels, a named-parameter registry, and a gradient checker.

All arithmetic runs in float64. Model files may be written in float32;
values are widened back to float64 on load.
"""

from __future__ import annotations

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


class ShapeMismatch(ValueError):
    pass


class NonFiniteValue(ArithmeticError):
    pass


class NonFiniteLoss(ArithmeticError):
    pass


class ModelFormatError(ValueError):
    """A model file that is not a well-formed DEPNN1 file."""


def tanh_backward(y, upstream):
    """Gradient through tanh, expressed in terms of the tanh output y."""
    return upstream * (1.0 - y * y)


def softmax(v):
    """Max-subtracted exponential normalization. Output sums to 1."""
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(v - v.max())
    return e / e.sum()


def assert_finite(arr, name="tensor"):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{name} contains non-finite values")


class _Param:
    __slots__ = ("value", "grad", "kind", "rows", "handed_out")

    def __init__(self, value: np.ndarray, kind: str):
        self.value = value
        self.grad = np.zeros_like(value)
        self.kind = kind
        self.rows: set[int] = set()     # rows written through add_rows
        self.handed_out = False         # grad() returned the buffer since the last clear


class ParameterStore:
    """Named dense tensors, each paired with a same-shape gradient buffer.

    Gradient reaches a buffer either through grad(), as a dense write, or
    through add_rows(), which also records the rows it wrote. sgd_step
    applies what was written and clears what it applied: a tensor with a
    row record is updated and cleared on those rows only, a tensor whose
    buffer grad() handed out since the last clear in full, and any other
    tensor not at all, since its buffer is still zero. The update so costs
    what the step wrote and not the vocabulary size. Once a tensor has a
    row record, its gradient must go through add_rows until the next
    sgd_step or zero_grads, and a dense write must go through a buffer
    fetched from grad() after the last clear: any other write would be
    neither applied nor cleared.

    The training step applies conv_w's update in place inside the path
    CNN's backward pass (path_cnn.conv_backward with a learning rate) and
    never fetches its buffer, so sgd_step does not sweep it. The buffers
    stay full-size for gradient accumulation and gradient_check.

    Single-writer: forward passes against a frozen store are safe from any
    number of threads, but gradient accumulation and updates must be
    serialized externally.
    """

    def __init__(self):
        self._params: dict[str, _Param] = {}

    def register(self, name: str, shape, kind: str = WEIGHT) -> np.ndarray:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered")
        if "\t" in name or "\n" in name:
            raise ValueError(f"parameter name {name!r} contains manifest separators")
        if kind not in (WEIGHT, BIAS, EMBEDDING):
            raise ValueError(f"unknown parameter kind {kind!r}")
        value = np.zeros(shape, dtype=np.float64)
        self._params[name] = _Param(value, kind)
        return value

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return sorted(self._params)

    def value(self, name: str) -> np.ndarray:
        return self._params[name].value

    def grad(self, name: str) -> np.ndarray:
        param = self._params[name]
        param.handed_out = True
        return param.grad

    def kind(self, name: str) -> str:
        return self._params[name].kind

    def set_value(self, name: str, array) -> None:
        param = self._params[name]
        array = np.asarray(array, dtype=np.float64)
        if array.shape != param.value.shape:
            raise ShapeMismatch(f"{name}: cannot assign shape {array.shape} to {param.value.shape}")
        param.value[...] = array

    def add_rows(self, name: str, rows, delta) -> None:
        """grad[rows] += delta, and record the rows for sgd_step. A repeated
        row accumulates each of its deltas, in order."""
        param = self._params[name]
        if isinstance(rows, (int, np.integer)):
            param.grad[rows] += delta
            param.rows.add(int(rows))
        else:
            np.add.at(param.grad, rows, delta)
            param.rows.update(np.ravel(rows).tolist())

    def zero_grads(self) -> None:
        for param in self._params.values():
            param.grad.fill(0.0)
            param.rows.clear()
            param.handed_out = False

    def sgd_step(self, learning_rate: float) -> None:
        """value -= learning_rate * grad on every tensor, then clear the
        gradient that was applied. Entries off the row record and buffers
        not handed out hold a zero gradient, and x - 0.0 is x, so skipping
        them leaves the result bit for bit as a full update."""
        for param in self._params.values():
            if param.rows:
                rows = np.fromiter(param.rows, dtype=np.intp, count=len(param.rows))
                param.value[rows] -= learning_rate * param.grad[rows]
                param.grad[rows] = 0.0
                param.rows.clear()
            elif param.handed_out:
                grad = param.grad
                grad *= learning_rate
                param.value -= grad
                grad.fill(0.0)
            param.handed_out = False

    def validate_finite(self) -> None:
        for name, param in self._params.items():
            assert_finite(param.value, name)


# elements drawn per generator call in init_uniform: 256 KB of float64
INIT_BLOCK = 32768


def init_uniform(store: ParameterStore, seed: int) -> None:
    """Fill a store deterministically: Xavier-uniform weight matrices,
    zero biases, and small uniform embeddings in +/-0.01.

    Each tensor is drawn in row-major blocks of INIT_BLOCK elements
    straight into its buffer. The generator yields one double per element
    in sequence, so the blocks equal one full-size draw bit for bit, without
    its full-size temporary."""
    rng = np.random.default_rng(seed)
    for name in store.names():
        param = store._params[name]
        if param.kind == BIAS:
            param.value.fill(0.0)
            continue
        if param.kind == EMBEDDING:
            bound = 0.01
        else:
            if param.value.ndim != 2:
                raise ShapeMismatch(f"weight {name!r} must be 2-D, got shape {param.value.shape}")
            fan_out, fan_in = param.value.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
        flat = param.value.reshape(-1)
        for start in range(0, flat.size, INIT_BLOCK):
            block = flat[start:start + INIT_BLOCK]
            block[...] = rng.uniform(-bound, bound, block.size)


def gradient_check(loss_fn, store: ParameterStore, epsilon: float = 1e-5, *,
                   guard: float = 1e-4, names=None, sample: int | None = None,
                   rng=None) -> dict[str, float]:
    """Compare analytic gradients in the store against central differences.

    `loss_fn` must be a deterministic, forward-only closure over the store's
    current values; the analytic gradients are read from the store's gradient
    buffers, so populate them before calling. The reported figure per tensor
    is max over entries of |analytic - numeric| / max(|analytic|, |numeric|,
    guard); the guard floor keeps finite-difference rounding noise on
    near-zero entries from registering as disagreement.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    results: dict[str, float] = {}
    for name in (store.names() if names is None else names):
        flat = store.value(name).reshape(-1)
        grad = store.grad(name).reshape(-1)
        if sample is not None and sample < flat.size:
            indices = rng.choice(flat.size, size=sample, replace=False)
        else:
            indices = range(flat.size)
        worst = 0.0
        for i in indices:
            original = flat[i]
            flat[i] = original + epsilon
            loss_plus = float(loss_fn())
            flat[i] = original - epsilon
            loss_minus = float(loss_fn())
            flat[i] = original
            if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
                raise NonFiniteLoss(f"loss non-finite while perturbing {name}[{i}]")
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            analytic = grad[i]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), guard)
            if err > worst:
                worst = err
        results[name] = worst
    return results


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
    written from its buffer, an f4 one through a copy of that tensor alone.
    """
    if precision not in ("f8", "f4"):
        raise ValueError(f"precision must be 'f8' or 'f4', not {precision!r}")
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


def _read_exactly(path, fh, name: str, array: np.ndarray) -> None:
    """Fill a contiguous array's bytes from fh, or raise ModelFormatError."""
    view = array.reshape(-1).view(np.uint8)
    got = fh.readinto(view)
    if got != view.size:
        raise ModelFormatError(f"{path}: tensor {name!r} is cut short: "
                               f"read {got} of {view.size} bytes")


def load_store(path) -> tuple[ParameterStore, dict]:
    """Read a DEPNN1 model file back into a float64 store; returns
    (store, user metadata). A malformed file raises ModelFormatError.

    The file is streamed: the manifest is checked against the payload size
    taken from the file's size, __meta__ is read for the tensor kinds, and
    then each tensor in manifest order is registered and its bytes read
    straight into the new float64 buffer. A tensor stored in another dtype
    or byte order is read alone and converted into the buffer. So the
    largest allocation beyond the store is one converted tensor's bytes."""
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
        _read_exactly(path, fh, META_NAME, raw)
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
            stored = np.dtype(_DTYPE_CODES[dtype])
            if stored == value.dtype:
                _read_exactly(path, fh, name, value)
            else:
                raw = np.empty(shape, dtype=stored)
                _read_exactly(path, fh, name, raw)
                value[...] = raw
    return store, blob["user"]
