"""Dense numeric kernels, a named-parameter registry, and a gradient checker.

All arithmetic runs in float64. Model files may be written in float32;
values are widened back to float64 on load.
"""

from __future__ import annotations

import json

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
    __slots__ = ("value", "grad", "kind", "rows")

    def __init__(self, value: np.ndarray, kind: str):
        self.value = value
        self.grad = np.zeros_like(value)
        self.kind = kind
        self.rows: set[int] = set()     # rows written through add_rows


class ParameterStore:
    """Named dense tensors, each paired with a same-shape gradient buffer.

    Gradient reaches a buffer either through grad(), as a dense write, or
    through add_rows(), which also records the rows it wrote. sgd_step
    applies every buffer and clears what it applied: a tensor with a row
    record is updated and cleared on those rows only, every other tensor in
    full, so the update costs what the step wrote and not the vocabulary
    size. Once a tensor has a row record, its gradient must go through
    add_rows until the next sgd_step or zero_grads: a dense write outside
    the recorded rows would be neither applied nor cleared.

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
        return self._params[name].grad

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

    def sgd_step(self, learning_rate: float) -> None:
        """value -= learning_rate * grad on every tensor, then clear the
        gradient that was applied. Entries off the row record hold a zero
        gradient, so skipping them leaves the result bit for bit as a full
        update."""
        for param in self._params.values():
            if param.rows:
                rows = np.fromiter(param.rows, dtype=np.intp, count=len(param.rows))
                param.value[rows] -= learning_rate * param.grad[rows]
                param.grad[rows] = 0.0
                param.rows.clear()
            else:
                grad = param.grad
                grad *= learning_rate
                param.value -= grad
                grad.fill(0.0)

    def validate_finite(self) -> None:
        for name, param in self._params.items():
            assert_finite(param.value, name)


def init_uniform(store: ParameterStore, seed: int) -> None:
    """Fill a store deterministically: Xavier-uniform weight matrices,
    zero biases, and small uniform embeddings in +/-0.01."""
    rng = np.random.default_rng(seed)
    for name in store.names():
        param = store._params[name]
        if param.kind == BIAS:
            param.value.fill(0.0)
        elif param.kind == EMBEDDING:
            param.value[...] = rng.uniform(-0.01, 0.01, param.value.shape)
        else:
            if param.value.ndim != 2:
                raise ShapeMismatch(f"weight {name!r} must be 2-D, got shape {param.value.shape}")
            fan_out, fan_in = param.value.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            param.value[...] = rng.uniform(-bound, bound, param.value.shape)


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
    """
    if precision not in ("f8", "f4"):
        raise ValueError(f"precision must be 'f8' or 'f4', not {precision!r}")
    blob = {
        "kinds": {name: store.kind(name) for name in store.names()},
        "user": meta or {},
    }
    meta_bytes = np.frombuffer(
        json.dumps(blob, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    entries: list[tuple[str, np.ndarray, str]] = [(META_NAME, meta_bytes, "u1")]
    for name in store.names():
        entries.append((name, store.value(name), precision))

    manifest_lines = [MODEL_MAGIC]
    payload = bytearray()
    for name, array, dtype in entries:
        raw = array.astype(_DTYPE_CODES[dtype]).tobytes(order="C")
        manifest_lines.append(f"{name}\t{_shape_csv(array.shape)}\t{dtype}\t{len(payload)}")
        payload.extend(raw)
    with open(path, "wb") as fh:
        fh.write(("\n".join(manifest_lines) + "\n\n").encode("ascii"))
        fh.write(bytes(payload))


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
        nbytes = int(np.prod(shape)) * np.dtype(_DTYPE_CODES[dtype]).itemsize
        if offset < end:
            raise ModelFormatError(f"{path}: tensor {name!r} overlaps the tensor before it")
        end = offset + nbytes
        if end > payload_size:
            raise ModelFormatError(
                f"{path}: tensor {name!r} needs payload bytes {offset}..{end}, "
                f"but the file holds {payload_size} (truncated?)")
    return entries


def load_store(path) -> tuple[ParameterStore, dict]:
    """Read a DEPNN1 model file back into a float64 store; returns
    (store, user metadata). A malformed file raises ModelFormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    header_end = data.find(b"\n\n")
    if header_end < 0:
        raise ModelFormatError(f"{path}: missing manifest terminator")
    try:
        lines = data[:header_end].decode("ascii").split("\n")
    except UnicodeDecodeError:
        raise ModelFormatError(f"{path}: manifest is not ASCII") from None
    if lines[0] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: not a {MODEL_MAGIC} model file")
    payload = data[header_end + 2:]

    tensors: dict[str, np.ndarray] = {}
    for name, shape, dtype, offset in _read_manifest(path, lines[1:], len(payload)):
        count = int(np.prod(shape))
        tensors[name] = np.frombuffer(payload, dtype=_DTYPE_CODES[dtype],
                                      count=count, offset=offset).reshape(shape)

    if META_NAME not in tensors:
        raise ModelFormatError(f"{path}: missing {META_NAME} entry")
    try:
        blob = json.loads(tensors.pop(META_NAME).tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ModelFormatError(f"{path}: {META_NAME} is not JSON") from None
    if not (isinstance(blob, dict) and isinstance(blob.get("kinds"), dict)
            and isinstance(blob.get("user"), dict)):
        raise ModelFormatError(f"{path}: {META_NAME} lacks 'kinds' or 'user'")
    kinds = blob["kinds"]
    store = ParameterStore()
    for name, array in tensors.items():
        store.register(name, array.shape, kinds.get(name, WEIGHT))
        store.set_value(name, array.astype(np.float64))
    return store, blob["user"]
