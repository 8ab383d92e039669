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
    __slots__ = ("value", "grad", "kind")

    def __init__(self, value: np.ndarray, kind: str):
        self.value = value
        self.grad = np.zeros_like(value)
        self.kind = kind


class ParameterStore:
    """Named dense tensors, each paired with a same-shape gradient buffer.

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

    def zero_grads(self) -> None:
        for param in self._params.values():
            param.grad.fill(0.0)

    def sgd_step(self, learning_rate: float) -> None:
        for param in self._params.values():
            param.value -= learning_rate * param.grad

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


def load_store(path) -> tuple[ParameterStore, dict]:
    """Read a DEPNN1 model file back into a float64 store; returns
    (store, user metadata)."""
    with open(path, "rb") as fh:
        data = fh.read()
    header_end = data.find(b"\n\n")
    if header_end < 0:
        raise ValueError(f"{path}: missing manifest terminator")
    lines = data[:header_end].decode("ascii").split("\n")
    if not lines or lines[0] != MODEL_MAGIC:
        raise ValueError(f"{path}: not a {MODEL_MAGIC} model file")
    payload = data[header_end + 2:]

    tensors: dict[str, np.ndarray] = {}
    for line in lines[1:]:
        name, shape_csv, dtype, offset = line.split("\t")
        if dtype not in _DTYPE_CODES:
            raise ValueError(f"{path}: unknown dtype {dtype!r} for {name!r}")
        shape = tuple(int(s) for s in shape_csv.split(",")) if shape_csv else ()
        count = int(np.prod(shape)) if shape else 1
        array = np.frombuffer(payload, dtype=_DTYPE_CODES[dtype],
                              count=count, offset=int(offset)).reshape(shape)
        tensors[name] = array

    if META_NAME not in tensors:
        raise ValueError(f"{path}: missing {META_NAME} entry")
    blob = json.loads(tensors.pop(META_NAME).tobytes().decode("utf-8"))
    kinds = blob["kinds"]
    store = ParameterStore()
    for name, array in tensors.items():
        store.register(name, array.shape, kinds.get(name, WEIGHT))
        store.set_value(name, array.astype(np.float64))
    return store, blob["user"]
