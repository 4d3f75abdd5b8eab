"""Feedforward ReLU networks, property specifications, and canonicalization.

Model files are JSON objects ``{"layers": [{"weights": [[...]], "bias":
[...]}, ...]}``.  A ReLU is applied between consecutive layers and never
after the last one.  Property files carry an input box plus a conjunction of
affine output conditions ``spec_matrix @ y >= threshold``; canonicalization
folds those rows into the network so the question becomes whether every
output of the rewritten network is nonnegative over the box.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import BoxDomain

# Values per row block of ``NetworkModel.evaluate``: a block holds
# ``EVAL_BLOCK // widest hidden layer`` rows, rounded down to a multiple of
# ``EVAL_ROW_TILE``, and the last block also takes the remainder.  32768
# float64 values are 256 KiB (under 512 KiB for the last block), which stays
# in L2, so a dense sample reuses one small scratch allocation instead of
# paging in fresh multi-MB temporaries at every layer, and its extra memory
# is bounded whatever the batch size.
EVAL_BLOCK = 32768
# Block rows are a multiple of this.  The result of a BLAS product can
# depend on how many rows share it: a row's bits change with its place in
# the kernel's row tiles, and a lone short product may take another kernel.
# With OpenBLAS 0.3.31 (Haswell kernels), blocks of a multiple of 24 rows and
# no short trailing block gave every row the bits of one single-threaded
# product over the whole batch, for layer widths 1-300; multiples of 8 did
# not for layers wider than about 200.
EVAL_ROW_TILE = 24


class ModelFormatError(ValueError):
    """Malformed or inconsistent model / property data."""


def _as_array(obj, what: str, ndim: int) -> np.ndarray:
    """``obj`` as a nonempty, finite float array of ``ndim`` dimensions."""
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{what} is not a rectangular numeric array") from exc
    if arr.ndim != ndim or arr.size == 0:
        raise ModelFormatError(f"{what} must be a nonempty {ndim}-D array")
    if not np.isfinite(arr).all():
        raise ModelFormatError(f"{what} contains NaN or infinite entries")
    return arr


@dataclass
class AffineLayer:
    """One affine map ``z = weights @ x + bias``; weights has shape (out, in)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = _as_array(self.weights, "layer weights", 2)
        self.bias = _as_array(self.bias, "layer bias", 1)
        if self.bias.size != self.weights.shape[0]:
            raise ModelFormatError(
                f"bias length {self.bias.size} does not match "
                f"{self.weights.shape[0]} output rows"
            )

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


class NetworkModel:
    """A stack of affine layers with implicit ReLUs between them."""

    def __init__(self, layers):
        layers = list(layers)
        if not layers:
            raise ModelFormatError("model needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ModelFormatError(
                    f"layer input width {nxt.in_dim} does not match "
                    f"previous output width {prev.out_dim}"
                )
        self.layers = layers

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Forward pass for a single point ``(n,)`` or a batch ``(m, n)``.

        The batch goes through the layers in blocks of rows (see
        ``EVAL_BLOCK``), each hidden layer writing into one of two scratch
        buffers and the last layer straight into the result.  Every row sees
        the same operations in the same order as in an unblocked pass: the
        product, the bias, the ReLU.  The caller's array is only read.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        z = np.atleast_2d(x)
        if z.ndim != 2 or z.shape[1] != self.input_dim:
            raise ModelFormatError(
                f"input of shape {x.shape} is neither a point nor a batch of "
                f"points of the model's input dimension {self.input_dim}"
            )
        m = z.shape[0]
        *hidden, last = self.layers
        widest = max((layer.out_dim for layer in hidden), default=1)
        rows = max(EVAL_ROW_TILE, EVAL_BLOCK // widest // EVAL_ROW_TILE * EVAL_ROW_TILE)
        blocks = max(1, m // rows)
        cap = m - (blocks - 1) * rows
        # One allocation for both buffers: glibc maps a large block afresh
        # until one of its size has been freed, and two separate ones kept
        # being returned to the system and faulted in again on each call.
        scratch = np.empty((2, cap * widest))
        views = [
            scratch[i % 2][: cap * layer.out_dim].reshape(cap, layer.out_dim)
            for i, layer in enumerate(hidden)
        ]
        out = np.empty((m, self.output_dim))
        for k in range(blocks):
            start = k * rows
            h = z[start : m if k == blocks - 1 else start + rows]
            for layer, view in zip(hidden, views):
                buf = view[: h.shape[0]]
                np.matmul(h, layer.weights.T, out=buf)
                buf += layer.bias
                np.maximum(buf, 0.0, out=buf)
                h = buf
            dst = out[start : start + h.shape[0]]
            np.matmul(h, last.weights.T, out=dst)
            dst += last.bias
        return out[0] if single else out


@dataclass
class PropertySpec:
    """Input box plus output conditions ``spec_matrix @ y >= threshold``."""

    input_lower: np.ndarray
    input_upper: np.ndarray
    spec_matrix: np.ndarray
    threshold: np.ndarray

    def __post_init__(self):
        self.input_lower = _as_array(self.input_lower, "input_lower", 1)
        self.input_upper = _as_array(self.input_upper, "input_upper", 1)
        self.spec_matrix = _as_array(self.spec_matrix, "spec_matrix", 2)
        self.threshold = _as_array(self.threshold, "threshold", 1)
        if self.input_lower.size != self.input_upper.size:
            raise ModelFormatError("input_lower and input_upper lengths differ")
        if np.any(self.input_lower > self.input_upper):
            raise ModelFormatError("input_lower exceeds input_upper")
        if self.threshold.size != self.spec_matrix.shape[0]:
            raise ModelFormatError("threshold length does not match spec rows")

    @property
    def box(self) -> BoxDomain:
        return BoxDomain(self.input_lower.copy(), self.input_upper.copy())


@dataclass
class CanonicalProblem:
    """Verification task in canonical form.

    ``model`` ends with the property rows folded in, so the task is exactly
    "every output row of ``model`` is nonnegative over ``box``".  A point
    witnessing a negative row value is a counterexample.
    """

    model: NetworkModel
    box: BoxDomain
    num_rows: int

    def __post_init__(self):
        if self.num_rows != self.model.output_dim:
            raise ValueError(
                f"num_rows {self.num_rows} does not match model output "
                f"{self.model.output_dim}"
            )
        if self.box.dim != self.model.input_dim:
            raise ValueError(
                f"box dimension {self.box.dim} does not match model input "
                f"{self.model.input_dim}"
            )

    def value(self, x: np.ndarray) -> float:
        """Worst row value at a point; negative means the property fails."""
        vals = self.model.evaluate(np.asarray(x, dtype=float))
        return float(np.min(vals, axis=-1))


def _reject_nonfinite(text_value: str):
    raise ModelFormatError(f"non-finite literal {text_value!r} not allowed")


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_reject_nonfinite)
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelFormatError(f"{path}: top-level JSON value must be an object")
    return data


def model_from_dict(data: dict) -> NetworkModel:
    if "layers" not in data or not isinstance(data["layers"], list):
        raise ModelFormatError("model JSON needs a 'layers' list")
    layers = []
    for idx, entry in enumerate(data["layers"]):
        if not isinstance(entry, dict) or "weights" not in entry or "bias" not in entry:
            raise ModelFormatError(f"layer {idx} needs 'weights' and 'bias'")
        layers.append(AffineLayer(entry["weights"], entry["bias"]))
    return NetworkModel(layers)


def property_from_dict(data: dict) -> PropertySpec:
    for key in ("input_lower", "input_upper", "spec_matrix", "threshold"):
        if key not in data:
            raise ModelFormatError(f"property JSON is missing '{key}'")
    return PropertySpec(
        data["input_lower"], data["input_upper"], data["spec_matrix"], data["threshold"]
    )


def load_model(path) -> NetworkModel:
    """Read and validate a model JSON file."""
    return model_from_dict(_load_json(path))


def load_property(path) -> PropertySpec:
    """Read and validate a property JSON file."""
    return property_from_dict(_load_json(path))


def canonicalize(model: NetworkModel, prop: PropertySpec) -> CanonicalProblem:
    """Fold the property rows into the network's final affine layer.

    The conditions ``C @ f(x) >= t`` become the outputs ``C @ f(x) - t`` of a
    rewritten network.  Because an affine map composed with an affine map is
    affine, the rows merge exactly into the last layer: no relaxation is
    involved and evaluation of the canonical model reproduces
    ``C @ f(x) - t`` bit for bit up to float associativity.
    """
    if prop.input_lower.size != model.input_dim:
        raise ModelFormatError(
            f"property box dimension {prop.input_lower.size} does not match "
            f"model input {model.input_dim}"
        )
    if prop.spec_matrix.shape[1] != model.output_dim:
        raise ModelFormatError(
            f"spec_matrix has {prop.spec_matrix.shape[1]} columns, model has "
            f"{model.output_dim} outputs"
        )
    last = model.layers[-1]
    merged = AffineLayer(
        prop.spec_matrix @ last.weights,
        prop.spec_matrix @ last.bias - prop.threshold,
    )
    canon = NetworkModel(model.layers[:-1] + [merged])
    return CanonicalProblem(canon, prop.box, prop.spec_matrix.shape[0])
