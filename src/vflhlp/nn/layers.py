"""Dense layers, embedding tables and the tabular encoder.

Everything is float64 and the backward passes are exact reverse-mode
gradients of the forward passes. No autograd framework: training here has
to agree with finite differences to ~1e-4 relative error and the split
protocol has to agree with a centralized reference to 1e-10, so the
arithmetic is kept explicit and deterministic.

A model (an encoder or an Mlp head) is its shape plus one float64 vector,
`theta`: `Mlp(dims, theta)` and `TabularEncoder(spec, theta)` lay their
per-tensor arrays (`params()`, `EmbeddingTable.tables`) over the vector they
are given, or over a new zero vector. So an optimizer step, a finite check or
a copy is one vector operation, and a model pickles as (shape, theta). Write
into those views in place (`arr[...] = ...`); rebinding one detaches it from
the model.

A forward pass returns its output and a tape, a plain tuple of what the
backward pass reads: `(inputs, preacts)` per layer for an Mlp, and
`(embedding rows, mlp tape)` for a TabularEncoder. `TabularEncoder.backward`
returns one flat gradient laid out like theta.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ..errors import SchemaError

def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in)).astype(np.float64)


def _as_f64(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise SchemaError(f"{name} must be 2-d, got shape {arr.shape}")
    return arr


class ParamLayout:
    """Names, shapes and offsets of the tensors packed into one flat vector."""

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        self.names = list(shapes)
        self.shapes = [tuple(shape) for shape in shapes.values()]
        self.starts = [0]
        for shape in self.shapes:
            self.starts.append(self.starts[-1] + math.prod(shape))
        self.size = self.starts[-1]

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into `vec`, which must have `size` entries."""
        return {
            name: vec[a:b].reshape(shape)
            for name, shape, a, b in zip(
                self.names, self.shapes, self.starts, self.starts[1:]
            )
        }

    def flatten(self, values: dict[str, np.ndarray]) -> np.ndarray:
        """Pack named arrays into one vector; names and shapes must match exactly."""
        missing = sorted(set(self.names) - set(values))
        extra = sorted(set(values) - set(self.names))
        if missing or extra:
            raise SchemaError(
                f"parameter name mismatch: missing {missing}, unexpected {extra}"
            )
        parts = []
        for name, shape in zip(self.names, self.shapes):
            arr = np.asarray(values[name], dtype=np.float64)
            if arr.shape != shape:
                raise SchemaError(
                    f"parameter {name!r} has shape {arr.shape}, expected {shape}"
                )
            parts.append(arr.ravel())
        return np.concatenate(parts)

    def name_at(self, index: int) -> str:
        """Name of the tensor that holds flat entry `index`."""
        return self.names[bisect.bisect_right(self.starts, index) - 1]


class FlatParams:
    """Parameters as named views into one float64 vector, `theta`.

    Subclasses set `layout`, then call `_lay_over` to set `theta` and `_views`.
    """

    theta: np.ndarray
    layout: ParamLayout
    _views: dict[str, np.ndarray]

    def _lay_over(self, theta: np.ndarray | None) -> None:
        if theta is None:
            theta = np.zeros(self.layout.size)
        elif theta.shape != (self.layout.size,) or theta.dtype != np.float64:
            raise SchemaError(
                f"theta must be float64 of shape ({self.layout.size},), "
                f"got {theta.dtype} {theta.shape}"
            )
        self.theta = theta
        self._views = self.layout.views(theta)

    def params(self) -> dict[str, np.ndarray]:
        """Live parameter arrays; writing into them writes into the model."""
        return dict(self._views)

    def params_copy(self) -> dict[str, np.ndarray]:
        return self.layout.views(self.theta.copy())

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        """Overwrite parameters in place; names and shapes must match exactly."""
        self.theta[...] = self.layout.flatten(values)

    def grads_dict(self, grad: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into a flat gradient laid out like `theta`."""
        return self.layout.views(grad)


def _mlp_shapes(dims: list[int]) -> dict[str, tuple[int, ...]]:
    if len(dims) < 2:
        raise SchemaError("dims must list at least input and output size")
    shapes = {}
    for i, (din, dout) in enumerate(zip(dims, dims[1:])):
        shapes[f"{i}.weight"] = (dout, din)
        shapes[f"{i}.bias"] = (dout,)
    return shapes


class Mlp(FlatParams):
    """Dense layers over one flat vector for a dim chain [in, h1, ..., out].

    Hidden layers are relu, the last is identity. Without `theta` the
    parameters start at zero.
    """

    def __init__(self, dims: list[int], theta: np.ndarray | None = None):
        self.dims = list(dims)
        self.layout = ParamLayout(_mlp_shapes(self.dims))
        self._lay_over(theta)
        n = len(self.dims) - 1
        # per layer: (weight, bias) views, and (weight start, bias start, end)
        self._layers = [
            (self._views[f"{i}.weight"], self._views[f"{i}.bias"]) for i in range(n)
        ]
        st = self.layout.starts
        self._spans = [(st[2 * i], st[2 * i + 1], st[2 * i + 2]) for i in range(n)]

    def __reduce__(self):
        return Mlp, (self.dims, self.theta)

    @classmethod
    def init(
        cls, rng: np.random.Generator, dims: list[int], theta: np.ndarray | None = None
    ) -> "Mlp":
        """Glorot uniform weights, layer by layer, and zero biases."""
        mlp = cls(dims, theta)
        for w, b in mlp._layers:
            w[...] = glorot_uniform(rng, *w.shape)
            b[...] = 0.0
        return mlp

    def forward(self, x) -> tuple[np.ndarray, tuple[list, list]]:
        """Return (output, tape); the tape holds each layer's input and pre-activation."""
        x = _as_f64(x, "mlp input")
        if x.shape[1] != self.dims[0]:
            raise SchemaError(f"mlp expects input dim {self.dims[0]}, got {x.shape[1]}")
        inputs, preacts = [], []
        last = len(self._layers) - 1
        for i, (w, b) in enumerate(self._layers):
            inputs.append(x)
            z = x @ w.T + b
            preacts.append(z)
            x = z if i == last else np.maximum(z, 0.0)
        return x, (inputs, preacts)

    def backward(
        self, tape: tuple[list, list], upstream: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return (flat parameter gradient laid out like theta, input gradient).

        The gradient is written into `out` when given, else into a new vector.
        """
        inputs, preacts = tape
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != preacts[-1].shape:
            raise SchemaError(
                f"upstream shape {upstream.shape} does not match output "
                f"{preacts[-1].shape}"
            )
        grad = np.empty(self.layout.size) if out is None else out
        d = upstream
        last = len(self._layers) - 1
        for i in range(last, -1, -1):
            dz = d if i == last else d * (preacts[i] > 0.0)
            a, m, b = self._spans[i]
            grad[a:m] = (dz.T @ inputs[i]).ravel()
            grad[m:b] = dz.sum(axis=0)
            d = dz @ self._layers[i][0]
        return grad, d


class EmbeddingTable:
    """Per-field embedding matrices fused into one [sum of cardinalities, dim] block.

    Row 0 of every field's table is the unseen bucket; `tables` holds one
    view into the block per field.
    """

    def __init__(
        self,
        cardinalities: list[tuple[str, int]],
        embed_dim: int,
        block: np.ndarray | None = None,
    ):
        """Lay the tables over `block` (any contiguous float64 array with
        sum(cardinalities) * embed_dim entries), or over a new zero block."""
        if not cardinalities:
            raise SchemaError("EmbeddingTable needs at least one field")
        for name, card in cardinalities:
            if card < 1:
                raise SchemaError(f"field {name!r} has cardinality {card}")
        self.embed_dim = embed_dim
        self.field_names = [name for name, _ in cardinalities]
        cards = [card for _, card in cardinalities]
        self.cards = np.array(cards, dtype=np.uint64)
        self.offsets = np.cumsum([0, *cards[:-1]]).astype(np.int64)
        shape = (sum(cards), embed_dim)
        self.block = np.zeros(shape) if block is None else block.reshape(shape)
        self.tables = {
            name: self.block[a : a + card]
            for name, a, card in zip(self.field_names, self.offsets, cards)
        }

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        cardinalities: list[tuple[str, int]],
        embed_dim: int,
        block: np.ndarray | None = None,
    ) -> "EmbeddingTable":
        """Uniform(-0.05, 0.05) rows, one field's table after the other."""
        table = cls(cardinalities, embed_dim, block)
        for t in table.tables.values():
            t[...] = rng.uniform(-0.05, 0.05, size=t.shape)
        return table

    @property
    def out_dim(self) -> int:
        return len(self.field_names) * self.embed_dim

    def lookup(self, cat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gather per-field rows: ([n, n_fields * embed_dim], block rows [n, n_fields]).

        Out-of-range and negative indices fall into the field's unseen bucket.
        The returned block rows are what `backward` takes.
        """
        cat = np.asarray(cat)
        if cat.ndim != 2 or cat.shape[1] != len(self.field_names):
            raise SchemaError(
                f"categorical batch must be [n, {len(self.field_names)}], got {cat.shape}"
            )
        idx = cat.astype(np.int64, copy=False)
        # as unsigned, negative indices are huge, so one comparison catches both ends
        bad = idx.view(np.uint64) >= self.cards
        rows = np.where(bad, 0, idx) + self.offsets
        return self.block[rows].reshape(cat.shape[0], self.out_dim), rows

    def backward(
        self, rows: np.ndarray, upstream: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Scatter-add the upstream gradient into a zeroed block-shaped gradient.

        `out`, when given, is overwritten; duplicate rows accumulate.
        """
        if upstream.shape != (rows.shape[0], self.out_dim):
            raise SchemaError(
                f"embedding upstream must be [n, {self.out_dim}], got {upstream.shape}"
            )
        if out is None:
            out = np.zeros_like(self.block)
        else:
            out.fill(0.0)
        np.add.at(out, rows.ravel(), upstream.reshape(-1, self.embed_dim))
        return out


@dataclass(frozen=True)
class EncoderSpec:
    """Architecture of one party's encoder, enough to rebuild it exactly."""

    cat_fields: tuple[tuple[str, int], ...]  # (field name, cardinality)
    num_fields: int
    embed_dim: int
    hidden: tuple[int, ...]  # mlp widths, last entry is the representation dim

    def __post_init__(self):
        if not self.hidden:
            raise SchemaError("encoder needs at least one mlp layer width")
        if self.cat_fields and self.embed_dim < 1:
            raise SchemaError("embed_dim must be >= 1 when categorical fields exist")
        if self.num_fields < 0:
            raise SchemaError("num_fields must be >= 0")
        if self.input_dim == 0:
            raise SchemaError("encoder has no input features")

    @property
    def input_dim(self) -> int:
        return len(self.cat_fields) * self.embed_dim + self.num_fields

    @property
    def rep_dim(self) -> int:
        return self.hidden[-1]

    def build(self, rng: np.random.Generator) -> "TabularEncoder":
        """Draw a fresh encoder; embeddings first, then mlp, in one stream."""
        enc = TabularEncoder(self)
        if enc.embed is not None:
            EmbeddingTable.init(rng, list(self.cat_fields), self.embed_dim, enc.embed.block)
        Mlp.init(rng, enc.mlp.dims, enc.mlp.theta)
        return enc

    def build_empty(self) -> "TabularEncoder":
        """All-zero encoder, for loading saved parameters into."""
        return TabularEncoder(self)


class TabularEncoder(FlatParams):
    """Embedding tables (optional) feeding an Mlp; one per party.

    theta holds the fused embedding block first, then each dense layer's
    weight and bias.
    """

    def __init__(self, spec: EncoderSpec, theta: np.ndarray | None = None):
        self.spec = spec
        dims = [spec.input_dim, *spec.hidden]
        shapes = {f"embed.{n}": (card, spec.embed_dim) for n, card in spec.cat_fields}
        for name, shape in _mlp_shapes(dims).items():
            shapes[f"mlp.{name}"] = shape
        self.layout = ParamLayout(shapes)
        self._lay_over(theta)
        e = self.embed_size = sum(card for _, card in spec.cat_fields) * spec.embed_dim
        self.embed = None
        if spec.cat_fields:
            self.embed = EmbeddingTable(
                list(spec.cat_fields), spec.embed_dim, self.theta[:e]
            )
        self.mlp = Mlp(dims, self.theta[e:])

    def __reduce__(self):
        return TabularEncoder, (self.spec, self.theta)

    @property
    def rep_dim(self) -> int:
        return self.spec.rep_dim

    def forward(self, cat: np.ndarray | None, num: np.ndarray | None):
        """Embed + concat + mlp. Returns (representation, (embedding rows, mlp tape))."""
        parts = []
        rows = None
        if self.embed is not None:
            if cat is None:
                raise SchemaError("encoder has embeddings but got no categorical batch")
            emb, rows = self.embed.lookup(cat)
            parts.append(emb)
        if self.spec.num_fields:
            if num is None:
                raise SchemaError("encoder expects numerical features but got none")
            num = _as_f64(num, "numerical batch")
            if num.shape[1] != self.spec.num_fields:
                raise SchemaError(
                    f"expected {self.spec.num_fields} numerical columns, "
                    f"got {num.shape[1]}"
                )
            if rows is not None and num.shape[0] != rows.shape[0]:
                raise SchemaError("categorical and numerical row counts differ")
            parts.append(num)
        x = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        out, mlp_tape = self.mlp.forward(x)
        return out, (rows, mlp_tape)

    def backward(self, tape: tuple, upstream: np.ndarray) -> np.ndarray:
        """The parameter gradient as a new vector laid out like theta."""
        rows, mlp_tape = tape
        grad = np.empty(self.layout.size)
        e = self.embed_size
        _, dx = self.mlp.backward(mlp_tape, upstream, out=grad[e:])
        if self.embed is not None:
            self.embed.backward(
                rows,
                dx[:, : self.embed.out_dim],
                out=grad[:e].reshape(self.embed.block.shape),
            )
        return grad
