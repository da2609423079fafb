"""Dense layers, embedding tables and the tabular encoder.

Everything is float64 and the backward passes are exact reverse-mode
gradients of the forward passes. No autograd framework: training here has
to agree with finite differences to ~1e-4 relative error and the split
protocol has to agree with a centralized reference to 1e-10, so the
arithmetic is kept explicit and deterministic.

A model (an encoder or an Mlp head) is its shape plus two float64 vectors
of one layout, `theta` and `grad`: `Mlp(dims, theta, grad)` and
`TabularEncoder(spec, theta, grad)` lay their per-tensor arrays (`params()`,
`EmbeddingTable.tables`) over the `theta` they are given, and their backward
pass's gradient views over the `grad`, or over new zero vectors. So an
optimizer step, a finite check or a copy is one vector operation, and a model
pickles as (shape, theta); a copy gets a `grad` of its own. Write into those
views in place (`arr[...] = ...`); rebinding one detaches it from the model.

A forward pass returns its output and a tape, a plain tuple of what the
backward pass reads: `(inputs, preacts)` per layer for an Mlp, and
`(embedding rows, mlp tape)` for a TabularEncoder. A backward pass writes the
flat gradient into the model's `grad`, overwriting it whole, and returns it.
`TabularEncoder.forward` checks the shapes of its batch; an Mlp checks
nothing, since its input is an encoder's output or a head input whose width
was checked once (`Federation`, `federated_predict`), and its upstream is the
gradient of its own output. Nothing checks dtypes: the data layer builds
float64 arrays, so nothing is re-cast per call.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ..errors import SchemaError

# the relu's 0-d float64 operand: a Python 0.0 is made an array on every call
_ZERO = np.zeros(())


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in)).astype(np.float64)


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
    """Parameters as named views into one float64 vector, `theta`, and the
    backward pass's gradient, `grad`, a vector laid out like it.

    Subclasses set `layout`, then call `_lay_over` to set `theta`, `grad` and
    `_views`.
    """

    theta: np.ndarray
    grad: np.ndarray
    layout: ParamLayout
    _views: dict[str, np.ndarray]

    def _lay_over(self, theta: np.ndarray | None, grad: np.ndarray | None) -> None:
        size = self.layout.size
        for name, vec in (("theta", theta), ("grad", grad)):
            if vec is not None and (vec.shape != (size,) or vec.dtype != np.float64):
                raise SchemaError(
                    f"{name} must be float64 of shape ({size},), got {vec.dtype} {vec.shape}"
                )
        self.theta = np.zeros(size) if theta is None else theta
        self.grad = np.zeros(size) if grad is None else grad
        self._views = self.layout.views(self.theta)

    def params(self) -> dict[str, np.ndarray]:
        """Live parameter arrays; writing into them writes into the model."""
        return dict(self._views)

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        """Overwrite parameters in place; names and shapes must match exactly."""
        self.theta[...] = self.layout.flatten(values)


class ModelSet:
    """Models copied into consecutive slices of one float64 vector, `theta`,
    and laid over them again as `models`, each with its slice of `grad`, a
    vector laid out like theta that their backward passes write into.
    `layout` names each entry "<model>.<tensor>"; `spans[name]` is model
    `name`'s slice of both, so its `grad` is `grad[spans[name]]`."""

    def __init__(self, models: dict[str, FlatParams]):
        self.layout = ParamLayout({f"{name}.{t}": shape for name, m in models.items()
                                   for t, shape in zip(m.layout.names, m.layout.shapes)})
        self.theta = np.concatenate([m.theta for m in models.values()])
        self.grad = np.zeros_like(self.theta)
        self.spans, self.models, start = {}, {}, 0
        for name, m in models.items():
            span = self.spans[name] = slice(start, start + m.layout.size)
            cls, (shape, _) = m.__reduce__()  # (class, (dims or spec, theta))
            self.models[name], start = cls(shape, self.theta[span], self.grad[span]), span.stop


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

    def __init__(
        self, dims: list[int], theta: np.ndarray | None = None, grad: np.ndarray | None = None
    ):
        self.dims = list(dims)
        self.layout = ParamLayout(_mlp_shapes(self.dims))
        self._lay_over(theta, grad)
        # per layer: the weight, its transpose and the bias, views that the
        # forward pass reads; and the backward pass's steps, last layer first:
        # (layer, weight, weight gradient view, bias gradient view)
        grads = self.layout.views(self.grad)
        self._layers, self._steps = [], []
        for i in range(len(self.dims) - 1):
            w = self._views[f"{i}.weight"]
            self._layers.append((w, w.T, self._views[f"{i}.bias"]))
            self._steps.insert(0, (i, w, grads[f"{i}.weight"], grads[f"{i}.bias"]))

    def __reduce__(self):
        return Mlp, (self.dims, self.theta)

    @classmethod
    def init(
        cls, rng: np.random.Generator, dims: list[int], theta: np.ndarray | None = None
    ) -> "Mlp":
        """Glorot uniform weights, layer by layer, and zero biases."""
        mlp = cls(dims, theta)
        for w, _, b in mlp._layers:
            w[...] = glorot_uniform(rng, *w.shape)
            b[...] = 0.0
        return mlp

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple[list, list]]:
        """Return (output, tape) for `x` of shape [n, dims[0]]; the tape holds
        each layer's input and pre-activation."""
        inputs, preacts = [], []
        for _, wt, b in self._layers:
            if preacts:  # relu on every layer but the last
                x = np.maximum(z, _ZERO)
            inputs.append(x)
            z = x.dot(wt) + b
            preacts.append(z)
        return z, (inputs, preacts)

    def backward(
        self, tape: tuple[list, list], upstream: np.ndarray, *, input_grad: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Return (`grad`, input gradient), with the flat parameter gradient
        written into `grad`. `upstream` is the gradient of a loss w.r.t. the
        output of the forward pass that made `tape`, so it has its shape.

        With input_grad=False the input gradient is not computed: None.
        """
        inputs, preacts = tape
        d = upstream
        last = len(preacts) - 1
        for i, w, gw, gb in self._steps:
            dz = d if i == last else d * (preacts[i] > _ZERO)
            dz.T.dot(inputs[i], gw)
            np.add.reduce(dz, 0, None, gb)  # the bias gradient, written in place
            d = dz.dot(w) if i or input_grad else None
        return self.grad, d


# A scatter-add of this many block rows or more is cheaper as one np.bincount
# than as np.add.at: on a 2-core host, 768 rows of width 4 into 240 block rows
# took 26 against 76 us, while at 24 rows np.add.at is the faster; the two
# meet at about 48 rows.
BINCOUNT_ROWS = 64


class BlockRows(np.ndarray):
    """Categorical values already mapped to rows of one EmbeddingTable's block
    by `EmbeddingTable.resolve`. Indexing and slicing keep the type, so a run
    resolves a table once and each batch's lookup is one `take`."""


class EmbeddingTable:
    """Per-field embedding matrices fused into one [sum of cardinalities, dim] block.

    Row 0 of every field's table is the unseen bucket; `tables` holds one
    view into the block per field.
    """

    def __init__(self, cardinalities: list[tuple[str, int]], embed_dim: int, block: np.ndarray):
        """Lay the tables over `block`, any contiguous float64 array with
        sum(cardinalities) * embed_dim entries: an encoder's slice of theta."""
        if not cardinalities:
            raise SchemaError("EmbeddingTable needs at least one field")
        for name, card in cardinalities:
            if card < 1:
                raise SchemaError(f"field {name!r} has cardinality {card}")
        self.embed_dim = embed_dim
        self.field_names = [name for name, _ in cardinalities]
        self.out_dim = len(self.field_names) * embed_dim
        self._cols = np.arange(embed_dim)
        cards = [card for _, card in cardinalities]
        self.cards = np.array(cards, dtype=np.uint64)
        self.offsets = np.cumsum([0, *cards[:-1]]).astype(np.int64)
        shape = (sum(cards), embed_dim)
        self.block = block.reshape(shape)
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
        block: np.ndarray,
    ) -> "EmbeddingTable":
        """Uniform(-0.05, 0.05) rows, one field's table after the other."""
        table = cls(cardinalities, embed_dim, block)
        for t in table.tables.values():
            t[...] = rng.uniform(-0.05, 0.05, size=t.shape)
        return table

    def resolve(self, cat: np.ndarray) -> BlockRows:
        """Block rows [n, n_fields] of categorical values [n, n_fields]; out-of-range
        and negative values fall into the field's unseen bucket."""
        cat = np.asarray(cat)
        if cat.ndim != 2 or cat.shape[1] != len(self.field_names):
            raise SchemaError(
                f"categorical batch must be [n, {len(self.field_names)}], got {cat.shape}"
            )
        idx = cat.astype(np.int64, copy=False)
        # as unsigned, negative indices are huge, so one comparison catches both ends
        bad = idx.view(np.uint64) >= self.cards
        return (np.where(bad, 0, idx) + self.offsets).view(BlockRows)

    def lookup(self, cat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gather per-field rows: ([n, n_fields * embed_dim], block rows [n, n_fields]).

        `cat` is categorical values, resolved here, or this table's BlockRows.
        The returned block rows are what `backward` takes.
        """
        rows = cat if type(cat) is BlockRows else self.resolve(cat)
        return self.block.take(rows, 0).reshape(rows.shape[0], self.out_dim), rows

    def backward(self, rows: np.ndarray, upstream: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Scatter-add the upstream gradient into `out`, a block-shaped array
        that is overwritten, and return `out`.

        Duplicate rows accumulate, in row order. From BINCOUNT_ROWS block rows
        on, the sums are one `np.bincount` over the flat (row, column) bins,
        which adds in the same order as `np.add.at` and so gives the same bits.
        """
        if upstream.shape != (rows.shape[0], self.out_dim):
            raise SchemaError(
                f"embedding upstream must be [n, {self.out_dim}], got {upstream.shape}"
            )
        if rows.size < BINCOUNT_ROWS:
            out.fill(0.0)
            np.add.at(out, rows.ravel(), upstream.reshape(-1, self.embed_dim))
            return out
        bins = (rows.reshape(-1, 1) * self.embed_dim + self._cols).ravel()
        out[...] = np.bincount(bins, weights=upstream.ravel(),
                               minlength=self.block.size).reshape(self.block.shape)
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

    def __init__(
        self, spec: EncoderSpec, theta: np.ndarray | None = None, grad: np.ndarray | None = None
    ):
        self.spec = spec
        dims = [spec.input_dim, *spec.hidden]
        shapes = {f"embed.{n}": (card, spec.embed_dim) for n, card in spec.cat_fields}
        for name, shape in _mlp_shapes(dims).items():
            shapes[f"mlp.{name}"] = shape
        self.layout = ParamLayout(shapes)
        self._lay_over(theta, grad)
        e = sum(card for _, card in spec.cat_fields) * spec.embed_dim
        self.embed = self._embed_grad = None
        if spec.cat_fields:
            self.embed = EmbeddingTable(
                list(spec.cat_fields), spec.embed_dim, self.theta[:e]
            )
            self._embed_grad = self.grad[:e].reshape(self.embed.block.shape)
        self.mlp = Mlp(dims, self.theta[e:], self.grad[e:])

    def __reduce__(self):
        return TabularEncoder, (self.spec, self.theta)

    @property
    def rep_dim(self) -> int:
        return self.spec.rep_dim

    def resolve(self, cat: np.ndarray | None):
        """`cat` as BlockRows (as is without embeddings), for rows a run feeds
        `forward` again and again."""
        return cat if self.embed is None else self.embed.resolve(cat)

    def forward(self, cat: np.ndarray | None, num: np.ndarray | None):
        """Embed + concat + mlp. Returns (representation, (embedding rows, mlp tape)).
        `cat` is categorical values or their BlockRows from `resolve`."""
        x = rows = None
        if self.embed is not None:
            if cat is None:
                raise SchemaError("encoder has embeddings but got no categorical batch")
            x, rows = self.embed.lookup(cat)
        n_num = self.spec.num_fields
        if n_num:
            if num is None:
                raise SchemaError("encoder expects numerical features but got none")
            if num.ndim != 2 or num.shape[1] != n_num:
                raise SchemaError(
                    f"numerical batch must be [n, {n_num}], got {num.shape}"
                )
            if rows is None:
                x = num
            elif num.shape[0] != rows.shape[0]:
                raise SchemaError("categorical and numerical row counts differ")
            else:
                x = np.concatenate((x, num), axis=1)
        out, mlp_tape = self.mlp.forward(x)  # [n, input_dim] by the checks above
        return out, (rows, mlp_tape)

    def backward(self, tape: tuple, upstream: np.ndarray) -> np.ndarray:
        """Write the parameter gradient into `grad`, laid out like theta, and
        return `grad`."""
        rows, mlp_tape = tape
        embed = self.embed
        _, dx = self.mlp.backward(mlp_tape, upstream, input_grad=embed is not None)
        if embed is not None:
            embed.backward(rows, dx[:, : embed.out_dim], self._embed_grad)
        return self.grad
