"""Dense neural-network core shared by both parties of the split model.

Everything is plain numpy. Parameters and activations are float32 matrices;
matrix products and reductions accumulate in float64 before rounding back,
so results are reproducible bit for bit given the same inputs. The same
kernels run unchanged on float64 arrays, which is how the gradient checker
in `tests/oracles.py` evaluates its shadow copy of a model.

Contents: dense layers (ReLU / identity), hashed-feature embedding tables,
numerically safe sigmoid / log-sigmoid, binary cross-entropy on logits,
Bernoulli KL divergence, and Adam with L2 added to the gradient.

An embedding table's gradient is always row-sparse (`RowSparseGrad`): the
batch's distinct rows and their summed gradients, bit-identical to those
rows of the dense table. Adam takes its one L2 rule from the gradient: a
row-sparse gradient's own rows receive L2, any other 2-D parameter (a
dense weight) receives it in full, and a 1-D bias receives none.

Adam screens every gradient before anything moves, so a refused step
leaves the optimizer and the parameters as they were. Its first step fixes
the parameters it will ever step and the path of each. It keeps the moments
of a party's parameters in one flat buffer each and runs its elementwise
sequence once over them, with one subtraction per parameter at the end
(the multi-tensor "foreach" form of torch.optim.Adam). The order of
operations per element is that of the textbook expression, so its results
are bit-identical to that expression evaluated tensor by tensor, while a
step allocates no full-size temporaries. A table of more than
DENSE_TABLE_ROWS rows whose first gradient is row-sparse is updated over
its live rows, those some step has touched; every other row has
m = v = g = 0, where the update is exactly a no-op, so skipping them changes
no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import NumericError, ShapeError, StateError, ValidationError

F32 = np.float32
F64 = np.float64

# Clamp applied to every probability that enters a log or a KL term.
PROB_EPS = 1e-7

RELU = "relu"
IDENTITY = "identity"
ACTIVATIONS = (RELU, IDENTITY)

# Adam updates an embedding table of at most this many rows in full, and a
# larger one over its live rows. Only the 24- and 256-bucket desk tables and
# the 2^16-bucket ID tables have been measured; the value matters because
# hashed desk codes never cover a 256-bucket table, so coverage alone would
# keep it on the slower live-row path. 4096 is not a measured crossover.
DENSE_TABLE_ROWS = 4096


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b accumulated in float64; float32 operands give a float32 result."""
    out = np.matmul(a.astype(F64, copy=False), b.astype(F64, copy=False))
    if a.dtype == F64 or b.dtype == F64:
        return out
    return out.astype(F32)


def as_matrix(x: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a 2-D float array; return it unchanged."""
    arr = np.asarray(x)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.dtype not in (F32, F64):
        raise ShapeError(f"{name} must be float32/float64, got {arr.dtype}")
    return arr


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function."""
    arr = np.asarray(x)
    x64 = arr.astype(F64, copy=False)
    z = np.exp(-np.abs(x64))
    out = np.where(x64 >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return out if arr.dtype == F64 else out.astype(arr.dtype if arr.dtype == F32 else F64)


def log_sigmoid(x) -> np.ndarray:
    """log(sigmoid(x)) without overflow for any finite x.

    Uses log sigma(x) = -log(1 + exp(-x)) = -logaddexp(0, -x), which stays
    finite over the whole float range (log sigma(x) -> x as x -> -inf).
    """
    arr = np.asarray(x)
    out = -np.logaddexp(0.0, -arr.astype(F64, copy=False))
    return out if arr.dtype == F64 else out.astype(arr.dtype if arr.dtype == F32 else F64)


def bce_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over rows, plus the gradient at the logits.

    Labels may be soft (any value in [0, 1]); values outside that range are
    rejected. Returns (loss, dloss/dlogits) with the gradient already divided
    by the row count.
    """
    z = np.asarray(logits)
    y = np.asarray(labels)
    if z.shape != y.shape:
        raise ShapeError(f"logits shape {z.shape} != labels shape {y.shape}")
    if y.size == 0:
        raise ValidationError("bce_loss needs at least one row")
    if np.any((y < 0.0) | (y > 1.0)) or not np.all(np.isfinite(y)):
        raise ValidationError("labels must lie in [0, 1]")
    z64 = z.astype(F64, copy=False)
    y64 = y.astype(F64, copy=False)
    per_row = -(y64 * log_sigmoid(z64) + (1.0 - y64) * log_sigmoid(-z64))
    loss = float(per_row.sum() / per_row.size)
    grad = ((sigmoid(z64) - y64) / float(per_row.size)).astype(
        z.dtype if z.dtype in (F32, F64) else F64
    )
    return loss, grad


def bernoulli_kl(p_teacher, p_student) -> tuple[np.ndarray, np.ndarray]:
    """KL(p || q) between Bernoulli distributions, elementwise.

    Both probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before any
    log, and the result is never below zero. The teacher side is a constant;
    the returned gradient is with respect to the *student logit*
    (d KL / d z = q - p for q = sigma(z)).
    Scalar inputs give scalar outputs.
    """
    p_in = np.asarray(p_teacher, dtype=F64)
    q_in = np.asarray(p_student, dtype=F64)
    p = np.clip(p_in, PROB_EPS, 1.0 - PROB_EPS)
    q = np.clip(q_in, PROB_EPS, 1.0 - PROB_EPS)
    # log1p of the differences keeps the two near-cancelling terms accurate
    # when p is close to q; the floor removes the last rounding below zero.
    d = p - q
    kl = np.maximum(p * np.log1p(d / q) + (1.0 - p) * np.log1p(-d / (1.0 - q)), 0.0)
    grad = q - p
    if np.ndim(p_teacher) == 0 and np.ndim(p_student) == 0:
        return float(kl), float(grad)
    return kl, grad


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


@dataclass
class DenseLayer:
    """Fully connected layer: out = act(x @ weight + bias)."""

    weight: np.ndarray  # (n_in, n_out)
    bias: np.ndarray  # (n_out,)
    activation: str = RELU

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unknown activation '{self.activation}'")
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[1],):
            raise ShapeError(
                f"weight {self.weight.shape} and bias {self.bias.shape} are inconsistent"
            )

    @classmethod
    def create(cls, n_in: int, n_out: int, activation: str, rng: np.random.Generator):
        """Glorot-uniform weights in +-sqrt(6/(n_in+n_out)), zero bias."""
        bound = math.sqrt(6.0 / (n_in + n_out))
        weight = rng.uniform(-bound, bound, size=(n_in, n_out)).astype(F32)
        bias = np.zeros(n_out, dtype=F32)
        return cls(weight=weight, bias=bias, activation=activation)

    @property
    def n_in(self) -> int:
        return self.weight.shape[0]

    @property
    def n_out(self) -> int:
        return self.weight.shape[1]

    def forward(self, x: np.ndarray):
        x = as_matrix(x, "layer input")
        if x.shape[1] != self.n_in:
            raise ShapeError(
                f"input has {x.shape[1]} columns, layer expects {self.n_in}"
            )
        pre = matmul(x, self.weight) + self.bias
        out = relu(pre) if self.activation == RELU else pre
        return out, (x, pre)

    def backward(self, cache, grad_out: np.ndarray):
        """Return (grad_input, grad_weight, grad_bias) for a recorded forward."""
        if cache is None:
            raise StateError("backward called with no recorded forward")
        x, pre = cache
        grad_out = np.asarray(grad_out)
        if grad_out.shape != pre.shape:
            raise ShapeError(
                f"upstream gradient shape {grad_out.shape} != output shape {pre.shape}"
            )
        if self.activation == RELU:
            grad_pre = grad_out * (pre > 0)
        else:
            grad_pre = grad_out
        grad_w = matmul(x.T, grad_pre)
        grad_b = grad_pre.astype(F64).sum(axis=0).astype(grad_pre.dtype)
        grad_x = matmul(grad_pre, self.weight.T)
        return grad_x, grad_w, grad_b


@dataclass
class EmbeddingTable:
    """Lookup table mapping hashed bucket indices to dense float32 rows."""

    table: np.ndarray  # (buckets, dim)

    @classmethod
    def create(cls, buckets: int, dim: int, rng: np.random.Generator):
        if buckets < 2 or dim < 1:
            raise ValidationError(f"need buckets >= 2 and dim >= 1, got {buckets}x{dim}")
        bound = math.sqrt(6.0 / (buckets + dim))
        return cls(table=rng.uniform(-bound, bound, size=(buckets, dim)).astype(F32))

    @property
    def buckets(self) -> int:
        return self.table.shape[0]

    def lookup(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.ndim != 1:
            raise ShapeError(f"index array must be 1-D, got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= self.buckets):
            raise ValidationError(
                f"bucket index out of range [0, {self.buckets}): "
                f"min={idx.min()} max={idx.max()}"
            )
        return self.table[idx]

    def grad(self, idx: np.ndarray, grad_rows: np.ndarray) -> RowSparseGrad:
        """Scatter-add of grad_rows at idx, over the distinct indices. Each
        row accumulates its terms in the order of idx, so it is bit-identical
        to the same row of the dense gradient table."""
        rows, inverse = np.unique(idx, return_inverse=True)
        dim = self.table.shape[1]
        values = np.zeros((rows.size, dim), dtype=grad_rows.dtype)
        # one index per element: ufunc.at on a 1-D target is about three
        # times as fast, and adds each element's terms in the same order
        flat_idx = (inverse[:, None] * dim + np.arange(dim)).reshape(-1)
        np.add.at(values.reshape(-1), flat_idx, np.asarray(grad_rows).reshape(-1))
        return RowSparseGrad(rows, values, self.table.shape)


@dataclass(frozen=True)
class RowSparseGrad:
    """An embedding table's gradient that is zero outside `rows`.

    rows are sorted and distinct; values[i] is row rows[i] of the full
    gradient, whose shape is `shape`.
    """

    rows: np.ndarray  # (n,)
    values: np.ndarray  # (n, dim)
    shape: tuple[int, int]

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.values.nbytes


class Mlp:
    """A stack of dense layers with a shared tape-style forward/backward."""

    def __init__(self, layers: Iterable[DenseLayer]):
        self.layers = list(layers)
        if not self.layers:
            raise ValidationError("Mlp needs at least one layer")

    @classmethod
    def create(
        cls,
        n_in: int,
        widths: Iterable[int],
        rng: np.random.Generator,
        *,
        final_activation: str = RELU,
    ):
        widths = list(widths)
        layers = []
        prev = n_in
        for i, w in enumerate(widths):
            act = final_activation if i == len(widths) - 1 else RELU
            layers.append(DenseLayer.create(prev, w, act, rng))
            prev = w
        return cls(layers)

    @property
    def n_in(self) -> int:
        return self.layers[0].n_in

    @property
    def out_dim(self) -> int:
        return self.layers[-1].n_out

    def forward(self, x: np.ndarray):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def backward(self, caches, grad_out: np.ndarray):
        """Return (grad_input, {"layerN.weight": g, "layerN.bias": g, ...})."""
        if caches is None:
            raise StateError("backward called with no recorded forward")
        grads: dict[str, np.ndarray] = {}
        g = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            g, gw, gb = self.layers[i].backward(caches[i], g)
            grads[f"layer{i}.weight"] = gw
            grads[f"layer{i}.bias"] = gb
        return g, grads

    def params(self) -> dict[str, np.ndarray]:
        out = {}
        for i, layer in enumerate(self.layers):
            out[f"layer{i}.weight"] = layer.weight
            out[f"layer{i}.bias"] = layer.bias
        return out

    def set_params(self, mapping: Mapping[str, np.ndarray]) -> None:
        """Copy every layer's tensors in (see fit_params). A value of
        another dtype replaces its array with a copy in that dtype."""
        values = fit_params(mapping, self.params())
        for i, layer in enumerate(self.layers):
            for attr in ("weight", "bias"):
                value, live = values[f"layer{i}.{attr}"], getattr(layer, attr)
                if value.dtype == live.dtype:
                    np.copyto(live, value)
                else:
                    setattr(layer, attr, value.copy())


def fit_params(mapping: Mapping[str, np.ndarray],
               current: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """`mapping` in the shapes of `current`, whose tensors it must name
    exactly; a 1-D tensor may come as the one row a checkpoint stores. A
    missing or unknown name is a ValidationError and a wrong shape a
    ShapeError, each naming the tensor."""
    missing = sorted(current.keys() - mapping.keys())
    unknown = sorted(mapping.keys() - current.keys())
    if missing or unknown:
        raise ValidationError(f"parameters do not fit: missing {missing}, unknown {unknown}")
    out = {}
    for name, value in mapping.items():
        shape, value = current[name].shape, np.asarray(value)
        if value.shape != shape and not (len(shape) == 1 and value.shape == (1, *shape)):
            raise ShapeError(f"parameter '{name}' has shape {value.shape}, expected {shape}")
        out[name] = value.reshape(shape)
    return out


@dataclass
class AdamState:
    """Adam with bias correction; L2 is added to the gradient before the
    moment update (g <- g + l2 * param): on the rows of a row-sparse
    gradient, on the whole of any other 2-D parameter, and never on a 1-D
    bias.

    The first step fixes everything the state will ever hold (`layout`):
    the (name, shape, dtype) list of its parameters and each parameter's
    path. m and v map each parameter name to its moments. Those of the
    flat-sweep parameters are views into one flat buffer each, laid out
    together with adam_step's two flat work buffers.

    live maps each table on the live-row path to the sorted rows its
    gradients have touched; every other row of that table still has
    m = v = 0. A table takes that path if its first gradient is row-sparse
    and it is a C-contiguous table of more than DENSE_TABLE_ROWS rows, and
    keeps it for good.
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    l2: float = 0.0
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    layout: FlatLayout | None = field(default=None, repr=False)
    live: dict = field(default_factory=dict, repr=False)


@dataclass
class FlatLayout:
    """The (name, shape, dtype) key of every parameter; the flat m, v and
    work buffers of the flat-sweep parameters, and each one's view of the
    first work buffer."""

    key: tuple  # ((name, shape, dtype), ...)
    m: np.ndarray
    v: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    grads: dict  # name -> view of w1


def _lay_out(state: AdamState, key: tuple, params: Mapping[str, np.ndarray],
             grads: Mapping) -> None:
    """Fix the state's parameters and their paths from a screened first
    step, with zero moments for every parameter."""
    flat = []
    for name, p in params.items():
        if (isinstance(grads[name], RowSparseGrad) and p.shape[0] > DENSE_TABLE_ROWS
                and p.flags.c_contiguous):
            state.live[name] = np.empty(0, dtype=np.intp)
            state.m[name], state.v[name] = np.zeros_like(p), np.zeros_like(p)
        else:
            flat.append((name, p.shape))
    dtype = key[0][2] if key else F32
    m, v, w1, w2 = (np.zeros(sum(math.prod(s) for _, s in flat), dtype) for _ in range(4))
    views = {}
    start = 0
    for name, shape in flat:
        span = slice(start, start + math.prod(shape))
        state.m[name], state.v[name], views[name] = (
            a[span].reshape(shape) for a in (m, v, w1))
        start = span.stop
    state.layout = FlatLayout(key, m, v, w1, w2, views)


def _live_rows(state: AdamState, name: str, rows: np.ndarray) -> np.ndarray:
    """Merge this step's rows into `name`'s live rows and return them."""
    # np.union1d, but sorting once: np.unique hashes, which costs ten
    # times as much at a few thousand rows
    merged = np.sort(np.concatenate((state.live[name], rows)))
    keep = np.ones(merged.size, dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    state.live[name] = merged[keep]
    return state.live[name]


def _screen(state: AdamState, key: tuple, params: Mapping[str, np.ndarray],
            grads: Mapping) -> None:
    """Raise on any step that adam_step refuses."""
    if state.layout is not None and key != state.layout.key:
        raise StateError(
            f"this Adam state steps {[k[0] for k in state.layout.key]}, fixed by its "
            "first step; every step must name them in that order, with the same "
            "shapes and dtype")
    dtype = None
    # g·g is finite when every element is, and needs no mask; only when it
    # is not (a NaN, an inf, or a finite g whose squares overflow) does the
    # exact elementwise check decide
    with np.errstate(over="ignore"):
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} != param shape {p.shape} for '{name}'")
            if name in state.live and not (isinstance(g, RowSparseGrad)
                                           and p.flags.c_contiguous):
                raise ShapeError(f"'{name}' takes the live-row path: it needs a "
                                 "row-sparse gradient and a C-contiguous table")
            f = g.values if isinstance(g, RowSparseGrad) else g
            if dtype is None:
                dtype = p.dtype
            if f.dtype != p.dtype or p.dtype != dtype:
                raise ShapeError(f"'{name}' has a {f.dtype} gradient for a {p.dtype} param; "
                                 f"every gradient and param of a step must be {dtype}")
            f = f.ravel()
            if not math.isfinite(np.dot(f, f)) and not np.all(np.isfinite(f)):
                raise NumericError(f"non-finite gradient for parameter '{name}'")


def adam_step(
    state: AdamState,
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray | RowSparseGrad],
) -> Mapping[str, np.ndarray]:
    """One bias-corrected Adam update, applied to params in place.

    L2 follows from each gradient: a RowSparseGrad, an embedding table's,
    adds it on its own rows only (untouched rows receive no decay); any
    other 2-D gradient, a dense weight's, adds it on the whole tensor; a
    1-D bias gets none. The caller's grads are never written.

    The first step fixes the state's parameters and their paths (see
    AdamState). Every step is screened before the step count, a moment or a
    parameter moves. It is refused for a gradient whose shape or dtype does
    not match its parameter, parameters of more than one dtype, or a
    non-finite element; a later step also for other parameters than the
    first's (StateError) or a dense gradient for a live-row table
    (ShapeError).

    The step then writes each flat-sweep parameter's effective gradient into
    its view of the flat work buffer, runs the moment and delta update once
    over the flat buffers, and subtracts each parameter's delta view from it.
    Every elementwise operation runs in the same order as the textbook form

        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        p -= (lr * (m/c1)) / (sqrt(v/c2) + eps)

    so the results are bit-identical to evaluating that expression on the
    dense gradient, tensor by tensor, and a step allocates no full-size
    temporaries. A row with m = v = g = 0 is left exactly as it was
    (p - (+0.0) = p), so a live-row table is updated over its live rows
    alone (see AdamState.live): the step gathers them from p, m and v, runs
    the same sequence, and scatters them back. Once they cover the table
    this is still the same update, row for row.
    """
    key = tuple((name, p.shape, p.dtype) for name, p in params.items())
    _screen(state, key, params, grads)
    if state.layout is None:
        _lay_out(state, key, params, grads)
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    flat = state.layout
    for name, p in params.items():
        g = grads[name]
        if name in state.live:
            live = _live_rows(state, name, g.rows)
            w1 = np.zeros((live.size, p.shape[1]), dtype=p.dtype)
            w1[np.searchsorted(live, g.rows)] = _row_values(state, p, g)
            gathered = [np.take(a, live, axis=0) for a in (p, state.m[name], state.v[name])]
            p_live, m_live, v_live = gathered
            _adam_update(state, c1, c2, m_live, v_live, w1, np.empty_like(w1))
            np.subtract(p_live, w1, p_live)
            for a, a_live in zip((p, state.m[name], state.v[name]), gathered):
                np.put(_row_items(a), live, _row_items(a_live))
            continue
        w1 = flat.grads[name]
        if isinstance(g, RowSparseGrad):
            w1.fill(0)
            np.put(_row_items(w1), g.rows, _row_items(_row_values(state, p, g)))
        elif state.l2 > 0.0 and p.ndim == 2:
            np.multiply(p, state.l2, w1)
            np.add(g, w1, w1)
        else:
            np.copyto(w1, g)
    _adam_update(state, c1, c2, flat.m, flat.v, flat.w1, flat.w2)
    for name, delta in flat.grads.items():
        np.subtract(params[name], delta, params[name])
    return params


def _row_values(state: AdamState, p: np.ndarray, g: RowSparseGrad) -> np.ndarray:
    """The effective gradient on g's rows: g.values + l2 * p[g.rows],
    C-contiguous."""
    if state.l2 <= 0.0:
        return np.ascontiguousarray(g.values)
    out = np.take(p, g.rows, axis=0)
    np.multiply(out, state.l2, out)
    np.add(g.values, out, out)
    return out


def _row_items(a: np.ndarray) -> np.ndarray:
    """A C-contiguous matrix as a vector of one opaque item per row, over the
    same memory: np.put scatters whole rows into it about three times as
    fast as a[rows] = values."""
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).reshape(-1)


def _adam_update(state: AdamState, c1: float, c2: float, m, v, w1, w2) -> None:
    """The moment update of adam_step, in place, from the gradient g in w1;
    it leaves the parameter delta lr * (m/c1) / (sqrt(v/c2) + eps) in w1."""
    b1, b2 = state.beta1, state.beta2
    g = w1
    np.multiply(m, b1, m)
    np.multiply(g, 1.0 - b1, w2)
    np.add(m, w2, m)
    np.multiply(g, g, w2)
    np.multiply(w2, 1.0 - b2, w2)
    np.multiply(v, b2, v)
    np.add(v, w2, v)
    # g is dead from here on, so w1 takes the delta
    np.divide(m, c1, w1)
    np.divide(v, c2, w2)
    np.sqrt(w2, w2)
    np.add(w2, state.eps, w2)
    np.multiply(w1, state.lr, w1)
    np.divide(w1, w2, w1)
