"""Dense neural-network core shared by both parties of the split model.

Everything is plain numpy. Parameters and activations are float32 matrices;
matrix products and reductions accumulate in float64 before rounding back,
so results are reproducible bit for bit given the same inputs. The same
kernels run unchanged on float64 arrays, which is how the gradient checker
evaluates its shadow copy of a model.

Contents: dense layers (ReLU / identity), hashed-feature embedding tables,
numerically safe sigmoid / log-sigmoid, binary cross-entropy on logits,
Bernoulli KL divergence, Adam with L2 added to the gradient, and a
central-difference gradient checker.

Adam updates its moments and the parameters in place through per-optimizer
work buffers, in the same order of elementwise operations as the textbook
expression, so its results are bit-identical to that expression while a
step allocates no full-size temporaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import NumericError, ShapeError, StateError, ValidationError

F32 = np.float32
F64 = np.float64

# Clamp applied to every probability that enters a log or a KL term.
PROB_EPS = 1e-7

RELU = "relu"
IDENTITY = "identity"
ACTIVATIONS = (RELU, IDENTITY)


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


def ensure_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in '{name}'")


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
    m = z.shape[0]
    loss = float(per_row.sum() / per_row.size)
    grad = ((sigmoid(z64) - y64) / float(per_row.size)).astype(
        z.dtype if z.dtype in (F32, F64) else F64
    )
    return loss, grad


def bernoulli_kl(p_teacher, p_student) -> tuple[np.ndarray, np.ndarray]:
    """KL(p || q) between Bernoulli distributions, elementwise.

    Both probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before any
    log. The teacher side is a constant; the returned gradient is with
    respect to the *student logit* (d KL / d z = q - p for q = sigma(z)).
    Scalar inputs give scalar outputs.
    """
    p_in = np.asarray(p_teacher, dtype=F64)
    q_in = np.asarray(p_student, dtype=F64)
    p = np.clip(p_in, PROB_EPS, 1.0 - PROB_EPS)
    q = np.clip(q_in, PROB_EPS, 1.0 - PROB_EPS)
    kl = p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))
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

    @property
    def dim(self) -> int:
        return self.table.shape[1]

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

    def grad(self, idx: np.ndarray, grad_rows: np.ndarray) -> np.ndarray:
        """Dense gradient table: scatter-add of grad_rows at idx."""
        g = np.zeros(self.table.shape, dtype=grad_rows.dtype)
        np.add.at(g, idx, grad_rows)
        return g


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
        hidden_activation: str = RELU,
        final_activation: str = RELU,
    ):
        widths = list(widths)
        layers = []
        prev = n_in
        for i, w in enumerate(widths):
            act = final_activation if i == len(widths) - 1 else hidden_activation
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
        """Rebind parameter arrays by reference (shapes must match)."""
        for i, layer in enumerate(self.layers):
            w = mapping[f"layer{i}.weight"]
            b = mapping[f"layer{i}.bias"]
            if w.shape != layer.weight.shape or b.shape != layer.bias.shape:
                raise ShapeError(f"parameter shape mismatch for layer {i}")
            layer.weight = w
            layer.bias = b

    def weight_names(self) -> set[str]:
        """Names of parameters subject to L2 decay (weights, not biases)."""
        return {f"layer{i}.weight" for i in range(len(self.layers))}


@dataclass
class AdamState:
    """Adam with bias correction; L2 is added to the gradient before the
    moment update (g <- g + l2 * param) for the parameters selected by the
    caller's decay arguments.

    work holds adam_step's two scratch tensors per parameter name. Each step
    rebuilds it from the names it updates, so it keeps no buffers for
    parameters the optimizer no longer sees.
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    l2: float = 0.0
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict, repr=False)


def adam_step(
    state: AdamState,
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    *,
    decay_full: Iterable[str] = (),
    decay_rows: Mapping[str, np.ndarray] | None = None,
) -> Mapping[str, np.ndarray]:
    """One bias-corrected Adam update, applied to params in place.

    decay_full names parameters whose whole tensor receives L2; decay_rows
    maps embedding-table names to the row indices touched by the batch
    (untouched rows receive no decay). The caller's grads are never written.

    m, v and each parameter are updated in place through the optimizer's
    two work buffers per parameter, so a step allocates no full-size
    temporaries. Every elementwise operation runs in the same order as the
    textbook form

        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        p -= (lr * (m/c1)) / (sqrt(v/c2) + eps)

    so the results are bit-identical to evaluating that expression.
    """
    decay_full = set(decay_full)
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    work = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} for '{name}'")
        # g·g is finite when every element is, and needs no mask; only when
        # it is not (a NaN, an inf, or a finite g whose squares overflow)
        # does the exact elementwise check decide
        f = g.ravel()
        with np.errstate(over="ignore"):
            screen = np.dot(f, f)
        if not np.isfinite(screen) and not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter '{name}'")
        pair = state.work.get(name)
        if pair is None or pair[0].shape != p.shape or pair[0].dtype != p.dtype:
            pair = (np.empty_like(p), np.empty_like(p))
        work[name] = pair
        w1, w2 = pair
        if state.l2 > 0.0:
            if name in decay_full:
                np.multiply(p, state.l2, w1)
                np.add(g, w1, w1)
                g = w1
            elif decay_rows is not None and name in decay_rows:
                rows = decay_rows[name]
                np.copyto(w1, g)
                w1[rows] += state.l2 * p[rows]
                g = w1
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p)
        np.multiply(m, b1, m)
        np.multiply(g, 1.0 - b1, w2)
        np.add(m, w2, m)
        np.multiply(g, g, w2)
        np.multiply(w2, 1.0 - b2, w2)
        np.multiply(v, b2, v)
        np.add(v, w2, v)
        # g is dead from here on, so w1 may be reused even when it holds g
        np.divide(m, c1, w1)
        np.divide(v, c2, w2)
        np.sqrt(w2, w2)
        np.add(w2, state.eps, w2)
        np.multiply(w1, state.lr, w1)
        np.divide(w1, w2, w1)
        np.subtract(p, w1, p)
    state.work = work
    return params


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference gradient check."""

    max_rel_error: float
    worst_param: str
    tolerance: float
    n_checked: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(
    model,
    loss_fn: Callable,
    tolerance: float = 1e-3,
    step: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients against central differences on a float64
    shadow copy of the model.

    `model` must expose params() / set_params(); set_params binds arrays by
    reference, so perturbing a shadow entry in place re-evaluates the model
    at the perturbed point. `loss_fn(model)` must run a full forward and
    backward pass and return (loss, grads_by_param_name). The analytic
    gradients are taken from the same float64 evaluation, so the comparison
    is free of float32 rounding.
    """
    originals = dict(model.params())
    shadow = {k: v.astype(F64) for k, v in originals.items()}
    model.set_params(shadow)
    try:
        _, analytic = loss_fn(model)
        worst = 0.0
        worst_name = ""
        n = 0
        for name, arr in shadow.items():
            flat = arr.reshape(-1)
            a_flat = np.asarray(analytic[name], dtype=F64).reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                loss_plus, _ = loss_fn(model)
                flat[i] = orig - step
                loss_minus, _ = loss_fn(model)
                flat[i] = orig
                numeric = (loss_plus - loss_minus) / (2.0 * step)
                denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
                err = abs(a_flat[i] - numeric) / denom
                n += 1
                if err > worst:
                    worst = err
                    worst_name = name
    finally:
        model.set_params(originals)
    return GradCheckReport(
        max_rel_error=worst, worst_param=worst_name, tolerance=tolerance, n_checked=n
    )
