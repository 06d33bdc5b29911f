"""Test oracles and probe fixtures shared by the tests, the calibration
driver and the demos. Nothing in the library calls them.

- `grad_check`: a model's float32 analytic gradients against central
  differences of `reference_logits`, an independent float64 forward that
  reads only the model's structure;
- `dense_grad`: a row-sparse embedding gradient as its full table;
- `per_table_bottom`: a bottom's forward and backward with one lookup and
  one gradient per table, the reference for its grouped embedding path;
- `per_field`: gradients or moments keyed as `step_params()`, each embed-dim
  group's entry cut into its fields' entries as `params()` keys them;
- `reference_adam_step`: the allocating textbook form of Adam, the
  reference for the fused in-place `adam_step`;
- `pmi_probe`: trained match logits against the exact shifted PMI that
  matched-pair pretraining estimates (PMI - log k);
- `synth_categorical_pair`: categorical probe data with a known joint
  distribution, which `pmi_probe` needs;
- `from_jsonl`, `best_epoch`, `epochs_to_auc`: readers of a metric history;
- `run_matrix`: several methods over several seeds, sharing stage outputs,
  which the acceptance matrix, the calibration driver and demo 06 run.

Tests import this module as `oracles` (pytest puts `tests/` on sys.path);
the demos insert `tests/` into sys.path themselves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from fedsplit.data import (
    CATEGORICAL,
    FeatureBlock,
    FieldSpec,
    PartitionedDataset,
    PartySchema,
    Segment,
)
from fedsplit.errors import ValidationError
from fedsplit.harness import METHODS, ExperimentConfig, RunContext, load_dataset, run
from fedsplit.metrics import EpochRecord, MetricHistory
from fedsplit.numeric import F32, F64, RELU, EmbeddingTable, Mlp, RowSparseGrad
from fedsplit.splitnn import BottomModel, SplitModel


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


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
    inputs,
    loss_fn: Callable,
    logit_loss: Callable,
    tolerance: float = 1e-3,
    step: float = 1e-5,
) -> GradCheckReport:
    """Compare a model's analytic gradients, as it computes them in float32,
    with central differences of an independent float64 forward.

    `loss_fn(model)` runs the model's own forward and backward on `inputs`
    once and returns (loss, grads) keyed as its backward keys them; an
    embed-dim group's gradient is cut into its fields' (`per_field`), and a
    row-sparse embedding gradient is densified. The differences perturb a
    float64 copy of model.params() one entry at a time and score
    `logit_loss(reference_logits(model, params, inputs))`, where
    `logit_loss` maps float64 logits to the loss. The model is never
    written.
    """
    analytic = per_field(model, loss_fn(model)[1])
    params = {name: value.astype(F64) for name, value in model.params().items()}
    worst = 0.0
    worst_name = ""
    n = 0
    for name, arr in params.items():
        flat = arr.reshape(-1)
        a_flat = np.asarray(dense_grad(analytic[name]), dtype=F64).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            loss_plus = logit_loss(reference_logits(model, params, inputs))
            flat[i] = orig - step
            loss_minus = logit_loss(reference_logits(model, params, inputs))
            flat[i] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            err = abs(a_flat[i] - numeric) / denom
            n += 1
            if err > worst:
                worst = err
                worst_name = name
    return GradCheckReport(
        max_rel_error=worst, worst_param=worst_name, tolerance=tolerance, n_checked=n
    )


def reference_logits(model, params, inputs) -> np.ndarray:
    """The float64 logits of `model` at `params` (keyed as model.params()).

    `model` is an Mlp whose last layer has one unit, on an input matrix, or
    a LocalModel, on a feature block. The forward reads only structure from
    the model (the bottom's schema and each layer's activation): it looks
    each categorical field up in its own table, in schema order, places the
    numeric columns between them, and runs the dense stacks.
    """
    if isinstance(model, Mlp):
        return _dense_stack(model.layers, params, "", np.asarray(inputs, dtype=F64))[:, 0]
    pieces = []
    cat_j = num_j = 0
    for f in model.bottom.schema.fields:
        if f.kind == CATEGORICAL:
            pieces.append(params[f"bottom.emb.{f.name}"][inputs.cat[:, cat_j]])
            cat_j += 1
        else:
            pieces.append(inputs.num[:, num_j : num_j + 1].astype(F64))
            num_j += 1
    h = _dense_stack(model.bottom.mlp.layers, params, "bottom.mlp.",
                     np.concatenate(pieces, axis=1))
    return _dense_stack(model.top.mlp.layers, params, "top.", h)[:, 0]


def _dense_stack(layers, params, prefix: str, x: np.ndarray) -> np.ndarray:
    """act(x @ W + b) through `layers`, with each layer's W and b taken from
    params as `<prefix>layer<i>.weight` and `.bias`."""
    for i, layer in enumerate(layers):
        x = x @ params[f"{prefix}layer{i}.weight"] + params[f"{prefix}layer{i}.bias"]
        if layer.activation == RELU:
            x = np.maximum(x, 0.0)
    return x


# ---------------------------------------------------------------------------
# Per-tensor references for the fused kernels
# ---------------------------------------------------------------------------


def dense_grad(g):
    """A gradient as a full array: a RowSparseGrad's rows in a zero table,
    any other gradient as it is."""
    if not isinstance(g, RowSparseGrad):
        return g
    out = np.zeros(g.shape, dtype=g.values.dtype)
    out[g.rows] = g.values
    return out


def per_table_bottom(bottom: BottomModel, block: FeatureBlock, grad_h: np.ndarray):
    """(h, grads) of `bottom` on `block`, with each field looked up in its
    own table and given its own gradient, the embedded input concatenated
    in schema order. Reads the bottom's parameters and changes nothing."""
    pieces, spans = [], []
    col = cat_j = num_j = 0
    for f in bottom.schema.fields:
        if f.kind == CATEGORICAL:
            table = EmbeddingTable(table=bottom.embeddings[f.name].table)
            idx = block.cat[:, cat_j]
            pieces.append(table.lookup(idx))
            spans.append((f.name, table, idx, col, col + f.embed_dim))
            col += f.embed_dim
            cat_j += 1
        else:
            pieces.append(block.num[:, num_j : num_j + 1])
            col += 1
            num_j += 1
    h, caches = bottom.mlp.forward(np.concatenate(pieces, axis=1))
    grad_x0, mlp_grads = bottom.mlp.backward(caches, grad_h)
    grads = {f"mlp.{k}": v for k, v in mlp_grads.items()}
    for name, table, idx, start, end in spans:
        grads[f"emb.{name}"] = table.grad(idx, grad_x0[:, start:end])
    return h, grads


def _bottoms(model):
    """(prefix, bottom) for each BottomModel that `model` is or holds."""
    if isinstance(model, BottomModel):
        return [("", model)]
    return [(f"{prefix}.", part) for prefix, part in getattr(model, "parts", dict)().items()
            if isinstance(part, BottomModel)]


def per_field(model, mapping):
    """`mapping`, keyed as `model.step_params()` (gradients, or Adam's m or
    v), re-keyed as `model.params()`: each embed-dim group's entry is cut
    into its fields' entries by the group's offsets. A row-sparse group gradient
    gives each field the rows in its range, counted from the field's first
    row; every other entry passes through."""
    groups = {prefix + group.key: (prefix, group)
              for prefix, bottom in _bottoms(model) for group in bottom.groups}
    out = {}
    for key, value in mapping.items():
        if key not in groups:
            out[key] = value
            continue
        prefix, group = groups[key]
        offsets = group.offsets.tolist()
        for name, lo, hi in zip(group.names, offsets, offsets[1:]):
            if isinstance(value, RowSparseGrad):
                a, b = np.searchsorted(value.rows, [lo, hi])
                value_of_field = RowSparseGrad(value.rows[a:b] - lo, value.values[a:b],
                                               (hi - lo, group.dim))
            else:
                value_of_field = value[lo:hi]
            out[f"{prefix}emb.{name}"] = value_of_field
    return out


def reference_adam_step(state, params, grads):
    """The allocating textbook form of adam_step, kept as the oracle that the
    in-place implementation must match bit for bit. L2 goes to the rows of
    a row-sparse gradient, to the whole of any other 2-D parameter, and to
    no 1-D parameter."""
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if isinstance(g, RowSparseGrad):
            rows, g = g.rows, dense_grad(g)
            if state.l2 > 0.0:
                g[rows] += state.l2 * p[rows]
        elif state.l2 > 0.0 and p.ndim == 2:
            g = g + state.l2 * p
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m[...] = state.beta1 * m + (1.0 - state.beta1) * g
        v[...] = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        m_hat = m / c1
        v_hat = v / c2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


# ---------------------------------------------------------------------------
# The shifted-PMI identity of matched-pair pretraining
# ---------------------------------------------------------------------------


def synth_categorical_pair(
    n: int,
    values: int,
    coupling,
    seed: int,
    *,
    embed_dim: int = 8,
    n_labeled: int = 0,
) -> PartitionedDataset:
    """Categorical probe data with a known joint distribution.

    Party A draws a value uniformly from range(values); with probability
    coupling(a) party B copies it, otherwise B draws uniformly. `coupling`
    is a float or a (low, high) pair graded linearly over A's values, so the
    exact pointwise mutual information varies across pairs. Encoded indices
    are the raw values (no hashing), keeping the joint distribution exact.
    """
    if values < 2:
        raise ValidationError("need at least two categorical values")
    if isinstance(coupling, (tuple, list)):
        lo, hi = coupling
        c = np.linspace(lo, hi, values)
    else:
        c = np.full(values, float(coupling))
    if np.any((c < 0) | (c > 1)):
        raise ValidationError("coupling probabilities must lie in [0, 1]")
    rng = np.random.default_rng([seed, 104])
    a = rng.integers(0, values, size=n)
    copy = rng.random(n) < c[a]
    b = np.where(copy, a, rng.integers(0, values, size=n))

    schema_a = PartySchema(
        party="A",
        fields=(FieldSpec("a_cat", CATEGORICAL, buckets=values, embed_dim=embed_dim),),
    )
    schema_b = PartySchema(
        party="B",
        fields=(FieldSpec("b_cat", CATEGORICAL, buckets=values, embed_dim=embed_dim),),
    )

    def _block(vals: np.ndarray) -> FeatureBlock:
        return FeatureBlock(
            cat=vals.reshape(-1, 1).astype(np.int64),
            num=np.zeros((len(vals), 0), dtype=F32),
        )

    labeled = Segment(
        a=_block(a[:n_labeled]),
        b=_block(b[:n_labeled]),
        y=np.zeros(n_labeled, dtype=F32),
    )
    unlabeled = Segment(a=_block(a[n_labeled:]), b=_block(b[n_labeled:]))
    return PartitionedDataset(
        schema_a=schema_a,
        schema_b=schema_b,
        labeled=labeled,
        unlabeled=unlabeled,
    )


@dataclass
class PmiPair:
    value_a: int
    value_b: int
    count: int
    pmi: float
    logit: float


@dataclass
class PmiProbeReport:
    """Agreement between trained match logits and exact shifted PMI."""

    pairs: list[PmiPair]
    pearson: float
    mean_abs_dev: float
    mean_logit: float
    k: int
    min_count: int


def pmi_probe(
    model: SplitModel,
    block_a: FeatureBlock,
    block_b: FeatureBlock,
    *,
    k: int = 1,
    min_count: int = 50,
) -> PmiProbeReport:
    """Compare trained match logits with PMI - log k from exact counts.

    The probe data must be single-categorical-field per party. Pairs
    occurring fewer than min_count times are excluded. PMI is computed from
    the dataset's own counts: log(#(a,b) * N / (#a * #b)).
    """
    if block_a.cat.shape[1] != 1 or block_b.cat.shape[1] != 1:
        raise ValidationError("pmi_probe expects one categorical field per party")
    a = block_a.cat[:, 0]
    b = block_b.cat[:, 0]
    n = len(a)
    pair_counts: dict[tuple[int, int], int] = {}
    for va, vb in zip(a.tolist(), b.tolist()):
        pair_counts[(va, vb)] = pair_counts.get((va, vb), 0) + 1
    count_a: dict[int, int] = {}
    count_b: dict[int, int] = {}
    for va in a.tolist():
        count_a[va] = count_a.get(va, 0) + 1
    for vb in b.tolist():
        count_b[vb] = count_b.get(vb, 0) + 1

    kept = [(pair, c) for pair, c in sorted(pair_counts.items()) if c >= min_count]
    if not kept:
        raise ValidationError(f"no pair reaches min_count={min_count}")
    probe_a = FeatureBlock(
        cat=np.array([[p[0][0]] for p in kept], dtype=np.int64),
        num=np.zeros((len(kept), 0), dtype=F32),
    )
    probe_b = FeatureBlock(
        cat=np.array([[p[0][1]] for p in kept], dtype=np.int64),
        num=np.zeros((len(kept), 0), dtype=F32),
    )
    logits = model.predict_logits(probe_a, probe_b)

    pairs = []
    for ((va, vb), c), logit in zip(kept, logits):
        pmi = math.log(c * n / (count_a[va] * count_b[vb]))
        pairs.append(PmiPair(value_a=va, value_b=vb, count=c, pmi=pmi, logit=float(logit)))
    target = np.array([p.pmi - math.log(k) for p in pairs])
    got = np.array([p.logit for p in pairs])
    if len(pairs) >= 2 and target.std() > 0 and got.std() > 0:
        pearson = float(np.corrcoef(target, got)[0, 1])
    else:
        pearson = float("nan")
    return PmiProbeReport(
        pairs=pairs,
        pearson=pearson,
        mean_abs_dev=float(np.abs(got - target).mean()),
        mean_logit=float(got.mean()),
        k=k,
        min_count=min_count,
    )


# ---------------------------------------------------------------------------
# Metric-history readers
# ---------------------------------------------------------------------------


def from_jsonl(text: str) -> MetricHistory:
    """Parse MetricHistory.to_jsonl output back into a history."""
    history = MetricHistory()
    for line in text.splitlines():
        if not line.strip():
            continue
        raw = json.loads(line)
        known = {"epoch", "train_loss", "val_auc", "wall_time", "messages_sent", "bytes_sent"}
        history.append(
            EpochRecord(
                epoch=raw["epoch"],
                train_loss=raw["train_loss"],
                val_auc=raw["val_auc"],
                wall_time=raw["wall_time"],
                messages_sent=raw.get("messages_sent", 0),
                bytes_sent=raw.get("bytes_sent", 0),
                extra={k: v for k, v in raw.items() if k not in known},
            )
        )
    return history


def best_epoch(history: MetricHistory) -> int | None:
    """1-based epoch of the best validation AUC (first occurrence on ties);
    None without evaluations."""
    best = None
    best_auc = -np.inf
    for r in history.records:
        if r.val_auc is not None and r.val_auc > best_auc:
            best_auc = r.val_auc
            best = r.epoch
    return best


def epochs_to_auc(history: MetricHistory, target_auc: float) -> int | None:
    """First 1-based epoch whose validation AUC reaches target; None if never."""
    for r in history.records:
        if r.val_auc is not None and r.val_auc >= target_auc:
            return r.epoch
    return None


def run_matrix(config: ExperimentConfig, methods=METHODS, seeds=(0, 1, 2)) -> dict:
    """Run several methods over several seeds, sharing stage outputs.

    Returns {method: {seed: RunReport}}. In-process transport only."""
    out: dict = {}
    for seed in seeds:
        ctx = RunContext()
        seed_config = replace(config, seed=seed)
        dataset = load_dataset(seed_config)
        for method in methods:
            method_config = replace(seed_config, method=method)
            out.setdefault(method, {})[seed] = run(
                method_config, context=ctx, dataset=dataset
            )
    return out
