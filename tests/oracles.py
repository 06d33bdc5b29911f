"""Test oracles and probe fixtures shared by the tests, the calibration
driver and the demos. Nothing in the library calls them.

- `grad_check`: central differences on a float64 shadow copy of a model,
  compared with its analytic gradients;
- `dense_grad`: a row-sparse embedding gradient as its full table;
- `per_table_bottom`: a bottom's forward and backward with one lookup and
  one gradient per table, the reference for its grouped embedding path;
- `reference_adam_step`: the allocating textbook form of Adam, the
  reference for the fused in-place `adam_step`;
- `pmi_probe`: trained match logits against the exact shifted PMI that
  matched-pair pretraining estimates (PMI - log k);
- `synth_categorical_pair`: categorical probe data with a known joint
  distribution, which `pmi_probe` needs;
- `from_jsonl`, `best_epoch`, `epochs_to_auc`: readers of a metric history.

Tests import this module as `oracles` (pytest puts `tests/` on sys.path);
the demos insert `tests/` into sys.path themselves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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
from fedsplit.metrics import EpochRecord, MetricHistory
from fedsplit.numeric import F32, F64, EmbeddingTable, RowSparseGrad
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
    loss_fn: Callable,
    tolerance: float = 1e-3,
    step: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients against central differences on a float64
    shadow copy of the model.

    `model` must expose params() / set_params(). The shadow is what params()
    returns after set_params of float64 copies (a value of another dtype
    makes set_params replace a dense layer's array with a float64 copy and
    lay an embedding group out again in float64), so perturbing a shadow
    entry in place re-evaluates the model at the perturbed point.
    `loss_fn(model)` must run a full forward and backward pass and return
    (loss, grads_by_param_name); a row-sparse embedding gradient is
    densified before the comparison. The analytic gradients are taken from
    the same float64 evaluation, so the comparison is free of float32
    rounding.
    """
    originals = dict(model.params())
    model.set_params({k: v.astype(F64) for k, v in originals.items()})
    shadow = dict(model.params())
    try:
        _, analytic = loss_fn(model)
        worst = 0.0
        worst_name = ""
        n = 0
        for name, arr in shadow.items():
            flat = arr.reshape(-1)
            a_flat = np.asarray(dense_grad(analytic[name]), dtype=F64).reshape(-1)
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
