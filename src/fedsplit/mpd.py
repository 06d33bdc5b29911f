"""Matched Pair Detection pretraining on unlabeled aligned pairs.

Each unlabeled batch yields one positive batch (the aligned pairs, target 1)
and k negative batches built by permuting party A's half with a
derangement -- a permutation with no fixed point, so no "negative" row is a
true pair (up to duplicate rows). The federated model is trained to tell
the two apart; afterwards only the bottom encoders are kept.

Because the permutation acts on rows and the bottom model is row-wise, the
driver permutes the already-computed hidden block instead of re-encoding
permuted raw rows: f(P X) = P f(X) exactly. Party B's hidden
block is reused for the positive and every negative batch, so one batch
still costs exactly one Activation and one Gradient message, exchanged by
the same `ActiveParty.recv_hidden` and `send_gradient` as a supervised
step, and the permuting side needs no extra coordination.

The objective per batch of m rows with k negatives per positive is

    loss = -mean_i log sigma(z_pos_i) - (1/m) * sum_j log sigma(-z_neg_j)

which is the negated, batch-size-normalized form of the sum of
log-likelihood terms over one positive and k negative draws per pair. At
convergence the top model's logit estimates the pointwise mutual
information of the pair shifted by -log k; the PMI probe in
`tests/oracles.py` checks this against exact counts on a small categorical
dataset.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import FeatureBlock
from .errors import ValidationError
from .metrics import MetricHistory
from .numeric import F32, log_sigmoid, sigmoid
from .splitnn import (
    STREAM_DERANGE,
    ActiveParty,
    TrainSettings,
    _epoch_loop,
    _prefix,
)


def sample_derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random derangement of range(n) by rejection sampling.

    Returns mapping where mapping[i] is the source row for destination i,
    with mapping[i] != i for all i. The acceptance rate tends to 1/e, so the
    expected number of draws is below three.
    """
    if n < 2:
        raise ValidationError(f"no derangement exists for n={n}")
    idx = np.arange(n)
    while True:
        perm = rng.permutation(n)
        if not np.any(perm == idx):
            return perm


def mpd_loss(
    logits_pos: np.ndarray, logits_neg: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Match/mismatch loss and its gradients at the logits.

    loss = -mean(log sigma(z+)) - sum(log sigma(-z-)) / m, m = len(z+).
    Gradients: d/dz+ = (sigma(z+) - 1)/m, d/dz- = sigma(z-)/m.
    """
    z_pos = np.asarray(logits_pos, dtype=np.float64)
    z_neg = np.asarray(logits_neg, dtype=np.float64)
    if z_pos.size == 0 or z_neg.size == 0:
        raise ValidationError("both positive and negative logits are required")
    m = z_pos.shape[0]
    loss = float(-log_sigmoid(z_pos).mean() - log_sigmoid(-z_neg).sum() / m)
    grad_pos = ((sigmoid(z_pos) - 1.0) / m).astype(F32)
    grad_neg = (sigmoid(z_neg) / m).astype(F32)
    return loss, grad_pos, grad_neg


def pretrain(
    active: ActiveParty,
    settings: TrainSettings,
    *,
    k: int = 1,
) -> MetricHistory:
    """Federated matched-pair pretraining over the unlabeled segment.

    Runs the full epoch budget through the shared epoch loop (no early
    stopping: there is no labeled validation signal), tracking the match
    loss and match accuracy per epoch. A final batch of a single row is
    dropped, since it has no derangement. The label column is never
    touched: this path reads only feature blocks.
    """
    dataset = active.dataset
    if dataset.unlabeled is None or dataset.unlabeled.n_rows < 2:
        raise ValidationError("pretraining needs an unlabeled segment with >= 2 rows")
    seg = dataset.unlabeled
    active.start_phase(settings, "mpd")
    tally = [0, 0]  # correct and classified match decisions this epoch

    def step(epoch, batch_no, rows, diverged):
        rng = np.random.default_rng([settings.seed, STREAM_DERANGE, epoch, batch_no])
        perms = [sample_derangement(len(rows), rng) for _ in range(k)]
        loss, hits, total = _mpd_protocol_step(active, seg.a.take(rows), perms)
        tally[0] += hits
        tally[1] += total
        return loss

    def end_epoch(is_best):
        hits, total = tally
        tally[:] = [0, 0]
        return {"match_accuracy": hits / max(total, 1)}

    return _epoch_loop(
        replace(settings, stage="mpd"), np.arange(seg.n_rows), step,
        channel=active.channel, segment="unlabeled", drop_short=True,
        end_epoch=end_epoch,
    )


def _mpd_protocol_step(
    active: ActiveParty,
    block_a: FeatureBlock,
    perms: list[np.ndarray],
) -> tuple[float, int, int]:
    """One pretraining batch over the wire: one Activation in, one Gradient out.

    Each negative block pairs party A's hidden rows, permuted by one
    derangement, with party B's rows as they are. Returns (loss, correct_classifications, classified_rows).
    """
    h_a, h_b = active.recv_hidden(block_a)
    m = block_a.n_rows
    fused_pos = np.hstack([h_a, h_b])
    logits_pos, cache_pos = active.top.forward(fused_pos)
    neg_caches = []
    neg_logits = []
    for perm in perms:
        z, cache = active.top.forward(np.hstack([h_a[perm], h_b]))
        neg_caches.append(cache)
        neg_logits.append(z)
    logits_neg = np.concatenate(neg_logits)

    loss, grad_pos, grad_neg = mpd_loss(logits_pos, logits_neg)

    d_a = h_a.shape[1]
    grad_fused_pos, grads_top = active.top.backward(cache_pos, grad_pos)
    grad_h_a = grad_fused_pos[:, :d_a].copy()
    grad_h_b = grad_fused_pos[:, d_a:].copy()
    for i, perm in enumerate(perms):
        g = grad_neg[i * m : (i + 1) * m]
        grad_fused_neg, g_top = active.top.backward(neg_caches[i], g)
        for name, value in g_top.items():
            grads_top[name] = grads_top[name] + value
        grad_h_a[perm] += grad_fused_neg[:, :d_a]  # perm repeats no row
        grad_h_b += grad_fused_neg[:, d_a:]

    grads_bottom = active.send_gradient(grad_h_a, grad_h_b)
    active.apply_update(
        {**_prefix(grads_top, "top"), **_prefix(grads_bottom, "bottom")}
    )
    hits = int((logits_pos > 0).sum() + (logits_neg < 0).sum())
    total = int(logits_pos.size + logits_neg.size)
    return loss, hits, total

