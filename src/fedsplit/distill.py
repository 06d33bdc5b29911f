"""Knowledge transfer from the federated teacher to a single-party student.

The teacher's probabilities are computed once over the protocol (one
EvalActivation per batch), cached, and never recomputed: the teacher is
frozen, so its outputs are constants. The student then trains locally on

    loss = alpha * BCE(y, p_student) + (1 - alpha) * KL(p_teacher || p_student)

with the KL on Bernoulli distributions, teacher first. alpha = 1 reduces to
plain supervised training -- bitwise, because the KL branch is skipped
entirely -- and alpha = 0 with student == teacher gives exactly zero loss
and gradient. The trained student predicts from its own party's features
alone; its inference path holds no channel and its checkpoint carries no
other-party tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureBlock
from .errors import DataError, ValidationError
from .metrics import MetricHistory
from .numeric import F32, PROB_EPS, bce_loss, bernoulli_kl, sigmoid
from .splitnn import ActiveParty, LocalModel, TrainSettings, federated_eval_probs, local_train


@dataclass
class SoftLabelCache:
    """Frozen teacher probabilities for one data segment."""

    probs: np.ndarray  # float32 (n,), clamped on use

    def __len__(self) -> int:
        return len(self.probs)


def teacher_predict(
    active: ActiveParty,
    segment: str,
    *,
    batch_size: int = 8192,
    seed: int = 0,
) -> SoftLabelCache:
    """Run the frozen federated teacher over a segment and cache the
    probabilities. One EvalActivation per batch; nothing flows back."""
    probs = federated_eval_probs(
        active, segment, subset="all", batch_size=batch_size, seed=seed
    )
    return SoftLabelCache(probs=probs.astype(F32))


def distill_loss(
    logits: np.ndarray,
    y: np.ndarray,
    soft: np.ndarray,
    alpha: float,
) -> tuple[float, np.ndarray]:
    """Blended hard/soft loss and its gradient at the student logits.

    alpha = 1 calls straight into the BCE path so the arithmetic is
    identical to supervised training. The loss is affine in alpha at fixed
    predictions.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValidationError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 1.0:
        return bce_loss(logits, y)
    z = np.asarray(logits)
    p = np.clip(np.asarray(soft, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    q = sigmoid(z.astype(np.float64))
    m = z.shape[0]
    kl_values, kl_grad = bernoulli_kl(p, q)
    kl_mean = float(np.mean(kl_values))
    kl_grad = kl_grad / m
    if alpha == 0.0:
        return kl_mean, kl_grad.astype(F32)
    bce_value, bce_grad = bce_loss(logits, y)
    loss = alpha * bce_value + (1.0 - alpha) * kl_mean
    grad = alpha * bce_grad + (1.0 - alpha) * kl_grad
    return loss, grad.astype(F32)


def distill(
    student: LocalModel,
    block: FeatureBlock,
    y: np.ndarray,
    cache: SoftLabelCache,
    settings: TrainSettings,
    *,
    alpha: float,
) -> MetricHistory:
    """Train the student against hard labels and cached teacher probabilities.

    The cache must cover every training row (same length, no NaN); a missing
    soft label is a data error naming the row. Validation AUC, early
    stopping, and best-checkpoint restoration behave exactly like
    supervised local training.
    """
    if len(cache) != block.n_rows:
        raise DataError(
            f"soft-label cache has {len(cache)} rows, segment has {block.n_rows}"
        )
    bad = np.flatnonzero(~np.isfinite(cache.probs))
    if len(bad):
        raise DataError(f"missing soft label for row {int(bad[0])}")
    soft = cache.probs

    def blended(logits, rows):
        return distill_loss(logits, y[rows], soft[rows], alpha)

    return local_train(student, block, y, settings, loss_fn=blended)
