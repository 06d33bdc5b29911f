"""Two-party split-network training for tabular click/conversion models.

The library pairs an active (label-holding) party with a passive
(feature-only) party. Training exchanges exactly one activation and one
gradient matrix per batch; inference-time independence is recovered by
distilling the federated model into a single-party student. Unlabeled
aligned rows are exploited with matched-pair detection pretraining.

Start with `fedsplit.harness.run` (or `grid`) for end-to-end pipelines,
or compose the pieces directly: `data` (schemas, hashing, synthetic
generators), `numeric` (layers, losses, Adam),
`transport` (framed channel), `splitnn` (model containers, party runtimes,
and the trainers' one epoch loop with early stopping), `mpd` (pretraining),
`distill` (teacher-student transfer), `metrics` (AUC, the new-best margin,
epoch histories).
"""

from . import checkpoint, data, distill, errors, harness, metrics, mpd, numeric, splitnn, transport

__all__ = [
    "checkpoint",
    "data",
    "distill",
    "errors",
    "harness",
    "metrics",
    "mpd",
    "numeric",
    "splitnn",
    "transport",
]

__version__ = "0.1.0"
