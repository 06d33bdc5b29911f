"""The full method matrix at toy scale: both serving modes side by side.

Federated serving: vfl, vfl-st (self-training on unlabeled rows), vfl-mpd
(matched-pair pretraining). Local serving: the plain baseline, local-sd
(distilled student), local-mpd (pretrained bottom), local-ssd (both).
Reports include message counters, so the zero-traffic inference path of the
local methods is visible in the numbers.

Run with: python demos/06_method_matrix.py   (about two minutes)
"""

import sys
from pathlib import Path

import numpy as np

from fedsplit.data import SyntheticSpec
from fedsplit.harness import METHODS, ExperimentConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))  # for tests/oracles.py
from oracles import run_matrix  # noqa: E402

config = ExperimentConfig(
    synth=SyntheticSpec(
        n_labeled=4000, n_unlabeled=16_000, n_test=3000,
        d_a=8, d_b=8, rule="xor", positive_rate=0.5,
        lift=0.9, leak=0.35, shared_dim=0, private_dim=1,
        noise=0.4, buckets=16, embed_dim=8,
    ),
    bottom_a=(32, 32), bottom_b=(32, 32), top=(32, 32),
    lr=1e-2, finetune_lr=1e-3, alpha=0.5, l2=1e-5,
    batch_pretrain=512, batch_train=128,
    epochs=25, pretrain_epochs=10, patience=4,
)

results = run_matrix(config, methods=METHODS, seeds=(0,))

print(f"{'method':16s} {'test AUC':>9s} {'vs base':>8s} {'msgs':>7s} {'infer msgs':>11s}")
base = results["baseline-local"][0].test_auc
for method in METHODS:
    report = results[method][0]
    msgs = sum(report.messages_sent.values()) + sum(report.messages_received.values())
    lift = "" if report.improvement is None else f"{report.improvement:+.4f}"
    print(f"{method:16s} {report.test_auc:9.4f} {lift:>8s} {msgs:7d} "
          f"{report.inference_messages:11d}")

print("\npipeline stages per method:")
for method in METHODS:
    print(f"  {method:16s} {' -> '.join(results[method][0].stages)}")

vfl_hist = results["vfl"][0].histories["fed-train"]
mpd_hist = results["vfl-mpd"][0].histories["fed-finetune"]
print("\nvalidation AUC by epoch (supervised-only vs pretrained fine-tune):")
print("  vfl     :", [round(r.val_auc, 3) for r in vfl_hist.records])
print("  vfl-mpd :", [round(r.val_auc, 3) for r in mpd_hist.records])
