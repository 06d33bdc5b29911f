"""From federated teacher to single-party student.

The teacher's probabilities are computed once over the protocol and cached;
the student trains locally on alpha * BCE(hard labels) +
(1 - alpha) * KL(teacher || student). The result predicts from party A's
features alone: no channel, no cross-party traffic, same serving path as
any local model.

Run with: python demos/05_distillation.py
"""

import threading

import numpy as np

from fedsplit.data import SyntheticSpec, synth_federated
from fedsplit.distill import distill, distill_loss, teacher_predict
from fedsplit.metrics import auc
from fedsplit.numeric import sigmoid
from fedsplit.splitnn import (
    ActiveParty,
    BottomModel,
    LocalModel,
    PassiveParty,
    TopModel,
    TrainSettings,
    local_train,
    rng_for,
    train_supervised,
)
from fedsplit.transport import MsgType, inproc_pair

spec = SyntheticSpec(n_labeled=6000, n_unlabeled=0, n_test=2000, d_a=8, d_b=8,
                     rule="additive", lift=0.9, noise=0.3)
dataset = synth_federated(spec, seed=0)
seed = 0

# --- train the federated teacher
widths, top_widths = (16, 8), (8,)
bottom_a = BottomModel.create(dataset.schema_a, widths, rng_for(seed, 21))
bottom_b = BottomModel.create(dataset.schema_b, widths, rng_for(seed, 22))
top = TopModel.create(2 * widths[-1], top_widths, rng_for(seed, 23))
chan_a, chan_b = inproc_pair()
active = ActiveParty(chan_a, bottom_a, top, dataset)
passive = PassiveParty(chan_b, bottom_b, {"labeled": dataset.labeled.b,
                                          "test": dataset.test.b})
thread = threading.Thread(target=passive.serve, daemon=True)
thread.start()
settings = TrainSettings(lr=1e-2, l2=1e-4, batch_size=256, epochs=12,
                         patience=3, seed=seed, stage="fed")
train_supervised(active, settings)

# one EvalActivation per batch; probabilities are frozen after this pass
cache = teacher_predict(active, "labeled", batch_size=2048)
from fedsplit.splitnn import federated_eval_probs

teacher_test = federated_eval_probs(active, "test", batch_size=2048, seed=seed)
active.channel.send_new(MsgType.BYE)
thread.join()
print("teacher test AUC (needs both parties):",
      round(auc(teacher_test, dataset.test.y).auc, 3))

# --- the blended loss degenerates exactly as it should
z = np.array([0.0, 1.0], dtype=np.float32)
y = np.array([1.0, 0.0], dtype=np.float32)
soft = np.array([0.8, 0.2], dtype=np.float32)
for alpha in (1.0, 0.5, 0.0):
    loss, _ = distill_loss(z, y, soft, alpha)
    print(f"alpha={alpha}: blended loss {loss:.4f}")

# --- distill students at a few alphas and compare with the plain baseline
local_settings = TrainSettings(lr=1e-2, l2=1e-4, batch_size=256, epochs=12,
                               patience=3, seed=seed, stage="local")
baseline = LocalModel.create(dataset.schema_a, widths, top_widths, rng_for(seed, 24))
local_train(baseline, dataset.labeled.a, dataset.labeled.y, local_settings)
base_auc = auc(sigmoid(baseline.predict_logits(dataset.test.a)), dataset.test.y).auc
print(f"\nbaseline local (party A only): test AUC {base_auc:.3f}")

for alpha in (0.9, 0.5):
    student = LocalModel.create(dataset.schema_a, widths, top_widths, rng_for(seed, 24))
    distill(student, dataset.labeled.a, dataset.labeled.y, cache,
            local_settings, alpha=alpha)
    score = auc(sigmoid(student.predict_logits(dataset.test.a)), dataset.test.y).auc
    print(f"student alpha={alpha}: test AUC {score:.3f} "
          f"(inference needs zero messages)")
