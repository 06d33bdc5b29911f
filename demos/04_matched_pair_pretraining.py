"""Matched-pair pretraining on unlabeled aligned rows, and the pointwise
mutual information it implicitly estimates.

Aligned rows are positives; permuting one party's half with a derangement
(a permutation with no fixed point) manufactures negatives. Training the
split model to tell them apart needs no labels and no extra coordination,
and at convergence the top model's logit approaches PMI(a, b) - log k.

Run with: python demos/04_matched_pair_pretraining.py
"""

import math
import sys
import threading
from pathlib import Path

import numpy as np

from fedsplit.mpd import mpd_loss, pretrain, sample_derangement
from fedsplit.splitnn import (
    ActiveParty,
    BottomModel,
    PassiveParty,
    SplitModel,
    TopModel,
    TrainSettings,
    rng_for,
)
from fedsplit.transport import MsgType, inproc_pair

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))  # for tests/oracles.py
from oracles import pmi_probe, synth_categorical_pair  # noqa: E402

rng = np.random.default_rng(0)

# --- derangements: no row keeps its partner
print("derangement of 6 rows:", sample_derangement(6, rng))
seen = {tuple(sample_derangement(4, rng)) for _ in range(20_000)}
print("distinct derangements of 4 seen:", len(seen), "(there are exactly 9)")

# --- positives are the aligned rows; a negative pairs each B row with the A
#     row a derangement moves there. Pretraining permutes the encoded A block
#     the same way, since the bottom model acts row by row.
a_rows, b_rows = np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0, 30.0])
perm = sample_derangement(3, rng)
print("\npositive pairs:", [(float(a), float(b)) for a, b in zip(a_rows, b_rows)])
print("negative pairs:", [(float(a), float(b)) for a, b in zip(a_rows[perm], b_rows)])

# --- the loss at indifferent logits is 2 ln 2
loss, _, _ = mpd_loss(np.zeros(8), np.zeros(8))
print("loss at zero logits:", round(loss, 4), "= 2 ln 2 =", round(2 * math.log(2), 4))

# --- pretrain on categorical pairs with a known joint distribution, then
#     compare the learned logits against exact PMI from counts
probe_data = synth_categorical_pair(40_000, values=8, coupling=(0.15, 0.75), seed=1)
widths, top_widths, seed = (16, 8), (16,), 1
bottom_a = BottomModel.create(probe_data.schema_a, widths, rng_for(seed, 21))
bottom_b = BottomModel.create(probe_data.schema_b, widths, rng_for(seed, 22))
top = TopModel.create(2 * widths[-1], top_widths, rng_for(seed, 26))

chan_a, chan_b = inproc_pair()
active = ActiveParty(chan_a, bottom_a, top, probe_data)
passive = PassiveParty(chan_b, bottom_b, {"unlabeled": probe_data.unlabeled.b})
thread = threading.Thread(target=passive.serve, daemon=True)
thread.start()
history = pretrain(
    active,
    TrainSettings(lr=1e-2, l2=0.0, batch_size=512, epochs=20,
                  patience=None, seed=seed, stage="mpd"),
    k=1,
)
active.channel.send_new(MsgType.BYE)
thread.join()
final = history.records[-1]
print(f"\npretraining: match accuracy {final.extra['match_accuracy']:.3f} "
      f"after {len(history.records)} epochs")

model = SplitModel(active.bottom, passive.bottom, active.top)
report = pmi_probe(model, probe_data.unlabeled.a, probe_data.unlabeled.b,
                   k=1, min_count=50)
print(f"logit vs PMI - log k over {len(report.pairs)} pairs: "
      f"Pearson {report.pearson:.3f}, mean |dev| {report.mean_abs_dev:.3f}")
strongest = max(report.pairs, key=lambda p: p.pmi)
print(f"example pair a={strongest.value_a} b={strongest.value_b}: "
      f"PMI {strongest.pmi:.3f}, logit {strongest.logit:.3f}")
