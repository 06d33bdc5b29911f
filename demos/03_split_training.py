"""Two-party split training end to end, next to its single-process twin.

The passive party computes h_B = f_B(x_B) and ships it; the active party
fuses, scores, and returns dLoss/dh_B. Every training batch costs exactly
two matrix messages. A monolithic model built from the same weights
reproduces the federated forward bit for bit, which is how the test suite
checks the protocol.

Run with: python demos/03_split_training.py
"""

import threading

import numpy as np

from fedsplit.data import SyntheticSpec, synth_federated
from fedsplit.metrics import auc
from fedsplit.numeric import bce_loss, sigmoid
from fedsplit.splitnn import (
    ActiveParty,
    BottomModel,
    LocalModel,
    PassiveParty,
    SplitModel,
    TopModel,
    TrainSettings,
    federated_eval_probs,
    local_train,
    rng_for,
    train_supervised,
)
from fedsplit.transport import MsgType, inproc_pair

spec = SyntheticSpec(n_labeled=8000, n_unlabeled=0, n_test=2000,
                     d_a=8, d_b=8, rule="xor", lift=1.0, leak=0.0, noise=0.1)
dataset = synth_federated(spec, seed=0)

widths, top_widths, seed = (16, 8), (8,), 0
bottom_a = BottomModel.create(dataset.schema_a, widths, rng_for(seed, 21))
bottom_b = BottomModel.create(dataset.schema_b, widths, rng_for(seed, 22))
top = TopModel.create(2 * widths[-1], top_widths, rng_for(seed, 23))

chan_a, chan_b = inproc_pair()
active = ActiveParty(chan_a, bottom_a, top, dataset)
passive = PassiveParty(chan_b, bottom_b, {
    "labeled": dataset.labeled.b, "test": dataset.test.b,
})

# --- one manual protocol step, checked against the monolith oracle
monolith = SplitModel(
    BottomModel.create(dataset.schema_a, widths, rng_for(seed, 91)),
    BottomModel.create(dataset.schema_b, widths, rng_for(seed, 92)),
    TopModel.create(2 * widths[-1], top_widths, rng_for(seed, 93)),
)
# set_params copies in, so the monolith never aliases the parties' arrays
monolith.bottom_a.set_params(bottom_a.params())
monolith.bottom_b.set_params(bottom_b.params())
monolith.top.set_params(top.params())

batch = dataset.labeled.take(np.arange(64))
settings = TrainSettings(lr=1e-2, l2=1e-4, batch_size=256, epochs=12,
                         patience=3, seed=seed, stage="fed")
active.optimizer = settings.adam()
passive.optimizer = settings.adam()

passive.send_activation(batch.b)  # B -> A: Activation
logits = active.forward_step(batch.a)
mono_logits = monolith.predict_logits(batch.a, batch.b)
print("federated == monolith, bit for bit:",
      logits.tobytes() == mono_logits.tobytes())

loss, grad = bce_loss(logits, batch.y)
grads_a = active.backward_step(grad)  # A -> B: Gradient
grads_b = passive.recv_gradient()
active.apply_update(grads_a)
passive.apply_update(grads_b)
print("messages so far:", dict(passive.channel.counters.sent),
      dict(active.channel.counters.sent))

# --- full training: the passive party serves commands on its own thread,
#     exactly as it would across a TCP connection
thread = threading.Thread(target=passive.serve, daemon=True)
thread.start()
history = train_supervised(active, settings)
probs = federated_eval_probs(active, "test", batch_size=4096, seed=seed)
active.channel.send_new(MsgType.BYE)
thread.join()

fed_auc = auc(probs, dataset.test.y).auc
print(f"\nfederated training: {len(history.records)} epochs, "
      f"best val AUC {history.best_val_auc:.3f}, test AUC {fed_auc:.3f}")

# --- each party alone is blind on this data (the label is a pure
#     cross-party interaction)
for name, schema, block, test_block in (
    ("A", dataset.schema_a, dataset.labeled.a, dataset.test.a),
    ("B", dataset.schema_b, dataset.labeled.b, dataset.test.b),
):
    model = LocalModel.create(schema, widths, top_widths, rng_for(seed, 60 + ord(name)))
    local_train(model, block, dataset.labeled.y,
                TrainSettings(lr=1e-2, l2=1e-4, batch_size=256, epochs=8,
                              patience=3, seed=seed, stage="local"))
    score = auc(sigmoid(model.predict_logits(test_block)), dataset.test.y).auc
    print(f"party {name} alone: test AUC {score:.3f}")
