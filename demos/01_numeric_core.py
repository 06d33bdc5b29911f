"""A walk through the numeric core: layers, losses, Adam, gradient checking.

Run with: python demos/01_numeric_core.py
"""

import sys
from pathlib import Path

import numpy as np

from fedsplit.numeric import (
    AdamState,
    DenseLayer,
    EmbeddingTable,
    Mlp,
    adam_step,
    bce_loss,
    bernoulli_kl,
    log_sigmoid,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))  # for tests/oracles.py
from oracles import dense_grad, grad_check  # noqa: E402

rng = np.random.default_rng(0)

# --- a dense layer is just act(x @ W + b), float32 with float64 accumulation
layer = DenseLayer.create(n_in=3, n_out=2, activation="relu", rng=rng)
x = rng.normal(size=(4, 3)).astype(np.float32)
out, cache = layer.forward(x)
print("layer output shape:", out.shape, "dtype:", out.dtype)

# backward returns (grad_input, grad_weight, grad_bias) for a recorded forward
grad_x, grad_w, grad_b = layer.backward(cache, np.ones_like(out))
print("grad shapes:", grad_x.shape, grad_w.shape, grad_b.shape)

# --- stable log-sigmoid never overflows
print("\nlog_sigmoid at 0, +50, -50:", log_sigmoid(np.array([0.0, 50.0, -50.0])))

# --- binary cross-entropy on logits, soft labels allowed
logits = np.array([0.0, 3.0, -3.0], dtype=np.float32)
labels = np.array([1.0, 1.0, 0.3], dtype=np.float32)
loss, grad = bce_loss(logits, labels)
print("bce loss:", round(loss, 4), "gradient:", np.round(grad, 4))

# --- Bernoulli KL, the soft half of the distillation objective
kl, dkl = bernoulli_kl(0.9, 0.5)
print("KL(0.9 || 0.5) =", round(kl, 4), " d/dlogit =", round(dkl, 4))

# --- Adam with L2 folded into the gradient
params = {"w": np.zeros(1, dtype=np.float32)}
state = AdamState(lr=0.1)
adam_step(state, params, {"w": np.ones(1, dtype=np.float32)})
print("\nfirst Adam step moves 0 by ~ -lr:", params["w"])

# --- the gradient checker compares the float32 backward pass with central
# differences of its own float64 forward over a copy of the parameters
model = Mlp.create(4, [6, 1], rng, final_activation="identity")
data = rng.normal(size=(10, 4)).astype(np.float32)
targets = (rng.random(10) > 0.5).astype(np.float32)


def loss_fn(m):
    out, caches = m.forward(data)
    value, grad_logits = bce_loss(out[:, 0], targets)
    _, grads = m.backward(caches, grad_logits.reshape(-1, 1))
    return value, grads


report = grad_check(model, data, loss_fn, lambda z: bce_loss(z, targets)[0],
                    tolerance=1e-3, step=1e-5)
print(f"\ngrad check: max relative error {report.max_rel_error:.2e} "
      f"over {report.n_checked} parameters -> {'PASS' if report.passed else 'FAIL'}")
if not report.passed:
    sys.exit(1)

# --- embedding tables: gather forward, scatter-add backward
table = EmbeddingTable.create(buckets=10, dim=4, rng=rng)
idx = np.array([3, 3, 7])
rows = table.lookup(idx)
g = table.grad(idx, np.ones_like(rows))
# every table's gradient is row-sparse: the batch's distinct rows, and the
# summed gradient of each
dense = dense_grad(g)
print("\nembedding grad over rows", g.rows, "accumulates duplicates: row 3 got",
      dense[3][0], ", row 7 got", dense[7][0], ", row 0 got", dense[0][0])
