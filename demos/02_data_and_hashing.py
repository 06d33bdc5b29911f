"""Vertically partitioned data: schemas, feature hashing, aligned batches,
and the synthetic generators used throughout the test suite.

Run with: python demos/02_data_and_hashing.py
"""

import sys
from pathlib import Path

import numpy as np

from fedsplit.data import (
    FieldSpec,
    PartySchema,
    SyntheticSpec,
    batch_indices,
    hash_feature,
    parse_schema,
    synth_federated,
    validation_split,
)
from fedsplit.metrics import auc

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))  # for tests/oracles.py
from oracles import synth_categorical_pair  # noqa: E402

# --- schemas declare each party's fields in model-input order
schema_text = """
party A
game_id categorical buckets=1000 embed_dim=8
spend_7d numerical
sessions numerical
"""
schema_a = parse_schema(schema_text, party="A")
print("party A post-embedding width:", schema_a.post_embed_dim)

# --- categorical values hash deterministically into buckets (FNV-1a-64,
#     salted with the field name so equal values in different fields diverge)
field = schema_a.fields[0]
print("hash('game_7') =", hash_feature(field, "game_7"),
      "| stable:", hash_feature(field, "game_7") == hash_feature(field, "game_7"))

# --- synthetic two-party data with a declared label rule
spec = SyntheticSpec(
    n_labeled=5000, n_unlabeled=10_000, n_test=2000,
    d_a=8, d_b=8, rule="xor", lift=1.0, leak=0.0, noise=0.0,
)
dataset = synth_federated(spec, seed=0)
print("\nsegments:", dataset.labeled.n_rows, dataset.unlabeled.n_rows, dataset.test.n_rows)
print("positive rate:", float(dataset.labeled.y.mean()))

# noiseless XOR: the federated posterior separates perfectly, single parties
# are marginally blind
truth = dataset.truth["labeled"]
print("federated Bayes AUC:", auc(truth["posterior"], dataset.labeled.y).auc)
print("party-A factor alone:", round(auc(truth["t_a"], dataset.labeled.y).auc, 3))

# --- both parties derive the same shuffled batch order from one seed key,
#     and taking those rows from a segment keeps A/B rows paired
for idx in batch_indices(dataset.labeled.n_rows, 2048, seed=[7]):
    batch = dataset.labeled.take(idx)
    print("batch:", batch.n_rows, "rows; labels attached:", batch.y is not None)

# --- the 1/20 validation split is deterministic and disjoint
train_rows, val_rows = validation_split(dataset.labeled.n_rows, seed=[0, 32])
print("train/val:", len(train_rows), len(val_rows))

# --- categorical probe data with a known joint distribution (for the
#     pointwise-mutual-information checks)
probe = synth_categorical_pair(20_000, values=6, coupling=(0.2, 0.8), seed=1)
a = probe.unlabeled.a.cat[:, 0]
b = probe.unlabeled.b.cat[:, 0]
print("\nprobe match rate by A value (coupling is graded):",
      [round(float((b[a == v] == v).mean()), 2) for v in range(6)])
