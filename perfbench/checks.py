"""Checkers written apart from the program under test.

Nothing here imports fedsplit: the hash, the AUC and the traffic model are
the benchmark's own, so a fault in the program cannot hide behind the same
fault in its checker.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
FIELD_SEPARATOR = b"\x1f"

# wire format: "VFSD" | version u8 | type u8 | round u64 | rows u32 | cols u32
FRAME_HEADER_BYTES = 4 + 1 + 1 + 8 + 4 + 4
FLOAT_BYTES = 4


def fnv1a64(data: bytes) -> int:
    """Reference FNV-1a 64 over a byte string (one byte at a time)."""
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def fnv1a64_many(values: list[str], prefix: bytes = b"") -> np.ndarray:
    """FNV-1a 64 of `prefix + value` for many values at once (uint64 lanes).

    numpy's uint64 multiply wraps modulo 2**64, which is exactly the
    reduction FNV needs; shorter values stop updating once their bytes run
    out.
    """
    encoded = [prefix + v.encode("utf-8") for v in values]
    width = max((len(e) for e in encoded), default=0)
    padded = np.frombuffer(b"".join(e.ljust(width, b"\0") for e in encoded), dtype=np.uint8)
    padded = padded.reshape(len(encoded), width)
    lengths = np.fromiter((len(e) for e in encoded), dtype=np.int64, count=len(encoded))
    h = np.full(len(encoded), FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(FNV_PRIME)
    for j in range(width):
        live = lengths > j
        step = (h ^ padded[:, j].astype(np.uint64)) * prime
        h = np.where(live, step, h)
    return h


def bucket_of(field: str, values: list[str], buckets: int) -> np.ndarray:
    """Bucket index of raw categorical values: FNV-1a 64 of the field name,
    a 0x1F separator and the value, modulo the bucket count."""
    salted = fnv1a64_many(values, field.encode("utf-8") + FIELD_SEPARATOR)
    return (salted % np.uint64(buckets)).astype(np.int64)


def auc(scores, labels) -> float:
    """ROC AUC as the share of (positive, negative) pairs ranked correctly,
    ties counted half, from binary searches over the sorted negatives."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = np.sort(s[y == 0])
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("AUC needs both classes")
    below = np.searchsorted(neg, pos, side="left")
    not_above = np.searchsorted(neg, pos, side="right")
    # twice the credit is an integer, so the sum is exact in int64
    twice = int((below + not_above).sum())
    return twice / (2.0 * len(pos) * len(neg))


def params_checksum(params: dict) -> str:
    """SHA-256 over parameter names, shapes and float32 bytes, name-sorted."""
    h = hashlib.sha256()
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f4")
        h.update(name.encode("utf-8"))
        h.update(str(arr.shape).encode("ascii"))
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Traffic model: what each executed stage must put on the wire
# ---------------------------------------------------------------------------

FED_STAGES = ("fed-train", "fed-train-teacher", "fed-train-soft",
              "fed-finetune", "fed-finetune-teacher")
LOCAL_STAGES = ("local-train", "local-finetune", "distill")


def n_batches(rows: int, batch: int, *, drop_short: bool = False) -> int:
    count = math.ceil(rows / batch)
    if drop_short and rows % batch == 1:
        count -= 1
    return count


def validation_rows(n: int) -> tuple[int, int]:
    """(train, val) row counts of the program's 1/20 validation split."""
    return n - n // 20, n // 20


class Traffic:
    """Expected frame and row totals, built one executed stage at a time."""

    def __init__(self, sizes: dict, batch_train: int, batch_pretrain: int,
                 eval_batch: int, width_b: int):
        self.sizes = sizes  # segment name -> row count
        self.batch_train = batch_train
        self.batch_pretrain = batch_pretrain
        self.eval_batch = eval_batch
        self.width_b = width_b
        self.activations = 0  # ACTIVATION frames, one per training batch
        self.activation_rows = 0
        self.evals = 0  # EVAL_ACTIVATION frames
        self.eval_rows = 0
        self.train_rows = 0  # rows stepped through forward, backward, update

    def _eval(self, rows: int) -> None:
        self.evals += n_batches(rows, self.eval_batch)
        self.eval_rows += rows

    def fed_stage(self, stage: str, epochs: int) -> None:
        train, val = validation_rows(self.sizes["labeled"])
        rows = self.sizes["unlabeled"] if stage == "fed-train-soft" else train
        self.activations += epochs * n_batches(rows, self.batch_train)
        self.activation_rows += epochs * rows
        self.train_rows += epochs * rows
        for _ in range(epochs):
            self._eval(val)  # validation AUC after every epoch
        if stage != "fed-train-soft":
            self._eval(self.sizes["test"])  # test scoring ends the stage

    def mpd_stage(self, epochs: int) -> None:
        rows = self.sizes["unlabeled"]
        batches = n_batches(rows, self.batch_pretrain, drop_short=True)
        positives = rows - (1 if rows % self.batch_pretrain == 1 else 0)
        self.activations += epochs * batches
        self.activation_rows += epochs * positives
        self.train_rows += epochs * positives

    def local_stage(self, epochs: int) -> None:
        self.train_rows += epochs * validation_rows(self.sizes["labeled"])[0]

    def soft_labels(self, segment: str) -> None:
        self._eval(self.sizes[segment])

    def received_matrix_bytes(self) -> int:
        frames = self.activations + self.evals
        rows = self.activation_rows + self.eval_rows
        return frames * FRAME_HEADER_BYTES + rows * self.width_b * FLOAT_BYTES

    def gradient_bytes(self) -> int:
        return (self.activations * FRAME_HEADER_BYTES
                + self.activation_rows * self.width_b * FLOAT_BYTES)

    def test_inference_messages(self) -> int:
        """One Control frame starts a scoring pass; one EvalActivation per batch."""
        return 1 + n_batches(self.sizes["test"], self.eval_batch)


def hello_frame_bytes(role: str) -> int:
    """Size of a Hello frame: its key=value block names the wire version,
    the schema and config hashes (16 hex characters each) and the role."""
    h = "0" * 16
    meta = f"wire_version=1\nschema_hash={h}\nconfig_hash={h}\nrole={role}"
    return FRAME_HEADER_BYTES + len(meta.encode("utf-8"))


def model_round(reports, traffic: Traffic, *, hidden_baselines: int, epochs: int) -> None:
    """Feed every stage the round's reports executed into `traffic`.

    A stage served from the stage cache shows the same history object in a
    later report, so each history is counted once. Soft labels leave no
    history: a (teacher, segment) pair is scored once per cache. Baseline
    runs made only to fill a report's improvement column appear in no
    report; with early stopping off each one runs `epochs` epochs.
    """
    seen: set[int] = set()
    soft_seen: set[tuple[int, str]] = set()
    for report in reports:
        for stage, history in report.histories.items():
            if id(history) in seen:
                continue
            seen.add(id(history))
            n_epochs = len(history.records)
            if stage in FED_STAGES:
                traffic.fed_stage(stage, n_epochs)
            elif stage == "mpd-pretrain":
                traffic.mpd_stage(n_epochs)
            elif stage in LOCAL_STAGES:
                traffic.local_stage(n_epochs)
        if "soft-labels" in report.stages:
            teacher = report.histories[report.stages[report.stages.index("soft-labels") - 1]]
            segment = "unlabeled" if report.method == "vfl-st" else "labeled"
            if (id(teacher), segment) not in soft_seen:
                soft_seen.add((id(teacher), segment))
                traffic.soft_labels(segment)
    for _ in range(hidden_baselines):
        traffic.local_stage(epochs)
