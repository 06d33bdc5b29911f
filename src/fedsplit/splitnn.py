"""Two-party split training.

The passive party (B) computes its hidden block h_B and ships it; the
active party (A) fuses h_B with its own hidden block, scores, computes the
loss, and returns the gradient at h_B. Each training batch therefore costs
exactly two matrix messages:

    B -> A   Activation      h_B, float32 (m, d_B)
    A -> B   Gradient        dLoss/dh_B, same shape

An inference-only batch sends a single EvalActivation and nothing back.
Control frames carry phase/epoch bookkeeping between epochs; they never
contain labels, loss values, or top-model parameters, and the passive
runtime holds neither labels nor the top model by construction.

Both parties derive identical batch schedules from shared integer seed keys
(sent in Control metadata), so no index lists ever cross the wire. The
active party drives; the passive party is a message-driven state machine
(`PassiveParty.serve`) that behaves identically over the in-process and TCP
transports.

Every trainer -- federated supervised (`train_supervised`), single-party
(`local_train`) and matched-pair pretraining (`mpd.pretrain`) -- runs the
one epoch loop `_epoch_loop` and plugs in its own per-batch step, its
validation, and its best-snapshot and restore hooks.
"""

from __future__ import annotations

import hashlib
import re
import time
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import checkpoint as ckpt
from .data import FeatureBlock, PartitionedDataset, PartySchema, batch_indices, validation_split
from .errors import ProtocolError, ShapeError, StateError, ValidationError
from .metrics import IMPROVEMENT_EPS, EpochRecord, MetricHistory, auc
from .numeric import (
    F32,
    AdamState,
    EmbeddingTable,
    Mlp,
    RowSparseGrad,
    adam_step,
    bce_loss,
    fit_params,
    sigmoid,
)
from .transport import Channel, MsgType

# Sub-stream ids for seed derivation; every random draw in a run comes from
# default_rng([seed, stream, ...]) with one of these streams.
STREAM_INIT_BOTTOM_A = 21
STREAM_INIT_BOTTOM_B = 22
STREAM_INIT_TOP = 23
STREAM_INIT_LOCAL_A = 24
STREAM_INIT_MPD_TOP = 26
STREAM_SHUFFLE = 31
STREAM_SPLIT = 32
STREAM_DERANGE = 33

# Stage tags keep shuffle streams of different pipeline stages apart. The
# local stage is shared by baseline training and distillation on purpose:
# with alpha = 1 the two must replay the identical trajectory.
STAGE_IDS = {"fed": 1, "local": 2, "mpd": 3, "soft": 4}


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def split_key(seed: int) -> list[int]:
    return [seed, STREAM_SPLIT]


def shuffle_key(seed: int, stage: str, epoch: int) -> list[int]:
    return [seed, STREAM_SHUFFLE, STAGE_IDS[stage], epoch]


def schema_pair_hash(schema_a: PartySchema, schema_b: PartySchema) -> str:
    text = schema_a.canonical_text() + schema_b.canonical_text()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def copy_params(params: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


def subset_rows(n: int, subset: str, seed: int) -> np.ndarray:
    """The rows of an n-row segment that a control frame's subset names:
    "all" of them, or the "train" or "val" side of the seed's split."""
    if subset == "all":
        return np.arange(n)
    if subset not in ("train", "val"):
        raise ValidationError(f"unknown subset '{subset}'")
    train_idx, val_idx = validation_split(n, split_key(seed))
    return train_idx if subset == "train" else val_idx


@dataclass
class TrainSettings:
    """Hyperparameters of one training stage."""

    lr: float = 1e-2
    l2: float = 1e-4
    batch_size: int = 512
    epochs: int = 30
    patience: int | None = 3
    seed: int = 0
    eval_batch_size: int = 8192
    stage: str = "fed"

    def adam(self) -> AdamState:
        return AdamState(lr=self.lr, l2=self.l2)


# ---------------------------------------------------------------------------
# Model containers
# ---------------------------------------------------------------------------


@dataclass
class _EmbedGroup:
    """The categorical fields of one embed dim. Their tables are row ranges
    of one block, in field order, starting at `offsets` (whose last entry
    is the block's length)."""

    block: EmbeddingTable
    dim: int
    names: tuple[str, ...]
    cat_cols: slice | np.ndarray  # the fields' columns of FeatureBlock.cat
    x_cols: slice | np.ndarray  # their columns of the bottom's input
    buckets: np.ndarray  # (k,)
    offsets: np.ndarray  # (k + 1,)


def _columns(cols: list[int]) -> slice | np.ndarray:
    """The columns as a slice when they are one run, else as an index array."""
    if cols and cols == list(range(cols[0], cols[-1] + 1)):
        return slice(cols[0], cols[-1] + 1)
    return np.array(cols, dtype=np.intp)


class BottomModel:
    """Per-party feature encoder: hashed embeddings feeding a dense stack.

    The categorical tables of each embed dim are row ranges of one block
    (`_EmbedGroup`), so a batch costs one lookup and one gradient per embed
    dim, not one per field. `embeddings[name].table` is that field's view
    of its block; parameter names, checkpoints and values are those of
    separate tables. set_params copies into the views; a value of another
    dtype (the float64 shadow of `tests/oracles.grad_check`) first lays its
    group out again in that dtype, as `Mlp.set_params` replaces an array.
    """

    def __init__(self, schema: PartySchema, embeddings: dict[str, EmbeddingTable], mlp: Mlp):
        self.schema = schema
        self.embeddings = embeddings
        self.mlp = mlp
        by_dim: dict[int, list] = {}
        num_cols = []
        col = cat_j = 0
        for f in schema.fields:
            if f.kind == "categorical":
                by_dim.setdefault(f.embed_dim, []).append((f.name, cat_j, col))
                col += f.embed_dim
                cat_j += 1
            else:
                num_cols.append(col)
                col += 1
        self._width = col
        self._num_cols = _columns(num_cols)
        self._n_num = len(num_cols)
        self._groups = []
        for dim, members in by_dim.items():
            names = tuple(name for name, _, _ in members)
            buckets = np.array([embeddings[name].buckets for name in names])
            group = _EmbedGroup(
                block=EmbeddingTable(np.concatenate([embeddings[n].table for n in names])),
                dim=dim,
                names=names,
                cat_cols=_columns([j for _, j, _ in members]),
                x_cols=_columns([c + d for _, _, c in members for d in range(dim)]),
                buckets=buckets,
                offsets=np.concatenate(([0], np.cumsum(buckets))),
            )
            self._bind(group)
            self._groups.append(group)

    def _bind(self, group: _EmbedGroup) -> None:
        for name, lo, hi in zip(group.names, group.offsets, group.offsets[1:]):
            self.embeddings[name].table = group.block.table[lo:hi]

    @classmethod
    def create(cls, schema: PartySchema, widths, rng: np.random.Generator) -> "BottomModel":
        embeddings = {
            f.name: EmbeddingTable.create(f.buckets, f.embed_dim, rng)
            for f in schema.cat_fields
        }
        return cls(schema, embeddings, Mlp.create(schema.post_embed_dim, widths, rng))

    @property
    def out_dim(self) -> int:
        return self.mlp.out_dim

    def _block_rows(self, block: FeatureBlock) -> list[np.ndarray]:
        """Each group's block rows for the batch, raveled as (row, field)
        pairs. Each field's indices are checked against its own table, so
        an out-of-range index cannot read a neighbouring table's row."""
        out = []
        for group in self._groups:
            idx = block.cat[:, group.cat_cols]
            if idx.size:
                bad = (idx.min(axis=0) < 0) | (idx.max(axis=0) >= group.buckets)
                if bad.any():
                    j = int(np.argmax(bad))
                    raise ValidationError(
                        f"field '{group.names[j]}': bucket index out of range "
                        f"[0, {group.buckets[j]}): min={idx[:, j].min()} max={idx[:, j].max()}"
                    )
            out.append((idx + group.offsets[:-1]).ravel())
        return out

    def forward(self, block: FeatureBlock):
        rows = self._block_rows(block)
        n = block.n_rows
        looked = [group.block.lookup(r).reshape(n, group.dim * len(group.names))
                  for group, r in zip(self._groups, rows)]
        dtypes = [x.dtype for x in looked] + ([block.num.dtype] if self._n_num else [])
        x0 = np.empty((n, self._width), dtype=np.result_type(*dtypes))
        for group, x in zip(self._groups, looked):
            x0[:, group.x_cols] = x
        if self._n_num:
            x0[:, self._num_cols] = block.num[:, : self._n_num]
        h, caches = self.mlp.forward(x0)
        return h, (rows, caches)

    def backward(self, cache, grad_h: np.ndarray) -> dict[str, np.ndarray]:
        if cache is None:
            raise StateError("backward called with no recorded forward")
        rows, caches = cache
        grad_x0, mlp_grads = self.mlp.backward(caches, grad_h)
        grads = {f"mlp.{k}": v for k, v in mlp_grads.items()}
        for group, r in zip(self._groups, rows):
            g = group.block.grad(r, grad_x0[:, group.x_cols].reshape(-1, group.dim))
            offsets = group.offsets.tolist()
            cuts = np.searchsorted(g.rows, offsets).tolist()
            for j, name in enumerate(group.names):
                lo, hi = cuts[j], cuts[j + 1]
                grads[f"emb.{name}"] = RowSparseGrad(
                    g.rows[lo:hi] - offsets[j], g.values[lo:hi], self.embeddings[name].table.shape
                )
        return grads

    def params(self) -> dict[str, np.ndarray]:
        out = {f"emb.{name}": table.table for name, table in self.embeddings.items()}
        out.update({f"mlp.{k}": v for k, v in self.mlp.params().items()})
        return out

    def set_params(self, mapping: Mapping[str, np.ndarray]) -> None:
        values = fit_params(mapping, self.params())
        for group in self._groups:
            dtype = np.result_type(*(values[f"emb.{name}"] for name in group.names))
            if dtype != group.block.table.dtype:
                group.block.table = group.block.table.astype(dtype)
                self._bind(group)
        for name, table in self.embeddings.items():
            np.copyto(table.table, values[f"emb.{name}"])
        self.mlp.set_params(_strip(values, "mlp"))


class TopModel:
    """Active-party head: dense stack ending in a single logit."""

    def __init__(self, mlp: Mlp):
        if mlp.out_dim != 1:
            raise ShapeError("top model must end in a single logit")
        self.mlp = mlp

    @classmethod
    def create(cls, n_in: int, hidden_widths, rng: np.random.Generator) -> "TopModel":
        widths = [*hidden_widths, 1]
        return cls(Mlp.create(n_in, widths, rng, final_activation="identity"))

    @property
    def n_in(self) -> int:
        return self.mlp.n_in

    def forward(self, h: np.ndarray):
        out, caches = self.mlp.forward(h)
        return out[:, 0], caches

    def backward(self, caches, grad_logits: np.ndarray):
        grad_h, grads = self.mlp.backward(caches, np.asarray(grad_logits).reshape(-1, 1))
        return grad_h, grads

    def params(self) -> dict[str, np.ndarray]:
        return self.mlp.params()

    def set_params(self, mapping: Mapping[str, np.ndarray]) -> None:
        self.mlp.set_params(mapping)


def _prefix(params: Mapping[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {f"{prefix}.{k}": v for k, v in params.items()}


def _strip(mapping: Mapping[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    start = prefix + "."
    return {k[len(start):]: v for k, v in mapping.items() if k.startswith(start)}


class Composite:
    """A holder of named parts, each with params() and set_params(), that
    its parts() lists as {prefix: part} in order. params() names each part's
    live tensors `<prefix>.<name>`. set_params copies in the parts a mapping
    names, each in full, and checks all of them before it loads any.
    """

    def params(self) -> dict[str, np.ndarray]:
        return {f"{prefix}.{name}": value
                for prefix, part in self.parts().items()
                for name, value in part.params().items()}

    def set_params(self, mapping: Mapping[str, np.ndarray]) -> None:
        named = {key.split(".", 1)[0] for key in mapping}
        fit_params(mapping, {k: v for k, v in self.params().items()
                             if k.split(".", 1)[0] in named})
        for prefix, part in self.parts().items():
            if prefix in named:
                part.set_params(_strip(mapping, prefix))


class LocalModel(Composite):
    """Single-party model: one bottom plus a private top."""

    def __init__(self, bottom: BottomModel, top: TopModel):
        if top.n_in != bottom.out_dim:
            raise ShapeError(
                f"top expects {top.n_in} inputs, bottom produces {bottom.out_dim}"
            )
        self.bottom = bottom
        self.top = top

    @classmethod
    def create(cls, schema, bottom_widths, top_widths, rng) -> "LocalModel":
        bottom = BottomModel.create(schema, bottom_widths, rng)
        top = TopModel.create(bottom.out_dim, top_widths, rng)
        return cls(bottom, top)

    def forward(self, block: FeatureBlock):
        h, cache_b = self.bottom.forward(block)
        logits, cache_t = self.top.forward(h)
        return logits, (cache_b, cache_t)

    def backward(self, cache, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
        cache_b, cache_t = cache
        grad_h, grads_top = self.top.backward(cache_t, grad_logits)
        grads_bottom = self.bottom.backward(cache_b, grad_h)
        return {**_prefix(grads_top, "top"), **_prefix(grads_bottom, "bottom")}

    def predict_logits(self, block: FeatureBlock) -> np.ndarray:
        logits, _ = self.forward(block)
        return logits

    def parts(self) -> dict:
        return {"bottom": self.bottom, "top": self.top}


class SplitModel(Composite):
    """The federated triple (f_A, f_B, g_A), resident in one process.

    The protocol path lives in the party runtimes; this container exists for
    monolithic evaluation (oracles, diagnostics, teacher snapshots)."""

    def __init__(self, bottom_a: BottomModel, bottom_b: BottomModel, top: TopModel):
        if top.n_in != bottom_a.out_dim + bottom_b.out_dim:
            raise ShapeError(
                f"top expects {top.n_in} inputs, bottoms produce "
                f"{bottom_a.out_dim}+{bottom_b.out_dim}"
            )
        self.bottom_a = bottom_a
        self.bottom_b = bottom_b
        self.top = top

    @classmethod
    def create(cls, schema_a, schema_b, bottom_widths_a, bottom_widths_b, top_widths, seed):
        bottom_a = BottomModel.create(schema_a, bottom_widths_a, rng_for(seed, STREAM_INIT_BOTTOM_A))
        bottom_b = BottomModel.create(schema_b, bottom_widths_b, rng_for(seed, STREAM_INIT_BOTTOM_B))
        top = TopModel.create(
            bottom_a.out_dim + bottom_b.out_dim, top_widths, rng_for(seed, STREAM_INIT_TOP)
        )
        return cls(bottom_a, bottom_b, top)

    def predict_logits(self, block_a: FeatureBlock, block_b: FeatureBlock) -> np.ndarray:
        h_a, _ = self.bottom_a.forward(block_a)
        h_b, _ = self.bottom_b.forward(block_b)
        logits, _ = self.top.forward(np.hstack([h_a, h_b]))
        return logits

    def parts(self) -> dict:
        return {"a": self.bottom_a, "b": self.bottom_b, "top": self.top}


# ---------------------------------------------------------------------------
# Party runtimes
# ---------------------------------------------------------------------------


class ActiveParty(Composite):
    """Label-holding party: bottom f_A, top g_A, and the training driver."""

    def __init__(self, channel: Channel, bottom: BottomModel, top: TopModel,
                 dataset: PartitionedDataset | None = None):
        self.channel = channel
        self.bottom = bottom
        self.top = top
        self.dataset = dataset
        self.optimizer: AdamState | None = None
        self._ctx = None
        self._cache_a = None

    # -- single-step protocol operations ------------------------------------
    def recv_hidden(self, block_a: FeatureBlock) -> tuple[np.ndarray, np.ndarray]:
        """Consume one Activation and encode this party's rows: (h_A, h_B).

        The bottom cache is kept for the `send_gradient` that follows."""
        msg = self.channel.expect(MsgType.ACTIVATION)
        h_b = msg.payload
        if h_b.shape[0] != block_a.n_rows:
            raise ProtocolError(
                f"activation carries {h_b.shape[0]} rows for a {block_a.n_rows}-row batch"
            )
        h_a, cache_a = self.bottom.forward(block_a)
        if h_a.shape[1] + h_b.shape[1] != self.top.n_in:
            raise ProtocolError(
                f"width mismatch: top expects {self.top.n_in}, "
                f"got {h_a.shape[1]}+{h_b.shape[1]}"
            )
        self._cache_a = cache_a
        return h_a, h_b

    def send_gradient(self, grad_h_a: np.ndarray, grad_h_b: np.ndarray) -> dict[str, np.ndarray]:
        """Send the h_B gradient and return the bottom's parameter gradients."""
        if self._cache_a is None:
            raise StateError("send_gradient without a received activation")
        self.channel.send_new(
            MsgType.GRADIENT, payload=np.ascontiguousarray(grad_h_b, dtype=F32)
        )
        grads = self.bottom.backward(self._cache_a, grad_h_a)
        self._cache_a = None
        return grads

    def forward_step(self, block_a: FeatureBlock) -> np.ndarray:
        """Consume one Activation and produce the fused logits."""
        h_a, h_b = self.recv_hidden(block_a)
        logits, cache_t = self.top.forward(np.hstack([h_a, h_b]))
        self._ctx = (cache_t, h_a.shape[1])
        return logits

    def backward_step(self, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
        """Send the h_B gradient, return this party's parameter gradients."""
        if self._ctx is None:
            raise StateError("backward_step without a completed forward_step")
        cache_t, d_a = self._ctx
        self._ctx = None
        grad_fused, grads_top = self.top.backward(cache_t, grad_logits)
        grads_bottom = self.send_gradient(grad_fused[:, :d_a], grad_fused[:, d_a:])
        return {**_prefix(grads_top, "top"), **_prefix(grads_bottom, "bottom")}

    def eval_step(self, block_a: FeatureBlock) -> np.ndarray:
        """Consume one EvalActivation; no gradient follows."""
        msg = self.channel.expect(MsgType.EVAL_ACTIVATION)
        h_b = msg.payload
        if h_b.shape[0] != block_a.n_rows:
            raise ProtocolError("eval activation row count mismatch")
        h_a, _ = self.bottom.forward(block_a)
        logits, _ = self.top.forward(np.hstack([h_a, h_b]))
        return logits

    def apply_update(self, grads: Mapping[str, np.ndarray]) -> None:
        if self.optimizer is None:
            raise StateError("no optimizer configured (send a phase first)")
        adam_step(self.optimizer, self.params(), grads)

    # -- phase / snapshot plumbing -------------------------------------------
    def start_phase(self, settings: TrainSettings, name: str) -> None:
        self.optimizer = settings.adam()
        self.channel.send_new(
            MsgType.CONTROL,
            meta={
                "cmd": "phase",
                "name": name,
                "lr": repr(settings.lr),
                "l2": repr(settings.l2),
            },
        )

    def parts(self) -> dict:
        return {"bottom": self.bottom, "top": self.top}


def save_passive_checkpoint(save_dir, tag: str, params: Mapping[str, np.ndarray],
                            schema_hash: str) -> None:
    """Write party B's bottom parameters as `party_b_<tag>.ckpt` in save_dir."""
    ckpt.save_checkpoint(f"{save_dir}/party_b_{tag}.ckpt", _prefix(params, "b"), schema_hash,
                         meta={"role": "passive", "tag": tag})


def _seed(text: str) -> int:
    """A seed for default_rng, which needs it non-negative."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


def _seed_key(text: str) -> list[int]:
    return [_seed(x) for x in text.split(",")]


def _tag(text: str) -> str:
    """A checkpoint tag, which names a file inside the save dir and no other."""
    if not re.fullmatch(r"(?!\.)[A-Za-z0-9_.-]+", text):
        raise ValueError("a tag is [A-Za-z0-9_.-]+ and does not start with '.'")
    return text


def _field(meta: dict, name: str, parse: Callable, default: str | None = None):
    """parse(meta[name]); a control frame whose field is missing or does not
    parse is a ProtocolError naming its command and the field."""
    raw = meta.get(name, default)
    if raw is None:
        raise ProtocolError(f"control '{meta.get('cmd')}' has no field '{name}'")
    try:
        return parse(raw)
    except (KeyError, ValueError) as exc:
        raise ProtocolError(
            f"control '{meta.get('cmd')}': field '{name}' = {raw!r} is invalid ({exc})"
        ) from None


class PassiveParty:
    """Feature-only party: bottom f_B and a message-driven serve loop.

    Holds no labels and no top model; the only state it mutates in response
    to the active party is its own bottom and optimizer.
    """

    def __init__(self, channel: Channel, bottom: BottomModel,
                 blocks: dict[str, FeatureBlock], *, save_dir=None):
        self.channel = channel
        self.bottom = bottom
        self.blocks = blocks
        self.save_dir = save_dir
        self.optimizer: AdamState | None = None
        self._ctx = None
        self._sent_shape = None
        self._best: dict[str, np.ndarray] | None = None
        self.schema_hash = ""

    # -- single-step protocol operations ------------------------------------
    def send_activation(self, block_b: FeatureBlock, *, for_eval: bool = False) -> np.ndarray:
        h, cache = self.bottom.forward(block_b)
        payload = np.ascontiguousarray(h, dtype=F32)
        self.channel.send_new(
            MsgType.EVAL_ACTIVATION if for_eval else MsgType.ACTIVATION, payload=payload
        )
        if not for_eval:
            self._ctx = cache
            self._sent_shape = payload.shape
        return h

    def recv_gradient(self) -> dict[str, np.ndarray]:
        if self._ctx is None:
            raise StateError("recv_gradient without a pending activation")
        msg = self.channel.expect(MsgType.GRADIENT)
        if msg.payload.shape != self._sent_shape:
            raise ProtocolError(
                f"gradient shape {msg.payload.shape} != activation shape {self._sent_shape}"
            )
        grads = self.bottom.backward(self._ctx, msg.payload)
        self._ctx = None
        return grads

    def apply_update(self, grads: Mapping[str, np.ndarray]) -> None:
        if self.optimizer is None:
            raise StateError("no optimizer configured (phase not started)")
        adam_step(self.optimizer, self.bottom.params(), grads)

    # -- command handlers ----------------------------------------------------
    def _rows_for(self, meta: dict) -> tuple[FeatureBlock, np.ndarray]:
        block = _field(meta, "segment", self.blocks.__getitem__)
        seed = _field(meta, "split_seed", _seed)
        return block, _field(meta, "subset", lambda s: subset_rows(block.n_rows, s, seed), "all")

    def _handle_epoch(self, meta: dict) -> None:
        block, rows = self._rows_for(meta)
        skey = _field(meta, "shuffle", _seed_key)
        for pos in batch_indices(
            len(rows),
            _field(meta, "batch_size", int),
            skey,
            drop_short=meta.get("drop_short", "0") == "1",
        ):
            self.send_activation(block.take(rows[pos]))
            self.apply_update(self.recv_gradient())

    def _handle_eval(self, meta: dict) -> None:
        block, rows = self._rows_for(meta)
        for pos in batch_indices(
            len(rows), _field(meta, "batch_size", int), None, shuffle=False
        ):
            self.send_activation(block.take(rows[pos]), for_eval=True)

    def _handle_phase(self, meta: dict) -> None:
        self.optimizer = AdamState(lr=_field(meta, "lr", float), l2=_field(meta, "l2", float))

    def _handle_reinit(self, meta: dict) -> None:
        widths = [layer.n_out for layer in self.bottom.mlp.layers]
        rng = np.random.default_rng(_field(meta, "rng_key", _seed_key))
        self.bottom = BottomModel.create(self.bottom.schema, widths, rng)
        self._best = None

    def serve(self) -> None:
        """Process commands until Bye. Raises on protocol violations."""
        while True:
            msg = self.channel.recv()
            if msg.msg_type == MsgType.BYE:
                return
            if msg.msg_type != MsgType.CONTROL:
                raise ProtocolError(f"unexpected {msg.msg_type.name} outside a batch")
            cmd = msg.meta.get("cmd", "")
            if cmd == "phase":
                self._handle_phase(msg.meta)
            elif cmd == "epoch":
                self._handle_epoch(msg.meta)
            elif cmd == "eval":
                self._handle_eval(msg.meta)
            elif cmd == "epoch-end":
                if msg.meta.get("best") == "1":
                    self._best = copy_params(self.bottom.params())
            elif cmd == "restore-best":
                if self._best is not None:
                    self.bottom.set_params(self._best)
            elif cmd == "reinit":
                self._handle_reinit(msg.meta)
            elif cmd == "save":
                tag = _field(msg.meta, "tag", _tag, "final")
                if self.save_dir is not None:
                    save_passive_checkpoint(self.save_dir, tag, self.bottom.params(),
                                            self.schema_hash)
            else:
                raise ProtocolError(f"unknown control command '{cmd}'")


# ---------------------------------------------------------------------------
# Active-side drivers
# ---------------------------------------------------------------------------


def _segment_of(dataset: PartitionedDataset | None, name: str):
    if dataset is None:
        raise ValidationError("this party was built without a dataset")
    seg = getattr(dataset, name)
    if seg is None:
        raise ValidationError(f"dataset has no '{name}' segment")
    return seg


def federated_eval_probs(
    active: ActiveParty,
    segment: str,
    *,
    subset: str = "all",
    batch_size: int = 8192,
    seed: int = 0,
) -> np.ndarray:
    """Federated inference over a segment: one EvalActivation per batch."""
    seg = _segment_of(active.dataset, segment)
    rows = subset_rows(seg.n_rows, subset, seed)
    active.channel.send_new(
        MsgType.CONTROL,
        meta={
            "cmd": "eval",
            "segment": segment,
            "subset": subset,
            "split_seed": str(seed),
            "batch_size": str(batch_size),
        },
    )
    chunks = []
    for pos in batch_indices(len(rows), batch_size, None, shuffle=False):
        logits = active.eval_step(seg.a.take(rows[pos]))
        chunks.append(sigmoid(logits))
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=F32)


def _epoch_loop(
    settings: TrainSettings,
    train_rows: np.ndarray,
    step: Callable,
    *,
    channel: Channel | None = None,
    segment: str = "labeled",
    subset: str = "all",
    drop_short: bool = False,
    validate: Callable | None = None,
    snapshot: Callable | None = None,
    restore: Callable | None = None,
    end_epoch: Callable | None = None,
) -> MetricHistory:
    """The epoch loop of every trainer.

    Each epoch walks `train_rows` in the order of the stage's shuffle key;
    a federated loop (one given the active party's `channel`) first tells
    the passive party which segment and subset to walk. Per batch it calls
    step(epoch, batch_no, rows, diverged), which returns the batch loss, or
    None for a diverged batch that applied no update. After the batches come
    validate(diverged) -> AUC or None, a snapshot() of a new best (validation
    AUC above the best so far by more than IMPROVEMENT_EPS), end_epoch(is_best)
    -> extra record fields, and one EpochRecord with the epoch's frame and byte
    deltas. The loop stops after a diverged epoch, or early after
    max(patience, 1) validated epochs in a row with no new best (patience
    None never stops early), and finally restore()s the best snapshot.
    """
    history = MetricHistory()
    best_auc = -np.inf
    best = None
    stale = 0
    for epoch in range(1, settings.epochs + 1):
        t0 = time.perf_counter()
        frames0, bytes0 = channel.counters.snapshot() if channel is not None else (0, 0)
        skey = shuffle_key(settings.seed, settings.stage, epoch)
        if channel is not None:
            channel.send_new(
                MsgType.CONTROL,
                meta={
                    "cmd": "epoch",
                    "segment": segment,
                    "subset": subset,
                    "split_seed": str(settings.seed),
                    "shuffle": ",".join(str(k) for k in skey),
                    "batch_size": str(settings.batch_size),
                    "drop_short": "1" if drop_short else "0",
                },
            )
        loss_sum = 0.0
        n_seen = 0
        diverged = False
        batches = batch_indices(len(train_rows), settings.batch_size, skey, drop_short=drop_short)
        for batch_no, pos in enumerate(batches):
            rows = train_rows[pos]
            loss = step(epoch, batch_no, rows, diverged)
            if loss is None:
                diverged = True
                continue
            loss_sum += loss * len(rows)
            n_seen += len(rows)

        val_auc = validate(diverged) if validate is not None else None
        is_best = val_auc is not None and val_auc > best_auc + IMPROVEMENT_EPS
        if is_best:
            best_auc = val_auc
            best = snapshot()
        extra = (end_epoch(is_best) if end_epoch is not None else None) or {}
        if diverged:
            extra["diverged"] = True
        frames1, bytes1 = channel.counters.snapshot() if channel is not None else (0, 0)
        history.append(
            EpochRecord(
                epoch=epoch,
                train_loss=loss_sum / max(n_seen, 1),
                val_auc=val_auc,
                wall_time=time.perf_counter() - t0,
                messages_sent=frames1 - frames0,
                bytes_sent=bytes1 - bytes0,
                extra=extra,
            )
        )
        if val_auc is not None:
            stale = 0 if is_best else stale + 1
        if diverged or (settings.patience is not None and stale >= max(settings.patience, 1)):
            break

    if best is not None:
        restore(best)
    return history


def train_supervised(
    active: ActiveParty,
    settings: TrainSettings,
    *,
    train_segment: str = "labeled",
    train_targets: np.ndarray | None = None,
    phase_name: str = "supervised",
) -> MetricHistory:
    """Federated supervised training with per-epoch validation AUC and early
    stopping; both parties end up holding the best-validation checkpoint.

    train_targets overrides the targets for the training segment (soft
    labels for self-training); validation always scores against the labeled
    segment's hard labels. Once a batch's loss is non-finite, it and every
    later batch of the epoch send a zero gradient and apply no update, so
    the passive party stays in lockstep; the run then ends after the epoch.
    """
    labeled = _segment_of(active.dataset, "labeled")
    seg = _segment_of(active.dataset, train_segment)
    targets = seg.y if train_targets is None else train_targets
    if targets is None:
        raise ValidationError(f"segment '{train_segment}' has no labels")
    if len(targets) != seg.n_rows:
        raise ValidationError("train_targets length does not match the segment")

    train_rows, val_rows = validation_split(labeled.n_rows, split_key(settings.seed))
    subset = "train"
    if train_segment != "labeled":
        train_rows = np.arange(seg.n_rows)
        subset = "all"
    use_val = len(val_rows) > 0 and labeled.y is not None
    active.start_phase(settings, phase_name)

    def step(epoch, batch_no, rows, diverged):
        logits = active.forward_step(seg.a.take(rows))
        loss, grad = bce_loss(logits, targets[rows])
        if diverged or not np.isfinite(loss):
            active.backward_step(np.zeros_like(grad))
            return None
        active.apply_update(active.backward_step(grad))
        return loss

    def validate(diverged):
        if diverged:
            return None
        probs = federated_eval_probs(
            active, "labeled", subset="val",
            batch_size=settings.eval_batch_size, seed=settings.seed,
        )
        return auc(probs, labeled.y[val_rows]).auc

    def end_epoch(is_best):
        active.channel.send_new(
            MsgType.CONTROL, meta={"cmd": "epoch-end", "best": "1" if is_best else "0"}
        )

    def restore(best):
        active.set_params(best)
        active.channel.send_new(MsgType.CONTROL, meta={"cmd": "restore-best"})

    return _epoch_loop(
        settings, train_rows, step,
        channel=active.channel, segment=train_segment, subset=subset,
        validate=validate if use_val else None,
        snapshot=lambda: copy_params(active.params()), restore=restore,
        end_epoch=end_epoch,
    )


def local_train(
    model: LocalModel,
    block: FeatureBlock,
    y: np.ndarray,
    settings: TrainSettings,
    *,
    loss_fn: Callable | None = None,
) -> MetricHistory:
    """Single-party training, shared by the local baselines and by
    distillation (which plugs in its blended loss via loss_fn).

    loss_fn(logits, rows) must return (loss, dloss/dlogits); the default is
    binary cross-entropy against y. Validation is a deterministic 1/20
    split of the rows. Early stopping and best-checkpoint restoration match
    the federated trainer.
    A batch with a non-finite loss is skipped, the rest of its epoch still
    steps and validates, and the run ends after that epoch.
    """
    if len(y) != block.n_rows:
        raise ValidationError(f"{len(y)} labels for {block.n_rows} rows")
    if loss_fn is None:
        loss_fn = lambda logits, rows: bce_loss(logits, y[rows])  # noqa: E731

    train_rows, val_rows = validation_split(block.n_rows, split_key(settings.seed))
    if len(val_rows):
        val_block, val_y = block.take(val_rows), y[val_rows]
    optimizer = settings.adam()

    def step(epoch, batch_no, rows, diverged):
        logits, cache = model.forward(block.take(rows))
        loss, grad = loss_fn(logits, rows)
        if not np.isfinite(loss):
            return None
        adam_step(optimizer, model.params(), model.backward(cache, grad))
        return loss

    def validate(diverged):
        return auc(sigmoid(model.predict_logits(val_block)), val_y).auc

    return _epoch_loop(
        settings, train_rows, step,
        validate=validate if len(val_rows) else None,
        snapshot=lambda: copy_params(model.params()), restore=model.set_params,
    )
