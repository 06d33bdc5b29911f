"""End-to-end experiment pipelines over the full method matrix.

Seven methods cover the two serving modes:

    federated serving          local serving (party A only)
    -----------------          ----------------------------
    vfl            supervised split training on labeled rows
    vfl-st         + self-training on unlabeled rows via teacher soft labels
    vfl-mpd        + matched-pair pretraining on unlabeled rows
    baseline-local plain single-party model
    local-sd       student distilled from the vfl teacher
    local-mpd      single-party model initialized from the pretrained bottom
    local-ssd      pretrained teacher + distillation + pretrained student init

A run executes one method's stage pipeline inside party sessions
(in-process thread or a TCP peer started with `serve_party_b`), evaluates
test AUC, and reports the absolute improvement over a baseline-local run
with the same data and seed.

Each method is one row of PIPELINES, the list of its stages in order; `run`
walks that row. Each stage declares the config fields its function reads on
that row, and `run` looks every stage up in a RunContext under one key rule
(`stage_key`): the function, the data, the seed, the declared fields and the
key of the row's previous stage. A key thus chains every input of a stage,
so a method matrix shares its pretraining and teacher stages across methods,
and a grid shares the stages that no gridded field reaches. A stage marked
local trains party A alone and uses the caller's RunContext under either
transport. Over TCP the federated stages run in the peer's one session,
whose passive state flows from stage to stage, so they cache only within
the run.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
import math
import queue
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields as dc_fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import mpd as mpd_mod
from .checkpoint import save_checkpoint
from .data import PartitionedDataset, SyntheticSpec, load_csv, load_schema, synth_federated
from .distill import distill, teacher_predict
from .errors import TransportError, TransportTimeout, ValidationError
from .metrics import auc
from .numeric import sigmoid
from .splitnn import (
    STREAM_INIT_BOTTOM_A,
    STREAM_INIT_BOTTOM_B,
    STREAM_INIT_LOCAL_A,
    STREAM_INIT_MPD_TOP,
    STREAM_INIT_TOP,
    ActiveParty,
    BottomModel,
    Composite,
    LocalModel,
    PassiveParty,
    TopModel,
    TrainSettings,
    _strip,
    copy_params,
    federated_eval_probs,
    local_train,
    rng_for,
    save_passive_checkpoint,
    schema_pair_hash,
    train_supervised,
)
from .transport import MsgType, handshake, inproc_pair, tcp_accept, tcp_connect, tcp_listen


def _keyed(section: str, default, key: str | None = None):
    """A config field stored in `section` of the INI file under `key` (by
    default its own name) and read back as the type of `default`."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass
class ExperimentConfig:
    """Full declarative description of one run."""

    method: str = _keyed("run", "vfl")
    seed: int = _keyed("run", 0)

    # data source: synthetic spec, or per-segment CSV path pairs; the [data]
    # section lists the spec's fields or the csv_* paths after these two keys
    data_kind: str = _keyed("data", "synthetic", "kind")
    label_column: str = _keyed("data", "label")
    # desk-scale default: the paper's 5M/640K segments shrunk ~100x, with
    # hashed-categorical fields so pretraining has embedding tables to earn
    # its keep on
    synth: SyntheticSpec = field(
        default_factory=lambda: SyntheticSpec(
            n_labeled=10_000,
            n_unlabeled=50_000,
            n_test=10_000,
            d_a=8,
            d_b=8,
            rule="xor",
            positive_rate=0.5,
            lift=0.9,
            leak=0.35,
            shared_dim=0,
            private_dim=1,
            noise=0.4,
            buckets=24,
            embed_dim=8,
        )
    )
    csv_paths: dict = field(default_factory=dict)

    # architecture
    bottom_a: tuple = _keyed("arch", (64, 64))
    bottom_b: tuple = _keyed("arch", (64, 64))
    top: tuple = _keyed("arch", (64, 64))

    # hyperparameters: main and fine-tune learning rates, distillation
    # weight, L2 penalty, negatives per positive, batch sizes for the
    # pretraining and downstream stages
    lr: float = _keyed("hyper", 1e-2)
    finetune_lr: float = _keyed("hyper", 1e-3)
    alpha: float = _keyed("hyper", 0.5)
    l2: float = _keyed("hyper", 1e-4)
    k: int = _keyed("hyper", 1)
    batch_pretrain: int = _keyed("hyper", 10_000)
    batch_train: int = _keyed("hyper", 5_000)
    eval_batch: int = _keyed("hyper", 16_384)
    epochs: int = _keyed("hyper", 40)
    pretrain_epochs: int = _keyed("hyper", 15)
    patience: int = _keyed("hyper", 3)

    # execution
    transport: str = _keyed("exec", "inproc")  # inproc | tcp
    tcp_host: str = _keyed("exec", "127.0.0.1")
    tcp_port: int = _keyed("exec", 9991)
    out_dir: str | None = _keyed("exec", None)
    recv_timeout: float = _keyed("exec", 30.0)

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValidationError(f"unknown method '{self.method}'")
        if self.transport not in ("inproc", "tcp"):
            raise ValidationError(f"unknown transport '{self.transport}'")
        if self.method in _NEEDS_ALPHA and not (0.0 <= self.alpha <= 1.0):
            raise ValidationError("distillation methods need alpha in [0, 1]")
        if self.data_kind not in ("synthetic", "csv"):
            raise ValidationError(f"unknown data kind '{self.data_kind}'")
        for name, ok, rule in (
            ("seed", self.seed >= 0, "at least 0"),
            ("lr", math.isfinite(self.lr) and self.lr > 0.0, "a finite positive number"),
            ("finetune_lr", math.isfinite(self.finetune_lr) and self.finetune_lr > 0.0,
             "a finite positive number"),
            ("l2", math.isfinite(self.l2) and self.l2 >= 0.0, "a finite non-negative number"),
            ("k", self.k >= 1, "at least 1"),
            ("epochs", self.epochs >= 1, "at least 1"),
            ("pretrain_epochs", self.pretrain_epochs >= 1, "at least 1"),
            ("patience", self.patience >= 0, "at least 0"),
            ("batch_pretrain", self.batch_pretrain >= 2, "at least 2"),
            ("batch_train", self.batch_train >= 2, "at least 2"),
            ("eval_batch", self.eval_batch >= 2, "at least 2"),
            ("bottom_a", min(self.bottom_a, default=0) >= 1, "one or more widths of at least 1"),
            ("bottom_b", min(self.bottom_b, default=0) >= 1, "one or more widths of at least 1"),
            ("top", min(self.top, default=1) >= 1, "empty or widths of at least 1"),
            ("recv_timeout", math.isfinite(self.recv_timeout) and self.recv_timeout > 0.0,
             "a finite positive number"),
            ("tcp_port", 1 <= self.tcp_port <= 65535, "in 1..65535"),
        ):
            if not ok:
                raise ValidationError(
                    f"{CONFIG_KEYS[name]} must be {rule}, got {getattr(self, name)}"
                )
        if self.data_kind == "csv":
            _validate_csv_paths(self.csv_paths)
        if self.method in _NEEDS_UNLABELED:
            if self.data_kind == "synthetic" and self.synth.n_unlabeled < 2:
                raise ValidationError(f"method '{self.method}' needs an unlabeled segment")
            if self.data_kind == "csv" and "unlabeled_a" not in self.csv_paths:
                raise ValidationError(f"method '{self.method}' needs unlabeled CSV paths")

    # -- serialization -------------------------------------------------------
    def to_sections(self) -> dict:
        sections: dict = {}
        for name, flat_key in CONFIG_KEYS.items():
            section, key = flat_key.split(".")
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            sections.setdefault(section, {})[key] = "" if value is None else value
        sections["data"].update(
            {f"csv_{k}": v for k, v in self.csv_paths.items()} if self.data_kind == "csv"
            else {f.name: getattr(self.synth, f.name) for f in dc_fields(self.synth)}
        )
        return sections

    def resolved_text(self) -> str:
        parser = configparser.ConfigParser(interpolation=None)
        for section, values in self.to_sections().items():
            parser[section] = {k: str(v) for k, v in values.items()}
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    def config_hash(self) -> str:
        """Hash of the semantic configuration; execution details (transport,
        addresses, output paths) are excluded so runs over different
        transports share an identity."""
        sections = self.to_sections()
        sections.pop("exec")
        canonical = json.dumps(sections, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def data_key(self) -> str:
        canonical = json.dumps(self.to_sections()["data"], sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    def to_file(self, path) -> None:
        Path(path).write_text(self.resolved_text(), encoding="utf-8")

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
            flat = {
                f"{section}.{key}": value
                for section in parser.sections()
                for key, value in parser[section].items()
            }
        except (UnicodeDecodeError, configparser.Error) as exc:
            # configparser's messages span lines; the CLI prints one
            detail = " ".join(str(exc).split())
            raise ValidationError(f"{path}: unreadable config file: {detail}") from None
        flat.update(overrides or {})
        return cls.from_flat(flat)

    @classmethod
    def from_flat(cls, flat: dict) -> "ExperimentConfig":
        """Build a config from "section.key" values, each read as the type of
        its default; an unknown key or an unreadable value is an error.
        Every synthetic-spec key is accepted under either data kind."""
        base = cls()
        names = {flat_key: name for name, flat_key in CONFIG_KEYS.items()}
        spec_names = {f.name for f in dc_fields(SyntheticSpec)}
        kwargs, synth, csv_paths = {}, {}, {}
        for flat_key, raw in flat.items():
            section, _, key = flat_key.partition(".")
            if flat_key in names:
                kwargs[names[flat_key]] = _parse(flat_key, raw, getattr(base, names[flat_key]))
            elif section == "data" and key.startswith("csv_"):
                csv_paths[key[len("csv_"):]] = raw
            elif section == "data" and key in spec_names:
                synth[key] = _parse(flat_key, raw, getattr(base.synth, key))
            else:
                raise ValidationError(f"unknown config key '{flat_key}'")
        return cls(**kwargs, synth=replace(base.synth, **synth), csv_paths=csv_paths)


# "section.key" of each field that the INI file stores as one value
CONFIG_KEYS = {
    f.name: f"{f.metadata['section']}.{f.metadata['key'] or f.name}"
    for f in dc_fields(ExperimentConfig) if f.metadata
}


# the data.csv_* keys come in a/b pairs; the first two pairs are required
_CSV_PAIRS = ("schema", "labeled", "unlabeled", "test")


def _validate_csv_paths(paths: dict) -> None:
    known = {f"{pair}_{side}" for pair in _CSV_PAIRS for side in "ab"}
    for key in paths:
        if key not in known:
            raise ValidationError(f"unknown config key 'data.csv_{key}'")
    for pair in _CSV_PAIRS:
        missing = [f"data.csv_{pair}_{side}" for side in "ab" if f"{pair}_{side}" not in paths]
        if missing and (len(missing) == 1 or pair in _CSV_PAIRS[:2]):
            raise ValidationError(f"data.kind=csv needs {' and '.join(missing)}")


def _parse(flat_key: str, raw, default):
    """raw as the type of default: a tuple holds comma-separated ints, and
    a None default is an optional string."""
    try:
        if isinstance(default, tuple):
            return tuple(int(x) for x in str(raw).split(",") if x != "")
        if default is None:
            return str(raw) or None
        return type(default)(raw)
    except ValueError:
        raise ValidationError(
            f"config key '{flat_key}': '{raw}' is not a valid {type(default).__name__}"
        ) from None


def load_dataset(config: ExperimentConfig) -> PartitionedDataset:
    if config.data_kind == "synthetic":
        return synth_federated(config.synth, seed=config.seed)
    paths = config.csv_paths
    schema_a = load_schema(paths["schema_a"], "A")
    schema_b = load_schema(paths["schema_b"], "B")

    def pair(prefix):
        if f"{prefix}_a" in paths:
            return (paths[f"{prefix}_a"], paths[f"{prefix}_b"])
        return None

    return load_csv(
        paths["labeled_a"],
        paths["labeled_b"],
        schema_a,
        schema_b,
        config.label_column,
        unlabeled=pair("unlabeled"),
        test=pair("test"),
    )


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


class _PassiveWorkers:
    """Reused daemon threads that serve in-process passive parties. A new
    thread per session may start while the last one is still exiting in the
    C library; glibc then gives it a new malloc arena, whose retained heap
    raises the process's peak memory by chance of timing."""

    def __init__(self):
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._idle = 0

    def submit(self, fn) -> threading.Event:
        """Run fn(), which must not raise, on an idle worker or else a new
        one; the event is set once fn has returned."""
        done = threading.Event()
        with self._lock:
            if self._idle:
                self._idle -= 1
            else:
                threading.Thread(target=self._work, daemon=True).start()
        self._jobs.put((fn, done))
        return done

    def _work(self):
        while True:
            fn, done = self._jobs.get()
            fn()
            del fn  # an idle worker must not keep its last session alive
            # idle before done, so that the next session reuses this thread
            with self._lock:
                self._idle += 1
            done.set()


# one per process, so that every session in it reuses the same threads
_PASSIVE_WORKERS = _PassiveWorkers()


class FedSession(Composite):
    """A live two-party session: an ActiveParty plus a served passive peer.

    In-process mode runs PassiveParty.serve() on a reused worker thread over
    a socketpair channel; TCP mode connects to a peer started with
    `serve_party_b`. Either way, the active side sees the same object. A
    passive party that fails closes its channel, so the active side fails at
    once, and leaving an in-process session raises the passive's error. The
    session closes its active end on every exit, a failed one included.
    """

    def __init__(self, config: ExperimentConfig, dataset: PartitionedDataset):
        self.config = config
        self.dataset = dataset
        self.schema_hash = schema_pair_hash(dataset.schema_a, dataset.schema_b)
        seed = config.seed
        bottom_a = BottomModel.create(
            dataset.schema_a, config.bottom_a, rng_for(seed, STREAM_INIT_BOTTOM_A)
        )
        top = TopModel.create(
            bottom_a.out_dim + config.bottom_b[-1],
            config.top,
            rng_for(seed, STREAM_INIT_TOP),
        )
        self._passive_done: threading.Event | None = None
        self._passive_error: list[BaseException] = []
        self.passive: PassiveParty | None = None

        if config.transport == "inproc":
            chan_a, chan_b = inproc_pair(timeout=config.recv_timeout)
            self.passive = _passive_party(config, dataset, chan_b)
            self.active = ActiveParty(chan_a, bottom_a, top, dataset)
            self._passive_done = _PASSIVE_WORKERS.submit(self._passive_main)
        else:
            chan_a = tcp_connect(config.tcp_host, config.tcp_port, timeout=config.recv_timeout)
            self.active = ActiveParty(chan_a, bottom_a, top, dataset)
        try:
            handshake(
                self.active.channel,
                role="active",
                schema_hash=self.schema_hash,
                config_hash=self.config.config_hash(),
            )
        except BaseException:
            self.active.channel.close()
            raise

    def _passive_main(self):
        try:
            _serve_passive(self.passive, self.config)
        except BaseException as exc:  # surfaced on close() or __exit__
            self._passive_error.append(exc)

    def parts(self) -> dict:
        """The federated triple, named as in `SplitModel.parts()`. The `b`
        part exists only in-process; over TCP the peer holds B's bottom, and
        the run's one session carries it from stage to stage."""
        b = {"b": self.passive.bottom} if self.passive is not None else {}
        return {"a": self.active.bottom, **b, "top": self.active.top}

    def reinit_passive(self, rng_key: list[int]) -> None:
        self.active.channel.send_new(
            MsgType.CONTROL,
            meta={"cmd": "reinit", "rng_key": ",".join(str(x) for x in rng_key)},
        )

    def save_passive(self, tag: str) -> None:
        self.active.channel.send_new(MsgType.CONTROL, meta={"cmd": "save", "tag": tag})

    def close(self) -> None:
        """Hang up, and raise the in-process passive party's error if it
        failed."""
        finished = self._hang_up()
        if self._passive_error:
            raise self._passive_error[0]
        if not finished:
            raise TransportTimeout(
                f"passive party still running {self.config.recv_timeout}s after BYE"
            )

    def _hang_up(self) -> bool:
        """Send BYE and close the active end, then wait for an in-process
        passive party to finish; False if it still runs after recv_timeout."""
        try:
            self.active.channel.send_new(MsgType.BYE)
        except Exception:
            pass
        self.active.channel.close()
        return self._passive_done is None or self._passive_done.wait(self.config.recv_timeout)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
            return False
        # a passive party that failed first closed its end under the active
        # one, whose error is then a TransportError; else the active failed first
        self._hang_up()
        if isinstance(exc, TransportError) and self._passive_error:
            raise self._passive_error[0] from exc
        return False


def _passive_party(config: ExperimentConfig, dataset: PartitionedDataset,
                   channel) -> PassiveParty:
    """Party B's runtime over `channel`: a fresh bottom and B's feature
    blocks, never the labels."""
    bottom = BottomModel.create(
        dataset.schema_b, config.bottom_b, rng_for(config.seed, STREAM_INIT_BOTTOM_B)
    )
    blocks = {name: segment.b for name in ("labeled", "unlabeled", "test")
              if (segment := getattr(dataset, name)) is not None}
    passive = PassiveParty(channel, bottom, blocks, save_dir=_run_dir(config))
    passive.schema_hash = schema_pair_hash(dataset.schema_a, dataset.schema_b)
    return passive


def _serve_passive(passive: PassiveParty, config: ExperimentConfig) -> None:
    """Answer the active party's HELLO, then serve until BYE. The channel is
    closed on any exit, so a fault here fails the active party's next read
    at once."""
    try:
        handshake(passive.channel, role="passive", schema_hash=passive.schema_hash,
                  config_hash=config.config_hash())
        passive.serve()
    finally:
        passive.channel.close()


def _run_dir(config: ExperimentConfig) -> str | None:
    if not config.out_dir:
        return None
    path = Path(config.out_dir) / "runs" / config.config_hash()
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


# ---------------------------------------------------------------------------
# Stage cache and stage implementations
# ---------------------------------------------------------------------------


class RunContext:
    """Memoizes stage outputs across method runs (same process only)."""

    def __init__(self):
        self.cache: dict = {}

    def stage(self, key, fn):
        if key not in self.cache:
            self.cache[key] = fn()
        return self.cache[key]


def _settings(config, *, lr, epochs, batch, stage, patience) -> TrainSettings:
    return TrainSettings(
        lr=lr, l2=config.l2, batch_size=batch, epochs=epochs, patience=patience,
        seed=config.seed, eval_batch_size=config.eval_batch, stage=stage,
    )


# Every stage function takes (config, dataset, session_factory, done), where
# `done` maps the names of the method's earlier stages to their outputs, and
# returns its own output: a dict that may carry the stage's "history", its
# "test_auc", its "inference_messages", its "params" and the "phases" it ran
# for the row's earlier stages that have no function. A federated stage's
# params are a copy of `FedSession.params()`, and its "checkpoint" names the
# files its parameters are saved under; a local stage's params are party A's
# `LocalModel.params()`.


def _stage_student(config, dataset, session_factory, done):
    """Party A's single-party model, trained on the labeled rows.

    After pretraining it starts from the pretrained bottom at the fine-tune
    learning rate; after soft labels it is distilled from the teacher."""
    pre = done.get("mpd-pretrain")
    model = LocalModel.create(
        dataset.schema_a, config.bottom_a, config.top,
        rng_for(config.seed, STREAM_INIT_LOCAL_A),
    )
    if pre is not None:
        model.bottom.set_params(_strip(pre["params"], "a"))
    settings = _settings(config, lr=config.lr if pre is None else config.finetune_lr,
                         epochs=config.epochs, batch=config.batch_train, stage="local",
                         patience=config.patience)
    if "soft-labels" in done:
        history = distill(model, dataset.labeled.a, dataset.labeled.y,
                          done["soft-labels"]["soft"], settings, alpha=config.alpha)
    else:
        history = local_train(model, dataset.labeled.a, dataset.labeled.y, settings)
    scores = sigmoid(model.predict_logits(dataset.test.a))
    return {
        "params": copy_params(model.params()),
        "history": history,
        "test_auc": auc(scores, dataset.test.y).auc,
    }


def _stage_mpd_pretrain(config, dataset, session_factory, done=None):
    """Matched-pair pretraining against a disposable match-task top; its
    params are both pretrained bottoms, without that top."""
    with session_factory() as session:
        session.active.top = TopModel.create(
            session.active.bottom.out_dim + config.bottom_b[-1],
            config.top,
            rng_for(config.seed, STREAM_INIT_MPD_TOP),
        )
        settings = _settings(config, lr=config.lr, epochs=config.pretrain_epochs,
                             batch=config.batch_pretrain, stage="mpd", patience=None)
        history = mpd_mod.pretrain(session.active, settings, k=config.k)
    # no message answers the last gradient, so only close(), which waits for
    # the in-process passive party to return, orders its last update before
    # this copy, which the cache keeps apart from live arrays
    params = {k: v.copy() for k, v in session.params().items() if not k.startswith("top.")}
    return {"params": params, "history": history}


def _score_fed(config, dataset, session) -> dict:
    """Federated test scoring: the AUC, the messages it took, and the
    final triple's parameters."""
    counters = session.active.channel.counters
    before, _ = counters.snapshot()
    probs = federated_eval_probs(
        session.active, "test", batch_size=config.eval_batch, seed=config.seed
    )
    after, _ = counters.snapshot()
    return {
        "test_auc": auc(probs, dataset.test.y).auc,
        "inference_messages": after - before,
        "params": copy_params(session.params()),
    }


def _stage_fed_train(config, dataset, session_factory, done):
    """One federated supervised stage, scored on the test segment.

    After pretraining it fine-tunes from both pretrained bottoms at the
    fine-tune learning rate; otherwise both bottoms start fresh."""
    pre = done.get("mpd-pretrain")
    lr, tag = (config.lr, "vfl") if pre is None else (config.finetune_lr, "vfl-mpd-ft")
    with session_factory() as session:
        # stages are self-contained: bottoms come from the pretraining
        # checkpoint or a deterministic fresh init, and the supervised top is
        # always fresh (the match-task top is never reused), so a shared TCP
        # session replays the in-process stage exactly
        if pre is not None:
            session.set_params(pre["params"])
        else:
            session.active.bottom = BottomModel.create(
                dataset.schema_a, config.bottom_a,
                rng_for(config.seed, STREAM_INIT_BOTTOM_A),
            )
            session.reinit_passive([config.seed, STREAM_INIT_BOTTOM_B])
        session.active.top = TopModel.create(
            session.active.bottom.out_dim + config.bottom_b[-1],
            config.top,
            rng_for(config.seed, STREAM_INIT_TOP),
        )
        settings = _settings(config, lr=lr, epochs=config.epochs, batch=config.batch_train,
                             stage="fed", patience=config.patience)
        history = train_supervised(session.active, settings)
        if config.out_dir:
            session.save_passive(tag)
        return {"checkpoint": tag, "history": history, **_score_fed(config, dataset, session)}


def _save_fed_checkpoint(config, dataset, params, tag, *, with_b):
    run_dir = Path(_run_dir(config))
    schema_hash = schema_pair_hash(dataset.schema_a, dataset.schema_b)
    (run_dir / tag).mkdir(parents=True, exist_ok=True)
    save_checkpoint(
        run_dir / tag / "party_a.ckpt",
        {k: v for k, v in params.items() if not k.startswith("b.")},
        schema_hash, meta={"stage": tag, "config_hash": config.config_hash()},
    )
    if with_b:
        save_passive_checkpoint(run_dir, tag, _strip(params, "b"), schema_hash)


def _stage_soft_labels(config, dataset, session_factory, done, *, segment):
    """The frozen teacher's probabilities over one segment; the stage
    before this one is the teacher."""
    *_, teacher = done.values()
    with session_factory() as session:
        session.set_params(teacher["params"])
        return {"soft": teacher_predict(
            session.active, segment, batch_size=config.eval_batch, seed=config.seed,
        )}


def _stage_self_train(config, dataset, session_factory, done):
    """Self-training: a fresh model learns the teacher's soft view of the
    unlabeled rows (the "fed-train-soft" phase), then fine-tunes on the
    hard labels and is scored, all in one session."""
    with session_factory() as session:
        session.reinit_passive([config.seed, STREAM_INIT_BOTTOM_B, 2])
        session.active.bottom = BottomModel.create(
            dataset.schema_a, config.bottom_a,
            rng_for(config.seed, STREAM_INIT_BOTTOM_A, 2),
        )
        session.active.top = TopModel.create(
            session.active.bottom.out_dim + config.bottom_b[-1], config.top,
            rng_for(config.seed, STREAM_INIT_TOP, 2),
        )
        settings = _settings(config, lr=config.lr, epochs=config.epochs,
                             batch=config.batch_train, stage="soft",
                             patience=config.patience)
        soft = train_supervised(
            session.active, settings,
            train_segment="unlabeled", train_targets=done["soft-labels"]["soft"].probs,
            phase_name="soft",
        )
        ft = _settings(config, lr=config.finetune_lr, epochs=config.epochs,
                       batch=config.batch_train, stage="fed", patience=config.patience)
        history = train_supervised(session.active, ft)
        return {"history": history, "phases": {"fed-train-soft": {"history": soft}},
                **_score_fed(config, dataset, session)}


# ---------------------------------------------------------------------------
# Method pipelines
# ---------------------------------------------------------------------------


class Stage(NamedTuple):
    name: str
    # None: the next stage's function runs this one, in the same session
    fn: Callable | None
    # the config fields that fn reads on this row, besides the data and seed
    reads: tuple = ()
    # a local stage trains party A alone, so it may use the caller's stage
    # cache under any transport
    local: bool = False


def stage_key(stage: Stage, config: ExperimentConfig, parent) -> tuple:
    """The stage-cache key of one row's stage: its function and the
    arguments bound to it, the data, the seed, the values of the fields it
    reads, and `parent`, the key of the row's previous stage that has a
    function, which stands for everything the stage's inputs came from."""
    fn = stage.fn
    return (getattr(fn, "func", fn).__name__, tuple(sorted(getattr(fn, "keywords", {}).items())),
            config.data_key(), config.seed,
            tuple((name, getattr(config, name)) for name in sorted(stage.reads)), parent)


# what the supervised trainers read besides their learning rates: a local
# one, and a federated one, which also builds B's bottom and scores in
# batches; the soft labels load their teacher into a fresh session
_LOCAL_READS = ("bottom_a", "top", "l2", "batch_train", "epochs", "patience")
_FED_READS = _LOCAL_READS + ("bottom_b", "eval_batch")
_SOFT_READS = ("bottom_a", "bottom_b", "top", "eval_batch")
_PRETRAIN = Stage("mpd-pretrain", _stage_mpd_pretrain,
                  ("bottom_a", "bottom_b", "top", "lr", "l2", "batch_pretrain",
                   "pretrain_epochs", "k"))

PIPELINES = {
    "baseline-local": (Stage("local-train", _stage_student, _LOCAL_READS + ("lr",), local=True),),
    "vfl": (Stage("fed-train", _stage_fed_train, _FED_READS + ("lr",)),),
    "vfl-st": (
        Stage("fed-train-teacher", _stage_fed_train, _FED_READS + ("lr",)),
        Stage("soft-labels", partial(_stage_soft_labels, segment="unlabeled"), _SOFT_READS),
        Stage("fed-train-soft", None),
        Stage("fed-finetune", _stage_self_train, _FED_READS + ("lr", "finetune_lr")),
    ),
    "vfl-mpd": (
        _PRETRAIN,
        Stage("fed-finetune", _stage_fed_train, _FED_READS + ("finetune_lr",)),
    ),
    "local-sd": (
        Stage("fed-train-teacher", _stage_fed_train, _FED_READS + ("lr",)),
        Stage("soft-labels", partial(_stage_soft_labels, segment="labeled"), _SOFT_READS),
        Stage("distill", _stage_student, _LOCAL_READS + ("lr", "alpha"), local=True),
    ),
    "local-mpd": (
        _PRETRAIN,
        Stage("local-finetune", _stage_student, _LOCAL_READS + ("finetune_lr",), local=True),
    ),
    "local-ssd": (
        _PRETRAIN,
        Stage("fed-finetune-teacher", _stage_fed_train, _FED_READS + ("finetune_lr",)),
        Stage("soft-labels", partial(_stage_soft_labels, segment="labeled"), _SOFT_READS),
        Stage("distill", _stage_student, _LOCAL_READS + ("finetune_lr", "alpha"), local=True),
    ),
}

METHODS = tuple(PIPELINES)
METHOD_STAGES = {method: [s.name for s in stages] for method, stages in PIPELINES.items()}
# local serving: the final model is party A's alone
LOCAL_METHODS = frozenset(m for m, stages in PIPELINES.items() if stages[-1].local)
_NEEDS_UNLABELED = {m for m, names in METHOD_STAGES.items()
                    if {"mpd-pretrain", "fed-train-soft"} & set(names)}
_NEEDS_ALPHA = {m for m, names in METHOD_STAGES.items() if "distill" in names}


# ---------------------------------------------------------------------------
# Reports and entry points
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    config_hash: str
    method: str
    seed: int
    test_auc: float | None
    baseline_auc: float | None
    improvement: float | None
    stages: list
    histories: dict
    messages_sent: dict
    messages_received: dict
    bytes_sent: int
    bytes_received: int
    inference_messages: int
    wall_time: float
    failed_stage: str | None = None
    error: str | None = None

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in dc_fields(self)}
        payload["histories"] = {
            name: [json.loads(line) for line in h.to_jsonl().splitlines()]
            for name, h in self.histories.items()
        }
        return json.dumps(payload, indent=2)


def run(config: ExperimentConfig, *, context: RunContext | None = None,
        dataset: PartitionedDataset | None = None) -> RunReport:
    """Execute one method's pipeline end to end and report it.

    The report's improvement column is measured against a baseline-local
    run with the same data and seed, executed (or fetched from the context
    cache) automatically.
    """
    config.validate()
    if dataset is None:
        dataset = load_dataset(config)
    if dataset.test is None:
        raise ValidationError("the dataset has no test segment, on which every method is scored")
    ctx = context if context is not None else RunContext()
    # over TCP the passive peer's state flows from stage to stage in session
    # order, so federated stages cache only within this run
    fed_ctx = RunContext() if config.transport == "tcp" else ctx
    t0 = time.perf_counter()
    sessions: list[FedSession] = []
    shared: list[FedSession] = []

    def session_factory():
        if config.transport == "tcp":
            # every stage runs in the peer's one session, lent to each `with`
            # block without closing it: the passive party's state flows from
            # stage to stage in session order, which is the pipeline order
            if not shared:
                shared.append(FedSession(config, dataset))
                sessions.append(shared[0])
            return nullcontext(shared[0])
        session = FedSession(config, dataset)
        sessions.append(session)
        return session

    def lookup(stage, parent, done):
        """The stage's key, its output from the cache or built, and whether
        the cache held it."""
        cache = ctx if stage.local else fed_ctx
        key = stage_key(stage, config, parent)
        hit = key in cache.cache
        out = cache.stage(key, lambda: stage.fn(config, dataset, session_factory, done))
        return key, out, hit

    stages = PIPELINES[config.method]
    done: dict = {}
    parent = None
    failed_stage = None
    error = None
    try:
        for stage in stages:
            if stage.fn is None:
                continue
            parent, out, hit = lookup(stage, parent, done)
            if config.out_dir and "checkpoint" in out:
                # a federated stage served from the cache opened no session,
                # so party B's checkpoint comes from the cached parameters too
                _save_fed_checkpoint(config, dataset, out["params"], out["checkpoint"],
                                     with_b=hit)
            done.update(out.get("phases", {}))
            done[stage.name] = out
    except Exception as exc:
        failed_stage = next(s.name for s in stages if s.name not in done)
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if shared:
            try:
                shared[0].close()
            except Exception:
                pass
    final = done[stages[-1].name] if failed_stage is None else None

    sent: dict = {}
    received: dict = {}
    bytes_sent = 0
    bytes_received = 0
    for session in sessions:
        counters = session.active.channel.counters
        for key, value in counters.sent.items():
            sent[key] = sent.get(key, 0) + value
        for key, value in counters.received.items():
            received[key] = received.get(key, 0) + value
        bytes_sent += counters.bytes_sent
        bytes_received += counters.bytes_received

    baseline_auc = None
    improvement = None
    if final is not None:
        if config.method == "baseline-local":
            baseline_auc = final["test_auc"]
        else:
            _, base, _ = lookup(PIPELINES["baseline-local"][0], None, {})
            baseline_auc = base["test_auc"]
            improvement = final["test_auc"] - baseline_auc

    report = RunReport(
        config_hash=config.config_hash(),
        method=config.method,
        seed=config.seed,
        test_auc=final["test_auc"] if final else None,
        baseline_auc=baseline_auc,
        improvement=improvement,
        stages=list(METHOD_STAGES[config.method]),
        histories={name: out["history"] for name, out in done.items() if "history" in out}
        if final else {},
        messages_sent=sent,
        messages_received=received,
        bytes_sent=bytes_sent,
        bytes_received=bytes_received,
        inference_messages=final.get("inference_messages", 0) if final else 0,
        wall_time=time.perf_counter() - t0,
        failed_stage=failed_stage,
        error=error,
    )
    _write_artifacts(config, report, final)
    return report


def _write_artifacts(config, report, final):
    run_dir = _run_dir(config)
    if run_dir is None:
        return
    root = Path(run_dir)
    (root / "resolved.cfg").write_text(config.resolved_text(), encoding="utf-8")
    (root / "report.json").write_text(report.to_json(), encoding="utf-8")
    if final is None:
        return
    for stage, history in report.histories.items():
        stage_dir = root / stage
        stage_dir.mkdir(parents=True, exist_ok=True)
        (stage_dir / "metrics.jsonl").write_text(history.to_jsonl(), encoding="utf-8")
    save_checkpoint(
        root / "final.ckpt", final["params"], schema_hash="",
        meta={"method": config.method, "config_hash": config.config_hash()},
    )


@dataclass
class GridResult:
    method: str
    best: RunReport
    best_val_auc: float
    table: list


def grid(config: ExperimentConfig, grid_spec: dict, seeds=(0, 1, 2)) -> GridResult:
    """Cartesian hyperparameter grid x repeated seeds for one method.

    Selection uses the best validation AUC of the final stage, never the
    test AUC; the winner's test AUC is what gets reported. All cells share
    one RunContext, so a stage that the gridded keys do not reach trains
    once per seed.
    """
    for name, why in (("seed", "the seeds repeat every cell"),
                      ("method", "a grid tunes one method")):
        if name in grid_spec:
            raise ValidationError(f"cannot grid over '{name}': {why}")
    names = sorted(grid_spec)
    combos = [{}]
    for name in names:
        combos = [{**c, name: v} for c in combos for v in grid_spec[name]]
    ctx = RunContext()
    table = []
    best = None
    best_val = -np.inf
    for combo in combos:
        for seed in seeds:
            candidate = replace(config, seed=seed, **combo)
            report = run(candidate, context=ctx)
            final_stage = report.stages[-1] if report.stages else None
            history = report.histories.get(final_stage) if final_stage else None
            val_auc = history.best_val_auc if history is not None else None
            table.append(
                {"combo": combo, "seed": seed, "val_auc": val_auc,
                 "test_auc": report.test_auc}
            )
            if val_auc is not None and val_auc > best_val:
                best_val = val_auc
                best = report
    if best is None:
        raise ValidationError("no grid run produced a validation AUC")
    return GridResult(method=config.method, best=best, best_val_auc=best_val, table=table)


def serve_party_b(config: ExperimentConfig) -> None:
    """Run the passive party: accept one active session and serve it.

    The peer must present the same schema and config hashes; a mismatch
    aborts before any training traffic. Labels never reach this process's
    party runtime: only feature blocks are handed to it.
    """
    dataset = load_dataset(config)
    server = tcp_listen(config.tcp_host, config.tcp_port)
    try:
        channel = tcp_accept(server, timeout=config.recv_timeout)
    finally:
        server.close()
    _serve_passive(_passive_party(config, dataset, channel), config)
