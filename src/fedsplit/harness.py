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
with the same data and seed. Stage outputs are memoized per (stage, data,
seed, hyperparameters) inside a RunContext so a method matrix shares its
pretraining and teacher stages across methods; the cache is an in-process
convenience and is never consulted over TCP.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
import threading
import time
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path

import numpy as np

from . import mpd as mpd_mod
from .checkpoint import save_checkpoint
from .data import (
    FeatureBlock,
    PartitionedDataset,
    SyntheticSpec,
    load_csv,
    load_schema,
    synth_federated,
    validation_split,
)
from .distill import distill, teacher_predict
from .errors import TransportTimeout, ValidationError
from .metrics import MetricHistory, auc
from .numeric import sigmoid
from .splitnn import (
    STREAM_INIT_BOTTOM_A,
    STREAM_INIT_BOTTOM_B,
    STREAM_INIT_LOCAL_A,
    STREAM_INIT_LOCAL_B,
    STREAM_INIT_MPD_TOP,
    STREAM_INIT_TOP,
    ActiveParty,
    BottomModel,
    LocalModel,
    PassiveParty,
    TopModel,
    TrainSettings,
    copy_params,
    federated_eval_probs,
    local_train,
    rng_for,
    schema_pair_hash,
    split_key,
    train_supervised,
)
from .transport import MsgType, handshake, inproc_pair, tcp_accept, tcp_connect, tcp_listen

METHODS = (
    "baseline-local",
    "vfl",
    "vfl-st",
    "vfl-mpd",
    "local-sd",
    "local-mpd",
    "local-ssd",
)

_NEEDS_UNLABELED = {"vfl-st", "vfl-mpd", "local-mpd", "local-ssd"}
_NEEDS_ALPHA = {"local-sd", "local-ssd"}
LOCAL_METHODS = frozenset({"baseline-local", "local-sd", "local-mpd", "local-ssd"})

METHOD_STAGES = {
    "baseline-local": ["local-train"],
    "vfl": ["fed-train"],
    "vfl-st": ["fed-train-teacher", "soft-labels", "fed-train-soft", "fed-finetune"],
    "vfl-mpd": ["mpd-pretrain", "fed-finetune"],
    "local-sd": ["fed-train-teacher", "soft-labels", "distill"],
    "local-mpd": ["mpd-pretrain", "local-finetune"],
    "local-ssd": ["mpd-pretrain", "fed-finetune-teacher", "soft-labels", "distill"],
}


@dataclass
class ExperimentConfig:
    """Full declarative description of one run."""

    method: str = "vfl"
    seed: int = 0

    # data source: synthetic spec, or per-segment CSV path pairs
    data_kind: str = "synthetic"
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
    label_column: str = "label"

    # architecture
    bottom_a: tuple = (64, 64)
    bottom_b: tuple = (64, 64)
    top: tuple = (64, 64)

    # hyperparameters: main and fine-tune learning rates, distillation
    # weight, L2 penalty, negatives per positive, batch sizes for the
    # pretraining and downstream stages
    lr: float = 1e-2
    finetune_lr: float = 1e-3
    alpha: float = 0.5
    l2: float = 1e-4
    k: int = 1
    batch_pretrain: int = 10_000
    batch_train: int = 5_000
    eval_batch: int = 16_384
    epochs: int = 40
    pretrain_epochs: int = 15
    patience: int = 3

    # behavior flags
    permute_party: str = "A"
    frequency_weighted: bool = False
    student_init_pretrained: bool = True
    st_finetune: bool = True
    distill_on_unlabeled: bool = False

    # execution
    transport: str = "inproc"  # inproc | tcp
    tcp_host: str = "127.0.0.1"
    tcp_port: int = 9991
    out_dir: str | None = None
    recv_timeout: float = 30.0

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValidationError(f"unknown method '{self.method}'")
        if self.transport not in ("inproc", "tcp"):
            raise ValidationError(f"unknown transport '{self.transport}'")
        if self.method in _NEEDS_ALPHA and not (0.0 <= self.alpha <= 1.0):
            raise ValidationError("distillation methods need alpha in [0, 1]")
        if self.data_kind not in ("synthetic", "csv"):
            raise ValidationError(f"unknown data kind '{self.data_kind}'")
        if self.method in _NEEDS_UNLABELED:
            if self.data_kind == "synthetic" and self.synth.n_unlabeled < 2:
                raise ValidationError(f"method '{self.method}' needs an unlabeled segment")
            if self.data_kind == "csv" and "unlabeled_a" not in self.csv_paths:
                raise ValidationError(f"method '{self.method}' needs unlabeled CSV paths")

    # -- serialization -------------------------------------------------------
    def to_sections(self) -> dict:
        synth = {f.name: getattr(self.synth, f.name) for f in dc_fields(self.synth)}
        return {
            "run": {"method": self.method, "seed": self.seed},
            "data": {"kind": self.data_kind, "label_column": self.label_column,
                     **({f"csv_{k}": v for k, v in self.csv_paths.items()}
                        if self.data_kind == "csv" else synth)},
            "arch": {
                "bottom_a": ",".join(map(str, self.bottom_a)),
                "bottom_b": ",".join(map(str, self.bottom_b)),
                "top": ",".join(map(str, self.top)),
            },
            "hyper": {
                "lr": self.lr, "finetune_lr": self.finetune_lr, "alpha": self.alpha,
                "l2": self.l2, "k": self.k, "batch_pretrain": self.batch_pretrain,
                "batch_train": self.batch_train, "eval_batch": self.eval_batch,
                "epochs": self.epochs, "pretrain_epochs": self.pretrain_epochs,
                "patience": self.patience,
            },
            "flags": {
                "permute_party": self.permute_party,
                "frequency_weighted": self.frequency_weighted,
                "student_init_pretrained": self.student_init_pretrained,
                "st_finetune": self.st_finetune,
                "distill_on_unlabeled": self.distill_on_unlabeled,
            },
            "exec": {
                "transport": self.transport, "tcp_host": self.tcp_host,
                "tcp_port": self.tcp_port, "out_dir": self.out_dir or "",
                "recv_timeout": self.recv_timeout,
            },
        }

    def resolved_text(self) -> str:
        parser = configparser.ConfigParser()
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
        parser = configparser.ConfigParser()
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        flat = {
            f"{section}.{key}": value
            for section in parser.sections()
            for key, value in parser[section].items()
        }
        flat.update(overrides or {})
        return cls.from_flat(flat)

    @classmethod
    def from_flat(cls, flat: dict) -> "ExperimentConfig":
        def get(key, default):
            return flat.get(key, default)

        def as_bool(value):
            return str(value).strip().lower() in ("1", "true", "yes", "on")

        def widths(value):
            if isinstance(value, tuple):
                return value
            return tuple(int(x) for x in str(value).split(",") if x != "")

        base = cls()
        data_kind = str(get("data.kind", base.data_kind))
        synth = base.synth
        if data_kind == "synthetic":
            kwargs = {}
            for f in dc_fields(SyntheticSpec):
                raw = get(f"data.{f.name}", None)
                if raw is None:
                    kwargs[f.name] = getattr(base.synth, f.name)
                elif f.name in ("rule",):
                    kwargs[f.name] = str(raw)
                elif f.name.startswith(("n_", "d_", "shared", "private")) or f.name in (
                    "buckets", "embed_dim"
                ):
                    kwargs[f.name] = int(raw)
                else:
                    kwargs[f.name] = float(raw)
            synth = SyntheticSpec(**kwargs)
        csv_paths = {
            key[len("data.csv_"):]: value
            for key, value in flat.items()
            if key.startswith("data.csv_")
        }
        return cls(
            method=str(get("run.method", base.method)),
            seed=int(get("run.seed", base.seed)),
            data_kind=data_kind,
            synth=synth,
            csv_paths=csv_paths,
            label_column=str(get("data.label_column", base.label_column)),
            bottom_a=widths(get("arch.bottom_a", base.bottom_a)),
            bottom_b=widths(get("arch.bottom_b", base.bottom_b)),
            top=widths(get("arch.top", base.top)),
            lr=float(get("hyper.lr", base.lr)),
            finetune_lr=float(get("hyper.finetune_lr", base.finetune_lr)),
            alpha=float(get("hyper.alpha", base.alpha)),
            l2=float(get("hyper.l2", base.l2)),
            k=int(get("hyper.k", base.k)),
            batch_pretrain=int(get("hyper.batch_pretrain", base.batch_pretrain)),
            batch_train=int(get("hyper.batch_train", base.batch_train)),
            eval_batch=int(get("hyper.eval_batch", base.eval_batch)),
            epochs=int(get("hyper.epochs", base.epochs)),
            pretrain_epochs=int(get("hyper.pretrain_epochs", base.pretrain_epochs)),
            patience=int(get("hyper.patience", base.patience)),
            permute_party=str(get("flags.permute_party", base.permute_party)),
            frequency_weighted=as_bool(get("flags.frequency_weighted", base.frequency_weighted)),
            student_init_pretrained=as_bool(
                get("flags.student_init_pretrained", base.student_init_pretrained)
            ),
            st_finetune=as_bool(get("flags.st_finetune", base.st_finetune)),
            distill_on_unlabeled=as_bool(
                get("flags.distill_on_unlabeled", base.distill_on_unlabeled)
            ),
            transport=str(get("exec.transport", base.transport)),
            tcp_host=str(get("exec.tcp_host", base.tcp_host)),
            tcp_port=int(get("exec.tcp_port", base.tcp_port)),
            out_dir=str(get("exec.out_dir", "")) or None,
            recv_timeout=float(get("exec.recv_timeout", base.recv_timeout)),
        )


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


class FedSession:
    """A live two-party session: an ActiveParty plus a served passive peer.

    In-process mode runs PassiveParty.serve() on a daemon thread over a
    queue-backed channel pair; TCP mode connects to a peer started with
    `serve_party_b`. Either way, the active side sees the same object.
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
        self._passive_thread: threading.Thread | None = None
        self._passive_error: list[BaseException] = []
        self.passive: PassiveParty | None = None

        if config.transport == "inproc":
            chan_a, chan_b = inproc_pair(timeout=config.recv_timeout)
            bottom_b = BottomModel.create(
                dataset.schema_b, config.bottom_b, rng_for(seed, STREAM_INIT_BOTTOM_B)
            )
            self.passive = PassiveParty(
                chan_b, bottom_b, _passive_blocks(dataset),
                save_dir=_run_dir(config),
            )
            self.passive.schema_hash = self.schema_hash
            self.active = ActiveParty(chan_a, bottom_a, top, dataset)
            self._passive_thread = threading.Thread(target=self._passive_main, daemon=True)
            self._passive_thread.start()
        else:
            chan_a = tcp_connect(config.tcp_host, config.tcp_port, timeout=config.recv_timeout)
            self.active = ActiveParty(chan_a, bottom_a, top, dataset)
        handshake(
            self.active.channel,
            role="active",
            schema_hash=self.schema_hash,
            config_hash=self.config.config_hash(),
        )

    def _passive_main(self):
        try:
            handshake(
                self.passive.channel,
                role="passive",
                schema_hash=self.schema_hash,
                config_hash=self.config.config_hash(),
            )
            self.passive.serve()
        except BaseException as exc:  # surfaced on close()
            self._passive_error.append(exc)

    # -- helpers usable only when both parties live in this process ----------
    def set_passive_bottom(self, params: dict) -> None:
        if self.passive is None:
            raise ValidationError("cannot reach into the passive party over TCP")
        self.passive.bottom.set_params(copy_params(params))

    def passive_bottom_params(self) -> dict:
        if self.passive is None:
            raise ValidationError("cannot reach into the passive party over TCP")
        return copy_params(self.passive.bottom.params())

    def reinit_passive(self, rng_key: list[int]) -> None:
        self.active.channel.send_new(
            MsgType.CONTROL,
            meta={"cmd": "reinit", "rng_key": ",".join(str(x) for x in rng_key)},
        )

    def save_passive(self, tag: str) -> None:
        self.active.channel.send_new(MsgType.CONTROL, meta={"cmd": "save", "tag": tag})

    def close(self) -> None:
        try:
            self.active.channel.send_new(MsgType.BYE)
        except Exception:
            pass
        if self._passive_thread is not None:
            self._passive_thread.join(timeout=self.config.recv_timeout)
            if self._passive_error:
                raise self._passive_error[0]
            if self._passive_thread.is_alive():
                raise TransportTimeout(
                    f"passive party still running {self.config.recv_timeout}s after BYE"
                )
        self.active.channel.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            try:
                self.active.channel.send_new(MsgType.BYE)
            except Exception:
                pass
        return False


def _passive_blocks(dataset: PartitionedDataset) -> dict:
    blocks = {"labeled": dataset.labeled.b}
    if dataset.unlabeled is not None:
        blocks["unlabeled"] = dataset.unlabeled.b
    if dataset.test is not None:
        blocks["test"] = dataset.test.b
    return blocks


def _run_dir(config: ExperimentConfig) -> str | None:
    if not config.out_dir:
        return None
    path = Path(config.out_dir) / "runs" / config.config_hash()
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


class _SessionLease:
    """Hands a shared session to `with` blocks without closing it on exit.

    TCP pipelines run every stage inside the peer's single session; the
    passive party's state flows from stage to stage in session order, which
    is exactly the pipeline order.
    """

    def __init__(self, session: FedSession):
        self._session = session

    def __enter__(self) -> FedSession:
        return self._session

    def __exit__(self, exc_type, exc, tb):
        return False


def _seed_passive(session: FedSession, params: dict) -> None:
    if session.passive is not None and params:
        session.set_passive_bottom(params)
    # over TCP the shared session's passive peer already carries this state
    # from the preceding in-session stage


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


def _pretrain_key(config):
    return ("mpd-pretrain", config.data_key(), config.seed, config.lr, config.l2,
            config.batch_pretrain, config.pretrain_epochs, config.k,
            config.permute_party, config.frequency_weighted,
            config.bottom_a, config.bottom_b, config.top)


def _fed_key(config, stage_key, lr, parents=()):
    return ("fed-train", stage_key, config.data_key(), config.seed, lr, config.l2,
            config.batch_train, config.epochs, config.patience,
            config.bottom_a, config.bottom_b, config.top, parents)


def _baseline_key(config, party):
    return ("baseline-local", config.data_key(), config.seed, config.lr, config.l2,
            config.batch_train, config.epochs, config.patience,
            config.bottom_a if party == "A" else config.bottom_b, config.top, party)


def _stage_baseline_local(config, dataset, ctx, *, party="A"):
    """Plain single-party training; cached per (data, seed, hypers, party)."""

    def build():
        if party == "A":
            schema, widths, stream = dataset.schema_a, config.bottom_a, STREAM_INIT_LOCAL_A
            block, test_block = dataset.labeled.a, dataset.test.a
        else:
            schema, widths, stream = dataset.schema_b, config.bottom_b, STREAM_INIT_LOCAL_B
            block, test_block = dataset.labeled.b, dataset.test.b
        model = LocalModel.create(schema, widths, config.top, rng_for(config.seed, stream))
        settings = _settings(config, lr=config.lr, epochs=config.epochs,
                             batch=config.batch_train, stage="local",
                             patience=config.patience)
        history = local_train(model, block, dataset.labeled.y, settings)
        scores = sigmoid(model.predict_logits(test_block))
        return {
            "params": copy_params(model.params()),
            "history": history,
            "test_auc": auc(scores, dataset.test.y).auc,
        }

    return ctx.stage(_baseline_key(config, party), build)


def _stage_mpd_pretrain(config, dataset, ctx, session_factory):
    """Matched-pair pretraining; returns both pretrained bottoms."""

    def build():
        with session_factory() as session:
            # the match task trains against its own disposable top
            session.active.top = TopModel.create(
                session.active.bottom.out_dim + config.bottom_b[-1],
                config.top,
                rng_for(config.seed, STREAM_INIT_MPD_TOP),
            )
            settings = _settings(config, lr=config.lr, epochs=config.pretrain_epochs,
                                 batch=config.batch_pretrain, stage="mpd", patience=None)
            result = mpd_mod.pretrain(
                session.active, settings,
                k=config.k,
                permute_party=config.permute_party,
                frequency_weighted=config.frequency_weighted,
                config_hash=config.config_hash(),
            )
        # no message answers the last gradient, so only close(), which joins
        # the in-process passive thread, orders its last update before the copy
        return {
            "bottom_a": copy_params(session.active.bottom.params()),
            "bottom_b": session.passive_bottom_params() if session.passive else {},
            "mpd_top": copy_params(session.active.top.params()),
            "history": result.history,
        }

    return ctx.stage(_pretrain_key(config), build)


def _stage_fed_train(config, dataset, ctx, session_factory, *, lr, stage_key,
                     init_bottoms=None, parents=()):
    """One federated supervised stage; returns the final triple's params."""

    def build():
        with session_factory() as session:
            # stages are self-contained: bottoms come from the pretraining
            # checkpoint or a deterministic fresh init, and the supervised
            # top is always fresh (the match-task top is never reused), so
            # a shared TCP session replays the in-process stage exactly
            if init_bottoms is not None:
                session.active.bottom.set_params(copy_params(init_bottoms["bottom_a"]))
                _seed_passive(session, init_bottoms["bottom_b"])
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
            settings = _settings(config, lr=lr, epochs=config.epochs,
                                 batch=config.batch_train, stage="fed",
                                 patience=config.patience)
            history = train_supervised(session.active, settings)
            counters = session.active.channel.counters
            before = sum(counters.sent.values()) + sum(counters.received.values())
            probs = federated_eval_probs(
                session.active, "test", batch_size=config.eval_batch, seed=config.seed
            )
            after = sum(counters.sent.values()) + sum(counters.received.values())
            if config.out_dir:
                _save_fed_checkpoint(config, session, stage_key)
            return {
                "a": copy_params(session.active.bottom.params()),
                "top": copy_params(session.active.top.params()),
                "b": session.passive_bottom_params() if session.passive else {},
                "history": history,
                "test_auc": auc(probs, dataset.test.y).auc,
                "test_probs": probs,
                "inference_messages": after - before,
            }

    return ctx.stage(_fed_key(config, stage_key, lr, parents), build)


def _save_fed_checkpoint(config, session, stage_key):
    run_dir = _run_dir(config)
    if run_dir is None:
        return
    stage_dir = Path(run_dir) / stage_key
    stage_dir.mkdir(parents=True, exist_ok=True)
    params = {
        **{f"a.{k}": v for k, v in session.active.bottom.params().items()},
        **{f"top.{k}": v for k, v in session.active.top.params().items()},
    }
    save_checkpoint(stage_dir / "party_a.ckpt", params, session.schema_hash,
                    meta={"stage": stage_key, "config_hash": config.config_hash()})
    session.save_passive(stage_key)


def _stage_soft_labels(config, dataset, ctx, session_factory, teacher, teacher_key, segment):
    def build():
        with session_factory() as session:
            session.active.bottom.set_params(copy_params(teacher["a"]))
            session.active.top.set_params(copy_params(teacher["top"]))
            _seed_passive(session, teacher["b"])
            return teacher_predict(
                session.active, segment,
                teacher_hash=config.config_hash(),
                batch_size=config.eval_batch, seed=config.seed,
            )

    return ctx.stage(("soft-labels", segment, teacher_key), build)


def _student_model(config, dataset, init_bottom_params=None) -> LocalModel:
    model = LocalModel.create(
        dataset.schema_a, config.bottom_a, config.top,
        rng_for(config.seed, STREAM_INIT_LOCAL_A),
    )
    if init_bottom_params is not None:
        model.bottom.set_params(copy_params(init_bottom_params))
    return model


# ---------------------------------------------------------------------------
# Method pipelines
# ---------------------------------------------------------------------------


@dataclass
class PipelineResult:
    stages: list[str]
    histories: dict
    test_auc: float
    inference_messages: int
    final_params: dict


def _pipeline(config, dataset, ctx, session_factory, progress: list) -> PipelineResult:
    method = config.method
    histories: dict = {}

    if method == "baseline-local":
        progress.append("local-train")
        out = _stage_baseline_local(config, dataset, ctx)
        histories["local-train"] = out["history"]
        return PipelineResult(
            stages=list(METHOD_STAGES[method]),
            histories=histories,
            test_auc=out["test_auc"],
            inference_messages=0,
            final_params=out["params"],
        )

    if method == "vfl":
        progress.append("fed-train")
        out = _stage_fed_train(config, dataset, ctx, session_factory,
                               lr=config.lr, stage_key="vfl")
        histories["fed-train"] = out["history"]
        return PipelineResult(
            stages=list(METHOD_STAGES[method]),
            histories=histories,
            test_auc=out["test_auc"],
            inference_messages=out["inference_messages"],
            final_params={"a": out["a"], "b": out["b"], "top": out["top"]},
        )

    if method == "vfl-st":
        progress.append("fed-train-teacher")
        teacher = _stage_fed_train(config, dataset, ctx, session_factory,
                                   lr=config.lr, stage_key="vfl")
        histories["fed-train-teacher"] = teacher["history"]
        progress.append("soft-labels")
        soft = _stage_soft_labels(config, dataset, ctx, session_factory,
                                  teacher, _fed_key(config, "vfl", config.lr), "unlabeled")
        progress.append("fed-train-soft")
        with session_factory() as session:
            # a fresh model learns the teacher's soft view of the unlabeled
            # rows, then fine-tunes on the hard labels
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
            histories["fed-train-soft"] = train_supervised(
                session.active, settings,
                train_segment="unlabeled", train_targets=soft.probs,
                phase_name="soft",
            )
            if config.st_finetune:
                progress.append("fed-finetune")
                ft = _settings(config, lr=config.finetune_lr, epochs=config.epochs,
                               batch=config.batch_train, stage="fed",
                               patience=config.patience)
                histories["fed-finetune"] = train_supervised(session.active, ft)
            counters = session.active.channel.counters
            before = sum(counters.sent.values()) + sum(counters.received.values())
            probs = federated_eval_probs(
                session.active, "test", batch_size=config.eval_batch, seed=config.seed
            )
            after = sum(counters.sent.values()) + sum(counters.received.values())
            final = {
                "a": copy_params(session.active.bottom.params()),
                "top": copy_params(session.active.top.params()),
                "b": session.passive_bottom_params() if session.passive else {},
            }
        return PipelineResult(
            stages=list(METHOD_STAGES[method]),
            histories=histories,
            test_auc=auc(probs, dataset.test.y).auc,
            inference_messages=after - before,
            final_params=final,
        )

    if method == "vfl-mpd":
        progress.append("mpd-pretrain")
        pre = _stage_mpd_pretrain(config, dataset, ctx, session_factory)
        histories["mpd-pretrain"] = pre["history"]
        progress.append("fed-finetune")
        out = _stage_fed_train(
            config, dataset, ctx, session_factory,
            lr=config.finetune_lr, stage_key="vfl-mpd-ft",
            init_bottoms=pre, parents=_pretrain_key(config),
        )
        histories["fed-finetune"] = out["history"]
        return PipelineResult(
            stages=list(METHOD_STAGES[method]),
            histories=histories,
            test_auc=out["test_auc"],
            inference_messages=out["inference_messages"],
            final_params={"a": out["a"], "b": out["b"], "top": out["top"]},
        )

    if method == "local-sd":
        progress.append("fed-train-teacher")
        teacher = _stage_fed_train(config, dataset, ctx, session_factory,
                                   lr=config.lr, stage_key="vfl")
        histories["fed-train-teacher"] = teacher["history"]
        return _distill_pipeline(
            config, dataset, ctx, session_factory, teacher,
            teacher_key=_fed_key(config, "vfl", config.lr),
            student_init=None, histories=histories,
            stages=METHOD_STAGES["local-sd"], progress=progress,
        )

    if method == "local-mpd":
        progress.append("mpd-pretrain")
        pre = _stage_mpd_pretrain(config, dataset, ctx, session_factory)
        histories["mpd-pretrain"] = pre["history"]
        progress.append("local-finetune")
        model = _student_model(config, dataset, init_bottom_params=pre["bottom_a"])
        settings = _settings(config, lr=config.finetune_lr, epochs=config.epochs,
                             batch=config.batch_train, stage="local",
                             patience=config.patience)
        histories["local-finetune"] = local_train(
            model, dataset.labeled.a, dataset.labeled.y, settings
        )
        scores = sigmoid(model.predict_logits(dataset.test.a))
        return PipelineResult(
            stages=list(METHOD_STAGES[method]),
            histories=histories,
            test_auc=auc(scores, dataset.test.y).auc,
            inference_messages=0,
            final_params=copy_params(model.params()),
        )

    if method == "local-ssd":
        progress.append("mpd-pretrain")
        pre = _stage_mpd_pretrain(config, dataset, ctx, session_factory)
        histories["mpd-pretrain"] = pre["history"]
        progress.append("fed-finetune-teacher")
        teacher = _stage_fed_train(
            config, dataset, ctx, session_factory,
            lr=config.finetune_lr, stage_key="vfl-mpd-ft",
            init_bottoms=pre, parents=_pretrain_key(config),
        )
        histories["fed-finetune-teacher"] = teacher["history"]
        student_init = pre["bottom_a"] if config.student_init_pretrained else None
        return _distill_pipeline(
            config, dataset, ctx, session_factory, teacher,
            teacher_key=_fed_key(config, "vfl-mpd-ft", config.finetune_lr,
                                 _pretrain_key(config)),
            student_init=student_init, histories=histories,
            stages=METHOD_STAGES["local-ssd"], progress=progress,
        )

    raise ValidationError(f"unknown method '{method}'")


def _distill_pipeline(config, dataset, ctx, session_factory, teacher, *, teacher_key,
                      student_init, histories, stages, progress):
    progress.append("soft-labels")
    soft = _stage_soft_labels(config, dataset, ctx, session_factory,
                              teacher, teacher_key, "labeled")
    progress.append("distill")
    student = _student_model(config, dataset, init_bottom_params=student_init)
    lr = config.finetune_lr if student_init is not None else config.lr
    settings = _settings(config, lr=lr, epochs=config.epochs,
                         batch=config.batch_train, stage="local",
                         patience=config.patience)
    if config.distill_on_unlabeled and dataset.unlabeled is not None:
        soft_u = _stage_soft_labels(config, dataset, ctx, session_factory,
                                    teacher, teacher_key, "unlabeled")
        histories["distill"] = _distill_mixed(
            student, dataset, soft, soft_u, settings, config.alpha
        )
    else:
        histories["distill"] = distill(
            student, dataset.labeled.a, dataset.labeled.y, soft, settings,
            alpha=config.alpha,
        )
    scores = sigmoid(student.predict_logits(dataset.test.a))
    return PipelineResult(
        stages=list(stages),
        histories=histories,
        test_auc=auc(scores, dataset.test.y).auc,
        inference_messages=0,
        final_params=copy_params(student.params()),
    )


def _distill_mixed(student, dataset, soft_labeled, soft_unlabeled, settings, alpha):
    """Distill on labeled rows (blended loss) plus unlabeled rows (soft term
    only); validation still scores hard labels on the labeled split."""
    from .numeric import PROB_EPS, bce_loss, bernoulli_kl

    n_l = dataset.labeled.n_rows
    n_u = dataset.unlabeled.n_rows
    block = FeatureBlock.concat([dataset.labeled.a, dataset.unlabeled.a])
    y = np.concatenate([dataset.labeled.y, np.zeros(n_u, dtype=np.float32)])
    soft = np.concatenate([soft_labeled.probs, soft_unlabeled.probs])

    def blended(logits, rows):
        z64 = np.asarray(logits, dtype=np.float64)
        q = sigmoid(z64)
        p = np.clip(soft[rows].astype(np.float64), PROB_EPS, 1.0 - PROB_EPS)
        kl_vals, kl_grad = bernoulli_kl(p, q)
        m = len(rows)
        loss = (1.0 - alpha) * float(np.mean(kl_vals))
        grad = (1.0 - alpha) * kl_grad / m
        labeled_sub = np.flatnonzero(rows < n_l)
        if len(labeled_sub):
            bce_value, bce_grad = bce_loss(logits[labeled_sub], y[rows][labeled_sub])
            # bce_grad is already divided by the labeled count in the batch
            loss += alpha * bce_value
            grad = grad.copy()
            grad[labeled_sub] += alpha * bce_grad
        return loss, grad.astype(np.float32)

    train_l, val_l = validation_split(n_l, split_key(settings.seed))
    train_rows = np.concatenate([train_l, n_l + np.arange(n_u)])
    val_data = (dataset.labeled.a.take(val_l), dataset.labeled.y[val_l]) if len(val_l) else None
    return local_train(student, block, y, settings, loss_fn=blended,
                       train_rows=train_rows, val_data=val_data)


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
        payload = {
            "config_hash": self.config_hash,
            "method": self.method,
            "seed": self.seed,
            "test_auc": self.test_auc,
            "baseline_auc": self.baseline_auc,
            "improvement": self.improvement,
            "stages": self.stages,
            "histories": {
                name: [json.loads(line) for line in h.to_jsonl().splitlines()]
                for name, h in self.histories.items()
            },
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "inference_messages": self.inference_messages,
            "wall_time": self.wall_time,
            "failed_stage": self.failed_stage,
            "error": self.error,
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
    # TCP pipelines always execute their stages in the peer's one session,
    # so they never consult a caller-provided cache
    ctx = RunContext() if (context is None or config.transport == "tcp") else context
    if dataset is None:
        dataset = load_dataset(config)
    t0 = time.perf_counter()
    sessions: list[FedSession] = []
    shared: list[FedSession] = []

    def session_factory():
        if config.transport == "tcp":
            if not shared:
                shared.append(FedSession(config, dataset))
                sessions.append(shared[0])
            return _SessionLease(shared[0])
        session = FedSession(config, dataset)
        sessions.append(session)
        return session

    progress: list = []
    failed_stage = None
    error = None
    result = None
    try:
        result = _pipeline(config, dataset, ctx, session_factory, progress)
    except Exception as exc:
        failed_stage = progress[-1] if progress else "setup"
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if shared:
            try:
                shared[0].close()
            except Exception:
                pass

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
    if result is not None:
        if config.method == "baseline-local":
            baseline_auc = result.test_auc
        else:
            base = _stage_baseline_local(config, dataset, ctx)
            baseline_auc = base["test_auc"]
            improvement = result.test_auc - baseline_auc

    report = RunReport(
        config_hash=config.config_hash(),
        method=config.method,
        seed=config.seed,
        test_auc=result.test_auc if result else None,
        baseline_auc=baseline_auc,
        improvement=improvement,
        stages=result.stages if result else list(METHOD_STAGES.get(config.method, [])),
        histories=result.histories if result else {},
        messages_sent=sent,
        messages_received=received,
        bytes_sent=bytes_sent,
        bytes_received=bytes_received,
        inference_messages=result.inference_messages if result else 0,
        wall_time=time.perf_counter() - t0,
        failed_stage=failed_stage,
        error=error,
    )
    _write_artifacts(config, report, result)
    return report


def _write_artifacts(config, report, result):
    run_dir = _run_dir(config)
    if run_dir is None:
        return
    root = Path(run_dir)
    (root / "resolved.cfg").write_text(config.resolved_text(), encoding="utf-8")
    (root / "report.json").write_text(report.to_json(), encoding="utf-8")
    if result is None:
        return
    for stage, history in result.histories.items():
        stage_dir = root / stage
        stage_dir.mkdir(parents=True, exist_ok=True)
        (stage_dir / "metrics.jsonl").write_text(history.to_jsonl(), encoding="utf-8")
    nested = result.final_params and isinstance(
        next(iter(result.final_params.values())), dict
    )
    if nested:
        flat = {
            f"{side}.{name}": value
            for side, params in result.final_params.items()
            for name, value in params.items()
        }
    else:
        flat = dict(result.final_params)
    save_checkpoint(
        root / "final.ckpt", flat, schema_hash="",
        meta={"method": config.method, "config_hash": config.config_hash()},
    )


def run_matrix(config: ExperimentConfig, methods=METHODS, seeds=(0, 1, 2),
               datasets: dict | None = None) -> dict:
    """Run several methods over several seeds, sharing stage outputs.

    Returns {method: {seed: RunReport}}. In-process transport only."""
    out: dict = {}
    for seed in seeds:
        ctx = RunContext()
        seed_config = replace(config, seed=seed)
        dataset = (datasets or {}).get(seed) or load_dataset(seed_config)
        for method in methods:
            method_config = replace(seed_config, method=method)
            out.setdefault(method, {})[seed] = run(
                method_config, context=ctx, dataset=dataset
            )
    return out


@dataclass
class GridResult:
    method: str
    best: RunReport
    best_val_auc: float
    table: list


def grid(config: ExperimentConfig, grid_spec: dict, seeds=(0, 1, 2)) -> GridResult:
    """Cartesian hyperparameter grid x repeated seeds for one method.

    Selection uses the best validation AUC of the final stage, never the
    test AUC; the winner's test AUC is what gets reported.
    """
    names = sorted(grid_spec)
    combos = [{}]
    for name in names:
        combos = [{**c, name: v} for c in combos for v in grid_spec[name]]
    table = []
    best = None
    best_val = -np.inf
    for combo in combos:
        for seed in seeds:
            candidate = replace(config, seed=seed, **combo)
            report = run(candidate)
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


def serve_party_b(config: ExperimentConfig, host: str | None = None,
                  port: int | None = None) -> None:
    """Run the passive party: accept one active session and serve it.

    The peer must present the same schema and config hashes; a mismatch
    aborts before any training traffic. Labels never reach this process's
    party runtime: only feature blocks are handed to it.
    """
    dataset = load_dataset(config)
    schema_hash = schema_pair_hash(dataset.schema_a, dataset.schema_b)
    server = tcp_listen(host or config.tcp_host, port or config.tcp_port)
    try:
        channel = tcp_accept(server, timeout=config.recv_timeout)
    finally:
        server.close()
    handshake(
        channel, role="passive",
        schema_hash=schema_hash, config_hash=config.config_hash(),
    )
    bottom_b = BottomModel.create(
        dataset.schema_b, config.bottom_b, rng_for(config.seed, STREAM_INIT_BOTTOM_B)
    )
    passive = PassiveParty(
        channel, bottom_b, _passive_blocks(dataset),
        save_dir=_run_dir(config),
    )
    passive.schema_hash = schema_hash
    passive.serve()
    channel.close()
