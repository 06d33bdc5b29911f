"""Span tracing from outside the program.

`Tracer.install()` replaces public functions and methods of the fedsplit
modules with wrappers that time each call. Spans nest per thread; a span's
self time is its duration minus the durations of the spans it directly
contains. Aggregates are kept in memory, per thread, and merged only when
`report()` is called, so tracing does no I/O while the workload runs.

Each span belongs to a party. Transport spans take it from the channel's
name, party-runtime spans from their class, and every other span from the
span that encloses it, or from the thread's default when it has none.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class _Counters:
    self_ns: defaultdict
    total_ns: defaultdict
    calls: defaultdict
    counts: defaultdict
    stage_ns: defaultdict
    root_ns: defaultdict


def _new_counters() -> _Counters:
    return _Counters(*(defaultdict(int) for _ in range(6)))


class Tracer:
    def __init__(self, default_party: str = "active", *, finetune_lr: float | None = None):
        self.default_party = default_party
        # a trainer call at the fine-tune learning rate is a fine-tune stage
        self.finetune_lr = finetune_lr
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_Counters] = []
        self._patches: list[tuple[object, str, object]] = []
        self.channels: list = []

    # -- per-thread state ---------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.counters = _new_counters()
            with self._lock:
                self._threads.append(local.counters)
        return local.stack, local.counters

    # -- wrapping -----------------------------------------------------------
    def wrap(self, fn, name, *, party=None, count=None, stage=None):
        """Return `fn` timed as span `name`.

        party(args) names the span's party; count(args, result, party)
        returns {counter: increment}; stage(args, kwargs, stack) names the pipeline
        stage whose inclusive time this call is.
        """
        tracer = self
        clock = time.perf_counter_ns
        per_party = "{party}" in name

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack, counters = tracer._state()
            if party is not None:
                who = party(args)
            elif stack:
                who = stack[-1][1]
            else:
                who = tracer.default_party
            span_name = name.format(party=who) if per_party else name
            stage_name = stage(args, kwargs, stack) if stage is not None else None
            frame = [span_name, who, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (who, span_name)
                counters.total_ns[key] += elapsed
                counters.self_ns[key] += elapsed - frame[2]
                counters.calls[key] += 1
                if stack:
                    stack[-1][2] += elapsed
                else:
                    counters.root_ns[who] += elapsed
                if stage_name is not None:
                    counters.stage_ns[stage_name] += elapsed
            if count is not None:
                for counter, inc in count(args, result, who).items():
                    counters.counts[counter] += inc
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, **opts):
        """Wrap owner.attr; a module-level function is also replaced in every
        fedsplit module that imported it by name."""
        import sys

        original = getattr(owner, attr)
        wrapped = self.wrap(original, name, **opts)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "fedsplit" or mod_name.startswith("fedsplit."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the program's layers -------------------------------------------------
    def install(self) -> "Tracer":
        from fedsplit import (checkpoint, data, distill, harness, metrics, mpd, numeric,
                              splitnn, transport)

        tracer = self
        active = lambda args: "active"  # noqa: E731
        passive = lambda args: "passive"  # noqa: E731
        by_channel = lambda args: args[0].name or tracer.default_party  # noqa: E731

        def inside(stack, span):
            return any(frame[0] == span for frame in stack)

        # data
        def rows(args, ds, who):
            return {"data.load_rows": ds.labeled.n_rows + len(ds.rejected_lines)
                    + (ds.unlabeled.n_rows if ds.unlabeled is not None else 0)
                    + (ds.test.n_rows if ds.test is not None else 0)}

        self.patch(data, "synth_federated", "data.synth", count=rows)
        self.patch(data, "load_csv", "data.ingest", count=rows)
        self.patch(data.FeatureBlock, "take", "data.take")

        # numeric
        self.patch(numeric, "adam_step", "numeric.adam", count=lambda a, r, who: {
            "numeric.adam_elements": sum(p.size for p in a[1].values())})
        self.patch(numeric.EmbeddingTable, "grad", "numeric.embed_grad",
                   count=lambda a, g, who: {"numeric.embed_grad_bytes": g.nbytes})
        self.patch(numeric.EmbeddingTable, "lookup", "numeric.embed_lookup")
        self.patch(numeric.DenseLayer, "forward", "numeric.dense_fwd")
        self.patch(numeric.DenseLayer, "backward", "numeric.dense_bwd")
        self.patch(numeric, "matmul", "numeric.matmul")
        self.patch(numeric, "bce_loss", "numeric.bce")

        # transport
        original_init = transport.Channel.__init__

        def channel_init(channel, *args, **kwargs):
            original_init(channel, *args, **kwargs)
            with tracer._lock:
                tracer.channels.append(channel)

        self._patches.append((transport.Channel, "__init__", original_init))
        transport.Channel.__init__ = channel_init

        # the active end sees every frame of a session once, sent or received
        def frames(args, result, who):
            return {"transport.frames": 1} if who == "active" else {}

        self.patch(transport.Channel, "send", "transport.{party}.send",
                   party=by_channel, count=frames)
        self.patch(transport.Channel, "recv", "transport.{party}.recv_wait",
                   party=by_channel, count=frames)
        self.patch(transport, "encode_frame", "transport.encode", count=lambda a, body, who: (
            {"transport.bytes": len(body)} if who == "active" else {}))
        self.patch(transport, "decode_frame", "transport.decode", count=lambda a, msg, who: (
            {"transport.bytes": len(a[0]) + len(a[1])} if who == "active" else {}))

        # splitnn
        self.patch(splitnn.BottomModel, "forward", "splitnn.bottom_fwd")
        self.patch(splitnn.BottomModel, "backward", "splitnn.bottom_bwd")
        self.patch(splitnn.TopModel, "forward", "splitnn.top_fwd")
        self.patch(splitnn.TopModel, "backward", "splitnn.top_bwd")
        for attr in ("forward_step", "backward_step"):
            self.patch(splitnn.ActiveParty, attr, "splitnn.active.step", party=active)
        self.patch(splitnn.ActiveParty, "apply_update", "splitnn.active.step", party=active,
                   count=lambda a, r, who: {"splitnn.train_steps": 1})
        for attr in ("send_activation", "recv_gradient", "apply_update"):
            self.patch(splitnn.PassiveParty, attr, "splitnn.passive.step", party=passive)
        self.patch(splitnn.PassiveParty, "serve", "splitnn.passive.serve", party=passive)
        self.patch(splitnn, "federated_eval_probs", "splitnn.fed_eval",
                   count=lambda a, probs, who: {"splitnn.fed_eval_rows": len(probs)})

        def fed_stage(args, kwargs, stack):
            if kwargs.get("phase_name") == "soft":
                return "fed-train-soft"
            return "fed-finetune" if args[1].lr == tracer.finetune_lr else "fed-train"

        def local_stage(args, kwargs, stack):
            if inside(stack, "distill.distill"):
                return None  # the distill() call is the stage
            return "local-finetune" if args[3].lr == tracer.finetune_lr else "local-train"

        self.patch(splitnn, "train_supervised", "splitnn.train_loop", stage=fed_stage)
        self.patch(splitnn, "local_train", "splitnn.local_loop", stage=local_stage)

        # mpd
        self.patch(mpd, "pretrain", "mpd.pretrain", stage=lambda a, k, s: "mpd-pretrain")
        self.patch(mpd, "sample_derangement", "mpd.derangement")
        self.patch(mpd, "mpd_loss", "mpd.loss")

        # distill
        self.patch(distill, "teacher_predict", "distill.teacher_predict",
                   stage=lambda a, k, s: "soft-labels")
        self.patch(distill, "distill", "distill.distill", stage=lambda a, k, s: "distill")
        self.patch(distill, "distill_loss", "distill.distill")

        # metrics
        self.patch(metrics, "auc", "metrics.auc")

        # harness
        self.patch(harness, "run", "harness.run")
        self.patch(harness.FedSession, "__init__", "harness.session_open")

        original_stage = harness.RunContext.stage

        def counted_stage(ctx, key, fn):
            hit = key in ctx.cache
            result = original_stage(ctx, key, fn)
            if tracer.enabled:
                counts = tracer._state()[1].counts
                counts["harness.cache_lookups"] += 1
                counts["harness.cache_hits"] += int(hit)
            return result

        self._patches.append((harness.RunContext, "stage", original_stage))
        harness.RunContext.stage = counted_stage

        # checkpoint
        self.patch(checkpoint, "save_checkpoint", "checkpoint.save")
        return self

    # -- results --------------------------------------------------------------
    def report(self) -> dict:
        """Merged aggregates: per (party, span) self/total/calls, counters,
        stage times, per-party root time, and transcript lengths."""
        merged = _new_counters()
        with self._lock:
            threads = list(self._threads)
            channels = list(self.channels)
        for counters in threads:
            for field_name in ("self_ns", "total_ns", "calls", "counts", "stage_ns", "root_ns"):
                target = getattr(merged, field_name)
                for key, value in getattr(counters, field_name).items():
                    target[key] += value
        spans = {
            f"{party}|{name}": {
                "self_s": merged.self_ns[(party, name)] / 1e9,
                "total_s": merged.total_ns[(party, name)] / 1e9,
                "calls": merged.calls[(party, name)],
            }
            for party, name in sorted(merged.self_ns)
        }
        parties = {}
        for party, root in merged.root_ns.items():
            self_sum = sum(v for (p, _), v in merged.self_ns.items() if p == party)
            parties[party] = {"wall_s": root / 1e9, "self_sum_s": self_sum / 1e9}
        return {
            "spans": spans,
            "counts": dict(merged.counts),
            "stages": {k: v / 1e9 for k, v in merged.stage_ns.items()},
            "parties": parties,
            "transcript_entries": sum(len(c.transcript) for c in channels),
        }


def merge_reports(reports: list[dict]) -> dict:
    """Sum tracer reports from several processes or rounds."""
    out = {"spans": {}, "counts": defaultdict(int), "stages": defaultdict(float),
           "parties": {}, "transcript_entries": 0}
    for rep in reports:
        for key, span in rep["spans"].items():
            acc = out["spans"].setdefault(key, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            for field_name in acc:
                acc[field_name] += span[field_name]
        for key, value in rep["counts"].items():
            out["counts"][key] += value
        for key, value in rep["stages"].items():
            out["stages"][key] += value
        for party, numbers in rep["parties"].items():
            acc = out["parties"].setdefault(party, {"wall_s": 0.0, "self_sum_s": 0.0})
            for field_name in acc:
                acc[field_name] += numbers[field_name]
        out["transcript_entries"] += rep["transcript_entries"]
    out["counts"] = dict(out["counts"])
    out["stages"] = dict(out["stages"])
    return out
