"""Command-line entry points.

    fedsplit synth     --out DIR [--set data.n_labeled=...]   write CSV + schema files
    fedsplit pretrain  [--config F] [--set k=v] --out DIR     matched-pair pretraining only
    fedsplit eval      --checkpoint F ...                     score a checkpoint on test data
    fedsplit run       --method M ...                         full pipeline + report JSON
    fedsplit grid      --method M --grid lr=a,b --grid l2=... hyperparameter grid
    fedsplit serve-b   [--port P] ...                         passive-party server (TCP)

Every subcommand takes --config (INI file) plus repeated --set section.key=value
overrides; --transport, --seed, --method, --out are shortcuts for common keys.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .data import PartitionedDataset
from .errors import FedSplitError, ValidationError
from .harness import (
    CONFIG_KEYS,
    ExperimentConfig,
    FedSession,
    grid as run_grid,
    load_dataset,
    run as run_method,
    serve_party_b,
)
from .metrics import auc
from .numeric import sigmoid
from .splitnn import STREAM_INIT_LOCAL_A, LocalModel, SplitModel, rng_for


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override a config key (repeatable)")
    parser.add_argument("--seed", type=int, help="shortcut for run.seed")
    parser.add_argument("--method", help="shortcut for run.method")
    parser.add_argument("--transport", choices=["inproc", "tcp"],
                        help="shortcut for exec.transport")
    parser.add_argument("--out", help="shortcut for exec.out_dir")


def _config_from(args) -> ExperimentConfig:
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ValidationError(f"--set expects SECTION.KEY=VALUE, got '{item}'")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["run.seed"] = str(args.seed)
    if args.method is not None:
        overrides["run.method"] = args.method
    if args.transport is not None:
        overrides["exec.transport"] = args.transport
    if args.out is not None:
        overrides["exec.out_dir"] = args.out
    if args.config:
        config = ExperimentConfig.from_file(args.config, overrides)
    else:
        config = ExperimentConfig.from_flat(overrides)
    config.validate()
    return config


def _cmd_synth(args) -> int:
    config = _config_from(args)
    dataset = load_dataset(config)
    out = Path(args.out or config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    _write_csv_pair(dataset, out, config.label_column)
    print(f"wrote synthetic CSV pairs and schemas under {out}")
    return 0


def _write_csv_pair(dataset: PartitionedDataset, out: Path, label_column: str) -> None:
    import csv as csv_mod

    def dump(path, schema, block, y=None):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv_mod.writer(fh)
            names = [f.name for f in schema.fields]
            writer.writerow(names + ([label_column] if y is not None else []))
            cat_j = {f.name: j for j, f in enumerate(schema.cat_fields)}
            num_j = {f.name: j for j, f in enumerate(schema.num_fields)}
            for i in range(block.n_rows):
                row = []
                for f in schema.fields:
                    if f.kind == "categorical":
                        row.append(str(int(block.cat[i, cat_j[f.name]])))
                    else:
                        row.append(repr(float(block.num[i, num_j[f.name]])))
                if y is not None:
                    row.append(str(int(y[i])))
                writer.writerow(row)

    (out / "schema_a.txt").write_text(dataset.schema_a.canonical_text(), encoding="utf-8")
    (out / "schema_b.txt").write_text(dataset.schema_b.canonical_text(), encoding="utf-8")
    dump(out / "labeled_a.csv", dataset.schema_a, dataset.labeled.a, dataset.labeled.y)
    dump(out / "labeled_b.csv", dataset.schema_b, dataset.labeled.b)
    if dataset.unlabeled is not None:
        dump(out / "unlabeled_a.csv", dataset.schema_a, dataset.unlabeled.a)
        dump(out / "unlabeled_b.csv", dataset.schema_b, dataset.unlabeled.b)
    if dataset.test is not None:
        dump(out / "test_a.csv", dataset.schema_a, dataset.test.a, dataset.test.y)
        dump(out / "test_b.csv", dataset.schema_b, dataset.test.b)


def _cmd_pretrain(args) -> int:
    from .harness import _pretrain_in, _run_dir

    config = _config_from(args)
    dataset = load_dataset(config)
    with FedSession(config, dataset) as session:
        history = _pretrain_in(session, config)
        run_dir = _run_dir(config)
        if run_dir:
            save_checkpoint(
                Path(run_dir) / "pretrained_bottom_a.ckpt",
                {f"a.{k}": v for k, v in session.active.bottom.params().items()},
                session.schema_hash,
                meta={"pretrain_config_hash": config.config_hash()},
            )
            session.save_passive("pretrained")
            (Path(run_dir) / "pretrain_metrics.jsonl").write_text(
                history.to_jsonl(), encoding="utf-8"
            )
        final = history.records[-1] if history.records else None
        print(json.dumps({
            "match_loss": final.train_loss if final else None,
            "match_accuracy": final.extra.get("match_accuracy") if final else None,
            "epochs": len(history.records),
        }))
    return 0


def _cmd_run(args) -> int:
    config = _config_from(args)
    report = run_method(config)
    print(report.to_json())
    return 0 if report.failed_stage is None else 1


def _cmd_eval(args) -> int:
    config = _config_from(args)
    dataset = load_dataset(config)
    params, _, meta = load_checkpoint(args.checkpoint)
    names = set(params)
    if any(name.startswith("b.") for name in names):
        model = SplitModel.create(
            dataset.schema_a, dataset.schema_b,
            config.bottom_a, config.bottom_b, config.top, config.seed,
        )
        model.set_params(params)
        scores = sigmoid(model.predict_logits(dataset.test.a, dataset.test.b))
    else:
        model = LocalModel.create(
            dataset.schema_a, config.bottom_a, config.top,
            rng_for(config.seed, STREAM_INIT_LOCAL_A),
        )
        model.set_params(params)
        scores = sigmoid(model.predict_logits(dataset.test.a))
    result = auc(scores, dataset.test.y)
    print(json.dumps({
        "test_auc": result.auc, "n_pos": result.n_pos, "n_neg": result.n_neg,
        "checkpoint_meta": meta,
    }))
    return 0


def _grid_values(key: str, values: str) -> list:
    """Type each value of one --grid axis as --set types that config field."""
    if key not in CONFIG_KEYS:
        raise ValidationError(f"--grid key '{key}' is not a config field")
    return [
        getattr(ExperimentConfig.from_flat({CONFIG_KEYS[key]: v.strip()}), key)
        for v in values.split(",")
    ]


def _cmd_grid(args) -> int:
    config = _config_from(args)
    spec = {}
    for item in args.grid:
        if "=" not in item:
            raise ValidationError(f"--grid expects KEY=V1,V2,..., got '{item}'")
        key, values = item.split("=", 1)
        key = key.strip()
        spec[key] = _grid_values(key, values)
    try:
        seeds = tuple(int(s) for s in args.seeds.split(","))
    except ValueError:
        raise ValidationError(f"--seeds expects comma-separated integers: '{args.seeds}'") from None
    result = run_grid(config, spec, seeds=seeds)
    print(json.dumps({
        "method": result.method,
        "best_val_auc": result.best_val_auc,
        "best_test_auc": result.best.test_auc,
        "best_seed": result.best.seed,
        "table": result.table,
    }, default=str, indent=2))
    return 0


def _cmd_serve_b(args) -> int:
    config = _config_from(args)
    serve_party_b(config, host=args.host, port=args.port)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fedsplit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic CSV pairs and schema files")
    _add_common(p)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("pretrain", help="matched-pair pretraining, save bottoms")
    _add_common(p)
    p.set_defaults(fn=_cmd_pretrain)

    p = sub.add_parser("eval", help="score a checkpoint on the test segment")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("run", help="full method pipeline, print report JSON")
    _add_common(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("grid", help="hyperparameter grid x repeated seeds")
    _add_common(p)
    p.add_argument("--grid", action="append", default=[], metavar="KEY=V1,V2")
    p.add_argument("--seeds", default="0,1,2")
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("serve-b", help="run the passive party (TCP)")
    _add_common(p)
    p.add_argument("--host", default=None)
    p.add_argument("--port", type=int, default=None)
    p.set_defaults(fn=_cmd_serve_b)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FedSplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
