"""Command-line entry points.

    fedsplit synth     --out DIR [--set data.n_labeled=...]   write CSV + schema files
    fedsplit eval      --checkpoint F ...                     score a checkpoint on test data
    fedsplit run       --method M ...                         full pipeline + report JSON
    fedsplit grid      --method M --grid lr=a,b --grid l2=... hyperparameter grid
    fedsplit serve-b   [--host H] [--port P] ...              passive-party server (TCP)

Every subcommand takes --config (INI file) plus repeated --set section.key=value
overrides; --transport, --seed, --method, --out (and serve-b's --host and
--port) are shortcuts for common keys. A package error or a file that cannot
be read, decoded or bound exits 2 with one "error: ..." line on stderr.
synth writes the layout load_csv reads (data.write_csv); eval refuses a
checkpoint that lacks a tensor of the model it scores.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checkpoint import load_checkpoint
from .data import write_csv
from .errors import FedSplitError, ValidationError
from .harness import (
    CONFIG_KEYS,
    ExperimentConfig,
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


# the config key that each shortcut option sets
_SHORTCUTS = {"seed": "run.seed", "method": "run.method", "transport": "exec.transport",
              "out": "exec.out_dir", "host": "exec.tcp_host", "port": "exec.tcp_port"}


def _config_from(args) -> ExperimentConfig:
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ValidationError(f"--set expects SECTION.KEY=VALUE, got '{item}'")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    for attr, key in _SHORTCUTS.items():
        if getattr(args, attr, None) is not None:
            overrides[key] = str(getattr(args, attr))
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
    write_csv(dataset, out, config.label_column)
    print(f"wrote synthetic CSV pairs and schemas under {out}")
    return 0


def _cmd_run(args) -> int:
    config = _config_from(args)
    report = run_method(config)
    print(report.to_json())
    return 0 if report.failed_stage is None else 1


def _cmd_eval(args) -> int:
    config = _config_from(args)
    dataset = load_dataset(config)
    if dataset.test is None:
        raise ValidationError("the dataset has no test segment to score")
    params, _, meta = load_checkpoint(args.checkpoint)
    if any(name.startswith(("a.", "b.")) for name in params):
        model = SplitModel.create(
            dataset.schema_a, dataset.schema_b,
            config.bottom_a, config.bottom_b, config.top, config.seed,
        )
        blocks = (dataset.test.a, dataset.test.b)
    else:
        model = LocalModel.create(
            dataset.schema_a, config.bottom_a, config.top,
            rng_for(config.seed, STREAM_INIT_LOCAL_A),
        )
        blocks = (dataset.test.a,)
    missing = sorted(model.params().keys() - params.keys())
    if missing:
        where = (" (party B's bottom of a TCP run is in its own party_b_<stage>.ckpt)"
                 if any(name.startswith("b.") for name in missing) else "")
        raise ValidationError(f"{args.checkpoint} lacks {missing}{where}")
    model.set_params(params)
    scores = sigmoid(model.predict_logits(*blocks))
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
    serve_party_b(config)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fedsplit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {}
    for name, fn, help_text in (
            ("synth", _cmd_synth, "generate synthetic CSV pairs and schema files"),
            ("eval", _cmd_eval, "score a checkpoint on the test segment"),
            ("run", _cmd_run, "full method pipeline, print report JSON"),
            ("grid", _cmd_grid, "hyperparameter grid x repeated seeds"),
            ("serve-b", _cmd_serve_b, "run the passive party (TCP)")):
        commands[name] = p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(fn=fn)
    commands["eval"].add_argument("--checkpoint", required=True)
    commands["grid"].add_argument("--grid", action="append", default=[], metavar="KEY=V1,V2")
    commands["grid"].add_argument("--seeds", default="0,1,2")
    commands["serve-b"].add_argument("--host", help="shortcut for exec.tcp_host")
    commands["serve-b"].add_argument("--port", type=int, help="shortcut for exec.tcp_port")

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FedSplitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
