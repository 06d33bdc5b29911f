"""Input files of the hashed-vocabulary workload, generated from the seed."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fedsplit.data import SyntheticSpec, synth_federated

ID_STREAM = 7001


@dataclass
class WrittenCsv:
    paths: dict  # csv_paths for ExperimentConfig
    raw: dict  # (segment, party) -> {field: [raw cell strings]}


def zipf_ids(rng: np.random.Generator, n: int, exponent: float, prefix: str) -> list[str]:
    """Heavy-tailed ID strings: a few values cover most rows, most values
    occur once."""
    return [f"{prefix}{v}" for v in rng.zipf(exponent, size=n).tolist()]


def write_hashed_csv(seed: int, out: Path, rows: dict, desk_spec: dict, *,
                     desk_buckets: int, id_buckets: int, zipf_exponent: float) -> WrittenCsv:
    """Per-party CSV and schema files: the desk features as raw codes hashed
    into `desk_buckets`, plus one ID column per party (`a_id`, `b_id`)
    hashed into `id_buckets`."""
    out.mkdir(parents=True, exist_ok=True)
    desk = synth_federated(SyntheticSpec(**rows, **desk_spec), seed=seed)
    rng = np.random.default_rng([seed, ID_STREAM])
    paths = {}
    raw = {}
    for party, schema in (("A", desk.schema_a), ("B", desk.schema_b)):
        id_field = f"{party.lower()}_id"
        lines = [f"party {party}"]
        lines += [f"{f.name} categorical buckets={desk_buckets} embed_dim={f.embed_dim}"
                  for f in schema.cat_fields]
        lines.append(f"{id_field} categorical buckets={id_buckets} embed_dim={desk_spec['embed_dim']}")
        schema_path = out / f"schema_{party.lower()}.txt"
        schema_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths[f"schema_{party.lower()}"] = str(schema_path)
        names = [f.name for f in schema.cat_fields] + [id_field]
        for segment_name in ("labeled", "unlabeled", "test"):
            segment = getattr(desk, segment_name)
            block = getattr(segment, party.lower())
            columns = {f.name: [str(v) for v in block.cat[:, j].tolist()]
                       for j, f in enumerate(schema.cat_fields)}
            columns[id_field] = zipf_ids(rng, segment.n_rows, zipf_exponent, party.lower())
            header = list(names)
            cells = [columns[name] for name in names]
            if party == "A" and segment.y is not None:
                header.append("label")
                cells.append([str(int(v)) for v in segment.y.tolist()])
            path = out / f"{segment_name}_{party.lower()}.csv"
            body = "\n".join(",".join(row) for row in zip(*cells))
            path.write_text(",".join(header) + "\n" + body + "\n", encoding="utf-8")
            paths[f"{segment_name}_{party.lower()}"] = str(path)
            raw[(segment_name, party)] = columns
    return WrittenCsv(paths=paths, raw=raw)
