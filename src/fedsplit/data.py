"""Vertically partitioned tabular data: schemas, hashed categorical encoding,
aligned per-party batches, and synthetic dataset generators.

Two parties hold different feature columns of the same samples, aligned by
row index. Categorical values are hashed with FNV-1a-64 (salted by field
name) into a fixed number of buckets; numericals are standardized with
statistics of the labeled segment only. CSV ingest encodes each segment
once and hashes each distinct value once per field and segment, which gives
the same bucket indices as hashing every cell. Encoded rows are carried as a
FeatureBlock: an int64 index matrix for the categorical fields plus a
float32 matrix for the numerical fields, columns in schema order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import AlignmentError, SchemaError, ValidationError
from .numeric import F32

CATEGORICAL = "categorical"
NUMERICAL = "numerical"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = (1 << 64) - 1
_SALT = b"\x1f"


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; stable across runs and platforms."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _FNV_MASK
    return h


@dataclass(frozen=True)
class FieldSpec:
    """One declared input field of a party."""

    name: str
    kind: str
    buckets: int = 0
    embed_dim: int = 0

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERICAL):
            raise SchemaError(f"field '{self.name}': unknown kind '{self.kind}'")
        if self.kind == CATEGORICAL:
            if self.buckets < 2:
                raise SchemaError(f"field '{self.name}': buckets must be >= 2")
            if self.embed_dim < 1:
                raise SchemaError(f"field '{self.name}': embed_dim must be >= 1")


@dataclass(frozen=True)
class PartySchema:
    """Ordered field list of one party."""

    party: str  # "A" or "B"
    fields: tuple[FieldSpec, ...]

    def __post_init__(self):
        if self.party not in ("A", "B"):
            raise SchemaError(f"party must be 'A' or 'B', got '{self.party}'")
        if not self.fields:
            raise SchemaError("schema needs at least one field")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate field names in schema")

    @property
    def cat_fields(self) -> tuple[FieldSpec, ...]:
        return tuple(f for f in self.fields if f.kind == CATEGORICAL)

    @property
    def num_fields(self) -> tuple[FieldSpec, ...]:
        return tuple(f for f in self.fields if f.kind == NUMERICAL)

    @property
    def post_embed_dim(self) -> int:
        """Model input width: embedding dims plus one per numerical field."""
        return sum(f.embed_dim for f in self.cat_fields) + len(self.num_fields)

    def canonical_text(self) -> str:
        lines = [f"party {self.party}"]
        for f in self.fields:
            if f.kind == CATEGORICAL:
                lines.append(f"{f.name} categorical buckets={f.buckets} embed_dim={f.embed_dim}")
            else:
                lines.append(f"{f.name} numerical")
        return "\n".join(lines) + "\n"


def parse_schema(text: str, party: str) -> PartySchema:
    """Parse the schema file format: one field per line, in model order.

        <name> categorical buckets=<int> embed_dim=<int>
        <name> numerical

    Blank lines and lines starting with '#' are ignored.
    """
    fields = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "party":
            if len(parts) != 2 or parts[1] != party:
                raise SchemaError(
                    f"schema line {lineno}: party directive '{line}' does not match '{party}'"
                )
            continue
        if len(parts) < 2:
            raise SchemaError(f"schema line {lineno}: expected '<name> <kind> ...'")
        name, kind = parts[0], parts[1]
        kwargs = {}
        for token in parts[2:]:
            if "=" not in token:
                raise SchemaError(f"schema line {lineno}: bad token '{token}'")
            key, value = token.split("=", 1)
            if key not in ("buckets", "embed_dim"):
                raise SchemaError(f"schema line {lineno}: unknown option '{key}'")
            kwargs[key] = int(value)
        fields.append(FieldSpec(name=name, kind=kind, **kwargs))
    return PartySchema(party=party, fields=tuple(fields))


def load_schema(path, party: str) -> PartySchema:
    return parse_schema(Path(path).read_text(encoding="utf-8"), party)


def hash_feature(field_spec: FieldSpec, raw: str) -> int:
    """Bucket index for a categorical value: FNV-1a-64 of the field name,
    a 0x1F separator, and the raw value, reduced mod buckets."""
    if field_spec.kind != CATEGORICAL:
        raise ValidationError(f"field '{field_spec.name}' is not categorical")
    data = field_spec.name.encode("utf-8") + _SALT + raw.encode("utf-8")
    return fnv1a64(data) % field_spec.buckets


@dataclass
class NumericalStats:
    """Per-field standardization statistics (from the labeled segment only)."""

    mean: np.ndarray  # (n_num,)
    std: np.ndarray  # (n_num,), zeros replaced by 1


@dataclass
class FeatureBlock:
    """Encoded rows of one party: bucket indices plus standardized numericals."""

    cat: np.ndarray  # (n, n_cat) int64
    num: np.ndarray  # (n, n_num) float32

    def __post_init__(self):
        if self.cat.ndim != 2 or self.num.ndim != 2:
            raise ValidationError("FeatureBlock arrays must be 2-D")
        if self.cat.shape[0] != self.num.shape[0]:
            raise AlignmentError(
                f"cat has {self.cat.shape[0]} rows, num has {self.num.shape[0]}"
            )

    @property
    def n_rows(self) -> int:
        return self.cat.shape[0]

    def take(self, idx) -> "FeatureBlock":
        return FeatureBlock(cat=self.cat[idx], num=self.num[idx])

    @staticmethod
    def concat(blocks: Sequence["FeatureBlock"]) -> "FeatureBlock":
        return FeatureBlock(
            cat=np.concatenate([b.cat for b in blocks], axis=0),
            num=np.concatenate([b.num for b in blocks], axis=0),
        )

    @staticmethod
    def empty(n_cat: int, n_num: int) -> "FeatureBlock":
        return FeatureBlock(
            cat=np.zeros((0, n_cat), dtype=np.int64),
            num=np.zeros((0, n_num), dtype=F32),
        )


@dataclass
class Segment:
    """Aligned per-party rows, with labels where declared."""

    a: FeatureBlock
    b: FeatureBlock
    y: np.ndarray | None = None  # (n,) float32 in {0,1}

    def __post_init__(self):
        if self.a.n_rows != self.b.n_rows:
            raise AlignmentError(
                f"party A has {self.a.n_rows} rows, party B has {self.b.n_rows}"
            )
        if self.y is not None:
            if len(self.y) != self.a.n_rows:
                raise AlignmentError(
                    f"{len(self.y)} labels for {self.a.n_rows} rows"
                )
            bad = ~(np.isin(self.y, (0.0, 1.0)))
            if np.any(bad):
                raise ValidationError("labels must be 0 or 1")

    @property
    def n_rows(self) -> int:
        return self.a.n_rows

    def take(self, idx) -> "Segment":
        return Segment(
            a=self.a.take(idx),
            b=self.b.take(idx),
            y=None if self.y is None else self.y[idx],
        )


@dataclass
class PartitionedDataset:
    """Labeled, unlabeled, and test segments over two party schemas."""

    schema_a: PartySchema
    schema_b: PartySchema
    labeled: Segment
    unlabeled: Segment | None = None
    test: Segment | None = None
    rejected_lines: tuple[int, ...] = ()
    truth: dict = field(default_factory=dict)  # synthetic-only diagnostics


@dataclass
class Batch:
    """One aligned mini-batch."""

    a: FeatureBlock
    b: FeatureBlock
    y: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return self.a.n_rows


def batch_indices(
    n: int,
    batch_size: int,
    seed,
    *,
    shuffle: bool = True,
    drop_short: bool = False,
) -> list[np.ndarray]:
    """Deterministic batch index arrays over range(n).

    `seed` feeds numpy's default_rng, so both parties derive the identical
    order from the same key. drop_short removes a final batch of fewer than
    2 rows (matched-pair batches cannot be permuted otherwise).
    """
    if batch_size < 2:
        raise ValidationError(f"batch_size must be >= 2, got {batch_size}")
    if n == 0:
        return []
    if shuffle:
        order = np.random.default_rng(seed).permutation(n)
    else:
        order = np.arange(n)
    out = [order[i : i + batch_size] for i in range(0, n, batch_size)]
    if drop_short and len(out) and len(out[-1]) < 2:
        out.pop()
    return out


def batches(
    segment: Segment, batch_size: int, shuffle_seed, *, drop_short: bool = False
) -> Iterator[Batch]:
    """Deterministically shuffled aligned batches of a segment."""
    for idx in batch_indices(segment.n_rows, batch_size, shuffle_seed, drop_short=drop_short):
        yield Batch(
            a=segment.a.take(idx),
            b=segment.b.take(idx),
            y=None if segment.y is None else segment.y[idx],
        )


def validation_split(n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic 1/20 validation split: floor(n/20) rows held out."""
    n_val = n // 20
    order = np.random.default_rng(seed).permutation(n)
    val = np.sort(order[:n_val])
    train = np.sort(order[n_val:])
    return train, val


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _compute_stats(values: np.ndarray) -> NumericalStats:
    finite = np.where(np.isfinite(values), values, np.nan)
    mean = np.nanmean(finite, axis=0) if finite.size else np.zeros(values.shape[1])
    mean = np.where(np.isfinite(mean), mean, 0.0)
    std = np.nanstd(finite, axis=0) if finite.size else np.ones(values.shape[1])
    std = np.where(np.isfinite(std) & (std > 0), std, 1.0)
    return NumericalStats(mean=mean.astype(F32), std=std.astype(F32))


def _read_table(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header row required") from None
        rows = [row for row in reader]
    return header, rows


def _raw_columns(path, schema: PartySchema, label_column: str | None):
    """Read a CSV and return per-field raw string columns (+ labels)."""
    header, rows = _read_table(path)
    wanted = {f.name for f in schema.fields}
    if label_column is not None:
        wanted = wanted | {label_column}
    for col in header:
        if col not in wanted:
            raise SchemaError(f"{path}: unknown column '{col}'")
    col_index = {name: i for i, name in enumerate(header)}
    for f in schema.fields:
        if f.name not in col_index:
            raise SchemaError(f"{path}: missing column '{f.name}'")
    if label_column is not None and label_column not in col_index:
        raise SchemaError(f"{path}: missing label column '{label_column}'")
    n_cols = len(header)
    for lineno, row in enumerate(rows, start=2):
        if len(row) != n_cols:
            raise SchemaError(f"{path}: line {lineno} has {len(row)} cells, expected {n_cols}")
    columns = {
        f.name: [row[col_index[f.name]] for row in rows] for f in schema.fields
    }
    labels = None
    if label_column is not None:
        labels = [row[col_index[label_column]] for row in rows]
    return columns, labels, len(rows)


def _parse_labels(raw: list[str]) -> tuple[np.ndarray, list[int]]:
    """Parse 0/1 labels; return values plus 1-based data line numbers of
    rows whose label could not be parsed (those rows are rejected)."""
    values = np.empty(len(raw), dtype=F32)
    bad: list[int] = []
    for i, cell in enumerate(raw):
        try:
            v = float(cell)
        except ValueError:
            v = math.nan
        if v in (0.0, 1.0):
            values[i] = v
        else:
            values[i] = math.nan
            bad.append(i + 2)  # +2: header line plus 1-based indexing
    return values, bad


def _encode(
    schema: PartySchema, columns: dict[str, list[str]], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Hash the categorical columns and parse the numerical ones; returns the
    int64 bucket-index matrix and the raw float64 numerical matrix (NaN for
    an empty cell). Each distinct value of a column is hashed once, which
    gives the same indices as hashing every cell."""
    cat = np.zeros((n, len(schema.cat_fields)), dtype=np.int64)
    for j, f in enumerate(schema.cat_fields):
        col = columns[f.name]
        index = dict.fromkeys(col)
        for value in index:
            index[value] = hash_feature(f, value)
        cat[:, j] = [index[value] for value in col]
    raw_num = np.empty((n, len(schema.num_fields)), dtype=np.float64)
    for j, f in enumerate(schema.num_fields):
        parsed = []
        for i, cell in enumerate(columns[f.name]):
            try:
                parsed.append(float(cell) if cell != "" else math.nan)
            except ValueError:
                raise ValidationError(
                    f"field '{f.name}' line {i + 2}: not a number: '{cell}'"
                ) from None
        raw_num[:, j] = parsed
    return cat, raw_num


def _standardize(
    cat: np.ndarray, raw_num: np.ndarray, stats: NumericalStats
) -> FeatureBlock:
    """The encoded block, numericals standardized with the given statistics
    (a non-finite result, such as a missing value, becomes 0)."""
    standardized = (raw_num - stats.mean) / stats.std
    standardized = np.where(np.isfinite(standardized), standardized, 0.0)
    return FeatureBlock(cat=cat, num=standardized.astype(F32))


def load_csv(
    path_a,
    path_b,
    schema_a: PartySchema,
    schema_b: PartySchema,
    label_column: str,
    *,
    unlabeled: tuple | None = None,
    test: tuple | None = None,
) -> PartitionedDataset:
    """Load aligned per-party CSV pairs into a PartitionedDataset.

    (path_a, path_b) hold the labeled segment; `unlabeled` and `test` are
    optional (path_a, path_b) pairs. Rows correspond by line number; a
    row-count mismatch within a segment is an alignment error. The label
    column lives only in party A's labeled/test files. Rows whose label
    does not parse as 0/1 are dropped from both parties and their data line
    numbers recorded in rejected_lines. Numerical standardization uses the
    labeled segment's statistics for every segment.

    Each file is parsed and encoded once, and each distinct categorical
    value is hashed once per field and segment; the bucket indices equal
    those of hashing every cell with hash_feature.
    """
    cols_a, labels_raw, n_a = _raw_columns(path_a, schema_a, label_column)
    cols_b, _, n_b = _raw_columns(path_b, schema_b, None)
    if n_a != n_b:
        raise AlignmentError(
            f"labeled segment: party A has {n_a} rows, party B has {n_b} rows"
        )
    y, bad_lines = _parse_labels(labels_raw)
    rejected = set(bad_lines)
    keep = np.array([i for i in range(n_a) if (i + 2) not in rejected], dtype=np.int64)

    cat_a, raw_num_a = _encode(schema_a, cols_a, n_a)
    cat_b, raw_num_b = _encode(schema_b, cols_b, n_b)
    stats_a = _compute_stats(raw_num_a[keep])
    stats_b = _compute_stats(raw_num_b[keep])
    block_a = _standardize(cat_a, raw_num_a, stats_a)
    block_b = _standardize(cat_b, raw_num_b, stats_b)
    labeled = Segment(a=block_a.take(keep), b=block_b.take(keep), y=y[keep])

    def _load_pair(pair, with_labels: bool):
        ca, lab, na = _raw_columns(pair[0], schema_a, label_column if with_labels else None)
        cb, _, nb = _raw_columns(pair[1], schema_b, None)
        if na != nb:
            raise AlignmentError(
                f"segment {pair[0]}: party A has {na} rows, party B has {nb} rows"
            )
        ba = _standardize(*_encode(schema_a, ca, na), stats_a)
        bb = _standardize(*_encode(schema_b, cb, nb), stats_b)
        yy = None
        if with_labels:
            yv, bad = _parse_labels(lab)
            if bad:
                raise ValidationError(f"unparseable labels at lines {bad} in {pair[0]}")
            yy = yv
        return Segment(a=ba, b=bb, y=yy)

    unlabeled_seg = _load_pair(unlabeled, with_labels=False) if unlabeled else None
    test_seg = _load_pair(test, with_labels=True) if test else None
    return PartitionedDataset(
        schema_a=schema_a,
        schema_b=schema_b,
        labeled=labeled,
        unlabeled=unlabeled_seg,
        test=test_seg,
        rejected_lines=tuple(bad_lines),
    )


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

RULES = ("xor", "a_only", "b_only", "additive")


@dataclass(frozen=True)
class SyntheticSpec:
    """Declarative description of a synthetic federated dataset.

    Two scalar factors t_a and t_b drive the label; extra shared latents and
    private latents pad the views. `leak` mixes a trace of the *other*
    party's factor into each view: zero keeps the XOR rule marginally
    independent per party, small positive values give the unlabeled pairs
    label-relevant cross-view structure. `lift` sets label sharpness
    (1 = noiseless); the positive rate is exact in expectation for any rule.

    With buckets > 0 each of the d_a / d_b features becomes a categorical
    code: a noisy random projection of the latent vector quantized into
    `buckets` levels (embedding tables then have to learn each code's
    position on its field's scale, which is what pretraining on unlabeled
    pairs can provide and scarce labels cannot).
    """

    n_labeled: int
    n_unlabeled: int
    n_test: int
    d_a: int = 16
    d_b: int = 16
    rule: str = "xor"
    positive_rate: float = 0.5
    lift: float = 1.0
    leak: float = 0.0
    shared_dim: int = 2
    private_dim: int = 2
    noise: float = 0.0
    buckets: int = 0
    embed_dim: int = 8

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValidationError(f"unknown rule '{self.rule}'")
        if not (0.0 < self.positive_rate < 1.0):
            raise ValidationError(
                f"positive_rate must be in (0, 1), got {self.positive_rate}"
            )
        if not (0.0 <= self.lift <= 1.0):
            raise ValidationError("lift must be in [0, 1]")
        if self.d_a < 1 or self.d_b < 1:
            raise ValidationError("both parties need at least one feature")
        if self.buckets and self.buckets < 2:
            raise ValidationError("categorical mode needs buckets >= 2")


def _numeric_schema(party: str, d: int) -> PartySchema:
    fields = tuple(FieldSpec(name=f"{party.lower()}{j}", kind=NUMERICAL) for j in range(d))
    return PartySchema(party=party, fields=fields)


def _categorical_schema(party: str, d: int, buckets: int, embed_dim: int) -> PartySchema:
    fields = tuple(
        FieldSpec(name=f"{party.lower()}{j}", kind=CATEGORICAL,
                  buckets=buckets, embed_dim=embed_dim)
        for j in range(d)
    )
    return PartySchema(party=party, fields=fields)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    from math import erf

    return 0.5 * (1.0 + np.vectorize(erf)(x / math.sqrt(2.0)))


def _quantize_codes(scores: np.ndarray, buckets: int) -> np.ndarray:
    """Map each column of scores to codes 0..buckets-1 by Gaussian quantile."""
    std = scores.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    u = _normal_cdf(scores / std)
    return np.minimum((u * buckets).astype(np.int64), buckets - 1)


def _normal_quantile(q: float) -> float:
    """Inverse standard normal CDF (Acklam's rational approximation)."""
    if not (0.0 < q < 1.0):
        raise ValidationError("quantile must be in (0, 1)")
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if q < p_low:
        u = math.sqrt(-2.0 * math.log(q))
        return (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / (
            (((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0
        )
    if q > 1.0 - p_low:
        u = math.sqrt(-2.0 * math.log(1.0 - q))
        return -(((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / (
            (((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0
        )
    u = q - 0.5
    r = u * u
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * u / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def synth_federated(spec: SyntheticSpec, seed: int) -> PartitionedDataset:
    """Generate an aligned two-party dataset with a declared label rule.

    Views are random linear mixtures of [own factor, leak * other factor,
    shared latents, private latents] plus observation noise. Labels are
    drawn from the exact posterior, so the requested positive rate holds in
    expectation. The returned dataset carries a `truth` dict with the latent
    factors and posterior per segment for oracle-style tests.
    """
    n_total = spec.n_labeled + spec.n_unlabeled + spec.n_test
    if n_total == 0:
        raise ValidationError("empty dataset requested")
    rng_mix = np.random.default_rng([seed, 101])
    rng_lat = np.random.default_rng([seed, 102])
    rng_y = np.random.default_rng([seed, 103])

    lat_dim = 2 + spec.shared_dim + spec.private_dim
    mix_a = rng_mix.normal(0.0, 1.0, size=(lat_dim, spec.d_a)) / math.sqrt(lat_dim)
    mix_b = rng_mix.normal(0.0, 1.0, size=(lat_dim, spec.d_b)) / math.sqrt(lat_dim)

    t_a = rng_lat.normal(size=n_total)
    t_b = rng_lat.normal(size=n_total)
    shared = rng_lat.normal(size=(n_total, spec.shared_dim))
    priv_a = rng_lat.normal(size=(n_total, spec.private_dim))
    priv_b = rng_lat.normal(size=(n_total, spec.private_dim))

    lat_a = np.column_stack([t_a, spec.leak * t_b, shared, priv_a])
    lat_b = np.column_stack([spec.leak * t_a, t_b, shared, priv_b])
    x_a = lat_a @ mix_a + spec.noise * rng_lat.normal(size=(n_total, spec.d_a))
    x_b = lat_b @ mix_b + spec.noise * rng_lat.normal(size=(n_total, spec.d_b))

    p = spec.positive_rate
    if spec.rule == "xor":
        hi = p + spec.lift * min(p, 1.0 - p)
        lo = p - spec.lift * min(p, 1.0 - p)
        agree = np.sign(t_a) * np.sign(t_b) > 0
        posterior = np.where(agree, hi, lo)
    else:
        if spec.rule == "a_only":
            score = t_a
        elif spec.rule == "b_only":
            score = t_b
        else:
            score = (t_a + t_b) / math.sqrt(2.0)
        threshold = _normal_quantile(1.0 - p)
        above = score > threshold
        hi = p + spec.lift * (1.0 - p)
        lo = p * (1.0 - spec.lift)
        posterior = np.where(above, hi, lo)
    y = (rng_y.random(n_total) < posterior).astype(F32)

    if spec.buckets:
        codes_a = _quantize_codes(x_a, spec.buckets)
        codes_b = _quantize_codes(x_b, spec.buckets)
        schema_a = _categorical_schema("A", spec.d_a, spec.buckets, spec.embed_dim)
        schema_b = _categorical_schema("B", spec.d_b, spec.buckets, spec.embed_dim)

        def _segment(lo_i: int, hi_i: int, with_y: bool) -> Segment:
            sl = slice(lo_i, hi_i)
            a = FeatureBlock(cat=codes_a[sl], num=np.zeros((hi_i - lo_i, 0), dtype=F32))
            b = FeatureBlock(cat=codes_b[sl], num=np.zeros((hi_i - lo_i, 0), dtype=F32))
            return Segment(a=a, b=b, y=y[sl] if with_y else None)

    else:
        schema_a = _numeric_schema("A", spec.d_a)
        schema_b = _numeric_schema("B", spec.d_b)

        def _segment(lo_i: int, hi_i: int, with_y: bool) -> Segment:
            sl = slice(lo_i, hi_i)
            a = FeatureBlock(cat=np.zeros((hi_i - lo_i, 0), dtype=np.int64),
                             num=x_a[sl].astype(F32))
            b = FeatureBlock(cat=np.zeros((hi_i - lo_i, 0), dtype=np.int64),
                             num=x_b[sl].astype(F32))
            return Segment(a=a, b=b, y=y[sl] if with_y else None)

    n_l, n_u = spec.n_labeled, spec.n_unlabeled
    dataset = PartitionedDataset(
        schema_a=schema_a,
        schema_b=schema_b,
        labeled=_segment(0, n_l, True),
        unlabeled=_segment(n_l, n_l + n_u, False) if n_u else None,
        test=_segment(n_l + n_u, n_total, True) if spec.n_test else None,
    )
    for name, lo_i, hi_i in (
        ("labeled", 0, n_l),
        ("unlabeled", n_l, n_l + n_u),
        ("test", n_l + n_u, n_total),
    ):
        if hi_i > lo_i:
            dataset.truth[name] = {
                "t_a": t_a[lo_i:hi_i],
                "t_b": t_b[lo_i:hi_i],
                "posterior": posterior[lo_i:hi_i],
            }
    return dataset


def synth_categorical_pair(
    n: int,
    values: int,
    coupling,
    seed: int,
    *,
    embed_dim: int = 8,
    n_labeled: int = 0,
) -> PartitionedDataset:
    """Categorical probe data with a known joint distribution.

    Party A draws a value uniformly from range(values); with probability
    coupling(a) party B copies it, otherwise B draws uniformly. `coupling`
    is a float or a (low, high) pair graded linearly over A's values, so the
    exact pointwise mutual information varies across pairs. Encoded indices
    are the raw values (no hashing), keeping the joint distribution exact.
    """
    if values < 2:
        raise ValidationError("need at least two categorical values")
    if isinstance(coupling, (tuple, list)):
        lo, hi = coupling
        c = np.linspace(lo, hi, values)
    else:
        c = np.full(values, float(coupling))
    if np.any((c < 0) | (c > 1)):
        raise ValidationError("coupling probabilities must lie in [0, 1]")
    rng = np.random.default_rng([seed, 104])
    a = rng.integers(0, values, size=n)
    copy = rng.random(n) < c[a]
    b = np.where(copy, a, rng.integers(0, values, size=n))

    schema_a = PartySchema(
        party="A",
        fields=(FieldSpec("a_cat", CATEGORICAL, buckets=values, embed_dim=embed_dim),),
    )
    schema_b = PartySchema(
        party="B",
        fields=(FieldSpec("b_cat", CATEGORICAL, buckets=values, embed_dim=embed_dim),),
    )

    def _block(vals: np.ndarray) -> FeatureBlock:
        return FeatureBlock(
            cat=vals.reshape(-1, 1).astype(np.int64),
            num=np.zeros((len(vals), 0), dtype=F32),
        )

    labeled = Segment(
        a=_block(a[:n_labeled]),
        b=_block(b[:n_labeled]),
        y=np.zeros(n_labeled, dtype=F32),
    )
    unlabeled = Segment(a=_block(a[n_labeled:]), b=_block(b[n_labeled:]))
    return PartitionedDataset(
        schema_a=schema_a,
        schema_b=schema_b,
        labeled=labeled,
        unlabeled=unlabeled,
    )
