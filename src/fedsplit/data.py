"""Vertically partitioned tabular data: schemas, hashed categorical encoding,
aligned per-party segments, and synthetic dataset generators.

Two parties hold different feature columns of the same samples, aligned by
row index. Categorical values are hashed with FNV-1a-64 (salted by field
name) into a fixed number of buckets; numericals are standardized with
statistics of the labeled segment only. One reader takes every party file
of every segment: it checks the header and cell counts, then encodes the
file once, hashing each distinct value once per field, which gives the same
bucket indices as hashing every cell. write_csv writes the same file layout
that load_csv reads. Encoded rows are carried as a FeatureBlock: an int64
index matrix for the categorical fields plus a float32 matrix for the
numerical fields, columns in schema order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

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
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise SchemaError(f"schema line {lineno}: non-integer {key} in '{line}'") from None
        fields.append(FieldSpec(name=name, kind=kind, **kwargs))
    return PartySchema(party=party, fields=tuple(fields))


def load_schema(path, party: str) -> PartySchema:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: schema file is not UTF-8: {exc}") from None
    return parse_schema(text, party)


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
    std = np.where(np.isfinite(std), std, 1.0).astype(F32)
    # tested after the cast: a std below float32's smallest subnormal rounds to 0
    std = np.where(std > 0, std, F32(1.0))
    return NumericalStats(mean=mean.astype(F32), std=std)


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


def _read_party(path, schema: PartySchema, label_column: str | None):
    """Read and encode one party's CSV file of a segment. The header must
    name exactly the schema fields (and `label_column`, if given), in any
    order, and every row have as many cells. Returns the int64 bucket
    indices and the raw float64 numericals (NaN for an empty cell), both in
    schema order, and the raw label cells (None without a label column)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: unreadable CSV: {exc}") from None
    if header is None:
        raise SchemaError(f"{path}: empty file, header row required")
    wanted = [f.name for f in schema.fields]
    if label_column is not None:
        wanted.append(label_column)
    for j, col in enumerate(header):
        if col not in wanted:
            raise SchemaError(f"{path}: unknown column '{col}'")
        if header.index(col) != j:
            raise SchemaError(f"{path}: repeated column '{col}'")
    for col in wanted:
        if col not in header:
            kind = "label column" if col == label_column else "column"
            raise SchemaError(f"{path}: missing {kind} '{col}'")
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise SchemaError(
                f"{path}: line {lineno} has {len(row)} cells, expected {len(header)}"
            )
    n = len(rows)
    columns = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
    del rows  # the cells live on in the columns

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
                    f"{path}: field '{f.name}' line {i + 2}: not a number: '{cell}'"
                ) from None
        raw_num[:, j] = parsed
    return cat, raw_num, columns.get(label_column)


def _standardize(
    cat: np.ndarray, raw_num: np.ndarray, stats: NumericalStats
) -> FeatureBlock:
    """The encoded block, numericals standardized with the given statistics
    (a non-finite float32 result, such as a missing value or one beyond
    float32 range, becomes 0)."""
    with np.errstate(over="ignore"):
        standardized = ((raw_num - stats.mean) / stats.std).astype(F32)
    standardized[~np.isfinite(standardized)] = 0.0
    return FeatureBlock(cat=cat, num=standardized)


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
    does not parse as 0/1 are dropped from both parties of the labeled
    segment and their data line numbers recorded in rejected_lines; in the
    test segment they are an error. Numerical standardization uses the
    labeled segment's statistics for every segment.

    Every file goes through one per-party reader that hashes each distinct
    categorical value once per field; the bucket indices equal those of
    hashing every cell with hash_feature.
    """

    def read(name, pair, labels: bool):
        a = _read_party(pair[0], schema_a, label_column if labels else None)
        b = _read_party(pair[1], schema_b, None)
        if len(a[0]) != len(b[0]):
            raise AlignmentError(
                f"{name} segment ({pair[0]}): party A has {len(a[0])} rows, "
                f"party B has {len(b[0])} rows"
            )
        return a, b

    def segment(parties, y, rows=slice(None)):
        (cat_a, num_a, _), (cat_b, num_b, _) = parties
        return Segment(a=_standardize(cat_a[rows], num_a[rows], stats_a),
                       b=_standardize(cat_b[rows], num_b[rows], stats_b), y=y)

    labeled = read("labeled", (path_a, path_b), labels=True)
    (_, num_a, labels), (_, num_b, _) = labeled
    y, bad_lines = _parse_labels(labels)
    keep = np.flatnonzero(~np.isnan(y))
    stats_a, stats_b = _compute_stats(num_a[keep]), _compute_stats(num_b[keep])
    dataset = PartitionedDataset(
        schema_a=schema_a,
        schema_b=schema_b,
        labeled=segment(labeled, y[keep], keep),
        rejected_lines=tuple(bad_lines),
    )
    if unlabeled:
        dataset.unlabeled = segment(read("unlabeled", unlabeled, labels=False), None)
    if test:
        parties = read("test", test, labels=True)
        y_test, bad = _parse_labels(parties[0][2])
        if bad:
            raise ValidationError(f"unparseable labels at lines {bad} in {test[0]}")
        dataset.test = segment(parties, y_test)
    return dataset


def write_csv(dataset: PartitionedDataset, out, label_column: str) -> None:
    """Write `dataset` under directory `out` in the layout load_csv reads:
    schema_a.txt and schema_b.txt, then <segment>_a.csv and <segment>_b.csv
    for each present segment. Columns are in schema order, and party A's
    labeled and test files end with the label column. A categorical cell is
    the bucket index, a numerical one the float's repr."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for party, schema in (("a", dataset.schema_a), ("b", dataset.schema_b)):
        (out / f"schema_{party}.txt").write_text(schema.canonical_text(), encoding="utf-8")

    def dump(path, schema, block, y=None):
        cat, num = iter(block.cat.T.tolist()), iter(block.num.T.tolist())
        columns = [[str(v) for v in next(cat)] if f.kind == CATEGORICAL
                   else [repr(v) for v in next(num)] for f in schema.fields]
        header = [f.name for f in schema.fields]
        if y is not None:
            header.append(label_column)
            columns.append([str(int(v)) for v in y.tolist()])
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(zip(*columns))

    for name in ("labeled", "unlabeled", "test"):
        segment = getattr(dataset, name)
        if segment is not None:
            dump(out / f"{name}_a.csv", dataset.schema_a, segment.a, segment.y)
            dump(out / f"{name}_b.csv", dataset.schema_b, segment.b)


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
        threshold = NormalDist().inv_cdf(1.0 - p)
        above = score > threshold
        hi = p + spec.lift * (1.0 - p)
        lo = p * (1.0 - spec.lift)
        posterior = np.where(above, hi, lo)
    y = (rng_y.random(n_total) < posterior).astype(F32)

    if spec.buckets:
        schema_a = _categorical_schema("A", spec.d_a, spec.buckets, spec.embed_dim)
        schema_b = _categorical_schema("B", spec.d_b, spec.buckets, spec.embed_dim)
        cat_a, cat_b = _quantize_codes(x_a, spec.buckets), _quantize_codes(x_b, spec.buckets)
        num_a = num_b = np.zeros((n_total, 0), dtype=F32)
    else:
        schema_a = _numeric_schema("A", spec.d_a)
        schema_b = _numeric_schema("B", spec.d_b)
        cat_a = cat_b = np.zeros((n_total, 0), dtype=np.int64)
        num_a, num_b = x_a.astype(F32), x_b.astype(F32)

    n_l, n_u = spec.n_labeled, spec.n_unlabeled
    segments, truth = {}, {}
    for name, sl in (
        ("labeled", slice(0, n_l)),
        ("unlabeled", slice(n_l, n_l + n_u)),
        ("test", slice(n_l + n_u, n_total)),
    ):
        if sl.stop > sl.start or name == "labeled":
            segments[name] = Segment(
                a=FeatureBlock(cat=cat_a[sl], num=num_a[sl]),
                b=FeatureBlock(cat=cat_b[sl], num=num_b[sl]),
                y=None if name == "unlabeled" else y[sl],
            )
        if sl.stop > sl.start:
            truth[name] = {"t_a": t_a[sl], "t_b": t_b[sl], "posterior": posterior[sl]}
    return PartitionedDataset(schema_a=schema_a, schema_b=schema_b, **segments, truth=truth)

