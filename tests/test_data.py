"""Schemas, hashing, CSV ingestion, batching, and synthetic generators."""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fedsplit.data
from fedsplit.data import (
    FeatureBlock,
    FieldSpec,
    PartySchema,
    Segment,
    SyntheticSpec,
    batch_indices,
    fnv1a64,
    hash_feature,
    load_csv,
    load_schema,
    parse_schema,
    synth_federated,
    validation_split,
    write_csv,
    _compute_stats,
    _parse_labels,
)
from fedsplit.errors import AlignmentError, FedSplitError, SchemaError, ValidationError
from fedsplit.metrics import auc
from oracles import synth_categorical_pair


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


SCHEMA_A = PartySchema(
    party="A",
    fields=(
        FieldSpec("game", "categorical", buckets=100, embed_dim=4),
        FieldSpec("spend", "numerical"),
    ),
)
SCHEMA_B = PartySchema(
    party="B",
    fields=(FieldSpec("channel", "categorical", buckets=50, embed_dim=4),),
)


class TestSchema:
    def test_post_embed_dim(self):
        assert SCHEMA_A.post_embed_dim == 5
        assert SCHEMA_B.post_embed_dim == 4

    def test_parse_round_trip(self):
        parsed = parse_schema(SCHEMA_A.canonical_text(), "A")
        assert parsed == SCHEMA_A

    def test_bad_kind_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema("x weird\n", "A")

    def test_buckets_minimum(self):
        with pytest.raises(SchemaError):
            FieldSpec("x", "categorical", buckets=1, embed_dim=2)

    def test_option_that_is_not_an_integer_names_its_line(self):
        line = "x categorical buckets=abc embed_dim=4"
        with pytest.raises(SchemaError, match=f"line 2: non-integer buckets in '{line}'"):
            parse_schema(f"party A\n{line}\n", "A")


# lines drawn from the schema grammar's own words as well as arbitrary text
_schema_words = st.sampled_from([
    "party", "A", "B", "x", "y", "categorical", "numerical", "#", "=",
    "buckets=", "embed_dim=", "buckets=4", "embed_dim=2", "buckets=1", "buckets=-3",
    "embed_dim=abc", "buckets=1_0", "size=3",
])
_schema_lines = st.one_of(
    st.text(max_size=30),
    st.lists(st.one_of(_schema_words, st.text(max_size=6)), max_size=5).map(" ".join),
)


@given(st.lists(_schema_lines, max_size=6).map("\n".join))
@settings(max_examples=300, deadline=None)
def test_parse_schema_on_arbitrary_text_parses_or_raises_typed(text):
    try:
        parse_schema(text, "A")
    except FedSplitError:
        pass


class TestHashFeature:
    def test_deterministic(self):
        field = SCHEMA_A.fields[0]
        assert hash_feature(field, "game_7") == hash_feature(field, "game_7")

    def test_known_fnv_vector(self):
        # standard FNV-1a 64 test vector
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_range(self):
        field = FieldSpec("f", "categorical", buckets=97, embed_dim=2)
        idx = [hash_feature(field, f"value_{i}") for i in range(10_000)]
        assert min(idx) >= 0 and max(idx) < 97

    def test_field_salt_separates_fields(self):
        f1 = FieldSpec("f1", "categorical", buckets=10_000, embed_dim=2)
        f2 = FieldSpec("f2", "categorical", buckets=10_000, embed_dim=2)
        same = sum(hash_feature(f1, str(i)) == hash_feature(f2, str(i)) for i in range(500))
        assert same < 5

    def test_bucket_load_is_balanced(self):
        # simulation oracle: empirical histogram over 10k random strings
        rng = np.random.default_rng(0)
        field = FieldSpec("f", "categorical", buckets=97, embed_dim=2)
        values = ["".join(chr(97 + c) for c in rng.integers(0, 26, size=12)) for _ in range(10_000)]
        counts = np.bincount([hash_feature(field, v) for v in values], minlength=97)
        assert counts.max() / counts.min() < 2.0

    def test_empty_string_is_a_value(self):
        field = SCHEMA_A.fields[0]
        assert 0 <= hash_feature(field, "") < field.buckets


class TestLoadCsv:
    def test_two_row_toy_files(self, tmp_path):
        a = write(tmp_path / "a.csv", "game,spend,label\nchess,1.0,1\ngo,2.0,0\n")
        b = write(tmp_path / "b.csv", "channel\nsocial\nsearch\n")
        ds = load_csv(a, b, SCHEMA_A, SCHEMA_B, "label")
        assert ds.labeled.n_rows == 2
        np.testing.assert_array_equal(ds.labeled.y, [1.0, 0.0])

    def test_row_count_mismatch_names_both_counts(self, tmp_path):
        a = write(tmp_path / "a.csv", "game,spend,label\nx,1,1\ny,2,0\nz,3,1\n")
        b = write(tmp_path / "b.csv", "channel\nsocial\nsearch\n")
        with pytest.raises(AlignmentError, match="3.*2"):
            load_csv(a, b, SCHEMA_A, SCHEMA_B, "label")

    def test_unknown_column_rejected(self, tmp_path):
        a = write(tmp_path / "a.csv", "game,spend,label,extra\nx,1,1,9\n")
        b = write(tmp_path / "b.csv", "channel\nsocial\n")
        with pytest.raises(SchemaError, match="extra"):
            load_csv(a, b, SCHEMA_A, SCHEMA_B, "label")

    def test_repeated_column_rejected(self, tmp_path):
        a = write(tmp_path / "a.csv", "game,game,spend,label\nx,y,1,1\n")
        b = write(tmp_path / "b.csv", "channel\nsocial\n")
        with pytest.raises(SchemaError, match=r"a\.csv: repeated column 'game'"):
            load_csv(a, b, SCHEMA_A, SCHEMA_B, "label")

    def test_missing_schema_column_rejected(self, tmp_path):
        a = write(tmp_path / "a.csv", "game,label\nx,1\n")
        b = write(tmp_path / "b.csv", "channel\nsocial\n")
        with pytest.raises(SchemaError, match="spend"):
            load_csv(a, b, SCHEMA_A, SCHEMA_B, "label")

    def test_categorical_encoding_deterministic_across_loads(self, tmp_path):
        a = write(tmp_path / "a.csv", "game,spend,label\ngame_7,1.0,1\ngame_9,2.0,0\n")
        b = write(tmp_path / "b.csv", "channel\nsocial\nsearch\n")
        first = load_csv(a, b, SCHEMA_A, SCHEMA_B, "label")
        second = load_csv(a, b, SCHEMA_A, SCHEMA_B, "label")
        np.testing.assert_array_equal(first.labeled.a.cat, second.labeled.a.cat)
        np.testing.assert_array_equal(first.labeled.a.num, second.labeled.a.num)

    def test_unparseable_labels_dropped_with_line_numbers(self, tmp_path):
        a = write(tmp_path / "a.csv",
                  "game,spend,label\nx,1,1\ny,2,oops\nz,3,0\nw,4,2\n")
        b = write(tmp_path / "b.csv", "channel\ns1\ns2\ns3\ns4\n")
        ds = load_csv(a, b, SCHEMA_A, SCHEMA_B, "label")
        assert ds.labeled.n_rows == 2
        assert ds.rejected_lines == (3, 5)

    def test_quoted_values_parse(self, tmp_path):
        a = write(tmp_path / "a.csv", 'game,spend,label\n"hello, world",1.0,1\nplain,2.0,0\n')
        b = write(tmp_path / "b.csv", "channel\nsocial\nsearch\n")
        ds = load_csv(a, b, SCHEMA_A, SCHEMA_B, "label")
        assert ds.labeled.n_rows == 2

    def test_missing_numerical_becomes_zero_after_standardization(self, tmp_path):
        a = write(tmp_path / "a.csv", "game,spend,label\nx,1.0,1\ny,,0\nz,3.0,1\n")
        b = write(tmp_path / "b.csv", "channel\ns\ns\ns\n")
        ds = load_csv(a, b, SCHEMA_A, SCHEMA_B, "label")
        assert ds.labeled.a.num[1, 0] == 0.0

    def test_standardization_uses_labeled_stats_for_test_segment(self, tmp_path):
        a = write(tmp_path / "a.csv", "game,spend,label\nx,0.0,1\ny,2.0,0\n")
        b = write(tmp_path / "b.csv", "channel\ns\ns\n")
        ta = write(tmp_path / "ta.csv", "game,spend,label\nq,4.0,1\n")
        tb = write(tmp_path / "tb.csv", "channel\ns\n")
        ds = load_csv(a, b, SCHEMA_A, SCHEMA_B, "label", test=(ta, tb))
        # labeled stats: mean 1, std 1 -> test value 4 standardizes to 3
        np.testing.assert_allclose(ds.test.a.num[0, 0], 3.0, rtol=1e-6)

    def test_value_beyond_float32_range_becomes_zero(self, tmp_path):
        # labeled spend 0 and 1e-30 standardize a test value of 1e10 to about
        # 2e40, finite in float64 but not in float32
        a = write(tmp_path / "a.csv", "game,spend,label\nx,0,1\ny,1e-30,0\n")
        b = write(tmp_path / "b.csv", "channel\ns\ns\n")
        ta = write(tmp_path / "ta.csv", "game,spend,label\nq,1e10,1\n")
        tb = write(tmp_path / "tb.csv", "channel\ns\n")
        ds = load_csv(a, b, SCHEMA_A, SCHEMA_B, "label", test=(ta, tb))
        assert ds.test.a.num.tolist() == [[0.0]]
        assert ds.labeled.a.num[:, 0].tolist() == [-1.0, 1.0]

    def test_std_that_rounds_to_zero_in_float32_is_one(self, tmp_path):
        # spend 0 and 1e-46 have std 5e-47, which is 0 as a float32
        a = write(tmp_path / "a.csv", "game,spend,label\nx,0,1\ny,1e-46,0\n")
        b = write(tmp_path / "b.csv", "channel\ns\ns\n")
        with np.errstate(divide="raise", invalid="raise"):
            ds = load_csv(a, b, SCHEMA_A, SCHEMA_B, "label")
        assert ds.labeled.a.num[:, 0].tolist() == [0.0, 0.0]


def reference_load_csv(path_a, path_b, schema_a, schema_b, label_column, *,
                       unlabeled=None, test=None):
    """Per-cell oracle for load_csv: every categorical cell is hashed with
    hash_feature, and the labeled segment is encoded twice, once for its raw
    numericals and once with the statistics taken from them. Returns the
    segments by name and the rejected line numbers."""

    def columns(path):
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        return {name: [row[i] for row in rows] for i, name in enumerate(header)}, len(rows)

    def encode(schema, cols, n, stats):
        cat = np.zeros((n, len(schema.cat_fields)), dtype=np.int64)
        for j, f in enumerate(schema.cat_fields):
            cat[:, j] = [hash_feature(f, value) for value in cols[f.name]]
        raw = np.full((n, len(schema.num_fields)), np.nan, dtype=np.float64)
        for j, f in enumerate(schema.num_fields):
            for i, cell in enumerate(cols[f.name]):
                if cell != "":
                    raw[i, j] = float(cell)
        if stats is None:
            stats = _compute_stats(raw)
        with np.errstate(over="ignore"):
            standardized = ((raw - stats.mean) / stats.std).astype(np.float32)
        standardized = np.where(np.isfinite(standardized), standardized, np.float32(0.0))
        return FeatureBlock(cat=cat, num=standardized), raw

    cols_a, n = columns(path_a)
    cols_b, _ = columns(path_b)
    y, bad = _parse_labels(cols_a[label_column])
    keep = np.array([i for i in range(n) if (i + 2) not in bad], dtype=np.int64)
    _, raw_a = encode(schema_a, cols_a, n, None)
    _, raw_b = encode(schema_b, cols_b, n, None)
    stats_a = _compute_stats(raw_a[keep])
    stats_b = _compute_stats(raw_b[keep])
    block_a, _ = encode(schema_a, cols_a, n, stats_a)
    block_b, _ = encode(schema_b, cols_b, n, stats_b)
    segments = {"labeled": Segment(a=block_a.take(keep), b=block_b.take(keep), y=y[keep])}
    for name, pair in (("unlabeled", unlabeled), ("test", test)):
        if pair is not None:
            pa, m = columns(pair[0])
            pb, _ = columns(pair[1])
            ya = _parse_labels(pa[label_column])[0] if label_column in pa else None
            segments[name] = Segment(a=encode(schema_a, pa, m, stats_a)[0],
                                     b=encode(schema_b, pb, m, stats_b)[0], y=ya)
    return segments, tuple(bad)


def assert_matches_reference(paths, schema_a, schema_b):
    """load_csv equals the per-cell oracle byte for byte on every array."""
    kwargs = {"unlabeled": paths["unlabeled"], "test": paths["test"]}
    ds = load_csv(*paths["labeled"], schema_a, schema_b, "label", **kwargs)
    ref, rejected = reference_load_csv(*paths["labeled"], schema_a, schema_b, "label",
                                       **kwargs)
    assert ds.rejected_lines == rejected
    for name, want in ref.items():
        got = getattr(ds, name)
        for party in ("a", "b"):
            for kind in ("cat", "num"):
                g, w = getattr(getattr(got, party), kind), getattr(getattr(want, party), kind)
                assert g.dtype == w.dtype and g.shape == w.shape, (name, party, kind)
                assert g.tobytes() == w.tobytes(), (name, party, kind)
        assert (got.y is None) == (want.y is None), name
        if want.y is not None:
            assert got.y.tobytes() == want.y.tobytes(), name


INGEST_SCHEMA_A = PartySchema(
    party="A",
    fields=(
        FieldSpec("desk", "categorical", buckets=24, embed_dim=2),
        FieldSpec("spend", "numerical"),
        FieldSpec("user", "categorical", buckets=1 << 16, embed_dim=2),
        FieldSpec("age", "numerical"),
    ),
)
INGEST_SCHEMA_B = PartySchema(
    party="B",
    fields=(
        FieldSpec("site", "categorical", buckets=7, embed_dim=2),
        FieldSpec("clicks", "numerical"),
    ),
)


def write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def write_segments(directory, segments):
    """Write {segment: (rows_a, rows_b)} CSV pairs; A's labeled and test
    files carry the label column last."""
    directory = Path(directory)
    header_b = [f.name for f in INGEST_SCHEMA_B.fields]
    paths = {"unlabeled": None, "test": None}
    for name, (rows_a, rows_b) in segments.items():
        header_a = [f.name for f in INGEST_SCHEMA_A.fields]
        if name != "unlabeled":
            header_a.append("label")
        paths[name] = (write_rows(directory / f"{name}_a.csv", header_a, rows_a),
                       write_rows(directory / f"{name}_b.csv", header_b, rows_b))
    return paths


INGEST_FIXTURE = {
    "labeled": (
        [["d1", "1.5", "u1", "30", "1"],
         ["d1", "", "u2", "41", "0"],            # missing numerical
         ["d2", "2.5", "hello, world", "", "1"],  # quoted comma
         ["", "0.5", "u1", "25", "oops"],         # empty cell, rejected label
         ["d2", "4.0", "Ünïcødé 東京", "33", "0"],  # non-ASCII
         ["d1", "3.0", "u1", "52", "2"],          # rejected label
         ["d3", "-1.0", "u9", "19", "1"]],
        [["s1", "3"], ["s1", ""], ["s2", "5"], ["s1", "1"], ["", "2"], ["s1", "9"],
         ["s3", "4"]],
    ),
    "unlabeled": (
        [["d1", "7.0", "u1", ""], ["d4", "", "", "60"], ["d1", "1.0", "hello, world", "28"]],
        [["s1", ""], ["s9", "8"], ["s1", "1"]],
    ),
    "test": (
        [["d2", "2.0", "u2", "44", "1"], ["d2", "", "東京", "31", "0"]],
        [["s2", "6"], ["", ""]],
    ),
}


class TestIngestMatchesPerCellHashing:
    def test_fixture_matches_reference(self, tmp_path):
        paths = write_segments(tmp_path, INGEST_FIXTURE)
        ds = load_csv(*paths["labeled"], INGEST_SCHEMA_A, INGEST_SCHEMA_B, "label",
                      unlabeled=paths["unlabeled"], test=paths["test"])
        assert ds.rejected_lines == (5, 7)
        assert_matches_reference(paths, INGEST_SCHEMA_A, INGEST_SCHEMA_B)

    def test_each_distinct_value_is_hashed_once_per_field_and_segment(
        self, tmp_path, monkeypatch
    ):
        paths = write_segments(tmp_path, INGEST_FIXTURE)
        calls = []
        real = fedsplit.data.fnv1a64
        monkeypatch.setattr(fedsplit.data, "fnv1a64", lambda b: calls.append(b) or real(b))
        load_csv(*paths["labeled"], INGEST_SCHEMA_A, INGEST_SCHEMA_B, "label",
                 unlabeled=paths["unlabeled"], test=paths["test"])
        expected = 0
        for rows_a, rows_b in INGEST_FIXTURE.values():
            for schema, rows in ((INGEST_SCHEMA_A, rows_a), (INGEST_SCHEMA_B, rows_b)):
                for j, f in enumerate(schema.fields):
                    if f.kind == "categorical":
                        expected += len({row[j] for row in rows})
        assert len(calls) == expected

    def test_malformed_numerical_names_field_and_line(self, tmp_path):
        segments = {"labeled": ([["d1", "1.0", "u1", "30", "1"],
                                 ["d1", "2.0", "u1", "forty", "0"]],
                                [["s1", "1"], ["s1", "2"]])}
        paths = write_segments(tmp_path, segments)
        with pytest.raises(ValidationError, match="field 'age' line 3: not a number: 'forty'"):
            load_csv(*paths["labeled"], INGEST_SCHEMA_A, INGEST_SCHEMA_B, "label")


numerical_cells = st.one_of(
    st.just(""), st.floats(-1e6, 1e6, allow_nan=False).map(repr)
)


@st.composite
def segment_rows(draw, labeled):
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(st.text(max_size=6), min_size=1, max_size=4))
    # drawing from a small pool makes values repeat, as they do in real columns
    cat = st.one_of(st.sampled_from(pool), st.text(max_size=6))
    label = [st.sampled_from(["0", "1", "0.0", "x", ""])] if labeled else []
    rows_a = draw(st.lists(st.tuples(cat, numerical_cells, cat, numerical_cells, *label),
                           min_size=n, max_size=n))
    rows_b = draw(st.lists(st.tuples(cat, numerical_cells), min_size=n, max_size=n))
    return [list(r) for r in rows_a], [list(r) for r in rows_b]


# a numerical column with no value in the labeled rows has no statistics;
# numpy says so, and load_csv then standardizes with mean 0 and std 1
@pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:Degrees of freedom <= 0:RuntimeWarning")
@given(segment_rows(labeled=True), segment_rows(labeled=False), segment_rows(labeled=True))
@settings(max_examples=60, deadline=None)
def test_ingest_matches_per_cell_hashing_on_arbitrary_text(labeled, unlabeled, test):
    for row in test[0]:
        row[-1] = "1"  # a test segment with an unparseable label is refused
    with tempfile.TemporaryDirectory() as directory:
        paths = write_segments(directory, {"labeled": labeled, "unlabeled": unlabeled,
                                           "test": test})
        assert_matches_reference(paths, INGEST_SCHEMA_A, INGEST_SCHEMA_B)


_csv_cells = st.sampled_from([b"x", b"1", b"0", b"", b"nan", b"1e999", b"\xff", b'"', b",",
                              b"\n", b"\r", b"\x00", b"game", b"label"])
_csv_bytes = st.one_of(st.binary(max_size=120), st.lists(_csv_cells, max_size=24).map(b"".join))
_VALID_CSV = {"a": b"game,spend,label\nx,1,1\ny,2,0\n", "b": b"channel\ns\nt\n"}


@pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:Degrees of freedom <= 0:RuntimeWarning")
@given(st.sampled_from(["a", "b"]), st.booleans(), _csv_bytes)
@settings(max_examples=300, deadline=None)
def test_load_csv_on_arbitrary_bytes_loads_or_raises_typed(party, with_header, data):
    """One party's file is arbitrary bytes, after its real header or not."""
    header = _VALID_CSV[party].split(b"\n")[0] + b"\n" if with_header else b""
    with tempfile.TemporaryDirectory() as directory:
        paths = {}
        for p, valid in _VALID_CSV.items():
            paths[p] = Path(directory) / f"{p}.csv"
            paths[p].write_bytes(header + data if p == party else valid)
        pair = (paths["a"], paths["b"])
        try:
            load_csv(*pair, SCHEMA_A, SCHEMA_B, "label", unlabeled=pair, test=pair)
        except FedSplitError:
            pass


class TestBatches:
    def test_sizes_with_short_final(self):
        sizes = [len(b) for b in batch_indices(10, 4, seed=[1])]
        assert sizes == [4, 4, 2]

    def test_same_seed_same_order(self):
        one = np.concatenate(batch_indices(100, 16, seed=[7]))
        two = np.concatenate(batch_indices(100, 16, seed=[7]))
        np.testing.assert_array_equal(one, two)

    def test_batch_size_below_two_rejected(self):
        with pytest.raises(ValidationError):
            batch_indices(10, 1, seed=[0])

    def test_empty_segment_gives_empty_sequence(self):
        assert batch_indices(0, 4, seed=[0]) == []

    def test_drop_short_removes_single_row_tail(self):
        sizes = [len(b) for b in batch_indices(9, 4, seed=[1], drop_short=True)]
        assert sizes == [4, 4]
        sizes = [len(b) for b in batch_indices(10, 4, seed=[1], drop_short=True)]
        assert sizes == [4, 4, 2]

    def test_shuffle_preserves_pairing(self):
        # tag rows with their identity on both sides and verify co-indexing
        n = 50
        ids = np.arange(n, dtype=np.float32).reshape(-1, 1)
        seg = Segment(
            a=FeatureBlock(cat=np.zeros((n, 0), np.int64), num=ids),
            b=FeatureBlock(cat=np.zeros((n, 0), np.int64), num=ids.copy()),
        )
        for idx in batch_indices(n, 8, seed=[3]):
            batch = seg.take(idx)
            np.testing.assert_array_equal(batch.a.num, batch.b.num)


class TestValidationSplit:
    def test_exact_twentieth(self):
        train, val = validation_split(1000, seed=[0])
        assert len(val) == 50 and len(train) == 950

    def test_disjoint_and_complete(self):
        train, val = validation_split(103, seed=[1])
        combined = np.sort(np.concatenate([train, val]))
        np.testing.assert_array_equal(combined, np.arange(103))

    def test_deterministic(self):
        a = validation_split(64, seed=[9])
        b = validation_split(64, seed=[9])
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_small_n_gives_empty_val(self):
        train, val = validation_split(19, seed=[0])
        assert len(val) == 0 and len(train) == 19


class TestSynthFederated:
    def test_segment_sizes_and_alignment(self):
        spec = SyntheticSpec(n_labeled=100, n_unlabeled=200, n_test=50)
        ds = synth_federated(spec, seed=0)
        assert ds.labeled.n_rows == 100
        assert ds.unlabeled.n_rows == 200
        assert ds.test.n_rows == 50
        assert ds.labeled.y is not None and ds.unlabeled.y is None

    def test_positive_rate_within_one_percent_at_100k(self):
        spec = SyntheticSpec(n_labeled=100_000, n_unlabeled=0, n_test=0,
                             rule="xor", positive_rate=0.3, lift=0.8)
        ds = synth_federated(spec, seed=1)
        rate = float(ds.labeled.y.mean())
        assert abs(rate - 0.3) < 0.01

    def test_infeasible_positive_rate_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n_labeled=10, n_unlabeled=0, n_test=0, positive_rate=1.5)

    def test_a_only_rule_is_learnable_from_a_and_opaque_to_b(self):
        spec = SyntheticSpec(n_labeled=20_000, n_unlabeled=0, n_test=0,
                             rule="a_only", lift=1.0, leak=0.0, noise=0.1)
        ds = synth_federated(spec, seed=2)
        t_a = ds.truth["labeled"]["t_a"]
        assert auc(t_a, ds.labeled.y).auc > 0.99
        # any fixed function of X_B is uninformative
        rng = np.random.default_rng(0)
        probe = ds.labeled.b.num @ rng.normal(size=ds.labeled.b.num.shape[1])
        assert abs(auc(probe, ds.labeled.y).auc - 0.5) < 0.03

    def test_noiseless_xor_federated_bayes_is_perfect_and_parties_blind(self):
        spec = SyntheticSpec(n_labeled=20_000, n_unlabeled=0, n_test=0,
                             rule="xor", lift=1.0, leak=0.0, noise=0.0,
                             positive_rate=0.5)
        ds = synth_federated(spec, seed=3)
        posterior = ds.truth["labeled"]["posterior"]
        assert auc(posterior, ds.labeled.y).auc == 1.0
        # per-party posteriors are constant: single-side scores hover at 0.5
        t_a = ds.truth["labeled"]["t_a"]
        t_b = ds.truth["labeled"]["t_b"]
        assert abs(auc(t_a, ds.labeled.y).auc - 0.5) < 0.02
        assert abs(auc(t_b, ds.labeled.y).auc - 0.5) < 0.02

    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(n_labeled=100, n_unlabeled=50, n_test=20)
        one = synth_federated(spec, seed=5)
        two = synth_federated(spec, seed=5)
        np.testing.assert_array_equal(one.labeled.a.num, two.labeled.a.num)
        np.testing.assert_array_equal(one.labeled.y, two.labeled.y)


class TestSynthCategoricalPair:
    def test_independent_pairs(self):
        ds = synth_categorical_pair(5000, values=6, coupling=0.0, seed=0)
        a = ds.unlabeled.a.cat[:, 0]
        b = ds.unlabeled.b.cat[:, 0]
        match_rate = float((a == b).mean())
        assert abs(match_rate - 1 / 6) < 0.03

    def test_full_coupling_copies(self):
        ds = synth_categorical_pair(1000, values=4, coupling=1.0, seed=1)
        np.testing.assert_array_equal(ds.unlabeled.a.cat, ds.unlabeled.b.cat)

    def test_graded_coupling_varies_with_value(self):
        ds = synth_categorical_pair(60_000, values=4, coupling=(0.1, 0.9), seed=2)
        a = ds.unlabeled.a.cat[:, 0]
        b = ds.unlabeled.b.cat[:, 0]
        low = float((b[a == 0] == 0).mean())
        high = float((b[a == 3] == 3).mean())
        assert high > low + 0.4


class TestRoundTrip:
    def test_encode_is_idempotent_over_write_read_cycle(self, tmp_path):
        # encode(decode(encode(x))) == encode(x): dump an encoded dataset's
        # raw values back to CSV and re-encode; hashed indices agree
        a = write(tmp_path / "a.csv", "game,spend,label\nalpha,1.0,1\nbeta,-1.0,0\n")
        b = write(tmp_path / "b.csv", "channel\nsocial\nsearch\n")
        first = load_csv(a, b, SCHEMA_A, SCHEMA_B, "label")
        second = load_csv(a, b, SCHEMA_A, SCHEMA_B, "label")
        assert first.labeled.a.cat.tobytes() == second.labeled.a.cat.tobytes()
        assert first.labeled.a.num.tobytes() == second.labeled.a.num.tobytes()
        assert first.labeled.b.cat.tobytes() == second.labeled.b.cat.tobytes()

    def test_write_csv_writes_what_load_csv_reads(self, tmp_path):
        ds = synth_federated(SyntheticSpec(n_labeled=30, n_unlabeled=20, n_test=10,
                                           d_a=2, d_b=3), seed=1)
        write_csv(ds, tmp_path, "label")
        pair = lambda name: (tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv")  # noqa: E731
        schemas = [load_schema(tmp_path / f"schema_{p}.txt", p.upper()) for p in "ab"]
        assert schemas == [ds.schema_a, ds.schema_b]
        loaded = load_csv(*pair("labeled"), *schemas, "label",
                          unlabeled=pair("unlabeled"), test=pair("test"))
        # every float32 cell reads back exactly, standardized with the labeled stats
        for party in ("a", "b"):
            raw = {name: getattr(getattr(ds, name), party).num.astype(np.float64)
                   for name in ("labeled", "unlabeled", "test")}
            stats = _compute_stats(raw["labeled"])
            for name in raw:
                want = (raw[name] - stats.mean) / stats.std
                got = getattr(getattr(loaded, name), party).num
                assert got.tobytes() == want.astype(np.float32).tobytes(), (name, party)
        assert loaded.labeled.y.tobytes() == ds.labeled.y.tobytes()
        assert loaded.test.y.tobytes() == ds.test.y.tobytes()
        assert loaded.unlabeled.y is None


@given(st.integers(2, 200), st.integers(2, 32), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_batches_partition_all_rows(n, batch_size, seed):
    chunks = batch_indices(n, batch_size, seed=[seed])
    combined = np.sort(np.concatenate(chunks))
    np.testing.assert_array_equal(combined, np.arange(n))
