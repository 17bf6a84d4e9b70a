"""Blob generation, CSV ingestion, and Non-IID partition invariants."""

import csv
import io
import json
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim import partition as partition_module
from fedsim.config import ConfigError
from fedsim.partition import (
    Dataset,
    PartitionSpec,
    _csv_rows,
    _parse_rows,
    allocate_counts,
    load_csv,
    make_blobs,
    partition,
    save_partition_manifest,
    split_train_test,
)
from helpers import label_entropy


def assert_disjoint(parts):
    seen = set()
    for part in parts:
        s = set(part)
        assert len(s) == len(part)
        assert not (seen & s)
        seen |= s
    return seen


class TestAllocateCounts:
    def test_sums_to_total(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = rng.dirichlet(np.ones(int(rng.integers(1, 10))))
            total = int(rng.integers(0, 500))
            counts = allocate_counts(p, total)
            assert counts.sum() == total
            assert (counts >= 0).all()

    def test_exact_proportions_unrounded(self):
        np.testing.assert_array_equal(allocate_counts(np.array([0.25, 0.75]), 4), [1, 3])


class TestMakeBlobs:
    def test_zero_spread_samples_sit_on_means(self):
        ds = make_blobs(3, 5, 4, spread=0.0, seed=1)
        for c in range(3):
            rows = ds.features[ds.labels == c]
            assert (rows == rows[0]).all()

    def test_determinism(self):
        a = make_blobs(4, 10, 6, 0.5, seed=42)
        b = make_blobs(4, 10, 6, 0.5, seed=42)
        c = make_blobs(4, 10, 6, 0.5, seed=43)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_small_spread_is_nearest_centroid_separable(self):
        ds = make_blobs(6, 40, 3, spread=0.05, seed=7, separation=4.0)
        centroids = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(6)])
        dists = ((ds.features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert (dists.argmin(axis=1) == ds.labels).all()

    def test_more_classes_than_dims(self):
        ds = make_blobs(10, 3, 2, spread=0.0, seed=0)
        means = np.stack([ds.features[ds.labels == c][0] for c in range(10)])
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.linalg.norm(means[i] - means[j]) >= 4.0 - 1e-9


class TestIid:
    def test_disjoint_cover(self):
        ds = make_blobs(3, 17, 2, 1.0, seed=3)
        parts = partition(ds, PartitionSpec("iid", num_clients=4, seed=5))
        assert assert_disjoint(parts) == set(range(len(ds)))

    def test_sizes_even(self):
        ds = make_blobs(2, 11, 2, 1.0, seed=3)
        parts = partition(ds, PartitionSpec("iid", num_clients=4, seed=5))
        sizes = sorted(len(p) for p in parts)
        assert sizes == [5, 5, 6, 6]


class TestDirichlet:
    def test_huge_alpha_approaches_even_split(self):
        counts = []
        for seed in range(20):
            ds = make_blobs(2, 100, 2, 1.0, seed=seed)
            parts = partition(ds, PartitionSpec("dirichlet", 2, alpha=1e6, seed=seed))
            for part in parts:
                labels = ds.labels[np.asarray(part)]
                counts.append((labels == 0).sum())
        # each client should hold about 50 of each class
        assert abs(np.mean(counts) - 50) < 3

    def test_single_client_gets_everything(self):
        ds = make_blobs(3, 10, 2, 1.0, seed=1)
        parts = partition(ds, PartitionSpec("dirichlet", 1, alpha=0.5, seed=1))
        assert parts == [sorted(range(len(ds)))]

    def test_low_alpha_is_more_heterogeneous(self):
        ds = make_blobs(10, 100, 2, 1.0, seed=0)
        def mean_entropy(alpha):
            values = []
            for seed in range(20):
                parts = partition(ds, PartitionSpec("dirichlet", 10, alpha=alpha, seed=seed))
                values.extend(label_entropy(ds.labels[np.asarray(p)]) for p in parts)
            return np.mean(values)
        assert mean_entropy(0.1) < mean_entropy(10.0)

    def test_disjoint_cover(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            ds = make_blobs(int(rng.integers(2, 6)), int(rng.integers(5, 40)), 2, 1.0, seed=int(rng.integers(1000)))
            spec = PartitionSpec("dirichlet", int(rng.integers(2, 6)), alpha=float(rng.uniform(0.1, 5)), seed=int(rng.integers(1000)))
            parts = partition(ds, spec)
            assert assert_disjoint(parts) == set(range(len(ds)))

    def test_min_samples_floor(self):
        ds = make_blobs(4, 50, 2, 1.0, seed=9)
        spec = PartitionSpec("dirichlet", 10, alpha=0.05, seed=11, min_samples=2)
        parts = partition(ds, spec)
        assert min(len(p) for p in parts) >= 2
        assert assert_disjoint(parts) == set(range(len(ds)))

    def test_top_up_fallback_after_every_draw_fails(self):
        # No one of this spec's 1,000 draws gives every client 5 samples, so the largest clients top up the rest.
        ds = Dataset(np.zeros((20, 2)), np.repeat([0, 1], 10), 2)
        spec = PartitionSpec("dirichlet", 4, alpha=0.01, seed=3, min_samples=5)
        parts = partition(ds, spec)
        assert assert_disjoint(parts) == set(range(20))
        assert [len(p) for p in parts] == [5, 5, 5, 5]
        assert partition(ds, spec) == parts

    def test_a_class_with_no_samples_draws_nothing(self):
        # A class no row holds takes no Dirichlet draw, so it cannot shift the later classes' draws.
        ds = make_blobs(3, 20, 2, 1.0, seed=5)
        skipped = Dataset(ds.features, ds.labels + 1, 4)
        spec = PartitionSpec("dirichlet", 4, alpha=0.5, seed=7)
        assert partition(skipped, spec) == partition(ds, spec)

    def test_determinism(self):
        ds = make_blobs(5, 30, 2, 1.0, seed=2)
        spec = PartitionSpec("dirichlet", 5, alpha=0.3, seed=21)
        assert partition(ds, spec) == partition(ds, spec)

    def test_empty_dataset_rejected(self):
        ds = make_blobs(2, 1, 2, 1.0, seed=0).subset([])
        with pytest.raises(ValueError):
            partition(ds, PartitionSpec("dirichlet", 2, alpha=1.0))


class TestSingleClass:
    def test_two_classes_two_clients(self):
        ds = make_blobs(2, 20, 2, 1.0, seed=5)
        parts = partition(ds, PartitionSpec("single_class", 2, seed=0))
        assert set(ds.labels[np.asarray(parts[0])]) == {0}
        assert set(ds.labels[np.asarray(parts[1])]) == {1}
        assert assert_disjoint(parts) == set(range(len(ds)))

    def test_truncates_to_smallest_class(self):
        features = np.zeros((180, 2))
        labels = np.array([0] * 100 + [1] * 80)
        ds = Dataset(features, labels, 2)
        parts = partition(ds, PartitionSpec("single_class", 2, seed=0))
        assert len(parts[0]) == len(parts[1]) == 80

    def test_labels_constant_within_client(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            c = int(rng.integers(2, 7))
            ds = make_blobs(c, int(rng.integers(5, 30)), 2, 1.0, seed=int(rng.integers(1000)))
            m = int(rng.integers(2, c + 1))
            parts = partition(ds, PartitionSpec("single_class", m, seed=3))
            for part in parts:
                assert len(set(ds.labels[np.asarray(part)])) == 1

    def test_class_reuse_splits_disjointly(self):
        ds = make_blobs(8, 200, 2, 1.0, seed=7)
        spec = PartitionSpec("single_class", 10, seed=1, allow_class_reuse=True)
        parts = partition(ds, spec)
        assert_disjoint(parts)
        # shared classes split 200 into 100+100; everyone truncates to 100
        assert all(len(p) == 100 for p in parts)
        for client, part in enumerate(parts):
            assert set(ds.labels[np.asarray(part)]) == {client % 8}

    def test_more_clients_than_samples_rejected_up_front(self):
        # the count alone is too large for the data: no per-client work before the error
        ds = make_blobs(2, 10, 2, 1.0, seed=8)
        spec = PartitionSpec("single_class", 10**12, allow_class_reuse=True)
        with pytest.raises(ValueError, match=f"^20 samples cannot give {10**12} clients at least 1 each$"):
            partition(ds, spec)

    def test_more_clients_than_classes_needs_flag(self):
        ds = make_blobs(2, 10, 2, 1.0, seed=8)
        with pytest.raises(ValueError, match="allow_class_reuse"):
            partition(ds, PartitionSpec("single_class", 3))


class TestDispatchAndManifest:
    def test_dispatch(self):
        ds = make_blobs(3, 12, 2, 1.0, seed=1)
        for scheme, kwargs in (
            ("iid", {}),
            ("dirichlet", {"alpha": 0.5}),
            ("single_class", {}),
        ):
            parts = partition(ds, PartitionSpec(scheme, 3, seed=2, **kwargs))
            assert len(parts) == 3

    def test_submodule_import_binds_the_module(self):
        # The package re-exports no name that shadows this submodule.
        import fedsim.partition as P

        assert P.Dataset is Dataset and P.partition is partition

    def test_manifest_round_trip(self, tmp_path):
        ds = make_blobs(3, 12, 2, 1.0, seed=1)
        parts = partition(ds, PartitionSpec("iid", 3, seed=2))
        path = tmp_path / "partition.json"
        save_partition_manifest(parts, path)
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert [manifest[str(i)] for i in range(len(manifest))] == parts


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,label\n1.5,2.0,0\n-3.25,4.0,1\n0.0,0.5,1\n")
        ds = load_csv(path, num_classes=2)
        assert len(ds) == 3
        assert ds.features.shape == (3, 2)
        assert ds.num_classes == 2
        np.testing.assert_array_equal(ds.features[1], [-3.25, 4.0])
        np.testing.assert_array_equal(ds.labels, [0, 1, 1])

    @pytest.mark.filterwarnings("error")  # np.loadtxt's "input contained no data" must not leak
    @pytest.mark.parametrize("body", ["", "\n", "\r\n\r\n"])
    def test_header_only_rejected(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text("x0,x1,label\n" + body, newline="")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path, num_classes=2)

    @pytest.mark.parametrize("blob", [b"x0,\xff,label\n1.0,2.0,0\n", b"x0,x1,label\n1.0,2.0,0\n1.0,\xff,1\n"],
                             ids=["header", "body"])
    def test_non_utf8_text_names_the_file(self, tmp_path, blob):
        path = tmp_path / "latin1.csv"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=r"latin1\.csv: not UTF-8 text \('utf-8' codec can't decode byte 0xff"):
            load_csv(path, num_classes=2)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,label\n1.0,5\n")
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            load_csv(path, num_classes=3)

    def test_non_integer_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,label\n1.0,0\n2.0,oops\n")
        with pytest.raises(ValueError, match=":3"):
            load_csv(path, num_classes=2)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x0,x1,label\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(ValueError, match=":3"):
            load_csv(path, num_classes=2)

    @pytest.mark.parametrize(
        "row, where",
        [("nan,0", ":3: non-finite feature value"), ("-inf,0", ":3: non-finite feature value"),
         ("1e400,0", ":3: non-finite feature value"),
         # cells float() or int() take but np.loadtxt refuses: the message names the file
         ("1_0,0", ": could not convert"), ("1.0,1_0", ": could not convert"),
         # cells np.loadtxt takes but the row-by-row parse refuses: a separator
         # control character, a letter numpy's integer parser reads as a digit,
         # and a label past int()'s 4,300-digit limit
         ("1\x1c,0", ":3: non-numeric feature value"), ("1.0,1\u01fe", ":3: non-integer label"),
         ("1.0," + "0" * 5000 + "1", ":3: non-integer label")],
        ids=["nan", "-inf", "1e400", "1_0", "label 1_0", "x1c", "u01fe", "5001 digits"],
    )
    def test_rejected_cells_name_the_path(self, tmp_path, row, where):
        path = tmp_path / "bad.csv"
        path.write_text(f"x0,label\n1.0,0\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_csv(path, num_classes=11)  # the row-by-row parse reads label 1_0 as 10
        assert str(info.value).startswith(f"{path}{where}")

    def test_matches_reference_on_a_generated_table(self, tmp_path):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(300, 5)) * 10.0 ** rng.integers(-300, 300, size=(300, 5))
        features[0, 0] = -0.0
        labels = rng.integers(0, 7, size=300)
        path = tmp_path / "table.csv"
        table = np.column_stack([features, labels])
        np.savetxt(path, table, fmt=["%.17g"] * 5 + ["%d"], delimiter=",", header="a,b,c,d,e,y", comments="")
        ds, ref = load_csv(path, num_classes=7), reference_load_csv(path, num_classes=7)
        assert ds.features.tobytes() == ref.features.tobytes()
        np.testing.assert_array_equal(ds.labels, labels)
        assert ds.num_classes == ref.num_classes == 7


def reference_load_csv(path, num_classes):
    """The row-by-row parser ``load_csv`` replaced (before non-finite cells were refused)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        width = len(header)
        features, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
            values = [float(v) for v in row[:-1]]
            label = int(row[-1].strip())
            if not 0 <= label < num_classes:
                raise ValueError(f"{path}:{lineno}: label {label} outside [0, {num_classes})")
            features.append(values)
            labels.append(label)
    if not features:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.asarray(features), np.asarray(labels), num_classes)


# Cells that reach each parse branch: numbers, non-finite and non-numeric
# text, labels past int64, quoting, NUL bytes and a field past the csv
# module's size limit.
CSV_CELLS = st.sampled_from(
    ["1", "-2.5", "0", " 3 ", "nan", "-inf", "x", "", '"', '"a,b"', "\x00", "label",
     "9" * 20, "-" + "9" * 20, "1e400", "7" * 131073]
) | st.text(max_size=4)
NUMBERS = st.sampled_from(["1", "-2.5", "0", " 3 ", "nan", "1e400"])
LABELS = st.sampled_from(["0", "1", "7", " 2", "-1", "x", "9" * 19, "9" * 20, "1" * 5000])
# Numbers with a character before or after them, or short strings of number
# characters: whitespace, quotes, an underscore, a separator control character
# and non-ASCII letters and digits mixed in.
ODD_CHARS = "\t\"_\x1c\u01fe\u0661\u2003"
NUMERIC_CELLS = st.tuples(
    st.sampled_from(["", "", " ", "0", *ODD_CHARS]),
    st.sampled_from(["1", "-2.5", "0", "3e2", ".5", "+7", "12", "-0"]),
    st.sampled_from(["", "", " ", "0", *ODD_CHARS]),
).map("".join) | st.text(alphabet="0123456789+-.eE " + ODD_CHARS, max_size=5)


@st.composite
def csv_texts(draw):
    """Arbitrary text, rows of arbitrary or numeric-looking cells, or a table of numeric features and a label column."""
    kind = draw(st.sampled_from(["text", "cells", "numeric", "table"]))
    if kind == "text":
        return draw(st.text(max_size=200))
    if kind == "cells":
        rows = draw(st.lists(st.lists(CSV_CELLS, max_size=4), max_size=5))
    elif kind == "numeric":
        width = draw(st.integers(1, 3))
        cells = st.lists(NUMERIC_CELLS, min_size=width + 1, max_size=width + 1)
        rows = [[f"x{i}" for i in range(width)] + ["label"]] + draw(st.lists(cells, max_size=4))
    else:
        width = draw(st.integers(1, 3))
        row = st.tuples(st.lists(NUMBERS, min_size=width, max_size=width), LABELS).map(lambda r: r[0] + [r[1]])
        rows = [[f"x{i}" for i in range(width)] + ["label"]] + draw(st.lists(row, min_size=1, max_size=4))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(",".join(row) for row in rows)


class TestLoadCsvProperties:
    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(text=csv_texts(), num_classes=st.integers(2, 5))
    def test_arbitrary_text_raises_only_value_errors(self, text, num_classes):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_text(text, encoding="utf-8", newline="")
            try:
                load_csv(path, num_classes=num_classes)
            except (ValueError, ConfigError) as exc:
                assert str(path) in str(exc)

    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(text=csv_texts(), num_classes=st.integers(2, 5))
    def test_accepted_files_match_the_reference(self, text, num_classes):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_text(text, encoding="utf-8", newline="")
            try:
                ds = load_csv(path, num_classes=num_classes)
            except ValueError:
                return
            ref = reference_load_csv(path, num_classes=num_classes)
            assert ds.features.tobytes() == ref.features.tobytes()
            assert ds.features.shape == ref.features.shape
            np.testing.assert_array_equal(ds.labels, ref.labels)
            assert ds.num_classes == ref.num_classes


def previous_is_plain(text: str) -> bool:
    """The plain-text test ``previous_load_csv`` makes on the decoded body."""
    if not text.isascii():
        return False
    data = text.encode("ascii")
    if data.translate(None, b"0123456789+-.eE, \t\r\n"):
        return False
    codes = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero((codes == 10) | (codes == 13))
    longest = int(np.diff(ends, prepend=-1, append=codes.size).max()) - 1
    return longest <= min(csv.field_size_limit(), sys.get_int_max_str_digits() or csv.field_size_limit())


def previous_load_csv(path, num_classes):
    """``load_csv`` as it was before it read bytes first: a text-mode read and ``np.loadtxt`` over a ``StringIO``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(_csv_rows(reader, path), None)
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from exc
        header_lines = reader.line_num
    if header is None:
        raise ValueError(f"{path}: empty file")
    if len(header) < 2:
        raise ValueError(f"{path}: need at least one feature column and a label column")
    width = len(header)
    data, cause = None, None
    if text.strip("\r\n"):
        row = np.dtype([("x", np.float64, (width - 1,)), ("y", np.int64)])
        try:
            data = np.loadtxt(
                io.StringIO(text, newline=""), dtype=row, delimiter=",", quotechar='"', comments=None, ndmin=1
            )
        except ValueError as exc:
            cause = exc
    if (
        data is not None
        and np.isfinite(data["x"]).all()
        and data["y"].min() >= 0
        and data["y"].max() < num_classes
        and previous_is_plain(text)
    ):
        features, labels = data["x"], data["y"]
    else:
        rows = _csv_rows(csv.reader(io.StringIO(text, newline="")), path, header_lines)
        features, labels = _parse_rows(rows, path, width, num_classes)
        if cause is not None:
            raise ValueError(f"{path}: {cause}") from cause
    if not len(labels):
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.asarray(features), np.asarray(labels), num_classes)


def outcome(load, path, num_classes):
    """What ``load`` gives: the dataset's bytes, or the exception's type and message; and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = load(path, num_classes)
            result = (ds.features.tobytes(), ds.features.shape, ds.labels.tobytes(), ds.num_classes)
        except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


BAD_BYTES = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"])  # invalid or cut-off sequences


@st.composite
def finite_tables(draw):
    """A header and rows of finite features and labels 0 or 1, each line ended by "\\n" or "\\r\\n"."""
    width = draw(st.integers(1, 3))
    cell = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-99, 99).map(str)
    row = st.tuples(st.lists(cell, min_size=width, max_size=width), st.sampled_from(["0", "1"]))
    rows = [[f"x{i}" for i in range(width)] + ["label"]]
    rows += [x + [y] for x, y in draw(st.lists(row, min_size=1, max_size=4))]
    return "".join(",".join(r) + draw(st.sampled_from(["\n", "\r\n"])) for r in rows)


@st.composite
def csv_bytes(draw):
    """A ``csv_texts()`` or finite table's UTF-8 bytes.

    They come as they are, or with a BOM, a non-UTF-8 byte, only "\\r" line ends or only their header line.
    """
    data = draw(csv_texts() | finite_tables()).encode("utf-8")
    kind = draw(st.sampled_from(["utf-8", "bom", "bad header", "bad body", "cr only", "header only"]))
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    header, end, body = data.partition(b"\n")
    if kind == "bad header":
        at = draw(st.integers(0, len(header)))
        return header[:at] + draw(BAD_BYTES) + header[at:] + end + body
    if kind == "bad body":
        at = draw(st.integers(0, len(body)))
        return header + b"\n" + body[:at] + draw(BAD_BYTES) + body[at:]
    if kind == "cr only":
        return data.replace(b"\r\n", b"\r").replace(b"\n", b"\r")
    if kind == "header only":
        return header + draw(st.sampled_from([b"", b"\n", b"\r\n\r\n", b"\r", b"\n\r\n"]))
    return data


def table_bytes(rows: int, row_end: bytes = b"\n", features: int = 32) -> bytes:
    """A plain numeric table with a header: ``rows`` rows of ``features`` features and a label of 16 classes."""
    rng = np.random.default_rng(rows)
    out = io.BytesIO()
    header = ",".join([f"f{j}" for j in range(features)] + ["label"])
    np.savetxt(out, np.column_stack([rng.normal(size=(rows, features)), rng.integers(0, 16, rows)]),
               fmt=["%.5f"] * features + ["%d"], delimiter=",", header=header, comments="", newline=row_end.decode())
    return out.getvalue()


class TestLoadCsvMatchesThePreviousLoader:
    """Bytes first, the loader accepts and refuses what the text-mode one did, with the same values and messages."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(data=csv_bytes(), num_classes=st.integers(2, 5))
    @example(data="x0,label\n1,0\n\u0661,1\n".encode(), num_classes=2)  # float() reads the digit; numpy names it
    def test_same_outcome_on_any_bytes(self, data, num_classes):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(data)
            assert outcome(load_csv, path, num_classes) == outcome(previous_load_csv, path, num_classes)

    @pytest.mark.parametrize(
        "edit",
        [
            "plain", "crlf", "cr only", "bad byte past the first 8 KiB", "bad byte past 16 KiB", "non-ASCII header",
            "label line past the digit limit across a block", "feature cell of 4,300 digits",
            "1_0 far down", "letter far down",
        ],
    )
    def test_same_outcome_on_files_past_one_block(self, tmp_path, edit):
        data = table_bytes(400, b"\r\n" if edit == "crlf" else b"\r" if edit == "cr only" else b"\n")  # ~110 KB
        cut = data.rfind(b"\n", 0, 64_000) + 1  # a line start: a line of 4,000 bytes put here crosses byte 65,536
        if edit.startswith("bad byte"):
            at = 9_000 if "8 KiB" in edit else 17_000
            data = data[:at] + b"\xff" + data[at:]
        elif edit == "non-ASCII header":
            data = data.replace(b"f0,", "f\u00e9,".encode(), 1)
        elif edit == "label line past the digit limit across a block":
            data = data[:cut] + b"1.0" + b",0" * 31 + b"," + b"0" * 4_400 + b"1\n" + data[cut:]
        elif edit == "feature cell of 4,300 digits":
            data = data[:cut] + b"0" * 4_299 + b"1" + b",0" * 31 + b",1\n" + data[cut:]
        elif edit == "1_0 far down":
            data = data[:cut] + b"1_0" + b",0" * 32 + b"\n" + data[cut:]
        elif edit == "letter far down":
            data = data[:cut] + b"x" + b",0" * 32 + b"\n" + data[cut:]
        path = tmp_path / "table.csv"
        path.write_bytes(data)
        assert outcome(load_csv, path, 16) == outcome(previous_load_csv, path, 16)


def test_traced_peak_of_a_cross_device_sized_file(tmp_path):
    # xdevice_supervised's file: 16,000 rows of 32 features and a label, about 4.4 MB. The text-mode loader
    # traced about 26.7 MB (a UCS4 StringIO buffer and file-sized temporaries); the bytes-first one about 9.2 MB.
    path = tmp_path / "train.csv"
    path.write_bytes(table_bytes(16_000))
    tracemalloc.start()
    try:
        ds = load_csv(path, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.shape == (16_000, 32)
    assert peak <= 14e6


def counted(monkeypatch, name):
    """Count the calls of ``fedsim.partition``'s ``name`` and return the list they append to."""
    calls, real = [], getattr(partition_module, name)
    monkeypatch.setattr(partition_module, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("features, passes", [(32, 1), (600, 2)])  # lines of about 300 and 5,000 bytes
def test_a_plain_file_is_parsed_once_however_wide(tmp_path, monkeypatch, features, passes):
    # Only a line past int()'s 4,300-digit limit makes the plainness check measure its cells, in a second pass.
    path = tmp_path / "wide.csv"
    path.write_bytes(table_bytes(200, features=features))
    expected = outcome(previous_load_csv, path, 16)
    runs = counted(monkeypatch, "_longest_run")

    def no_row_by_row_parse(*_):
        raise AssertionError("parsed row by row")

    monkeypatch.setattr(partition_module, "_parse_rows", no_row_by_row_parse)
    assert outcome(load_csv, path, 16) == expected
    assert len(runs) == passes


@pytest.mark.parametrize("column", [0, 600])
def test_a_cell_past_the_digit_limit_is_parsed_row_by_row(tmp_path, monkeypatch, column):
    # A 4,301-digit label is one int() refuses; a feature cell that long float() reads, but only the
    # row-by-row parse is known to match it.
    data = table_bytes(200, features=600)
    cut = data.rfind(b"\n", 0, 64_000) + 1
    row = [b"0"] * 600 + [b"1"]
    row[column] = b"0" * 4_300 + b"1"
    path = tmp_path / "wide.csv"
    path.write_bytes(data[:cut] + b",".join(row) + b"\n" + data[cut:])
    parses = counted(monkeypatch, "_parse_rows")
    assert outcome(load_csv, path, 16) == outcome(previous_load_csv, path, 16)
    assert len(parses) == 1  # load_csv's: previous_load_csv calls the name this module imported


class TestSplitTrainTest:
    def test_disjoint_and_complete(self):
        ds = make_blobs(3, 20, 2, 1.0, seed=4)
        train, test = split_train_test(ds, 0.25, seed=1)
        assert len(train) + len(test) == len(ds)
        assert len(test) == 15

    def test_deterministic(self):
        ds = make_blobs(3, 20, 2, 1.0, seed=4)
        a = split_train_test(ds, 0.2, seed=9)
        b = split_train_test(ds, 0.2, seed=9)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)
