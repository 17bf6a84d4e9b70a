"""Dataset abstraction, synthetic blob generation, and Non-IID client partitioning."""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

SCHEMES = ("iid", "dirichlet", "single_class")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Fixed-length feature vectors with integer class labels."""

    name: str
    features: np.ndarray  # (N, d) float64
    labels: np.ndarray  # (N,) int64
    num_classes: int

    def __post_init__(self) -> None:
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if labels.shape != (features.shape[0],):
            raise ValueError(
                f"{features.shape[0]} feature rows but {labels.shape[0]} labels"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}); "
                f"found range [{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.name, self.features[idx], self.labels[idx], self.num_classes)


@dataclass(frozen=True)
class PartitionSpec:
    """How to split a dataset into federated clients."""

    scheme: str
    num_clients: int
    alpha: float | None = None
    seed: int = 0
    allow_class_reuse: bool = False
    min_samples: int = 1  # floor enforced by iid/dirichlet schemes

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r} (expected one of {SCHEMES})")
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.scheme == "dirichlet" and (self.alpha is None or self.alpha <= 0):
            raise ValueError("dirichlet partitioning requires alpha > 0")
        if self.min_samples < 0:
            raise ValueError("min_samples must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def allocate_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of ``total`` items by largest-remainder rounding.

    Never drops an item: the counts always sum to ``total``. Ties in the
    fractional remainders break toward lower indices for determinism.
    """
    proportions = np.asarray(proportions, dtype=np.float64)
    if total == 0:
        return np.zeros(len(proportions), dtype=np.int64)
    raw = proportions / proportions.sum() * total
    counts = np.floor(raw).astype(np.int64)
    remainder = total - int(counts.sum())
    if remainder > 0:
        frac = raw - counts
        order = np.lexsort((np.arange(len(frac)), -frac))
        counts[order[:remainder]] += 1
    return counts


def iid_partition(ds: Dataset, spec: PartitionSpec) -> list[list[int]]:
    """Shuffle and split as evenly as possible; disjoint cover of all indices."""
    if len(ds) == 0:
        raise ValueError("cannot partition an empty dataset")
    m = spec.num_clients
    if len(ds) < m * spec.min_samples:
        raise ValueError(
            f"{len(ds)} samples cannot give {m} clients at least {spec.min_samples} each"
        )
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(len(ds))
    sizes = allocate_counts(np.ones(m), len(ds))
    parts = []
    start = 0
    for size in sizes:
        parts.append(sorted(int(i) for i in order[start : start + size]))
        start += size
    return parts


def dirichlet_partition(ds: Dataset, spec: PartitionSpec) -> list[list[int]]:
    """Label-skew split: per class, client proportions are Dirichlet(alpha) draws.

    Lower alpha concentrates each class on fewer clients, producing both
    label and quantity skew. Proportions are redrawn (advancing the same
    seeded stream) until every client holds at least ``min_samples`` samples;
    after 1000 attempts samples are moved from the largest clients instead.
    Deterministic given (dataset, spec).
    """
    if len(ds) == 0:
        raise ValueError("cannot partition an empty dataset")
    m = spec.num_clients
    if len(ds) < m * spec.min_samples:
        raise ValueError(
            f"{len(ds)} samples cannot give {m} clients at least {spec.min_samples} each"
        )
    rng = np.random.default_rng(spec.seed)
    class_indices = [np.flatnonzero(ds.labels == c) for c in range(ds.num_classes)]

    for _ in range(1000):
        parts: list[list[int]] = [[] for _ in range(m)]
        for idx in class_indices:
            if idx.size == 0:
                continue
            shuffled = rng.permutation(idx)
            proportions = rng.dirichlet(np.full(m, float(spec.alpha)))
            counts = allocate_counts(proportions, idx.size)
            start = 0
            for client, count in enumerate(counts):
                parts[client].extend(int(i) for i in shuffled[start : start + count])
                start += count
        if min(len(p) for p in parts) >= spec.min_samples:
            return [sorted(p) for p in parts]

    # Deterministic fallback: top up starved clients from the largest ones.
    while min(len(p) for p in parts) < spec.min_samples:
        needy = min(range(m), key=lambda i: (len(parts[i]), i))
        donor = max(range(m), key=lambda i: (len(parts[i]), -i))
        parts[needy].append(parts[donor].pop())
    return [sorted(p) for p in parts]


def single_class_partition(ds: Dataset, spec: PartitionSpec) -> list[list[int]]:
    """One class per client, equal sample counts, disjoint indices.

    Client m holds samples of class ``m % C``. Every client is truncated to
    the smallest per-client allocation so all counts match; with more clients
    than classes the ``allow_class_reuse`` flag must be set and the clients
    sharing a class split its samples disjointly.
    """
    if len(ds) == 0:
        raise ValueError("cannot partition an empty dataset")
    m = spec.num_clients
    c = ds.num_classes
    if m > c and not spec.allow_class_reuse:
        raise ValueError(
            f"{m} clients need {m} distinct classes but the dataset has {c}; "
            "set allow_class_reuse to share classes"
        )
    if m > len(ds):
        raise ValueError(f"{len(ds)} samples cannot give {m} clients at least 1 each")
    rng = np.random.default_rng(spec.seed)
    shuffled = [rng.permutation(np.flatnonzero(ds.labels == cls)) for cls in range(c)]
    holders = [range(cls, m, c) for cls in range(c)]  # the clients holding each class

    slices: list[np.ndarray] = [np.zeros(0, dtype=np.int64)] * m
    for cls, clients in enumerate(holders):
        if not clients:
            continue
        share = len(shuffled[cls]) // len(clients)
        for pos, client in enumerate(clients):
            slices[client] = shuffled[cls][pos * share : (pos + 1) * share]

    quota = min(s.size for s in slices)
    if quota == 0:
        raise ValueError("a client's class allocation is empty; dataset too small")
    return [sorted(int(i) for i in s[:quota]) for s in slices]


def partition(ds: Dataset, spec: PartitionSpec) -> list[list[int]]:
    """Dispatch on the partition scheme."""
    if spec.scheme == "iid":
        return iid_partition(ds, spec)
    if spec.scheme == "dirichlet":
        return dirichlet_partition(ds, spec)
    return single_class_partition(ds, spec)


def make_blobs(
    num_classes: int,
    samples_per_class: int,
    dim: int,
    spread: float,
    seed: int,
    separation: float = 4.0,
) -> Dataset:
    """Isotropic Gaussian clusters with pairwise mean distance >= separation.

    Class c's mean sits on coordinate axis ``c % dim`` at radius
    ``separation * (1 + c // dim)``, so means form a scaled axis grid.
    Deterministic given the seed.
    """
    if num_classes < 1 or samples_per_class < 1 or dim < 1:
        raise ValueError("num_classes, samples_per_class and dim must be positive")
    if spread < 0:
        raise ValueError("spread must be >= 0")
    means = np.zeros((num_classes, dim))
    for c in range(num_classes):
        means[c, c % dim] = separation * (1 + c // dim)
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    rng = np.random.default_rng(seed)
    features = means[labels] + rng.normal(0.0, spread, size=(labels.size, dim))
    name = f"blobs_c{num_classes}_n{samples_per_class}_d{dim}"
    return Dataset(name, features, labels, num_classes)


# Labels are stored as int64, and the class count max(label) + 1 must fit too.
_MAX_LABEL = np.iinfo(np.int64).max - 1

# The characters of a plain numeric CSV body (see _is_plain).
_PLAIN = b"0123456789+-.eE, \t\r\n"


def _is_plain(text: str) -> bool:
    """Whether ``np.loadtxt`` reads ``text`` exactly as the row-by-row parse does.

    On text of ``_PLAIN`` characters alone, with no line longer than the csv
    field limit or int()'s digit limit, both accept the same cells and read
    the same values. Other text (quotes, letters, other whitespace, non-ASCII)
    takes its values from the row-by-row parse: numpy's integer parser, for
    one, reads some non-ASCII letters as digits.
    """
    if not text.isascii():
        return False
    data = text.encode("ascii")
    if data.translate(None, _PLAIN):
        return False
    codes = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero((codes == 10) | (codes == 13))
    longest = int(np.diff(ends, prepend=-1, append=codes.size).max()) - 1
    return longest <= min(csv.field_size_limit(), sys.get_int_max_str_digits() or csv.field_size_limit())


def _csv_rows(reader, path, skipped_lines: int = 0):
    """The reader's rows; a malformed file (say, an over-long field) raises ValueError naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}:{skipped_lines + reader.line_num}: {exc}") from exc


def _parse_rows(rows, path, width: int, limit: int) -> tuple[list[list[float]], list[int]]:
    """Row-by-row parse of the data rows (numbered from line 2); the first bad row raises naming its line."""
    features: list[list[float]] = []
    labels: list[int] = []
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
        try:
            values = [float(v) for v in row[:-1]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric feature value") from exc
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{path}:{lineno}: non-finite feature value")
        raw_label = row[-1].strip()
        try:
            label = int(raw_label)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-integer label {raw_label!r}") from exc
        if label < 0:
            raise ValueError(f"{path}:{lineno}: negative label {label}")
        if label >= limit:
            raise ValueError(f"{path}:{lineno}: label {label} outside [0, {limit})")
        features.append(values)
        labels.append(label)
    return features, labels


def load_csv(path, num_classes: int | None = None) -> Dataset:
    """Parse a dataset from CSV: header row, float feature columns, final integer label column.

    Row order is preserved. The data rows are parsed in one ``np.loadtxt``
    call and checked in bulk; only when that fails (or the text is not plain
    numeric CSV) are they parsed row by row, and a bad row raises naming its
    line. Feature cells must be finite, and cells ``np.loadtxt`` refuses
    (such as ``1_0``) raise naming the file. If ``num_classes`` is given,
    labels are validated against it, otherwise the class count is inferred
    as max(label) + 1.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(_csv_rows(reader, path), None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if len(header) < 2:
            raise ValueError(f"{path}: need at least one feature column and a label column")
        header_lines = reader.line_num
        text = fh.read()
    width = len(header)
    limit = _MAX_LABEL + 1 if num_classes is None else num_classes
    data, cause = None, None
    if text.strip("\r\n"):  # np.loadtxt warns on input without data rows
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
        and data["y"].max() < limit
        and _is_plain(text)
    ):
        features, labels = data["x"], data["y"]
    else:
        rows = _csv_rows(csv.reader(io.StringIO(text, newline="")), path, header_lines)
        features, labels = _parse_rows(rows, path, width, limit)
        if cause is not None:
            raise ValueError(f"{path}: {cause}") from cause
    if not len(labels):
        raise ValueError(f"{path}: no data rows")
    c = num_classes if num_classes is not None else int(np.max(labels)) + 1
    return Dataset(str(path), np.asarray(features), np.asarray(labels), c)


def split_train_test(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled split; the test side gets round(fraction * N) samples."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ds))
    n_test = int(round(test_fraction * len(ds)))
    n_test = min(max(n_test, 1), len(ds) - 1)
    return ds.subset(np.sort(order[n_test:])), ds.subset(np.sort(order[:n_test]))


def save_partition_manifest(parts: Sequence[Sequence[int]], path) -> None:
    """Write the client -> index-list mapping as JSON."""
    manifest = {str(i): [int(v) for v in part] for i, part in enumerate(parts)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
        fh.write("\n")

