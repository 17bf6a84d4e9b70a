"""Dataset abstraction, synthetic blob generation, and Non-IID client partitioning."""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

@dataclass(frozen=True, eq=False)
class Dataset:
    """Fixed-length feature vectors with integer class labels."""

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

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)


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


def _split(order: np.ndarray, counts: np.ndarray):
    """``order`` cut into consecutive runs of ``counts[i]`` items, one at a time."""
    stop = 0
    for n in counts.tolist():
        stop += n
        yield order[stop - n : stop]


def _require_floor(ds: Dataset, m: int, floor: int) -> None:
    if len(ds) < m * floor:
        raise ValueError(f"{len(ds)} samples cannot give {m} clients at least {floor} each")


def _iid(ds: Dataset, spec: PartitionSpec) -> list[list[int]]:
    """Shuffle and split as evenly as possible; disjoint cover of all indices."""
    m = spec.num_clients
    _require_floor(ds, m, spec.min_samples)
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(len(ds))
    return [sorted(int(i) for i in part) for part in _split(order, allocate_counts(np.ones(m), len(ds)))]


def _dirichlet(ds: Dataset, spec: PartitionSpec) -> list[list[int]]:
    """Label-skew split: per class, client proportions are Dirichlet(alpha) draws.

    Lower alpha concentrates each class on fewer clients, producing both
    label and quantity skew. Proportions are redrawn (advancing the same
    seeded stream) until every client holds at least ``min_samples`` samples;
    after 1000 attempts samples are moved from the largest clients instead.
    Deterministic given (dataset, spec).
    """
    m = spec.num_clients
    _require_floor(ds, m, spec.min_samples)
    rng = np.random.default_rng(spec.seed)
    class_indices = [np.flatnonzero(ds.labels == c) for c in range(ds.num_classes)]

    for _ in range(1000):
        parts: list[list[int]] = [[] for _ in range(m)]
        for idx in class_indices:
            if idx.size == 0:
                continue
            shuffled = rng.permutation(idx)
            proportions = rng.dirichlet(np.full(m, float(spec.alpha)))
            for part, chunk in zip(parts, _split(shuffled, allocate_counts(proportions, idx.size))):
                part.extend(int(i) for i in chunk)
        if min(len(p) for p in parts) >= spec.min_samples:
            return [sorted(p) for p in parts]

    # Deterministic fallback: top up starved clients from the largest ones.
    while min(len(p) for p in parts) < spec.min_samples:
        needy = min(range(m), key=lambda i: (len(parts[i]), i))
        donor = max(range(m), key=lambda i: (len(parts[i]), -i))
        parts[needy].append(parts[donor].pop())
    return [sorted(p) for p in parts]


def _single_class(ds: Dataset, spec: PartitionSpec) -> list[list[int]]:
    """One class per client, equal sample counts, disjoint indices.

    Client m holds samples of class ``m % C``. Every client is truncated to
    the smallest per-client allocation so all counts match; with more clients
    than classes the ``allow_class_reuse`` flag must be set and the clients
    sharing a class split its samples disjointly.
    """
    m = spec.num_clients
    c = ds.num_classes
    if m > c and not spec.allow_class_reuse:
        raise ValueError(
            f"{m} clients need {m} distinct classes but the dataset has {c}; "
            "set allow_class_reuse to share classes"
        )
    _require_floor(ds, m, 1)
    rng = np.random.default_rng(spec.seed)
    shuffled = [rng.permutation(np.flatnonzero(ds.labels == cls)) for cls in range(c)]
    slices = []
    for client in range(m):  # the (client // c)-th equal share of class client % c among its holders
        pos, cls = divmod(client, c)
        share = len(shuffled[cls]) // len(range(cls, m, c))
        slices.append(shuffled[cls][pos * share : (pos + 1) * share])

    quota = min(s.size for s in slices)
    if quota == 0:
        raise ValueError("a client's class allocation is empty; dataset too small")
    return [sorted(int(i) for i in s[:quota]) for s in slices]


_PARTITIONERS = {"iid": _iid, "dirichlet": _dirichlet, "single_class": _single_class}
SCHEMES = tuple(_PARTITIONERS)


def partition(ds: Dataset, spec: PartitionSpec) -> list[list[int]]:
    """``ds``'s sample indices, one sorted list per client, by ``spec``'s scheme: the one partition entry point."""
    if len(ds) == 0:
        raise ValueError("cannot partition an empty dataset")
    return _PARTITIONERS[spec.scheme](ds, spec)


def _require_rows(num_classes: int, samples_per_class: int) -> None:
    """Refuse a blobs row total that no array holds (``np.repeat`` would wrap or overflow)."""
    if num_classes * samples_per_class > (most := np.iinfo(np.intp).max):
        raise ValueError(f"{num_classes} classes of {samples_per_class} samples exceed the {most} rows of an array")


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
    _require_rows(num_classes, samples_per_class)
    means = np.zeros((num_classes, dim))
    for c in range(num_classes):
        means[c, c % dim] = separation * (1 + c // dim)
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    rng = np.random.default_rng(seed)
    features = means[labels] + rng.normal(0.0, spread, size=(labels.size, dim))
    return Dataset(features, labels, num_classes)


# The characters of a plain numeric CSV body (see _is_plain).
_PLAIN = b"0123456789+-.eE, \t\r\n"
_BLOCK = 1 << 16  # bytes _is_plain reads at a time
_ROW_BYTE = re.compile(rb"[^\r\n]")  # np.loadtxt warns on input without one


def _is_plain(data: bytes, start: int) -> bool:
    """Whether ``np.loadtxt`` reads ``data[start:]`` exactly as the row-by-row parse does.

    On text of ``_PLAIN`` characters alone, with no cell longer than the csv
    field limit or int()'s digit limit, both accept the same cells and read
    the same values. Other text (quotes, letters, other whitespace, non-ASCII)
    takes its values from the row-by-row parse: numpy's integer parser, for
    one, reads some non-ASCII letters as digits. Cells are measured only when
    a line passes the limit.
    """
    limit = min(csv.field_size_limit(), sys.get_int_max_str_digits() or csv.field_size_limit())
    line = _longest_run(data, start, b"\n\r")
    return line is not None and (line <= limit or _longest_run(data, start, b"\n\r,") <= limit)


def _longest_run(data: bytes, start: int, ends: bytes) -> int | None:
    """The longest run of ``data[start:]`` between bytes of ``ends``; None if a byte is not ``_PLAIN``.

    The bytes are read in blocks, so no temporary is file-sized.
    """
    last, longest = start - 1, 0  # the last end seen, and the longest run before it
    for lo in range(start, len(data), _BLOCK):
        block = data[lo : lo + _BLOCK]
        if block.translate(None, _PLAIN):
            return None
        codes = np.frombuffer(block, np.uint8)
        is_end = codes == ends[0]
        for end in ends[1:]:
            is_end |= codes == end
        at = np.flatnonzero(is_end) + lo
        longest = max(longest, int(np.diff(at, prepend=last).max(initial=0)) - 1)
        last = at[-1] if at.size else last
    return max(longest, len(data) - last - 1)


def _body(data: bytes, start: int) -> io.TextIOWrapper:
    """A text stream of ``data`` from byte ``start`` that shares its buffer and decodes it a block at a time.

    Its lines split as a text-mode read's split.
    """
    stream = io.BytesIO(data)
    stream.seek(start)
    return io.TextIOWrapper(stream, encoding="utf-8", newline="")


# The columns every rounds.csv starts with: the engine writes them and ``fedsim compare`` reads them.
ROUNDS_CSV_PREFIX = (
    "round",
    "strategy_effective",
    "mu_delta_model",
    "mu_delta_layer",
    "mean_local_loss",
    "agg_time_ms",
    "probe_acc",
)


def _csv_rows(reader, path, skipped_lines: int = 0):
    """The reader's rows; a malformed file (say, an over-long field) raises ValueError naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}:{skipped_lines + reader.line_num}: {exc}") from exc


def _parse_rows(rows, path, width: int, num_classes: int) -> tuple[list[list[float]], list[int]]:
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
        if label >= num_classes:
            raise ValueError(f"{path}:{lineno}: label {label} outside [0, {num_classes})")
        features.append(values)
        labels.append(label)
    return features, labels


def load_csv(path, num_classes: int) -> Dataset:
    """Parse a dataset from CSV: header row, float feature columns, final integer label column.

    Row order is preserved. The file is read once, as bytes. The data rows
    are parsed in one ``np.loadtxt`` call over a stream that shares those
    bytes and checked in bulk; only when that fails (or the text is not
    plain numeric CSV) are they parsed row by row, and a bad row raises
    naming its line. Feature cells must be finite, and cells ``np.loadtxt``
    refuses (such as ``1_0``) raise naming the file. Labels must lie in
    [0, ``num_classes``).
    """
    features, labels = _read_csv(path, num_classes)  # the file's bytes are freed before the Dataset copies
    return Dataset(features, labels, num_classes)


def _read_csv(path, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """``load_csv``'s features and labels, as arrays or views of one."""
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = _body(raw, 0)
    taken: list[str] = []  # the lines the header row spans
    reader = csv.reader(taken.append(line) or line for line in lines)
    try:
        header = next(_csv_rows(reader, path), None)
        if not raw.isascii():
            lines.read()  # decodes the rest as a text-mode read does, so a bad byte raises here, with its message
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from exc
    if header is None:
        raise ValueError(f"{path}: empty file")
    if len(header) < 2:
        raise ValueError(f"{path}: need at least one feature column and a label column")
    width, start = len(header), len("".join(taken).encode())
    data, cause = None, None
    if _ROW_BYTE.search(raw, start):
        row = np.dtype([("x", np.float64, (width - 1,)), ("y", np.int64)])
        try:
            data = np.loadtxt(
                _body(raw, start), dtype=row, delimiter=",", quotechar='"', comments=None, ndmin=1
            )
        except ValueError as exc:
            cause = exc
    if (
        data is not None
        and np.isfinite(data["x"]).all()
        and data["y"].min() >= 0
        and data["y"].max() < num_classes
        and _is_plain(raw, start)
    ):
        return data["x"], data["y"]
    rows = _csv_rows(csv.reader(_body(raw, start)), path, reader.line_num)
    features, labels = _parse_rows(rows, path, width, num_classes)
    if cause is not None:
        raise ValueError(f"{path}: {cause}") from cause
    if not len(labels):
        raise ValueError(f"{path}: no data rows")
    return np.asarray(features), np.asarray(labels)


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

