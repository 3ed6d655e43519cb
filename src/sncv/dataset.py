"""Core data model: class schemes, columnar datasets, deterministic splits, the
one CSV codec of dataset files, and the one JSON record codec of every other file.

Labels are integer class indices; the class-name mapping and the referability
boundary (which classes count as positive) live in a ClassScheme sidecar. The
binarization rule defined here (label in positive set -> positive) is the
single source of truth used by every other module.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
from collections import defaultdict
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

FOLD_NAMES = ("D1", "D2")


class InputError(ValueError):
    """Bad user input: a missing path, a malformed file or config (exit code 2)."""


def record(obj) -> dict:
    """A dataclass's fields by name, taken shallowly (dataclasses.asdict deep-copies),
    without those left out of its repr: the one way a dataclass becomes JSON."""
    if not is_dataclass(obj):
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.repr}


def _is_number(value) -> bool:
    """Whether a JSON value is a number, not true or false."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The JSON type a field annotation names: its description, and its test.
_JSON_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "int": ("an integer", lambda v: _is_number(v) and isinstance(v, int)),
    "float": ("a number", _is_number),
    "list": ("a list", lambda v: isinstance(v, list)),
    "list[float]": ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "list[str]": ("a list of strings",
                  lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)),
}


def check_record(payload, types: dict[str, str], where: str = "") -> None:
    """Check that payload is a JSON object with exactly the keys of types, each
    value by check_value against its annotation; where, if given, starts each message."""
    prefix = f"{where}: " if where else ""
    if not isinstance(payload, dict):
        raise ValueError(f"{prefix}expected a JSON object, got {type(payload).__name__}")
    if payload.keys() != types.keys():
        raise ValueError(f"{prefix}missing keys {sorted(types.keys() - payload.keys())}, "
                         f"unknown keys {sorted(payload.keys() - types.keys())}")
    for name, annotation in types.items():
        check_value(payload[name], annotation, prefix + name)


def check_value(value, annotation: str, what: str) -> None:
    """Check that value has the JSON type annotation names; what starts the
    message. An annotation not in _JSON_TYPES is left to the caller."""
    description, valid = _JSON_TYPES.get(annotation, (None, None))
    if valid is not None and not valid(value):
        raise ValueError(f"{what} must be {description}, got {value!r}")


@dataclass(frozen=True)
class ClassScheme:
    """Ordered class names plus the subset of indices that trigger referral."""

    class_names: tuple[str, ...]
    positive_indices: frozenset[int]

    def __post_init__(self):
        names = tuple(self.class_names)
        pos = frozenset(int(i) for i in self.positive_indices)
        object.__setattr__(self, "class_names", names)
        object.__setattr__(self, "positive_indices", pos)
        if len(names) < 2:
            raise ValueError("class scheme needs at least 2 classes")
        if len(set(names)) != len(names):
            raise ValueError("class names must be unique")
        if not pos:
            raise ValueError("positive class set must be non-empty")
        if not pos.issubset(range(len(names))):
            raise ValueError("positive index out of range")
        if pos == frozenset(range(len(names))):
            raise ValueError("positive class set must be a proper subset")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def is_positive(self, label: int) -> bool:
        return label in self.positive_indices

    def positive_mask(self, labels) -> np.ndarray:
        """Boolean mask of labels falling on the referable side."""
        return np.isin(np.asarray(labels), sorted(self.positive_indices))


def default_scheme() -> ClassScheme:
    """Four-tier risk scale with the top two tiers referable."""
    return ClassScheme(
        class_names=("non-glaucomatous", "low-risk", "high-risk", "likely-glaucoma"),
        positive_indices=frozenset({2, 3}),
    )


@dataclass(eq=False)
class Dataset:
    """Examples sharing one scheme, held as columns: row i of each array is example i.

    ids (n,) str; X (n, d) float features; y (n,) observed labels; true_y (n,)
    hidden true labels, -1 where unknown; grader (n,) grader ids, "" where
    unknown. Immutable by convention.
    """

    scheme: ClassScheme
    ids: np.ndarray
    X: np.ndarray
    y: np.ndarray
    true_y: np.ndarray | None = None
    grader: np.ndarray | None = None

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=str)
        n = len(self.ids)
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        self.true_y = np.full(n, -1) if self.true_y is None else np.asarray(self.true_y, dtype=int)
        self.grader = np.full(n, "") if self.grader is None else np.asarray(self.grader, dtype=str)
        if self.X.ndim != 2 or len(self.X) != n:
            raise ValueError(f"feature length: X must be (n_examples, d), got {self.X.shape} "
                             f"for {n} examples")
        for name in ("ids", "y", "true_y", "grader"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must hold one entry per example")
        unique, counts = np.unique(self.ids, return_counts=True)
        if (counts > 1).any():
            raise ValueError(f"duplicate example id {str(unique[counts > 1][0])!r}")
        k = self.scheme.n_classes
        bad = np.flatnonzero((self.y < 0) | (self.y >= k))
        if bad.size:
            i = bad[0]
            raise ValueError(f"example {str(self.ids[i])!r}: label-out-of-range "
                             f"({self.y[i]} for {k} classes)")
        bad = np.flatnonzero((self.true_y < -1) | (self.true_y >= k))
        if bad.size:
            raise ValueError(f"example {str(self.ids[bad[0]])!r}: true-label-out-of-range")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def feature_dim(self) -> int:
        return self.X.shape[1]

    def binary_labels(self) -> np.ndarray:
        """Observed labels binarized at the referability boundary (1 = refer)."""
        return self.scheme.positive_mask(self.y).astype(int)

    def take(self, index) -> "Dataset":
        """The rows at the given positions, in that order."""
        return Dataset(self.scheme, self.ids[index], self.X[index], self.y[index],
                       self.true_y[index], self.grader[index])

    def subset(self, ids) -> "Dataset":
        """The rows whose id is in ids, in storage order."""
        wanted = np.asarray(list(ids), dtype=str)
        return self.take(np.flatnonzero(np.isin(self.ids, wanted)))


def positive_rate(dataset: Dataset) -> float:
    """Fraction of observed labels on the referable side of the boundary."""
    if len(dataset) == 0:
        raise ValueError("empty-dataset")
    return float(dataset.binary_labels().mean())


def draw_mask(dataset: Dataset, m: int, seed: int) -> np.ndarray:
    """Boolean mask of m rows drawn by seed.

    Ids are sorted lexicographically before the seeded shuffle, so the draw
    depends only on (seed, id set, m), never on storage order.
    """
    n = len(dataset)
    by_id = np.argsort(dataset.ids)
    perm = np.random.default_rng(seed).permutation(n)
    drawn = np.zeros(n, dtype=bool)
    drawn[by_id[perm[:m]]] = True
    return drawn


def split_mask(dataset: Dataset, seed: int) -> np.ndarray:
    """Boolean mask of the rows in D1 of a two-way split: a draw of half the
    rows, an odd count putting the extra example in D1."""
    n = len(dataset)
    if n < 2:
        raise InputError(f"too-small-to-split: {n} row(s), a split needs 2")
    return draw_mask(dataset, (n + 1) // 2, seed)


def split_random(dataset: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """The D1 and D2 halves of split_mask, each in storage order."""
    in_d1 = split_mask(dataset, seed)
    return dataset.take(np.flatnonzero(in_d1)), dataset.take(np.flatnonzero(~in_d1))


def scheme_payload(scheme: ClassScheme) -> dict:
    """The JSON form of a scheme, as a scheme file and a model file hold it."""
    return {"classes": list(scheme.class_names), "positive": sorted(scheme.positive_indices)}


def scheme_from_payload(payload) -> ClassScheme:
    """The scheme in a JSON form: classes is a list of class names, and a
    positive entry is a class index or a class name."""
    check_record(payload, {"classes": "list[str]", "positive": "list"}, "scheme")
    classes = payload["classes"]
    positive = set()
    for p in payload["positive"]:
        if isinstance(p, str):
            if p not in classes:
                raise ValueError(f"unknown-class: {p!r} not in scheme classes")
            positive.add(classes.index(p))
        elif isinstance(p, int) and not isinstance(p, bool):
            positive.add(p)
        else:
            raise ValueError(f"positive entry {p!r} is neither a class index nor a class name")
    return ClassScheme(class_names=tuple(classes), positive_indices=frozenset(positive))


def write_scheme(scheme: ClassScheme, path) -> None:
    Path(path).write_text(json.dumps(scheme_payload(scheme), indent=2) + "\n", encoding="utf-8")


def read_scheme(path) -> ClassScheme:
    return scheme_from_payload(json.loads(Path(path).read_text(encoding="utf-8")))


# One CSV layout: id,label,true_label,grader_id,f0..f{d-1}; a scored file adds
# fold,quality_score,p0..p{K-1} and is written without the features (it reads
# back with feature_dim 0). true_label and grader_id may be blank or absent.
BASE_COLUMNS = ["id", "label", "true_label", "grader_id"]
# Rows written and parsed per block, so that a large file is never held in
# memory as text.
CHUNK_ROWS = 4096


# A text cell holding one of these is quoted, as csv's minimal quoting does.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _text_cells(values: list[str]) -> list[str]:
    """Text cells as csv writes them: one holding a comma, a quote, CR or LF
    is wrapped in quotes with its inner quotes doubled; the rest are bare."""
    if not _NEEDS_QUOTES.search("".join(values)):
        return values
    return ['"' + v.replace('"', '""') + '"' if _NEEDS_QUOTES.search(v) else v
            for v in values]


def _write_csv(path, dataset: Dataset, scored=None) -> None:
    """Write the CSV form; scored = (fold, qs, probs) writes the scored columns
    in place of the features, which stay in the dataset that was scored.

    The bytes are those of csv.writer's default dialect: CRLF line ends and
    minimal quoting. Floats are written as repr(float), which round-trips
    exactly. Rows are formatted and written CHUNK_ROWS at a time, a column
    at a time, with each row's feature cells joined once.
    """
    X = dataset.X if scored is None else dataset.X[:, :0]
    header = BASE_COLUMNS + [f"f{i}" for i in range(X.shape[1])]
    if scored is not None:
        fold, qs, probs = scored
        header += ["fold", "quality_score"] + [f"p{i}" for i in range(probs.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(dataset), CHUNK_ROWS):
            block = slice(start, start + CHUNK_ROWS)
            columns = [_text_cells(dataset.ids[block].tolist()),
                       map(str, dataset.y[block].tolist()),
                       ["" if t < 0 else str(t) for t in dataset.true_y[block].tolist()],
                       _text_cells(dataset.grader[block].tolist())]
            if X.shape[1]:
                columns.append(map(",".join, zip(*(map(repr, c) for c in X[block].T.tolist()))))
            if scored is not None:
                columns += [fold[block].tolist(), map(repr, qs[block].tolist()),
                            *(map(repr, c) for c in probs[block].T.tolist())]
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _parse_cells(columns, n_rows, first_row, names, dtype, what) -> np.ndarray:
    """The named columns, one tuple of n_rows cell strings each, as an
    (n_rows, len(names)) array; floats parse by float(), as np.array parses
    them. A cell that does not parse as dtype, or a non-finite float, raises
    an error naming its row (the first is file row first_row) and column."""
    values = np.empty((n_rows, len(names)), dtype)
    try:
        for j, column in enumerate(columns):
            values[:, j] = (np.array(column, dtype=int) if dtype is int
                            else np.fromiter(map(float, column), float, n_rows))
        if dtype is int or np.isfinite(values).all():
            return values
    except (ValueError, OverflowError):
        pass
    for row_no, row in enumerate(zip(*columns), start=first_row):
        for name, cell in zip(names, row):
            try:
                value = dtype(cell)
                if dtype is float and not math.isfinite(value):
                    problem = f"non-finite {what}"
                elif dtype is int and not -2**63 <= value < 2**63:
                    problem = f"{what}-out-of-range"
                else:
                    continue
            except ValueError:
                problem = f"non-{'integer' if dtype is int else 'numeric'} {what}"
            raise InputError(f"row {row_no}: {problem} in column {name}: {cell!r}")
    raise InputError(f"unparsable {what} in columns {names}")


def _parse_chunk(body, first_row, header, feats, scheme: ClassScheme, scored: bool):
    """The columns of a block of data rows: ids, X, y, true_y and grader, then
    fold, qs and probs for a scored file. body[0] is file row first_row."""
    for row_no, row in enumerate(body, start=first_row):
        if len(row) != len(header):
            raise InputError(f"row {row_no}: expected {len(header)} columns, got {len(row)}")
    # one tuple of cells per column; a column the file lacks reads as blanks
    cells = defaultdict(lambda: ("",) * len(body), zip(header, zip(*body)))

    def numbers(names, dtype, what):
        return _parse_cells([cells[n] for n in names], len(body), first_row, names, dtype, what)

    k = scheme.n_classes

    def check_labels(values, valid, name):
        bad = np.flatnonzero(~valid)
        if bad.size:
            raise InputError(f"row {first_row + bad[0]}: label-out-of-range in column {name} "
                             f"({values[bad[0]]} for {k} classes)")

    y = numbers(["label"], int, "label")[:, 0]
    check_labels(y, (y >= 0) & (y < k), "label")
    # a blank true label reads as the -1 sentinel; an explicit -1 is out of range
    blank = np.array([c == "" for c in cells["true_label"]], dtype=bool)
    cells["true_label"] = tuple(c or "-1" for c in cells["true_label"])
    true_y = numbers(["true_label"], int, "label")[:, 0]
    check_labels(true_y, blank | ((true_y >= 0) & (true_y < k)), "true_label")
    columns = [np.array(cells["id"], dtype=str), numbers(feats, float, "feature"), y, true_y,
               np.array(cells["grader_id"], dtype=str)]
    if scored:
        fold = np.array(cells["fold"], dtype=str)
        bad = np.flatnonzero(~np.isin(fold, FOLD_NAMES))
        if bad.size:
            raise InputError(f"row {first_row + bad[0]}: unknown fold in column fold: "
                             f"{str(fold[bad[0]])!r}, expected one of {FOLD_NAMES}")
        probs_cols = [f"p{i}" for i in range(k)]
        columns += [fold, numbers(["quality_score"], float, "score")[:, 0],
                    numbers(probs_cols, float, "probability")]
    return columns


def _read_rows(reader, n: int) -> list[list[str]]:
    """Up to n more rows of a csv reader; a line csv cannot split, such as one
    with a cell beyond its field limit, is an InputError naming the line."""
    try:
        return list(itertools.islice(reader, n))
    except csv.Error as err:
        raise InputError(f"line {reader.line_num}: {err}") from None


def _read_csv(path, scheme: ClassScheme, scored: bool = False):
    """Parse and validate a dataset CSV: (Dataset, None), or with scored=True
    (Dataset, (fold, qs, probs)) from the columns a scored file must carry.

    A problem in the file raises a ValueError that names its row (or line),
    column or example id, but not the file: the caller chose the path and
    names it.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = (_read_rows(reader, 1) or [None])[0]
        if header is None:
            raise InputError("empty file: no header row")
        repeated = [name for name in header if header.count(name) > 1]
        if repeated:
            raise InputError(f"repeated column {repeated[0]!r} in header")
        feats = [c for c in header if c.startswith("f") and c[1:].isdigit()]
        if feats != [f"f{i}" for i in range(len(feats))]:
            raise InputError(f"feature columns must be f0..f{len(feats) - 1} in order, "
                             f"got {feats}")
        required = ["id", "label"]
        if scored:
            required += ["fold", "quality_score"] + [f"p{i}" for i in range(scheme.n_classes)]
        for name in required:
            if name not in header:
                kind = "scored dataset" if scored else "dataset"
                raise InputError(f"{kind} missing column {name!r}")
        chunks = []
        while True:
            body = _read_rows(reader, CHUNK_ROWS)
            chunks.append(_parse_chunk(body, 2 + CHUNK_ROWS * len(chunks), header, feats,
                                       scheme, scored))
            if len(body) < CHUNK_ROWS:
                break
    ids, X, y, true_y, grader, *extra = (np.concatenate(c) for c in zip(*chunks))
    return Dataset(scheme, ids, X, y, true_y, grader), (tuple(extra) if scored else None)


def write_dataset(dataset: Dataset, path) -> None:
    """Write the UTF-8 CSV form: id,label,true_label,grader_id,f0..f{d-1}."""
    _write_csv(path, dataset)


def read_dataset(path, scheme: ClassScheme) -> Dataset:
    """Read a dataset CSV; true_label and grader_id columns are optional."""
    return _read_csv(path, scheme)[0]
