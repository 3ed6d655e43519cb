"""Data model, splitting, and file round-trip tests."""

import csv
import math
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sncv import (
    ClassScheme,
    Dataset,
    InputError,
    default_scheme,
    positive_rate,
    read_dataset,
    read_scheme,
    read_scored_dataset,
    split_random,
    write_dataset,
    write_scheme,
    write_scored_dataset,
)
import sncv.dataset
from sncv.dataset import BASE_COLUMNS, check_record, record, split_mask
from sncv.scoring import ScoredDataset


def make_dataset(labels, scheme=None, d=3, true_labels=None, graders=None):
    n = len(labels)
    return Dataset(scheme or default_scheme(), ids=[f"e{i:04d}" for i in range(n)],
                   X=np.random.default_rng(0).standard_normal((n, d)), y=labels,
                   true_y=true_labels, grader=graders)


class TestClassScheme:
    def test_default_scheme_matches_four_tier_risk_scale(self):
        scheme = default_scheme()
        assert scheme.class_names == ("non-glaucomatous", "low-risk",
                                      "high-risk", "likely-glaucoma")
        assert scheme.positive_indices == frozenset({2, 3})

    def test_rejects_empty_positive_set(self):
        with pytest.raises(ValueError, match="non-empty"):
            ClassScheme(("a", "b"), frozenset())

    def test_rejects_full_positive_set(self):
        with pytest.raises(ValueError, match="proper subset"):
            ClassScheme(("a", "b"), frozenset({0, 1}))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            ClassScheme(("a", "a"), frozenset({0}))


class TestPositiveRate:
    def test_ten_example_hand_count(self):
        # labels [0,0,0,1,1,1,1,2,3,3] under the default scheme: 3 of 10 in {2,3}
        ds = make_dataset([0, 0, 0, 1, 1, 1, 1, 2, 3, 3])
        assert positive_rate(ds) == pytest.approx(0.3)

    def test_all_positive(self):
        ds = make_dataset([2, 3, 2, 3])
        assert positive_rate(ds) == 1.0

    def test_imbalanced_cohort_rate(self):
        # 24.6% referable labels  ->  tau = 0.246
        labels = [2] * 246 + [0] * 754
        assert positive_rate(make_dataset(labels)) == pytest.approx(0.246)

    def test_empty_dataset_errors(self):
        ds = Dataset(default_scheme(), ids=[], X=np.zeros((0, 3)), y=[])
        with pytest.raises(ValueError, match="empty-dataset"):
            positive_rate(ds)

    def test_weighted_mean_of_split_halves(self):
        ds = make_dataset(np.random.default_rng(5).integers(0, 4, size=101))
        d1, d2 = split_random(ds, seed=9)
        combined = (positive_rate(d1) * len(d1) + positive_rate(d2) * len(d2)) / len(ds)
        assert combined == pytest.approx(positive_rate(ds))


class TestSplitRandom:
    def test_even_split_sizes(self):
        ds = make_dataset([0] * 700)
        d1, d2 = split_random(ds, seed=0)
        assert len(d1) == len(d2) == 350

    def test_odd_count_extra_goes_to_d1(self):
        ds = make_dataset([0] * 101)
        d1, d2 = split_random(ds, seed=0)
        assert (len(d1), len(d2)) == (51, 50)

    def test_deterministic_for_same_seed(self):
        ds = make_dataset([0, 1, 2, 3] * 25)
        a1, a2 = split_random(ds, seed=42)
        b1, b2 = split_random(ds, seed=42)
        np.testing.assert_array_equal(a1.ids, b1.ids)
        np.testing.assert_array_equal(a2.ids, b2.ids)

    def test_partition_independent_of_storage_order(self):
        ds = make_dataset([0, 1, 2, 3] * 25)
        shuffled = ds.take(np.arange(len(ds))[::-1])
        a1, _ = split_random(ds, seed=42)
        b1, _ = split_random(shuffled, seed=42)
        assert set(a1.ids) == set(b1.ids)

    def test_fold_fields_assigned(self):
        # the halves are exactly the rows the fold mask assigns to D1 and to
        # D2, each kept in storage order
        ds = make_dataset([0, 1, 2, 3] * 5)
        in_d1 = split_mask(ds, seed=1)
        d1, d2 = split_random(ds, seed=1)
        np.testing.assert_array_equal(d1.ids, ds.ids[in_d1])
        np.testing.assert_array_equal(d2.ids, ds.ids[~in_d1])
        np.testing.assert_array_equal(d1.X, ds.X[in_d1])
        np.testing.assert_array_equal(d2.y, ds.y[~in_d1])

    def test_too_small_errors(self):
        ds = make_dataset([0])
        with pytest.raises(ValueError, match="too-small-to-split"):
            split_random(ds, seed=0)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_disjoint_union_for_any_seed(self, seed):
        ds = make_dataset([0, 1, 2, 3] * 10)
        d1, d2 = split_random(ds, seed=seed)
        assert set(d1.ids) & set(d2.ids) == set()
        assert set(d1.ids) | set(d2.ids) == set(ds.ids)
        assert len(d1) + len(d2) == len(ds)

    def test_assignment_frequency_near_half(self):
        # over 1000 seeds on a 1000-example set, every example lands in D1
        # about half the time: no per-example bias (a hard 0.45..0.55 band for
        # every single example would be violated by fair coin flips themselves,
        # so the band is checked for 99.5% of examples plus the overall mean)
        ds = make_dataset([0] * 1000)
        counts = {i: 0 for i in ds.ids}
        for seed in range(1000):
            d1, _ = split_random(ds, seed=seed)
            for i in d1.ids:
                counts[i] += 1
        freqs = np.array(list(counts.values())) / 1000.0
        within = (np.abs(freqs - 0.5) <= 0.05).mean()
        assert within >= 0.995
        assert abs(freqs.mean() - 0.5) < 0.01
        assert np.abs(freqs - 0.5).max() < 0.10


class TestDatasetValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate example id 'x'"):
            Dataset(default_scheme(), ids=["x", "y", "x"], X=np.zeros((3, 2)), y=[0, 0, 0])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="label-out-of-range"):
            Dataset(default_scheme(), ids=["x"], X=np.zeros((1, 2)), y=[7])
        with pytest.raises(ValueError, match="true-label-out-of-range"):
            Dataset(default_scheme(), ids=["x"], X=np.zeros((1, 2)), y=[0], true_y=[4])

    def test_feature_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="feature length"):
            Dataset(default_scheme(), ids=["x"], X=np.zeros((2, 2)), y=[0])
        with pytest.raises(ValueError, match="feature length"):
            Dataset(default_scheme(), ids=["x", "y"], X=np.zeros(2), y=[0, 0])


SCORED_HEADER = ",fold,quality_score,p0,p1,p2,p3"
SCORED_CELLS = ",D1,0.5,0.5,0.2,0.2,0.1"


def write_csv(path, header, rows, scored):
    """A CSV of the given lines; scored=True appends valid scored columns to each."""
    if scored:
        header += SCORED_HEADER
        rows = [row + SCORED_CELLS for row in rows]
    path.write_text("".join(line + "\n" for line in [header, *rows]))


def read_csv(path, scored):
    reader = read_scored_dataset if scored else read_dataset
    return reader(path, default_scheme())


def assert_both_readers_reject(tmp_path, header, rows, match):
    """The plain and the scored reader reject the same bad cells the same way."""
    for scored in (False, True):
        path = tmp_path / f"bad-{scored}.csv"
        write_csv(path, header, rows, scored)
        with pytest.raises(InputError, match=match):
            read_csv(path, scored)


BASE_HEADER = "id,label,true_label,grader_id,f0"
MALFORMED = {
    "non-integer label": (BASE_HEADER, ["a,1,,,0.5", "b,x,,,0.5"],
                          r"row 3: non-integer label in column label: 'x'"),
    "non-integer true label": (BASE_HEADER, ["a,1,1.5,,0.5"],
                               r"row 2: non-integer label in column true_label"),
    "true label out of range": (BASE_HEADER, ["a,1,2,,0.5", "b,1,4,,0.5"],
                                r"row 3: label-out-of-range in column true_label"),
    "explicit -1 true label": (BASE_HEADER, ["a,1,-1,,0.5"],
                               r"row 2: label-out-of-range in column true_label"),
    "label beyond int64": (BASE_HEADER, ["a,1,,,0.5", "b,99999999999999999999,,,0.5"],
                           r"row 3: label-out-of-range in column label"),
    "nan feature": (BASE_HEADER + ",f1", ["a,1,,,0.5,0.5", "b,1,,,0.5,nan"],
                    r"row 3: non-finite feature in column f1: 'nan'"),
    "inf feature": (BASE_HEADER, ["a,1,,,-inf"], r"row 2: non-finite feature in column f0"),
    # each column's cells are looked up by its name, so a name may appear once
    "repeated column": (BASE_HEADER + ",label", ["a,1,,,0.5,2"],
                        r"repeated column 'label' in header"),
    # csv raises its own error, not a ValueError, for a cell beyond its field limit
    "oversized cell": (BASE_HEADER, ["a,1,,,0.5", "b" * (2**17 + 1) + ",1,,,0.5"],
                       r"line 3: field larger than field limit"),
}
MALFORMED_SCORED = {
    "nan quality score": ("id,label,f0,fold,quality_score,p0,p1,p2,p3",
                          ["a,1,0.5,D1,nan,0.5,0.2,0.2,0.1"],
                          r"row 2: non-finite score in column quality_score"),
    "inf probability": ("id,label,f0,fold,quality_score,p0,p1,p2,p3",
                        ["a,1,0.5,D1,0.5,0.5,0.2,inf,0.1"],
                        r"row 2: non-finite probability in column p2"),
    "non-numeric probability": ("id,label,f0,fold,quality_score,p0,p1,p2,p3",
                                ["a,1,0.5,D1,0.5,0.5,0.2,0.2,?"],
                                r"row 2: non-numeric probability in column p3"),
    "unknown fold": ("id,label,f0,fold,quality_score,p0,p1,p2,p3",
                     ["a,1,0.5,D3,0.5,0.5,0.2,0.2,0.1"],
                     r"row 2: unknown fold in column fold: 'D3'"),
    "missing probability column": ("id,label,f0,fold,quality_score,p0,p1,p2",
                                   ["a,1,0.5,D1,0.5,0.5,0.2,0.3"],
                                   r"scored dataset missing column 'p3'"),
    "unscored file": (BASE_HEADER, ["a,1,,,0.5"], r"scored dataset missing column 'fold'"),
    # a scored file that still carries its features has every feature cell checked
    "nan feature": ("id,label,f0,fold,quality_score,p0,p1,p2,p3",
                    ["a,1,nan,D1,0.5,0.5,0.2,0.2,0.1"],
                    r"row 2: non-finite feature in column f0"),
}


class TestFileIO:
    def test_round_trip_structural_equality(self, tmp_path):
        ds = make_dataset([0, 2, 3], true_labels=[0, -1, 3], graders=["g1", "", "g2"])
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        back = read_dataset(path, ds.scheme)
        assert back.feature_dim == ds.feature_dim
        for column in ("ids", "X", "y", "true_y", "grader"):
            np.testing.assert_array_equal(getattr(back, column), getattr(ds, column))

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, labels):
        ds = make_dataset(labels)
        path = tmp_path_factory.mktemp("io") / "d.csv"
        write_dataset(ds, path)
        back = read_dataset(path, ds.scheme)
        np.testing.assert_array_equal(back.ids, ds.ids)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_allclose(back.X, ds.X, rtol=0, atol=0)

    def test_label_out_of_range_names_row(self, tmp_path):
        assert_both_readers_reject(tmp_path, BASE_HEADER, ["a,1,,,0.5", "b,7,,,0.5"],
                                   r"row 3: label-out-of-range in column label")

    def test_non_numeric_feature_names_row(self, tmp_path):
        assert_both_readers_reject(tmp_path, BASE_HEADER, ["a,1,,,oops"],
                                   r"row 2: non-numeric feature in column f0: 'oops'")

    def test_wrong_column_count_names_row(self, tmp_path):
        assert_both_readers_reject(tmp_path, BASE_HEADER, ["a,1,,,0.5,9.9"],
                                   r"row 2: expected \d+ columns, got \d+")

    def test_blocks_keep_rows_and_row_numbers(self, tmp_path, monkeypatch):
        # files are parsed a block of rows at a time: a file that ends on a
        # block boundary, and one that does not, read back whole, and an
        # error in a later block still names its file row
        monkeypatch.setattr(sncv.dataset, "CHUNK_ROWS", 2)
        for n in (4, 5):
            ds = make_dataset([0, 1, 2, 3, 1][:n], true_labels=[0, -1, 2, 3, 1][:n],
                              graders=["g1", "", "g2", "g1", "g3"][:n])
            write_dataset(ds, tmp_path / "d.csv")
            back = read_dataset(tmp_path / "d.csv", ds.scheme)
            for column in ("ids", "X", "y", "true_y", "grader"):
                np.testing.assert_array_equal(getattr(back, column), getattr(ds, column))
        rows = [f"e{i},1,,,0.5" for i in range(4)] + ["e4,1,,,nan"]
        assert_both_readers_reject(tmp_path, BASE_HEADER, rows,
                                   r"row 6: non-finite feature in column f0")

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_cell_names_row_and_column(self, tmp_path, case):
        assert_both_readers_reject(tmp_path, *MALFORMED[case])

    @pytest.mark.parametrize("case", sorted(MALFORMED_SCORED))
    def test_malformed_scored_cell_names_row_and_column(self, tmp_path, case):
        header, rows, match = MALFORMED_SCORED[case]
        path = tmp_path / "bad.csv"
        write_csv(path, header, rows, scored=False)
        with pytest.raises(InputError, match=match):
            read_scored_dataset(path, default_scheme())

    @pytest.mark.parametrize("scored", [False, True])
    def test_empty_file_rejected(self, tmp_path, scored):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError, match="empty file"):
            read_csv(path, scored)

    def test_missing_true_label_column_reads_as_absent(self, tmp_path):
        path = tmp_path / "min.csv"
        path.write_text("id,label,f0,f1\na,0,0.5,1.0\nb,2,1.5,-1.0\n")
        ds = read_dataset(path, default_scheme())
        assert (ds.true_y == -1).all()
        assert (ds.grader == "").all()

    def test_scheme_round_trip(self, tmp_path):
        scheme = default_scheme()
        path = tmp_path / "scheme.json"
        write_scheme(scheme, path)
        assert read_scheme(path) == scheme

    def test_scheme_positive_by_name(self, tmp_path):
        path = tmp_path / "scheme.json"
        path.write_text('{"classes": ["a", "b", "c"], "positive": ["c"]}')
        scheme = read_scheme(path)
        assert scheme.positive_indices == frozenset({2})

    def test_scheme_unknown_class_name(self, tmp_path):
        path = tmp_path / "scheme.json"
        path.write_text('{"classes": ["a", "b"], "positive": ["zz"]}')
        with pytest.raises(ValueError, match="unknown-class"):
            read_scheme(path)

    @pytest.mark.parametrize("classes", ['"ab"', '["a", 2]', '{"a": 0, "b": 1}'])
    def test_scheme_classes_must_be_a_list_of_names(self, tmp_path, classes):
        path = tmp_path / "scheme.json"
        path.write_text('{"classes": %s, "positive": [1]}' % classes)
        with pytest.raises(ValueError, match="scheme: classes must be a list of strings"):
            read_scheme(path)

    @pytest.mark.parametrize("positive", ["[2.7, 3]", "[true]", "[null]"])
    def test_scheme_positive_entry_neither_index_nor_name(self, tmp_path, positive):
        path = tmp_path / "scheme.json"
        path.write_text('{"classes": ["a", "b", "c", "d"], "positive": %s}' % positive)
        with pytest.raises(ValueError, match="neither a class index nor a class name"):
            read_scheme(path)


@dataclass
class Entry:
    name: str
    weight: float
    counts: list[int]
    table: dict = field(default_factory=dict, repr=False)


ENTRY_TYPES = {"name": "str", "weight": "float", "counts": "list"}


class TestRecord:
    def test_repr_false_field_left_out_and_values_not_copied(self):
        entry = Entry("g0", 0.5, [1, 2], {"id": ["a"]})
        values = record(entry)
        assert list(values) == ["name", "weight", "counts"]
        assert values["counts"] is entry.counts

    def test_non_dataclass_is_not_serializable(self):
        with pytest.raises(TypeError, match="ndarray is not JSON serializable"):
            record(np.zeros(2))

    def test_check_accepts_an_int_as_a_float(self):
        check_record({"name": "g0", "weight": 1, "counts": []}, ENTRY_TYPES, "entry 0")

    @pytest.mark.parametrize("payload, message", [
        (["g0", 0.5, []], "entry 0: expected a JSON object, got list"),
        ({"name": "g0", "weight": 0.5}, "entry 0: missing keys ['counts'], unknown keys []"),
        ({"name": "g0", "weight": 0.5, "counts": [], "wieght": 1.0},
         "entry 0: missing keys [], unknown keys ['wieght']"),
        ({"name": "g0", "weight": True, "counts": []},
         "entry 0: weight must be a number, got True"),
    ], ids=["not-an-object", "missing-key", "unknown-key", "bool-for-number"])
    def test_check_rejects_naming_where_and_what(self, payload, message):
        with pytest.raises(ValueError) as err:
            check_record(payload, ENTRY_TYPES, "entry 0")
        assert str(err.value) == message


def reference_write_csv(path, dataset, scored=None):
    """Row-by-row reference writer: every row goes through csv.writer's
    default dialect (CRLF line ends, minimal quoting)."""
    header = BASE_COLUMNS + [f"f{i}" for i in range(dataset.feature_dim)]
    rows = ([i, str(y), "" if t < 0 else str(t), g, *map(repr, x)]
            for i, y, t, g, x in zip(dataset.ids.tolist(), dataset.y.tolist(),
                                     dataset.true_y.tolist(), dataset.grader.tolist(),
                                     dataset.X.tolist()))
    if scored is not None:
        fold, qs, probs = scored
        header += ["fold", "quality_score"] + [f"p{i}" for i in range(probs.shape[1])]
        rows = (row + [f, repr(q), *map(repr, p)]
                for row, f, q, p in zip(rows, fold.tolist(), qs.tolist(), probs.tolist()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def reference_parse_cells(cells, first_row, names, dtype, what):
    """Reference parse: the whole grid through np.array(cells, dtype=dtype),
    then cell by cell to name the first bad cell."""
    try:
        values = np.array(cells, dtype=dtype).reshape(len(cells), len(names))
        if dtype is int or np.isfinite(values).all():
            return values
    except (ValueError, OverflowError):
        pass
    for row_no, row in enumerate(cells, start=first_row):
        for name, cell in zip(names, row):
            try:
                value = dtype(cell)
            except ValueError:
                problem = f"non-{'integer' if dtype is int else 'numeric'} {what}"
            else:
                if dtype is float and not math.isfinite(value):
                    problem = f"non-finite {what}"
                elif dtype is int and not -2**63 <= value < 2**63:
                    problem = f"{what}-out-of-range"
                else:
                    continue
            raise InputError(f"row {row_no}: {problem} in column {name}: {cell!r}")
    raise InputError(f"unparsable {what} in columns {names}")


# Text with the characters csv must quote, and floats whose text is hardest
# to read back exactly.
TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "\t", "a", "Z", "0", "é",
                                "\u2028", "\U0001d518"]), max_size=6)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 0.1 + 0.2,
                     1 / 3, 1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 1e300]))


@st.composite
def csv_datasets(draw):
    """A dataset of 0-50 rows with awkward ids, graders, labels and floats,
    and (fold, qs, probs) for it or None."""
    n = draw(st.integers(0, 50))
    d = draw(st.integers(0, 3))
    k = default_scheme().n_classes
    ids = draw(st.lists(TEXT, min_size=n, max_size=n, unique=True))
    ds = Dataset(default_scheme(), ids=ids,
                 X=np.array(draw(st.lists(FLOATS, min_size=n * d, max_size=n * d))).reshape(n, d),
                 y=draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
                 true_y=draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n)),
                 grader=draw(st.lists(st.one_of(st.just(""), TEXT), min_size=n, max_size=n)))
    if not draw(st.booleans()):
        return ds, None
    fold = np.array(draw(st.lists(st.sampled_from(["D1", "D2"]), min_size=n, max_size=n)),
                    dtype=str)
    qs = np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float)
    probs = np.array(draw(st.lists(FLOATS, min_size=n * k, max_size=n * k))).reshape(n, k)
    return ds, (fold, qs, probs)


def assert_bitwise_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


CELLS = st.one_of(
    st.sampled_from(["1_000", " 1.5", "\uff11", "nan", "-inf", "1e400", "0x10", "", "1.5",
                     "-0.0", "5e-324", "1e-400", "Infinity", "+1", "1e", ".", "1.5 x"]),
    FLOATS.map(repr), st.integers().map(str), st.text(max_size=4))


class TestCodecAgainstReference:
    @given(case=csv_datasets(), chunk_rows=st.sampled_from([2, 3, sncv.dataset.CHUNK_ROWS]))
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_and_exact_read_back(self, tmp_path_factory, case, chunk_rows):
        ds, scored = case
        root = tmp_path_factory.mktemp("codec")
        with mock.patch.object(sncv.dataset, "CHUNK_ROWS", chunk_rows):
            if scored is None:
                write_dataset(ds, root / "new.csv")
                back = read_dataset(root / "new.csv", ds.scheme)
            else:
                write_scored_dataset(ScoredDataset(ds, *scored), root / "new.csv")
                back_scored = read_scored_dataset(root / "new.csv", ds.scheme)
                back = back_scored.dataset
                for name, column in zip(("fold", "qs", "probs"), scored):
                    assert_bitwise_equal(getattr(back_scored, name), column)
        # a scored file is written without the features
        written = ds if scored is None else Dataset(ds.scheme, ds.ids, ds.X[:, :0], ds.y,
                                                    ds.true_y, ds.grader)
        reference_write_csv(root / "ref.csv", written, scored)
        assert (root / "new.csv").read_bytes() == (root / "ref.csv").read_bytes()
        for name in ("ids", "X", "y", "true_y", "grader"):
            assert_bitwise_equal(getattr(back, name), getattr(written, name))

    @given(cells=st.lists(st.lists(CELLS, min_size=3, max_size=3), max_size=6),
           width=st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_float_parse_matches_array_parse(self, cells, width):
        rows = [row[:width] for row in cells]
        names = [f"f{i}" for i in range(width)]
        columns = [tuple(row[j] for row in rows) for j in range(width)]
        outcomes = []
        for parse in (lambda: reference_parse_cells(rows, 2, names, float, "feature"),
                      lambda: sncv.dataset._parse_cells(columns, len(rows), 2, names,
                                                        float, "feature")):
            try:
                outcomes.append(parse())
            except InputError as err:
                outcomes.append(str(err))
        ref, new = outcomes
        if isinstance(ref, str):
            assert new == ref
        else:
            assert_bitwise_equal(new, ref)
