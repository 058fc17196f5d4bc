"""Tests for dataset ingestion, splitting, scaling, and synthesis."""

import re
from dataclasses import replace

import numpy as np
import pytest

import elmkit
from elmkit.data import (
    FormatError,
    LabeledDataset,
    ScalingParams,
    SplitSpec,
    SyntheticConfig,
    _per_class_train_counts,
    default_split_spec,
    fit_scaling,
    generate_synthetic,
    littleport_like_config,
    load_csv,
    load_feature_csv,
    save_csv,
    scale_features,
    stratified_split,
)
from elmkit.modelio import load_model


def small_dataset():
    features = np.array([
        [0.0, 10.0],
        [1.0, 20.0],
        [2.0, 30.0],
        [3.0, 40.0],
        [4.0, 50.0],
        [5.0, 60.0],
    ])
    labels = np.array([0, 0, 0, 1, 1, 1])
    return LabeledDataset(features, labels, ("left", "right"))


class TestLabeledDataset:
    def test_basic_properties(self):
        ds = small_dataset()
        assert ds.n_samples == 6
        assert ds.n_features == 2
        assert ds.n_classes == 2
        assert ds.class_names == ("left", "right")

    def test_arrays_are_read_only(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            LabeledDataset(np.ones((3, 2)), np.array([0, 1, 2]), ("a", "b"))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="two classes"):
            LabeledDataset(np.ones((2, 2)), np.array([0, 0]), ("only",))

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            LabeledDataset(np.ones((2, 2)), np.array([0, 1]), ("a", "a"))

    @pytest.mark.parametrize("names", [("a", "a ", "b"), (" a", "b", "c"), ("a\nb", "c"),
                                       ("a", "b\r"), ("a", "\tb"), ("a", "", "b")])
    def test_class_names_no_reader_gives_back_rejected(self, names):
        """Readers strip names and read one per line: ("a", "a ", "b") would load as two classes."""
        with pytest.raises(ValueError, match="outer whitespace or a line break"):
            LabeledDataset(np.ones((3, 2)), np.array([0, 1, 1]), names)

    def test_inner_space_and_tab_round_trip(self, tmp_path):
        ds = LabeledDataset(np.eye(2), np.array([0, 1]), ("north field", "a\tb"))
        save_csv(ds, tmp_path / "data.csv")
        assert load_csv(tmp_path / "data.csv").class_names == ("north field", "a\tb")

    def test_non_finite_features_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            LabeledDataset(bad, np.array([0, 1]), ("a", "b"))

    @pytest.mark.parametrize("labels, dtype", [
        ([0.5, 1.7, 0.2], "float64"), ([0.0, np.nan, 1.0], "float64"), ([True, False, True], "bool"),
    ])
    def test_labels_a_cast_would_change_rejected(self, labels, dtype):
        """A cast to int64 would truncate 0.5 and 1.7, and would take True for class 1."""
        message = f"^labels must be integers that int64 holds, got {dtype} labels$"
        with pytest.raises(ValueError, match=message):
            LabeledDataset(np.ones((3, 2)), labels, ("a", "b"))

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one per sample"):
            LabeledDataset(np.ones((3, 2)), np.array([0, 1]), ("a", "b"))

    @pytest.mark.parametrize("indices, dtype", [([1.0, 4.9], "float64"), ([True, False], "bool")])
    def test_subset_indices_a_cast_would_change_rejected(self, indices, dtype):
        """A cast would take row 4 for 4.9, and rows 1 and 0 for a mask."""
        with pytest.raises(ValueError, match=f"^indices must be integers that int64 holds, "
                                             f"got {dtype} indices$"):
            small_dataset().subset(indices)

    def test_subset_picks_rows(self):
        ds = small_dataset()
        sub = ds.subset([1, 4])
        np.testing.assert_array_equal(sub.features, ds.features[[1, 4]])
        np.testing.assert_array_equal(sub.labels, [0, 1])
        assert sub.class_names == ds.class_names


class TestCsvRoundTrip:
    """save_csv followed by load_csv reproduces the dataset exactly."""

    def test_round_trip_identity(self, tmp_path, rng):
        features = rng.uniform(-50, 300, size=(40, 5))
        labels = rng.integers(0, 3, size=40)
        labels[:3] = [2, 0, 1]  # first appearance differs from name order
        ds = LabeledDataset(features, labels, ("zeta", "alpha", "mid"))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path, class_names=ds.class_names)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.class_names == ds.class_names

    def test_exact_cell_text(self, tmp_path):
        """Cells are Python float reprs: signed zero, subnormals and exponents included."""
        values = [-0.0, 5e-324, 1e-300, 0.1 + 0.2, 1e16]
        ds = LabeledDataset(np.array([values]), np.array([1]), ("a", "b"))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        assert path.read_bytes() == (b"f1,f2,f3,f4,f5,label\r\n"
                                     b"-0.0,5e-324,1e-300,0.30000000000000004,1e+16,b\r\n")
        back = load_csv(path, class_names=ds.class_names)
        assert back.features.tobytes() == ds.features.tobytes()

    def test_first_appearance_label_order(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,label\n1.0,beta\n2.0,alpha\n3.0,beta\n")
        ds = load_csv(path)
        assert ds.class_names == ("beta", "alpha")
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_class_names_with_commas_survive(self, tmp_path):
        ds = LabeledDataset(np.eye(2), np.array([0, 1]), ("a,b", "c"))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path, class_names=ds.class_names)
        assert back.class_names == ("a,b", "c")
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_header_comments_written_and_skipped(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "data.csv"
        save_csv(ds, path, header_comments=["config: x=1", "source: synthetic"])
        text = path.read_text()
        assert text.startswith("# config: x=1\n# source: synthetic\n")
        back = load_csv(path, class_names=ds.class_names)
        np.testing.assert_array_equal(back.features, ds.features)
        features, _ = load_feature_csv(path)
        np.testing.assert_array_equal(features, ds.features)

    @pytest.mark.parametrize("names, header", [
        (["#b1", "f2"], b'"#b1",f2,label\r\n'),
        ([" #b1", "f2"], b'" #b1",f2,label\r\n'),
        (['#"b1', "f2"], b'"#""b1",f2,label\r\n'),
        (["f1", "#b2"], b"f1,#b2,label\r\n"),
    ], ids=["first", "first-after-space", "first-with-quote", "second"])
    def test_first_name_starting_with_hash_is_quoted(self, tmp_path, names, header):
        """Unquoted, such a header would read back as a comment line."""
        ds = small_dataset()
        path = tmp_path / "data.csv"
        save_csv(ds, path, feature_names=names, header_comments=["note"])
        assert path.read_bytes().split(b"\n", 1)[1].startswith(header)
        back = load_csv(path, class_names=ds.class_names)
        assert back.features.tobytes() == ds.features.tobytes()
        assert load_feature_csv(path)[1] == [name.strip() for name in names]

    @pytest.mark.parametrize("comment", ["two\nlines", "cr\rhere", "trailing\r\n"])
    def test_header_comment_with_line_break_rejected(self, tmp_path, comment):
        """The line after the break would not start with '#'."""
        path = tmp_path / "data.csv"
        with pytest.raises(ValueError, match="line break"):
            save_csv(small_dataset(), path, header_comments=["fine", comment])
        assert not path.exists()

    def test_error_rows_count_comment_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# one comment\nf1,label\n1.0,a\nbad,b\n")
        with pytest.raises(FormatError, match="row 4"):
            load_csv(path)

    def test_error_rows_count_lines_inside_quoted_cells(self, tmp_path):
        """A label quoted across lines 3-4 leaves the bad cell on line 6, and a
        feature cell quoted across lines 3-4 leaves the unknown class on line 5."""
        path = tmp_path / "data.csv"
        path.write_text('f1,label\n1.0,a\n2.0,"two\nlines"\n3.0,b\noops,b\n')
        with pytest.raises(FormatError, match="row 6, column 'f1'"):
            load_csv(path)
        path.write_text('# note\nf1,label\n"2.0\n",a\n1.0,z\n')
        with pytest.raises(FormatError, match="row 5: unknown class 'z'"):
            load_csv(path, class_names=("a", "b"))

    @pytest.mark.parametrize("comment", ["# comment\n", ""], ids=["comment", "no-comment"])
    @pytest.mark.parametrize("header, rows", [
        ("f1,f2,label", "1.0,2.0,a\n3.0,4.0,b\n"),
        ("label,f1,f2", "a,1.0,2.0\nb,3.0,4.0\n"),
    ], ids=["label-last", "label-first"])
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, comment, header, rows):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"{comment}{header}\n{rows}".encode())
        ds = load_csv(path)
        assert ds.class_names == ("a", "b")
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert load_feature_csv(path)[1] == ["f1", "f2"]

    def test_byte_order_mark_keeps_error_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbff1,label\n1.0,a\n\xff,b\n")
        with pytest.raises(FormatError, match="line 3: not valid UTF-8"):
            load_csv(path)


class TestCsvErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("f1,label\n")
        with pytest.raises(FormatError, match="no data rows"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("f1,f2\n1,2\n")
        with pytest.raises(FormatError, match="label"):
            load_csv(path)

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2,label\n1.0,2.0,a\n3.0,oops,b\n")
        with pytest.raises(FormatError, match="row 3.*'f2'"):
            load_csv(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("f1,label\ninf,a\n1.0,b\n")
        with pytest.raises(FormatError, match="row 2"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f1,f2,label\n1.0,2.0,a\n3.0,b\n")
        with pytest.raises(FormatError, match="row 3"):
            load_csv(path)

    def test_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("f1,f1,label\n1,2,a\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_csv(path)

    def test_unknown_class_with_pinned_names(self, tmp_path):
        path = tmp_path / "unknown.csv"
        path.write_text("f1,label\n1.0,a\n2.0,z\n")
        with pytest.raises(FormatError, match="row 3.*'z'"):
            load_csv(path, class_names=("a", "b"))

    @pytest.mark.parametrize("line_break", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_class_name_with_line_break_rejected(self, tmp_path, line_break):
        path = tmp_path / "data.csv"
        path.write_bytes(f'f1,label\n1.0,a\n2.0,"a{line_break}b"\n3.0,b\n'.encode())
        with pytest.raises(FormatError, match="row 3: class name contains a line break"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["", "  ", '" "'], ids=["empty", "spaces", "quoted-space"])
    @pytest.mark.parametrize("pinned", [None, ("a", "b")], ids=["found", "pinned"])
    def test_empty_label_names_its_row(self, tmp_path, cell, pinned):
        """An empty label used to become one more class, named ''."""
        path = tmp_path / "data.csv"
        path.write_text(f"# note\nf1,label\n1.0,a\n2.0,{cell}\n3.0,b\n")
        with pytest.raises(FormatError, match=r"data\.csv: row 4: empty label$"):
            load_csv(path, class_names=pinned)

    def test_unknown_class_line_counts_comment_lines(self, tmp_path):
        path = tmp_path / "unknown.csv"
        path.write_text("# one\n# two\nf1,label\n1.0,a\n2.0,z\n")
        with pytest.raises(FormatError, match="row 5: unknown class 'z'"):
            load_csv(path, class_names=("a", "b"))


class TestLoadFeatureCsv:
    def test_drops_label_column_by_default(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("f1,f2,label\n1,2,a\n3,4,b\n")
        features, names = load_feature_csv(path)
        np.testing.assert_array_equal(features, [[1.0, 2.0], [3.0, 4.0]])
        assert names == ["f1", "f2"]

    def test_unlabeled_file(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("f1,f2\n1,2\n")
        features, names = load_feature_csv(path)
        np.testing.assert_array_equal(features, [[1.0, 2.0]])

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("# comment\nf1,f2,label\n1.0,2.0,a\n3.0,4.0,b,extra\n")
        with pytest.raises(FormatError, match="row 4 has 4 cells, expected 3"):
            load_feature_csv(path)

    def test_bad_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("f1,f2\n1.0,2.0\n3.0,nan\n")
        with pytest.raises(FormatError, match="row 3, column 'f2'"):
            load_feature_csv(path)


def reference_fraction_counts(class_sizes, fraction, rng):
    """The loop form of the fraction split: floors, then the remainder one
    sample at a time over classes in seeded order, skipping full classes."""
    counts = np.floor(fraction * class_sizes).astype(np.int64)
    remainder = int(round(fraction * int(class_sizes.sum()))) - int(counts.sum())
    order = rng.permutation(len(class_sizes))
    while remainder > 0:
        progressed = False
        for cls in order:
            if remainder and counts[cls] < class_sizes[cls]:
                counts[cls] += 1
                remainder -= 1
                progressed = True
        if not progressed:
            break
    return counts


def class_counts(ds, n_classes):
    return np.bincount(ds.labels, minlength=n_classes)


def make_unbalanced(rng, sizes):
    rows = []
    labels = []
    for cls, size in enumerate(sizes):
        rows.append(rng.normal(cls * 10.0, 1.0, size=(size, 3)))
        labels.append(np.full(size, cls))
    perm = rng.permutation(sum(sizes))
    features = np.vstack(rows)[perm]
    labels = np.concatenate(labels)[perm]
    names = tuple(f"c{i}" for i in range(len(sizes)))
    return LabeledDataset(features, labels, names)


class TestSplitSpecValidation:
    def test_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="train_fraction"):
                SplitSpec(train_fraction=bad)

    def test_float_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be an integer, got 3.0$"):
            SplitSpec(train_fraction=0.5, seed=3.0)

    def test_bool_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be an integer, got True$"):
            SplitSpec(train_fraction=0.5, seed=True)

    @pytest.mark.parametrize("fraction", ["0.5", True, None])
    def test_non_number_fraction_rejected(self, fraction):
        with pytest.raises(ValueError, match=f"^train_fraction must be a number, got {fraction!r}$"):
            SplitSpec(train_fraction=fraction)

class TestStratifiedSplit:
    def test_disjoint_and_exhaustive(self, rng):
        ds = make_unbalanced(rng, [20, 30, 25])
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.6, seed=3))
        combined = np.vstack([train.features, test.features])
        original = ds.features
        # every original row appears exactly once across the two subsets
        key = lambda a: sorted(map(tuple, a))
        assert key(combined) == key(original)
        assert train.n_samples + test.n_samples == ds.n_samples

    def test_fraction_total_matches_rounded_target(self, rng):
        for trial in range(20):
            sizes = rng.integers(5, 60, size=rng.integers(2, 6))
            fraction = float(rng.uniform(0.2, 0.8))
            ds = make_unbalanced(rng, list(sizes))
            train, test = stratified_split(
                ds, SplitSpec(train_fraction=fraction, seed=int(rng.integers(1000)))
            )
            assert train.n_samples == round(fraction * ds.n_samples)
            per_class = class_counts(train, len(sizes))
            floors = np.floor(fraction * sizes).astype(int)
            assert (per_class >= floors).all()
            assert (per_class <= floors + 1).all() or (per_class <= sizes).all()

    def test_deterministic_for_fixed_seed(self, rng):
        ds = make_unbalanced(rng, [40, 40])
        spec = SplitSpec(train_fraction=0.5, seed=11)
        a_train, a_test = stratified_split(ds, spec)
        b_train, b_test = stratified_split(ds, spec)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)

    def test_different_seed_changes_selection(self, rng):
        ds = make_unbalanced(rng, [40, 40])
        a, _ = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=1))
        b, _ = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_row_order_preserved_within_subsets(self, rng):
        ds = make_unbalanced(rng, [15, 15])
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=5))
        rows = {tuple(r): i for i, r in enumerate(ds.features)}
        for subset in (train, test):
            positions = [rows[tuple(r)] for r in subset.features]
            assert positions == sorted(positions)

    def test_empty_test_rejected(self, rng):
        # floors 9 + 9 fall two short of round(0.99 * 20) = 20, so each class gives all 10
        ds = make_unbalanced(rng, [10, 10])
        with pytest.raises(ValueError, match="empty test"):
            stratified_split(ds, SplitSpec(train_fraction=0.99))

    @pytest.mark.parametrize("sizes, fraction, seed, want", [
        ([10, 10], 0.39, 0, [4, 4]),                    # remainder equals the class count
        ([2, 2, 2, 2, 3], 0.9, 4, [2, 2, 2, 1, 3]),     # two-sample classes take their last
        ([3, 3, 3, 3], 0.5, 1, [2, 2, 1, 1]),
        ([2, 3, 5, 7], 0.9, 2, [1, 2, 5, 7]),
        ([2, 9, 4], 1 / 3, 5, [0, 4, 1]),
        ([10, 10, 11], 0.05, 7, [1, 0, 1]),             # floors all zero
        ([4, 4, 4, 4, 4, 4], 0.625, 3, [2, 2, 3, 2, 3, 3]),
        ([677] * 5 + [676] * 2, 2700 / 4737, 42, [385, 386, 386, 386, 386, 385, 386]),
    ])
    def test_fraction_counts_pinned(self, sizes, fraction, seed, want):
        """Floors plus one sample each for the first classes in seeded order."""
        labels = np.repeat(np.arange(len(sizes)), sizes)
        ds = LabeledDataset(np.arange(labels.size, dtype=float)[:, None], labels,
                            tuple("abcdefg"[:len(sizes)]))
        train, _ = stratified_split(ds, SplitSpec(train_fraction=fraction, seed=seed))
        np.testing.assert_array_equal(class_counts(train, len(sizes)), want)

    def test_fraction_counts_match_the_reference_loop(self, rng):
        for _ in range(2000):
            sizes = rng.integers(2, int(rng.choice([4, 60])), size=int(rng.integers(2, 9)))
            fraction = float(rng.choice([rng.uniform(0.0, 1.0), 1e-12, 1 - 1e-12, 0.5, 1 / 3]))
            seed = int(rng.integers(1000))
            got = _per_class_train_counts(sizes, SplitSpec(train_fraction=fraction, seed=seed),
                                          np.random.default_rng(seed))
            want = reference_fraction_counts(sizes, fraction, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, want, err_msg=f"{sizes} {fraction} {seed}")

    def test_tiny_class_in_fraction_mode_rejected(self, rng):
        ds = make_unbalanced(rng, [10, 10])
        ds = ds.subset(list(np.flatnonzero(ds.labels == 0)) + [int(np.flatnonzero(ds.labels == 1)[0])])
        with pytest.raises(ValueError, match="at least 2"):
            stratified_split(ds, SplitSpec(train_fraction=0.5))


class TestScaling:
    def test_train_extremes_hit_plus_minus_one(self, rng):
        features = rng.uniform(-100, 400, size=(30, 4))
        params = fit_scaling(LabeledDataset(features, np.zeros(30), ("a", "b")))
        scaled = scale_features(features, params)
        np.testing.assert_allclose(scaled.min(axis=0), -1.0, atol=1e-12)
        np.testing.assert_allclose(scaled.max(axis=0), 1.0, atol=1e-12)

    def test_known_mapping(self):
        # range [0, 255]: value 300 maps past the upper edge
        params = ScalingParams(np.array([0.0]), np.array([255.0]))
        out = scale_features(np.array([[300.0]]), params)
        np.testing.assert_allclose(out, [[2.0 * 300.0 / 255.0 - 1.0]])
        np.testing.assert_allclose(out, [[1.3529411764705883]])

    def test_constant_feature_maps_to_zero(self):
        train = LabeledDataset(np.array([[5.0, 1.0], [5.0, 3.0]]), [0, 1], ("a", "b"))
        params = fit_scaling(train)
        out = scale_features(np.array([[5.0, 2.0], [7.0, 3.0]]), params)
        assert out[0, 0] == 0.0
        assert out[1, 0] == 0.0  # off-range values of a constant column too
        np.testing.assert_allclose(out[:, 1], [0.0, 1.0])

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError, match=">="):
            ScalingParams(np.array([1.0]), np.array([0.0]))

    def test_range_past_float64_rejected(self):
        with pytest.raises(ValueError, match=r"^feature bounds must be finite, .* and a finite range "
                                             r"feature_max - feature_min \(feature column 1\)$"):
            ScalingParams(np.array([0.0, -1e308]), np.array([1.0, 1e308]))

    @pytest.mark.parametrize("value", [1e308, -1e308, np.inf, np.nan])
    def test_non_finite_scaled_value_rejected(self, value):
        params = ScalingParams(np.array([0.0, 0.0, 0.0]), np.array([1.0, 5.0, 1.0]))
        features = np.ones((4, 3))
        features[2, 1] = value
        with pytest.raises(ValueError, match=r"^feature column 1: scaled value is not finite "):
            scale_features(features, params)


class TestSyntheticConfig:
    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[[1.0, 0.5], [0.2, 1.0]]] * 2)
        with pytest.raises(ValueError, match="symmetric"):
            SyntheticConfig(("a", "b"), np.zeros((2, 2)), cov, (5, 5))

    def test_indefinite_covariance_rejected(self):
        cov = np.array([[[1.0, 2.0], [2.0, 1.0]]] * 2)  # eigenvalues 3, -1
        with pytest.raises(ValueError, match="positive definite"):
            SyntheticConfig(("a", "b"), np.zeros((2, 2)), cov, (5, 5))

    def test_zero_count_rejected(self):
        cov = np.array([np.eye(2)] * 2)
        with pytest.raises(ValueError, match="positive sample count"):
            SyntheticConfig(("a", "b"), np.zeros((2, 2)), cov, (5, 0))

    @pytest.mark.parametrize("count", [677.9, 5.0, True, "5"])
    def test_count_that_is_not_an_integer_rejected(self, count):
        with pytest.raises(ValueError, match=f"^counts must be an integer, got {count!r}$"):
            replace(littleport_like_config(), counts=(count,) * 7)

    def test_shape_mismatch_rejected(self):
        cov = np.array([np.eye(3)] * 2)
        with pytest.raises(ValueError, match="covariances"):
            SyntheticConfig(("a", "b"), np.zeros((2, 2)), cov, (5, 5))

    @pytest.mark.parametrize("names, match", [(("a", "a"), "distinct"),
                                              (("a\nb", "c"), "line break")])
    def test_class_names_no_config_file_holds_rejected(self, names, match):
        with pytest.raises(ValueError, match=match):
            SyntheticConfig(names, np.zeros((2, 2)), np.array([np.eye(2)] * 2), (5, 5))


class TestGenerateSynthetic:
    def test_deterministic(self):
        cfg = littleport_like_config(seed=9)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert a.features.tobytes() == b.features.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_counts_and_block_layout(self):
        cfg = littleport_like_config()
        ds = generate_synthetic(cfg)
        np.testing.assert_array_equal(np.bincount(ds.labels), cfg.counts)
        # samples arrive grouped by class, in class order
        boundaries = np.cumsum(cfg.counts)
        starts = np.concatenate([[0], boundaries[:-1]])
        for cls, (lo, hi) in enumerate(zip(starts, boundaries)):
            assert (ds.labels[lo:hi] == cls).all()

    def test_sample_moments_match_config(self):
        # n around 677 per class: the sample mean of each band should sit
        # within a few standard errors of the configured mean
        cfg = littleport_like_config(seed=3)
        ds = generate_synthetic(cfg)
        for cls in range(cfg.n_classes):
            block = ds.features[ds.labels == cls]
            se = np.sqrt(np.diag(cfg.covariances[cls]) / block.shape[0])
            assert (np.abs(block.mean(axis=0) - cfg.means[cls]) < 5 * se).all()
            sample_cov = np.cov(block.T)
            assert np.abs(sample_cov - cfg.covariances[cls]).max() < 25.0

    def test_seed_changes_draws(self):
        a = generate_synthetic(littleport_like_config(seed=1))
        b = generate_synthetic(littleport_like_config(seed=2))
        assert not np.array_equal(a.features, b.features)


class TestDefaultScene:
    def test_shape_of_default_scene(self):
        cfg = littleport_like_config()
        assert cfg.n_classes == 7
        assert cfg.n_features == 6
        assert sum(cfg.counts) == 4737

    def test_default_split_is_2700_2037(self):
        ds = generate_synthetic(littleport_like_config())
        train, test = stratified_split(ds, default_split_spec())
        assert train.n_samples == 2700
        assert test.n_samples == 2037


@pytest.mark.parametrize("load, text, line", [
    (load_csv, "f1,f2,label\n1.0,2.0,a\n1.0,oops,b\n", "row 3"),
    (load_feature_csv, "f1,f2,label\n1.0,2.0,a\n1.0,oops,b\n", "row 3"),
    (load_model, "elm-model v3\nhidden_nodes: 4\nseed: x\n", "line 3"),
    (load_model, "mlp-model v3\nhidden_nodes: 4\nlearning_rate: fast\n", "line 3"),
], ids=lambda value: getattr(value, "__name__", None))
def test_every_reader_raises_format_error(tmp_path, load, text, line):
    """One class for any malformed file, a ValueError naming the file and the line."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(elmkit.FormatError, match=re.escape(f"{path}: {line}")) as excinfo:
        load(path)
    assert isinstance(excinfo.value, ValueError)
