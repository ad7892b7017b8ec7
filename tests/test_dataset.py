import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classdisco.dataset import (
    DISCOVERED_CLASS,
    EXCLUDED,
    UNLABELED,
    Dataset,
    GaussianMixtureSpec,
    IdxData,
    IdxFormatError,
    SplitSpec,
    add_class,
    load_csv,
    load_idx,
    make_split,
    synth_gaussian,
)
from conftest import select_rows


def small_dataset(n_classes=3, per_class=10, dim=2, seed=0):
    return synth_gaussian(GaussianMixtureSpec(n_classes, dim, 5.0, per_class, seed=seed))


class TestLoadIdx:
    def test_two_image_pair(self, tmp_path, idx_writer):
        images = np.array([np.zeros((2, 3)), np.full((2, 3), 255)], dtype=np.uint8)
        img_p, lbl_p = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        idx_writer(images, [0, 1], img_p, lbl_p)
        data = load_idx(img_p, lbl_p)
        assert data.features.shape == (2, 6)
        assert np.array_equal(data.features[0], np.zeros(6))
        assert np.array_equal(data.features[1], np.ones(6))
        assert np.array_equal(data.true_labels, [0, 1])
        assert data.label_map == (0, 1)
        assert data.human_labeled_count() == 2

    def test_bad_magic(self, tmp_path, idx_writer):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        img_p, lbl_p = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        # swap the files: the images argument gets the labels magic
        idx_writer(images, [0], img_p, lbl_p)
        with pytest.raises(IdxFormatError, match="bad magic"):
            load_idx(lbl_p, img_p)

    def test_truncated_reports_offset(self, tmp_path, idx_writer):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        img_p, lbl_p = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        idx_writer(images, [0, 1, 0], img_p, lbl_p)
        blob = open(img_p, "rb").read()
        with open(img_p, "wb") as f:
            f.write(blob[:-5])
        with pytest.raises(IdxFormatError, match="byte offset 16"):
            load_idx(img_p, lbl_p)

    def test_count_mismatch(self, tmp_path, idx_writer):
        img_p, lbl_p = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        idx_writer(np.zeros((2, 2, 2), dtype=np.uint8), [0, 1], img_p, lbl_p)
        img2, lbl2 = str(tmp_path / "im2.idx"), str(tmp_path / "lb2.idx")
        idx_writer(np.zeros((3, 2, 2), dtype=np.uint8), [0, 1, 0], img2, lbl2)
        with pytest.raises(IdxFormatError, match="count mismatch"):
            load_idx(img_p, lbl2)

    def test_round_trip_exact(self, tmp_path, idx_writer):
        rng = np.random.default_rng(5)
        pixels = rng.integers(0, 256, size=(7, 4, 5)).astype(np.uint8)
        labels = rng.integers(0, 3, size=7)
        img_p, lbl_p = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        idx_writer(pixels, labels, img_p, lbl_p)
        data = load_idx(img_p, lbl_p)
        expected = pixels.reshape(7, 20).astype(np.float64) / 255.0
        assert np.array_equal(data.features, expected)
        assert np.array_equal(data.true_labels, labels)


@st.composite
def idx_pairs(draw):
    """The bytes of a tiny IDX image/label pair, maybe with corrupted header
    bytes and either file cut short."""
    n, rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    pixels = draw(st.binary(min_size=n * rows * cols, max_size=n * rows * cols))
    labels = bytes(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    blobs = [
        bytearray(struct.pack(">IIII", 2051, n, rows, cols) + pixels),
        bytearray(struct.pack(">II", 2049, n) + labels),
    ]
    for _ in range(draw(st.integers(0, 2))):
        which = draw(st.integers(0, 1))
        blobs[which][draw(st.integers(0, (15, 7)[which]))] = draw(st.integers(0, 255))
    return tuple(
        bytes(blob[: draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))])
        for blob in blobs
    )


class TestIdxShape:
    @settings(max_examples=200, deadline=None)
    @given(pair=idx_pairs())
    # no images, but more pixels per image than numpy can shape
    @example(pair=(struct.pack(">IIII", 2051, 0, 2**32 - 1, 2**32 - 1), struct.pack(">II", 2049, 0)))
    def test_shape_fails_exactly_when_load_fails(self, tmp_path_factory, pair):
        directory = tmp_path_factory.mktemp("idx")
        paths = str(directory / "im.idx"), str(directory / "lb.idx")
        for path, blob in zip(paths, pair):
            with open(path, "wb") as f:
                f.write(blob)

        def outcome(read):
            try:
                return read()
            except IdxFormatError as exc:
                return f"IdxFormatError: {exc}"

        assert outcome(IdxData(*paths).shape) == outcome(lambda: load_idx(*paths).shape())

    def test_shape_reads_no_pixels(self, tmp_path):
        n, side = 60_000, 28
        images, labels = tmp_path / "im.idx", tmp_path / "lb.idx"
        with open(images, "wb") as f:
            f.write(struct.pack(">IIII", 2051, n, side, side))
            f.truncate(16 + n * side * side)  # a sparse 47 MB pixel payload
        labels.write_bytes(struct.pack(">II", 2049, n) + bytes(range(10)) * (n // 10))
        tracemalloc.start()
        try:
            shape = IdxData(str(images), str(labels)).shape()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shape == (side * side, {c: n // 10 for c in range(10)})
        assert peak < 1_000_000


def test_load_idx_full_mnist_shape():
    from conftest import MNIST_SKIP_REASON, mnist_train_paths

    paths = mnist_train_paths()
    if paths is None:
        pytest.skip(MNIST_SKIP_REASON)
    data = load_idx(*paths)
    assert data.n_samples == 60000
    assert data.n_features == 784
    assert data.n_classes_visible == 10
    assert data.features.min() >= 0.0 and data.features.max() <= 1.0


def test_load_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,f1,label\n0.5,1.5,0\n-1.0,2.0,1\n0.0,0.0,1\n")
    data = load_csv(str(path))
    assert data.features.shape == (3, 2)
    assert np.array_equal(data.true_labels, [0, 1, 1])
    assert data.n_classes_visible == 2


@pytest.mark.parametrize(
    "cell, line",
    [("", 3), ("nan", 3), ("inf", 3), ("abc", 3), ("1e308", 3), ("-1e39", 3)],
)
def test_load_csv_rejects_non_finite_features(tmp_path, cell, line):
    path = tmp_path / "data.csv"
    path.write_text(f"f0, f1 ,label\n0.5,1.5,0\n-1.0,{cell},1\n")
    with pytest.raises(ValueError, match=rf"data\.csv: line {line}, column 'f1'"):
        load_csv(str(path))


def test_load_csv_line_numbers_skip_blank_and_comment_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,f1,label\n\n# note\n0.5,1.5,0\n\n,2.0,1\n")
    with pytest.raises(ValueError, match="line 6, column 'f0'"):
        load_csv(str(path))


def test_load_csv_accepts_the_float32_extremes(tmp_path):
    big = float(np.finfo(np.float32).max)
    path = tmp_path / "data.csv"
    path.write_text(f"f0,label\n{big!r},0\n{-big!r},1\n")
    assert load_csv(str(path)).features[:, 0].tolist() == [big, -big]


@pytest.mark.parametrize("header", ["a,b", "a,b,c,label"])
def test_load_csv_header_must_match_the_rows(tmp_path, header):
    path = tmp_path / "data.csv"
    path.write_text(f"{header}\n1,2,0\n3,4,1\n")
    message = rf"data\.csv: line 1 \(the header\) has {header.count(',') + 1} columns, not 3"
    with pytest.raises(ValueError, match=message):
        load_csv(str(path))


@pytest.mark.parametrize("text", ["a,b,label\n", "a,b,label\n# note\n\n", ""])
def test_load_csv_without_data_rows(tmp_path, recwarn, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"data\.csv: no data rows"):
        load_csv(str(path))
    assert not recwarn.list


class TestSynthGaussian:
    def test_zero_separation_centers_coincide(self):
        data = synth_gaussian(GaussianMixtureSpec(2, 1, 0.0, 5, seed=7))
        assert data.n_samples == 10
        # class-conditional means differ only by noise around a shared center
        m0 = data.features[data.true_labels == 0].mean()
        m1 = data.features[data.true_labels == 1].mean()
        assert abs(m0 - m1) < 3.0

    def test_separable_nearest_center(self):
        data = synth_gaussian(GaussianMixtureSpec(3, 2, 10.0, 100, seed=1))
        centers = np.stack([data.features[data.true_labels == c].mean(0) for c in range(3)])
        dists = np.linalg.norm(data.features[:, None, :] - centers[None], axis=2)
        acc = (dists.argmin(1) == data.true_labels).mean()
        assert acc >= 0.99

    def test_deterministic(self):
        spec = GaussianMixtureSpec(4, 3, 2.0, 20, seed=123)
        a, b = synth_gaussian(spec), synth_gaussian(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.true_labels, b.true_labels)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            GaussianMixtureSpec(1, 2, 1.0, 5)
        with pytest.raises(ValueError):
            GaussianMixtureSpec(2, 0, 1.0, 5)
        with pytest.raises(ValueError):
            GaussianMixtureSpec(2, 2, -1.0, 5)
        with pytest.raises(ValueError):
            GaussianMixtureSpec(2, 2, 1.0, 0)


class TestMakeSplit:
    def test_strips_and_remaps(self):
        data = small_dataset(n_classes=4)
        split = make_split(data, SplitSpec(held_out_classes={1, 3}))
        assert split.n_classes_visible == 2
        assert split.label_map == (0, 2)
        held = np.isin(split.true_labels, [1, 3])
        assert (split.labels[held] == UNLABELED).all()
        assert split.human_labeled_count() == np.count_nonzero(~held)
        # retained class 2 is remapped to dense label 1
        assert (split.labels[split.true_labels == 2] == 1).all()
        assert (split.labels[split.true_labels == 0] == 0).all()

    def test_pool_plus_labeled_is_everything(self):
        data = small_dataset(n_classes=5, per_class=7)
        split = make_split(data, SplitSpec(held_out_classes={0, 4}))
        assert len(split.labeled_indices()) + len(split.unlabeled_indices()) == split.n_samples
        assert split.n_samples == data.n_samples

    def test_empty_held_out_is_identity(self):
        data = small_dataset(n_classes=3)
        split = make_split(data, SplitSpec(held_out_classes=frozenset()))
        assert np.array_equal(split.labels, data.labels)
        assert np.array_equal(split.features, data.features)
        assert split.n_classes_visible == data.n_classes_visible
        assert len(split.unlabeled_indices()) == 0

    def test_cap_limits_pool_exactly(self):
        data = small_dataset(n_classes=3, per_class=100)
        split = make_split(data, SplitSpec(held_out_classes={2}, per_class_cap=40, seed=9))
        assert len(split.unlabeled_indices()) == 40
        for dense in (0, 1):
            assert (split.labels == dense).sum() == 40
        assert (split.labels == EXCLUDED).sum() == 3 * 60

    def test_cap_no_op_when_larger_than_class(self):
        data = small_dataset(n_classes=3, per_class=10)
        split = make_split(data, SplitSpec(held_out_classes={2}, per_class_cap=50))
        assert split.n_samples == data.n_samples
        assert len(split.unlabeled_indices()) == 10

    def test_all_classes_held_out_errors(self):
        data = small_dataset(n_classes=3)
        with pytest.raises(ValueError, match="covers every class"):
            make_split(data, SplitSpec(held_out_classes={0, 1, 2}))

    def test_unknown_class_errors(self):
        data = small_dataset(n_classes=3)
        with pytest.raises(ValueError, match="not present"):
            make_split(data, SplitSpec(held_out_classes={7}))

    def test_held_out_class_outside_the_rows_errors(self):
        data = small_dataset(n_classes=3, per_class=10)
        with pytest.raises(ValueError, match=r"not present in data: \[2\]"):
            make_split(data, SplitSpec(held_out_classes={2}), rows=np.arange(20))

    def test_deterministic_cap(self):
        data = small_dataset(n_classes=3, per_class=50)
        spec = SplitSpec(held_out_classes={1}, per_class_cap=20, seed=4)
        a, b = make_split(data, spec), make_split(data, spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestAddClass:
    def setup_method(self):
        data = small_dataset(n_classes=5, per_class=10)
        self.split = make_split(data, SplitSpec(held_out_classes={3, 4}))

    def test_new_label_is_previous_visible_count(self):
        members = self.split.unlabeled_indices()[:10]
        out = add_class(self.split, members)
        assert (out.labels[members] == 5 - 2).all()  # 3 visible classes before the add
        assert out.n_classes_visible == 4
        assert out.label_map == (0, 1, 2, DISCOVERED_CLASS)
        assert out.human_labeled_count() == self.split.human_labeled_count()

    def test_second_add_gets_next_label(self):
        first = self.split.unlabeled_indices()[:5]
        out = add_class(self.split, first)
        second = out.unlabeled_indices()[:5]
        out2 = add_class(out, second)
        assert (out2.labels[second] == 4).all()
        assert out2.n_classes_visible == 5
        assert out2.label_map[3:] == (DISCOVERED_CLASS, DISCOVERED_CLASS)

    def test_excluded_rows_cannot_join_a_class(self):
        data = small_dataset(n_classes=5, per_class=10)
        split = make_split(data, SplitSpec(held_out_classes={3, 4}, per_class_cap=6, seed=2))
        outside = np.flatnonzero(split.labels == EXCLUDED)[:2]
        members = np.concatenate([split.unlabeled_indices()[:3], outside])
        message = f"outside this run (EXCLUDED): {outside.tolist()}"
        with pytest.raises(ValueError, match=re.escape(message)):
            add_class(split, members)

    def test_readd_errors(self):
        members = self.split.unlabeled_indices()[:5]
        out = add_class(self.split, members)
        with pytest.raises(ValueError, match="already labeled"):
            add_class(out, members)

    def test_features_and_truth_untouched(self):
        members = self.split.unlabeled_indices()[:5]
        out = add_class(self.split, members)
        assert out.features.tobytes() == self.split.features.tobytes()
        assert out.true_labels.tobytes() == self.split.true_labels.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_label_map_is_the_only_class_record(data):
    """Over a random split and random class additions, the human count, the
    visible class count and the discovered classes all follow from label_map."""
    n_classes = data.draw(st.integers(2, 5), label="n_classes")
    per_class = data.draw(st.integers(1, 8), label="per_class")
    held = data.draw(st.sets(st.integers(0, n_classes - 1), max_size=n_classes - 1))
    cap = data.draw(st.none() | st.integers(1, per_class), label="cap")
    raw = small_dataset(n_classes=n_classes, per_class=per_class)
    split = make_split(raw, SplitSpec(held_out_classes=held, per_class_cap=cap, seed=1))
    labeled = len(split.labeled_indices())
    assert split.human_labeled_count() == labeled

    out, added = split, []
    while len(out.unlabeled_indices()) and data.draw(st.booleans(), label="add another"):
        pool = out.unlabeled_indices().tolist()
        members = data.draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
        out = add_class(out, members)
        added.append(members)
        assert out.human_labeled_count() == labeled
        assert out.n_classes_visible == len(out.label_map) == split.n_classes_visible + len(added)
        for rows in added:
            assert all(out.label_map[c] == DISCOVERED_CLASS for c in out.labels[rows])


def test_dataset_arrays_are_immutable():
    data = small_dataset()
    with pytest.raises(ValueError):
        data.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        data.labels[0] = 2


def test_dataset_validates_shapes():
    with pytest.raises(ValueError):
        Dataset(
            features=np.zeros((3, 2)),
            labels=np.zeros(2, dtype=np.int64),
            true_labels=np.zeros(3, dtype=np.int64),
            label_map=(0,),
        )


def test_dataset_rejects_label_beyond_visible():
    with pytest.raises(ValueError, match="n_classes_visible"):
        Dataset(
            features=np.zeros((2, 2)),
            labels=np.array([0, 3]),
            true_labels=np.array([0, 1]),
            label_map=(0, 1),
        )


def test_dataset_rejects_label_below_excluded():
    with pytest.raises(ValueError, match=r"label -3 is below EXCLUDED \(-2\)"):
        Dataset(
            features=np.zeros((3, 2)),
            labels=np.array([0, EXCLUDED, -3]),
            true_labels=np.array([0, 1, 1]),
            label_map=(0,),
        )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_split_over_rows_equals_split_of_the_selected_copy(data):
    """Marking the rows outside a run EXCLUDED gives the split of the copied
    subset: the same classes, and the same labeled and pool rows, in order.
    Labeled, pool and EXCLUDED rows partition the whole matrix."""
    n_classes = data.draw(st.integers(2, 5), label="n_classes")
    per_class = data.draw(st.integers(1, 8), label="per_class")
    raw = small_dataset(n_classes=n_classes, per_class=per_class)
    rows = np.array(
        sorted(data.draw(st.sets(st.integers(0, raw.n_samples - 1), min_size=1), label="rows")),
        dtype=np.int64,
    )
    present = sorted(set(raw.true_labels[rows].tolist()))
    held = data.draw(st.sets(st.sampled_from(present), max_size=len(present) - 1), label="held")
    cap = data.draw(st.none() | st.integers(1, per_class), label="cap")
    spec = SplitSpec(held_out_classes=held, per_class_cap=cap, seed=data.draw(st.integers(0, 99)))

    marked = make_split(raw, spec, rows)
    copied = make_split(select_rows(raw, rows), spec)
    assert marked.features is raw.features and marked.true_labels is raw.true_labels
    assert marked.label_map == copied.label_map
    for side in ("labeled_indices", "unlabeled_indices"):
        got, want = getattr(marked, side)(), getattr(copied, side)()
        assert np.array_equal(got, rows[want])
        assert marked.features[got].tobytes() == copied.features[want].tobytes()
        assert np.array_equal(marked.labels[got], copied.labels[want])
        assert np.array_equal(marked.true_labels[got], copied.true_labels[want])

    parts = [marked.labeled_indices(), marked.unlabeled_indices()]
    parts.append(np.flatnonzero(marked.labels == EXCLUDED))
    every = np.concatenate(parts)
    assert len(every) == raw.n_samples
    assert np.array_equal(np.sort(every), np.arange(raw.n_samples))


def unlabeled_dataset(features):
    n = len(features)
    return Dataset(
        features=features,
        labels=np.full(n, UNLABELED),
        true_labels=np.zeros(n, dtype=np.int64),
        label_map=(),
    )


class TestZeroCopy:
    """Read-only arrays are shared; anything a caller could still write is copied."""

    def test_writable_input_is_copied(self):
        x = np.ones((4, 3))
        data = unlabeled_dataset(x)
        x[0, 0] = 7.0
        assert not np.shares_memory(data.features, x)
        assert (data.features == 1.0).all()

    def test_read_only_view_of_a_writable_base_is_copied(self):
        base = np.ones((4, 3))
        view = base[:]
        view.flags.writeable = False
        data = unlabeled_dataset(view)
        base[0, 0] = 7.0
        assert not np.shares_memory(data.features, base)
        assert (data.features == 1.0).all()

    def test_read_only_owned_array_is_adopted(self):
        x = np.ones((4, 3))
        x.flags.writeable = False
        data = unlabeled_dataset(x)
        assert np.shares_memory(data.features, x)
        assert data.features is x

    def test_read_only_array_of_another_dtype_is_converted(self):
        x = np.ones((4, 3), dtype=np.float32)
        x.flags.writeable = False
        data = unlabeled_dataset(x)
        assert data.features.dtype == np.float64
        assert not data.features.flags.writeable

    def test_uncapped_split_and_add_class_share_features(self):
        data = small_dataset(n_classes=4, per_class=10)
        split = make_split(data, SplitSpec(held_out_classes={2, 3}))
        assert split.features is data.features
        assert split.true_labels is data.true_labels
        added = add_class(split, split.unlabeled_indices()[:5])
        assert added.features is data.features
        assert not np.shares_memory(added.labels, split.labels)

    def test_capped_split_copies_only_the_kept_rows(self):
        """The kept rows are marked, not copied: the split shares the features."""
        data = small_dataset(n_classes=4, per_class=10)
        split = make_split(data, SplitSpec(held_out_classes={3}, per_class_cap=4))
        assert np.count_nonzero(split.labels != EXCLUDED) == 16
        assert split.features is data.features

    def test_split_and_add_class_allocate_less_than_the_features(self):
        import tracemalloc

        data = synth_gaussian(GaussianMixtureSpec(5, 64, 5.0, 200, seed=1))
        tracemalloc.start()
        try:
            split = make_split(data, SplitSpec(held_out_classes={3, 4}))
            add_class(split, split.unlabeled_indices()[:50])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.features.nbytes

    def test_capped_split_over_rows_allocates_less_than_the_kept_rows(self):
        import tracemalloc

        data = synth_gaussian(GaussianMixtureSpec(8, 64, 5.0, 200, seed=1))
        rows = np.flatnonzero(data.true_labels < 5)
        spec = SplitSpec(held_out_classes={3, 4}, per_class_cap=150)
        kept_bytes = 5 * 150 * data.n_features * data.features.itemsize
        make_split(data, spec, rows)  # the first call's lazy imports allocate too
        tracemalloc.start()
        try:
            split = make_split(data, spec, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(split.labels != EXCLUDED) == 5 * 150
        assert peak < kept_bytes

    def test_loaders_hand_over_read_only_owned_arrays(self, tmp_path, idx_writer):
        img_p, lbl_p = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        idx_writer(np.zeros((3, 2, 2), dtype=np.uint8), [0, 1, 0], img_p, lbl_p)
        csv = tmp_path / "d.csv"
        csv.write_text("a,b,label\n1.0,2.0,0\n3.0,4.0,1\n")
        for data in (load_idx(img_p, lbl_p), load_csv(str(csv)), small_dataset()):
            for arr in (data.features, data.labels, data.true_labels):
                assert arr.base is None and not arr.flags.writeable
            assert data.features.flags.c_contiguous


@pytest.mark.parametrize("n_classes, dim, per_class, seed", [(2, 1, 1, 0), (3, 5, 7, 4), (6, 16, 30, 9)])
def test_synth_gaussian_features_are_centers_plus_noise(n_classes, dim, per_class, seed):
    """The in-place add gives the same floats as ``centers[labels] + noise``."""
    from classdisco import seeds

    data = synth_gaussian(GaussianMixtureSpec(n_classes, dim, 6.0, per_class, seed=seed))
    rng = seeds.spawn(seed)
    directions = rng.standard_normal((n_classes, dim))
    centers = 6.0 * directions / np.linalg.norm(directions, axis=1, keepdims=True)
    noise = rng.standard_normal((n_classes * per_class, dim))
    assert data.features.tobytes() == (centers[data.true_labels] + noise).tobytes()
