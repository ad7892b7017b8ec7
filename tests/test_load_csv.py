"""``dataset.load_csv`` against the loader it replaced, and its memory bound.

``_whole_file_load_csv`` is the earlier loader, kept as the reference: it read
the whole file into one string, split it into lines and parsed the data lines
with ``np.genfromtxt`` in float64. The streaming loader must give the same
features, labels and messages on every file with at most one faulty line, and
name the first faulty line of any other file.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classdisco.dataset import TRAIN_DTYPE, _fully_labeled, _readonly, load_csv


def _whole_file_load_csv(path: str):
    with open(path) as f:
        header, *lines = f.read().splitlines() or [""]
    rows = [(n, line) for n, line in enumerate(lines, 2) if line.split("#", 1)[0].strip()]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    widths = [line.split("#", 1)[0].count(",") + 1 for _, line in rows]
    for (n, _), width in zip(rows, widths):
        if width != widths[0]:
            raise ValueError(f"{path}: line {n} has {width} columns, not {widths[0]}")
    names = header.split(",")
    if len(names) != widths[0]:
        raise ValueError(f"{path}: line 1 (the header) has {len(names)} columns, not {widths[0]}")
    if widths[0] < 2:
        raise ValueError(f"{path}: need at least one feature column plus a label column")
    raw = np.genfromtxt([line for _, line in rows], delimiter=",", dtype=np.float64, ndmin=2)
    bad = np.argwhere(~(np.abs(raw[:, :-1]) <= np.finfo(np.float32).max))
    if len(bad):
        row, col = bad[0]
        raise ValueError(
            f"{path}: line {rows[row][0]}, column {names[col].strip()!r}: not a finite float32"
        )
    labels = raw[:, -1]
    integral = np.isfinite(labels) & (labels == np.floor(labels))
    bad = np.flatnonzero(~(integral & (labels >= 0) & (labels < 2.0**63)))
    if len(bad):
        at = bad[0]
        rule = "labels must be non-negative integers below 2**63"
        rule = rule if integral[at] else "last column must contain integer labels"
        raise ValueError(f"{path}: {rule}; line {rows[at][0]} has {labels[at]:g}")
    features = _readonly(np.ascontiguousarray(raw[:, :-1], dtype=TRAIN_DTYPE))
    return _fully_labeled(features, labels.astype(np.int64))


def _outcome(loader, path, text):
    """What ``loader`` makes of ``text`` written to ``path``: the error message,
    or the stored features' dtype, shape and bytes, the labels and ``label_map``."""
    path.write_text(text, encoding="utf-8", newline="")
    try:
        data = loader(str(path))
    except ValueError as exc:
        return str(exc)
    features = data.features
    labels = data.true_labels.tolist()
    return features.dtype, features.shape, features.tobytes(), labels, data.label_map


GOOD_FEATURES = ["1.5", " 1.5 ", "1_000", "-1", "1e20", "0", "3.4028234e38", "-2.5e-3"]
GOOD_LABELS = ["0", "1", "2", " 1 ", "1_0", "2.0", "-0"]
# every cell above, and cells that fail as a feature, as a label or as both
CELLS = GOOD_FEATURES + GOOD_LABELS + [
    "", "nan", "-inf", "inf", "1e308", "3.4028235e38", "abc", "1e", "0x10", "1.5", "9.3e18",
]  # fmt: skip
BLANKS = ["", "  ", "\t", "# note", "  #1,2,3", "#"]
COMMENTS = ["", "", " # x,y", "#9"]


@st.composite
def csv_texts(draw):
    """A CSV as a header and its lines, most of them sound; faults come from
    a header or row of another width and from cells that fail as a feature or
    as a label."""
    width = draw(st.integers(1, 4))
    header_width = max(1, width + draw(st.sampled_from([0, 0, 0, 0, -1, 1])))
    name = st.sampled_from(["a", " b ", "c#d", "label", ""])
    names = draw(st.lists(name, min_size=header_width, max_size=header_width))

    features = st.lists(st.sampled_from(GOOD_FEATURES), min_size=width - 1, max_size=width - 1)
    sound = st.tuples(features, st.sampled_from(GOOD_LABELS)).map(lambda r: r[0] + [r[1]])
    wild = st.integers(max(1, width - 1), width + 1).flatmap(
        lambda w: st.lists(st.sampled_from(CELLS), min_size=w, max_size=w)
    )
    row = st.one_of(sound, sound, sound, wild)
    data_line = st.tuples(row, st.sampled_from(COMMENTS)).map(lambda r: ",".join(r[0]) + r[1])
    line = st.one_of(data_line, data_line, data_line, st.sampled_from(BLANKS))
    lines = draw(st.lists(line, min_size=draw(st.sampled_from([0, 3, 3, 6])), max_size=8))
    return [",".join(names)] + lines


def _is_data(line):
    return bool(line.split("#", 1)[0].strip())


def _faulty_lines(path, lines):
    """The 1-based numbers of the faulty lines, by the reference loader: the
    header when its width differs from the first data row's, and each data
    row that it rejects under a header of that width."""
    data = [n for n, line in enumerate(lines[1:], 2) if _is_data(line)]
    if not data:
        return []
    width = lines[data[0] - 1].split("#", 1)[0].count(",") + 1
    header = ",".join(f"h{i}" for i in range(width))
    faulty = [1] if len(lines[0].split(",")) != width else []
    for n in data:
        if isinstance(_outcome(_whole_file_load_csv, path, f"{header}\n{lines[n - 1]}\n"), str):
            faulty.append(n)
    return faulty


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


@settings(max_examples=200, deadline=None)
@given(lines=csv_texts(), ending=st.sampled_from(["\n", "\r\n"]), last=st.booleans())
def test_matches_the_whole_file_loader(csv_path, lines, ending, last):
    text = ending.join(lines) + (ending if last else "")
    got = _outcome(load_csv, csv_path, text)
    faulty = _faulty_lines(csv_path, lines)
    if len(faulty) <= 1:
        assert got == _outcome(_whole_file_load_csv, csv_path, text)
    if faulty:
        # the first faulty line decides; a header fault shows at the first data row
        first_data = next(n for n, line in enumerate(lines[1:], 2) if _is_data(line))
        prefix = ending.join(lines[: max(faulty[0], first_data)]) + ending
        assert isinstance(got, str)
        assert got == _outcome(_whole_file_load_csv, csv_path, prefix)


def test_a_file_with_many_faults_names_its_first_faulty_line(tmp_path):
    path = tmp_path / "data.csv"
    # the parent loader reported every column-count fault first (line 5 here)
    text = "a,b,label\n1,2,0\n3,x,1\n5,6,1.5\n7,8\n"
    assert _outcome(load_csv, path, text) == f"{path}: line 3, column 'b': not a finite float32"
    assert _outcome(_whole_file_load_csv, path, text) == f"{path}: line 5 has 2 columns, not 3"


@pytest.mark.parametrize(
    "separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_only_newlines_and_carriage_returns_end_a_line(tmp_path, separator):
    # str.splitlines also ends a line at these; a file's line iterator does not
    path = tmp_path / "data.csv"
    text = f"a,b,label\n1,2,0\n3,4,1{separator}5,6,1\n"
    assert _outcome(load_csv, path, text) == f"{path}: line 3 has 5 columns, not 3"
    if separator.isascii():
        assert _outcome(_whole_file_load_csv, path, text)[1] == (3, 2)


@pytest.mark.parametrize(
    "text, message",
    [
        (b"f0,f1,label\n0.5,1.5,0\n1.0,2\xff,1\n", "line 3, column 'f1': not a finite float32"),
        (
            b"f0,f1,label\n0.5,1.5,0\n1.0,2.0,\xff\n",
            "last column must contain integer labels; line 3 has nan",
        ),
    ],
)
def test_a_byte_that_is_not_utf8_fails_as_its_cell(tmp_path, text, message):
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    with pytest.raises(ValueError) as caught:
        load_csv(str(path))
    assert str(caught.value) == f"{path}: {message}"


def test_a_byte_that_is_not_utf8_in_a_comment_is_ignored(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"f\xff0,f1,label # \xff\n0.5,1.5,0 #\xfe\xff\n# \xff\n1.0,2.0,1\n")
    data = load_csv(str(path))
    assert data.features.tolist() == [[0.5, 1.5], [1.0, 2.0]]
    assert data.true_labels.tolist() == [0, 1]


BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark, as spreadsheet programs often write it


def test_a_byte_order_mark_is_not_part_of_the_first_column_name(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(BOM + b"f0,f1,label\n1,2,0\nx,3,1\n")
    with pytest.raises(ValueError) as caught:
        load_csv(str(path))
    assert str(caught.value) == f"{path}: line 3, column 'f0': not a finite float32"


def test_a_file_with_a_byte_order_mark_loads_as_the_file_without_it(tmp_path):
    text = b"f0,f1,label\r\n# note\n0.5,1.5,0\n1.0,2.0,1 # \xff\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text)
    marked.write_bytes(BOM + text)
    a, b = load_csv(str(plain)), load_csv(str(marked))
    assert a.features.tobytes() == b.features.tobytes()
    assert a.true_labels.tolist() == b.true_labels.tolist() == [0, 1]
    assert a.label_map == b.label_map


def _write_repr_csv(path, rows, columns=100):
    """A ``rows`` x ``columns`` CSV of ``repr`` floats and five classes; returns the floats."""
    values = np.random.default_rng(0).standard_normal((rows, columns))
    with open(path, "w") as f:
        f.write(",".join(f"f{i}" for i in range(columns)) + ",label\n")
        for i, row in enumerate(values.tolist()):
            f.write(",".join(map(repr, row)) + f",{i % 5}\n")
    return values


@pytest.mark.parametrize("rows", [3000, 6000])
def test_peaks_below_three_matrices(tmp_path, rows):
    path = tmp_path / "data.csv"
    _write_repr_csv(tmp_path / "warm.csv", 2)
    load_csv(str(tmp_path / "warm.csv"))  # the first call's lazy imports allocate too
    values = _write_repr_csv(path, rows)
    tracemalloc.start()
    try:
        data = load_csv(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(data.features, values.astype(TRAIN_DTYPE))
    assert peak < 3 * data.features.nbytes + 2**20
