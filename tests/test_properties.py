"""Property tests against exact references, with Hypothesis (profile in conftest.py)."""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from vflhlp.data import Field, FeatureSchema, _min_max, load_csv  # noqa: E402
from vflhlp.errors import DataError  # noqa: E402
from vflhlp.metrics import auc  # noqa: E402

from test_metrics import pairwise_auc  # noqa: E402

SCHEMA = FeatureSchema((Field("x", "numerical", party=1),))
INT64 = st.integers(-(2**63), 2**63 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROWS = st.lists(st.tuples(INT64, FINITE, st.sampled_from([0, 1])), min_size=1, max_size=12,
                unique_by=lambda row: row[0])
TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters=',"'),
               max_size=6)


def _parses(parse, cell: str) -> bool:
    try:
        parse(cell)
    except ValueError:
        return False
    return True


COLUMNS = ("id", "x", "label")  # the order of a ROWS tuple
BAD_CELLS = {  # column: cells that fail to parse or fall outside the column's range
    "id": st.integers(min_value=2**63).map(str) | st.integers(max_value=-(2**63) - 1).map(str)
    | TEXT.filter(lambda c: not (_parses(int, c) and -(2**63) <= int(c) < 2**63)),
    "x": st.sampled_from(["nan", "inf", "-Infinity", "1e999"])
    | TEXT.filter(lambda c: not (_parses(float, c) and math.isfinite(float(c)))),
    "label": st.sampled_from(["2", "0.5", "-1", "nan"])
    | TEXT.filter(lambda c: not (_parses(float, c) and float(c) in (0.0, 1.0))),
}


def _write(path, rows) -> None:
    path.write_text("id,label,x\n" + "".join(f"{i},{y},{x}\n" for i, x, y in rows))


@settings(max_examples=300)
@given(rows=ROWS)
def test_ids_and_finite_numbers_come_back_bit_for_bit(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    _write(path, rows)  # a float's str is its repr, which reads back to the same bits
    table, encoder = load_csv(path, SCHEMA, "id", "label")
    ids = np.array([i for i, _, _ in rows], dtype=np.int64)
    xs = np.array([x for _, x, _ in rows])
    assert table.ids.tobytes() == ids.tobytes()
    assert np.array(encoder.num_stats["x"]).tobytes() == np.array([xs.min(), xs.max()]).tobytes()
    np.testing.assert_array_equal(table.num[:, 0], _min_max(xs, xs.min(), xs.max()))
    assert table.labels.tolist() == [float(y) for _, _, y in rows]


@st.composite
def one_bad_cell(draw):
    rows = [list(row) for row in draw(ROWS)]
    row, column = draw(st.integers(0, len(rows) - 1)), draw(st.sampled_from(COLUMNS))
    rows[row][COLUMNS.index(column)] = draw(BAD_CELLS[column])
    return rows, row


@settings(max_examples=300)
@given(case=one_bad_cell())
def test_an_unparsable_or_out_of_range_cell_is_a_data_error_naming_its_line(
        tmp_path_factory, case):
    rows, row = case
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    _write(path, rows)
    with pytest.raises(DataError) as raised:
        load_csv(path, SCHEMA, "id", "label")
    assert str(raised.value).startswith(f"{path}:{row + 2}: "), rows[row]


@st.composite
def labelled_scores(draw):
    """Both classes, in any order; scores with ties, -0.0 beside 0.0 among them."""
    scores = FINITE | st.sampled_from([-0.0, 0.0, 1.0])
    pos = draw(st.lists(scores, min_size=1, max_size=20))
    neg = draw(st.lists(scores, min_size=1, max_size=20))
    order = draw(st.permutations(range(len(pos) + len(neg))))
    return np.array([1.0] * len(pos) + [0.0] * len(neg))[order], np.array(pos + neg)[order]


@settings(max_examples=300)
@given(case=labelled_scores())
def test_auc_is_pair_counting(case):
    labels, scores = case
    assert auc(labels, scores) == pairwise_auc(labels, scores)
