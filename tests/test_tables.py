import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from retrodict.tables import ProbabilityTable, first_invalid_row, join_labels


def test_join_labels_separator():
    assert join_labels("0", "1") == "0·1"


def test_table_records_normalization_defect():
    table = ProbabilityTable({"0": 0.5, "1": 0.5})
    assert table.normalization_defect == 0.0
    assert table.labels() == ("0", "1")


def test_table_rejects_out_of_range_entries():
    with pytest.raises(ValueError):
        ProbabilityTable({"0": -0.01, "1": 1.01})


def test_table_rejects_unnormalized_rows():
    with pytest.raises(ValueError):
        ProbabilityTable({"0": 0.2, "1": 0.2})


def test_table_rejects_unknown_direction():
    with pytest.raises(ValueError):
        ProbabilityTable({"0": 1.0}, direction="sideways")


def test_max_difference_over_label_union():
    a = ProbabilityTable({"0": 1.0})
    b = ProbabilityTable({"0": 0.75, "1": 0.25})
    assert a.max_difference(b) == pytest.approx(0.25)


def test_table_rejects_nan_entries():
    with pytest.raises(ValueError):
        ProbabilityTable({"0": float("nan"), "1": 1.0})


def _table_error(labels, row):
    try:
        ProbabilityTable.from_values(labels, row)
    except ValueError as exc:
        return str(exc)
    return None


# Rows whose numpy total and whose sum() lie on either side of the normalization bound:
# numpy accepts the first and rejects the second, and a table does the opposite.
STRADDLING = [
    [
        0.06419753827419251, 0.0298816493270808, 0.04777213613466879, 0.11852746689491411,
        0.046523878758147806, 0.021911225321570908, 0.10269323048308164, 0.06594366791072738,
        0.11745779374542298, 0.034624954428742194, 0.04701382319277777, 0.11759599500994587,
        0.07454770423820176, 0.07444727132094561, 0.03472458368975711, 0.002137082269822618,
    ],
    [
        0.11201572138613519, 0.06495848289501893, 0.09328203891159838, 0.06880216426998394,
        0.04065442426954853, 0.06356912993790598, 0.0064881176993024795, 0.005529009597162872,
        0.06815532695772251, 0.06136647726511209, 0.10714467216462138, 0.002587846242843052,
        0.07161740502542831, 0.0630978231860702, 0.07690473736398776, 0.09382662382755833,
    ],
]


@pytest.mark.parametrize(
    "rows",
    [
        [[0.5, 0.5], [1.0, 0.0]],
        [[0.5, 0.5], [0.2, 0.2], [1.5, -0.5]],  # the sum of the first bad row, not the range of a later one
        [[0.5, 0.5], [1.5, -0.5], [0.2, 0.2]],
        [[0.5, 0.5], [0.5, np.nan]],
        [[0.25, 0.75], [-1e-12, 1.0 + 1e-12]],  # inside the slack
        [[0.5, 0.5 + 0.9e-9]],  # near the bound: summed again, still normalized
        [[0.5, 0.5 + 1.1e-9]],
        [[0.5, 0.5 - 1.1e-9]],
        [STRADDLING[0]],
        [STRADDLING[1]],
    ],
)
def test_the_array_check_rejects_the_first_row_a_table_rejects(rows):
    labels = tuple(str(c) for c in range(len(rows[0])))
    errors = [_table_error(labels, row) for row in rows]
    found = first_invalid_row(labels, np.array(rows))
    expected = next(((r, e) for r, e in enumerate(errors) if e is not None), None)
    assert (found if found is None else (found[0], str(found[1]))) == expected


# rows around the normalization bound, now and then with an entry out of range
near_rows = st.tuples(st.integers(1, 5), st.integers(1, 9)).flatmap(
    lambda shape: st.tuples(
        hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0)),
        hnp.arrays(np.float64, shape[0], elements=st.sampled_from([0.0, 5e-10, 9.99e-10, 1e-9, 1.01e-9, 1e-6])),
        hnp.arrays(np.float64, shape, elements=st.sampled_from([0.0, 0.0, 0.0, -2e-12, 2.0])),
    )
)


@given(near_rows)
@settings(max_examples=300, deadline=None)
def test_the_array_check_agrees_with_the_table_on_every_row(rows):
    weights, offsets, spoilers = rows
    totals = weights.sum(axis=1, keepdims=True)
    values = np.where(totals > 0, weights / np.where(totals > 0, totals, 1.0), 1.0 / weights.shape[1])
    values = values * (1.0 + offsets[:, None]) + spoilers
    labels = tuple(str(c) for c in range(values.shape[1]))
    errors = [_table_error(labels, row) for row in values]
    found = first_invalid_row(labels, values)
    expected = next(((r, e) for r, e in enumerate(errors) if e is not None), None)
    assert (found if found is None else (found[0], str(found[1]))) == expected
