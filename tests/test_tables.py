import pytest

from retrodict.errors import UndefinedConditionalError
from retrodict.tables import ProbabilityTable, bayes_invert, join_labels


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


def test_bayes_invert_flat_prior():
    rows = {
        "0": ProbabilityTable({"x": 1.0, "y": 0.0}),
        "1": ProbabilityTable({"x": 0.5, "y": 0.5}),
    }
    posterior = bayes_invert(rows, "x")
    assert posterior["0"] == pytest.approx(2 / 3)
    assert posterior["1"] == pytest.approx(1 / 3)
    assert posterior.direction == "postdict"


def test_bayes_invert_supports_custom_prior():
    rows = {
        "0": ProbabilityTable({"x": 1.0, "y": 0.0}),
        "1": ProbabilityTable({"x": 0.5, "y": 0.5}),
    }
    posterior = bayes_invert(rows, "x", prior={"0": 1.0, "1": 2.0})
    assert posterior["0"] == pytest.approx(0.5)
    assert posterior["1"] == pytest.approx(0.5)


def test_bayes_invert_zero_evidence():
    rows = {"0": ProbabilityTable({"x": 1.0, "y": 0.0})}
    with pytest.raises(UndefinedConditionalError):
        bayes_invert(rows, "y")


def test_table_rejects_nan_entries():
    with pytest.raises(ValueError):
        ProbabilityTable({"0": float("nan"), "1": 1.0})
