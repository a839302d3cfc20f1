import json
from pathlib import Path

import numpy as np
import pytest

from retrodict import linalg
from retrodict.channels import amplitude_damping_instrument
from retrodict.errors import ScenarioError
from retrodict.purify import stinespring
from retrodict.channels import amplitude_damping
from retrodict.serialize import (
    instrument_to_wire,
    ket_to_wire,
    matrix_to_wire,
    parse_scenario,
    parse_scenario_dict,
    purification_to_wire,
    scenario_digest,
    scenario_to_dict,
    table_to_wire,
    wire_to_instrument,
    wire_to_ket,
    wire_to_matrix,
)
from retrodict.tables import ProbabilityTable

FIXTURES = Path(__file__).parent / "fixtures"


def test_matrix_round_trip():
    m = linalg.haar_random_unitary(3, 2)
    np.testing.assert_allclose(wire_to_matrix(matrix_to_wire(m)), m, atol=0)


def test_ket_round_trip():
    v = linalg.random_pure_state(4, 3)
    np.testing.assert_allclose(wire_to_ket(ket_to_wire(v)), v, atol=0)


def test_complex_convention_is_re_im_pairs():
    wire = matrix_to_wire(np.array([[1 + 2j]]))
    assert wire == [[[1.0, 2.0]]]


def test_instrument_round_trip():
    inst = amplitude_damping_instrument(0.5)
    again = wire_to_instrument(instrument_to_wire(inst))
    assert again.labels() == inst.labels()
    for label in inst.labels():
        for k1, k2 in zip(inst.map_for(label).kraus, again.map_for(label).kraus):
            np.testing.assert_allclose(k1, k2, atol=0)


def test_purification_wire_has_pointer_dims():
    wire = purification_to_wire(stinespring(amplitude_damping(0.5)))
    assert wire["dims_in"] == [2, 2]
    assert wire["dims_out"] == [2, 2]
    assert wire["pointer_dims"] is None
    assert len(wire["ancilla_state"]) == 2


def test_table_wire_fields():
    table = ProbabilityTable({"0": 0.25, "1": 0.75}, given="1", direction="postdict", factor=2.0)
    wire = table_to_wire(table)
    assert wire == {
        "given": "1",
        "direction": "postdict",
        "entries": {"0": 0.25, "1": 0.75},
        "factor": 2.0,
        "normalization_defect": 0.0,
    }


def test_scenario_round_trip_is_stable():
    for name in (
        "predict_identity.json",
        "postdict_amplitude_damping.json",
        "sample_hadamard.json",
        "verify_small.json",
    ):
        scenario = parse_scenario(str(FIXTURES / name))
        doc = scenario_to_dict(scenario)
        again = scenario_to_dict(parse_scenario_dict(doc))
        assert doc == again
        assert scenario_digest(doc) == scenario_digest(again)


def test_parse_rejects_malformed_document():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_dict(["not", "a", "scenario"])
    assert err.value.code == "malformed-document"


def test_parse_rejects_unknown_task():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_dict({"task": "divine"})
    assert err.value.code == "unknown-task"


def test_parse_rejects_dimension_mismatch():
    doc = {
        "task": "predict",
        "dims_in": [3],
        "transformation": {"type": "unitary", "matrix": matrix_to_wire(np.eye(2))},
        "given": {"input": ["0"]},
    }
    with pytest.raises(ScenarioError) as err:
        parse_scenario_dict(doc)
    assert err.value.code == "dimension-mismatch"


def test_parse_rejects_non_unitary_matrix_naming_the_field():
    doc = json.loads((FIXTURES / "bad_nonunitary.json").read_text())
    with pytest.raises(ScenarioError) as err:
        parse_scenario_dict(doc)
    assert err.value.code == "non-unitary-matrix"
    assert "transformation.matrix" in str(err.value)


def test_parse_rejects_non_cptp_channel():
    half = matrix_to_wire(np.eye(2) / 2)
    doc = {
        "task": "postdict",
        "dims_in": [2],
        "transformation": {"type": "kraus-channel", "kraus": [half]},
        "given": {"output": ["0"]},
    }
    with pytest.raises(ScenarioError) as err:
        parse_scenario_dict(doc)
    assert err.value.code == "non-cptp-channel"


def test_parse_rejects_missing_scenario_file():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(str(FIXTURES / "does_not_exist.json"))
    assert err.value.code == "malformed-document"


def test_parse_checks_preparation_states():
    doc = {
        "task": "predict",
        "dims_in": [2],
        "transformation": {"type": "unitary", "matrix": matrix_to_wire(np.eye(2))},
        "preparation": {"type": "states", "states": [[[1.0, 0.0], [1.0, 0.0]]]},
        "given": {"input": ["0"]},
    }
    with pytest.raises(ScenarioError) as err:
        parse_scenario_dict(doc)
    assert err.value.code == "validation"


def test_wire_conversion_equals_per_entry_floats():
    rng = np.random.default_rng(11)
    wire = [[[float(x), float(y)] for x, y in rng.standard_normal((5, 2))] for _ in range(3)]
    wire[0][0] = [1, -0.0]  # integers and a signed zero
    expected = np.array([[complex(float(re), float(im)) for re, im in row] for row in wire])
    got = wire_to_matrix(wire)
    np.testing.assert_array_equal(got, expected)
    assert np.signbit(got[0, 0].imag)
    np.testing.assert_array_equal(wire_to_ket(wire[1]), expected[1])


@pytest.mark.parametrize(
    "entry", [["1", "0"], [True, 0], [0, False], [1.0, "nan"]], ids=["strings", "true", "false", "nan-string"]
)
def test_wire_entries_must_be_json_numbers(entry):
    for convert, data in ((wire_to_matrix, [[entry, [0, 0]], [[0, 0], [1, 0]]]), (wire_to_ket, [[1, 0], entry])):
        with pytest.raises(ScenarioError) as err:
            convert(data)
        assert err.value.code == "malformed-document"
        assert f"expected [re, im] numbers, got {entry!r}" in str(err.value)


@pytest.mark.parametrize(
    "data, message",
    [
        ([[[1, 0]], [[0, 0], [1, 0]]], "ragged rows"),
        ([[[1, 0, 0]]], "expected [re, im] pair, got [1, 0, 0]"),
        ([[7]], "expected [re, im] pair, got 7"),
        ([[[None, 0]]], "expected [re, im] numbers, got [None, 0]"),
        ([[[float("inf"), 0]]], "entries must be finite numbers"),
        ([[[10**400, 0]]], "entries must be finite numbers"),
    ],
    ids=["ragged", "triple", "scalar", "null", "infinite", "huge-integer"],
)
def test_wire_matrix_errors_name_the_fault(data, message):
    with pytest.raises(ScenarioError) as err:
        wire_to_matrix(data, "transformation.matrix")
    assert err.value.code == "malformed-document"
    assert message in str(err.value)
