import decimal
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrodict import linalg
from retrodict.channels import amplitude_damping_instrument
from retrodict.errors import ScenarioError
from retrodict.purify import stinespring
from retrodict.channels import amplitude_damping
from retrodict.serialize import (
    instrument_to_wire,
    ket_to_wire,
    matrix_to_wire,
    nesting_depth,
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


def _parsed_or_error(parse):
    """A scenario as its canonical JSON text, where every float is written exactly; or its error."""
    try:
        scenario = parse()
    except ScenarioError as exc:
        return exc.code, str(exc)
    return json.dumps(scenario_to_dict(scenario))


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda path: path.name)
def test_file_decoding_equals_the_standard_library_bitwise(path):
    # float reprs round-trip exactly and keep the sign of zero, so equal texts mean equal bits
    raw = path.read_bytes()
    from_file = _parsed_or_error(lambda: parse_scenario(str(path)))
    assert from_file == _parsed_or_error(lambda: parse_scenario_dict(json.loads(raw)))
    if isinstance(from_file, str):
        assert parse_scenario(str(path)).digest == hashlib.sha256(raw).hexdigest()


def test_decoded_floats_are_bit_identical_to_the_standard_library():
    bits = np.random.default_rng(7).integers(0, 2**64, 3000, dtype=np.uint64).view(np.float64)
    edges = [0.0, -0.0, 0.1, 5e-324, -2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623e308]
    values = edges + bits[np.isfinite(bits)].tolist()
    texts = [fmt.format(x) for fmt in ("{!r}", "{:.17e}", "{:.15g}", "{:.25f}") for x in values]
    # halfway between neighbouring doubles and just either side of it: the hardest roundings
    with decimal.localcontext(prec=800):
        for x in values[:600]:
            half = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
            nudge = decimal.Decimal(10) ** (half.adjusted() - 40)
            texts += [format(half, "e"), format(half + nudge, "e"), format(half - nudge, "e")]
    text = "[" + ", ".join(texts) + "]"
    assert np.array(orjson.loads(text)).tobytes() == np.array(json.loads(text)).tobytes()


def _depth(value) -> int:
    if isinstance(value, (list, dict)):
        children = value.values() if isinstance(value, dict) else value
        return 1 + max(map(_depth, children), default=0)
    return 0


_BRACKETY_TEXT = st.text(alphabet=st.sampled_from(list('[]{}"\\ab\u00e9\u2028\U0001f600')))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _BRACKETY_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_BRACKETY_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, database=None)
@given(_JSON_VALUES, st.booleans())
def test_nesting_depth_skips_strings_and_their_escapes(value, ensure_ascii):
    text = json.dumps(value, ensure_ascii=ensure_ascii).encode()
    assert nesting_depth(text) == _depth(value)
