import array
import decimal
import gc
import hashlib
import itertools
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrodict import linalg, serialize
from retrodict.channels import Instrument, QuantumMap, amplitude_damping_instrument, random_cptp_map
from retrodict.errors import ScenarioError
from retrodict.purify import stinespring
from retrodict.channels import amplitude_damping
from retrodict.serialize import (
    TASKS,
    ScenarioFile,
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

from seeded_draws import random_pure_state

FIXTURES = Path(__file__).parent / "fixtures"


def test_matrix_round_trip():
    m = linalg.haar_random_unitary(3, 2)
    np.testing.assert_allclose(wire_to_matrix(matrix_to_wire(m)), m, atol=0)


def test_ket_round_trip():
    v = random_pure_state(4, 3)
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


def _walked_conversion(pairs, field):
    """The wire conversion as it was before ``array("d")``: every pair's and every entry's type read, then converted."""
    flat = None
    if set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) <= {2}:
        flat = list(itertools.chain.from_iterable(pairs))
    if flat is None or not set(map(type, flat)) <= {int, float}:
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ScenarioError("malformed-document", f"expected [re, im] pair, got {pair!r}")
            if not all(type(x) in {int, float} for x in pair):
                raise ScenarioError("malformed-document", f"expected [re, im] numbers, got {pair!r}")
    try:
        parts = np.fromiter(flat, np.float64, len(flat))
    except OverflowError:  # an integer beyond the float range
        parts = np.array([np.inf])
    if not np.isfinite(parts).all():
        raise ScenarioError("malformed-document", f"{field}: entries must be finite numbers")
    return parts.view(np.complex128).reshape(-1)


def _listed_conversion(pairs, field):
    """The conversion as it was on a list of pairs: their lengths read, then a second list of their entries."""
    values = None
    try:
        if set(map(len, pairs)) <= {2}:
            flat = list(itertools.chain.from_iterable(pairs))
            values = array.array("d", flat)
            parts = np.frombuffer(values)
            if np.count_nonzero(np.rint(parts) == parts) and not set(map(type, flat)).isdisjoint(serialize._BOOL_TYPES):
                values = None
    except (TypeError, OverflowError, ValueError):
        pass
    if values is None:
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ScenarioError("malformed-document", f"expected [re, im] pair, got {pair!r}")
            if not all(map(serialize._is_number, pair)):
                raise ScenarioError("malformed-document", f"expected [re, im] numbers, got {pair!r}")
        parts = np.array([np.inf])
    if np.count_nonzero(np.isfinite(parts)) < len(parts):
        raise ScenarioError("malformed-document", f"{field}: entries must be finite numbers")
    return np.ndarray(len(pairs), np.complex128, values)


def _converted_or_error(convert):
    try:
        converted = convert()
    except ScenarioError as exc:
        return exc.code, str(exc)
    return converted.dtype, converted.shape, converted.tobytes()


def _assert_converts_as(pairs, rows, conversion):
    """``wire_to_matrix`` on the pairs in ``rows`` rows, and ``wire_to_ket`` on them, each as ``conversion`` of the pairs."""
    cols = len(pairs) // rows
    matrix = [pairs[r * cols : (r + 1) * cols] for r in range(rows)]
    expected = _converted_or_error(lambda: conversion(pairs, "m").reshape(rows, cols))
    assert _converted_or_error(lambda: wire_to_matrix(matrix, "m")) == expected
    expected = _converted_or_error(lambda: conversion(pairs, "k"))
    assert _converted_or_error(lambda: wire_to_ket(pairs, "k")) == expected


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 0, 1, -1, 2, 2**70]),
)
# What a JSON decoder can put where a number belongs, and numbers that convert badly.
_ODD_ENTRIES = st.sampled_from([True, False, None, "1.5", "0", "", 2**1100, -(2**1100), math.inf, math.nan])
_ODD_PAIRS = st.one_of(
    st.lists(st.lists(_NUMBERS, min_size=2, max_size=2), min_size=2, max_size=2),  # nested
    st.sampled_from(["ab", "12", "", None, True, 0.5, 7]),  # 2-character strings and scalars
    st.fixed_dictionaries({"re": _NUMBERS, "im": _NUMBERS}),
    st.lists(_NUMBERS, max_size=4).filter(lambda pair: len(pair) != 2),  # ragged
    st.lists(_ODD_ENTRIES, min_size=2, max_size=2),
)
# Pairs that only a document built in Python holds: tuples, 2-element numpy arrays, numpy and Decimal entries.
_PYTHON_ENTRIES = st.sampled_from([np.float64(0.5), np.float32(0.25), np.int64(3), np.True_, decimal.Decimal("0.5")])
_PYTHON_PAIRS = st.one_of(
    st.tuples(_NUMBERS, _NUMBERS),
    st.lists(st.one_of(_NUMBERS, _PYTHON_ENTRIES), min_size=2, max_size=2),
    st.lists(st.one_of(_NUMBERS, _ODD_ENTRIES), min_size=2, max_size=2).map(np.array),
)


@given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4), from_python=st.booleans())
@settings(max_examples=400, deadline=None, database=None)
def test_wire_conversion_equals_the_walked_conversion(data, rows, cols, from_python):
    # Every draw converts as the list-of-pairs conversion did; a JSON-decodable one also as the walk.
    odd_pairs = st.one_of(_ODD_PAIRS, _PYTHON_PAIRS) if from_python else _ODD_PAIRS
    pairs = [data.draw(st.lists(_NUMBERS, min_size=2, max_size=2)) for _ in range(rows * cols)]
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(pairs) - 1))
        if data.draw(st.booleans()):
            pairs[at] = data.draw(odd_pairs)
        elif isinstance(pairs[at], list) and len(pairs[at]) == 2:
            pairs[at][data.draw(st.integers(0, 1))] = data.draw(_ODD_ENTRIES)
    _assert_converts_as(pairs, rows, _listed_conversion)
    if not from_python:
        _assert_converts_as(pairs, rows, _walked_conversion)


@pytest.mark.parametrize(
    "pairs",
    [
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [True, 0.5]],
        [[1.0, 0.0], [0.5, False], [0.0, 0.0], [1.0, 0.0]],
        [[True, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
        [[0.5, 0.25], [0.5, False], [0.25, 0.5], [0.5, 0.25]],
        [[0.5, 0.25], [True, 0.5], [0.25, 0.5], [0.5, 0.25]],
        [[2**1100, 0.0], [0.0, 0.0], [0.0, "0.5"], [1.0, 0.0]],
        [[0.5, 0.0], [0.0, 2**1100], [None, 0.0], [1.0, 0.0]],
        [[0.5, 0.0], [0.0, 2**1100], [0.0, 0.0], [1.0, 0.0]],
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1, 0]],
    ],
    ids=[
        "true-among-0-and-1",
        "false-among-0-and-1",
        "true-first",
        "false-alone",
        "true-alone",
        "huge-before-string",
        "huge-before-null",
        "huge-alone",
        "integers-0-and-1",
    ],
)
def test_wire_conversion_equals_the_walked_conversion_at_its_edges(pairs):
    _assert_converts_as(pairs, 2, _walked_conversion)


@pytest.mark.parametrize(
    "entry",
    [np.float64(0.5), np.float64(1.0), np.int64(3), np.float32(0.25), decimal.Decimal("0.5"), decimal.Decimal(2)],
    ids=repr,
)
def test_wire_entries_may_be_any_number_that_converts_to_a_float(entry):
    # from Python, not JSON: a numpy or Decimal number reads as its float, whole or not
    pairs = [[entry, 0.25], [0.5, entry]]
    expected = np.array([complex(float(entry), 0.25), complex(0.5, float(entry))])
    assert wire_to_ket(pairs).tobytes() == expected.tobytes()
    assert wire_to_matrix([pairs]).tobytes() == expected.tobytes()
    # the walk of a list that fails passes over them to name the first bad pair
    for bad in ([True, 0.0], ["0.5", 0.0], [np.True_, 0.0]):
        with pytest.raises(ScenarioError, match=re.escape(f"expected [re, im] numbers, got {bad!r}")):
            wire_to_ket(pairs + [bad])


@pytest.mark.parametrize(
    "entry", [np.True_, np.False_, decimal.Decimal("sNaN"), 1j], ids=repr
)
def test_wire_entries_that_are_bools_or_do_not_convert_are_refused(entry):
    for pairs in ([[entry, 0.0]], [[0.5, 0.25], [0.25, entry]], [[1.0, 0.0], [0.0, entry]]):
        with pytest.raises(ScenarioError, match=re.escape(f"expected [re, im] numbers, got {pairs[-1]!r}")):
            wire_to_ket(pairs)


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


def _running_depth(text: bytes) -> int:
    # the deepest running count of opens minus closes, one bracket at a time, for text without strings
    depth = deepest = 0
    for byte in text:
        depth += (byte in b"[{") - (byte in b"]}")
        deepest = max(deepest, depth)
    return deepest


@pytest.mark.parametrize(
    "text, depth",
    [
        (b"[[1],[2]]", 2),
        (b"[[[1, 2], [3, 4]], [[5, 6], [7, 8]]]", 3),
        (b"]][[", 0),
        (b"]]][[[[[", 2),
        (b"[]][[]][[", 1),
        (b"[][][]", 1),
        (b"}{][}{", 0),
        (b"[[]][[[[]]]]", 4),
        (b"[1, [2], [[3]], [[[4]]], [], [[[[[5]]]]]]", 6),
        (b"]]]]][[[[[[[[[[]]]]]]]]]]", 5),
        (b'["][", [[1]], "]]][[["]', 3),
    ],
)
def test_nesting_depth_is_the_deepest_running_count_across_closes_and_opens(text, depth):
    # ``nesting_depth`` drops each "][" before its prefix sum; none of these cases has a backslash
    assert _running_depth(re.sub(rb'"[^"]*"', b"", text)) == depth
    assert nesting_depth(text) == depth


@st.composite
def _scenarios(draw):
    """Valid scenarios of every transformation kind, with dims 1-4 per factor."""
    factors = st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple)
    dims_in = dims_out = draw(factors)
    total_in = math.prod(dims_in)
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["unitary", "kraus-channel", "instrument", "preparation-states"]))
    states = given_outcome = None
    if kind in ("unitary", "preparation-states"):
        transformation = linalg.haar_random_unitary(total_in, seed)
        if kind == "preparation-states":
            count = draw(st.integers(1, 3))
            states = tuple(random_pure_state(total_in, seed + i) for i in range(count))
    else:
        dims_out = draw(factors)
        total_out = math.prod(dims_out)
        fewest = -(-total_in // total_out)  # Kraus operators a channel needs to preserve the trace
        transformation = random_cptp_map(total_in, total_out, draw(st.integers(fewest, fewest + 2)), seed)
        if kind == "instrument":
            labels = draw(
                st.lists(st.text("abxyz01", min_size=1, max_size=3), min_size=1,
                         max_size=len(transformation.kraus), unique=True)
            )
            blocks = np.array_split(np.arange(len(transformation.kraus)), len(labels))
            transformation = Instrument(
                tuple(
                    (label, QuantumMap(tuple(transformation.kraus[i] for i in block), total_in, total_out))
                    for label, block in zip(labels, blocks)
                ),
                dim_in=total_in,
                dim_out=total_out,
            )
            given_outcome = draw(st.none() | st.sampled_from(labels))

    def givens(dims):
        return tuple(draw(st.tuples(*(st.none() | st.integers(0, d - 1) for d in dims))))

    def mask(dims):
        return tuple(draw(st.lists(st.booleans(), min_size=len(dims), max_size=len(dims))))

    return ScenarioFile(
        task=draw(st.sampled_from(TASKS)),
        dims_in=dims_in,
        dims_out=dims_out,
        transformation=transformation,
        preparation_states=states,
        given_input=givens(dims_in),
        given_output=givens(dims_out),
        given_outcome=given_outcome,
        known_input_mask=mask(dims_in),
        known_output_mask=mask(dims_out),
        shots=draw(st.none() | st.integers(0, 10**6)),
        seed=draw(st.none() | st.integers(0, 2**64 - 1)),
    )


@settings(max_examples=150, deadline=None, database=None)
@given(_scenarios())
def test_scenario_round_trip_through_a_dict_and_through_a_file(scenario):
    doc = scenario_to_dict(scenario)
    assert scenario_to_dict(parse_scenario_dict(doc)) == doc
    # the file path decodes with the collector paused and must agree with the dict path
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "scenario.json"
        path.write_bytes(orjson.dumps(doc))
        from_file = parse_scenario(str(path))
    assert scenario_to_dict(from_file) == doc
    assert from_file.digest == hashlib.sha256(orjson.dumps(doc)).hexdigest()


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector switched on or off for the test, and put back after it."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


_COLLECTOR_CASES = {
    "valid": (FIXTURES / "predict_identity.json").read_bytes(),
    "unreadable": None,  # no file at the path
    "bad-encoding": b"\xff\xfe{\x00\x00",  # a UTF-16 byte order mark, then a truncated code unit
    "too-deep": b"[" * 600 + b"]" * 600,
    "invalid-json": b"{not json",
    "invalid-scenario": b'{"task": "teleport"}',
}


@pytest.mark.parametrize("case", list(_COLLECTOR_CASES))
def test_parse_scenario_puts_the_collector_back_as_it_found_it(tmp_path, monkeypatch, collector, case):
    seen = []

    def validate(doc):
        seen.append(gc.isenabled())
        return parse_scenario_dict(doc)

    monkeypatch.setattr(serialize, "parse_scenario_dict", validate)
    path = tmp_path / "scenario.json"
    if _COLLECTOR_CASES[case] is not None:
        path.write_bytes(_COLLECTOR_CASES[case])
    if case == "valid":
        assert parse_scenario(str(path)).task == "predict"
    else:
        with pytest.raises(ScenarioError, match="unknown task" if case == "invalid-scenario" else "JSON|read"):
            parse_scenario(str(path))
    assert gc.isenabled() is collector
    # the decoded document is validated with the collector paused
    assert seen == ([False] if case in ("valid", "invalid-scenario") else [])
