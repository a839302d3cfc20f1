"""JSON interchange: complex matrices, maps, scenarios, tables, reports.

A complex scalar serializes as the two-element array [re, im]; matrices are
row-major nested lists of such pairs; kets are flat lists of pairs.  This one
convention is shared by every file the package reads or writes.
"""

from __future__ import annotations

import array
import functools
import gc
import hashlib
import itertools
import json
import operator
import re
import warnings
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from . import linalg
from .channels import Instrument, QuantumMap, is_trace_preserving
from .channels import classify  # noqa: F401  (bound here for bench/test_bench.py's tracer test)
from .errors import ScenarioError
from .inference import as_outcome
from .purify import Purification
from .sampler import SEED_LIMIT
from .tables import ProbabilityTable

TASKS = ("predict", "postdict", "classify", "purify", "verify", "sample")


# array("d") reads these as 0.0 or 1.0; they are not numbers on the wire.
_BOOL_TYPES = {bool, np.bool_}

# array("d") reads a numpy complex as its real part with this warning; numpy < 1.25 has it at the top level.
_COMPLEX_WARNING = getattr(np, "exceptions", np).ComplexWarning


def _to_doubles(values) -> array.array:
    """``array("d", values)``, with the ``ComplexWarning`` of a complex that drops its imaginary part raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", _COMPLEX_WARNING)
        return array.array("d", values)


def _is_number(x) -> bool:
    """Whether ``_to_doubles`` converts x, or finds it beyond the float range, and x is not a bool."""
    if type(x) in _BOOL_TYPES:
        return False
    try:
        _to_doubles((x,))
    except OverflowError:
        return True
    except (TypeError, ValueError, _COMPLEX_WARNING):
        return False
    return True


def _wire_to_complex_array(rows: list, field: str, shape: tuple[int, ...]) -> np.ndarray:
    """Rows of [re, im] pairs of numbers, flattened once and converted in one step to a complex array of ``shape``.

    A matrix's rows are its rows; a ket is one row.  A number is what
    ``array("d")`` converts (a JSON number, or a numpy or ``Decimal`` number
    from Python) except a Python or numpy bool and a numpy complex.  One
    pass reads the pairs' lengths; one more extends a single list with every
    pair's entries, with no list of pairs in between.  The entries then go
    through ``_to_doubles``, which refuses every other non-number, a numpy
    complex included, but reads a bool as 0.0 or 1.0, so the entries' types
    are read only if one of them is a whole number.  Only input that fails
    is walked, to name its first bad pair by the same rule (``_is_number``).
    """
    values = None
    try:
        if set(map(len, itertools.chain.from_iterable(rows))) <= {2}:
            flat = functools.reduce(operator.iconcat, itertools.chain.from_iterable(rows), [])
            values = _to_doubles(flat)
            parts = np.frombuffer(values)
            if np.count_nonzero(np.rint(parts) == parts) and not set(map(type, flat)).isdisjoint(_BOOL_TYPES):
                values = None
    except (TypeError, OverflowError, ValueError, _COMPLEX_WARNING):
        # no length, a non-number, beyond the float range, a signaling NaN, a numpy complex
        pass
    if values is None:
        for pair in itertools.chain.from_iterable(rows):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ScenarioError("malformed-document", f"expected [re, im] pair, got {pair!r}")
            if not all(map(_is_number, pair)):
                raise ScenarioError("malformed-document", f"expected [re, im] numbers, got {pair!r}")
        parts = np.array([np.inf])  # every pair is well-formed, so a number overflowed
    if np.count_nonzero(np.isfinite(parts)) < len(parts):
        raise ScenarioError("malformed-document", f"{field}: entries must be finite numbers")
    return np.ndarray(shape, np.complex128, values)


def matrix_to_wire(m: np.ndarray) -> list[list[list[float]]]:
    """Row-major nested lists of [re, im] pairs, written in one numpy pass; a -0.0 part stays -0.0."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def wire_to_matrix(data: Any, field: str = "matrix") -> np.ndarray:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ScenarioError("malformed-document", f"{field}: expected a nested row-major matrix")
    cols = len(data[0])
    if any(len(row) != cols for row in data):
        raise ScenarioError("malformed-document", f"{field}: ragged rows")
    return _wire_to_complex_array(data, field, (len(data), cols))


def ket_to_wire(v: np.ndarray) -> list[list[float]]:
    """A flat list of [re, im] pairs, as ``matrix_to_wire`` writes a row."""
    return matrix_to_wire(np.ravel(v))


def wire_to_ket(data: Any, field: str = "state") -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ScenarioError("malformed-document", f"{field}: expected a list of [re, im] pairs")
    return _wire_to_complex_array([data], field, (len(data),))


def instrument_to_wire(inst: Instrument) -> dict:
    return {
        "dim_in": inst.dim_in,
        "dim_out": inst.dim_out,
        "outcomes": [
            {"label": label, "kraus": [matrix_to_wire(k) for k in qmap.kraus]}
            for label, qmap in inst.outcomes
        ],
    }


def wire_to_instrument(data: Any) -> Instrument:
    try:
        outcomes = tuple(
            (
                str(entry["label"]),
                QuantumMap(
                    tuple(wire_to_matrix(k, "kraus") for k in entry["kraus"]),
                    dim_in=int(data["dim_in"]),
                    dim_out=int(data["dim_out"]),
                ),
            )
            for entry in data["outcomes"]
        )
        return Instrument(outcomes, dim_in=int(data["dim_in"]), dim_out=int(data["dim_out"]))
    except (KeyError, TypeError) as exc:
        raise ScenarioError("malformed-document", f"instrument: missing field {exc}") from exc


def purification_to_wire(p: Purification) -> dict:
    """The dilation as a unitary U with ancilla input |0>: V completed at the ancilla-|0> slots."""
    d_a, d_b = p.dims_in
    unitary = linalg.complete_to_unitary(p.isometry.reshape(-1, d_a), [a * d_b for a in range(d_a)])
    return {
        "unitary": matrix_to_wire(unitary),
        "ancilla_state": ket_to_wire(linalg.basis_ket(d_b, 0)),
        "dims_in": list(p.dims_in),
        "dims_out": list(p.dims_out),
        "pointer_dims": list(p.pointer_partition) if p.pointer_partition else None,
    }


def table_to_wire(table: ProbabilityTable) -> dict:
    return {
        "given": table.given,
        "direction": table.direction,
        "entries": dict(table.entries),
        "factor": table.factor,
        "normalization_defect": table.normalization_defect,
    }


@dataclass(frozen=True, eq=False)
class ScenarioFile:
    """A parsed and validated scenario document.

    ``digest`` is the SHA-256 of the file's bytes when the scenario was read
    from a file, and None otherwise.
    """

    task: str
    dims_in: tuple[int, ...]
    dims_out: tuple[int, ...]
    transformation: np.ndarray | QuantumMap | Instrument | None
    preparation_states: tuple[np.ndarray, ...] | None
    given_input: tuple[int | None, ...]
    given_output: tuple[int | None, ...]
    given_outcome: str | None
    known_input_mask: tuple[bool, ...]
    known_output_mask: tuple[bool, ...]
    shots: int | None
    seed: int | None
    digest: str | None = None


def _is_json_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_dims(raw: Any, field: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not all(_is_json_integer(d) and d >= 1 for d in raw):
        raise ScenarioError("malformed-document", f"{field}: expected a list of integers >= 1")
    return tuple(raw)


def _parse_given(raw: Any, n_factors: int, field: str) -> tuple[int | None, ...]:
    if raw is None:
        return (None,) * n_factors
    if isinstance(raw, (str, int, float)):  # a bare JSON scalar is the one factor's outcome
        raw = [raw]
    if not isinstance(raw, list) or len(raw) != n_factors:
        raise ScenarioError(
            "dimension-mismatch", f"{field}: expected one entry per factor ({n_factors})"
        )
    try:
        return tuple(None if entry is None else as_outcome(entry) for entry in raw)
    except ValueError as exc:
        raise ScenarioError("malformed-document", f"{field}: {exc}") from exc


def _parse_mask(raw: Any, n_factors: int, default: tuple[bool, ...], field: str) -> tuple[bool, ...]:
    if raw is None:
        return default
    if not isinstance(raw, list) or len(raw) != n_factors:
        raise ScenarioError(
            "dimension-mismatch", f"{field}: expected one boolean per factor ({n_factors})"
        )
    if not all(isinstance(b, bool) for b in raw):
        raise ScenarioError("malformed-document", f"{field}: expected true or false, got {raw!r}")
    return tuple(raw)


def parse_scenario_dict(doc: Any) -> ScenarioFile:
    """Validate a scenario document; every matrix is checked against its role."""
    if not isinstance(doc, dict):
        raise ScenarioError("malformed-document", "scenario must be a JSON object")
    task = doc.get("task")
    if task not in TASKS:
        raise ScenarioError("unknown-task", f"unknown task tag {task!r}; expected one of {TASKS}")

    dims_in = _parse_dims(doc.get("dims_in", []), "dims_in") or (2,)
    dims_out = _parse_dims(doc.get("dims_out", []), "dims_out") or dims_in
    total_in = linalg.dims_total(dims_in)
    total_out = linalg.dims_total(dims_out)

    transformation: np.ndarray | QuantumMap | Instrument | None = None
    kind: str | None = None
    tagged = doc.get("transformation")
    if tagged is not None:
        if not isinstance(tagged, dict) or "type" not in tagged:
            raise ScenarioError("malformed-document", "transformation: expected a tagged object")
        kind = tagged["type"]
        if kind == "unitary":
            matrix = wire_to_matrix(tagged.get("matrix"), "transformation.matrix")
            if matrix.shape != (total_in, total_in) or total_in != total_out:
                raise ScenarioError(
                    "dimension-mismatch",
                    f"transformation.matrix: shape {matrix.shape} does not match dims {dims_in}",
                )
            if not linalg.is_unitary(matrix):
                raise ScenarioError(
                    "non-unitary-matrix", "transformation.matrix: matrix is not unitary"
                )
            transformation = matrix
        elif kind == "kraus-channel":
            kraus_wire = tagged.get("kraus")
            if not isinstance(kraus_wire, list) or not kraus_wire:
                raise ScenarioError("malformed-document", "transformation.kraus: expected matrices")
            kraus = tuple(wire_to_matrix(k, "transformation.kraus") for k in kraus_wire)
            if any(k.shape != (total_out, total_in) for k in kraus):
                raise ScenarioError(
                    "dimension-mismatch", "transformation.kraus: operator shapes do not match dims"
                )
            channel = QuantumMap(kraus, dim_in=total_in, dim_out=total_out)
            if not is_trace_preserving(channel):
                raise ScenarioError(
                    "non-cptp-channel", "transformation.kraus: map is not a CPTP channel"
                )
            transformation = channel
        elif kind == "instrument":
            wire = dict(tagged)
            wire.setdefault("dim_in", total_in)
            wire.setdefault("dim_out", total_out)
            try:
                transformation = wire_to_instrument(wire)
            except ValueError as exc:
                if isinstance(exc, ScenarioError):
                    raise
                raise ScenarioError("non-cptp-channel", f"transformation: {exc}") from exc
        else:
            raise ScenarioError("unknown-task", f"unknown transformation type {kind!r}")
    elif task in ("predict", "postdict", "classify", "purify", "sample"):
        raise ScenarioError("malformed-document", f"task {task!r} requires a transformation")

    preparation_states = None
    prep = doc.get("preparation")
    if prep is not None:
        if not isinstance(prep, dict) or prep.get("type") not in ("basis", "states"):
            raise ScenarioError("malformed-document", "preparation: expected type basis or states")
        if prep["type"] == "states":
            raw_states = prep.get("states")
            if not isinstance(raw_states, list) or not raw_states:
                raise ScenarioError("malformed-document", "preparation.states: expected kets")
            states = tuple(wire_to_ket(s, "preparation.states") for s in raw_states)
            for i, psi in enumerate(states):
                if psi.shape != (total_in,):
                    raise ScenarioError(
                        "dimension-mismatch", f"preparation.states[{i}]: length does not match dims"
                    )
                if not abs(np.linalg.norm(psi) - 1.0) <= linalg.ATOL_STRUCTURAL:
                    raise ScenarioError(
                        "validation", f"preparation.states[{i}]: state is not normalized"
                    )
            preparation_states = states
    test = doc.get("test")
    if test is not None and (not isinstance(test, dict) or test.get("type") != "basis"):
        raise ScenarioError("malformed-document", "test: only basis tests are supported")

    given = doc.get("given", {})
    if not isinstance(given, dict):
        given = {"input": given} if task == "predict" else {"output": given}
    given_input = _parse_given(given.get("input"), len(dims_in), "given.input")
    given_output = _parse_given(given.get("output"), len(dims_out), "given.output")
    given_outcome = given.get("outcome")
    if given_outcome is not None:
        given_outcome = str(given_outcome)

    # Defaults: on the data side of the declared task the mask follows the
    # supplied outcomes, on the guessing side every factor participates.
    # Sampling tracks both sides in full.
    if task == "postdict":
        default_in: tuple[bool, ...] = (True,) * len(dims_in)
        default_out = tuple(g is not None for g in given_output)
    elif task == "sample":
        default_in = (True,) * len(dims_in)
        default_out = (True,) * len(dims_out)
    else:
        default_in = tuple(g is not None for g in given_input)
        default_out = (True,) * len(dims_out)
    known_input_mask = _parse_mask(doc.get("known_input_mask"), len(dims_in), default_in, "known_input_mask")
    known_output_mask = _parse_mask(doc.get("known_output_mask"), len(dims_out), default_out, "known_output_mask")

    shots = doc.get("shots")
    seed = doc.get("seed")
    for name, value in (("shots", shots), ("seed", seed)):
        if value is not None and not _is_json_integer(value):
            raise ScenarioError("malformed-document", f"{name}: expected an integer")
    if seed is not None and not 0 <= seed < SEED_LIMIT:
        raise ScenarioError("malformed-document", "seed: expected an integer in [0, 2**64)")
    return ScenarioFile(
        task=task,
        dims_in=dims_in,
        dims_out=dims_out,
        transformation=transformation,
        preparation_states=preparation_states,
        given_input=given_input,
        given_output=given_output,
        given_outcome=given_outcome,
        known_input_mask=known_input_mask,
        known_output_mask=known_output_mask,
        shots=shots,
        seed=seed,
    )


# The deepest bracket nesting a scenario file may have; scenarios nest about 7
# levels.  The decoder has no limit of its own and overflows its stack far deeper.
MAX_DEPTH = 512

_STRING = re.compile(rb'"[^"]*"')
_NOT_STRUCTURE = bytes(b for b in range(256) if b not in b'"[]{}')
_NESTING_STEP = np.zeros(256, np.int8)
_NESTING_STEP[list(b"[{")] = 1
_NESTING_STEP[list(b"]}")] = -1


def nesting_depth(text: bytes) -> int:
    """The deepest bracket nesting of a UTF-8 JSON text, brackets inside strings excluded.

    Escaped backslashes, then escaped quotes, are dropped first, so every
    quote left delimits a string and ``"[^"]*"`` finds each string in one
    linear pass.  Only the quotes and brackets are kept for that pass.  A
    close followed by an open returns to the depth it left, so every ``][``
    is dropped before the prefix sum: a matrix's rows leave a few hundred
    steps to sum, not one per row and entry.
    """
    if b"\\" in text:  # rare in scenario files, and each replace scans the whole text
        text = text.replace(b"\\\\", b"").replace(b'\\"', b"")
    brackets = _STRING.sub(b"", text.translate(None, _NOT_STRUCTURE)).replace(b"][", b"")
    steps = _NESTING_STEP[np.frombuffer(brackets, np.uint8)]
    # Cast, then sum: the prefix sums of np.cumsum(steps, dtype=np.int64), without its buffered casting loop.
    return int(np.cumsum(steps.astype(np.int64)).max(initial=0))


def parse_scenario(path: str) -> ScenarioFile:
    """Read a scenario file once; its digest is the SHA-256 of the bytes read.

    A UTF-8 file is decoded as read; a UTF-8 file with a byte order mark and a
    UTF-16 or UTF-32 one are re-encoded to UTF-8 first.

    The cyclic garbage collector is paused from decoding until the decoded
    tree is released: the decoder builds one list per matrix entry (65 536
    for a 256 x 256 unitary), and each collection it triggers walks them
    all, though lists, dicts, strings and numbers decoded from JSON hold no
    cycle.  Reference counting still frees the tree.  The caller's collector
    state is put back whatever happens, so a caller that had it off keeps it off.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ScenarioError("malformed-document", f"cannot read scenario: {exc}") from exc
    try:
        encoding = json.detect_encoding(raw)
        text = raw if encoding == "utf-8" else raw.decode(encoding).encode()
    except UnicodeError as exc:
        raise ScenarioError("malformed-document", f"invalid JSON: {exc}") from exc
    if nesting_depth(text) > MAX_DEPTH:  # checked before decoding, which would overflow the stack
        raise ScenarioError("malformed-document", f"invalid JSON: nested deeper than {MAX_DEPTH} levels")
    collecting = gc.isenabled()
    gc.disable()
    import orjson  # loaded on the first file read, so a process that reads none never imports it

    try:
        try:
            doc = orjson.loads(text)
        except orjson.JSONDecodeError as exc:  # invalid JSON, invalid UTF-8 or a lone surrogate
            raise ScenarioError("malformed-document", f"invalid JSON: {exc}") from exc
        scenario = parse_scenario_dict(doc)
        del doc  # freed here, before the collector can count it
    finally:
        if collecting:
            gc.enable()
    return replace(scenario, digest=hashlib.sha256(raw).hexdigest())


def scenario_to_dict(scenario: ScenarioFile) -> dict:
    """Canonical re-serialization; parsing it again gives an identical scenario."""
    doc: dict[str, Any] = {
        "task": scenario.task,
        "dims_in": list(scenario.dims_in),
        "dims_out": list(scenario.dims_out),
    }
    if isinstance(scenario.transformation, np.ndarray):
        doc["transformation"] = {
            "type": "unitary",
            "matrix": matrix_to_wire(scenario.transformation),
        }
    elif isinstance(scenario.transformation, QuantumMap):
        doc["transformation"] = {
            "type": "kraus-channel",
            "kraus": [matrix_to_wire(k) for k in scenario.transformation.kraus],
        }
    elif isinstance(scenario.transformation, Instrument):
        doc["transformation"] = {"type": "instrument", **instrument_to_wire(scenario.transformation)}
    if scenario.preparation_states is not None:
        doc["preparation"] = {
            "type": "states",
            "states": [ket_to_wire(s) for s in scenario.preparation_states],
        }
    else:
        doc["preparation"] = {"type": "basis"}
    doc["test"] = {"type": "basis"}
    doc["given"] = {
        "input": list(scenario.given_input),
        "output": list(scenario.given_output),
        "outcome": scenario.given_outcome,
    }
    doc["known_input_mask"] = list(scenario.known_input_mask)
    doc["known_output_mask"] = list(scenario.known_output_mask)
    if scenario.shots is not None:
        doc["shots"] = scenario.shots
    if scenario.seed is not None:
        doc["seed"] = scenario.seed
    return doc


def scenario_digest(doc: dict) -> str:
    """SHA-256 of a document's canonical JSON, for reports that read no file."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
