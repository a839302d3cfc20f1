import contextlib
import errno
import functools
import hashlib
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retrodict as rd
from retrodict import channels
from retrodict.cli import build_parser, main
from retrodict.serialize import (
    TASKS,
    ScenarioFile,
    matrix_to_wire,
    parse_scenario,
    parse_scenario_dict,
    scenario_to_dict,
)

from seeded_draws import random_pure_state

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name):
    return str(FIXTURES / name)


def test_predict_identity_prints_delta_table(capsys):
    code = main(["predict", "--scenario", fixture("predict_identity.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "given=0" in out
    assert "1.000000000000" in out


def test_postdict_amplitude_damping_table(capsys):
    code = main(["postdict", "--scenario", fixture("postdict_amplitude_damping.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.666666666667" in out
    assert "0.333333333333" in out
    assert "factor" in out


def test_json_format_reports_normalized_rows(capsys):
    code = main(
        ["postdict", "--scenario", fixture("postdict_amplitude_damping.json"), "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    for table in doc["tables"]:
        assert abs(sum(table["entries"].values()) - 1.0) < 1e-9
        assert all(-1e-9 <= v <= 1 + 1e-9 for v in table["entries"].values())
    assert doc["passed"] is True
    assert doc["scenario_digest"]


def test_csv_format_header(capsys):
    code = main(
        ["predict", "--scenario", fixture("predict_identity.json"), "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "given,outcome,probability"


def test_classify_dephasing(capsys):
    code = main(["classify", "--scenario", fixture("classify_dephasing.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "unital: True" in out
    assert "inference_symmetric: True" in out
    assert "active_reverse: exists" in out


def test_classify_a_nearly_unital_channel(capsys):
    # amplitude damping at gamma = 5e-10: trace preserving, unital defect 5e-10
    code = main(["classify", "--scenario", fixture("classify_nearly_unital.json"), "--format", "json"])
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert metrics["tp"] is True
    assert metrics["unital"] is False
    assert metrics["inference_symmetric"] is False
    assert metrics["active_reverse"] == "none"


def test_classify_a_map_between_unequal_dimensions_reports_a_null_unital_defect(capsys):
    # the trace 2 -> 1: unitality is undefined, and the library's inf is not JSON
    code = main(["classify", "--scenario", fixture("classify_trace_2_to_1.json"), "--format", "json"])
    assert code == 0
    metrics = orjson.loads(capsys.readouterr().out)["metrics"]
    assert metrics["unital_defect"] is None
    assert (metrics["tp"], metrics["unital"]) == (True, False)


def test_a_non_finite_report_field_fails_instead_of_writing_bare_infinity(monkeypatch, capsys):
    def classify_to_inf(scenario, report):
        report.metrics["unital_defect"] = float("inf")

    monkeypatch.setattr(rd.cli, "_run_classify", classify_to_inf)
    with pytest.raises(ValueError, match="not JSON compliant"):
        main(["classify", "--scenario", fixture("classify_dephasing.json"), "--format", "json"])


@pytest.mark.parametrize(
    "error, message",
    [
        (
            MemoryError("Unable to allocate 64.0 GiB for an array with shape (65536, 65536) and data type complex128"),
            "Unable to allocate 64.0 GiB for an array with shape (65536, 65536) and data type complex128",
        ),
        (MemoryError(), "not enough memory for this input"),
    ],
)
def test_an_input_too_large_for_memory_exits_3_without_a_traceback(monkeypatch, capsys, error, message):
    # A raiser stands in for the allocation: a real one would take the memory it reports.
    def too_large(channel):
        raise error

    monkeypatch.setattr(rd.cli, "classify", too_large)
    code = main(["classify", "--scenario", fixture("classify_dephasing.json")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error [too-large]: {message}\n"


def test_purify_round_trip_check(capsys):
    code = main(["purify", "--scenario", fixture("purify_amplitude_damping.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "purification-round-trip" in out


# Each fixture's command is the first word of its name.
GOLDEN = [
    "predict_identity",
    "predict_amplitude_damping_instrument",
    "postdict_amplitude_damping",
    "postdict_amplitude_damping_instrument",
    "sample_hadamard",
    "sample_amplitude_damping_instrument",
    "sample_random_instrument",
    "purify_amplitude_damping",
    "purify_amplitude_damping_instrument",
    "purify_signed_zero",
]


@pytest.mark.parametrize("name", GOLDEN)
@pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("text", "txt"), ("csv", "csv")])
def test_purify_report_matches_golden(capsys, name, fmt, suffix):
    # Written by earlier designs of the dilation and of the transition array; a refactor
    # of either may not move a byte.
    code = main([name.split("_")[0], "--scenario", fixture(f"{name}.json"), "--format", fmt])
    assert code == 0
    assert capsys.readouterr().out == (FIXTURES / f"{name}.report.{suffix}").read_text()


# A correct ensemble that the 4-sigma bound rejects: a (4, 4) Haar unitary at 400 shots fails
# one of its 20 rows.  Written by the per-row comparison that the array verdicts replaced.
FAILING_GOLDEN = "sample_haar_open_false_alarm"


@pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("text", "txt"), ("csv", "csv")])
def test_a_failing_sample_report_matches_golden(capsys, fmt, suffix):
    code = main(["sample", "--scenario", fixture(f"{FAILING_GOLDEN}.json"), "--format", fmt])
    assert code == 5
    assert capsys.readouterr().out == (FIXTURES / f"{FAILING_GOLDEN}.report.{suffix}").read_text()


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_options_of_one_call_do_not_carry_into_the_next(capsys):
    options = ["--seed", "7", "--tolerance", "0.5", "--shots", "50", "--dims", "3", "3"]
    assert main(["sample", "--scenario", fixture("sample_hadamard.json"), *options]) == 0
    capsys.readouterr()
    assert main(["sample", "--scenario", fixture("sample_hadamard.json"), "--format", "json"]) == 0
    assert capsys.readouterr().out == (FIXTURES / "sample_hadamard.report.json").read_text()
    assert main(["verify", *options]) == 0
    capsys.readouterr()
    assert main(["verify", "--format", "json"]) == 0
    argv = [sys.executable, "-m", "retrodict", "verify", "--format", "json"]
    fresh = subprocess.run(argv, capture_output=True, text=True, env=_child_env(), timeout=120)
    assert fresh.returncode == 0
    assert capsys.readouterr().out == fresh.stdout


def test_verify_fixture_passes(capsys):
    code = main(["verify", "--scenario", fixture("verify_small.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out


def test_verify_flags_only(capsys):
    code = main(["verify", "--seed", "1", "--dims", "2", "2"])
    assert code == 0


VERIFY_CHECKS = [
    ("closed-symmetry", 1e-12),
    ("open-reversal", 1e-12),
    ("open-ratio-laws", 1e-12),
    ("channel-bayes-factor", 1e-12),
    ("purified-ratio", 1e-10),
    ("four-task", 1e-12),
    ("towards-past", 1e-10),
    ("no-signalling", 1e-12),
    ("no-signalling-purified", 1e-10),
    ("unital-symmetric-adjoint", 0.5),
    ("deterministic-effect-solution", 1e-08),
]


def test_the_verify_report_lists_its_checks_in_order(capsys):
    assert main(["verify", "--dims", "2", "3", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    checks = [(check["name"], check["tolerance"]) for check in report["checks"]]
    assert checks[:-1] == VERIFY_CHECKS
    # the last check's tolerance is the smallest residual of the alternative weightings, also a metric
    assert checks[-1] == ("deterministic-effect-alternatives", pytest.approx(0.25103563556603997, rel=1e-9))
    assert list(report["metrics"]) == ["deterministic_effect_min_alternative_residual", "seed"]
    assert report["metrics"]["deterministic_effect_min_alternative_residual"] == checks[-1][1]


def test_verify_is_deterministic(capsys):
    main(["verify", "--seed", "3", "--dims", "2", "2", "--format", "json"])
    first = json.loads(capsys.readouterr().out)
    main(["verify", "--seed", "3", "--dims", "2", "2", "--format", "json"])
    second = json.loads(capsys.readouterr().out)
    assert first == second


@pytest.mark.parametrize("dims", ["1x1", "2x2", "2x3", "3x3", "2x7", "7x2", "6x6"])
def test_verify_report_is_the_same_bytes_in_any_byte_budget(monkeypatch, capsys, dims):
    # The byte budget sets how work is stacked, never what a check reads: every defect keeps its bits.
    reports = []
    for budget in (rd.linalg.STACK_BYTES, 1, 3000):
        monkeypatch.setattr(rd.linalg, "STACK_BYTES", budget)
        assert main(["verify", "--dims", *dims.split("x"), "--format", "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_sample_small(capsys):
    code = main(
        ["sample", "--scenario", fixture("sample_hadamard.json"), "--shots", "20000"]
    )
    assert code == 0


def test_non_unitary_matrix_exits_3(capsys):
    code = main(["predict", "--scenario", fixture("bad_nonunitary.json")])
    assert code == 3
    assert "transformation.matrix" in capsys.readouterr().err


def test_impossible_conditioning_exits_4(capsys):
    code = main(["postdict", "--scenario", fixture("bad_impossible_conditioning.json")])
    assert code == 4


def test_missing_scenario_exits_2(capsys):
    code = main(["predict"])
    assert code == 2


def test_unreadable_scenario_exits_2(capsys):
    code = main(["predict", "--scenario", fixture("nope.json")])
    assert code == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code = main(["predict", "--scenario", str(bad)])
    assert code == 2


@pytest.mark.parametrize(
    "raw", [b'{"task": "predict\xff"}', b"[" * 100_000 + b"]" * 100_000], ids=["undecodable", "too-deep"]
)
def test_undecodable_or_too_deeply_nested_json_exits_2(tmp_path, capsys, raw):
    bad = tmp_path / "broken.json"
    bad.write_bytes(raw)
    assert main(["predict", "--scenario", str(bad)]) == 2
    assert "malformed-document" in capsys.readouterr().err


def _child_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_a_million_nested_brackets_exit_2_in_a_subprocess(tmp_path):
    # run apart, so that a decoder overflowing its stack fails this test instead of killing pytest
    bad = tmp_path / "deep.json"
    bad.write_bytes(b"[" * 10**6 + b"]" * 10**6)
    argv = [sys.executable, "-m", "retrodict", "predict", "--scenario", str(bad)]
    result = subprocess.run(argv, capture_output=True, text=True, env=_child_env(), timeout=120)
    assert result.returncode == 2
    assert "nested deeper than 512 levels" in result.stderr
    assert "Traceback" not in result.stderr


def test_brackets_in_a_label_cannot_hide_a_deep_array(tmp_path, capsys):
    bad = tmp_path / "hidden.json"
    label = "]" * 1000 + '\\"]]'
    bad.write_text(f'{{"task": "predict", "note": "{label}", "deep": {"[" * 600}{"]" * 600}}}')
    assert main(["predict", "--scenario", str(bad)]) == 2
    assert "nested deeper than 512 levels" in capsys.readouterr().err


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-16-le", "utf-32"])
def test_bom_and_utf16_or_utf32_files_give_the_utf8_tables(tmp_path, capsys, encoding):
    source = Path(fixture("postdict_amplitude_damping.json"))
    assert main(["postdict", "--scenario", str(source), "--format", "json"]) == 0
    expected = json.loads(capsys.readouterr().out)
    copy = tmp_path / "encoded.json"
    copy.write_bytes(source.read_text(encoding="utf-8").encode(encoding))
    assert main(["postdict", "--scenario", str(copy), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tables"] == expected["tables"]
    assert report["scenario_digest"] == hashlib.sha256(copy.read_bytes()).hexdigest()


def test_a_lone_surrogate_label_exits_2(tmp_path, capsys):
    doc = json.loads(Path(fixture("purify_amplitude_damping_instrument.json")).read_text())
    doc["transformation"]["outcomes"][0]["label"] = "\ud800"
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc))  # ASCII, with the surrogate escaped
    for command in ("predict", "purify"):
        assert main([command, "--scenario", str(path)]) == 2
        assert "surrogate" in capsys.readouterr().err


COMMANDS = ["predict", "postdict", "classify", "purify", "verify", "sample"]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda path: path.name)
def test_every_command_on_every_fixture_exits_with_a_documented_code(capsys, command, path, fmt):
    code = main([command, "--scenario", str(path), "--format", fmt])
    assert code in {0, 2, 3, 4, 5}
    # either no report, on a failed run, or one that a strict JSON decoder reads
    out = capsys.readouterr().out
    if not out:
        assert code != 0
    elif fmt == "json":
        orjson.loads(out)


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "verify"])
def test_a_scenario_without_a_transformation_exits_3(capsys, command):
    assert main([command, "--scenario", fixture("verify_small.json")]) == 3
    assert capsys.readouterr().err == (
        f"error [missing-transformation]: {command} needs a scenario with a transformation\n"
    )


def test_unknown_task_document_exits_2(tmp_path, capsys):
    doc = tmp_path / "task.json"
    doc.write_text(json.dumps({"task": "teleport"}))
    code = main(["predict", "--scenario", str(doc)])
    assert code == 2


HADAMARD_DOC = {
    "task": "predict",
    "dims_in": [2],
    "dims_out": [2],
    "transformation": {"type": "unitary", "matrix": matrix_to_wire(np.array([[1, 1], [1, -1]]) / np.sqrt(2))},
    "given": {"input": [0]},
}


@pytest.mark.parametrize(
    "patch",
    [
        {"dims_in": [[2]]},
        {"dims_in": "12", "given": {"input": [0, 1]}},
        {"shots": "abc"},
        {"seed": "x"},
        {"transformation": {"type": "unitary", "matrix": [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]}},
    ],
)
def test_malformed_field_exits_2(tmp_path, capsys, patch):
    doc = tmp_path / "scenario.json"
    doc.write_text(json.dumps({**HADAMARD_DOC, **patch}))
    code = main(["predict", "--scenario", str(doc)])
    assert code == 2
    assert "malformed-document" in capsys.readouterr().err


@pytest.mark.parametrize(
    "patch",
    [
        {"transformation": {"type": "unitary", "matrix": [[["1", "0"], [0, 0]], [[0, 0], [1, 0]]]}},
        {"transformation": {"type": "unitary", "matrix": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]}},
        {"preparation": {"type": "states", "states": [[["1", 0], [0, 0]], [[0, 0], [1, 0]]]}},
        {"preparation": {"type": "states", "states": [[[1, False], [0, 0]], [[0, 0], [1, 0]]]}},
    ],
    ids=["matrix-strings", "matrix-bool", "ket-string", "ket-bool"],
)
def test_non_number_entries_exit_2(tmp_path, capsys, patch):
    doc = tmp_path / "scenario.json"
    doc.write_text(json.dumps({**HADAMARD_DOC, **patch}))
    assert main(["predict", "--scenario", str(doc)]) == 2
    assert "expected [re, im] numbers" in capsys.readouterr().err


def test_integer_entry_beyond_float_range_exits_2(tmp_path, capsys):
    doc = tmp_path / "scenario.json"
    matrix = [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]
    doc.write_text(json.dumps({**HADAMARD_DOC, "transformation": {"type": "unitary", "matrix": matrix}}))
    assert main(["predict", "--scenario", str(doc)]) == 2
    assert "number is infinity" in capsys.readouterr().err  # rejected while decoding


def test_sample_tolerance_follows_conditioning_cell_counts(tmp_path):
    doc = tmp_path / "wide.json"
    doc.write_text(
        json.dumps(
            {
                "task": "sample",
                "dims_in": [4, 16],
                "dims_out": [4, 16],
                "transformation": {"type": "unitary", "matrix": matrix_to_wire(rd.haar_random_unitary(64, 4))},
                "known_input_mask": [True, False],
                "known_output_mask": [True, False],
            }
        )
    )
    for seed in range(1, 9):
        code = main(["sample", "--scenario", str(doc), "--shots", "4000", "--seed", str(seed)])
        assert code == 0, f"seed {seed}"


def test_sample_with_zero_tolerance_passes_a_deterministic_ensemble(tmp_path, capsys):
    doc = tmp_path / "cycle.json"
    cycle = np.roll(np.eye(3), 1, axis=0)
    doc.write_text(
        json.dumps(
            {
                "task": "sample",
                "dims_in": [3],
                "dims_out": [3],
                "transformation": {"type": "unitary", "matrix": matrix_to_wire(cycle)},
            }
        )
    )
    code = main(["sample", "--scenario", str(doc), "--shots", "300", "--tolerance", "0", "--format", "json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == 0
    assert len(checks) == 6
    assert all(c["passed"] and c["defect"] == 0.0 and c["tolerance"] == 0.0 for c in checks)


def _channel_doc(task):
    """A one-Kraus channel on two qubits: prepare the first in 1, ignore the second on both sides."""
    u = rd.haar_random_unitary(4, 17)
    return {
        "task": task,
        "dims_in": [2, 2],
        "dims_out": [2, 2],
        "transformation": {"type": "kraus-channel", "kraus": [matrix_to_wire(u)]},
        "given": {"input": [1, None]},
        "known_input_mask": [True, False],
        "known_output_mask": [True, False],
        "shots": 20000,
        "seed": 5,
    }


def test_channel_scenario_uses_its_factors_and_masks(tmp_path, capsys):
    tables = []
    for kind in ("kraus-channel", "unitary"):
        doc = _channel_doc("predict")
        if kind == "unitary":
            doc["transformation"] = {"type": "unitary", "matrix": doc["transformation"]["kraus"][0]}
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        assert main(["predict", "--scenario", str(path), "--format", "json"]) == 0
        tables.append(json.loads(capsys.readouterr().out)["tables"][0])
    assert list(tables[0]["entries"]) == ["0", "1"]
    assert tables[0]["given"] == tables[1]["given"] == "1"
    for label, value in tables[1]["entries"].items():
        assert tables[0]["entries"][label] == pytest.approx(value, abs=1e-12)


def test_channel_scenario_samples(tmp_path):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(_channel_doc("sample")))
    assert main(["sample", "--scenario", str(path)]) == 0


def test_unknown_instrument_outcome_exits_3(tmp_path, capsys):
    path = tmp_path / "instrument.json"
    path.write_text(
        json.dumps(
            {
                "task": "postdict",
                "dims_in": [2],
                "dims_out": [2],
                "transformation": {
                    "type": "instrument",
                    "outcomes": [
                        {"label": "0", "kraus": [matrix_to_wire(np.diag([1.0, 0.0]))]},
                        {"label": "1", "kraus": [matrix_to_wire(np.diag([0.0, 1.0]))]},
                    ],
                },
                "given": {"output": [0], "outcome": "2"},
            }
        )
    )
    assert main(["postdict", "--scenario", str(path)]) == 3
    assert "no outcome labelled '2'" in capsys.readouterr().err


def test_negative_seed_on_the_command_line_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sample", "--scenario", fixture("sample_hadamard.json"), "--seed", "-3"])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["sample", "--scenario", fixture("sample_hadamard.json"), "--seed", str(2**64)])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_a_non_finite_or_negative_tolerance_exits_2_before_running(monkeypatch, capsys, tolerance):
    def never(*args):
        raise AssertionError("the suite must not run on a bad tolerance")

    monkeypatch.setattr(rd.cli, "_run_verify", never)
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--dims", "2", "2", f"--tolerance={tolerance}"])
    assert exit_info.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


def test_seed_outside_the_philox_key_range_exits_2(tmp_path, capsys):
    for seed in (-1, 2**64):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps({**json.loads(Path(fixture("sample_hadamard.json")).read_text()), "seed": seed}))
        assert main(["sample", "--scenario", str(path), "--shots", "100"]) == 2
        assert "seed" in capsys.readouterr().err
    path.write_text(json.dumps({**json.loads(path.read_text()), "seed": 2**64 - 1}))
    assert main(["sample", "--scenario", str(path), "--shots", "100"]) == 0


def test_scenario_digest_is_the_sha256_of_the_file(capsys):
    path = Path(fixture("postdict_amplitude_damping.json"))
    assert main(["postdict", "--scenario", str(path), "--format", "json"]) == 0
    digest = json.loads(capsys.readouterr().out)["scenario_digest"]
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_zero_shots_exit_3(tmp_path, capsys):
    assert main(["sample", "--scenario", fixture("sample_hadamard.json"), "--shots", "0"]) == 3
    assert "shots must be at least 1" in capsys.readouterr().err
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({**json.loads(Path(fixture("sample_hadamard.json")).read_text()), "shots": 0}))
    assert main(["sample", "--scenario", str(path)]) == 3
    assert "shots must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("dims", [("0", "2"), ("2", "0"), ("-1", "2")])
def test_verify_rejects_a_dimension_below_1(capsys, dims):
    assert main(["verify", "--dims", *dims]) == 3
    assert capsys.readouterr().err == "error [validation]: dimension must be at least 1\n"


def test_verify_report_names_the_seed_it_ran(tmp_path, capsys):
    reports = {}
    for name, extra in (("default", []), ("zero", ["--seed", "0"])):
        assert main(["verify", "--dims", "2", "2", "--format", "json", *extra]) == 0
        reports[name] = json.loads(capsys.readouterr().out)
    assert reports["default"]["metrics"]["seed"] == 1
    assert reports["zero"]["metrics"]["seed"] == 0
    assert reports["default"]["scenario_digest"] != reports["zero"]["scenario_digest"]
    assert reports["default"]["metrics"] != reports["zero"]["metrics"]
    path = tmp_path / "verify_seed0.json"
    path.write_text(json.dumps({**json.loads(Path(fixture("verify_small.json")).read_text()), "seed": 0}))
    assert main(["verify", "--scenario", str(path), "--format", "json"]) == 0
    from_file = json.loads(capsys.readouterr().out)["metrics"]
    assert from_file == reports["zero"]["metrics"]


@pytest.mark.parametrize("name", [name for name in GOLDEN if name.startswith("sample_")])
def test_sample_draws_one_ensemble(monkeypatch, capsys, name):
    calls = []
    original = rd.sampler._count_grid

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rd.sampler, "_count_grid", counted)
    assert main(["sample", "--scenario", fixture(f"{name}.json")]) == 0
    assert len(calls) == 1


def test_sample_builds_transition_arrays_once_per_ensemble(monkeypatch, capsys):
    # one build, which solves every row and counts the ensemble
    import retrodict.inference as inference

    calls = []
    original = inference._transitions

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(inference, "_transitions", counted)
    assert main(["sample", "--scenario", fixture("sample_hadamard.json"), "--shots", "2000"]) == 0
    assert len(calls) == 1


def test_sample_builds_each_tasks_kernel_view_once(monkeypatch, capsys):
    # the predict task's view serves both the sampler's alternatives and its own solve
    import retrodict.inference as inference

    calls = []
    original = inference._kernel_view

    def counted(task):
        calls.append(task.direction)
        return original(task)

    monkeypatch.setattr(inference, "_kernel_view", counted)
    assert main(["sample", "--scenario", fixture("sample_haar_open_false_alarm.json"), "--shots", "2000"]) == 0
    assert sorted(calls) == ["postdict", "predict"]


@pytest.mark.parametrize("mask", ["known_input_mask", "known_output_mask"])
def test_sample_rejects_a_task_that_guesses_nothing_before_drawing(tmp_path, monkeypatch, capsys, mask):
    def never(*args):
        raise AssertionError("no trial may run for a task that guesses nothing")

    monkeypatch.setattr(rd.sampler, "_count_grid", never)
    doc = {**json.loads(Path(fixture("sample_hadamard.json")).read_text()), mask: [False]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["sample", "--scenario", str(path)]) == 3
    assert capsys.readouterr().err == "error [validation]: at least one factor must be guessed\n"


# Each spoil of a family's row 1, with the exit codes it must give when predicting and when postdicting.
SPOILS = {
    "zero": (lambda row: 0.0 * row, 3, 4),
    "doubled": (lambda row: 2.0 * row, 3, 0),
    "off-by-1e-3": (lambda row: 1.001 * row, 3, 0),
    "negative": (lambda row: row * [3.0, -1.0], 3, 3),
    "nan": (lambda row: np.nan * row, 3, 4),
}
TABLE_ERRORS = r"probability \S+ for outcome '[01]' is out of range|table sums to \S+, not normalized within 1e-09"


@pytest.mark.parametrize("direction", ["predict", "postdict"])
@pytest.mark.parametrize("spoil, predict_code, postdict_code", SPOILS.values(), ids=SPOILS.keys())
def test_an_invalid_sampled_row_fails_as_its_table_would(
    monkeypatch, capsys, direction, spoil, predict_code, postdict_code
):
    # The table of the spoiled row says what the array check must do: exit 4 for a row without
    # evidence, exit 3 with the table's own message for a row out of range or off 1.  That table is
    # spoiled here, not by the patched family, so a patch that breaks sets no expectation.
    task = rd.cli._task_from_scenario(parse_scenario(fixture("sample_hadamard.json")), direction)
    view, t = rd.inference._kernel_view(task), rd.inference._transitions(task.transformation)
    givens, cells, rows, normalized = rd.inference._solve_rows(view, t)
    rows = rows.copy()
    rows[1] = spoil(rows[1])
    try:
        rd.inference._row_table(task, (givens, cells, rows, normalized), 1)
        message = ""
    except rd.UndefinedConditionalError:
        message = "error [undefined-conditional]: cell '1' was sampled but has zero probability\n"
    except ValueError as exc:
        assert re.fullmatch(TABLE_ERRORS, str(exc))
        message = f"error [validation]: {exc}\n"

    original = rd.inference._solve_rows

    def spoiled(view, t):
        # only prediction's family is a forward probability, whose rows are not normalized
        givens, cells, rows, normalized = original(view, t)
        if normalized == (direction == "postdict"):
            rows = rows.copy()
            rows[1] = spoil(rows[1])
        return givens, cells, rows, normalized

    monkeypatch.setattr(rd.inference, "_solve_rows", spoiled)
    code = main(["sample", "--scenario", fixture("sample_hadamard.json"), "--shots", "2000"])
    assert (code, capsys.readouterr().err) == (predict_code if direction == "predict" else postdict_code, message)


def test_a_scenario_is_checked_once_at_parse(monkeypatch, capsys):
    calls = []
    original = rd.linalg.is_unitary

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(rd.linalg, "is_unitary", counted)
    assert main(["predict", "--scenario", fixture("predict_identity.json")]) == 0
    assert len(calls) == 1
    assert main(["predict", "--scenario", fixture("bad_nonunitary.json")]) == 3
    assert "non-unitary-matrix" in capsys.readouterr().err


def _predict_identity_with(tmp_path, **fields):
    doc = {**json.loads(Path(fixture("predict_identity.json")).read_text()), **fields}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


# A bare JSON scalar is the outcome of the one factor.
@pytest.mark.parametrize("outcome", [[1], [1.0], ["1"], 1, 1.0, "1"])
def test_integral_outcomes_read_as_that_outcome(tmp_path, capsys, outcome):
    path = _predict_identity_with(tmp_path, given={"input": outcome})
    assert main(["predict", "--scenario", path, "--format", "json"]) == 0
    (table,) = json.loads(capsys.readouterr().out)["tables"]
    assert table["given"] == "1"
    assert table["entries"] == {"0": 0.0, "1": 1.0}


@pytest.mark.parametrize("outcome", [[1.7], [0.5], [True], [False], 1.5, True])
def test_boolean_and_non_integral_outcomes_exit_2(tmp_path, capsys, outcome):
    path = _predict_identity_with(tmp_path, given={"input": outcome})
    assert main(["predict", "--scenario", path]) == 2
    assert "given.input" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["false", "true", 1, 0, None])
def test_mask_entries_must_be_json_booleans(tmp_path, capsys, entry):
    path = _predict_identity_with(tmp_path, known_input_mask=[entry])
    assert main(["predict", "--scenario", path]) == 2
    assert "known_input_mask" in capsys.readouterr().err


# Every command but classify, on the fixtures; each must exit 0.
NO_CHOI_RUNS = [
    ["predict", "--scenario", fixture("predict_identity.json"), "--format", "json"],
    ["postdict", "--scenario", fixture("postdict_amplitude_damping.json"), "--format", "json"],
    ["purify", "--scenario", fixture("purify_amplitude_damping.json"), "--format", "json"],
    ["purify", "--scenario", fixture("purify_amplitude_damping_instrument.json"), "--format", "json"],
    ["sample", "--scenario", fixture("sample_hadamard.json"), "--shots", "2000", "--format", "json"],
    ["verify", "--scenario", fixture("verify_small.json"), "--format", "json"],
]


def test_channel_checks_never_build_the_choi_matrix(monkeypatch, capsys):
    # a Kraus-form map is CP by construction: only classify's report reads the Choi spectrum
    def run_all():
        outputs = []
        for argv in NO_CHOI_RUNS:
            outputs.append((main(argv), capsys.readouterr().out))
        return outputs

    expected = run_all()
    assert all(code == 0 for code, _ in expected)

    def no_choi(qmap):
        raise AssertionError("the Choi matrix is built for classify's report only")

    monkeypatch.setattr(channels, "choi_matrix", no_choi)
    assert run_all() == expected
    channel = rd.amplitude_damping(0.5)
    rd.stinespring(channel)
    task = rd.InferenceTask(channel, (2,), (2,), "postdict", (True,), (True,), given_output=(0,))
    assert rd.solve(task)["0"] == pytest.approx(2 / 3, abs=1e-12)
    doc = json.loads(Path(fixture("postdict_amplitude_damping.json")).read_text())
    assert isinstance(parse_scenario_dict(doc).transformation, rd.QuantumMap)


def test_classify_reports_the_choi_spectrum(capsys):
    assert main(["classify", "--scenario", fixture("classify_dephasing.json"), "--format", "json"]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    channel = parse_scenario(fixture("classify_dephasing.json")).transformation
    assert metrics["cp"] is True
    assert metrics["choi_min_eigenvalue"] == float(np.linalg.eigvalsh(rd.choi_matrix(channel)).min())


# classify's fixtures, and maps of every kind written to a scenario: a unitary, channels and an instrument.
CLASSIFY_CASES = {
    **{name: name for name in ("classify_dephasing", "classify_nearly_unital", "classify_trace_2_to_1")},
    "unitary": lambda: rd.linalg.haar_random_unitary(3, 5),
    "dephasing": channels.make_dephasing,
    "amplitude-damping": lambda: channels.amplitude_damping(0.3),
    "noisy": lambda: channels.make_noisy_operation(rd.linalg.haar_random_unitary(4, 6), (2, 2)),
    "instrument": lambda: channels.random_instrument(3, 2, 2, 7),
}


@pytest.mark.parametrize("case", CLASSIFY_CASES)
def test_classify_reads_its_three_verdicts_as_the_library_does(tmp_path, capsys, case):
    made = CLASSIFY_CASES[case]
    if isinstance(made, str):
        path = fixture(f"{made}.json")
    else:
        transformation = made()
        if isinstance(transformation, np.ndarray):
            dims_in = dims_out = transformation.shape[:1]
        else:
            dims_in, dims_out = (transformation.dim_in,), (transformation.dim_out,)
        scenario = ScenarioFile(
            task="classify", dims_in=dims_in, dims_out=dims_out, transformation=transformation,
            preparation_states=None, given_input=(None,), given_output=(None,), given_outcome=None,
            known_input_mask=(True,), known_output_mask=(True,), shots=None, seed=None,
        )
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_dict(scenario)))
    assert main(["classify", "--scenario", str(path), "--format", "json"]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    transformation = parse_scenario(path).transformation
    if isinstance(transformation, np.ndarray):
        channel = rd.QuantumMap((transformation,), len(transformation), len(transformation))
    elif isinstance(transformation, rd.Instrument):
        channel = channels.coarse_grain(transformation)
    else:
        channel = transformation
    symmetric = rd.is_inference_symmetric(channel)
    reversible = channels.is_trace_preserving(channels.adjoint_map(channel))
    assert metrics["unital"] is metrics["inference_symmetric"] is symmetric is reversible
    assert metrics["active_reverse"] == ("exists" if reversible else "none")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_a_closed_pipe_keeps_the_exit_code_in_process(monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["verify", "--dims", "2", "2", "--format", "json"]) == 0


def test_a_closed_pipe_keeps_the_exit_code_without_a_traceback():
    argv = [sys.executable, "-m", "retrodict", "verify", "--dims", "2", "2", "--format", "json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env()) as proc:
        proc.stdout.close()  # the reader is gone before the child has written a byte
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0
    assert err == ""


def _counted_verify(monkeypatch, capsys, dims):
    # every operand is_unitary checks, keyed by its bytes, and the number of transition arrays built
    from retrodict import inference, linalg

    checked: dict[bytes, int] = {}
    built = []
    is_unitary, transitions = linalg.is_unitary, inference._transitions

    def counted_is_unitary(m, *args, **kwargs):
        m = np.asarray(m)
        key = str(m.shape).encode() + np.ascontiguousarray(m).tobytes()
        checked[key] = checked.get(key, 0) + 1
        return is_unitary(m, *args, **kwargs)

    def counted_transitions(*args, **kwargs):
        built.append(1)
        return transitions(*args, **kwargs)

    monkeypatch.setattr(linalg, "is_unitary", counted_is_unitary)
    monkeypatch.setattr(inference, "_transitions", counted_transitions)
    assert main(["verify", "--dims", *map(str, dims), "--format", "json"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    return checked, len(built)


def test_verify_checks_each_operand_once(monkeypatch, capsys):
    checked, _ = _counted_verify(monkeypatch, capsys, (4, 4))
    assert max(checked.values()) == 1
    # the five pooled D x D unitaries inside open_reversal_check and one
    # d_A x d_A in four_task_check; the noisy channels come from pool draws
    # already checked there, and verify's own Haar draws go unchecked
    assert len(checked) == 6


def test_verify_draws_its_d_by_d_pool_once(monkeypatch, capsys):
    from retrodict import linalg

    calls = []
    draw = linalg.haar_random_unitaries

    def counted(d, seeds):
        calls.append((d, list(seeds)))
        return draw(d, seeds)

    monkeypatch.setattr(linalg, "haar_random_unitaries", counted)
    assert main(["verify", "--dims", "2", "3", "--format", "json"]) == 0
    capsys.readouterr()
    # only the pool has dimension D = 6 at these dims: seeds 1000..1004 of the
    # default seed 1, drawn in one call and shared by every check that uses them
    assert [seeds for d, seeds in calls if d == 6] == [list(range(1000, 1005))]
    assert any(d != 6 for d, _ in calls)


@pytest.mark.parametrize("d_a, d_b", [(1, 1), (3, 2), (2, 7)])
def test_verify_draws_its_instruments_and_small_maps_as_the_random_constructors_do(monkeypatch, capsys, d_a, d_b):
    # each stacked draw bit for bit the object it replaced, at the default seed 1
    seen = {}

    def recording(name, check):
        def recorded(*args):
            seen.setdefault(name, []).append(args)
            return check(*args)

        monkeypatch.setattr(rd.inference, name, recorded)

    for name in ("_no_signalling_stack", "channel_toward_past_check", "_deterministic_effect_stack"):
        recording(name, getattr(rd.inference, name))
    assert main(["verify", "--dims", str(d_a), str(d_b), "--format", "json"]) == 0
    capsys.readouterr()

    def operators(inst):
        return np.concatenate([qmap.kraus for _, qmap in inst.outcomes])

    [(e, f, states, followers)] = seen["_no_signalling_stack"]
    for t in range(3):
        assert e[t].tobytes() == operators(channels.random_instrument(d_a, 2, 2, 1070 + t)).tobytes()
        assert f[t].tobytes() == operators(channels.random_instrument(d_a, 2, 2, 1080 + t)).tobytes()
        assert followers[t].tobytes() == rd.inference._random_followers(d_a, 2, 2, 1000 + t).tobytes()
    assert states.tobytes() == rd.linalg.random_density_matrices(d_a, range(1090, 1093)).tobytes()
    # towards-past's one map, then deterministic-effect's three in one stacked call
    [(past_map,)] = seen["channel_toward_past_check"][1:]
    [(effect_maps,)] = seen["_deterministic_effect_stack"]
    for kraus, seed in zip([past_map.kraus, *effect_maps], [1060, 1097, 1098, 1099], strict=True):
        assert kraus.tobytes() == channels.random_cptp_map(d_a, d_a, 2, seed).kraus.tobytes()


def test_verify_builds_as_many_transition_arrays_whatever_d_a(monkeypatch, capsys):
    _, small = _counted_verify(monkeypatch, capsys, (2, 2))
    _, large = _counted_verify(monkeypatch, capsys, (5, 5))
    assert small == large


# ---------------------------------------------------------------------------
# Any document: a table or a documented exit code, never a traceback
# ---------------------------------------------------------------------------

_LEAVES = (
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-2, 2) | st.text("01ab ·", max_size=3)
    | st.sampled_from(["unitary", "kraus-channel", "instrument", "basis", "states", *TASKS, 2**62, 2**64, 1e300])
)
# Wrong types at any depth: small values, so that a document that still parses stays small.
_JUNK = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("abiknopst_", max_size=8), inner, max_size=3),
    max_leaves=8,
)


def _paths(value, path=()):
    # the path to every value of a document, the document's own () first
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


@st.composite
def _documents(draw):
    """A valid scenario with matrices of at most 4 x 4, then up to three values replaced by junk or deleted."""
    dims = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=2)))
    total, seed = math.prod(dims), draw(st.integers(0, 50))
    kind = draw(st.sampled_from(["unitary", "states", "kraus-channel", "instrument"]))
    transformation = (
        rd.linalg.haar_random_unitary(total, seed) if kind in ("unitary", "states")
        else channels.random_cptp_map(total, total, 2, seed) if kind == "kraus-channel"
        else channels.random_instrument(total, 2, 1, seed)
    )

    def givens():
        return tuple(draw(st.tuples(*(st.none() | st.integers(0, d - 1) for d in dims))))

    def mask():
        return tuple(draw(st.lists(st.booleans(), min_size=len(dims), max_size=len(dims))))

    doc = scenario_to_dict(
        ScenarioFile(
            task=draw(st.sampled_from(TASKS)),
            dims_in=dims,
            dims_out=dims,
            transformation=transformation,
            preparation_states=(random_pure_state(total, seed),) if kind == "states" else None,
            given_input=givens(),
            given_output=givens(),
            given_outcome=draw(st.sampled_from([None, "0", "1"])) if kind == "instrument" else None,
            known_input_mask=mask(),
            known_output_mask=mask(),
            shots=draw(st.none() | st.integers(0, 200)),
            seed=draw(st.none() | st.integers(0, 2**64 + 1)),
        )
    )
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(_JUNK)
            continue
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        if draw(st.booleans()):
            parent[path[-1]] = draw(_JUNK)
        else:
            del parent[path[-1]]
    return doc


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(TASKS), _documents())
def test_any_scenario_document_exits_with_a_documented_code(command, doc):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "scenario.json"
        path.write_text(json.dumps(doc))  # orjson would refuse the seeds of 2**64 and more
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--scenario", str(path), "--format", "json"])
    assert code in (0, 2, 3, 4, 5)
