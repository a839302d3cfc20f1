import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retrodict as rd
from retrodict import channels
from retrodict.cli import main
from retrodict.serialize import matrix_to_wire, parse_scenario, parse_scenario_dict

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


def test_verify_fixture_passes(capsys):
    code = main(["verify", "--scenario", fixture("verify_small.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out


def test_verify_flags_only(capsys):
    code = main(["verify", "--seed", "1", "--dims", "2", "2"])
    assert code == 0


def test_verify_is_deterministic(capsys):
    main(["verify", "--seed", "3", "--dims", "2", "2", "--format", "json"])
    first = json.loads(capsys.readouterr().out)
    main(["verify", "--seed", "3", "--dims", "2", "2", "--format", "json"])
    second = json.loads(capsys.readouterr().out)
    assert first == second


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


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda path: path.name)
def test_every_command_on_every_fixture_exits_with_a_documented_code(capsys, command, path):
    assert main([command, "--scenario", str(path)]) in {0, 2, 3, 4, 5}


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


def test_sample_builds_transition_arrays_once_per_ensemble(monkeypatch, capsys):
    # one build to solve every row, one per direction inside run_ensemble
    import retrodict.inference as inference

    calls = []
    original = inference._transitions

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(inference, "_transitions", counted)
    assert main(["sample", "--scenario", fixture("sample_hadamard.json"), "--shots", "2000"]) == 0
    assert len(calls) == 3


@pytest.mark.parametrize("mask", ["known_input_mask", "known_output_mask"])
def test_sample_rejects_a_task_that_guesses_nothing_before_drawing(tmp_path, monkeypatch, capsys, mask):
    def never(*args):
        raise AssertionError("no trial may run for a task that guesses nothing")

    monkeypatch.setattr(rd.cli, "run_ensemble", never)
    doc = {**json.loads(Path(fixture("sample_hadamard.json")).read_text()), mask: [False]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["sample", "--scenario", str(path)]) == 3
    assert capsys.readouterr().err == "error [validation]: at least one factor must be guessed\n"


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
    assert checked
    assert max(checked.values()) == 1


def test_verify_builds_as_many_transition_arrays_whatever_d_a(monkeypatch, capsys):
    _, small = _counted_verify(monkeypatch, capsys, (2, 2))
    _, large = _counted_verify(monkeypatch, capsys, (5, 5))
    assert small == large
