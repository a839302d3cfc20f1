"""Tests of the benchmark's own parts: tracer restore, oracle, inputs, manifest.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import manifest  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

import retrodict  # noqa: E402
from retrodict import channels, cli, inference, purify, serialize, tables  # noqa: E402


def _bindings():
    """Every module attribute bound to a function the tracer wraps, with its value."""
    pairs = [
        (channels, "classify"), (inference, "classify"), (serialize, "classify"), (retrodict, "classify"),
        (channels, "check_cptp"), (inference, "check_cptp"), (purify, "check_cptp"),
        (cli, "main"), (cli, "parse_scenario"), (cli, "run_ensemble"),
    ]
    return {(module.__name__, name): getattr(module, name) for module, name in pairs}


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    init = tables.ProbabilityTable.__init__
    with spans.Tracer():
        during = _bindings()
        assert all(during[key] is not before[key] for key in before)
        assert inference.classify is channels.classify is serialize.classify
        assert tables.ProbabilityTable.__init__ is not init
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    assert tables.ProbabilityTable.__init__ is init


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("inside the traced pass")
    assert _bindings() == before


def test_spans_nest_and_self_times_add_up(capsys):
    tracer = spans.Tracer()
    with tracer:
        assert cli.main(["verify", "--dims", "2", "2", "--format", "json"]) == 0
    capsys.readouterr()
    root = tracer.spans[0]
    assert root.name == "cli.main" and root.parent == -1
    assert all(0 <= s.parent < i for i, s in enumerate(tracer.spans) if i > 0)
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["purify.stinespring"]["calls"] > 0
    assert all(0.0 <= entry["repeat_ratio"] <= 1.0 for entry in summary.values())
    total = sum(entry["self_s"] for entry in summary.values())
    assert 0.0 < total <= root.end - root.start
    # Inside the root span, self times and the children's bookkeeping are all of it.
    inner = sum(s.overhead for s in tracer.spans)
    assert total + inner == pytest.approx(root.end - root.start, rel=1e-9)
    assert tracer.bookkeeping_s() == pytest.approx(inner + tracer.root_overhead)
    assert tracer.root_overhead > 0.0


def test_oracle_properties():
    checks.property_checks()


def test_oracle_open_rows_match_a_hand_computation():
    # |U|^2 of a Hadamard on the second of two qubits, first factor known.
    u = inputs.HADAMARD
    t = oracle.kraus_transition((inputs.np.kron(inputs.np.eye(2), u),))
    row = oracle.predict_row(t, (2, 2), (2, 2), (1, None), (True, True))
    assert row == pytest.approx({"0·0": 0.0, "0·1": 0.0, "1·0": 0.5, "1·1": 0.5})
    row, factor = oracle.postdict_row(t, (2, 2), (2, 2), (None, 1), (False, True))
    assert row == pytest.approx({"0": 0.5, "1": 0.5}) and factor == pytest.approx(1.0)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_inputs_depend_only_on_the_seed(tmp_path):
    fixtures = ROOT / "tests" / "fixtures"
    made = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        directory = tmp_path / label
        directory.mkdir()
        inputs.scenario_cases(seed, directory, fixtures)
        inputs.sample_shots_cases(seed, directory)
        inputs.sample_wide_cases(seed, directory)
        made[label] = _files(directory)
    assert made["a"] == made["b"]
    assert made["a"] != made["c"]
    malformed = [name for name in made["a"] if name.startswith(("malformed", "bad_"))]
    assert len(malformed) == 6
    assert all(made["a"][name] == made["c"][name] for name in malformed)


def test_benchmark_json_is_the_manifest():
    written = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert written == manifest.manifest()
