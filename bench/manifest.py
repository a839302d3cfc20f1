"""The benchmark's fixed description: workloads and metrics, as BENCHMARK.json states them."""

from __future__ import annotations

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 20

WORKLOADS = [
    {"name": "verify-sweep",
     "why": "the paper's identity suite at dims 2x2..6x6: dilation, column completion and the open-system tables"},
    {"name": "sample-shots",
     "why": "narrow scenarios at many shots: the sampler's per-trial counting loop does nearly all the work"},
    {"name": "sample-wide",
     "why": "open unitaries of dimension 64 and 128 at a few thousand shots: per-alternative set-up and parsing"},
    {"name": "scenario-solve",
     "why": "predict, postdict, classify and purify on generated files: parsing, digesting and validation"},
]

# (name, unit, better, bound).  Every workload reports every metric; what an
# operation and a round are depends on the workload (see README.md).  The
# bounds are wide because the reference machine's speed drifts: even scaled
# (speed.py), ten-run spreads reached 0.11 (README.md).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("round_s", "s", "lower", 0.2),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("op_ms.p50", "ms", "lower", 0.2),
    ("op_ms.p90", "ms", "lower", 0.25),
]

PER_LAYER = [
    ("serialize.parse_scenario.self_s", "s", "lower"),
    ("serialize.parse_scenario_dict.calls", "count", "lower"),
    ("serialize.scenario_to_dict.self_s", "s", "lower"),
    ("serialize.scenario_digest.self_s", "s", "lower"),
    ("serialize.table_to_wire.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("linalg.is_unitary.calls", "count", "lower"),
    ("linalg.is_unitary.self_s", "s", "lower"),
    ("linalg.is_unitary.repeat_ratio", "ratio", "lower"),
    ("channels.classify.calls", "count", "lower"),
    ("channels.classify.self_s", "s", "lower"),
    ("channels.classify.repeat_ratio", "ratio", "lower"),
    ("channels.apply.self_s", "s", "lower"),
    ("inference.predict_open.calls", "count", "lower"),
    ("inference.predict_open.self_s", "s", "lower"),
    ("inference.postdict_open.calls", "count", "lower"),
    ("inference.postdict_open.self_s", "s", "lower"),
    ("inference.postdict_channel.self_s", "s", "lower"),
    ("inference.solve.calls", "count", "lower"),
    ("inference.solve.self_s", "s", "lower"),
    ("linalg.partial_trace.self_s", "s", "lower"),
    ("linalg.tensor.self_s", "s", "lower"),
    ("inference.open_reversal_check.self_s", "s", "lower"),
    ("inference.no_signalling_check.self_s", "s", "lower"),
    ("inference.is_inference_symmetric.self_s", "s", "lower"),
    ("purify.stinespring.calls", "count", "lower"),
    ("purify.stinespring.self_s", "s", "lower"),
    ("purify.stinespring.repeat_ratio", "ratio", "lower"),
    ("purify.verify_purification.self_s", "s", "lower"),
    ("linalg.complete_to_unitary.calls", "count", "lower"),
    ("linalg.complete_to_unitary.self_s", "s", "lower"),
    ("linalg.haar_random_unitary.self_s", "s", "lower"),
    ("sampler.trial_uniforms.self_s", "s", "lower"),
    ("sampler.run_ensemble.self_s", "s", "lower"),
    ("sampler.empirical_conditionals.self_s", "s", "lower"),
    ("sampler.compare.calls", "count", "lower"),
    ("sampler.cdf_build.self_s", "s", "lower"),
    ("tables.ProbabilityTable.calls", "count", "lower"),
    ("tables.ProbabilityTable.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.bookkeeping_s", "s", "lower"),
]


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
