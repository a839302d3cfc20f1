import types

import retrodict

# Every task kind is one call: solve(InferenceTask(...)).  A name added to or removed from the
# package changes one of these tuples, so the change shows in review.
PUBLIC = (
    "ChannelClassification", "DeterministicEffectReport", "FourTaskReport", "InferenceTask", "Instrument",
    "NoActiveReverseError", "NoSignallingReport", "ProbabilityTable", "Purification", "QuantumMap",
    "ScenarioError", "UndefinedConditionalError",
    "adjoint_map", "amplitude_damping", "amplitude_damping_instrument", "apply", "basis_ket", "basis_projector",
    "channel_toward_past_check", "choi_matrix", "classify", "coarse_grain", "compose_sequential",
    "deterministic_effect_check", "four_task_check", "general_prep_purified_check", "haar_random_unitary",
    "is_inference_symmetric", "is_trace_preserving", "make_dephasing", "make_noisy_operation",
    "open_reversal_check", "outcome_probabilities", "postdict_channel_via_purification",
    "projective_instrument", "purify_instrument", "random_cptp_map", "random_instrument", "rotate_ancilla",
    "solve", "state_update", "stinespring", "time_reverse", "verify_purification",
)

# Names that no library code calls but the benchmark under bench/ traces or calls.  They go once
# the benchmark no longer names them (ROADMAP items 1 and 6).
BENCHMARK_PINNED = (
    "CompareReport", "EnsembleResult", "compare", "empirical_conditionals", "no_signalling_check",
    "partial_trace", "postdict_channel", "postdict_open", "predict_open", "run_ensemble", "tensor",
)


def test_public_names_are_the_listed_ones():
    names = {name for name, value in vars(retrodict).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert not set(PUBLIC) & set(BENCHMARK_PINNED)
    assert sorted(names) == sorted(PUBLIC + BENCHMARK_PINNED)
