import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from retrodict import linalg, sampler
from retrodict.channels import (
    amplitude_damping,
    identity_channel,
    make_dephasing,
    random_cptp_map,
    random_instrument,
)
from retrodict.errors import UndefinedConditionalError
from retrodict.inference import (
    InferenceTask,
    _row_table,
    _solve_rows,
    _transitions,
    postdict_channel,
    postdict_general_prep,
    postdict_open,
    predict_channel,
    predict_closed,
    predict_open,
    solve,
)
from retrodict.sampler import (
    CHUNK_TRIALS,
    EnsembleResult,
    _grouped_inverse_cdf,
    _padded_cumsum,
    compare,
    empirical_conditional,
    empirical_conditionals,
    run_ensemble,
    trial_uniforms,
)
from retrodict.tables import ProbabilityTable, join_labels

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def closed_task(u):
    d = u.shape[0]
    return InferenceTask(
        transformation=u,
        dims_in=(d,),
        dims_out=(d,),
        direction="predict",
        known_input_mask=(True,),
        known_output_mask=(True,),
    )


def channel_task(channel):
    return InferenceTask(
        transformation=channel,
        dims_in=(channel.dim_in,),
        dims_out=(channel.dim_out,),
        direction="predict",
        known_input_mask=(True,),
        known_output_mask=(True,),
    )


def test_identity_channel_only_diagonal_cells():
    result = run_ensemble(channel_task(identity_channel(2)), 1000, 1)
    assert set(result.joint_counts) <= {("0", "0"), ("1", "1")}
    assert sum(result.joint_counts.values()) == 1000


def test_trial_uniforms_are_reproducible_blocks():
    a = trial_uniforms(9, 10)
    b = trial_uniforms(9, 10)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (10, 3)
    assert np.all((0.0 <= a) & (a < 1.0))


def test_hadamard_joint_cells_near_quarter():
    result = run_ensemble(closed_task(HADAMARD), 100_000, 7)
    for cell in (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")):
        assert abs(result.joint_counts[cell] / 100_000 - 0.25) < 0.01


def test_amplitude_damping_prediction_frequency():
    result = run_ensemble(channel_task(amplitude_damping(0.5)), 100_000, 11)
    row = empirical_conditional(result, "predict", "1")
    assert abs(row["0"] - 0.5) < 0.01
    assert row.max_difference(predict_channel(amplitude_damping(0.5), 1)) < 0.01


def test_counts_are_bit_identical_for_fixed_seed():
    task = closed_task(HADAMARD)
    first = run_ensemble(task, 5000, 3)
    second = run_ensemble(task, 5000, 3)
    assert first.joint_counts == second.joint_counts


def test_frozen_counts_snapshot():
    # pinned stream: Philox key 7, three slots per trial
    result = run_ensemble(closed_task(HADAMARD), 100, 7)
    assert result.joint_counts == {
        ("0", "0"): 21,
        ("0", "1"): 31,
        ("1", "0"): 25,
        ("1", "1"): 23,
    }


def test_conditionals_of_deterministic_ensemble_are_delta():
    result = run_ensemble(channel_task(identity_channel(2)), 2000, 5)
    for direction in ("predict", "postdict"):
        for given, row in empirical_conditionals(result, direction).items():
            assert row[given] == 1.0


def test_hadamard_conditionals_both_directions():
    result = run_ensemble(closed_task(HADAMARD), 100_000, 13)
    for direction in ("predict", "postdict"):
        for row in empirical_conditionals(result, direction).values():
            assert abs(row["0"] - 0.5) < 0.01
            assert abs(row["1"] - 0.5) < 0.01


def test_amplitude_damping_postdiction_frequency():
    result = run_ensemble(channel_task(amplitude_damping(0.5)), 100_000, 17)
    row = empirical_conditional(result, "postdict", "0")
    analytic = postdict_channel(amplitude_damping(0.5), 0)
    assert row.max_difference(analytic) < 0.015


def test_empty_conditioning_cell_raises():
    result = run_ensemble(channel_task(identity_channel(2)), 100, 19)
    with pytest.raises(UndefinedConditionalError):
        empirical_conditional(result, "predict", "7")


def test_open_system_task_frequencies():
    # CNOT with known control input and guessed control output
    task = InferenceTask(
        transformation=CNOT,
        dims_in=(2, 2),
        dims_out=(2, 2),
        direction="predict",
        known_input_mask=(True, False),
        known_output_mask=(True, True),
    )
    result = run_ensemble(task, 50_000, 23)
    pre = empirical_conditional(result, "predict", "0")
    analytic = predict_open(CNOT, (2, 2), (2, 2), (0, None), (True, True))
    assert compare(pre, analytic, 50_000).passed
    post = empirical_conditional(result, "postdict", "0·0")
    analytic_post = postdict_open(CNOT, (2, 2), (2, 2), (0, 0), (True, False))
    assert compare(post, analytic_post, 50_000).passed


def test_general_prep_task_frequencies():
    states = (linalg.basis_ket(2, 0), np.array([1, 1], dtype=complex) / np.sqrt(2))
    task = InferenceTask(
        transformation=np.eye(2, dtype=complex),
        dims_in=(2,),
        dims_out=(2,),
        direction="postdict",
        known_input_mask=(True,),
        known_output_mask=(True,),
        preparation_states=states,
    )
    result = run_ensemble(task, 100_000, 29)
    row = empirical_conditional(result, "postdict", "0")
    analytic = postdict_general_prep(states, np.eye(2, dtype=complex), 0)
    assert row.max_difference(analytic) < 0.015


def test_marginal_consistency_of_uniform_preparation():
    shots = 100_000
    result = run_ensemble(closed_task(HADAMARD), shots, 31)
    bound = 4 * np.sqrt(0.5 * 0.5 / shots)
    for a in ("0", "1"):
        marginal = sum(n for (i, _), n in result.joint_counts.items() if i == a) / shots
        assert abs(marginal - 0.5) < bound


def test_ensemble_result_checks_total():
    with pytest.raises(ValueError):
        EnsembleResult(joint_counts={("0", "0"): 3}, shots=4, seed=0)


def test_compare_table_with_itself():
    table = predict_closed(HADAMARD, 0)
    report = compare(table, table, 1000)
    assert report.passed and report.max_deviation == 0.0


def test_compare_passes_binomial_bound():
    result = run_ensemble(closed_task(HADAMARD), 100_000, 37)
    row = empirical_conditional(result, "predict", "0")
    assert compare(row, predict_closed(HADAMARD, 0), 100_000).passed


def test_compare_detects_swapped_labels():
    analytic = predict_channel(amplitude_damping(0.9), 1)
    swapped = ProbabilityTable(
        {"0": analytic["1"], "1": analytic["0"]}, given="1", direction="predict"
    )
    assert not compare(swapped, analytic, 100_000).passed


def test_compare_rejects_unknown_labels():
    table = predict_closed(HADAMARD, 0)
    alien = ProbabilityTable({"a": 0.5, "b": 0.5})
    with pytest.raises(ValueError):
        compare(alien, table, 1000)


def test_dephasing_ensemble_matches_closed_form():
    result = run_ensemble(channel_task(make_dephasing()), 50_000, 41)
    for a in ("0", "1"):
        row = empirical_conditional(result, "predict", a)
        assert compare(row, predict_channel(make_dephasing(), int(a)), 50_000).passed


def reference_counts(task, shots, seed):
    """The per-trial loop the vectorized sampler must reproduce bit for bit.

    It reads only the transition array, and builds its own labels and
    per-column CDFs from it.
    """

    def inverse_cdf(cdf, u):
        return min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), len(cdf) - 1)

    def restricted(combo, mask):
        return join_labels(*(str(label) for label, m in zip(combo, mask) if m))

    t = _transitions(task.transformation, task.preparation_states)
    outcomes = t.reshape((-1,) + t.shape[-2:])  # outcomes[k, x, a]
    n_alt = outcomes.shape[2]
    dims_in = task.dims_in if task.preparation_states is None else (n_alt,)
    in_labels = [restricted(combo, task.known_input_mask) for combo in np.ndindex(*dims_in)]
    out_labels = [restricted(combo, task.known_output_mask) for combo in np.ndindex(*task.dims_out)]
    outcome_labels = task.transformation.labels() if t.ndim == 3 else ("",)
    columns = [outcomes[:, :, a] for a in range(n_alt)]
    outcome_cdfs = [np.cumsum([column.sum() for column in alt_columns]) for alt_columns in columns]
    meas_cdfs = [[np.cumsum(column) for column in alt_columns] for alt_columns in columns]
    counts = {}
    for u_in, u_outcome, u_meas in trial_uniforms(seed, shots):
        a = min(int(u_in * n_alt), n_alt - 1)
        k = inverse_cdf(outcome_cdfs[a], u_outcome)
        x = inverse_cdf(meas_cdfs[a][k], u_meas)
        out_label = join_labels(outcome_labels[k], out_labels[x]) if outcome_labels[k] else out_labels[x]
        key = (in_labels[a], out_label)
        counts[key] = counts.get(key, 0) + 1
    return counts


# the 128-dimensional open unitary of the sample-wide benchmark, control output guessed
OPEN_8X16 = InferenceTask(
    transformation=linalg.haar_random_unitary(128, 3),
    dims_in=(8, 16),
    dims_out=(8, 16),
    direction="predict",
    known_input_mask=(True, False),
    known_output_mask=(True, True),
)


def sampling_tasks():
    states = (
        linalg.basis_ket(3, 0),
        linalg.random_pure_state(3, 2),
        np.array([1, 1, 1], dtype=complex) / np.sqrt(3),
    )
    open_task = InferenceTask(
        transformation=linalg.haar_random_unitary(16, 5),
        dims_in=(4, 4),
        dims_out=(4, 4),
        direction="predict",
        known_input_mask=(True, False),
        known_output_mask=(False, True),
    )
    state_set = InferenceTask(
        transformation=linalg.haar_random_unitary(3, 6),
        dims_in=(3,),
        dims_out=(3,),
        direction="predict",
        known_input_mask=(True,),
        known_output_mask=(True,),
        preparation_states=states,
    )
    return {
        "hadamard": closed_task(HADAMARD),
        "qutrit-channel": channel_task(random_cptp_map(3, 3, 2, 3)),
        "qutrit-instrument": channel_task(random_instrument(3, 3, 2, 4)),
        "open-4x4-masks": open_task,
        "state-set": state_set,
        "open-8x16-masks": OPEN_8X16,
    }


@pytest.mark.parametrize("name", sorted(sampling_tasks()))
@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_vectorized_counts_equal_the_per_trial_loop(name, seed):
    task = sampling_tasks()[name]
    assert run_ensemble(task, 4000, seed).joint_counts == reference_counts(task, 4000, seed)


@pytest.mark.parametrize("name", ["qutrit-instrument", "open-4x4-masks"])
@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_counts_do_not_depend_on_the_chunk_size(name, chunk, monkeypatch):
    task = sampling_tasks()[name]
    expected = reference_counts(task, 1000, 3)
    monkeypatch.setattr(sampler, "CHUNK_TRIALS", chunk)
    assert run_ensemble(task, 1000, 3).joint_counts == expected


@pytest.mark.parametrize("name", ["qutrit-instrument", "open-8x16-masks"])
def test_counts_over_several_chunks_equal_the_per_trial_loop(name):
    task = sampling_tasks()[name]
    shots = 2 * CHUNK_TRIALS + 1
    assert run_ensemble(task, shots, 5).joint_counts == reference_counts(task, shots, 5)


# rows of nonnegative weights at widths 1..300, with zeros, ties and runs of equal weights
weight_rows = st.tuples(st.integers(1, 4), st.integers(1, 300)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=st.just(0.0) | st.floats(0.0, 1e3))
)


@given(weight_rows, st.integers(0, 300), st.data())
@settings(max_examples=300, deadline=None)
def test_the_batched_search_is_a_clipped_searchsorted(weights, zero_tail, data):
    n_groups, n = weights.shape
    weights[:, n - min(zero_tail, n) :] = 0.0  # a trailing run of equal cumulative values
    u = data.draw(st.lists(st.floats(0.0, 1.0 - 2.0**-53), max_size=50)) + [0.0, 1.0 - 2.0**-53]
    groups = data.draw(st.lists(st.integers(0, n_groups - 1), min_size=len(u), max_size=len(u)))
    drawn = _grouped_inverse_cdf(np.array(groups), np.array(u), _padded_cumsum(weights), n)
    for g, u_t, got in zip(groups, u, drawn):
        row = np.cumsum(weights[g])
        assert got == min(int(np.searchsorted(row, u_t * row[-1], side="right")), n - 1)


def test_trial_uniforms_from_an_offset_are_a_slice_of_the_block():
    block = trial_uniforms(21, 60)
    for first in (1, 2, 3, 5, 6, 7, 9, 13, 22, 39):
        np.testing.assert_array_equal(trial_uniforms(21, 11, first), block[first : first + 11])


def test_ensemble_memory_is_bounded_in_shots():
    tracemalloc.start()
    try:
        result = run_ensemble(closed_task(HADAMARD), 2_000_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(result.joint_counts.values()) == 2_000_000
    assert peak < 32 * 2**20


def test_ensemble_memory_is_bounded_in_the_dimension():
    # a few T-sized arrays (T, its CDFs, the count grid) plus one chunk's working set, a few
    # times its uniforms; an array of shots x D entries would take 128 MiB
    shots = 2 * CHUNK_TRIALS + 1
    t_bytes, chunk_bytes = 8 * 128 * 128, 8 * sampler.SLOTS_PER_TRIAL * CHUNK_TRIALS
    tracemalloc.start()
    try:
        result = run_ensemble(OPEN_8X16, shots, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(result.joint_counts.values()) == shots
    assert peak < 4 * t_bytes + 8 * chunk_bytes


def _coverage_tasks():
    # a multi-outcome instrument, an open unitary with masks, a preparation-state set
    states = tuple(linalg.haar_random_unitary(2, 60 + i)[:, 0] for i in range(3))
    return [
        InferenceTask(random_instrument(3, 3, 2, 61), (3,), (3,), "predict", (True,), (True,)),
        InferenceTask(linalg.haar_random_unitary(6, 62), (2, 3), (3, 2), "predict", (True, False), (False, True)),
        InferenceTask(linalg.haar_random_unitary(2, 63), (2,), (2,), "predict", (True,), (True,), preparation_states=states),
    ]


@pytest.mark.parametrize("task", _coverage_tasks(), ids=["instrument", "open-unitary", "states"])
def test_analytic_rows_cover_every_empirical_row(task):
    t = _transitions(task.transformation, task.preparation_states)
    for direction in ("predict", "postdict"):
        directed = replace(task, direction=direction)
        family = _solve_rows(directed, t)
        empirical = empirical_conditionals(run_ensemble(directed, 4000, 64), direction)
        assert set(empirical) <= set(family[0])
        for given, row in empirical.items():
            analytic = _row_table(directed, family, family[0].index(given))
            assert analytic.given == given
            assert set(row.entries) <= set(analytic.entries)


def test_an_ignored_preparation_set_is_counted_under_one_label():
    # the kernel averages an ignored input factor, so the sampler pools its alternatives
    states = (linalg.basis_ket(2, 0), np.array([1, 1], dtype=complex) / np.sqrt(2))
    task = InferenceTask(HADAMARD, (2,), (2,), "predict", (False,), (True,), preparation_states=states)
    result = run_ensemble(task, 20000, 65)
    assert {in_label for in_label, _ in result.joint_counts} == {""}
    (row,) = empirical_conditionals(result, "predict").values()
    assert row.given == ""
    assert compare(row, solve(task), 20000).passed
