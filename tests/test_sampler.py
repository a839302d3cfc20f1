import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from retrodict import linalg, sampler
from retrodict.channels import (
    QuantumMap,
    amplitude_damping,
    make_dephasing,
    random_cptp_map,
    random_instrument,
)
from retrodict.errors import UndefinedConditionalError
from retrodict.inference import (
    InferenceTask,
    _kernel_view,
    _row_table,
    _solve_rows,
    _transitions,
    postdict_channel,
    postdict_open,
    predict_open,
    solve,
)
from retrodict.sampler import (
    CHUNK_TRIALS,
    EnsembleResult,
    _analytic_rows,
    _grouped_inverse_cdf,
    _padded_cumsum,
    compare,
    count_grid,
    empirical_conditionals,
    run_ensemble,
    trial_uniforms,
    verdicts,
)
from retrodict.tables import ProbabilityTable, join_labels

from seeded_draws import random_pure_state

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
    result = run_ensemble(channel_task(QuantumMap((np.eye(2),), 2, 2)), 1000, 1)
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
    row = empirical_conditionals(result, "predict")["1"]
    assert abs(row["0"] - 0.5) < 0.01
    assert row.max_difference(solve(replace(channel_task(amplitude_damping(0.5)), given_input=(1,)))) < 0.01


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
    result = run_ensemble(channel_task(QuantumMap((np.eye(2),), 2, 2)), 2000, 5)
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
    row = empirical_conditionals(result, "postdict")["0"]
    analytic = postdict_channel(amplitude_damping(0.5), 0)
    assert row.max_difference(analytic) < 0.015


def test_empty_conditioning_cell_is_absent():
    result = run_ensemble(channel_task(QuantumMap((np.eye(2),), 2, 2)), 100, 19)
    assert set(empirical_conditionals(result, "predict")) == {"0", "1"}


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
    pre = empirical_conditionals(result, "predict")["0"]
    analytic = predict_open(CNOT, (2, 2), (2, 2), (0, None), (True, True))
    assert compare(pre, analytic, 50_000).passed
    post = empirical_conditionals(result, "postdict")["0·0"]
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
    row = empirical_conditionals(result, "postdict")["0"]
    analytic = solve(replace(task, given_output=(0,)))
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
    table = solve(replace(closed_task(HADAMARD), given_input=(0,)))
    report = compare(table, table, 1000)
    assert report.passed and report.max_deviation == 0.0


def test_compare_passes_binomial_bound():
    result = run_ensemble(closed_task(HADAMARD), 100_000, 37)
    row = empirical_conditionals(result, "predict")["0"]
    assert compare(row, solve(replace(closed_task(HADAMARD), given_input=(0,))), 100_000).passed


def test_compare_detects_swapped_labels():
    analytic = solve(replace(channel_task(amplitude_damping(0.9)), given_input=(1,)))
    swapped = ProbabilityTable(
        {"0": analytic["1"], "1": analytic["0"]}, given="1", direction="predict"
    )
    assert not compare(swapped, analytic, 100_000).passed


def test_compare_rejects_unknown_labels():
    table = solve(replace(closed_task(HADAMARD), given_input=(0,)))
    alien = ProbabilityTable({"a": 0.5, "b": 0.5})
    with pytest.raises(ValueError):
        compare(alien, table, 1000)


def test_dephasing_ensemble_matches_closed_form():
    result = run_ensemble(channel_task(make_dephasing()), 50_000, 41)
    for a in ("0", "1"):
        row = empirical_conditionals(result, "predict")[a]
        assert compare(row, solve(replace(channel_task(make_dephasing()), given_input=(int(a),))), 50_000).passed


def reference_counts(task, shots, seed):
    """The per-trial loop the vectorized sampler must reproduce bit for bit.

    It reads only the transition array, and builds its own labels and
    per-column CDFs from it.
    """

    def inverse_cdf(cdf, u):
        return min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), len(cdf) - 1)

    def restricted(combo, mask):
        return [str(label) for label, m in zip(combo, mask) if m]

    t = _transitions(task.transformation, task.preparation_states)
    outcomes = t.reshape((-1,) + t.shape[-2:])  # outcomes[k, x, a]
    n_alt = outcomes.shape[2]
    dims_in = task.dims_in if task.preparation_states is None else (n_alt,)
    in_labels = [join_labels(*restricted(combo, task.known_input_mask)) for combo in np.ndindex(*dims_in)]
    out_parts = [restricted(combo, task.known_output_mask) for combo in np.ndindex(*task.dims_out)]
    # a multi-outcome instrument's outcome label leads its output label
    outcome_parts = [[label] for label in task.transformation.labels()] if t.ndim == 3 else [[]]
    columns = [outcomes[:, :, a] for a in range(n_alt)]
    outcome_cdfs = [np.cumsum([column.sum() for column in alt_columns]) for alt_columns in columns]
    meas_cdfs = [[np.cumsum(column) for column in alt_columns] for alt_columns in columns]
    counts = {}
    for u_in, u_outcome, u_meas in trial_uniforms(seed, shots):
        a = min(int(u_in * n_alt), n_alt - 1)
        k = inverse_cdf(outcome_cdfs[a], u_outcome)
        x = inverse_cdf(meas_cdfs[a][k], u_meas)
        key = (in_labels[a], join_labels(*outcome_parts[k], *out_parts[x]))
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
        random_pure_state(3, 2),
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


# 20 001 shots: two full chunks of 8192 and a ragged third, or one ragged chunk of 65536;
# chunks of 1 and 7 keep to 1000 shots, since each chunk is one pass of the loop
CHUNK_SHOTS = [(1, 1000), (7, 1000), (1000, 20_001), (8192, 20_001), (65536, 20_001)]


@pytest.mark.parametrize("name", ["qutrit-instrument", "open-4x4-masks"])
@pytest.mark.parametrize("chunk, shots", CHUNK_SHOTS, ids=[str(chunk) for chunk, _ in CHUNK_SHOTS])
def test_counts_do_not_depend_on_the_chunk_size(name, chunk, shots, monkeypatch):
    task = sampling_tasks()[name]
    expected = reference_counts(task, shots, 3)
    monkeypatch.setattr(sampler, "CHUNK_TRIALS", chunk)
    assert run_ensemble(task, shots, 3).joint_counts == expected


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
    cdfs = _padded_cumsum(weights)
    drawn = _grouped_inverse_cdf(np.array(groups), np.array(u), cdfs, cdfs[:, n - 1].copy())
    for g, u_t, position in zip(groups, u, drawn):
        # the flat position is row g's start plus the unclipped index
        row, index = np.cumsum(weights[g]), position - g * cdfs.shape[1]
        assert 0 <= index < cdfs.shape[1]
        assert min(index, n - 1) == min(int(np.searchsorted(row, u_t * row[-1], side="right")), n - 1)


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


@pytest.mark.parametrize("name", ["hadamard", "open-4x4-masks"])
def test_a_chunk_fits_a_cores_cache(name):
    # one chunk's uniforms, alternatives, search positions and targets, about 100 bytes a
    # trial, under half of a core's 2 MiB L2
    task = sampling_tasks()[name]
    tracemalloc.start()
    try:
        grid = count_grid(task, 1_000_000, 1)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.sum() == 1_000_000
    assert peak < 2**20


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
    # a multi-outcome instrument, an open unitary with masks, a preparation-state set, a channel
    states = tuple(linalg.haar_random_unitary(2, 60 + i)[:, 0] for i in range(3))
    return [
        InferenceTask(random_instrument(3, 3, 2, 61), (3,), (3,), "predict", (True,), (True,)),
        InferenceTask(linalg.haar_random_unitary(6, 62), (2, 3), (3, 2), "predict", (True, False), (False, True)),
        InferenceTask(linalg.haar_random_unitary(2, 63), (2,), (2,), "predict", (True,), (True,), preparation_states=states),
        InferenceTask(random_cptp_map(3, 2, 2, 64), (3,), (2,), "predict", (True,), (True,)),
    ]


COVERAGE_IDS = ["instrument", "open-unitary", "states", "channel"]


@pytest.mark.parametrize("task", _coverage_tasks(), ids=COVERAGE_IDS)
def test_counts_do_not_depend_on_the_direction(task):
    # the sample command draws one ensemble and reads it both ways
    predicted = run_ensemble(replace(task, direction="predict"), 4000, 66)
    postdicted = run_ensemble(replace(task, direction="postdict"), 4000, 66)
    assert predicted.joint_counts == postdicted.joint_counts


@pytest.mark.parametrize("task", _coverage_tasks(), ids=COVERAGE_IDS)
def test_analytic_rows_cover_every_empirical_row(task):
    t = _transitions(task.transformation, task.preparation_states)
    for direction in ("predict", "postdict"):
        directed = replace(task, direction=direction)
        family = _solve_rows(_kernel_view(directed), t)
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


@pytest.mark.parametrize("first", [0, 1, 2, 3, 5, 65535, 65536, 65537])
def test_trial_uniforms_are_the_raw_philox_words_shifted_and_scaled(first):
    shots = 6
    raw = np.random.Philox(key=np.uint64(77)).random_raw(3 * (first + shots))[3 * first :]
    expected = ((raw >> np.uint64(11)).astype(np.float64) * 2.0**-53).reshape(shots, 3)
    np.testing.assert_array_equal(trial_uniforms(77, shots, first), expected)


def _grid_tasks():
    # a unitary, a channel, a preparation-state set and a multi-outcome instrument
    states = (linalg.basis_ket(3, 1), random_pure_state(3, 70), random_pure_state(3, 71))
    return [
        closed_task(linalg.haar_random_unitary(3, 72)),
        channel_task(random_cptp_map(3, 2, 3, 73)),
        InferenceTask(linalg.haar_random_unitary(3, 74), (3,), (3,), "predict", (True,), (True,), preparation_states=states),
        channel_task(random_instrument(2, 3, 3, 75)),
    ]


GRID_IDS = ["unitary", "channel", "states", "instrument"]


@pytest.mark.parametrize("task", _grid_tasks(), ids=GRID_IDS)
def test_the_count_grid_read_as_a_dict_is_the_ensemble(task):
    in_labels, out_labels, grid = count_grid(task, 3000, 76)
    assert grid.dtype == np.int64 and grid.shape == (len(in_labels), len(out_labels))
    assert grid.sum() == 3000
    counts = {
        (in_label, out_label): int(n)
        for in_label, row in zip(in_labels, grid)
        for out_label, n in zip(out_labels, row)
        if n
    }
    assert counts == run_ensemble(task, 3000, 76).joint_counts == reference_counts(task, 3000, 76)


factor_lists = st.lists(st.integers(1, 5), min_size=1, max_size=2)


@st.composite
def kernel_tasks(draw):
    """A unitary, a channel, a 2- or 3-outcome instrument or a preparation-state set, factors of 1-5, random masks."""
    kind = draw(st.sampled_from(["unitary", "channel", "instrument-2", "instrument-3", "states"]))
    seed = draw(st.integers(0, 2**32 - 1))
    dims_in = draw(factor_lists)
    d_in = int(np.prod(dims_in))
    dims_out = dims_in[::-1]
    states = None
    if kind == "channel":
        dims_out = draw(factor_lists)
        d_out = int(np.prod(dims_out))
        transformation = random_cptp_map(d_in, d_out, -(-d_in // d_out) + draw(st.integers(0, 2)), seed)
    elif kind.startswith("instrument"):
        transformation = random_instrument(d_in, int(kind[-1]), draw(st.integers(1, 2)), seed)
    else:
        transformation = linalg.haar_random_unitary(d_in, seed)
    if kind == "states":
        dims_in, dims_out = (d_in,), (d_in,)
        states = tuple(random_pure_state(d_in, seed + i) for i in range(draw(st.integers(1, 5))))
    n_in = 1 if states is not None else len(dims_in)
    masks = [tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n))) for n in (n_in, len(dims_out))]
    return InferenceTask(transformation, tuple(dims_in), tuple(dims_out), "predict", *masks, preparation_states=states)


# at 7 trials a chunk is 21 words, so chunks straddle Philox's 4-word blocks
@given(kernel_tasks(), st.integers(0, 2**64 - 1), st.integers(1, 200), st.sampled_from([1, 3, 7, 64]))
@settings(max_examples=200, deadline=None, database=None)
def test_the_count_grid_is_the_per_trial_loop(task, seed, shots, chunk):
    # run_ensemble is count_grid read as a dict
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler, "CHUNK_TRIALS", chunk)
        counts = run_ensemble(task, shots, seed).joint_counts
    assert counts == reference_counts(task, shots, seed)


def test_an_ensemble_keys_one_philox_stream(monkeypatch):
    keyed = []
    original = np.random.Philox

    def counted(*args, **kwargs):
        keyed.append(kwargs.get("key"))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    monkeypatch.setattr(sampler, "CHUNK_TRIALS", 7)
    assert count_grid(_grid_tasks()[3], 100, 79)[2].sum() == 100
    assert keyed == [79]


@pytest.mark.parametrize("task", _coverage_tasks() + _grid_tasks(), ids=COVERAGE_IDS + GRID_IDS)
def test_the_grid_labels_are_the_families_given_labels(task):
    in_labels, out_labels, _ = count_grid(task, 10, 77)
    t = _transitions(task.transformation, task.preparation_states)
    predicted, postdicted = (
        _solve_rows(_kernel_view(replace(task, direction=direction)), t) for direction in ("predict", "postdict")
    )
    assert (predicted[:2], predicted[3]) == ((in_labels, out_labels), False)
    assert (postdicted[:2], postdicted[3]) == ((out_labels, in_labels), True)


@pytest.mark.parametrize("task, searches", zip(_grid_tasks(), [1, 1, 1, 2]), ids=GRID_IDS)
def test_a_single_outcome_stage_draws_nothing(task, searches, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _grouped_inverse_cdf(*args)

    monkeypatch.setattr(sampler, "_grouped_inverse_cdf", counted)
    monkeypatch.setattr(sampler, "CHUNK_TRIALS", 400)
    assert run_ensemble(task, 1000, 78).joint_counts == reference_counts(task, 1000, 78)
    assert len(calls) == 3 * searches


def _row_by_row(frequencies, p, trials, floor):
    """The per-row, cell-by-cell comparison the array verdicts must reproduce."""
    out = []
    for f_row, p_row, n in zip(frequencies.tolist(), p.tolist(), trials.tolist()):
        defect, worst, failing, bounds = 0.0, None, [], []
        for c, (f, q) in enumerate(zip(f_row, p_row)):
            bound = max(floor, 4.0 * np.sqrt(max(q * (1.0 - q), 0.0) / n))
            deviation = abs(f - q)
            bounds.append(bound)
            if deviation > defect:
                defect, worst = deviation, c
            if deviation > bound:
                failing.append(c)
        reported = failing[0] if failing else worst
        out.append((defect, floor if reported is None else bounds[reported], not failing))
    return out


@st.composite
def sampled_rows(draw):
    n_rows, n_cells = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    counts = draw(hnp.arrays(np.int64, (n_rows, n_cells), elements=st.integers(0, 40)))
    counts[:, 0] += counts.sum(axis=1) == 0  # every compared row was sampled
    trials = counts.sum(axis=1)
    frequencies = counts / trials[:, None]
    p = np.empty_like(frequencies)
    for r in range(n_rows):
        kind = draw(st.sampled_from(["exact", "certain", "mirrored", "random"]))
        if kind == "exact":  # every deviation 0
            p[r] = frequencies[r]
        elif kind == "certain":  # p in {0, 1}
            p[r] = draw(hnp.arrays(np.float64, n_cells, elements=st.sampled_from([0.0, 1.0])))
        elif kind == "mirrored":  # deviations tied across cells
            d = draw(st.sampled_from([0.0, 0.01, 0.125, 0.5]))
            signs = draw(hnp.arrays(np.float64, n_cells, elements=st.sampled_from([-1.0, 1.0])))
            p[r] = np.clip(frequencies[r] + signs * d, 0.0, 1.0)
        else:
            p[r] = draw(hnp.arrays(np.float64, n_cells, elements=st.floats(0.0, 1.0)))
    floor = draw(st.sampled_from([0.0, 0.01, 0.125]) | st.floats(0.0, 0.5))
    return frequencies, p, trials, floor


@given(sampled_rows())
@settings(max_examples=400, deadline=None)
def test_the_array_verdicts_equal_the_row_by_row_comparison(rows):
    frequencies, p, trials, floor = rows
    got = verdicts(frequencies, p, trials, floor)
    assert list(zip(got.defect.tolist(), got.bound.tolist(), got.passed.tolist())) == _row_by_row(
        frequencies, p, trials, floor
    )


def test_compare_is_the_one_row_case_of_the_verdicts():
    analytic = solve(replace(channel_task(amplitude_damping(0.9)), given_input=(1,)))
    empirical = ProbabilityTable({"0": analytic["0"] + 0.08, "1": analytic["1"] - 0.08})
    report = compare(empirical, analytic, 500, floor=0.001)
    row = verdicts(empirical.probabilities()[None], analytic.probabilities()[None], np.array([500]), 0.001)
    assert report.max_deviation == row.defect[0] and report.worst_label == ("0", "1")[row.worst[0]]
    assert not report.passed and not row.passed[0]
    assert report.tolerances == dict(zip(("0", "1"), row.bounds[0].tolist()))
    assert report.tolerances[report.failures[0]] == row.bound[0]
    assert compare(analytic, analytic, 500).worst_label is None


POSTDICT_ROWS = {
    "valid": [0.25, 0.25, 0.5],
    "no-evidence": [0.0, 0.0, 0.0],
    "out-of-range": [2.0, -1.0, 0.0],
    "nan": [np.nan, 0.5, 0.5],
}


@pytest.mark.parametrize("direction", ["predict", "postdict"])
@pytest.mark.parametrize("order", [(0, 1, 2, 3), (0, 2, 1, 3), (3, 2, 1, 0), (0, 3, 2, 1), (0,)])
def test_the_analytic_rows_fail_where_the_first_failing_table_fails(direction, order):
    task = replace(channel_task(random_cptp_map(3, 3, 2, 79)), direction=direction)
    # a postdiction family's rows are normalized, a prediction family's are not
    rows = np.array(list(POSTDICT_ROWS.values()))
    family = (("g0", "g1", "g2", "g3"), ("0", "1", "2"), rows, direction == "postdict")
    rows = np.array(order)
    expected = None
    for row in order:
        try:
            _row_table(task, family, row)
        except UndefinedConditionalError:
            expected = (UndefinedConditionalError, f"cell 'g{row}' was sampled but has zero probability")
            break
        except ValueError as exc:
            expected = (ValueError, str(exc))
            break
    if expected is None:
        np.testing.assert_array_equal(_analytic_rows(family, rows), family[2][rows])
        return
    with pytest.raises(ValueError) as raised:
        _analytic_rows(family, rows)
    assert (type(raised.value), str(raised.value)) == expected
