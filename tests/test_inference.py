import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrodict import inference, linalg, purify
from retrodict.channels import (
    Instrument,
    QuantumMap,
    _random_kraus_stacks,
    adjoint_map,
    amplitude_damping,
    apply,
    classify,
    coarse_grain,
    compose_sequential,
    make_dephasing,
    make_noisy_operation,
    outcome_probabilities,
    projective_instrument,
    random_cptp_map,
    random_instrument,
)
from retrodict.cli import main
from retrodict.errors import NoActiveReverseError, UndefinedConditionalError
from retrodict.inference import (
    AVERAGED,
    DATA,
    GIVEN,
    GUESSED,
    SUMMED,
    InferenceTask,
    channel_toward_past_check,
    deterministic_effect_check,
    four_task_check,
    general_prep_purified_check,
    is_inference_symmetric,
    no_signalling_check,
    open_reversal_check,
    postdict_channel,
    postdict_channel_via_purification,
    postdict_open,
    predict_open,
    solve,
    time_reverse,
)
from retrodict.purify import purify_instrument, rotate_ancilla, stinespring
from retrodict.tables import ProbabilityTable, join_labels

from seeded_draws import random_density_matrix

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def born_oracle(u, a, x):
    # direct inner product <x|U|a> via a matrix-vector product
    column = u @ linalg.basis_ket(u.shape[0], a)
    return abs(np.vdot(linalg.basis_ket(u.shape[0], x), column)) ** 2


def joint_amplitude_oracle(u, dims_in, dims_out, in_idx, out_idx):
    # |<out|U|in>|^2 with explicit flat-index arithmetic
    col = in_idx[0] * dims_in[1] + in_idx[1]
    row = out_idx[0] * dims_out[1] + out_idx[1]
    return abs(u[row, col]) ** 2


def bayes_invert(conditionals, given):
    # oracle: flat-prior Bayes inversion of forward rows P(given | a), one per alternative a
    numerators = {a: row.entries.get(given, 0.0) / len(conditionals) for a, row in conditionals.items()}
    evidence = sum(numerators.values())
    return ProbabilityTable({a: n / evidence for a, n in numerators.items()}, given=given, direction="postdict")


def basis_task(t, direction, given, states=None):
    """The one-factor task on a matrix or a map, with outcome ``given`` on its data side."""
    d_in, d_out = (t.dim_in, t.dim_out) if isinstance(t, QuantumMap) else np.shape(t)
    outcome = {"given_input" if direction == "predict" else "given_output": (given,)}
    return InferenceTask(t, (d_in,), (d_out,), direction, (True,), (True,), preparation_states=states, **outcome)


# ---------------------------------------------------------------------------
# Closed systems
# ---------------------------------------------------------------------------


def test_predict_closed_identity():
    table = solve(basis_task(np.eye(2, dtype=complex), "predict", 0))
    assert table["0"] == 1.0 and table["1"] == 0.0


def test_predict_closed_hadamard():
    table = solve(basis_task(HADAMARD, "predict", 0))
    assert table["0"] == pytest.approx(0.5, abs=1e-14)
    assert table["1"] == pytest.approx(0.5, abs=1e-14)


def test_predict_closed_haar_against_oracle():
    u = linalg.haar_random_unitary(4, 11)
    table = solve(basis_task(u, "predict", 2))
    for x in range(4):
        assert table[str(x)] == pytest.approx(born_oracle(u, 2, x), abs=1e-14)
    assert abs(table.probabilities().sum() - 1.0) < 1e-12


def test_predict_closed_rejects_non_unitary():
    with pytest.raises(ValueError):
        solve(basis_task(np.array([[1, 1], [0, 1]], dtype=complex), "predict", 0))


def test_postdict_closed_identity():
    table = solve(basis_task(np.eye(2, dtype=complex), "postdict", 1))
    assert table["0"] == 0.0 and table["1"] == 1.0


def test_postdict_closed_hadamard():
    table = solve(basis_task(HADAMARD, "postdict", 0))
    assert table["0"] == pytest.approx(0.5, abs=1e-14)
    assert table["1"] == pytest.approx(0.5, abs=1e-14)


def test_bayes_oracle_flat_prior_hand_case():
    # the oracle itself, on rows small enough to invert by hand: P(0|x) = 1 / (1 + 1/2)
    rows = {"0": ProbabilityTable({"x": 1.0, "y": 0.0}), "1": ProbabilityTable({"x": 0.5, "y": 0.5})}
    posterior = bayes_invert(rows, "x")
    assert posterior["0"] == pytest.approx(2 / 3)
    assert posterior["1"] == pytest.approx(1 / 3)
    assert posterior.direction == "postdict"


def test_postdict_closed_is_bayes_inversion_of_prediction():
    # oracle: flat-prior Bayes inversion assembled from the prediction rows only
    u = linalg.haar_random_unitary(8, 13)
    rows = {str(a): solve(basis_task(u, "predict", a)) for a in range(8)}
    for x in range(8):
        oracle = bayes_invert(rows, str(x))
        table = solve(basis_task(u, "postdict", x))
        assert table.max_difference(oracle) < 1e-12


def test_closed_inference_symmetry_sweep():
    # postdiction table equals the transposed prediction table
    for seed, d in enumerate(range(2, 9)):
        u = linalg.haar_random_unitary(d, 50 + seed)
        pre = np.stack([solve(basis_task(u, "predict", a)).probabilities() for a in range(d)], axis=1)
        post = np.stack([solve(basis_task(u, "postdict", x)).probabilities() for x in range(d)], axis=0)
        assert np.max(np.abs(pre - post)) < 1e-12


# ---------------------------------------------------------------------------
# Open systems
# ---------------------------------------------------------------------------


def test_predict_open_cnot_control_passes_through():
    table = predict_open(CNOT, (2, 2), (2, 2), (0, 0), (True, False))
    assert table["0"] == pytest.approx(1.0, abs=1e-14)
    assert table["1"] == pytest.approx(0.0, abs=1e-14)


def test_predict_open_cnot_flat_prior_target():
    table = predict_open(CNOT, (2, 2), (2, 2), (0, None), (True, True))
    # oracle: average the closed-system rows over the unknown input factor
    expected = {}
    for x0 in range(2):
        for x1 in range(2):
            total = sum(
                joint_amplitude_oracle(CNOT, (2, 2), (2, 2), (0, b), (x0, x1)) / 2
                for b in range(2)
            )
            expected[f"{x0}·{x1}"] = total
    for label, value in expected.items():
        assert table[label] == pytest.approx(value, abs=1e-14)
    assert table["0·0"] == pytest.approx(0.5, abs=1e-14)
    assert table["0·1"] == pytest.approx(0.5, abs=1e-14)
    assert table["1·0"] == pytest.approx(0.0, abs=1e-14)


def test_predict_open_swap_bookkeeping():
    table = predict_open(SWAP, (2, 2), (2, 2), (1, None), (False, True))
    assert table["1"] == pytest.approx(1.0, abs=1e-14)


def test_predict_open_rejects_bad_masks():
    with pytest.raises(ValueError):
        predict_open(CNOT, (2, 2), (2, 2), (0,), (True, False))
    with pytest.raises(ValueError):
        predict_open(CNOT, (2, 2), (2, 2), (0, 2), (True, True))


def test_postdict_open_cnot_known_control_output():
    table = postdict_open(CNOT, (2, 2), (2, 2), (0, None), (True, True))
    # oracle: enumerate the four joint amplitudes and weight ignored outputs by 1/d_Y
    expected = {}
    for a in range(2):
        for b in range(2):
            expected[f"{a}·{b}"] = sum(
                joint_amplitude_oracle(CNOT, (2, 2), (2, 2), (a, b), (0, y)) / 2
                for y in range(2)
            )
    for label, value in expected.items():
        assert table[label] == pytest.approx(value, abs=1e-14)
    assert table["0·0"] == pytest.approx(0.5, abs=1e-14)
    assert table["0·1"] == pytest.approx(0.5, abs=1e-14)
    assert table["1·0"] == pytest.approx(0.0, abs=1e-14)
    assert table["1·1"] == pytest.approx(0.0, abs=1e-14)


def test_postdict_open_qutrit_identity():
    u = np.eye(3, dtype=complex)
    table = postdict_open(u, (3,), (3,), (2,), (True,))
    assert table["2"] == pytest.approx(1.0, abs=1e-14)


def test_postdict_equals_prediction_when_ignored_dims_match():
    u = linalg.haar_random_unitary(4, 23)
    pre = predict_open(u, (2, 2), (2, 2), (0, None), (True, False))
    post = postdict_open(u, (2, 2), (2, 2), (0, None), (True, False))
    # d_B = d_Y: guessing the past and guessing the future coincide
    for a in range(2):
        assert post[str(a)] == pytest.approx(pre[str(a)], abs=1e-12)


def ratio_laws_defect(u, d_a, d_b, d_x, d_y):
    dims_in, dims_out = (d_a, d_b), (d_x, d_y)
    worst = 0.0
    # P_post(ab | x) = P_pre(x | ab) / d_Y
    for a in range(d_a):
        for b in range(d_b):
            pre = predict_open(u, dims_in, dims_out, (a, b), (True, False))
            for x in range(d_x):
                post = postdict_open(u, dims_in, dims_out, (x, None), (True, True))
                worst = max(worst, abs(post[f"{a}·{b}"] - pre[str(x)] / d_y))
    # P_post(a | xy) = d_B * P_pre(xy | a)
    for a in range(d_a):
        pre = predict_open(u, dims_in, dims_out, (a, None), (True, True))
        for x in range(d_x):
            for y in range(d_y):
                post = postdict_open(u, dims_in, dims_out, (x, y), (True, False))
                worst = max(worst, abs(post[str(a)] - d_b * pre[f"{x}·{y}"]))
    # d_Y * P_post(a | x) = d_B * P_pre(x | a)
    for a in range(d_a):
        pre = predict_open(u, dims_in, dims_out, (a, None), (True, False))
        for x in range(d_x):
            post = postdict_open(u, dims_in, dims_out, (x, None), (True, False))
            worst = max(worst, abs(d_y * post[str(a)] - d_b * pre[str(x)]))
    return worst


def test_open_ratio_laws():
    for seed, (d_a, d_b) in enumerate([(2, 2), (2, 3), (3, 2)]):
        u = linalg.haar_random_unitary(d_a * d_b, 31 + seed)
        assert ratio_laws_defect(u, d_a, d_b, d_a, d_b) < 1e-12
        # the laws read the same with the time labels swapped
        assert ratio_laws_defect(u.conj().T, d_a, d_b, d_a, d_b) < 1e-12


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


def test_predict_channel_identity():
    table = solve(basis_task(QuantumMap((np.eye(2),), 2, 2), "predict", 1))
    assert table["0"] == 0.0 and table["1"] == 1.0


def test_predict_channel_dephasing_fixed_points():
    table = solve(basis_task(make_dephasing(), "predict", 0))
    assert table["0"] == pytest.approx(1.0, abs=1e-14)


def test_predict_channel_amplitude_damping():
    table = solve(basis_task(amplitude_damping(0.5), "predict", 1))
    # oracle: tr |0><0| K1 |1><1| K1' = 0.5 and tr |1><1| K0 |1><1| K0' = 0.5
    assert table["0"] == pytest.approx(0.5, abs=1e-14)
    assert table["1"] == pytest.approx(0.5, abs=1e-14)


def test_predict_channel_rejects_non_cptp():
    from retrodict.channels import QuantumMap

    with pytest.raises(ValueError):
        solve(basis_task(QuantumMap((np.eye(2, dtype=complex) / 2,), 2, 2), "predict", 0))


def amplitude_damping_bayes_oracle(x):
    # independently coded: hand prediction values and a flat-prior Bayes step
    pre = {0: {0: 1.0, 1: 0.5}, 1: {0: 0.0, 1: 0.5}}[x]
    evidence = pre[0] * 0.5 + pre[1] * 0.5
    posterior = {a: pre[a] * 0.5 / evidence for a in (0, 1)}
    factor = 1.0 / (pre[0] + pre[1])
    return posterior, factor


def test_postdict_channel_amplitude_damping_given_zero():
    table = postdict_channel(amplitude_damping(0.5), 0)
    oracle, factor = amplitude_damping_bayes_oracle(0)
    assert table["0"] == pytest.approx(oracle[0], abs=1e-12)
    assert table["1"] == pytest.approx(oracle[1], abs=1e-12)
    assert table.factor == pytest.approx(factor, abs=1e-12)
    assert table.factor == pytest.approx(2 / 3, abs=1e-12)


def test_postdict_channel_amplitude_damping_given_one():
    table = postdict_channel(amplitude_damping(0.5), 1)
    oracle, factor = amplitude_damping_bayes_oracle(1)
    assert table["0"] == pytest.approx(oracle[0], abs=1e-12)
    assert table["1"] == pytest.approx(oracle[1], abs=1e-12)
    assert table.factor == pytest.approx(2.0, abs=1e-12)


def test_postdict_channel_unital_is_transposed_prediction():
    channel = make_noisy_operation(linalg.haar_random_unitary(4, 41), (2, 2))
    for x in range(2):
        post = postdict_channel(channel, x)
        assert post.factor == pytest.approx(1.0, abs=1e-10)
        for a in range(2):
            assert post[str(a)] == pytest.approx(solve(basis_task(channel, "predict", a))[str(x)], abs=1e-12)


def test_postdict_channel_factor_relates_the_tables():
    # P_post = f(x) * P_pre holds entry by entry
    channel = random_cptp_map(3, 3, 2, 43)
    for x in range(3):
        post = postdict_channel(channel, x)
        for a in range(3):
            assert post[str(a)] == pytest.approx(
                post.factor * solve(basis_task(channel, "predict", a))[str(x)], abs=1e-12
            )


def test_postdict_channel_impossible_outcome():
    from retrodict.channels import QuantumMap

    reset = QuantumMap(
        (np.array([[1, 0], [0, 0]], dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex)),
        2,
        2,
    )
    with pytest.raises(UndefinedConditionalError):
        postdict_channel(reset, 1)


def test_postdict_via_purification_unitary_matches_closed():
    u = linalg.haar_random_unitary(3, 47)
    channel = QuantumMap((u,), 3, 3)
    for x in range(3):
        via = postdict_channel_via_purification(channel, x)
        assert via.max_difference(solve(basis_task(u, "postdict", x))) < 1e-12


def test_postdict_via_purification_dephasing():
    via = postdict_channel_via_purification(make_dephasing(), 0)
    assert via["0"] == pytest.approx(1.0, abs=1e-12)
    assert via["1"] == pytest.approx(0.0, abs=1e-12)


def test_postdict_via_purification_amplitude_damping():
    via = postdict_channel_via_purification(amplitude_damping(0.5), 0)
    assert via["0"] == pytest.approx(2 / 3, abs=1e-12)
    assert via["1"] == pytest.approx(1 / 3, abs=1e-12)


def test_postdict_via_purification_rotated_ancilla():
    channel = random_cptp_map(2, 2, 2, 53)
    purification = stinespring(channel)
    for x in range(2):
        direct = postdict_channel(channel, x)
        rotated = rotate_ancilla(purification, seed=54)
        assert direct.max_difference(postdict_channel_via_purification(channel, x, rotated)) < 1e-10


# ---------------------------------------------------------------------------
# General preparations
# ---------------------------------------------------------------------------


def test_general_prep_reduces_to_closed_for_orthonormal_states():
    u = linalg.haar_random_unitary(3, 59)
    states = [linalg.basis_ket(3, i) for i in range(3)]
    for direction in ("predict", "postdict"):
        for given in range(3):
            table = solve(basis_task(u, direction, given, states))
            assert table.max_difference(solve(basis_task(u, direction, given))) < 1e-14


def test_general_prep_two_states_given_zero():
    states = [linalg.basis_ket(2, 0), PLUS]
    table = solve(basis_task(np.eye(2, dtype=complex), "postdict", 0, states))
    assert table["0"] == pytest.approx(2 / 3, abs=1e-12)
    assert table["1"] == pytest.approx(1 / 3, abs=1e-12)


def test_general_prep_two_states_given_one():
    states = [linalg.basis_ket(2, 0), PLUS]
    table = solve(basis_task(np.eye(2, dtype=complex), "postdict", 1, states))
    assert table["0"] == pytest.approx(0.0, abs=1e-12)
    assert table["1"] == pytest.approx(1.0, abs=1e-12)


def test_general_prep_rejects_unnormalized_state():
    with pytest.raises(ValueError):
        solve(basis_task(np.eye(2, dtype=complex), "predict", 0, [np.array([1.0, 1.0])]))


def test_general_prep_rejects_nan_state():
    with pytest.raises(ValueError, match="not normalized"):
        solve(basis_task(np.eye(2, dtype=complex), "predict", 0, [np.array([np.nan, 0.0])]))


def test_general_prep_purified_check_orthonormal():
    u = linalg.haar_random_unitary(2, 61)
    states = [linalg.basis_ket(2, 0), linalg.basis_ket(2, 1)]
    outcome = general_prep_purified_check(states, u, 0)
    assert outcome.max_defect < 1e-10
    assert outcome.direct.max_difference(solve(basis_task(u, "postdict", 0))) < 1e-12


def test_general_prep_purified_check_nonorthogonal():
    states = [linalg.basis_ket(2, 0), PLUS]
    for u in (np.eye(2, dtype=complex), HADAMARD):
        for x in range(2):
            assert general_prep_purified_check(states, u, x).max_defect < 1e-10


@pytest.mark.parametrize("mutation", ["reversed", "rolled"])
def test_general_prep_purified_check_catches_a_wrong_but_normalized_kernel(monkeypatch, mutation):
    original = inference._transitions

    def mutated(*args, **kwargs):
        t = original(*args, **kwargs)
        return t[::-1] if mutation == "reversed" else np.roll(t, 1, axis=-1)

    states = [linalg.basis_ket(3, 0), linalg.haar_random_unitary(3, 63)[:, 0], np.ones(3) / np.sqrt(3)]
    u = linalg.haar_random_unitary(3, 64)
    monkeypatch.setattr(inference, "_transitions", mutated)
    assert general_prep_purified_check(states, u, 0).max_defect > 0.1


def test_general_prep_purified_check_completes_no_unitary(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the purified side reads the preparation isometry, not a completed unitary")

    monkeypatch.setattr(linalg, "complete_to_unitary", forbidden)
    states = [linalg.basis_ket(3, 0), linalg.haar_random_unitary(3, 63)[:, 0], np.ones(3) / np.sqrt(3)]
    u = linalg.haar_random_unitary(3, 64)
    for x in range(3):
        assert general_prep_purified_check(states, u, x).max_defect < 1e-10


# ---------------------------------------------------------------------------
# Time reversal
# ---------------------------------------------------------------------------


def test_time_reverse_identity_task():
    task = basis_task(np.eye(2, dtype=complex), "predict", 0)
    reversed_task = time_reverse(task)
    assert reversed_task.direction == "postdict"
    assert solve(task).max_difference(solve(reversed_task)) < 1e-14


def test_time_reverse_solution_is_unchanged_for_unitaries():
    u = linalg.haar_random_unitary(4, 67)
    for a in range(4):
        task = basis_task(u, "predict", a)
        assert solve(task).max_difference(solve(time_reverse(task))) < 1e-12


def test_time_reverse_closed_relation():
    # P_pre(a | x, U') == P_pre(x | a, U) with U' the adjoint
    u = linalg.haar_random_unitary(5, 71)
    for a in range(5):
        for x in range(5):
            assert solve(basis_task(u.conj().T, "predict", x))[str(a)] == pytest.approx(
                solve(basis_task(u, "predict", a))[str(x)], abs=1e-12
            )


def test_time_reverse_dephasing_channel():
    task = InferenceTask(
        transformation=make_dephasing(),
        dims_in=(2,),
        dims_out=(2,),
        direction="predict",
        known_input_mask=(True,),
        known_output_mask=(True,),
        given_input=(0,),
    )
    reversed_task = time_reverse(task)
    # the dephasing channel is self-adjoint: same action on the operator basis
    for e in np.eye(4).reshape(4, 2, 2):
        np.testing.assert_allclose(
            apply(reversed_task.transformation, e), apply(make_dephasing(), e), atol=1e-12
        )
    assert solve(task).max_difference(solve(reversed_task)) < 1e-12


def test_time_reverse_amplitude_damping_has_no_active_reverse():
    task = InferenceTask(
        transformation=amplitude_damping(0.5),
        dims_in=(2,),
        dims_out=(2,),
        direction="predict",
        known_input_mask=(True,),
        known_output_mask=(True,),
        given_input=(0,),
    )
    with pytest.raises(NoActiveReverseError):
        time_reverse(task)


def test_four_task_identity():
    report = four_task_check(np.eye(2, dtype=complex))
    assert report.reference[0, 0] == 1.0
    assert report.max_defect < 1e-14


def test_four_task_hadamard():
    report = four_task_check(HADAMARD)
    for a in range(2):
        for x in range(2):
            assert report.reference[a, x] == pytest.approx(0.5, abs=1e-14)
    assert report.max_defect < 1e-12


def test_four_task_haar():
    u = linalg.haar_random_unitary(4, 73)
    report = four_task_check(u)
    assert report.reference[1, 3] == pytest.approx(born_oracle(u, 1, 3), abs=1e-14)
    assert report.max_defect < 1e-12


def test_four_task_tables_are_indexed_a_x():
    # a Haar |<x|U|a>|^2 is not symmetric in (a, x), so a transposed table would be caught
    u = linalg.haar_random_unitary(3, 74)
    report = four_task_check(u)
    tables = (report.predict_forward, report.postdict_forward, report.predict_reversed, report.postdict_reversed)
    for table in tables + (report.reference,):
        assert table.shape == (3, 3)
        for a in range(3):
            for x in range(3):
                assert table[a, x] == pytest.approx(born_oracle(u, a, x), abs=1e-12)


def test_four_task_bistochastic_channel():
    channel = make_noisy_operation(linalg.haar_random_unitary(4, 79), (2, 2))
    assert four_task_check(channel).max_defect < 1e-12


def test_four_task_one_dimensional_system():
    # d_A = 1: one preparation, one test outcome, every table is [[1]]
    phase = np.array([[np.exp(0.3j)]])
    channel = make_noisy_operation(linalg.haar_random_unitary(3, 80), (1, 3))
    for transformation in (phase, channel):
        report = four_task_check(transformation)
        assert report.reference.shape == (1, 1)
        assert report.reference[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert report.max_defect < 1e-12


def test_four_task_rejects_non_unital_channel():
    with pytest.raises(ValueError):
        four_task_check(amplitude_damping(0.5))


def test_open_reversal_identity():
    defects = open_reversal_check(np.eye(4, dtype=complex), (2, 2))
    assert defects["max"] < 1e-14


def test_open_reversal_cnot():
    assert open_reversal_check(CNOT, (2, 2))["max"] < 1e-12


def test_open_reversal_haar_2x3():
    u = linalg.haar_random_unitary(6, 83)
    defects = open_reversal_check(u, (2, 3))
    assert defects["max"] < 1e-12
    assert set(defects) == {"pre-a-xy", "pre-ab-x", "post-xy-a", "post-x-ab", "pre-a-x", "post-x-a", "max"}


def test_open_reversal_unequal_partitions():
    # input factors (3, 4), output factors (2, 6)
    u = linalg.haar_random_unitary(12, 84)
    assert open_reversal_check(u, (3, 4), (2, 6))["max"] < 1e-12


@pytest.mark.parametrize("dims_in, dims_out", [((8,), (8,)), ((2, 2, 2), (2, 2, 2)), ((2, 4), (2, 2, 2))])
def test_open_reversal_requires_two_factors_per_side(dims_in, dims_out):
    with pytest.raises(ValueError, match="exactly two factors per side"):
        open_reversal_check(linalg.haar_random_unitary(8, 85), dims_in, dims_out)


def test_towards_past_unitary_channel():
    u = linalg.haar_random_unitary(3, 89)
    report = channel_toward_past_check(QuantumMap((u,), 3, 3))
    assert report.max_defect < 1e-10
    for a in range(3):
        for x in range(3):
            assert report.born[a, x] == pytest.approx(born_oracle(u, a, x), abs=1e-12)
            assert report.reversed_postdiction[a, x] == pytest.approx(born_oracle(u, a, x), abs=1e-10)


def test_towards_past_dephasing():
    assert channel_toward_past_check(make_dephasing()).max_defect < 1e-10


def test_towards_past_amplitude_damping():
    # holds even though no active reversal of the channel exists
    report = channel_toward_past_check(amplitude_damping(0.5))
    assert report.born.shape == report.reversed_postdiction.shape == (2, 2)
    assert report.max_defect < 1e-10


def test_towards_past_one_dimensional_system():
    # d_A = 1: the one preparation goes to the one test outcome with certainty
    report = channel_toward_past_check(random_cptp_map(1, 1, 2, 90))
    assert report.born.shape == report.reversed_postdiction.shape == (1, 1)
    assert report.born[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert report.max_defect < 1e-10


def completed_unitary(purification):
    # a unitary U on A (x) B with U(|a> (x) |0>_B) = V|a>, as the report prints it
    d_a, d_b = purification.dims_in
    return linalg.complete_to_unitary(purification.isometry.reshape(-1, d_a), [a * d_b for a in range(d_a)])


def towards_past_reference(purification, a, x):
    # the postdiction on the full unitary U' with data (a, 0): output a, ancilla at |0>
    task = InferenceTask(
        completed_unitary(purification).conj().T,
        purification.dims_out,
        purification.dims_in,
        "postdict",
        (True, False),
        (True, True),
        given_output=(a, 0),
    )
    return solve(task)[str(x)]


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_towards_past_matches_full_unitary_reference(d_a, d_b):
    channel = make_noisy_operation(linalg.haar_random_unitary(d_a * d_b, 91 + d_a * d_b), (d_a, d_b))
    for purification in (stinespring(channel), rotate_ancilla(stinespring(channel), seed=92)):
        report = channel_toward_past_check(channel, purification)
        assert report.max_defect < 1e-10
        for a in range(d_a):
            for x in range(d_a):
                reference = towards_past_reference(purification, a, x)
                assert abs(report.reversed_postdiction[a, x] - reference) < 1e-12


# ---------------------------------------------------------------------------
# No signalling
# ---------------------------------------------------------------------------


def test_no_signalling_identity_follower():
    e = projective_instrument(np.eye(2))
    f = Instrument((("0", QuantumMap((np.eye(2),), 2, 2)),), 2, 2)
    rho = random_density_matrix(2, 97)
    report = no_signalling_check(e, f, rho, extra_followers=0)
    assert report.marginal_defect < 1e-12


def test_no_signalling_z_then_x():
    e = projective_instrument(np.eye(2))
    f = projective_instrument(HADAMARD)
    rho = linalg.basis_projector(2, 0)
    report = no_signalling_check(e, f, rho, extra_followers=2, seed=5)
    assert report.max_defect < 1e-10
    # the marginal over the X outcomes reproduces P(x) = {1, 0} ...
    from retrodict.channels import compose_sequential, outcome_probabilities

    joint = outcome_probabilities(compose_sequential(e, f), rho)
    assert joint["0·0"] + joint["0·1"] == pytest.approx(1.0, abs=1e-12)
    # ... while conditioning on the later outcome does sharpen the guess
    assert joint["0·0"] / (joint["0·0"] + joint["1·0"]) == pytest.approx(
        1.0, abs=1e-12
    )


def test_no_signalling_random_instruments():
    for seed in range(20):
        e = random_instrument(2, 2, 2, 200 + seed)
        f = random_instrument(2, 2, 2, 300 + seed)
        rho = random_density_matrix(2, 400 + seed)
        report = no_signalling_check(e, f, rho, extra_followers=2, seed=seed)
        assert report.marginal_defect < 1e-12
        assert report.conditional_defect < 1e-12
        assert report.purified_defect < 1e-10


def test_no_signalling_rejects_incomposable():
    with pytest.raises(ValueError):
        no_signalling_check(
            projective_instrument(np.eye(2)),
            projective_instrument(np.eye(3)),
            np.eye(2) / 2,
        )


def test_no_signalling_refuses_a_negative_follower_count():
    e = projective_instrument(np.eye(2))
    with pytest.raises(ValueError, match="extra_followers must be non-negative"):
        no_signalling_check(e, e, np.eye(2) / 2, extra_followers=-1)


def test_no_signalling_skips_the_conditional_of_an_impossible_outcome():
    # Z then Z on |0><0|: the second outcome 1 never occurs, so it has no conditional (and no division).
    e = projective_instrument(np.eye(2))
    report = no_signalling_check(e, e, linalg.basis_projector(2, 0), extra_followers=2)
    assert report.skipped_conditionals == ("1",)
    assert report.conditional_defect == 0.0


def no_signalling_reference(e, f, rho, extra_followers, seed):
    # The check on instrument objects, one follower and one outcome pair at a time:
    # (marginal defect, conditional defect, skipped outcomes of f).
    alone = outcome_probabilities(e, rho).probabilities()
    followers = [f] + [
        random_instrument(f.dim_in, len(f.outcomes), 2, seed + 101 * (t + 1)) for t in range(extra_followers)
    ]
    joints = [
        outcome_probabilities(compose_sequential(e, g), rho).probabilities().reshape(len(e.outcomes), len(g.outcomes))
        for g in followers
    ]
    marginal = max(float(np.max(np.abs(joint.sum(axis=1) - alone))) for joint in joints)
    joint = joints[0]
    conditional, skipped = 0.0, []
    evolved = apply(coarse_grain(e), rho)
    for j, (label_j, map_j) in enumerate(f.outcomes):
        weight = joint[:, j].sum()
        if weight < 1e-12:
            skipped.append(label_j)
            continue
        denominator = np.trace(apply(map_j, evolved)).real
        for i, (_, map_i) in enumerate(e.outcomes):
            direct = np.trace(apply(map_j, apply(map_i, rho))).real / denominator
            conditional = max(conditional, abs(joint[i, j] / weight - direct))
    return marginal, conditional, tuple(skipped)


def split_instrument(channel, sizes):
    # An instrument whose outcome i holds the next sizes[i] Kraus operators of the channel.
    starts = np.cumsum([0, *sizes])
    outcomes = tuple(
        (str(i), QuantumMap(channel.kraus[a:b], channel.dim_in, channel.dim_out))
        for i, (a, b) in enumerate(zip(starts[:-1], starts[1:]))
    )
    return Instrument(outcomes, channel.dim_in, channel.dim_out)


NO_SIGNALLING_CASES = {
    "random-2": (random_instrument(2, 2, 2, 11), random_instrument(2, 2, 2, 12), 2),
    "random-3-outcomes": (random_instrument(3, 3, 2, 13), random_instrument(3, 2, 3, 14), 3),
    "identity-follower": (
        random_instrument(3, 2, 2, 15),
        Instrument((("0", QuantumMap((np.eye(3),), 3, 3)),), 3, 3),
        3,
    ),
    "unequal-kraus-counts": (
        split_instrument(random_cptp_map(3, 3, 5, 16), (1, 3, 1)),
        split_instrument(random_cptp_map(3, 3, 6, 17), (4, 2)),
        3,
    ),
    "single-outcome-follower": (
        random_instrument(2, 2, 2, 18),
        Instrument((("only", random_cptp_map(2, 2, 3, 19)),), 2, 2),
        2,
    ),
    "z-then-z": (projective_instrument(np.eye(2)), projective_instrument(np.eye(2)), 2),
    "qubit-to-qutrit-then-destructive": (
        split_instrument(random_cptp_map(2, 3, 4, 20), (2, 2)),
        Instrument(tuple((str(x), QuantumMap((np.eye(3)[x : x + 1],), 3, 1)) for x in range(3)), 3, 1),
        2,
    ),
}


@pytest.mark.parametrize("case", NO_SIGNALLING_CASES.values(), ids=NO_SIGNALLING_CASES.keys())
@pytest.mark.parametrize("extra_followers", [0, 2])
def test_no_signalling_report_matches_the_instrument_object_reference(case, extra_followers):
    e, f, d = case
    for rho in (random_density_matrix(d, 21), linalg.basis_projector(d, 0)):
        report = no_signalling_check(e, f, rho, extra_followers=extra_followers, seed=22)
        marginal, conditional, skipped = no_signalling_reference(e, f, rho, extra_followers, 22)
        assert abs(report.marginal_defect - marginal) <= 1e-15
        assert abs(report.conditional_defect - conditional) <= 1e-15
        assert report.skipped_conditionals == skipped


@pytest.mark.parametrize("d, n_outcomes", [(1, 1), (2, 2), (3, 3), (4, 2)])
def test_random_followers_are_the_random_instruments_kraus_operators(d, n_outcomes):
    stack = inference._random_followers(d, n_outcomes, 3, 40)
    for t in range(3):
        follower = random_instrument(d, n_outcomes, 2, 40 + 101 * (t + 1))
        expected = np.concatenate([qmap.kraus for _, qmap in follower.outcomes])
        np.testing.assert_array_equal(stack[2 * n_outcomes * t : 2 * n_outcomes * (t + 1)], expected)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_a_stack_of_no_signalling_instances_equals_one_check_per_instance(d):
    # verify's layout: instance t has instruments of seeds 70 + t and 80 + t and the followers of seed t
    seeds = [70, 71, 72, 80, 81, 82] + [s for t in range(3) for s in inference._follower_seeds(t, 2)]
    kraus = _random_kraus_stacks(d, 4, seeds)
    states = linalg.random_density_matrices(d, range(90, 93))
    stacked = inference._no_signalling_stack(kraus[:3], kraus[3:6], states, kraus[6:].reshape(3, -1, d, d))
    for t, rho in enumerate(states):
        e, f = random_instrument(d, 2, 2, 70 + t), random_instrument(d, 2, 2, 80 + t)
        report = no_signalling_check(e, f, rho, extra_followers=2, seed=t)
        defects = (report.marginal_defect, report.conditional_defect, report.purified_defect)
        assert tuple(float(defect[t]) for defect in stacked) == defects


def test_verify_catches_followers_composed_in_the_wrong_order(monkeypatch, capsys):
    def reversed_order(first, second):
        # E_k F_l in place of F_l E_k: e then acts after its follower
        return first[:, None] @ second[None]

    monkeypatch.setattr(inference, "_sequential_kraus", reversed_order)
    code = main(["verify", "--dims", "2", "3", "--format", "json"])
    assert code == 5
    failing = {c["name"] for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]}
    assert "no-signalling" in failing


# ---------------------------------------------------------------------------
# Inference symmetry and the deterministic effect
# ---------------------------------------------------------------------------


def test_inference_symmetric_dephasing():
    assert is_inference_symmetric(make_dephasing())


def test_inference_symmetric_amplitude_damping_false():
    assert not is_inference_symmetric(amplitude_damping(0.5))


def test_inference_symmetric_noisy_operation():
    channel = make_noisy_operation(linalg.haar_random_unitary(4, 101), (2, 2))
    assert is_inference_symmetric(channel)


def test_symmetry_unitality_adjoint_equivalence():
    # the three predicates agree channel by channel
    suite = [
        (QuantumMap((linalg.haar_random_unitary(2, 103),), 2, 2), True),
        (make_dephasing(), True),
        (make_noisy_operation(linalg.haar_random_unitary(6, 107), (3, 2)), True),
        (amplitude_damping(0.25), False),
        (amplitude_damping(0.5), False),
        (amplitude_damping(0.9), False),
    ]
    for channel, expected in suite:
        unital = classify(channel).is_unital
        symmetric = is_inference_symmetric(channel)
        adjoint_info = classify(adjoint_map(channel))
        adjoint_cptp = adjoint_info.is_cp and adjoint_info.is_tp
        # the tables themselves, which the three predicates above never build
        sampled = inference._sampled_table_asymmetry([channel], 0)[0] < 1e-9
        assert unital == symmetric == adjoint_cptp == sampled == expected


def test_inference_symmetry_builds_no_table_and_draws_no_unitary(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the criterion sum K K' = I decides without tables")

    monkeypatch.setattr(inference, "_transitions", forbidden)
    monkeypatch.setattr(linalg, "haar_random_unitary", forbidden)
    assert is_inference_symmetric(make_dephasing())
    assert not is_inference_symmetric(amplitude_damping(0.5))
    assert not is_inference_symmetric(amplitude_damping(5e-10))


def test_a_nearly_unital_channel_is_not_symmetric_though_its_sampled_tables_agree():
    # unital defect 5e-10: beyond the structural tolerance, within the sampled tables' 1e-9
    channel = amplitude_damping(5e-10)
    assert inference._sampled_table_asymmetry([channel], 0)[0] < 1e-9
    assert not is_inference_symmetric(channel)
    assert not classify(channel).is_unital


def test_every_sampled_table_is_read_through_the_kernel(monkeypatch):
    # a kernel that doubles T is no longer symmetric, in the computational bases and in each rotated pair
    original = inference._transitions
    read = []

    def doubled(*args):
        read.append(args[0].shape)
        return 2.0 * original(*args)

    monkeypatch.setattr(inference, "_transitions", doubled)
    gaps = inference._sampled_table_asymmetry([make_dephasing(), random_cptp_map(2, 3, 2, 5)], 0)
    # the dephasing channel's own Kraus stack and its five rotations in one read, then the 2 -> 3 map's
    assert read == [(6, 2, 2, 2), (2, 3, 2)]
    assert min(gaps) > 0.1


def test_classify_unital_defect_is_the_sum_of_k_k_dagger():
    # oracle: max |sum_k K K' - I| written out, against the adjoint's trace defect classify reads
    channels = [random_cptp_map(d, d, k, 300 + 10 * d + k) for d in (2, 3, 4) for k in (1, 2, 3)]
    channels += [make_noisy_operation(linalg.haar_random_unitary(6, 331), (3, 2)), amplitude_damping(0.3)]
    for channel in channels:
        image = sum(k @ k.conj().T for k in channel.kraus)
        assert classify(channel).unital_defect == float(np.max(np.abs(image - np.eye(channel.dim_out))))
    assert classify(random_cptp_map(2, 3, 2, 341)).unital_defect == float("inf")


def test_deterministic_effect_unique_for_random_channels():
    for seed in range(10):
        channel = random_cptp_map(2, 2, 2, 500 + seed)
        report = deterministic_effect_check(channel, seed=seed)
        assert report.unique_flat_solution
        assert report.solution_defect < 1e-8
        assert report.min_alternative_residual > 1e-6


def test_deterministic_effect_refuses_a_negative_candidate_count():
    with pytest.raises(ValueError, match="n_random_candidates must be non-negative"):
        deterministic_effect_check(amplitude_damping(0.3), n_random_candidates=-1)


def test_solve_dispatches_channel_and_instrument():
    channel_task = InferenceTask(
        transformation=amplitude_damping(0.5),
        dims_in=(2,),
        dims_out=(2,),
        direction="postdict",
        known_input_mask=(True,),
        known_output_mask=(True,),
        given_output=(0,),
    )
    assert solve(channel_task)["0"] == pytest.approx(2 / 3, abs=1e-12)

    inst_task = InferenceTask(
        transformation=projective_instrument(np.eye(2)),
        dims_in=(2,),
        dims_out=(2,),
        direction="predict",
        known_input_mask=(True,),
        known_output_mask=(True,),
        given_input=(1,),
    )
    table = solve(inst_task)
    assert table["1·1"] == pytest.approx(1.0, abs=1e-12)


def _single_operator_tasks(u, dims, direction, data_mask, guess_mask, data):
    """The same task on U, on the channel with Kraus list (U,) and on a one-outcome instrument."""
    d = u.shape[0]
    channel = QuantumMap((u,), d, d)
    kinds = (u, channel, Instrument((("0", channel),), d, d))
    if direction == "predict":
        return [InferenceTask(t, dims, dims, direction, data_mask, guess_mask, given_input=data) for t in kinds]
    return [InferenceTask(t, dims, dims, direction, guess_mask, data_mask, given_output=data) for t in kinds]


def _assert_same_tables(tables):
    for table in tables[1:]:
        assert table.labels() == tables[0].labels()
        assert table.given == tables[0].given
        np.testing.assert_allclose(table.probabilities(), tables[0].probabilities(), rtol=0, atol=1e-12)


def test_solve_uses_the_task_factors_for_channels_and_instruments():
    u = linalg.haar_random_unitary(4, 211)
    for direction in ("predict", "postdict"):
        tasks = _single_operator_tasks(u, (2, 2), direction, (True, False), (True, False), (1, None))
        tables = [solve(task) for task in tasks]
        assert tables[0].labels() == ("0", "1")
        _assert_same_tables(tables)


def test_solve_gives_ignored_data_factors_the_flat_prior_for_every_kind():
    u = linalg.haar_random_unitary(4, 213)
    for direction in ("predict", "postdict"):
        tasks = _single_operator_tasks(u, (2, 2), direction, (False, False), (True, True), (None, None))
        tables = [solve(task) for task in tasks]
        np.testing.assert_allclose(tables[0].probabilities(), np.full(4, 0.25), atol=1e-12)
        _assert_same_tables(tables)
    states = (np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2))
    task = InferenceTask(HADAMARD, (2,), (2,), "predict", (False,), (True,), preparation_states=states)
    rows = [solve(basis_task(HADAMARD, "predict", i, states)).probabilities() for i in range(2)]
    np.testing.assert_allclose(solve(task).probabilities(), np.mean(rows, axis=0), atol=1e-12)


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_solve_agrees_on_a_unitary_its_channel_and_its_instrument(data):
    dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="dims"))
    n = len(dims)
    u = linalg.haar_random_unitary(int(np.prod(dims)), data.draw(st.integers(0, 2**31), label="seed"))
    direction = data.draw(st.sampled_from(["predict", "postdict"]), label="direction")
    data_mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="data mask")
    guess_mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any), label="guess mask")
    given_data = tuple(data.draw(st.integers(0, d - 1)) if m else None for d, m in zip(dims, data_mask))
    tasks = _single_operator_tasks(u, dims, direction, data_mask, guess_mask, given_data)
    _assert_same_tables([solve(task) for task in tasks])


def test_given_outcomes_are_normalized_to_int():
    task = InferenceTask(np.eye(2), (2,), (2,), "predict", (True,), (True,), given_input=(1.0,))
    assert task.given_input == (1,)
    table = solve(task)
    assert table.given == "1"
    assert table["1"] == pytest.approx(1.0, abs=1e-12)
    table = predict_open(np.eye(4), (2, 2), (2, 2), (1.0, None), (True, True))
    assert table.given == "1"
    assert table["1·0"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("entry", ["false", "", 1, 0, None, 1.0])
def test_mask_entries_must_be_booleans(entry):
    for masks in (((entry,), (True,)), ((True,), (entry,))):
        with pytest.raises(ValueError, match="must be booleans"):
            InferenceTask(np.eye(2), (2,), (2,), "predict", *masks, given_input=(1,))
    task = InferenceTask(np.eye(2), (2,), (2,), "predict", (np.True_,), (True,), given_input=(1,))
    assert task.known_input_mask == (True,) and type(task.known_input_mask[0]) is bool


@pytest.mark.parametrize("outcome", [True, np.True_, 1.7, -0.5, float("nan"), float("inf"), "1.0", [1]])
def test_given_outcomes_are_never_coerced(outcome):
    for given in ({"given_input": (outcome,)}, {"given_output": (outcome,)}):
        with pytest.raises(ValueError):
            InferenceTask(np.eye(2), (2,), (2,), "predict", (True,), (True,), **given)


def test_table_asymmetry_matches_the_solved_tables():
    # oracle: the largest gap between every solved prediction column and postdiction row
    for channel in (amplitude_damping(0.3), random_cptp_map(3, 3, 2, 71), random_cptp_map(2, 3, 3, 72)):
        gap = 0.0
        for x in range(channel.dim_out):
            post = postdict_channel(channel, x)
            for a in range(channel.dim_in):
                gap = max(gap, abs(solve(basis_task(channel, "predict", a))[str(x)] - post[str(a)]))
        assert inference._table_asymmetry(channel) == pytest.approx(gap, abs=1e-15)
    # an output that no input reaches has no postdiction row
    assert inference._table_asymmetry(amplitude_damping(1.0)) == 1.0


def test_solve_rejects_an_unknown_instrument_outcome():
    task = InferenceTask(
        projective_instrument(np.eye(2)), (2,), (2,), "postdict", (True,), (True,), given_output=(0,), given_outcome="7"
    )
    with pytest.raises(ValueError, match="no outcome labelled"):
        solve(task)


@pytest.mark.parametrize(
    "direction, given, message",
    [
        ("predict", {"given_input": (2,)}, "preparation outcome 2 out of range for factor dimension 2"),
        ("postdict", {"given_output": (-1,)}, "test outcome -1 out of range for factor dimension 2"),
    ],
    ids=["predict", "postdict"],
)
def test_given_outcomes_are_range_checked_before_any_array_is_built(monkeypatch, direction, given, message):
    def never(*args):
        raise AssertionError("no transition array may be built for an out-of-range outcome")

    monkeypatch.setattr(inference, "_transitions", never)
    with pytest.raises(ValueError, match=message):
        solve(InferenceTask(HADAMARD, (2,), (2,), direction, (True,), (True,), **given))


def test_a_postdiction_without_given_output_factors_is_still_normalized():
    # every output factor averaged: no output axis is given, yet the row is divided by its evidence
    table = solve(InferenceTask(random_cptp_map(2, 3, 3, 5), (2,), (3,), "postdict", (True,), (False,)))
    assert (table.entries, table.factor) == ({"0": 0.5, "1": 0.5}, 1.4999999999999996)
    # no output factor at all: the guessed input axis alone calls for the flat prior
    trace = QuantumMap((np.array([[1, 0]], dtype=complex), np.array([[0, 1]], dtype=complex)), 2, 1)
    table = solve(InferenceTask(trace, (2,), (), "postdict", (True,), ()))
    assert (table.entries, table.factor) == ({"0": 0.5, "1": 0.5}, 0.5)


def test_predicting_only_an_instruments_outcome_gives_its_probabilities():
    # the outcome axis is guessed though no output factor is
    instrument = random_instrument(2, 3, 2, 7)
    table = solve(InferenceTask(instrument, (2,), (2,), "predict", (True,), (False,), given_input=(1,)))
    expected = outcome_probabilities(instrument, linalg.basis_projector(2, 1))
    assert table.labels() == expected.labels() == instrument.labels()
    np.testing.assert_allclose(table.probabilities(), expected.probabilities(), rtol=0, atol=1e-12)


def test_solve_requires_given_data():
    task = InferenceTask(
        transformation=np.eye(2, dtype=complex),
        dims_in=(2,),
        dims_out=(2,),
        direction="predict",
        known_input_mask=(True,),
        known_output_mask=(True,),
    )
    with pytest.raises(ValueError):
        solve(task)


# ---------------------------------------------------------------------------
# The transition-array kernel against its operator-level reference
# ---------------------------------------------------------------------------


def _normalized(values):
    return values / values.sum()


def _random_open_case(rng):
    dims = tuple(int(d) for d in rng.integers(2, 5, size=rng.integers(2, 4)))
    mask = rng.random(len(dims)) < 0.5
    mask[rng.integers(len(dims))] = True
    given = tuple(None if rng.random() < 0.4 else int(rng.integers(d)) for d in dims)
    return dims, given, tuple(bool(m) for m in mask)


def kron_pull_back_oracle(kraus, dims_data, given, dims_guess, mask):
    # sum_k K' E K with a dense Kronecker effect, reduced by a partial trace:
    # one given outcome per data factor, None for an ignored factor
    effect = linalg.tensor(
        *(np.eye(d) / d if g is None else linalg.basis_projector(d, g) for d, g in zip(dims_data, given))
    )
    pulled_back = sum(k.conj().T @ effect @ k for k in kraus)
    keep = [k for k, m in enumerate(mask) if m]
    return np.diagonal(linalg.partial_trace(pulled_back, dims_guess, keep)).real


def _reference_row(kraus, dims_data, given, dims_guess, mask):
    # the factor-wise reference at a single combination of given outcomes
    outcomes = tuple(None if g is None else (g,) for g in given)
    (row,) = inference._pull_back_reference(kraus, dims_data, outcomes, dims_guess, mask)
    return row


def pull_back_with_every_product(kraus, dims_data, outcomes, dims_guess, mask):
    # _pull_back_reference with a matrix product for every data factor, I for one that lists all its outcomes
    factors = [np.eye(d) / np.sqrt(d) if listed is None else np.eye(d, dtype=complex)[list(listed)]
               for d, listed in zip(dims_data, outcomes)]
    summed = tuple(k for k, m in enumerate(mask) if not m) + tuple(
        len(dims_guess) + f for f, listed in enumerate(outcomes) if listed is None
    )
    lead = kraus.shape[:-3]
    cells = 0.0
    for k in kraus.swapaxes(0, -3):
        amplitudes = k.reshape(lead + tuple(dims_data) + tuple(dims_guess))
        for a in factors:
            moved = np.moveaxis(amplitudes, len(lead), -1)
            amplitudes = (moved.reshape(lead + (-1, a.shape[1])) @ a.T).reshape(moved.shape[:-1] + a.shape[:1])
        cells = cells + (amplitudes.real**2 + amplitudes.imag**2).sum(axis=tuple(len(lead) + s for s in summed))
    n_lead, n_kept = len(lead), sum(mask)
    order = tuple(range(n_lead)) + tuple(range(n_lead + n_kept, cells.ndim)) + tuple(range(n_lead, n_lead + n_kept))
    return cells.transpose(order).reshape(lead + (-1, math.prod(d for d, m in zip(dims_guess, mask) if m)))


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("dims_data", [(3,), (2, 3), (3, 2), (2, 2, 2)])
def test_pull_back_reference_skips_products_by_i_bit_for_bit(lead, dims_data):
    # a factor that lists 0 ... d - 1 in order has A_f = I: only its axis moves, and every cell keeps its bits
    rng = np.random.default_rng(len(lead) + 10 * len(dims_data))
    dims_guess = (3, 2)
    shape = lead + (2, math.prod(dims_data), 6)
    kraus = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for kinds in itertools.product((None, "all", "some"), repeat=len(dims_data)):
        outcomes = [None if kind is None else range(d) if kind == "all" else [d - 1, 0]
                    for kind, d in zip(kinds, dims_data)]
        for mask in ((True, True), (True, False), (False, True)):
            got = inference._pull_back_reference(kraus, dims_data, outcomes, dims_guess, mask)
            assert got.tobytes() == pull_back_with_every_product(kraus, dims_data, outcomes, dims_guess, mask).tobytes()


def test_kernel_matches_pull_back_reference_on_random_tasks():
    rng = np.random.default_rng(2024)
    for trial in range(12):
        dims, given, mask = _random_open_case(rng)
        u = linalg.haar_random_unitary(int(np.prod(dims)), 500 + trial)
        ud = u.conj().T
        pre = predict_open(u, dims, dims, given, mask).probabilities()
        np.testing.assert_allclose(pre, _reference_row(ud[None], dims, given, dims, mask), atol=1e-12)
        post = postdict_open(u, dims, dims, given, mask).probabilities()
        reference = _normalized(_reference_row(u[None], dims, given, dims, mask))
        np.testing.assert_allclose(post, reference, atol=1e-12)

    for trial in range(6):
        d_in, d_out = (int(d) for d in rng.integers(2, 5, size=2))
        channel = random_cptp_map(d_in, d_out, 3, 600 + trial)
        adjoint_kraus = adjoint_map(channel).kraus
        predictions = inference._pull_back_reference(adjoint_kraus, (d_in,), (range(d_in),), (d_out,), (True,))
        for a in range(d_in):
            table = solve(basis_task(channel, "predict", a))
            np.testing.assert_allclose(table.probabilities(), predictions[a], atol=1e-12)
        numerators = inference._pull_back_reference(channel.kraus, (d_out,), (range(d_out),), (d_in,), (True,))
        for x in range(d_out):
            table = postdict_channel(channel, x)
            np.testing.assert_allclose(table.probabilities(), _normalized(numerators[x]), atol=1e-12)
            assert table.factor == pytest.approx(1.0 / numerators[x].sum(), rel=1e-12)

    for trial in range(4):
        d = int(rng.integers(2, 5))
        inst = random_instrument(d, 3, 2, 700 + trial)

        def task(direction, **given):
            return InferenceTask(inst, (d,), (d,), direction, (True,), (True,), **given)

        for a in range(d):
            reference = np.concatenate(
                [_reference_row(adjoint_map(qmap).kraus, (d,), (a,), (d,), (True,)) for _, qmap in inst.outcomes]
            )
            table = solve(task("predict", given_input=(a,)))
            np.testing.assert_allclose(table.probabilities(), reference, atol=1e-12)
        for label, qmap in inst.outcomes:
            for x in range(d):
                numerators = _reference_row(qmap.kraus, (d,), (x,), (d,), (True,))
                table = solve(task("postdict", given_output=(x,), given_outcome=label))
                np.testing.assert_allclose(table.probabilities(), _normalized(numerators), atol=1e-12)


def _pull_back_cases():
    # (kraus, dims_data, dims_guess): unitaries on equal and unequal
    # partitions, and channels with several Kraus operators
    rng = np.random.default_rng(77)
    cases = [
        (linalg.haar_random_unitary(12, 31)[None], (2, 6), (3, 4)),
        (linalg.haar_random_unitary(12, 32)[None], (3, 4), (2, 6)),
        (linalg.haar_random_unitary(12, 33)[None], (2, 2, 3), (3, 4)),
        (random_cptp_map(6, 4, 3, 34).kraus, (2, 2), (2, 3)),
        (random_cptp_map(8, 12, 2, 35).kraus, (3, 2, 2), (2, 2, 2)),
    ]
    for trial in range(4):
        dims_data = tuple(int(d) for d in rng.integers(2, 4, size=rng.integers(2, 4)))
        dims_guess = tuple(int(d) for d in rng.integers(2, 4, size=rng.integers(2, 4)))
        d_in, d_out = int(np.prod(dims_guess)), int(np.prod(dims_data))
        kraus_count = max(int(rng.integers(1, 4)), -(-d_in // d_out))
        channel = random_cptp_map(d_in, d_out, kraus_count, 40 + trial)
        cases.append((channel.kraus, dims_data, dims_guess))
    return cases


@pytest.mark.parametrize("kraus, dims_data, dims_guess", _pull_back_cases())
def test_pull_back_reference_matches_kron_oracle(kraus, dims_data, dims_guess):
    # every mix of given and ignored data factors, every non-empty guess mask
    for given_factors in itertools.product((False, True), repeat=len(dims_data)):
        outcomes = tuple(range(d) if g else None for d, g in zip(dims_data, given_factors))
        for mask in itertools.product((False, True), repeat=len(dims_guess)):
            if not any(mask):
                continue
            rows = inference._pull_back_reference(kraus, dims_data, outcomes, dims_guess, mask)
            combos = list(itertools.product(*((None,) if o is None else o for o in outcomes)))
            assert rows.shape == (len(combos), int(np.prod([d for d, m in zip(dims_guess, mask) if m])))
            for row, given in zip(rows, combos):
                oracle = kron_pull_back_oracle(kraus, dims_data, given, dims_guess, mask)
                np.testing.assert_allclose(row, oracle, atol=1e-12)


def test_pull_back_reference_batches_a_subset_of_outcomes_in_product_order():
    u = linalg.haar_random_unitary(12, 36)[None]
    rows = inference._pull_back_reference(u, (3, 4), ((2, 0), (3, 1, 1)), (2, 6), (False, True))
    combos = list(itertools.product((2, 0), (3, 1, 1)))
    assert rows.shape == (6, 6)
    for row, given in zip(rows, combos):
        np.testing.assert_allclose(row, kron_pull_back_oracle(u, (3, 4), given, (2, 6), (False, True)), atol=1e-12)


def test_pull_back_reference_never_calls_the_kernel(monkeypatch):
    def kernel(*args, **kwargs):
        raise AssertionError("the reference must not read the transition-array kernel")

    monkeypatch.setattr(inference, "_transitions", kernel)
    monkeypatch.setattr(inference, "_contract", kernel)
    u = linalg.haar_random_unitary(9, 37)
    rows = inference._pull_back_reference(u[None], (3, 3), (range(3), None), (3, 3), (True, False))
    assert rows.shape == (3, 3)
    channel = make_noisy_operation(linalg.haar_random_unitary(4, 38), (2, 2))
    assert inference._born_table(channel.kraus).min() >= 0.0
    with pytest.raises(AssertionError):
        open_reversal_check(u, (3, 3))


def single_row_contract(t, dims, roles, given):
    # one row by slicing: each given axis of T fixed at its outcome in
    # ``given``, each averaged one averaged, the summed ones summed out, and
    # the guessed cells flattened in T order
    t = t.reshape(dims)
    for axis in reversed(range(len(dims))):  # from the last, so the axes before keep their place
        if roles[axis] == GIVEN:
            assert 0 <= given[axis] < dims[axis]
            t = np.take(t, given[axis], axis=axis)
        elif roles[axis] == AVERAGED:
            t = t.mean(axis=axis)
    left = [role for role in roles if role not in DATA]
    return t.sum(axis=tuple(k for k, role in enumerate(left) if role == SUMMED)).reshape(-1)


_FACTOR_DIMS = st.lists(st.integers(2, 4), min_size=1, max_size=3)
ROLES = (GIVEN, AVERAGED, GUESSED, SUMMED)


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_every_batched_row_equals_the_single_row_kernel(data):
    kind = data.draw(st.sampled_from(["unitary", "channel", "instrument", "states"]), label="kind")
    dims_out = tuple(data.draw(_FACTOR_DIMS, label="dims_out"))
    d_out = int(np.prod(dims_out))
    seed = data.draw(st.integers(0, 2**31), label="seed")
    if kind == "channel":
        dims_in = tuple(data.draw(_FACTOR_DIMS, label="dims_in"))
        d_in = int(np.prod(dims_in))
        transformation = random_cptp_map(d_in, d_out, max(3, -(-d_in // d_out)), seed)
        states = None
    elif kind == "states":
        n = data.draw(st.integers(2, 4), label="states")
        dims_in = (n,)
        transformation = linalg.haar_random_unitary(d_out, seed)
        states = [linalg.haar_random_unitary(d_out, seed + 1 + i)[:, 0] for i in range(n)]
    else:
        dims_in = tuple(data.draw(st.permutations(dims_out), label="dims_in"))
        u = linalg.haar_random_unitary(d_out, seed)
        transformation = u if kind == "unitary" else random_instrument(d_out, 3, 2, seed)
        states = None
    # an instrument's array stacks one T per outcome: its outcome is the first axis
    t = inference._transitions(transformation, states)
    dims = t.shape[:-2] + dims_out + dims_in
    # any role on any axis, the task's arrangements and every other, with a guessed axis among them
    roles = tuple(data.draw(st.lists(st.sampled_from(ROLES), min_size=len(dims), max_size=len(dims))
                            .filter(lambda drawn: GUESSED in drawn), label="roles"))
    combos = list(itertools.product(*(range(d) if role == GIVEN else (None,) for d, role in zip(dims, roles))))
    rows = inference._contract(t.reshape(dims), roles)
    assert rows.shape[0] == len(combos)
    for row, given_data in zip(rows, combos):
        np.testing.assert_allclose(row, single_row_contract(t, dims, roles, given_data), rtol=0, atol=1e-14)


# (dims_in, dims_out) of the stacked-instance tests: unequal partitions, equal ones, and all of size 1
STACK_DIMS = [((2, 3), (3, 2)), ((3, 3), (3, 3)), ((1, 1), (1, 1))]


def _operand_stacks(d):
    # five Haar unitaries, and their adjoints, whose instances are laid out transposed
    us = linalg.haar_random_unitaries(d, range(140, 145))
    return us, linalg.dagger(us)


@pytest.mark.parametrize("dims_in, dims_out", STACK_DIMS)
def test_a_stacked_contraction_equals_each_instance_contracted_alone(dims_in, dims_out):
    for operands in _operand_stacks(int(np.prod(dims_in))):
        stack = inference._transitions(operands[:, None]).reshape(len(operands), *dims_out, *dims_in)
        for roles in itertools.product(ROLES, repeat=len(dims_out) + len(dims_in)):
            rows = inference._contract(stack, roles)
            assert rows.shape[0] == len(operands)
            for operand, instance_rows in zip(operands, rows):
                alone = inference._contract(inference._transitions(operand[None]).reshape(dims_out + dims_in), roles)
                assert np.array_equal(instance_rows, alone)


def test_a_stack_of_transposed_isometries_contracts_as_each_alone():
    # The purified no-signalling shape, where a single transposed array's rows
    # move in the last bit when it is copied to the other memory layout.
    for d_a in (2, 3, 4):
        chains = []
        for seed in range(3):
            v_e = purify_instrument(random_instrument(d_a, 2, 2, 10 * seed + d_a)).isometry
            v_f = purify_instrument(random_instrument(d_a, 2, 2, 10 * seed + d_a + 50)).isometry
            chains.append(np.einsum("zpqd,dmea->zpqmea", v_f, v_e, optimize=True))
        backs = linalg.dagger(np.stack([chain.reshape(1, -1, d_a) for chain in chains]))
        dims, roles = (d_a, *chains[0].shape[:-1]), (GIVEN, SUMMED, GUESSED, SUMMED, GUESSED, SUMMED)
        rows = inference._contract(inference._transitions(backs).reshape(len(backs), *dims), roles)
        for back, instance_rows in zip(backs, rows):
            assert np.array_equal(instance_rows, inference._contract(inference._transitions(back).reshape(dims), roles))


@pytest.mark.parametrize("dims_in, dims_out", STACK_DIMS)
def test_a_stacked_pull_back_equals_each_instance_pulled_back_alone(dims_in, dims_out):
    for operands in _operand_stacks(int(np.prod(dims_in))):
        # through U the data side is the output, through U' the input
        for dims_data, dims_guess in ((dims_out, dims_in), (dims_in, dims_out)):
            for given_factors in itertools.product((False, True), repeat=len(dims_data)):
                outcomes = tuple(range(d) if g else None for d, g in zip(dims_data, given_factors))
                for mask in itertools.product((False, True), repeat=len(dims_guess)):
                    args = (dims_data, outcomes, dims_guess, mask)
                    rows = inference._pull_back_reference(operands[:, None], *args)
                    assert rows.shape[0] == len(operands)
                    for operand, instance_rows in zip(operands, rows):
                        assert np.array_equal(instance_rows, inference._pull_back_reference(operand[None], *args))


@pytest.mark.parametrize("dims_in, dims_out", STACK_DIMS)
def test_open_reversal_check_on_a_stack_is_the_maximum_of_its_instances(dims_in, dims_out):
    us, _ = _operand_stacks(int(np.prod(dims_in)))
    stacked = open_reversal_check(us, dims_in, dims_out)
    alone = [open_reversal_check(u, dims_in, dims_out) for u in us]
    assert stacked == {name: max(defects[name] for defects in alone) for name in stacked}
    assert stacked["max"] < 1e-12


def test_open_reversal_check_checks_each_instance_of_a_stack():
    us, _ = _operand_stacks(4)
    us[3, 0, 0] += 1e-6
    with pytest.raises(ValueError, match="not unitary"):
        open_reversal_check(us, (2, 2))
    with pytest.raises(ValueError, match="at least one unitary"):
        open_reversal_check(us[:0], (2, 2))


@pytest.mark.parametrize(
    "channel",
    [amplitude_damping(0.3), make_dephasing(), random_cptp_map(3, 3, 2, 151), random_cptp_map(2, 3, 3, 152)],
    ids=["damping", "dephasing", "random-3", "random-2-to-3"],
)
def test_every_purified_row_equals_its_single_postdiction(channel):
    purification = stinespring(channel)
    for dilation in (purification, rotate_ancilla(purification, 153)):
        rows, _ = inference._bayes_rows(inference._purified_numerators(dilation.isometry))
        assert rows.shape == (channel.dim_out, channel.dim_in)
        for x, row in enumerate(rows):
            assert np.array_equal(row, postdict_channel_via_purification(channel, x, dilation).probabilities())
            # the pull-back V_x' V_x / d_Y of this one outcome, as a single matrix product
            v_x = dilation.isometry[x]
            numerators = np.diagonal(v_x.conj().T @ v_x).real / dilation.dims_out[1]
            assert np.array_equal(row, numerators / numerators.sum())


@pytest.mark.parametrize("outcome", [-1, -3, 3, 7])
def test_pull_back_reference_rejects_out_of_range_outcomes(outcome):
    u = linalg.haar_random_unitary(6, 39)
    with pytest.raises(ValueError, match="dimension 3"):
        inference._pull_back_reference(u[None], (3, 2), ((0, outcome), None), (2, 3), (True, True))


def _flipped(t):
    # Reversing the output axis keeps every column a distribution.  It is counted from the end, so it
    # is the output axis of an instance stack too, not the instance axis.
    return np.flip(t, axis=-2)


def _rolled(t):
    # Each column is still a distribution, attached to the wrong input.
    return np.roll(t, 1, axis=-1)


def _powered(t):
    # T^1.5, each column scaled back to its old sum: no permutation of T's entries.
    powered = t**1.5
    return powered * (t.sum(axis=-2, keepdims=True) / np.maximum(powered.sum(axis=-2, keepdims=True), 1e-300))


def _swapped(contract):
    def swapped(t, roles):
        lead = t.ndim - len(roles)
        data = [lead + axis for axis, role in enumerate(roles) if role in DATA]
        if len(data) >= 2 and t.shape[data[0]] == t.shape[data[1]]:
            t = np.swapaxes(t, data[0], data[1])
        return contract(t, roles)

    return swapped


def _averaged(contract):
    def averaged(t, roles):
        data = [axis for axis, role in enumerate(roles) if role in DATA]
        if len(data) >= 2 and roles[data[0]] == GIVEN:
            # Every outcome of the first data axis gets the rows averaged over it (np.tile repeats
            # the rows of each instance of a stack too).
            first = data[0]
            rows = contract(t, roles[:first] + (AVERAGED,) + roles[first + 1 :])
            return np.tile(rows, (t.shape[t.ndim - len(roles) + first], 1))
        return contract(t, roles)

    return averaged


def _after(mutate):
    # a mutant of _transitions: the original array, then mutated
    return lambda transitions: lambda *args: mutate(transitions(*args))


# Each mutation of the kernel: the stage it replaces, and the mutant built from the original stage.
KERNEL_MUTATIONS = {
    "flip": ("_transitions", _after(_flipped)),
    "roll": ("_transitions", _after(_rolled)),
    "power": ("_transitions", _after(_powered)),
    "swap": ("_contract", _swapped),
    "average": ("_contract", _averaged),
}
# The checks each mutation fails.  The data factors of 2 x 3 differ in dimension, so there swap reaches none.
DIRECT_CHECKS = {"closed-symmetry", "four-task", "open-ratio-laws", "open-reversal", "purified-ratio", "towards-past"}
MUTATION_FAILURES = {
    ("flip", "2x3"): DIRECT_CHECKS | {"channel-bayes-factor"},
    ("flip", "3x3"): DIRECT_CHECKS | {"channel-bayes-factor"},
    ("roll", "2x3"): DIRECT_CHECKS | {"channel-bayes-factor"},
    ("roll", "3x3"): DIRECT_CHECKS | {"channel-bayes-factor"},
    ("power", "2x3"): DIRECT_CHECKS | {"no-signalling-purified"},
    ("power", "3x3"): DIRECT_CHECKS | {"no-signalling-purified", "unital-symmetric-adjoint"},
    ("swap", "2x3"): set(),
    ("swap", "3x3"): {"open-ratio-laws", "open-reversal"},
    ("average", "2x3"): {"open-ratio-laws", "open-reversal"},
    ("average", "3x3"): {"open-ratio-laws", "open-reversal"},
}


@pytest.mark.parametrize("budget", [1, 3000, linalg.STACK_BYTES], ids=["one-per-stack", "3000", "default"])
@pytest.mark.parametrize("dims", ["2x3", "3x3"])
@pytest.mark.parametrize("mutation", KERNEL_MUTATIONS)
def test_verify_catches_each_kernel_mutation_in_any_byte_budget(monkeypatch, capsys, mutation, dims, budget):
    stage, mutant = KERNEL_MUTATIONS[mutation]
    monkeypatch.setattr(inference, stage, mutant(getattr(inference, stage)))
    monkeypatch.setattr(linalg, "STACK_BYTES", budget)
    code = main(["verify", "--dims", *dims.split("x"), "--format", "json"])
    failing = {c["name"] for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]}
    expected = MUTATION_FAILURES[mutation, dims]
    assert (code, failing) == (5 if expected else 0, expected)


@pytest.mark.parametrize("dims", [("2", "3"), ("3", "3"), ("4", "4")])
def test_verify_catches_an_image_map_that_drops_the_conjugate(monkeypatch, capsys, dims):
    def transposed(v):
        # sum_z v_z (x) v_z, the transfer matrix of rho -> sum_z v_z rho v_z^T.  On a dilation whose slices
        # are the K_k this is the same wrong sum as on the Kraus side; on a rotated one the two differ.
        *lead, d_x, _, d_a = v.shape
        return np.einsum("...xza,...yzb->...xyab", v, v).reshape(*lead, d_x * d_x, d_a * d_a)

    monkeypatch.setattr(purify, "_transfer", transposed)
    code = main(["verify", "--dims", *dims, "--format", "json"])
    assert code == 5
    failing = {c["name"]: c["defect"] for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]}
    assert "purified-ratio" in failing and failing["purified-ratio"] > 0.1


def permutation_matrix(dims, order):
    # P (v_0 x ... x v_{n-1}) = v_order[0] x ... x v_order[n-1]
    total = int(np.prod(dims))
    source = np.arange(total).reshape(dims).transpose(order).reshape(-1)
    return np.eye(total, dtype=complex)[source]


def purified_no_signalling_reference(e, f):
    # the chained dilation as a product of full unitaries, run backwards with data (a, 0, 0)
    pe, pf = purify_instrument(e), purify_instrument(f)
    d_a, d_be = pe.dims_in
    d_d = e.dim_out
    m_e, z_e = pe.pointer_partition
    d_bf = pf.dims_in[1]
    m_f, z_f = pf.pointer_partition
    u_e, u_f = completed_unitary(pe), completed_unitary(pf)
    step1 = np.kron(u_e, np.eye(d_bf, dtype=complex))
    perm = permutation_matrix((d_d, m_e, z_e, d_bf), (0, 3, 1, 2))
    step2 = np.kron(u_f, np.eye(m_e * z_e, dtype=complex))
    chain_back = (step2 @ perm @ step1).conj().T
    dims_out = (f.dim_out, m_f, z_f, m_e, z_e)
    defect = 0.0
    for a in range(d_a):
        joint = solve(
            InferenceTask(
                chain_back, dims_out, (d_a, d_be, d_bf), "postdict", (False, True, False, True, False),
                (True, True, True), given_output=(a, 0, 0),
            )
        )
        single = solve(
            InferenceTask(
                u_e.conj().T, (d_d, m_e, z_e), pe.dims_in, "postdict", (False, True, False), (True, True),
                given_output=(a, 0),
            )
        )
        for x in range(m_e):
            summed = sum(joint[join_labels(str(y), str(x))] for y in range(m_f))
            defect = max(defect, abs(summed - single[str(x)]))
    return defect


@pytest.mark.parametrize("d, outcomes", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_purified_no_signalling_matches_full_unitary_reference(d, outcomes):
    e = random_instrument(d, outcomes, 2, 93 + d)
    f = random_instrument(d, outcomes, 2, 94 + d)
    defect = inference._purified_no_signalling_defects(*(purify_instrument(i).isometry[None] for i in (e, f)))[0]
    assert defect < 1e-12
    assert abs(defect - purified_no_signalling_reference(e, f)) < 1e-12
