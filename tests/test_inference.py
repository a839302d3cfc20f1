import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrodict import inference, linalg
from retrodict.channels import (
    Instrument,
    QuantumMap,
    adjoint_map,
    amplitude_damping,
    apply,
    classify,
    computational_measurement,
    identity_instrument,
    make_dephasing,
    make_noisy_operation,
    make_unitary_channel,
    projective_instrument,
    random_cptp_map,
    random_instrument,
)
from retrodict.cli import main
from retrodict.errors import NoActiveReverseError, UndefinedConditionalError
from retrodict.inference import (
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
    postdict_closed,
    postdict_general_prep,
    postdict_open,
    predict_channel,
    predict_closed,
    predict_general_prep,
    predict_open,
    solve,
    time_reverse,
)
from retrodict.purify import purify_instrument, rotate_ancilla, stinespring
from retrodict.tables import bayes_invert, join_labels

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


# ---------------------------------------------------------------------------
# Closed systems
# ---------------------------------------------------------------------------


def test_predict_closed_identity():
    table = predict_closed(np.eye(2, dtype=complex), 0)
    assert table["0"] == 1.0 and table["1"] == 0.0


def test_predict_closed_hadamard():
    table = predict_closed(HADAMARD, 0)
    assert table["0"] == pytest.approx(0.5, abs=1e-14)
    assert table["1"] == pytest.approx(0.5, abs=1e-14)


def test_predict_closed_haar_against_oracle():
    u = linalg.haar_random_unitary(4, 11)
    table = predict_closed(u, 2)
    for x in range(4):
        assert table[str(x)] == pytest.approx(born_oracle(u, 2, x), abs=1e-14)
    assert abs(table.probabilities().sum() - 1.0) < 1e-12


def test_predict_closed_rejects_non_unitary():
    with pytest.raises(ValueError):
        predict_closed(np.array([[1, 1], [0, 1]], dtype=complex), 0)


def test_postdict_closed_identity():
    table = postdict_closed(np.eye(2, dtype=complex), 1)
    assert table["0"] == 0.0 and table["1"] == 1.0


def test_postdict_closed_hadamard():
    table = postdict_closed(HADAMARD, 0)
    assert table["0"] == pytest.approx(0.5, abs=1e-14)
    assert table["1"] == pytest.approx(0.5, abs=1e-14)


def test_postdict_closed_is_bayes_inversion_of_prediction():
    # oracle: flat-prior Bayes inversion assembled from predict_closed rows only
    u = linalg.haar_random_unitary(8, 13)
    rows = {str(a): predict_closed(u, a) for a in range(8)}
    for x in range(8):
        oracle = bayes_invert(rows, str(x))
        table = postdict_closed(u, x)
        assert table.max_difference(oracle) < 1e-12


def test_closed_inference_symmetry_sweep():
    # postdiction table equals the transposed prediction table
    for seed, d in enumerate(range(2, 9)):
        u = linalg.haar_random_unitary(d, 50 + seed)
        pre = np.stack([predict_closed(u, a).probabilities() for a in range(d)], axis=1)
        post = np.stack([postdict_closed(u, x).probabilities() for x in range(d)], axis=0)
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
    table = predict_channel(make_unitary_channel(np.eye(2, dtype=complex)), 1)
    assert table["0"] == 0.0 and table["1"] == 1.0


def test_predict_channel_dephasing_fixed_points():
    table = predict_channel(make_dephasing(), 0)
    assert table["0"] == pytest.approx(1.0, abs=1e-14)


def test_predict_channel_amplitude_damping():
    table = predict_channel(amplitude_damping(0.5), 1)
    # oracle: tr |0><0| K1 |1><1| K1' = 0.5 and tr |1><1| K0 |1><1| K0' = 0.5
    assert table["0"] == pytest.approx(0.5, abs=1e-14)
    assert table["1"] == pytest.approx(0.5, abs=1e-14)


def test_predict_channel_rejects_non_cptp():
    from retrodict.channels import QuantumMap

    with pytest.raises(ValueError):
        predict_channel(QuantumMap((np.eye(2, dtype=complex) / 2,), 2, 2), 0)


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
            assert post[str(a)] == pytest.approx(predict_channel(channel, a)[str(x)], abs=1e-12)


def test_postdict_channel_factor_relates_the_tables():
    # P_post = f(x) * P_pre holds entry by entry
    channel = random_cptp_map(3, 3, 2, 43)
    for x in range(3):
        post = postdict_channel(channel, x)
        for a in range(3):
            assert post[str(a)] == pytest.approx(
                post.factor * predict_channel(channel, a)[str(x)], abs=1e-12
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
    channel = make_unitary_channel(u)
    for x in range(3):
        via = postdict_channel_via_purification(channel, x)
        assert via.max_difference(postdict_closed(u, x)) < 1e-12


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
    rows = predict_general_prep(states, u)
    for i in range(3):
        assert rows[i].max_difference(predict_closed(u, i)) < 1e-14
    for x in range(3):
        assert postdict_general_prep(states, u, x).max_difference(postdict_closed(u, x)) < 1e-14


def test_general_prep_two_states_given_zero():
    states = [linalg.basis_ket(2, 0), PLUS]
    table = postdict_general_prep(states, np.eye(2, dtype=complex), 0)
    assert table["0"] == pytest.approx(2 / 3, abs=1e-12)
    assert table["1"] == pytest.approx(1 / 3, abs=1e-12)


def test_general_prep_two_states_given_one():
    states = [linalg.basis_ket(2, 0), PLUS]
    table = postdict_general_prep(states, np.eye(2, dtype=complex), 1)
    assert table["0"] == pytest.approx(0.0, abs=1e-12)
    assert table["1"] == pytest.approx(1.0, abs=1e-12)


def test_general_prep_rejects_unnormalized_state():
    with pytest.raises(ValueError):
        predict_general_prep([np.array([1.0, 1.0])], np.eye(2, dtype=complex))


def test_general_prep_rejects_nan_state():
    with pytest.raises(ValueError, match="not normalized"):
        predict_general_prep([np.array([np.nan, 0.0])], np.eye(2, dtype=complex))


def test_general_prep_purified_check_orthonormal():
    u = linalg.haar_random_unitary(2, 61)
    states = [linalg.basis_ket(2, 0), linalg.basis_ket(2, 1)]
    outcome = general_prep_purified_check(states, u, 0)
    assert outcome.max_defect < 1e-10
    assert outcome.direct.max_difference(postdict_closed(u, 0)) < 1e-12


def test_general_prep_purified_check_nonorthogonal():
    states = [linalg.basis_ket(2, 0), PLUS]
    for u in (np.eye(2, dtype=complex), HADAMARD):
        for x in range(2):
            assert general_prep_purified_check(states, u, x).max_defect < 1e-10


# ---------------------------------------------------------------------------
# Time reversal
# ---------------------------------------------------------------------------


def make_closed_task(u, a):
    return InferenceTask(
        transformation=u,
        dims_in=(u.shape[0],),
        dims_out=(u.shape[0],),
        direction="predict",
        known_input_mask=(True,),
        known_output_mask=(True,),
        given_input=(a,),
    )


def test_time_reverse_identity_task():
    task = make_closed_task(np.eye(2, dtype=complex), 0)
    reversed_task = time_reverse(task)
    assert reversed_task.direction == "postdict"
    assert solve(task).max_difference(solve(reversed_task)) < 1e-14


def test_time_reverse_solution_is_unchanged_for_unitaries():
    u = linalg.haar_random_unitary(4, 67)
    for a in range(4):
        task = make_closed_task(u, a)
        assert solve(task).max_difference(solve(time_reverse(task))) < 1e-12


def test_time_reverse_closed_relation():
    # P_pre(a | x, U') == P_pre(x | a, U) with U' the adjoint
    u = linalg.haar_random_unitary(5, 71)
    for a in range(5):
        for x in range(5):
            assert predict_closed(u.conj().T, x)[str(a)] == pytest.approx(
                predict_closed(u, a)[str(x)], abs=1e-12
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
    for e in linalg.matrix_units(2):
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
    report = four_task_check(np.eye(2, dtype=complex), 0, 0)
    assert report.reference == 1.0
    assert report.max_defect < 1e-14


def test_four_task_hadamard():
    for a in range(2):
        for x in range(2):
            report = four_task_check(HADAMARD, a, x)
            assert report.reference == pytest.approx(0.5, abs=1e-14)
            assert report.max_defect < 1e-12


def test_four_task_haar():
    u = linalg.haar_random_unitary(4, 73)
    report = four_task_check(u, 1, 3)
    assert report.reference == pytest.approx(born_oracle(u, 1, 3), abs=1e-14)
    assert report.max_defect < 1e-12


def test_four_task_bistochastic_channel():
    channel = make_noisy_operation(linalg.haar_random_unitary(4, 79), (2, 2))
    for a in range(2):
        for x in range(2):
            assert four_task_check(channel, a, x).max_defect < 1e-12


def test_four_task_rejects_non_unital_channel():
    with pytest.raises(ValueError):
        four_task_check(amplitude_damping(0.5), 0, 0)


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
    channel = make_unitary_channel(u)
    for a in range(3):
        for x in range(3):
            report = channel_toward_past_check(channel, a, x)
            assert report.defect < 1e-10
            assert report.born_value == pytest.approx(born_oracle(u, a, x), abs=1e-12)


def test_towards_past_dephasing():
    for a in range(2):
        for x in range(2):
            assert channel_toward_past_check(make_dephasing(), a, x).defect < 1e-10


def test_towards_past_amplitude_damping():
    # holds even though no active reversal of the channel exists
    for a in range(2):
        for x in range(2):
            assert channel_toward_past_check(amplitude_damping(0.5), a, x).defect < 1e-10


def completed_unitary(purification):
    # a unitary U on A (x) B with U(|a> (x) |0>_B) = V|a>, as the report prints it
    d_a, d_b = purification.dims_in
    return linalg.complete_to_unitary(purification.isometry.reshape(-1, d_a), [a * d_b for a in range(d_a)])


def towards_past_reference(purification, a, x):
    # the postdiction on the full unitary U' with data (a, 0): output a, ancilla at |0>
    table = inference._solve_table(
        inference._transition_arrays(completed_unitary(purification).conj().T),
        purification.dims_in,
        purification.dims_out,
        "postdict",
        (a, 0),
        (True, False),
    )
    return table[str(x)]


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_towards_past_matches_full_unitary_reference(d_a, d_b):
    channel = make_noisy_operation(linalg.haar_random_unitary(d_a * d_b, 91 + d_a * d_b), (d_a, d_b))
    for purification in (stinespring(channel), rotate_ancilla(stinespring(channel), seed=92)):
        for a in range(d_a):
            for x in range(d_a):
                report = channel_toward_past_check(channel, a, x, purification)
                reference = towards_past_reference(purification, a, x)
                assert abs(report.reversed_postdiction - reference) < 1e-12
                assert report.defect < 1e-10


# ---------------------------------------------------------------------------
# No signalling
# ---------------------------------------------------------------------------


def test_no_signalling_identity_follower():
    e = computational_measurement(2)
    f = identity_instrument(2)
    rho = linalg.random_density_matrix(2, 97)
    report = no_signalling_check(e, f, rho, extra_followers=0)
    assert report.marginal_defect < 1e-12


def test_no_signalling_z_then_x():
    e = computational_measurement(2)
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
        rho = linalg.random_density_matrix(2, 400 + seed)
        report = no_signalling_check(e, f, rho, extra_followers=2, seed=seed)
        assert report.marginal_defect < 1e-12
        assert report.conditional_defect < 1e-12
        assert report.purified_defect < 1e-10


def test_no_signalling_rejects_incomposable():
    with pytest.raises(ValueError):
        no_signalling_check(
            computational_measurement(2),
            computational_measurement(3),
            np.eye(2) / 2,
        )


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
        (make_unitary_channel(linalg.haar_random_unitary(2, 103)), True),
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
        assert unital == symmetric == adjoint_cptp == expected


def test_deterministic_effect_unique_for_random_channels():
    for seed in range(10):
        channel = random_cptp_map(2, 2, 2, 500 + seed)
        report = deterministic_effect_check(channel, seed=seed)
        assert report.unique_flat_solution
        assert report.solution_defect < 1e-8
        assert report.min_alternative_residual > 1e-6


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
        transformation=computational_measurement(2),
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
    rows = [table.probabilities() for table in predict_general_prep(states, HADAMARD)]
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


def test_table_asymmetry_matches_the_solved_tables():
    # oracle: the largest gap between every solved prediction column and postdiction row
    for channel in (amplitude_damping(0.3), random_cptp_map(3, 3, 2, 71), random_cptp_map(2, 3, 3, 72)):
        gap = 0.0
        for x in range(channel.dim_out):
            post = postdict_channel(channel, x)
            for a in range(channel.dim_in):
                gap = max(gap, abs(predict_channel(channel, a)[str(x)] - post[str(a)]))
        assert inference._table_asymmetry(channel) == pytest.approx(gap, abs=1e-15)
    # an output that no input reaches has no postdiction row
    assert inference._table_asymmetry(amplitude_damping(1.0)) == 1.0


def test_solve_rejects_an_unknown_instrument_outcome():
    task = InferenceTask(
        computational_measurement(2), (2,), (2,), "postdict", (True,), (True,), given_output=(0,), given_outcome="7"
    )
    with pytest.raises(ValueError, match="no outcome labelled"):
        solve(task)


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


def test_kernel_matches_pull_back_reference_on_random_tasks():
    rng = np.random.default_rng(2024)
    for trial in range(12):
        dims, given, mask = _random_open_case(rng)
        u = linalg.haar_random_unitary(int(np.prod(dims)), 500 + trial)
        ud = u.conj().T
        pre = predict_open(u, dims, dims, given, mask).probabilities()
        np.testing.assert_allclose(pre, _reference_row((ud,), dims, given, dims, mask), atol=1e-12)
        post = postdict_open(u, dims, dims, given, mask).probabilities()
        reference = _normalized(_reference_row((u,), dims, given, dims, mask))
        np.testing.assert_allclose(post, reference, atol=1e-12)

    for trial in range(6):
        d_in, d_out = (int(d) for d in rng.integers(2, 5, size=2))
        channel = random_cptp_map(d_in, d_out, 3, 600 + trial)
        adjoint_kraus = adjoint_map(channel).kraus
        predictions = inference._pull_back_reference(adjoint_kraus, (d_in,), (range(d_in),), (d_out,), (True,))
        for a in range(d_in):
            np.testing.assert_allclose(predict_channel(channel, a).probabilities(), predictions[a], atol=1e-12)
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
        ((linalg.haar_random_unitary(12, 31),), (2, 6), (3, 4)),
        ((linalg.haar_random_unitary(12, 32),), (3, 4), (2, 6)),
        ((linalg.haar_random_unitary(12, 33),), (2, 2, 3), (3, 4)),
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
    u = linalg.haar_random_unitary(12, 36)
    rows = inference._pull_back_reference((u,), (3, 4), ((2, 0), (3, 1, 1)), (2, 6), (False, True))
    combos = list(itertools.product((2, 0), (3, 1, 1)))
    assert rows.shape == (6, 6)
    for row, given in zip(rows, combos):
        np.testing.assert_allclose(row, kron_pull_back_oracle((u,), (3, 4), given, (2, 6), (False, True)), atol=1e-12)


def test_pull_back_reference_never_calls_the_kernel(monkeypatch):
    def kernel(*args, **kwargs):
        raise AssertionError("the reference must not read the transition-array kernel")

    monkeypatch.setattr(inference, "_transitions", kernel)
    monkeypatch.setattr(inference, "_contract", kernel)
    u = linalg.haar_random_unitary(9, 37)
    rows = inference._pull_back_reference((u,), (3, 3), (range(3), None), (3, 3), (True, False))
    assert rows.shape == (3, 3)
    channel = make_noisy_operation(linalg.haar_random_unitary(4, 38), (2, 2))
    assert inference._born_reference(channel.kraus, 1, 0) >= 0.0
    with pytest.raises(AssertionError):
        open_reversal_check(u, (3, 3))


@pytest.mark.parametrize("outcome", [-1, -3, 3, 7])
def test_pull_back_reference_rejects_out_of_range_outcomes(outcome):
    u = linalg.haar_random_unitary(6, 39)
    with pytest.raises(ValueError, match="dimension 3"):
        inference._pull_back_reference((u,), (3, 2), ((0, outcome), None), (2, 3), (True, True))
    with pytest.raises(ValueError, match="dimension 3"):
        inference._born_reference((linalg.haar_random_unitary(3, 40),), 0, outcome)


def _verify_failures(capsys):
    code = main(["verify", "--dims", "3", "3", "--format", "json"])
    failing = {c["name"] for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]}
    return code, failing


def test_verify_catches_a_kernel_that_swaps_two_data_factors(monkeypatch, capsys):
    original = inference._contract

    def swapped(t, dims_out, dims_in, direction, given, mask):
        data_dims = dims_in if direction == "predict" else dims_out
        if len(data_dims) >= 2 and data_dims[0] == data_dims[1]:
            # exchange the first two data factors' axes of T
            n_out = len(dims_out)
            first = n_out if direction == "predict" else 0
            t = np.swapaxes(t.reshape(tuple(dims_out) + tuple(dims_in)), first, first + 1)
        return original(t, dims_out, dims_in, direction, given, mask)

    monkeypatch.setattr(inference, "_contract", swapped)
    code, failing = _verify_failures(capsys)
    assert code == 5
    assert {"open-reversal", "open-ratio-laws"} <= failing


def test_verify_catches_a_kernel_that_averages_a_fixed_factor(monkeypatch, capsys):
    original = inference._contract

    def averaged(t, dims_out, dims_in, direction, given, mask):
        if len(given) >= 2 and given[0] is not None:
            given = (None,) + tuple(given[1:])
        return original(t, dims_out, dims_in, direction, given, mask)

    monkeypatch.setattr(inference, "_contract", averaged)
    code, failing = _verify_failures(capsys)
    assert code == 5
    assert {"open-reversal", "open-ratio-laws"} <= failing


def test_verify_catches_a_wrong_but_normalized_kernel(monkeypatch, capsys):
    original = inference._transitions

    def outcome_axis_reversed(*args, **kwargs):
        # Reversing the outcome axis keeps every column a distribution.
        return original(*args, **kwargs)[::-1]

    monkeypatch.setattr(inference, "_transitions", outcome_axis_reversed)
    code = main(["verify", "--dims", "2", "3", "--format", "json"])
    assert code == 5
    failing = {c["name"] for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]}
    assert {"open-reversal", "open-ratio-laws", "four-task", "purified-ratio"} <= failing


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
    chain_back = inference._transition_arrays((step2 @ perm @ step1).conj().T)
    single_back = inference._transition_arrays(u_e.conj().T)
    dims_out = (f.dim_out, m_f, z_f, m_e, z_e)
    defect = 0.0
    for a in range(d_a):
        joint = inference._solve_table(
            chain_back, (d_a, d_be, d_bf), dims_out, "postdict", (a, 0, 0), (False, True, False, True, False)
        )
        single = inference._solve_table(
            single_back, pe.dims_in, (d_d, m_e, z_e), "postdict", (a, 0), (False, True, False)
        )
        for x in range(m_e):
            summed = sum(joint[join_labels(str(y), str(x))] for y in range(m_f))
            defect = max(defect, abs(summed - single[str(x)]))
    return defect


@pytest.mark.parametrize("d, outcomes", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_purified_no_signalling_matches_full_unitary_reference(d, outcomes):
    e = random_instrument(d, outcomes, 2, 93 + d)
    f = random_instrument(d, outcomes, 2, 94 + d)
    defect = inference._purified_no_signalling_defect(e, f)
    assert defect < 1e-12
    assert abs(defect - purified_no_signalling_reference(e, f)) < 1e-12
