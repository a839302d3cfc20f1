"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print; without ``-s`` pytest shows them for failing criteria only.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from retrodict import linalg
from retrodict.channels import (
    QuantumMap,
    adjoint_map,
    amplitude_damping,
    classify,
    make_dephasing,
    make_noisy_operation,
    random_cptp_map,
    random_instrument,
)
from retrodict.cli import main
from retrodict.inference import (
    InferenceTask,
    _sampled_table_asymmetry,
    channel_toward_past_check,
    deterministic_effect_check,
    four_task_check,
    is_inference_symmetric,
    no_signalling_check,
    postdict_channel,
    postdict_channel_via_purification,
    postdict_open,
    predict_open,
    solve,
)
from retrodict.purify import rotate_ancilla, stinespring, verify_purification
from retrodict.sampler import compare, empirical_conditionals, run_ensemble

from seeded_draws import random_density_matrix

FIXTURES = Path(__file__).parent / "fixtures"
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status} [{detail}]")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_closed_inference_symmetry():
    start = time.monotonic()
    worst = 0.0
    count = 0
    while count < 50:
        for d in range(2, 9):
            if count == 50:
                break
            u = linalg.haar_random_unitary(d, 1000 + count)
            task = _closed_task(u)
            pre = [solve(replace(task, given_input=(a,))).probabilities() for a in range(d)]
            post = [solve(replace(task, direction="postdict", given_output=(x,))).probabilities() for x in range(d)]
            worst = max(worst, float(np.max(np.abs(np.transpose(pre) - np.array(post)))))
            count += 1
    elapsed = time.monotonic() - start
    report(
        1,
        "closed inference symmetry",
        worst < 1e-12 and elapsed < 5.0,
        f"max defect {worst:.2e} over 50 unitaries, {elapsed:.2f}s",
    )


def test_criterion_2_open_ratio_laws():
    start = time.monotonic()
    worst = 0.0
    equality_worst = 0.0
    cases = [(2, 2)] * 7 + [(2, 3)] * 7 + [(3, 2)] * 6
    for seed, (d_a, d_b) in enumerate(cases):
        u = linalg.haar_random_unitary(d_a * d_b, 2000 + seed)
        dims = (d_a, d_b)
        for a in range(d_a):
            pre_x = predict_open(u, dims, dims, (a, None), (True, False))
            pre_xy = predict_open(u, dims, dims, (a, None), (True, True))
            for x in range(d_a):
                post_a = postdict_open(u, dims, dims, (x, None), (True, False))
                worst = max(worst, abs(d_b * post_a[str(a)] - d_b * pre_x[str(x)]))
                if d_a == d_b == 2:
                    # d_B = d_Y: prediction and postdiction coincide outright
                    equality_worst = max(equality_worst, abs(post_a[str(a)] - pre_x[str(x)]))
                for y in range(d_b):
                    post_row = postdict_open(u, dims, dims, (x, y), (True, False))
                    worst = max(worst, abs(post_row[str(a)] - d_b * pre_xy[f"{x}·{y}"]))
            for b in range(d_b):
                pre_ab = predict_open(u, dims, dims, (a, b), (True, False))
                for x in range(d_a):
                    post_ab = postdict_open(u, dims, dims, (x, None), (True, True))
                    worst = max(worst, abs(post_ab[f"{a}·{b}"] - pre_ab[str(x)] / d_b))
    elapsed = time.monotonic() - start
    report(
        2,
        "open-system ratio laws",
        worst < 1e-12 and equality_worst < 1e-12 and elapsed < 10.0,
        f"max defect {worst:.2e}, equality case {equality_worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_channel_postdiction_oracle():
    channel = amplitude_damping(0.5)
    # independently coded oracle: hand prediction values, flat-prior Bayes step
    oracle = {}
    for x, pre in ((0, {0: 1.0, 1: 0.5}), (1, {0: 0.0, 1: 0.5})):
        evidence = 0.5 * (pre[0] + pre[1])
        oracle[x] = ({a: 0.5 * pre[a] / evidence for a in (0, 1)}, 1.0 / (pre[0] + pre[1]))
    worst = 0.0
    for x in (0, 1):
        table = postdict_channel(channel, x)
        expected, factor = oracle[x]
        worst = max(
            worst,
            abs(table["0"] - expected[0]),
            abs(table["1"] - expected[1]),
            abs(table.factor - factor),
        )
    expected_values = (
        oracle[0][0][0] == 2 / 3
        and oracle[0][0][1] == 1 / 3
        and oracle[0][1] == 2 / 3
        and oracle[1][0][1] == 1.0
        and oracle[1][1] == 2.0
    )
    report(
        3,
        "channel postdiction",
        worst < 1e-12 and expected_values,
        f"max deviation from Bayes oracle {worst:.2e}",
    )


def test_criterion_4_purification_round_trip_and_ratio():
    start = time.monotonic()
    worst_round_trip = 0.0
    worst_ratio = 0.0
    seed = 0
    for d_a in (2, 3):
        for d_b in (2, 3):
            for _ in range(5):
                channel = make_noisy_operation(
                    linalg.haar_random_unitary(d_a * d_b, 3000 + seed), (d_a, d_b)
                )
                purification = stinespring(channel)
                worst_round_trip = max(
                    worst_round_trip, verify_purification(channel, purification, trials=5, seed=seed)
                )
                rotated = rotate_ancilla(purification, seed=4000 + seed)
                worst_round_trip = max(
                    worst_round_trip, verify_purification(channel, rotated, trials=3, seed=seed)
                )
                for x in range(d_a):
                    direct = postdict_channel(channel, x)
                    via = postdict_channel_via_purification(channel, x, purification)
                    via_rotated = postdict_channel_via_purification(channel, x, rotated)
                    worst_ratio = max(
                        worst_ratio, direct.max_difference(via), direct.max_difference(via_rotated)
                    )
                seed += 1
    elapsed = time.monotonic() - start
    report(
        4,
        "purification round trip and ratio law",
        worst_round_trip < 1e-10 and worst_ratio < 1e-10 and elapsed < 30.0 and seed == 20,
        f"round trip {worst_round_trip:.2e}, ratio {worst_ratio:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5_unital_symmetric_adjoint_equivalence():
    suite = []
    for t in range(3):
        for d in (2, 3):
            suite.append((QuantumMap((linalg.haar_random_unitary(d, 5000 + t),), d, d), True))
    suite.append((make_dephasing(), True))
    seed = 0
    for d_a in (2, 3):
        for d_b in (2, 3):
            for _ in range(5):
                suite.append(
                    (
                        make_noisy_operation(
                            linalg.haar_random_unitary(d_a * d_b, 6000 + seed), (d_a, d_b)
                        ),
                        True,
                    )
                )
                seed += 1
    for gamma in (0.25, 0.5, 0.9):
        suite.append((amplitude_damping(gamma), False))

    disagreements = 0
    # the tables themselves, which the three predicates below never build
    gaps = _sampled_table_asymmetry([channel for channel, _ in suite], 0)
    for (channel, expected), gap in zip(suite, gaps):
        unital = classify(channel).is_unital
        symmetric = is_inference_symmetric(channel)
        adjoint_info = classify(adjoint_map(channel))
        adjoint_cptp = adjoint_info.is_cp and adjoint_info.is_tp
        sampled = gap < 1e-9
        if not (unital == symmetric == adjoint_cptp == sampled == expected):
            disagreements += 1
    report(
        5,
        "unital = inference-symmetric = adjoint-CPTP",
        disagreements == 0 and len(suite) == 30,
        f"{disagreements} disagreements over {len(suite)} channels",
    )


def test_criterion_6_four_task_and_time_reversal():
    worst_closed = 0.0
    for t in range(20):
        u = linalg.haar_random_unitary(4, 7000 + t)
        worst_closed = max(worst_closed, four_task_check(u).max_defect)
        for a in range(4):
            for x in range(4):
                # the closed time-reversal relation, both sides independent
                worst_closed = max(
                    worst_closed,
                    abs(
                        solve(replace(_closed_task(u.conj().T), given_input=(x,)))[str(a)]
                        - solve(replace(_closed_task(u), given_input=(a,)))[str(x)]
                    ),
                )
    worst_open = 0.0
    from retrodict.inference import open_reversal_check

    for t in range(20):
        u = linalg.haar_random_unitary(4, 7100 + t)
        worst_open = max(worst_open, open_reversal_check(u, (2, 2))["max"])
    worst_past = 0.0
    for t in range(20):
        if t % 2:
            channel = random_cptp_map(2, 2, 2, 7200 + t)
        else:
            channel = make_noisy_operation(linalg.haar_random_unitary(4, 7300 + t), (2, 2))
        worst_past = max(worst_past, channel_toward_past_check(channel).max_defect)
    report(
        6,
        "four-task and time-reversal identities",
        worst_closed < 1e-12 and worst_open < 1e-12 and worst_past < 1e-10,
        f"closed {worst_closed:.2e}, open {worst_open:.2e}, towards-past {worst_past:.2e}",
    )


def test_criterion_7_no_signalling():
    worst_channel = 0.0
    worst_purified = 0.0
    for t in range(20):
        e = random_instrument(2, 2, 2, 8000 + t)
        f = random_instrument(2, 2, 2, 8100 + t)
        rho = random_density_matrix(2, 8200 + t)
        outcome = no_signalling_check(e, f, rho, extra_followers=2, seed=8300 + t)
        worst_channel = max(worst_channel, outcome.marginal_defect, outcome.conditional_defect)
        worst_purified = max(worst_purified, outcome.purified_defect)
    report(
        7,
        "no signalling from the further unknown",
        worst_channel < 1e-12 and worst_purified < 1e-10,
        f"channel level {worst_channel:.2e}, purified {worst_purified:.2e}",
    )


def test_criterion_8_unique_deterministic_effect():
    worst_solution = 0.0
    min_alternative = np.inf
    min_singular = np.inf
    for t in range(20):
        d = 2 if t % 2 else 3
        channel = random_cptp_map(d, d, 2, 9000 + t)
        outcome = deterministic_effect_check(channel, seed=t)
        worst_solution = max(worst_solution, outcome.solution_defect)
        min_alternative = min(min_alternative, outcome.min_alternative_residual)
        min_singular = min(min_singular, outcome.min_singular_value)
    report(
        8,
        "unique deterministic effect",
        worst_solution < 1e-8 and min_alternative > 1e-6 and min_singular > 1e-6,
        f"flat-solution defect {worst_solution:.2e}, min alternative residual {min_alternative:.2e}",
    )


def _closed_task(u):
    return InferenceTask(
        transformation=u,
        dims_in=(u.shape[0],),
        dims_out=(u.shape[0],),
        direction="predict",
        known_input_mask=(True,),
        known_output_mask=(True,),
    )


def _channel_task(channel):
    return InferenceTask(
        transformation=channel,
        dims_in=(channel.dim_in,),
        dims_out=(channel.dim_out,),
        direction="predict",
        known_input_mask=(True,),
        known_output_mask=(True,),
    )


def test_criterion_9_monte_carlo_validation():
    start = time.monotonic()
    shots = 100_000
    states = (linalg.basis_ket(2, 0), np.array([1, 1], dtype=complex) / np.sqrt(2))
    general_task = InferenceTask(
        transformation=np.eye(2, dtype=complex),
        dims_in=(2,),
        dims_out=(2,),
        direction="predict",
        known_input_mask=(True,),
        known_output_mask=(True,),
        preparation_states=states,
    )

    def analytic_rows(task):
        # each scenario's solved rows: two alternatives (basis states or prepared states) and two outputs
        pre = {str(a): solve(replace(task, given_input=(a,))) for a in range(2)}
        post = {str(x): solve(replace(task, direction="postdict", given_output=(x,))) for x in range(2)}
        return pre, post

    scenarios = [
        ("hadamard", _closed_task(HADAMARD), 901),
        ("dephasing", _channel_task(make_dephasing()), 902),
        ("damping", _channel_task(amplitude_damping(0.5)), 903),
        ("general-prep", general_task, 904),
    ]
    all_ok = True
    worst = 0.0
    for _, task, seed in scenarios:
        result = run_ensemble(task, shots, seed)
        again = run_ensemble(task, shots, seed)
        all_ok = all_ok and result.joint_counts == again.joint_counts
        pre_rows, post_rows = analytic_rows(task)
        for direction, rows in (("predict", pre_rows), ("postdict", post_rows)):
            empirical = empirical_conditionals(result, direction)
            for given, row in empirical.items():
                outcome = compare(row, rows[given], shots)
                worst = max(worst, outcome.max_deviation)
                all_ok = all_ok and outcome.passed
    elapsed = time.monotonic() - start
    report(
        9,
        "Monte Carlo frequentist validation",
        all_ok and elapsed < 60.0,
        f"max empirical deviation {worst:.4f} at {shots} shots, {elapsed:.1f}s",
    )


def test_criterion_10_cli_end_to_end(capsys):
    verify_code = main(["verify", "--scenario", str(FIXTURES / "verify_small.json")])
    bad_matrix_code = main(["predict", "--scenario", str(FIXTURES / "bad_nonunitary.json")])
    impossible_code = main(
        ["postdict", "--scenario", str(FIXTURES / "bad_impossible_conditioning.json")]
    )
    capsys.readouterr()
    report(
        10,
        "CLI end to end",
        verify_code == 0 and bad_matrix_code == 3 and impossible_code == 4,
        f"verify exit {verify_code}, non-unitary exit {bad_matrix_code}, "
        f"impossible conditioning exit {impossible_code}",
    )
