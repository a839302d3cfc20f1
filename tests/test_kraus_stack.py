"""A map's Kraus list is one stacked array, and the batched kernels on it
give the same bits as one operator at a time."""

import numpy as np
import pytest

from retrodict import inference, linalg
from retrodict.channels import (
    QuantumMap,
    _noisy_kraus,
    _random_kraus_stacks,
    adjoint_map,
    amplitude_damping,
    apply,
    coarse_grain,
    compose_sequential,
    kraus_gram,
    make_dephasing,
    make_noisy_operation,
    random_cptp_map,
    random_instrument,
)
from retrodict.inference import GIVEN, GUESSED, SUMMED
from retrodict.purify import purify_instrument, rotate_ancilla, stinespring, verify_purification
from retrodict.tables import join_labels

from seeded_draws import random_density_matrix

COUNTS = [1, 2, 4, 9, 36]
# numpy's axis-0 sum departs from list order in the last bit for some of the
# 1 x 1 stacks (verify --dims 1 1), so each count gets several of them.
SEEDS = range(12)


def channels_with(n):
    return [random_cptp_map(d, d, n, 100 * n + seed) for seed in SEEDS for d in (1, 2, 3)]


# ---------------------------------------------------------------------------
# The QuantumMap contract
# ---------------------------------------------------------------------------


def test_kraus_is_one_read_only_complex_stack():
    ops = [np.eye(2, 3), np.ones((2, 3))]
    qmap = QuantumMap(ops, dim_in=3, dim_out=2)
    assert isinstance(qmap.kraus, np.ndarray)
    assert qmap.kraus.dtype == complex
    assert qmap.kraus.shape == (2, 2, 3)
    assert not qmap.kraus.flags.writeable
    with pytest.raises(ValueError):
        qmap.kraus[0, 0, 0] = 5.0


def test_the_map_keeps_its_own_copy_of_the_operators():
    ops = [np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]
    stacked = np.stack(ops)
    from_list, from_stack = QuantumMap(ops, 2, 2), QuantumMap(stacked, 2, 2)
    ops[0][0, 0] = 7.0
    stacked[1, 1, 1] = 7.0
    for qmap in (from_list, from_stack):
        np.testing.assert_array_equal(qmap.kraus, [np.eye(2), np.zeros((2, 2))])


def test_the_stack_reads_as_the_list_of_operators():
    channel = random_cptp_map(3, 3, 4, 8)
    assert len(channel.kraus) == 4
    assert [k.shape for k in channel.kraus] == [(3, 3)] * 4
    head = QuantumMap(channel.kraus[:2], 3, 3)
    np.testing.assert_array_equal(head.kraus[1], channel.kraus[1])


@pytest.mark.parametrize(
    "ops, shape",
    [
        ([np.eye(2), np.eye(3)], (3, 3)),  # ragged
        ([np.eye(3)], (3, 3)),  # mismatched
        ([np.ones((2, 3))], (2, 3)),  # transposed
    ],
)
def test_a_mismatched_operator_is_rejected_with_its_shape(ops, shape):
    with pytest.raises(ValueError, match=rf"^Kraus operator shape \({shape[0]}, {shape[1]}\) does not match \(2, 2\)$"):
        QuantumMap(ops, dim_in=2, dim_out=2)


@pytest.mark.parametrize("ops", [(), [], np.zeros((0, 2, 2))])
def test_an_empty_list_is_rejected(ops):
    with pytest.raises(ValueError, match="^a quantum map needs at least one Kraus operator$"):
        QuantumMap(ops, dim_in=2, dim_out=2)


# ---------------------------------------------------------------------------
# Batched kernels against one operator at a time, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", COUNTS)
def test_apply_matches_the_per_operator_loop(n):
    for channel in channels_with(n):
        rho = random_density_matrix(channel.dim_in, n)
        expected = np.zeros((channel.dim_out, channel.dim_out), dtype=complex)
        for k in channel.kraus:
            expected += k @ rho @ k.conj().T
        np.testing.assert_array_equal(apply(channel, rho), expected)


@pytest.mark.parametrize("n", COUNTS)
def test_kraus_gram_matches_the_per_operator_loop(n):
    for channel in channels_with(n):
        np.testing.assert_array_equal(kraus_gram(channel), sum(k.conj().T @ k for k in channel.kraus))


@pytest.mark.parametrize("n", COUNTS)
def test_transitions_match_the_per_operator_loop(n):
    for channel in channels_with(n):
        expected = sum(k.real**2 + k.imag**2 for k in channel.kraus)
        np.testing.assert_array_equal(inference._transitions(channel), expected)
    for d in (1, 3):
        inst = random_instrument(d, 2, n, n)
        expected = np.stack([sum(k.real**2 + k.imag**2 for k in qmap.kraus) for _, qmap in inst.outcomes])
        np.testing.assert_array_equal(inference._transitions(inst), expected)


@pytest.mark.parametrize("n", COUNTS)
def test_adjoint_map_daggers_each_operator(n):
    for channel in channels_with(n):
        adjoint = adjoint_map(channel)
        assert len(adjoint.kraus) == n
        for k, k_adj in zip(channel.kraus, adjoint.kraus):
            np.testing.assert_array_equal(k_adj, k.conj().T)


@pytest.mark.parametrize("n", COUNTS)
def test_coarse_grain_concatenates_the_outcome_lists_in_order(n):
    inst = random_instrument(3, 3, n, n)
    expected = [k for _, qmap in inst.outcomes for k in qmap.kraus]
    np.testing.assert_array_equal(coarse_grain(inst).kraus, expected)


@pytest.mark.parametrize("n", COUNTS)
def test_compose_sequential_orders_first_operators_outer(n):
    first, second = random_instrument(2, 2, n, n), random_instrument(2, 2, 2, n + 1)
    composed = dict(compose_sequential(first, second).outcomes)
    for label_i, map_i in first.outcomes:
        for label_j, map_j in second.outcomes:
            expected = [kj @ ki for ki in map_i.kraus for kj in map_j.kraus]
            np.testing.assert_array_equal(composed[join_labels(label_i, label_j)].kraus, expected)


def sampled_table_asymmetry_reference(channel, seed):
    # One rotated map per basis pair, each operator rotated on its own, and T written out.
    def asymmetry(qmap):
        t = sum(k.real**2 + k.imag**2 for k in qmap.kraus)
        evidence = t.sum(axis=1, keepdims=True)
        return 1.0 if evidence.min() < 1e-12 else float(np.max(np.abs(t - t / evidence)))

    samples = [asymmetry(channel)]
    if channel.dim_in == channel.dim_out:
        rotations = [linalg.haar_random_unitary(channel.dim_in, s) for s in range(seed, seed + 10)]
        for v, w in zip(rotations[0::2], rotations[1::2]):
            rotated = QuantumMap([w.conj().T @ k @ v for k in channel.kraus], channel.dim_in, channel.dim_out)
            samples.append(asymmetry(rotated))
    return max(samples)


def test_sampled_table_asymmetry_equals_one_rotated_map_per_basis_pair():
    # random Kraus counts, the identity suite's channels at d_A = 2, 3, and a map between different dimensions
    channels = [random_cptp_map(3, 3, n, n) for n in COUNTS]
    for d_a in (2, 3):
        channels += [
            QuantumMap((linalg.haar_random_unitary(d_a, 95),), d_a, d_a),
            make_noisy_operation(linalg.haar_random_unitary(d_a * d_a, 96), (d_a, d_a)),
        ]
    channels += [make_dephasing(), amplitude_damping(0.5), random_cptp_map(2, 3, 2, 7)]
    gaps = inference._sampled_table_asymmetry(channels, 3)
    assert gaps == [sampled_table_asymmetry_reference(channel, 3) for channel in channels]


# A 3 x 3 map of four operators (576 bytes), the qubit dephasing channel, and a map from 2 to 3 dimensions.
BUDGET_CHANNELS = [random_cptp_map(3, 3, 4, 8), make_dephasing(), random_cptp_map(2, 3, 2, 7)]


@pytest.mark.parametrize(
    "budget, reads",
    [
        (None, [(6, 4, 3, 3), (6, 2, 2, 2), (2, 3, 2)]),
        (1200, [(2, 4, 3, 3)] * 3 + [(6, 2, 2, 2), (2, 3, 2)]),
        (1, [(1, 4, 3, 3)] * 6 + [(1, 2, 2, 2)] * 6 + [(2, 3, 2)]),
    ],
)
def test_sampled_table_asymmetry_is_the_largest_gap_of_the_rotated_maps_in_any_byte_budget(monkeypatch, budget, reads):
    # The reference rotates one map per basis pair and reads each with _table_asymmetry on its own.
    expected = []
    for channel in BUDGET_CHANNELS:
        samples = [inference._table_asymmetry(channel)]
        if channel.dim_in == channel.dim_out:
            d = channel.dim_in
            rotations = linalg.haar_random_unitaries(d, range(3, 13))
            for v, w in zip(rotations[0::2], rotations[1::2]):
                samples.append(inference._table_asymmetry(QuantumMap(w.conj().T @ channel.kraus @ v, d, d)))
        expected.append(max(samples))
    transitions, shapes = inference._transitions, []

    def recorded(transformation):
        shapes.append(transformation.shape)
        return transitions(transformation)

    monkeypatch.setattr(inference, "_transitions", recorded)
    if budget is not None:
        monkeypatch.setattr(linalg, "STACK_BYTES", budget)
    assert inference._sampled_table_asymmetry(BUDGET_CHANNELS, 3) == expected
    assert shapes == reads


@pytest.mark.parametrize("d, kraus_count", [(1, 2), (2, 2), (3, 4), (7, 4)])
def test_random_kraus_stacks_are_the_random_maps_operators(d, kraus_count):
    seeds = [60, 97, 98, 99]
    stack = _random_kraus_stacks(d, kraus_count, seeds)
    assert stack.shape == (4, kraus_count, d, d)
    for kraus, seed in zip(stack, seeds):
        assert kraus.tobytes() == random_cptp_map(d, d, kraus_count, seed).kraus.tobytes()


def test_a_transposed_single_matrix_keeps_its_layout_in_the_contraction():
    # The purified no-signalling check contracts the transition array of a
    # transposed isometry; its reductions follow T's memory layout, so a copy
    # into a stack would move the rows in the last bit.
    for d_a in (2, 3, 4):
        e, f = random_instrument(d_a, 2, 2, d_a), random_instrument(d_a, 2, 2, d_a + 50)
        v_e, v_f = purify_instrument(e).isometry, purify_instrument(f).isometry
        chain = np.einsum("zpqd,dmea->zpqmea", v_f, v_e, optimize=True)
        back = linalg.dagger(chain.reshape(1, -1, d_a))
        dims, roles = (d_a, *chain.shape[:-1]), (GIVEN, SUMMED, GUESSED, SUMMED, GUESSED, SUMMED)
        t = inference._transitions(back)
        squares = back[0].real**2 + back[0].imag**2
        assert t.strides == squares.strides
        np.testing.assert_array_equal(t, squares)
        np.testing.assert_array_equal(
            inference._contract(t.reshape(dims), roles), inference._contract(squares.reshape(dims), roles)
        )


# ---------------------------------------------------------------------------
# verify's deterministic-effect and purified-ratio checks on instance stacks
# ---------------------------------------------------------------------------


def deterministic_effect_reference(channel, n_random_candidates=3, seed=0):
    # the check one map at a time: a column sum_k K_k'|x><x|K_k per output state x, then lstsq
    columns = [apply(adjoint_map(channel), linalg.basis_projector(channel.dim_out, x)) for x in range(channel.dim_out)]
    m = np.stack([c.reshape(-1) for c in columns], axis=1)
    m_real = np.vstack([m.real, m.imag])
    target = np.concatenate([np.eye(channel.dim_in).reshape(-1), np.zeros(channel.dim_in**2)])
    weights, _, _, singular_values = np.linalg.lstsq(m_real, target, rcond=None)
    rng = np.random.default_rng(seed)
    candidates = [np.where(np.arange(channel.dim_out) == x, 1.5, 1.0) for x in range(channel.dim_out)]
    for _ in range(n_random_candidates):
        w = rng.uniform(0.0, 2.0, channel.dim_out)
        candidates.append(w + 0.5 if np.max(np.abs(w - 1.0)) < 0.25 else w)
    residual = min(float(np.linalg.norm(m_real @ w - target)) for w in candidates)
    return weights, float(singular_values.min()), residual


@pytest.mark.parametrize("d_a", [1, 2, 3, 5])
def test_each_stacked_deterministic_effect_instance_is_its_own_check(d_a):
    # verify's three maps of seeds +97...+99 at the default seed 1, in one stacked call
    kraus = _random_kraus_stacks(d_a, 2, range(1097, 1100))
    weights, solution, singular, residual = inference._deterministic_effect_stack(kraus)
    assert weights.shape == (3, d_a)
    for t, operators in enumerate(kraus):
        channel = QuantumMap(operators, d_a, d_a)
        report = inference.deterministic_effect_check(channel)
        assert tuple(weights[t].tolist()) == report.weights
        assert float(solution[t]) == report.solution_defect == float(np.max(np.abs(weights[t] - 1.0)))
        assert float(singular[t]) == report.min_singular_value
        assert float(residual[t]) == report.min_alternative_residual
        assert report.unique_flat_solution
        # the batched columns and the SVD solve against one apply per output state and lstsq
        ref_weights, ref_singular, ref_residual = deterministic_effect_reference(channel)
        np.testing.assert_allclose(weights[t], ref_weights, rtol=0, atol=1e-12)
        assert singular[t] == pytest.approx(ref_singular, rel=1e-12)
        assert residual[t] == pytest.approx(ref_residual, rel=1e-12)


@pytest.mark.parametrize("channel", [random_cptp_map(2, 3, 2, 7), random_cptp_map(3, 2, 3, 8), amplitude_damping(0.3)])
@pytest.mark.parametrize("n_random_candidates, seed", [(0, 0), (3, 0), (5, 11)])
def test_deterministic_effect_matches_the_per_state_reference(channel, n_random_candidates, seed):
    report = inference.deterministic_effect_check(channel, n_random_candidates, seed)
    ref_weights, ref_singular, ref_residual = deterministic_effect_reference(channel, n_random_candidates, seed)
    np.testing.assert_allclose(report.weights, ref_weights, rtol=0, atol=1e-12)
    assert report.min_singular_value == pytest.approx(ref_singular, rel=1e-12)
    assert report.min_alternative_residual == pytest.approx(ref_residual, rel=1e-12)


def purified_ratio_reference(channels, rotation_seeds):
    # Per channel a dilation and one rotation of it, the rotation's round trip on the states of
    # seeds t ... t + 4, and the postdiction rows of both against the channel's.
    defects = []
    for t, channel in enumerate(channels):
        purification = stinespring(channel)
        rotated = rotate_ancilla(purification, rotation_seeds[t])
        defect = verify_purification(channel, rotated, trials=5, seed=t)
        dims = (channel.dim_out, channel.dim_in)
        direct, _ = inference._bayes_rows(inference._table_rows(channel.kraus, dims, (GIVEN, GUESSED)))
        for dilation in (purification, rotated):
            via, _ = inference._bayes_rows(inference._purified_numerators(dilation.isometry))
            defect = max(defect, float(np.max(np.abs(direct - via))))
        defects.append(defect)
    return defects


def noisy_stack(d_a, d_b):
    # verify's noisy channels at the default seed 1: pool draws 0-2, as one Kraus stack
    us = linalg.haar_random_unitaries(d_a * d_b, range(1000, 1003))
    kraus = _noisy_kraus(us, d_a, d_b).reshape(3, -1, d_a, d_a)
    channels = [make_noisy_operation(u, (d_a, d_b)) for u in us]
    assert kraus.tobytes() == np.stack([channel.kraus for channel in channels]).tobytes()
    return kraus, channels


@pytest.mark.parametrize("d_a, d_b", [(1, 1), (2, 3), (3, 2), (2, 7)])
def test_stacked_purified_ratio_equals_the_per_channel_loop(d_a, d_b):
    kraus, channels = noisy_stack(d_a, d_b)
    seeds = range(1040, 1043)
    assert inference._purified_ratio_defects(kraus, 5, seeds).tolist() == purified_ratio_reference(channels, seeds)


@pytest.mark.parametrize("per_stack", [1, 2, 3])
def test_stacked_purified_ratio_is_the_same_in_any_byte_budget(monkeypatch, per_stack):
    # At (2, 3) a channel holds nine 2 x 2 operators (576 bytes) and d_Y = 9 counts 9 x 9 entries (1296 bytes).
    kraus, _ = noisy_stack(2, 3)
    seeds = range(1040, 1043)
    whole = inference._purified_ratio_defects(kraus, 5, seeds)
    draws, rotations = [], inference._rotations

    def recorded(d, seeds):
        draws.append(list(seeds))
        return rotations(d, seeds)

    windows, round_trip = [], inference._round_trip_defects

    def round_trip_recorded(k, v, states):
        windows.extend(states)
        return round_trip(k, v, states)

    monkeypatch.setattr(inference, "_rotations", recorded)
    monkeypatch.setattr(inference, "_round_trip_defects", round_trip_recorded)
    monkeypatch.setattr(linalg, "STACK_BYTES", per_stack * 1296 + 1295)
    assert inference._purified_ratio_defects(kraus, 5, seeds).tolist() == whole.tolist()
    # the rotations of each stack are one draw, and instance t's round trip reads the states of seeds t ... t + 4
    assert draws == [list(seeds)[start : start + per_stack] for start in range(0, 3, per_stack)]
    expected = [linalg.random_density_matrices(2, range(t, t + 5)).tobytes() for t in range(3)]
    assert [w.tobytes() for w in windows] == expected
