import numpy as np
import pytest

from retrodict import linalg
from retrodict.channels import (
    Instrument,
    QuantumMap,
    adjoint_map,
    amplitude_damping,
    amplitude_damping_instrument,
    apply,
    check_cptp,
    choi_matrix,
    classify,
    coarse_grain,
    compose_sequential,
    is_trace_preserving,
    kraus_gram,
    make_dephasing,
    make_noisy_operation,
    outcome_probabilities,
    projective_instrument,
    random_cptp_map,
    random_instrument,
    state_update,
)
from retrodict.errors import UndefinedConditionalError

from seeded_draws import random_density_matrix

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
PLUS = linalg.projector(np.array([1, 1], dtype=complex) / np.sqrt(2))


def kraus_sum_oracle(kraus, rho):
    # explicit Kraus arithmetic, one term at a time
    total = np.zeros_like(np.asarray(kraus[0]) @ rho @ np.asarray(kraus[0]).conj().T)
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        total = total + k @ rho @ k.conj().T
    return total


def maps_agree(a, b, atol=1e-12):
    # compare map actions on the full operator basis, never the Kraus lists
    assert a.dim_in == b.dim_in and a.dim_out == b.dim_out
    d = a.dim_in
    return all(np.max(np.abs(apply(a, e) - apply(b, e))) < atol for e in np.eye(d * d).reshape(d * d, d, d))


def test_apply_identity():
    rho = random_density_matrix(3, 0)
    np.testing.assert_allclose(apply(QuantumMap((np.eye(3),), 3, 3), rho), rho, atol=1e-14)


def test_apply_dephasing_kills_coherences():
    np.testing.assert_allclose(apply(make_dephasing(), PLUS), np.eye(2) / 2, atol=1e-14)


def test_apply_amplitude_damping_on_identity():
    out = apply(amplitude_damping(0.5), np.eye(2, dtype=complex))
    np.testing.assert_allclose(out, np.diag([1.5, 0.5]), atol=1e-12)
    np.testing.assert_allclose(out, kraus_sum_oracle(amplitude_damping(0.5).kraus, np.eye(2)), atol=1e-14)


def test_apply_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(QuantumMap((np.eye(2),), 2, 2), np.eye(3))


def test_apply_preserves_hermiticity_and_trace_bound():
    channel = random_cptp_map(3, 2, 2, 4)
    rho = random_density_matrix(3, 9)
    out = apply(channel, rho)
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
    assert np.trace(out).real <= np.trace(rho).real + 1e-12


def test_outcome_probabilities_projective():
    meas = projective_instrument(np.eye(2))
    table = outcome_probabilities(meas, linalg.basis_projector(2, 0))
    assert table["0"] == pytest.approx(1.0, abs=1e-14)
    assert table["1"] == pytest.approx(0.0, abs=1e-14)
    table = outcome_probabilities(meas, PLUS)
    assert table["0"] == pytest.approx(0.5, abs=1e-14)
    assert table["1"] == pytest.approx(0.5, abs=1e-14)


def test_outcome_probabilities_amplitude_damping_instrument():
    table = outcome_probabilities(amplitude_damping_instrument(0.5), linalg.basis_projector(2, 1))
    # direct traces: tr K0 |1><1| K0' = 0.5, tr K1 |1><1| K1' = 0.5
    assert table["0"] == pytest.approx(0.5, abs=1e-14)
    assert table["1"] == pytest.approx(0.5, abs=1e-14)


def test_outcome_probabilities_rejects_non_state():
    with pytest.raises(ValueError):
        outcome_probabilities(projective_instrument(np.eye(2)), 2.0 * np.eye(2))


def test_completeness_conserves_probability():
    # invariant: outcome probabilities sum to 1 for any state
    for seed, inst in enumerate(
        [
            projective_instrument(np.eye(3)),
            amplitude_damping_instrument(0.3),
            random_instrument(2, 3, 2, 17),
        ]
    ):
        for t in range(100):
            rho = random_density_matrix(inst.dim_in, 1000 * seed + t)
            total = outcome_probabilities(inst, rho).probabilities().sum()
            assert abs(total - 1.0) < 1e-12


def test_state_update_projection():
    updated = state_update(projective_instrument(np.eye(2)), PLUS, "0")
    np.testing.assert_allclose(updated, linalg.basis_projector(2, 0), atol=1e-14)


def test_state_update_identity():
    rho = random_density_matrix(2, 5)
    identity = Instrument((("0", QuantumMap((np.eye(2),), 2, 2)),), 2, 2)
    np.testing.assert_allclose(state_update(identity, rho, "0"), rho, atol=1e-14)


def test_state_update_amplitude_damping_decay():
    updated = state_update(amplitude_damping_instrument(0.5), linalg.basis_projector(2, 1), "1")
    np.testing.assert_allclose(updated, linalg.basis_projector(2, 0), atol=1e-14)


def test_state_update_zero_probability_outcome():
    with pytest.raises(UndefinedConditionalError):
        state_update(projective_instrument(np.eye(2)), linalg.basis_projector(2, 0), "1")


def test_coarse_grain_projective_is_dephasing():
    assert maps_agree(coarse_grain(projective_instrument(np.eye(2))), make_dephasing())


def test_coarse_grain_single_outcome():
    inst = Instrument((("0", QuantumMap((np.eye(3),), 3, 3)),), 3, 3)
    assert maps_agree(coarse_grain(inst), QuantumMap((np.eye(3),), 3, 3))


def test_coarse_grain_trace_preserving_on_random_states():
    grained = coarse_grain(random_instrument(2, 3, 2, 23))
    for t in range(100):
        rho = random_density_matrix(2, t)
        assert abs(np.trace(apply(grained, rho)).real - 1.0) < 1e-12


def test_coarse_grain_is_probability_weighted_mixture():
    # reconstruct the channel from state_update and outcome probabilities
    inst = random_instrument(2, 3, 2, 29)
    rho = random_density_matrix(2, 31)
    table = outcome_probabilities(inst, rho)
    mixture = sum(
        table[label] * state_update(inst, rho, label)
        for label in inst.labels()
        if table[label] > 1e-12
    )
    np.testing.assert_allclose(apply(coarse_grain(inst), rho), mixture, atol=1e-12)


def test_compose_sequential_identity():
    identity = Instrument((("0", QuantumMap((np.eye(2),), 2, 2)),), 2, 2)
    composed = compose_sequential(identity, identity)
    assert maps_agree(coarse_grain(composed), QuantumMap((np.eye(2),), 2, 2))


def test_compose_sequential_projective_repeatability():
    meas = projective_instrument(np.eye(2))
    composed = compose_sequential(meas, meas)
    table = outcome_probabilities(composed, PLUS)
    assert table["0·0"] == pytest.approx(0.5, abs=1e-14)
    assert table["1·1"] == pytest.approx(0.5, abs=1e-14)
    assert table["0·1"] == pytest.approx(0.0, abs=1e-14)
    assert table["1·0"] == pytest.approx(0.0, abs=1e-14)


def test_compose_sequential_z_then_x():
    z_meas = projective_instrument(np.eye(2))
    x_meas = projective_instrument(HADAMARD)
    table = outcome_probabilities(compose_sequential(z_meas, x_meas), linalg.basis_projector(2, 0))
    # oracle: tr X_j [Z_i [|0><0|]] by direct trace
    assert table["0·0"] == pytest.approx(0.5, abs=1e-14)
    assert table["0·1"] == pytest.approx(0.5, abs=1e-14)
    assert table["1·0"] == pytest.approx(0.0, abs=1e-14)
    assert table["1·1"] == pytest.approx(0.0, abs=1e-14)


def test_compose_sequential_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        compose_sequential(projective_instrument(np.eye(2)), projective_instrument(np.eye(3)))


def test_compose_sequential_satisfies_completeness():
    composed = compose_sequential(random_instrument(2, 2, 2, 3), random_instrument(2, 3, 1, 4))
    total = kraus_gram(coarse_grain(composed))
    assert np.max(np.abs(total - np.eye(2))) < 1e-10


def test_outcome_probabilities_product_state_factorizes():
    # measuring rho (x) sigma in the product basis: outcome 2i+j has probability <i|rho|i><j|sigma|j>
    rho = random_density_matrix(2, 11)
    sigma = random_density_matrix(2, 12)
    table = outcome_probabilities(projective_instrument(np.eye(4)), linalg.tensor(rho, sigma))
    for i in range(2):
        for j in range(2):
            expected = rho[i, i].real * sigma[j, j].real
            assert table[str(2 * i + j)] == pytest.approx(expected, abs=1e-12)


def test_outcome_probabilities_bell_correlations():
    bell = (linalg.tensor(linalg.basis_ket(2, 0), linalg.basis_ket(2, 0))
            + linalg.tensor(linalg.basis_ket(2, 1), linalg.basis_ket(2, 1))) / np.sqrt(2)
    table = outcome_probabilities(projective_instrument(np.eye(4)), linalg.projector(bell))
    assert table["0"] == pytest.approx(0.5, abs=1e-14)
    assert table["3"] == pytest.approx(0.5, abs=1e-14)
    assert table["1"] == pytest.approx(0.0, abs=1e-14)
    assert table["2"] == pytest.approx(0.0, abs=1e-14)


def test_classify_unitary_channel():
    info = classify(QuantumMap((HADAMARD,), 2, 2))
    assert info.is_cp and info.is_tp and info.is_unital


def test_classify_non_unitary_kraus_is_neither_tp_nor_unital():
    info = classify(QuantumMap((np.array([[1, 1], [0, 1]], dtype=complex),), 2, 2))
    assert info.is_cp and not info.is_tp and not info.is_unital


def test_classify_dephasing_unital():
    assert classify(make_dephasing()).is_unital


def test_classify_amplitude_damping():
    info = classify(amplitude_damping(0.5))
    assert info.is_cp and info.is_tp and not info.is_unital
    assert info.unital_defect == pytest.approx(0.5, abs=1e-12)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.nan)])
def test_check_cptp_rejects_non_finite_entries(bad):
    # the Kraus-sum test fails on a NaN defect instead of handing it to an eigensolver
    k = np.eye(2, dtype=complex)
    k[0, 1] = bad
    channel = QuantumMap((k,), 2, 2)
    assert not is_trace_preserving(channel)
    with pytest.raises(ValueError, match="CPTP"):
        check_cptp(channel)


def test_trace_preservation_of_the_adjoint_is_unitality():
    assert is_trace_preserving(adjoint_map(make_dephasing()))
    assert not is_trace_preserving(adjoint_map(amplitude_damping(0.5)))
    # sum K K' and sum K'K have equal traces, d_out and d_in, so a channel between
    # spaces of different dimension never has a trace-preserving adjoint
    assert not is_trace_preserving(adjoint_map(random_cptp_map(3, 2, 2, 4)))


def test_choi_positive_for_constructed_channels():
    channels = [
        QuantumMap((linalg.haar_random_unitary(3, 1),), 3, 3),
        make_dephasing(),
        amplitude_damping(0.7),
        make_noisy_operation(linalg.haar_random_unitary(4, 2), (2, 2)),
        random_cptp_map(3, 2, 2, 6),
    ]
    for channel in channels:
        assert classify(channel).choi_min_eigenvalue >= -1e-10


def test_choi_of_identity():
    choi = choi_matrix(QuantumMap((np.eye(2),), 2, 2))
    bell = linalg.tensor(linalg.basis_ket(2, 0), linalg.basis_ket(2, 0)) + linalg.tensor(
        linalg.basis_ket(2, 1), linalg.basis_ket(2, 1)
    )
    np.testing.assert_allclose(choi, np.outer(bell, bell.conj()), atol=1e-14)


def test_adjoint_of_unitary_channel():
    channel = QuantumMap((HADAMARD,), 2, 2)
    assert maps_agree(adjoint_map(channel), QuantumMap((HADAMARD.conj().T,), 2, 2))


def test_adjoint_duality_identity():
    rng = np.random.default_rng(42)
    channel = random_cptp_map(3, 2, 2, 8)
    adj = adjoint_map(channel)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.trace(a @ apply(channel, b))
        rhs = np.trace(apply(adj, a) @ b)
        assert abs(lhs - rhs) < 1e-12


def test_adjoint_dephasing_self_adjoint():
    assert maps_agree(adjoint_map(make_dephasing()), make_dephasing())


def test_adjoint_amplitude_damping_not_trace_preserving():
    adj = adjoint_map(amplitude_damping(0.5))
    np.testing.assert_allclose(kraus_gram(adj), np.diag([1.5, 0.5]), atol=1e-12)
    assert not classify(adj).is_tp


def test_adjoint_is_an_involution():
    channel = random_cptp_map(2, 3, 2, 13)
    double = adjoint_map(adjoint_map(channel))
    rng = np.random.default_rng(99)
    for _ in range(50):
        op = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.max(np.abs(apply(channel, op) - apply(double, op))) < 1e-12


def test_unitary_kraus_map_sends_zero_to_plus():
    np.testing.assert_allclose(
        apply(QuantumMap((HADAMARD,), 2, 2), linalg.basis_projector(2, 0)), PLUS, atol=1e-14
    )


def test_projective_instrument_rejects_non_unitary_basis():
    with pytest.raises(ValueError, match="must be unitary"):
        projective_instrument(np.array([[1, 1], [0, 1]], dtype=complex))


def test_make_dephasing_kraus():
    kraus = make_dephasing().kraus
    np.testing.assert_array_equal(kraus[0], linalg.basis_projector(2, 0))
    np.testing.assert_array_equal(kraus[1], linalg.basis_projector(2, 1))


def test_make_noisy_operation_cnot_unital():
    channel = make_noisy_operation(CNOT, (2, 2))
    image = apply(channel, np.eye(2, dtype=complex))
    np.testing.assert_allclose(image, np.eye(2), atol=1e-12)
    info = classify(channel)
    assert info.is_cp and info.is_tp and info.is_unital


def test_noisy_operations_unital_across_dims():
    # invariant: 20 Haar draws over d_A, d_B in {2, 3}
    seed = 0
    for d_a in (2, 3):
        for d_b in (2, 3):
            for _ in range(5):
                channel = make_noisy_operation(linalg.haar_random_unitary(d_a * d_b, seed), (d_a, d_b))
                assert classify(channel).is_unital
                seed += 1


def bra_ket_noisy_kraus(u, d_a, d_b):
    # the Kraus operators (I (x) <y|) U (I (x) |b>) / sqrt(d_B) as kron-padded products, in (y, b) order
    eye_a = np.eye(d_a, dtype=complex)
    kraus = []
    for y in range(d_b):
        bra_y = np.kron(eye_a, linalg.basis_ket(d_b, y).conj()[None, :])
        for b in range(d_b):
            ket_b = np.kron(eye_a, linalg.basis_ket(d_b, b)[:, None])
            kraus.append((bra_y @ u @ ket_b) / np.sqrt(d_b))
    return kraus


@pytest.mark.parametrize("d_a, d_b", [(1, 3), (2, 3), (3, 2), (4, 4)])
def test_noisy_operation_kraus_equal_the_bra_ket_products(d_a, d_b):
    u = linalg.haar_random_unitary(d_a * d_b, 10 * d_a + d_b)
    channel = make_noisy_operation(u, (d_a, d_b))
    expected = bra_ket_noisy_kraus(u, d_a, d_b)
    assert len(channel.kraus) == len(expected) == d_b * d_b
    for k, e in zip(channel.kraus, expected):
        assert k.shape == (d_a, d_a)
        assert np.array_equal(k, e)


def test_noisy_operation_rejects_a_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        make_noisy_operation(2 * linalg.haar_random_unitary(4, 3), (2, 2))


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 2), (1, 2)])
def test_noisy_operation_rejects_a_wrong_shape(dims):
    with pytest.raises(ValueError, match="does not match dimensions"):
        make_noisy_operation(linalg.haar_random_unitary(4, 4), dims)


def test_instrument_completeness_enforced():
    half = QuantumMap((np.eye(2, dtype=complex) / 2,), 2, 2)
    with pytest.raises(ValueError):
        Instrument((("0", half),), dim_in=2, dim_out=2)


def discarding_instrument(effects):
    # measure-and-discard: outcome j has the 1 x d Kraus rows <k| sqrt(E_j), so sum_k K'K = E_j
    d = effects[0].shape[0]
    outcomes = []
    for j, effect in enumerate(effects):
        w, v = np.linalg.eigh(effect)
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        outcomes.append((str(j), QuantumMap(tuple(root[k : k + 1, :] for k in range(d)), d, 1)))
    return Instrument(tuple(outcomes), dim_in=d, dim_out=1)


def test_outcome_probabilities_reproduce_the_effects_of_a_discarding_instrument():
    u = linalg.haar_random_unitary(2, 7)
    effects = [u @ np.diag([1.0, 0.4]) @ u.conj().T, u @ np.diag([0.0, 0.6]) @ u.conj().T]
    inst = discarding_instrument(effects)
    assert inst.dim_out == 1
    for seed in range(5):
        rho = random_density_matrix(2, seed)
        table = outcome_probabilities(inst, rho)
        for j, effect in enumerate(effects):
            assert table[str(j)] == pytest.approx(np.trace(effect @ rho).real, abs=1e-12)


def test_instrument_completeness_enforced_for_a_discarded_output():
    with pytest.raises(ValueError):
        discarding_instrument([0.5 * np.eye(2)])


@pytest.mark.parametrize(
    "dim_in, dim_out, kraus_count", [(1, 1, 1), (2, 2, 1), (3, 2, 2), (2, 3, 2), (4, 4, 4), (5, 3, 7)]
)
def test_random_maps_are_the_first_columns_of_a_square_haar_draw_bit_for_bit(dim_in, dim_out, kraus_count):
    # the thin draw keeps the bits of the Kraus operators cut from the first dim_in columns of the whole unitary
    for seed in (0, 7, 2**40 + 3):
        u = linalg.haar_random_unitary(dim_out * kraus_count, seed)
        expected = np.ascontiguousarray(u[:, :dim_in]).reshape(kraus_count, dim_out, dim_in)
        assert random_cptp_map(dim_in, dim_out, kraus_count, seed).kraus.tobytes() == expected.tobytes()
        if dim_in == dim_out and kraus_count % 2 == 0:
            inst = random_instrument(dim_in, 2, kraus_count // 2, seed)
            operators = np.concatenate([qmap.kraus for _, qmap in inst.outcomes])
            assert operators.tobytes() == expected.tobytes()
