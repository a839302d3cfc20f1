import numpy as np
import pytest

from retrodict import linalg
from retrodict.channels import (
    QuantumMap,
    amplitude_damping,
    amplitude_damping_instrument,
    apply,
    coarse_grain,
    computational_measurement,
    identity_instrument,
    make_dephasing,
    make_noisy_operation,
    make_unitary_channel,
    random_instrument,
)
from retrodict.purify import (
    Purification,
    purify_instrument,
    reconstruct_channel_action,
    reconstruct_outcome_action,
    rotate_ancilla,
    stinespring,
    verify_purification,
)

PLUS = linalg.projector(np.array([1, 1], dtype=complex) / np.sqrt(2))


def embedded_isometry(purification):
    # the columns the construction pinned at the ancilla-|0> slots
    d_a, d_b = purification.dims_in
    return purification.unitary[:, [a * d_b for a in range(d_a)]]


def test_stinespring_unitary_channel_is_trivial():
    u = linalg.haar_random_unitary(3, 5)
    purification = stinespring(make_unitary_channel(u))
    assert purification.dims_in == (3, 1)
    assert purification.dims_out == (3, 1)
    np.testing.assert_allclose(purification.unitary, u, atol=1e-14)


def test_stinespring_dephasing():
    purification = stinespring(make_dephasing())
    assert purification.dims_in == (2, 2)
    assert purification.dims_out == (2, 2)
    np.testing.assert_allclose(
        reconstruct_channel_action(purification, PLUS), np.eye(2) / 2, atol=1e-12
    )


def test_stinespring_amplitude_damping_round_trip():
    channel = amplitude_damping(0.5)
    purification = stinespring(channel)
    assert purification.unitary.shape == (4, 4)
    for e in linalg.matrix_units(2):
        got = reconstruct_channel_action(purification, e)
        np.testing.assert_allclose(got, apply(channel, e), atol=1e-10)


def test_stinespring_rejects_non_cptp():
    shrink = QuantumMap((np.eye(2, dtype=complex) / 2,), 2, 2)
    with pytest.raises(ValueError):
        stinespring(shrink)


def test_stinespring_isometry_property():
    for seed in range(5):
        channel = make_noisy_operation(linalg.haar_random_unitary(6, seed), (2, 3))
        purification = stinespring(channel)
        v = embedded_isometry(purification)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_dimension_identity_holds_exactly():
    cases = [
        stinespring(amplitude_damping(0.25)),
        stinespring(make_dephasing()),
        purify_instrument(computational_measurement(3)),
        purify_instrument(amplitude_damping_instrument(0.5)),
    ]
    for p in cases:
        assert p.dims_in[0] * p.dims_in[1] == p.dims_out[0] * p.dims_out[1]


def test_purify_single_outcome_unitary_instrument():
    purification = purify_instrument(identity_instrument(2))
    assert purification.pointer_partition[0] == 1


def test_purify_projective_measurement():
    inst = computational_measurement(2)
    purification = purify_instrument(inst)
    assert purification.pointer_partition[0] == 2
    assert verify_purification(inst, purification) < 1e-10


def test_purify_amplitude_damping_instrument():
    inst = amplitude_damping_instrument(0.5)
    purification = purify_instrument(inst)
    assert verify_purification(inst, purification) < 1e-10


def test_purify_rejects_incomplete_collection():
    # a bare quantum map that is not trace preserving cannot be dilated
    with pytest.raises(ValueError):
        stinespring(QuantumMap(amplitude_damping(0.5).kraus[:1], 2, 2))


def test_verify_purification_by_construction():
    channel = amplitude_damping(0.3)
    assert verify_purification(channel, stinespring(channel)) < 1e-10


def test_verify_purification_flags_wrong_ancilla():
    # dephasing is too forgiving here: with the deterministic column
    # completion, |1> happens to be another valid ancilla for it
    channel = amplitude_damping(0.5)
    purification = stinespring(channel)
    wrong = Purification(
        unitary=purification.unitary,
        ancilla_state=linalg.basis_ket(purification.dims_in[1], 1),
        dims_in=purification.dims_in,
        dims_out=purification.dims_out,
    )
    assert verify_purification(channel, wrong) > 0.1


def test_verify_purification_unitary_channel_exact():
    u = linalg.haar_random_unitary(2, 9)
    channel = make_unitary_channel(u)
    assert verify_purification(channel, stinespring(channel)) < 1e-14


def test_round_trip_for_random_noisy_operations():
    seed = 0
    for d_a in (2, 3):
        for d_b in (2, 3):
            for _ in range(2):
                channel = make_noisy_operation(
                    linalg.haar_random_unitary(d_a * d_b, 100 + seed), (d_a, d_b)
                )
                assert verify_purification(channel, stinespring(channel), trials=5, seed=seed) < 1e-10
                seed += 1


def test_instrument_and_coarse_grain_purifications_agree():
    # tracing the pointer of the instrument dilation gives the channel dilation
    inst = amplitude_damping_instrument(0.5)
    channel_purification = stinespring(coarse_grain(inst))
    instrument_purification = purify_instrument(inst)
    for e in linalg.matrix_units(2):
        via_channel = reconstruct_channel_action(channel_purification, e)
        via_instrument = reconstruct_channel_action(instrument_purification, e)
        np.testing.assert_allclose(via_channel, via_instrument, atol=1e-10)


def test_rotate_ancilla_preserves_channel():
    channel = make_noisy_operation(linalg.haar_random_unitary(4, 21), (2, 2))
    rotated = rotate_ancilla(stinespring(channel), seed=22)
    assert verify_purification(channel, rotated) < 1e-10
    assert not np.allclose(rotated.ancilla_state, stinespring(channel).ancilla_state)


def test_rotate_ancilla_refuses_pointer():
    with pytest.raises(ValueError):
        rotate_ancilla(purify_instrument(computational_measurement(2)), seed=1)


def test_purification_validates_fields():
    with pytest.raises(ValueError):
        Purification(
            unitary=np.eye(4, dtype=complex),
            ancilla_state=linalg.basis_ket(2, 0),
            dims_in=(2, 2),
            dims_out=(3, 2),
        )
    with pytest.raises(ValueError):
        Purification(
            unitary=np.ones((4, 4), dtype=complex),
            ancilla_state=linalg.basis_ket(2, 0),
            dims_in=(2, 2),
            dims_out=(2, 2),
        )


def joint_space_channel_action(purification, rho):
    # reference: tr_Y U (rho (x) |b><b|) U' on the whole joint space
    joint = np.kron(rho, linalg.projector(purification.ancilla_state))
    evolved = purification.unitary @ joint @ purification.unitary.conj().T
    return linalg.partial_trace(evolved, purification.dims_out, keep=[0])


def joint_space_outcome_action(purification, outcome_index, rho):
    # reference: pointer projector and partial trace on the whole joint space
    d_x, _ = purification.dims_out
    d_p, d_z = purification.pointer_partition
    joint = np.kron(rho, linalg.projector(purification.ancilla_state))
    evolved = purification.unitary @ joint @ purification.unitary.conj().T
    proj = linalg.tensor(np.eye(d_x), linalg.basis_projector(d_p, outcome_index), np.eye(d_z))
    return linalg.partial_trace(proj @ evolved @ proj, (d_x, d_p, d_z), keep=[0])


def probe_states(d):
    return linalg.matrix_units(d) + [linalg.random_density_matrix(d, s) for s in range(3)]


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (3, 2), (2, 3)])
def test_channel_reconstruction_matches_joint_space_reference(d_a, d_b):
    channel = make_noisy_operation(linalg.haar_random_unitary(d_a * d_b, 31 + d_a), (d_a, d_b))
    purification = stinespring(channel)
    for dilation in (purification, rotate_ancilla(purification, seed=5)):
        for rho in probe_states(d_a):
            np.testing.assert_allclose(
                reconstruct_channel_action(dilation, rho),
                joint_space_channel_action(dilation, rho),
                rtol=0,
                atol=1e-12,
            )


@pytest.mark.parametrize(
    "inst", [amplitude_damping_instrument(0.3), computational_measurement(3), random_instrument(2, 3, 2, 8)]
)
def test_outcome_reconstruction_matches_joint_space_reference(inst):
    purification = purify_instrument(inst)
    for rho in probe_states(inst.dim_in):
        np.testing.assert_allclose(
            reconstruct_channel_action(purification, rho),
            joint_space_channel_action(purification, rho),
            rtol=0,
            atol=1e-12,
        )
        for i in range(len(inst.outcomes)):
            np.testing.assert_allclose(
                reconstruct_outcome_action(purification, i, rho),
                joint_space_outcome_action(purification, i, rho),
                rtol=0,
                atol=1e-12,
            )


def test_verify_purification_flags_swapped_ancilla_column():
    channel = make_noisy_operation(linalg.haar_random_unitary(6, 41), (2, 3))
    purification = stinespring(channel)
    d_b = purification.dims_in[1]
    unitary = purification.unitary.copy()
    unitary[:, [d_b, d_b + 1]] = unitary[:, [d_b + 1, d_b]]  # column of |1>|0>_B with a free one
    swapped = Purification(unitary, purification.ancilla_state, purification.dims_in, purification.dims_out)
    assert verify_purification(channel, purification) < 1e-10
    assert verify_purification(channel, swapped) > 0.1


def test_verify_purification_flags_exchanged_pointer_slots():
    inst = random_instrument(2, 3, 2, 12)
    purification = purify_instrument(inst)
    d_x, d_y = purification.dims_out
    d_p, d_z = purification.pointer_partition
    rows = np.arange(d_x * d_y).reshape(d_x, d_p, d_z)[:, [1, 0, 2]].reshape(-1)
    exchanged = Purification(
        purification.unitary[rows],
        purification.ancilla_state,
        purification.dims_in,
        purification.dims_out,
        purification.pointer_partition,
    )
    assert verify_purification(inst, purification) < 1e-10
    assert verify_purification(inst, exchanged) > 0.1
