import tracemalloc

import numpy as np
import pytest

from retrodict import linalg, purify
from retrodict.channels import (
    Instrument,
    QuantumMap,
    amplitude_damping,
    amplitude_damping_instrument,
    apply,
    coarse_grain,
    make_dephasing,
    make_noisy_operation,
    projective_instrument,
    random_cptp_map,
    random_instrument,
)
from retrodict.inference import channel_toward_past_check
from retrodict.purify import (
    Purification,
    purify_instrument,
    rotate_ancilla,
    stinespring,
    verify_purification,
)

from seeded_draws import random_density_matrix

PLUS = linalg.projector(np.array([1, 1], dtype=complex) / np.sqrt(2))


def completed_unitary(purification):
    # a unitary U on A (x) B with U(|a> (x) |0>_B) = V|a>, as the report prints it
    d_a, d_b = purification.dims_in
    return linalg.complete_to_unitary(purification.isometry.reshape(-1, d_a), [a * d_b for a in range(d_a)])


def dilation_action(purification, rho, outcome_index=None):
    # tr_Z V rho V' on the isometry's own image path, with the pointer held at ``outcome_index`` if given
    v = purify._branch(purification, outcome_index)
    images, _ = purify._image_map(v, 1)
    return images(np.asarray(rho, dtype=complex)[None])[0]


def test_stinespring_unitary_channel_is_trivial():
    u = linalg.haar_random_unitary(3, 5)
    purification = stinespring(QuantumMap((u,), 3, 3))
    assert purification.dims_in == (3, 1)
    assert purification.dims_out == (3, 1)
    np.testing.assert_allclose(purification.isometry.reshape(3, 3), u, atol=1e-14)


def test_stinespring_dephasing():
    purification = stinespring(make_dephasing())
    assert purification.dims_in == (2, 2)
    assert purification.dims_out == (2, 2)
    np.testing.assert_allclose(
        dilation_action(purification, PLUS), np.eye(2) / 2, atol=1e-12
    )


def test_stinespring_amplitude_damping_round_trip():
    channel = amplitude_damping(0.5)
    purification = stinespring(channel)
    assert purification.isometry.shape == (2, 2, 2)
    for e in np.eye(4).reshape(4, 2, 2):
        got = dilation_action(purification, e)
        np.testing.assert_allclose(got, apply(channel, e), atol=1e-10)


def test_stinespring_rejects_non_cptp():
    shrink = QuantumMap((np.eye(2, dtype=complex) / 2,), 2, 2)
    with pytest.raises(ValueError):
        stinespring(shrink)


def test_stinespring_isometry_property():
    for seed in range(5):
        channel = make_noisy_operation(linalg.haar_random_unitary(6, seed), (2, 3))
        purification = stinespring(channel)
        v = purification.isometry.reshape(-1, 2)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_dimension_identity_holds_exactly():
    cases = [
        stinespring(amplitude_damping(0.25)),
        stinespring(make_dephasing()),
        purify_instrument(projective_instrument(np.eye(3))),
        purify_instrument(amplitude_damping_instrument(0.5)),
    ]
    for p in cases:
        assert p.dims_in[0] * p.dims_in[1] == p.dims_out[0] * p.dims_out[1]


def test_purify_single_outcome_unitary_instrument():
    purification = purify_instrument(Instrument((("0", QuantumMap((np.eye(2),), 2, 2)),), 2, 2))
    assert purification.pointer_partition[0] == 1


def test_purify_projective_measurement():
    inst = projective_instrument(np.eye(2))
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
    d_a, d_b = purification.dims_in
    wrong = completed_unitary(purification)[:, [a * d_b + 1 for a in range(d_a)]]  # U(I (x) |1>)
    assert verify_purification(channel, Purification(wrong, purification.dims_out)) > 0.1


def test_verify_purification_refuses_a_negative_trial_count():
    # A dephasing dilation is wrong for amplitude damping, and the matrix units show it.  A negative
    # trial count would drop units from the probes and pass it, so it is refused.
    channel, wrong = amplitude_damping(0.5), stinespring(make_dephasing())
    assert verify_purification(channel, wrong, trials=10) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert verify_purification(channel, wrong, trials=0) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    with pytest.raises(ValueError, match="trials must be non-negative"):
        verify_purification(channel, wrong, trials=-4)


def test_verify_purification_unitary_channel_exact():
    channel = QuantumMap((linalg.haar_random_unitary(2, 9),), 2, 2)
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
    for e in np.eye(4).reshape(4, 2, 2):
        via_channel = dilation_action(channel_purification, e)
        via_instrument = dilation_action(instrument_purification, e)
        np.testing.assert_allclose(via_channel, via_instrument, atol=1e-10)


def test_rotate_ancilla_preserves_channel():
    channel = make_noisy_operation(linalg.haar_random_unitary(4, 21), (2, 2))
    purification = stinespring(channel)
    rotated = rotate_ancilla(purification, seed=22)
    assert verify_purification(channel, rotated) < 1e-10
    assert not np.allclose(rotated.isometry, purification.isometry)


def test_rotate_ancilla_applies_a_phase_diagonal_then_householder_reflections():
    purification = stinespring(make_noisy_operation(linalg.haar_random_unitary(6, 21), (2, 3)))
    d_y = purification.dims_out[1]
    (phases,), (axes,) = purify._rotations(d_y, [22])
    # one generator's (reflections + 1, 2, d_Y) normal draw: the phases, then the reflections' unit axes
    raw = np.random.default_rng(22).standard_normal((purify.ROTATION_REFLECTIONS + 1, 2, d_y))
    g = raw[:, 0] + 1j * raw[:, 1]
    assert phases.tobytes() == (g[0] / np.abs(g[0])).tobytes()
    assert axes.tobytes() == (g[1:] / np.linalg.norm(g[1:], axis=-1, keepdims=True)).tobytes()
    w = np.diag(phases)
    for u in axes:
        w = (np.eye(d_y) - 2 * np.outer(u, u.conj())) @ w
    assert linalg.is_unitary(w, 1e-14) and np.max(np.abs(w - np.diag(np.diag(w)))) > 0.1
    rotated = rotate_ancilla(purification, seed=22).isometry
    np.testing.assert_allclose(rotated, np.einsum("yz,xza->xya", w, purification.isometry), rtol=0, atol=1e-14)


def test_rotate_ancilla_refuses_pointer():
    with pytest.raises(ValueError):
        rotate_ancilla(purify_instrument(projective_instrument(np.eye(2))), seed=1)


def test_purification_validates_fields():
    with pytest.raises(ValueError):
        Purification(np.eye(4, 2, dtype=complex), dims_out=(3, 2))
    with pytest.raises(ValueError):
        Purification(np.ones((4, 2), dtype=complex), dims_out=(2, 2))
    with pytest.raises(ValueError):
        Purification(np.eye(4, 2, dtype=complex), dims_out=(2, 2), pointer_partition=(3, 1))


def test_purification_rejects_nan_isometry():
    isometry = np.eye(4, 2, dtype=complex)
    isometry[3, 0] = np.nan
    with pytest.raises(ValueError):
        Purification(isometry, dims_out=(2, 2))


def joint_space_evolved(purification, rho):
    # reference: U (rho (x) |0><0|) U' on the whole joint space
    u = completed_unitary(purification)
    joint = np.kron(rho, linalg.basis_projector(purification.dims_in[1], 0))
    return u @ joint @ u.conj().T


def joint_space_channel_action(purification, rho):
    # reference: tr_Y U (rho (x) |0><0|) U' on the whole joint space
    return linalg.partial_trace(joint_space_evolved(purification, rho), purification.dims_out, keep=[0])


def joint_space_outcome_action(purification, outcome_index, rho):
    # reference: pointer projector and partial trace on the whole joint space
    d_x, _ = purification.dims_out
    d_p, d_z = purification.pointer_partition
    evolved = joint_space_evolved(purification, rho)
    proj = linalg.tensor(np.eye(d_x), linalg.basis_projector(d_p, outcome_index), np.eye(d_z))
    return linalg.partial_trace(proj @ evolved @ proj, (d_x, d_p, d_z), keep=[0])


def probe_walk_defect(original, purification, trials, seed):
    # The round trip as a walk of every probe through both sides: the d^2 matrix units E_ij in row-major
    # order, then the states g g'/tr of seeds seed ... seed + trials - 1, one generator's two (d, d) draws
    # each, pushed together through each side's image map, branch by branch.
    d = original.dim_in
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    states = []
    for s in range(seed, seed + trials):
        rng = np.random.default_rng(s)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        states.append(rho / np.trace(rho).real)
    probes = np.concatenate([units, np.array(states).reshape(-1, d, d)])
    if isinstance(original, Instrument):
        branches = [(qmap, purify._branch(purification, i)) for i, (_, qmap) in enumerate(original.outcomes)]
    else:
        branches = [(original, purify._branch(purification))]
    defect = 0.0
    for qmap, v in branches:
        expected, _ = purify._image_map(qmap.kraus.swapaxes(0, 1), len(probes))
        images, _ = purify._image_map(v, len(probes))
        defect = max(defect, float(np.max(np.abs(expected(probes) - images(probes)))))
    return defect


def round_trip_cases():
    # (original, purification, per-probe sides): how many sides of each branch take each probe through V
    # rather than through a transfer matrix.  Both sides of a unitary do, and neither of a noisy channel or
    # of this instrument's branches; the isometry 3 -> 5 has two Kraus operators, a side that does, and its
    # dilation three ancilla slots, a transfer matrix.
    unitary = QuantumMap((linalg.haar_random_unitary(3, 4),), 3, 3)
    channel = make_noisy_operation(linalg.haar_random_unitary(6, 17), (3, 2))
    instrument = random_instrument(3, 2, 2, 5)
    mixed = random_cptp_map(3, 5, 2, 6)
    return [
        (unitary, stinespring(unitary), 2),
        (channel, stinespring(channel), 0),
        (channel, rotate_ancilla(stinespring(channel), 8), 0),
        (mixed, stinespring(mixed), 1),
        (mixed, rotate_ancilla(stinespring(mixed), 9), 1),
        (instrument, purify_instrument(instrument), 0),
    ]


@pytest.mark.parametrize("trials, seed", [(0, 0), (4, 9), (10, 0)])
def test_verify_purification_equals_the_probe_walk_bit_for_bit(trials, seed):
    for original, purification, _ in round_trip_cases():
        defect = verify_purification(original, purification, trials=trials, seed=seed)
        assert defect < 1e-12
        assert defect == probe_walk_defect(original, purification, trials, seed)


def _record_probes(monkeypatch) -> list:
    # every probe stack pushed through an image map, in order, one list entry per side and stack
    seen = []
    image_map = purify._image_map

    def recorded(v, count):
        images, transfer = image_map(v, count)

        def record(probes):
            seen.append(np.array(probes))
            return images(probes)

        return record, transfer

    monkeypatch.setattr(purify, "_image_map", recorded)
    return seen


@pytest.mark.parametrize("budget, sizes", [(1, [1] * 13), (200, [1] * 13), (1000, [6, 6, 1])])
def test_verify_purification_in_any_byte_budget(monkeypatch, budget, sizes):
    # d_A = 3: nine matrix units and four states of 144 bytes each.  Where both sides have built their
    # transfer matrices, they read the units' images off its columns and take the states in one stack, and
    # the defect is the same in any budget.  Otherwise both sides take all 13 probes, at least one a stack.
    units = np.eye(9, dtype=complex).reshape(9, 3, 3)
    probes = np.concatenate([units, linalg.random_density_matrices(3, range(9, 13))])
    for original, purification, per_probe in round_trip_cases():
        whole = verify_purification(original, purification, trials=4, seed=9)
        seen = _record_probes(monkeypatch)
        monkeypatch.setattr(linalg, "STACK_BYTES", budget)
        chunked = verify_purification(original, purification, trials=4, seed=9)
        monkeypatch.undo()
        branches = len(getattr(original, "outcomes", [None]))
        if per_probe:
            assert abs(chunked - whole) <= 1e-15
            assert [len(stack) for stack in seen] == [n for n in sizes for _ in range(2)] * branches
            assert np.concatenate(seen[0 : 2 * len(sizes) : 2]).tobytes() == probes.tobytes()
        else:
            assert chunked == whole
            assert [stack.tobytes() for stack in seen] == [probes[9:].tobytes()] * 2 * branches


def probe_states(d):
    return [*np.eye(d * d).reshape(d * d, d, d), *(random_density_matrix(d, s) for s in range(3))]


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (3, 2), (2, 3)])
def test_channel_reconstruction_matches_joint_space_reference(d_a, d_b):
    channel = make_noisy_operation(linalg.haar_random_unitary(d_a * d_b, 31 + d_a), (d_a, d_b))
    purification = stinespring(channel)
    for dilation in (purification, rotate_ancilla(purification, seed=5)):
        for rho in probe_states(d_a):
            np.testing.assert_allclose(
                dilation_action(dilation, rho),
                joint_space_channel_action(dilation, rho),
                rtol=0,
                atol=1e-12,
            )


@pytest.mark.parametrize(
    "inst", [amplitude_damping_instrument(0.3), projective_instrument(np.eye(3)), random_instrument(2, 3, 2, 8)]
)
def test_outcome_reconstruction_matches_joint_space_reference(inst):
    purification = purify_instrument(inst)
    for rho in probe_states(inst.dim_in):
        np.testing.assert_allclose(
            dilation_action(purification, rho),
            joint_space_channel_action(purification, rho),
            rtol=0,
            atol=1e-12,
        )
        for i in range(len(inst.outcomes)):
            np.testing.assert_allclose(
                dilation_action(purification, rho, i),
                joint_space_outcome_action(purification, i, rho),
                rtol=0,
                atol=1e-12,
            )


def test_verify_purification_flags_swapped_ancilla_column():
    channel = make_noisy_operation(linalg.haar_random_unitary(6, 41), (2, 3))
    purification = stinespring(channel)
    d_a, d_b = purification.dims_in
    isometry = purification.isometry.reshape(-1, d_a).copy()
    isometry[:, 1] = completed_unitary(purification)[:, d_b + 1]  # column of |1>|0>_B with a free one
    swapped = Purification(isometry, purification.dims_out)
    assert verify_purification(channel, purification) < 1e-10
    assert verify_purification(channel, swapped) > 0.1


def test_verify_purification_flags_exchanged_pointer_slots():
    inst = random_instrument(2, 3, 2, 12)
    purification = purify_instrument(inst)
    exchanged = Purification(
        purification.isometry[:, [1, 0, 2]], purification.dims_out, purification.pointer_partition
    )
    assert verify_purification(inst, purification) < 1e-10
    assert verify_purification(inst, exchanged) > 0.1


def test_dilation_checks_hold_no_joint_space_operator():
    # 64 Kraus operators: the dilation's unitary would be 512 x 512 (4 MiB)
    channel = make_noisy_operation(linalg.haar_random_unitary(64, 61), (8, 8))
    tracemalloc.start()
    try:
        purification = stinespring(channel)
        rotated = rotate_ancilla(purification, seed=62)
        report = channel_toward_past_check(channel, rotated)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert purification.dims_in == (8, 64)
    assert report.max_defect < 1e-10
    assert peak < 2**20  # a quarter of one 512 x 512 complex array
