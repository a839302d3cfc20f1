import numpy as np
import pytest

from retrodict import linalg

from seeded_draws import random_density_matrix, random_pure_state

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_oracle(a, b):
    # direct four-index definition, naive loops
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle_keep_first(m, d1, d2):
    # sum entries M[(i,k),(j,k)] over the traced index k
    out = np.zeros((d1, d1), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            for k in range(d2):
                out[i, j] += m[i * d2 + k, j * d2 + k]
    return out


def test_tensor_identity():
    np.testing.assert_array_equal(linalg.tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_basis_kets():
    ket01 = linalg.tensor(linalg.basis_ket(2, 0), linalg.basis_ket(2, 1))
    np.testing.assert_array_equal(ket01, np.array([0, 1, 0, 0], dtype=complex))


def test_tensor_pauli_entries_against_oracle():
    result = linalg.tensor(X, Z)
    np.testing.assert_array_equal(result, kron_oracle(X, Z))
    assert result[0, 2] == 1
    assert result[1, 3] == -1


def test_tensor_associative_on_integer_matrices():
    rng = np.random.default_rng(0)
    a, b, c = (rng.integers(-3, 4, (2, 2)).astype(complex) for _ in range(3))
    left = linalg.tensor(linalg.tensor(a, b), c)
    right = linalg.tensor(a, linalg.tensor(b, c))
    np.testing.assert_array_equal(left, right)


def test_partial_trace_product_state():
    rho = random_density_matrix(2, 1)
    sigma = random_density_matrix(3, 2)
    reduced = linalg.partial_trace(linalg.tensor(rho, sigma), (2, 3), keep=[0])
    np.testing.assert_allclose(reduced, rho, atol=1e-12)


def test_partial_trace_scales_with_trace_of_discarded_factor():
    rho = random_density_matrix(2, 3)
    sigma = 2.5 * random_density_matrix(2, 4)
    reduced = linalg.partial_trace(linalg.tensor(rho, sigma), (2, 2), keep=[0])
    np.testing.assert_allclose(reduced, rho * np.trace(sigma), atol=1e-12)


def test_partial_trace_bell_state():
    bell = (linalg.tensor(linalg.basis_ket(2, 0), linalg.basis_ket(2, 0))
            + linalg.tensor(linalg.basis_ket(2, 1), linalg.basis_ket(2, 1))) / np.sqrt(2)
    reduced = linalg.partial_trace(linalg.projector(bell), (2, 2), keep=[1])
    np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_against_index_oracle():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m = m + m.conj().T
    np.testing.assert_allclose(
        linalg.partial_trace(m, (2, 3), keep=[0]),
        partial_trace_oracle_keep_first(m, 2, 3),
        atol=1e-12,
    )


def test_partial_trace_preserves_trace():
    m = random_density_matrix(12, 5)
    for keep in ([0], [1], [0, 1], [2], [0, 2]):
        reduced = linalg.partial_trace(m, (2, 3, 2), keep=keep)
        assert abs(np.trace(reduced) - np.trace(m)) < 1e-12


def test_partial_trace_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.partial_trace(np.eye(5), (2, 3), keep=[0])


def test_haar_scalar_case():
    u = linalg.haar_random_unitary(1, 123)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_deterministic():
    np.testing.assert_array_equal(
        linalg.haar_random_unitary(4, 7), linalg.haar_random_unitary(4, 7)
    )


def test_haar_unitary_and_determinant():
    for d in range(2, 9):
        u = linalg.haar_random_unitary(d, d)
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-10
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-9


def test_is_unitary_holds_every_member_of_a_stack():
    us = linalg.haar_random_unitaries(3, range(20, 24))
    assert linalg.is_unitary(us)
    off = us.copy()
    off[2, 1, 1] += 1e-9
    assert not linalg.is_unitary(off)
    assert linalg.is_unitary(off[:2]) and not linalg.is_unitary(off[2])
    nan = us.copy()
    nan[3, 0, 2] = np.nan
    assert not linalg.is_unitary(nan)
    for shape_off in (us[0, 0], us[:, :, :2], us[None]):  # a 1-D array, a non-square stack, a stack of stacks
        assert not linalg.is_unitary(shape_off)


def haar_reference(d, seed):
    # one generator per seed, two (d, d) draws, QR, then the R-diagonal phase fix
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def density_reference(d, seed):
    # one generator per seed, two (d, d) draws, then g g' over its trace
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("seeds", [[], [12], [41, 3, 41, 2**40 + 5, 7]], ids=len)
@pytest.mark.parametrize("d", range(1, 9))
def test_buffered_draws_equal_a_per_seed_oracle_bit_for_bit(d, seeds):
    for draw, reference in (
        (linalg.haar_random_unitaries, haar_reference),
        (linalg.random_density_matrices, density_reference),
    ):
        stack = draw(d, seeds)
        assert stack.shape == (len(seeds), d, d) and stack.dtype == complex
        for got, seed in zip(stack, seeds):
            assert got.tobytes() == reference(d, seed).tobytes()
    for seed in seeds[:2]:
        assert random_density_matrix(d, seed).tobytes() == density_reference(d, seed).tobytes()


@pytest.mark.parametrize("d", [0, -2])
def test_random_states_reject_a_dimension_below_one(d):
    for draw in (random_density_matrix, random_pure_state):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            draw(d, 1)
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        linalg.random_density_matrices(d, [1, 2])


@pytest.mark.parametrize("d", [1, 2, 3, 6, 17])
def test_stacked_haar_draws_equal_single_draws_bit_for_bit(d):
    seeds = [41, 3, 1000, 7, 2**40 + 5]
    stack = linalg.haar_random_unitaries(d, seeds)
    assert stack.shape == (len(seeds), d, d)
    for unitary, seed in zip(stack, seeds):
        np.testing.assert_array_equal(unitary, haar_reference(d, seed))
        np.testing.assert_array_equal(unitary, linalg.haar_random_unitary(d, seed))


def test_thin_haar_draws_are_the_first_columns_of_the_square_draws_bit_for_bit():
    # QR finds column j of Q and entry j of R's diagonal from the first j + 1 columns alone
    for d in range(1, 41):
        seeds = [d, 1000 + d]
        square = linalg.haar_random_unitaries(d, seeds)
        for columns in range(1, d + 1):
            thin = linalg.haar_random_isometries(d, columns, seeds)
            assert thin.shape == (2, d, columns)
            assert thin.tobytes() == np.ascontiguousarray(square[..., :columns]).tobytes()


def test_a_one_seed_stack_is_the_single_draw():
    for d in (1, 4, 9):
        np.testing.assert_array_equal(linalg.haar_random_unitaries(d, [12])[0], linalg.haar_random_unitary(d, 12))


@pytest.mark.parametrize("d", [0, -2])
def test_haar_draws_reject_a_dimension_below_one(d):
    with pytest.raises(ValueError, match="at least 1"):
        linalg.haar_random_unitaries(d, [1, 2])
    with pytest.raises(ValueError, match="at least 1"):
        linalg.haar_random_unitary(d, 1)


def test_ordered_sum_adds_in_list_order_from_zero():
    # numpy's sum(axis=0) pairs the terms of some (n, 1, 1) stacks differently
    rng = np.random.default_rng(5)
    for n in (1, 2, 4, 9, 36):
        for shape in [(n, 1, 1), (n, 3, 3)]:
            for _ in range(20):
                terms = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                total = np.zeros(shape[1:], dtype=complex)
                for term in terms:
                    total += term
                np.testing.assert_array_equal(linalg.ordered_sum(terms), total)
    # a loop from zero never ends at -0.0
    total = linalg.ordered_sum(np.full((3, 2), -0.0))
    assert not np.any(np.signbit(total))


def test_check_state_accepts_density_matrices():
    for rho in (linalg.basis_projector(3, 1), np.eye(2) / 2, random_density_matrix(4, 7)):
        state = linalg.check_state(rho, len(rho))
        assert state.dtype == complex
        np.testing.assert_array_equal(state, rho)


def _spoiled(entry, value):
    rho = np.eye(2, dtype=complex) / 2
    rho[entry] = value
    return rho


@pytest.mark.parametrize(
    "rho",
    [
        _spoiled((0, 0), np.nan),
        _spoiled((0, 1), np.nan),
        _spoiled((0, 1), complex(0.0, np.nan)),
        _spoiled((1, 1), np.inf),
        _spoiled((0, 1), np.inf),
        _spoiled((0, 1), complex(0.0, np.inf)),
        _spoiled((0, 1), 0.1),  # not Hermitian
        np.diag([1.5, -0.5]),  # trace 1, one negative eigenvalue
        np.eye(2) / 2 * (1 + 1e-9),  # trace off by 1e-9
        np.diag([0.5 + 1e-9j, 0.5 - 2e-9j]),  # a trace with an imaginary part (and not Hermitian)
        np.zeros((2, 2)),
    ],
    ids=[
        "nan-diagonal",
        "nan-off-diagonal",
        "nan-imaginary",
        "inf-diagonal",
        "inf-off-diagonal",
        "inf-imaginary",
        "not-hermitian",
        "negative",
        "trace",
        "imag",
        "zero",
    ],
)
def test_check_state_rejects_every_non_state(rho):
    with pytest.raises(ValueError, match="not a density matrix"):
        linalg.check_state(rho, 2)


@pytest.mark.parametrize("rho", [np.eye(3) / 3, np.ones(2) / 2, np.eye(2)[None] / 2])
def test_check_state_rejects_a_wrong_shape(rho):
    with pytest.raises(ValueError, match="does not match dimension 2"):
        linalg.check_state(rho, 2)


def test_basis_kets():
    np.testing.assert_array_equal(linalg.basis_ket(2, 0), [1, 0])
    np.testing.assert_array_equal(linalg.basis_ket(2, 1), [0, 1])
    np.testing.assert_array_equal(linalg.basis_ket(3, 2), [0, 0, 1])


def test_basis_kets_orthonormal_exactly():
    kets = [linalg.basis_ket(4, i) for i in range(4)]
    for i, u in enumerate(kets):
        for j, v in enumerate(kets):
            assert np.vdot(u, v) == (1.0 if i == j else 0.0)


def test_basis_ket_out_of_range():
    with pytest.raises(ValueError):
        linalg.basis_ket(3, 3)
    with pytest.raises(ValueError):
        linalg.basis_ket(3, -1)


def test_complete_to_unitary_preserves_columns():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    q, _ = np.linalg.qr(raw)
    u = linalg.complete_to_unitary(q[:, :2], [0, 3])
    assert linalg.is_unitary(u)
    np.testing.assert_allclose(u[:, 0], q[:, 0], atol=1e-12)
    np.testing.assert_allclose(u[:, 3], q[:, 1], atol=1e-12)


def test_complete_to_unitary_is_deterministic():
    v = linalg.basis_ket(4, 2)
    np.testing.assert_array_equal(
        linalg.complete_to_unitary(v, [0]), linalg.complete_to_unitary(v, [0])
    )


def test_complete_to_unitary_rejects_non_orthonormal():
    cols = np.ones((3, 2), dtype=complex)
    with pytest.raises(ValueError):
        linalg.complete_to_unitary(cols, [0, 1])


def per_vector_completion(cols, positions):
    # reference: one np.vdot per basis vector, two passes per candidate
    dim = cols.shape[0]
    basis = [cols[:, j] for j in range(cols.shape[1])]
    extras = []
    for j in range(dim):
        if len(basis) == dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[j] = 1.0
        for _ in range(2):
            for b in basis:
                v = v - b * np.vdot(b, v)
        norm = np.linalg.norm(v)
        if norm < 1e-6:
            continue
        basis.append(v / norm)
        extras.append(v / norm)
    unitary = np.zeros((dim, dim), dtype=complex)
    unitary[:, positions] = cols
    free = [p for p in range(dim) if p not in positions]
    for slot, v in zip(free, extras):
        unitary[:, slot] = v
    return unitary


def random_orthonormal_columns(dim, k, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k)))
    return q


@pytest.mark.parametrize(
    "dim, positions",
    [(6, [5, 1, 3]), (9, [0, 4, 7]), (12, [2, 3, 11, 6]), (216, [36 * a for a in range(6)])],
)
def test_complete_to_unitary_matches_per_vector_reference(dim, positions):
    cols = random_orthonormal_columns(dim, len(positions), dim)
    u = linalg.complete_to_unitary(cols, positions)
    np.testing.assert_allclose(u, per_vector_completion(cols, positions), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(u[:, positions], cols)


def test_complete_to_unitary_skips_candidates_in_the_span():
    # e_0 is supplied, so the first candidate lies in the span and is skipped
    cols = np.zeros((5, 2), dtype=complex)
    cols[0, 0] = 1.0
    cols[1:, 1] = random_orthonormal_columns(4, 1, 7)[:, 0]
    u = linalg.complete_to_unitary(cols, [3, 1])
    np.testing.assert_allclose(u, per_vector_completion(cols, [3, 1]), rtol=0, atol=1e-12)
    assert not np.any(np.abs(u[0, [0, 2, 4]]) > 1e-12)


def covered(slices):
    # the indices the slices name, in their order, after checking each names at least one
    assert all(s.step is None and s.stop > s.start for s in slices)
    return [i for s in slices for i in range(s.start, s.stop)]


@pytest.mark.parametrize("n", [0, 1, 5, 6, 13])
@pytest.mark.parametrize("item_bytes", [0, 1, 1 << 10, (1 << 21) + 1, 1 << 22, (1 << 22) + 1, 1 << 40])
def test_groups_cover_each_index_once_in_order(n, item_bytes):
    slices = list(linalg.groups(n, item_bytes))
    assert covered(slices) == list(range(n))
    size = max(1, linalg.STACK_BYTES // max(1, item_bytes))
    # every slice but the last holds the full count, and the last no more than that
    assert all(s.stop - s.start == size for s in slices[:-1])
    assert all(0 < s.stop - s.start <= size for s in slices[-1:])


def test_groups_of_items_at_and_beyond_the_budget():
    assert list(linalg.groups(0, 16)) == []
    assert list(linalg.groups(3, 0)) == [slice(0, 3)]
    assert list(linalg.groups(3, (1 << 22) + 1)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert list(linalg.groups(5, 1 << 21)) == [slice(0, 2), slice(2, 4), slice(4, 5)]


@pytest.mark.parametrize("budget, expected", [
    (1, [slice(i, i + 1) for i in range(5)]),
    (47, [slice(0, 5)]),
    (20, [slice(0, 2), slice(2, 4), slice(4, 5)]),
])
def test_groups_read_the_budget_when_called(monkeypatch, budget, expected):
    monkeypatch.setattr(linalg, "STACK_BYTES", budget)
    assert list(linalg.groups(5, 9)) == expected
