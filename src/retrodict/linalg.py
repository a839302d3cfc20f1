"""Dense complex matrix kernel used by every other module.

Conventions: multi-factor spaces are ordered with the first-listed factor
leftmost, so the joint basis label (i, j) of a bipartite space with factor
dimensions (d1, d2) maps to the flat index i * d2 + j.  Kets are 1-D complex
arrays, operators are 2-D complex arrays.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

import numpy as np

# Structural checks (unitarity, hermiticity, trace) are held to ATOL_STRUCTURAL,
# probability identities to ATOL_PROB.
ATOL_STRUCTURAL = 1e-10
ATOL_PROB = 1e-12


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def basis_ket(d: int, i: int) -> np.ndarray:
    """Length-d unit vector with a single 1 at slot i."""
    if not 0 <= i < d:
        raise ValueError(f"basis index {i} out of range for dimension {d}")
    ket = np.zeros(d, dtype=complex)
    ket[i] = 1.0
    return ket


def basis_projector(d: int, i: int) -> np.ndarray:
    ket = basis_ket(d, i)
    return np.outer(ket, ket.conj())


def projector(ket: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| for a state vector."""
    v = np.asarray(ket, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product with the first argument as the leftmost factor."""
    if not ops:
        raise ValueError("tensor requires at least one operand")
    return reduce(np.kron, (np.asarray(op, dtype=complex) for op in ops))


def dims_total(dims: Sequence[int]) -> int:
    total = 1
    for d in dims:
        if int(d) < 1:
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        total *= int(d)
    return total


def partial_trace(op: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Reduce a square operator on a multi-factor space to the kept factors.

    ``dims`` lists the factor dimensions in tensor order; ``keep`` names the
    factor positions to retain.  The trace is preserved.
    """
    dims = tuple(int(d) for d in dims)
    total = dims_total(dims)
    op = np.asarray(op, dtype=complex)
    if op.shape != (total, total):
        raise ValueError(f"operator shape {op.shape} does not match factor dimensions {dims}")
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    tens = op.reshape(dims + dims)
    row_idx = list(range(n))
    col_idx = [k + n if k in keep else k for k in range(n)]
    out_idx = [k for k in keep] + [k + n for k in keep]
    reduced = np.einsum(tens, row_idx + col_idx, out_idx)
    d_keep = dims_total([dims[k] for k in keep]) if keep else 1
    return reduced.reshape(d_keep, d_keep)


def haar_random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed d x d unitary; identical seed gives an identical matrix.

    QR of a complex Ginibre matrix with the R-diagonal phase correction.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_density_matrix(d: int, seed: int) -> np.ndarray:
    """Full-rank random state from a normalized Ginibre Gram matrix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_pure_state(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def matrix_units(d: int) -> list[np.ndarray]:
    """The d*d operator basis E_ij in row-major (i, j) order."""
    units = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            units.append(e)
    return units


def is_unitary(m: np.ndarray, atol: float = ATOL_STRUCTURAL) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    defect = np.max(np.abs(dagger(m) @ m - np.eye(m.shape[0])))
    return bool(defect < atol)


def is_hermitian(m: np.ndarray, atol: float = ATOL_STRUCTURAL) -> bool:
    m = np.asarray(m, dtype=complex)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and bool(np.max(np.abs(m - dagger(m))) < atol)


def is_positive_semidefinite(m: np.ndarray, atol: float = ATOL_STRUCTURAL) -> bool:
    if not is_hermitian(m, atol):
        return False
    eigs = np.linalg.eigvalsh(m)
    return bool(eigs.min() >= -atol)


def is_density_matrix(m: np.ndarray, atol: float = ATOL_STRUCTURAL) -> bool:
    m = np.asarray(m, dtype=complex)
    return (
        is_positive_semidefinite(m, atol)
        and bool(abs(np.trace(m).real - 1.0) < atol)
        and bool(abs(np.trace(m).imag) < atol)
    )


def check_state(rho: np.ndarray, dim: int, atol: float = ATOL_STRUCTURAL) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"state shape {rho.shape} does not match dimension {dim}")
    if not is_density_matrix(rho, atol):
        raise ValueError("operator is not a density matrix within tolerance")
    return rho


def complete_to_unitary(columns: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Build a unitary whose column ``positions[j]`` equals ``columns[:, j]``.

    The supplied columns must already be orthonormal.  Free column slots are
    filled, in increasing slot order, with the lexicographically first standard
    basis vectors not in the span, orthonormalized with two Gram-Schmidt passes;
    each pass projects the candidate off the whole basis in one matrix-vector
    product.
    """
    cols = np.asarray(columns, dtype=complex)
    if cols.ndim == 1:
        cols = cols[:, None]
    dim = cols.shape[0]
    positions = [int(p) for p in positions]
    if len(positions) != cols.shape[1]:
        raise ValueError("one position per supplied column is required")
    if len(set(positions)) != len(positions) or any(p < 0 or p >= dim for p in positions):
        raise ValueError(f"invalid column positions {positions} for dimension {dim}")
    gram = dagger(cols) @ cols
    if np.max(np.abs(gram - np.eye(cols.shape[1]))) > 1e-8:
        raise ValueError("supplied columns are not orthonormal")

    # The basis grows in place: the supplied columns, then each accepted candidate.
    k = cols.shape[1]
    basis = np.zeros((dim, dim), dtype=complex)
    basis[:, :k] = cols
    n = k
    for j in range(dim):
        if n == dim:
            break
        b = basis[:, :n]
        v = -(b @ b[j].conj())  # e_j - B B' e_j
        v[j] += 1.0
        v -= b @ (v.conj() @ b).conj()  # B B' v, without a conjugated copy of B
        norm = np.linalg.norm(v)
        if norm < 1e-6:
            continue  # already in the span
        basis[:, n] = v / norm
        n += 1
    if n != dim:
        raise ValueError("failed to complete the column set to a unitary")

    unitary = np.empty((dim, dim), dtype=complex)
    unitary[:, positions] = cols
    unitary[:, np.delete(np.arange(dim), positions)] = basis[:, k:]
    if not is_unitary(unitary, 1e-9):
        raise ValueError("column completion produced a non-unitary matrix")
    return unitary
