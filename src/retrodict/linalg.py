"""Dense complex matrix kernel used by every other module.

Conventions: multi-factor spaces are ordered with the first-listed factor
leftmost, so the joint basis label (i, j) of a bipartite space with factor
dimensions (d1, d2) maps to the flat index i * d2 + j.  Kets are 1-D complex
arrays, operators are 2-D complex arrays.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Iterator, Sequence

import numpy as np

# Structural checks (unitarity, hermiticity, trace) are held to ATOL_STRUCTURAL.
ATOL_STRUCTURAL = 1e-10

# Work whose memory grows with an instance count is done in stacks of at most
# this many bytes, grouped by ``groups``.
STACK_BYTES = 1 << 22


def groups(n: int, item_bytes: int) -> Iterator[slice]:
    """Slices that cover range(n) in order, each of max(1, STACK_BYTES // max(1, item_bytes)) items.

    The last slice may be shorter.  This is the one grouping rule of every
    stacked pass: a stack holds at most ``STACK_BYTES`` of items of
    ``item_bytes`` each, and at least one item, however large.  The budget is
    read at each call.
    """
    size = max(1, STACK_BYTES // max(1, item_bytes))
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """The sum of a stack over its first axis, term by term in list order.

    ``terms.sum(axis=0)`` may pair the terms differently (it does for some
    stacks of four or more 1 x 1 matrices), which moves the total in the last
    bit.  ``np.add.accumulate`` and ``np.cumsum`` keep the order, but on an
    AVX-512 Xeon with numpy 2.4 and OpenBLAS 0.3.31 they ran 15 to 20 times
    slower (a (2, 16, 16) stack: 5 to 9 us, then 90 to 170 us) after some small
    complex matrix products; one in-place add per term did not.  Starting
    from ``terms[0] + 0.0`` makes a -0.0 entry 0.0, as a sum from zero would.
    """
    total = terms[0] + 0.0
    for term in terms[1:]:
        total += term
    return total


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


def _normal_draws(shape: tuple[int, ...], seeds: Sequence[int]) -> np.ndarray:
    """A (len(seeds), *shape) real buffer of standard normals: slot i is one draw of ``seeds[i]``'s own generator."""
    raw = np.empty((len(seeds), *shape))
    for i, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=raw[i])
    return raw


def _ginibre_stack(d: int, seeds: Sequence[int], columns: int | None = None) -> np.ndarray:
    """An (n, d, columns) stack of complex Ginibre matrices re + 1j*im, one per seed.

    Each seed's one (2, d, d) draw, the stream of two (d, d) draws, fills
    its slot of a single real buffer; only the first ``columns`` columns
    (all d by default) are combined.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    raw = _normal_draws((2, d, d), seeds)
    return raw[:, 0, :, :columns] + 1j * raw[:, 1, :, :columns]


def haar_random_isometries(d: int, columns: int, seeds: Sequence[int]) -> np.ndarray:
    """The first ``columns`` (1 ... d) columns of ``haar_random_unitaries(d, seeds)``, a (len(seeds), d, columns) stack.

    QR of complex Ginibre matrices with the R-diagonal phase correction
    (Mezzadri, Notices AMS 54, 592, 2007), on the first ``columns`` columns
    of the same normal draws: Householder QR finds column j of Q and entry j
    of R's diagonal from columns 0 ... j alone, so the thin draw costs
    d * columns^2 instead of d^3.  One buffer of normal draws, then one
    complex combine, one stacked QR and one phase fix for the whole stack;
    entry i depends on ``seeds[i]`` alone.
    """
    q, r = np.linalg.qr(_ginibre_stack(d, seeds, columns) / np.sqrt(2.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_random_unitaries(d: int, seeds: Sequence[int]) -> np.ndarray:
    """A (len(seeds), d, d) stack of Haar-distributed unitaries, one per seed.

    The square case of ``haar_random_isometries``.  Entry i depends on
    ``seeds[i]`` alone and equals ``haar_random_unitary(d, seeds[i])`` bit
    for bit.
    """
    return haar_random_isometries(d, d, seeds)


def haar_random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed d x d unitary; identical seed gives an identical matrix."""
    return haar_random_unitaries(d, (seed,))[0]


def random_density_matrices(d: int, seeds: Sequence[int]) -> np.ndarray:
    """A (len(seeds), d, d) stack of full-rank random states, normalized Ginibre Gram matrices g g'/tr."""
    g = _ginibre_stack(d, seeds)
    rho = g @ dagger(g)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def is_unitary(m: np.ndarray, atol: float = ATOL_STRUCTURAL) -> bool:
    """Whether a square matrix, or every member of an (n, D, D) stack, is unitary within ``atol``.

    One batched product M'M and one maximum over the whole stack, so a
    stack costs one call; a NaN entry fails, since no comparison with NaN
    holds.  Any other shape is not unitary.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        return False
    defect = np.max(np.abs(dagger(m) @ m - np.eye(m.shape[-1])))
    return bool(defect < atol)


def check_state(rho: np.ndarray, dim: int) -> np.ndarray:
    """``rho`` as a complex (dim, dim) density matrix, or a ValueError.

    A state is Hermitian, positive semidefinite and of trace 1, each within
    ``ATOL_STRUCTURAL``; every comparison is written so that a NaN fails it.
    A non-finite entry fails first, before an inf - inf could warn.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"state shape {rho.shape} does not match dimension {dim}")
    trace = np.trace(rho)
    if not (
        np.isfinite(rho).all()
        and np.max(np.abs(rho - dagger(rho))) < ATOL_STRUCTURAL
        and np.linalg.eigvalsh(rho).min() >= -ATOL_STRUCTURAL
        and abs(trace.real - 1.0) < ATOL_STRUCTURAL
        and abs(trace.imag) < ATOL_STRUCTURAL
    ):
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
