"""Purifications: channels and instruments as unitaries on system + ancilla.

The canonical construction stacks the (zero-padded) Kraus operators into the
isometry V = sum_k K_k (x) |k>, embeds its columns into a unitary at the
ancilla-|0> column slots, and completes the remaining columns
deterministically.  Countless purifications represent the same map; this
module builds exactly one and verifies any candidate against the original.
Reconstruction and verification run on the isometry V = U(I (x) |b>) of
shape D x d_A that a dilation with ancilla state |b> applies to the system,
never on the D x D joint space: tr_Y V rho V' is the represented channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import Instrument, QuantumMap, check_cptp
from .linalg import ATOL_STRUCTURAL, dagger


@dataclass(frozen=True, eq=False)
class Purification:
    """A unitary on A (x) B, a pure ancilla state on B, and the dimension split.

    ``dims_in`` is (d_A, d_B), ``dims_out`` is (d_X, d_Y).  For purified
    instruments ``pointer_partition`` splits Y into (pointer, discard) factors;
    outcome i corresponds to pointer basis slot i.
    """

    unitary: np.ndarray
    ancilla_state: np.ndarray
    dims_in: tuple[int, int]
    dims_out: tuple[int, int]
    pointer_partition: tuple[int, int] | None = None

    def __post_init__(self):
        u = np.array(self.unitary, dtype=complex)
        b = np.array(self.ancilla_state, dtype=complex).reshape(-1)
        d_a, d_b = (int(x) for x in self.dims_in)
        d_x, d_y = (int(x) for x in self.dims_out)
        if d_a * d_b != d_x * d_y:
            raise ValueError(f"dimension mismatch: {d_a}*{d_b} != {d_x}*{d_y}")
        if u.shape != (d_a * d_b, d_a * d_b):
            raise ValueError(f"unitary shape {u.shape} does not match total dimension {d_a * d_b}")
        if not linalg.is_unitary(u, ATOL_STRUCTURAL):
            raise ValueError("purifying matrix is not unitary within tolerance")
        if b.shape != (d_b,):
            raise ValueError(f"ancilla state length {b.shape} does not match d_B = {d_b}")
        if abs(np.linalg.norm(b) - 1.0) > ATOL_STRUCTURAL:
            raise ValueError("ancilla state is not normalized")
        if self.pointer_partition is not None:
            d_p, d_z = (int(x) for x in self.pointer_partition)
            if d_p * d_z != d_y:
                raise ValueError(f"pointer partition {(d_p, d_z)} does not factor d_Y = {d_y}")
            object.__setattr__(self, "pointer_partition", (d_p, d_z))
        u.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "ancilla_state", b)
        object.__setattr__(self, "dims_in", (d_a, d_b))
        object.__setattr__(self, "dims_out", (d_x, d_y))


def _padded_count(raw_count: int, d_x: int, d_a: int, outcomes: int = 1) -> int:
    """Smallest Kraus count r >= raw_count with d_A dividing d_X * outcomes * r."""
    r = max(raw_count, 1)
    while (d_x * outcomes * r) % d_a != 0:
        r += 1
    return r


def _embed_isometry(isometry: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Complete V: A -> X(x)Y to a unitary with U(|a>(x)|0>_B) = V|a>."""
    gram_defect = np.max(np.abs(dagger(isometry) @ isometry - np.eye(d_a)))
    if gram_defect > 1e-12:
        raise ValueError(f"Kraus columns are not isometric: defect {gram_defect:.3e}")
    positions = [a * d_b for a in range(d_a)]
    return linalg.complete_to_unitary(isometry, positions)


def stinespring(channel: QuantumMap) -> Purification:
    """Canonical dilation of a CPTP map, with ancilla state |0>_B."""
    check_cptp(channel)
    d_a, d_x = channel.dim_in, channel.dim_out
    r = _padded_count(len(channel.kraus), d_x, d_a)
    isometry = np.zeros((d_x * r, d_a), dtype=complex)
    for k, op in enumerate(channel.kraus):
        isometry += np.kron(op, linalg.basis_ket(r, k)[:, None])
    d_b = (d_x * r) // d_a
    unitary = _embed_isometry(isometry, d_a, d_b)
    return Purification(
        unitary=unitary,
        ancilla_state=linalg.basis_ket(d_b, 0),
        dims_in=(d_a, d_b),
        dims_out=(d_x, r),
    )


def purify_instrument(inst: Instrument) -> Purification:
    """Dilation of an instrument with a pointer factor carrying the outcome label.

    Outcome i of the instrument is recovered by projecting the pointer factor
    onto basis slot i and discarding the pointer and the extra factor.
    """
    d_a, d_x = inst.dim_in, inst.dim_out
    m = len(inst.outcomes)
    r = _padded_count(max(len(qmap.kraus) for _, qmap in inst.outcomes), d_x, d_a, outcomes=m)
    isometry = np.zeros((d_x * m * r, d_a), dtype=complex)
    for i, (_, qmap) in enumerate(inst.outcomes):
        for k, op in enumerate(qmap.kraus):
            pointer = np.kron(linalg.basis_ket(m, i), linalg.basis_ket(r, k))
            isometry += np.kron(op, pointer[:, None])
    d_b = (d_x * m * r) // d_a
    unitary = _embed_isometry(isometry, d_a, d_b)
    return Purification(
        unitary=unitary,
        ancilla_state=linalg.basis_ket(d_b, 0),
        dims_in=(d_a, d_b),
        dims_out=(d_x, m * r),
        pointer_partition=(m, r),
    )


def _isometry(purification: Purification) -> np.ndarray:
    """V = U(I (x) |b>), the dilation's action on A, with its output factors split out.

    The shape is (d_X, d_Y, d_A), or (d_X, d_P, d_Z, d_A) when the dilation
    has a pointer factor.
    """
    d_a, d_b = purification.dims_in
    v = purification.unitary.reshape(-1, d_a, d_b) @ purification.ancilla_state
    factors = purification.pointer_partition or (purification.dims_out[1],)
    return v.reshape((purification.dims_out[0], *factors, d_a))


def _branch(purification: Purification, outcome_index: int | None = None) -> np.ndarray:
    """V as a (d_X, d_Z, d_A) array.

    Z is the whole of Y or, given ``outcome_index``, the discard factor with
    the pointer held at that slot.
    """
    v = _isometry(purification)
    if outcome_index is None:
        return v.reshape(v.shape[0], -1, v.shape[-1])
    if purification.pointer_partition is None:
        raise ValueError("purification has no pointer factor")
    if not 0 <= outcome_index < v.shape[1]:
        raise ValueError(f"outcome index {outcome_index} out of range for {v.shape[1]} pointer slots")
    return v[:, outcome_index]


def _images(v: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """tr_Z v rho v' for every rho of a (p, d_A, d_A) stack of probes."""
    d_a = v.shape[-1]
    if probes.shape[1:] != (d_a, d_a):
        raise ValueError(f"operator shape {probes.shape[1:]} does not match d_A = {d_a}")
    return np.einsum("xza,pab,yzb->pxy", v, probes, v.conj(), optimize=True)


def reconstruct_channel_action(purification: Purification, rho: np.ndarray) -> np.ndarray:
    """tr_Y U (rho (x) |b><b|) U' = tr_Y V rho V', the channel the purification represents."""
    return _images(_branch(purification), np.asarray(rho, dtype=complex)[None])[0]


def reconstruct_outcome_action(
    purification: Purification, outcome_index: int, rho: np.ndarray
) -> np.ndarray:
    """Project the pointer onto slot ``outcome_index`` and discard the ancilla output."""
    return _images(_branch(purification, outcome_index), np.asarray(rho, dtype=complex)[None])[0]


def verify_purification(
    original: QuantumMap | Instrument,
    purification: Purification,
    trials: int = 10,
    seed: int = 0,
) -> float:
    """Maximum entrywise round-trip defect on the operator basis plus random states.

    The round trip is taken on the isometry V = U(I (x) |b>): the images
    tr_Y V rho V' of all probes at once (the pointer held at the outcome's
    slot for an instrument) are compared with the Kraus action
    sum_k K rho K' of the original.
    """
    d_a = purification.dims_in[0]
    if (original.dim_in, original.dim_out) != (d_a, purification.dims_out[0]):
        raise ValueError("purification dimensions do not match the original map")
    probes = np.stack(
        linalg.matrix_units(d_a) + [linalg.random_density_matrix(d_a, seed + t) for t in range(trials)]
    )
    if isinstance(original, Instrument):
        branches = [(qmap, _branch(purification, i)) for i, (_, qmap) in enumerate(original.outcomes)]
    else:
        branches = [(original, _branch(purification))]
    defect = 0.0
    for qmap, v in branches:
        kraus = np.stack(qmap.kraus)
        expected = np.einsum("kxa,pab,kyb->pxy", kraus, probes, kraus.conj(), optimize=True)
        defect = max(defect, float(np.max(np.abs(expected - _images(v, probes)))))
    return defect


def rotate_ancilla(purification: Purification, seed: int) -> Purification:
    """An equivalent channel purification with Haar-rotated ancilla bases.

    The input-side rotation moves the ancilla state off |0>; the output-side
    rotation reshuffles the discarded factor.  Both leave the represented
    channel unchanged.  Pointer factors must stay aligned with outcome labels,
    so instrument purifications are not rotated.
    """
    if purification.pointer_partition is not None:
        raise ValueError("refusing to rotate the pointer basis of an instrument purification")
    d_a, d_b = purification.dims_in
    d_x, d_y = purification.dims_out
    v = linalg.haar_random_unitary(d_b, seed)
    w = linalg.haar_random_unitary(d_y, seed + 1)
    rotated = np.kron(np.eye(d_x), w) @ purification.unitary @ np.kron(np.eye(d_a), v)
    return Purification(
        unitary=rotated,
        ancilla_state=dagger(v) @ purification.ancilla_state,
        dims_in=(d_a, d_b),
        dims_out=(d_x, d_y),
    )
