"""Purifications: channels and instruments as isometries into system + ancilla.

A dilation is its isometry V = U(I (x) |b>): a unitary U on A (x) B whose
ancilla input |b> is known and whose ancilla output is ignored acts on the
system only through V, so V is the dilation's only stored form.  The
canonical construction stacks the (zero-padded) Kraus operators into
V = sum_k K_k (x) |k>.  Countless purifications represent the same map; this
module builds exactly one and verifies any candidate against the original.
U is completed only for the report, at the ancilla-|0> column slots (see
``serialize.purification_to_wire``).  Verification runs on V, never on the
D x D joint space: tr_Y V rho V' is the represented channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .channels import Instrument, QuantumMap, check_cptp
from .linalg import ATOL_STRUCTURAL

# The number of random complex Householder reflections in an environment rotation (``rotate_ancilla``).
ROTATION_REFLECTIONS = 3


@dataclass(frozen=True, eq=False)
class Purification:
    """An isometry V: A -> X (x) Y and the split of its output.

    ``isometry`` is stored shaped (d_X, d_Y, d_A), or (d_X, d_P, d_Z, d_A)
    when ``pointer_partition`` splits Y into (pointer, discard) factors;
    outcome i of a purified instrument corresponds to pointer basis slot i.
    ``dims_out`` is (d_X, d_Y), and ``dims_in`` = (d_A, d_B) follows from
    d_A * d_B = d_X * d_Y.
    """

    isometry: np.ndarray
    dims_out: tuple[int, int]
    pointer_partition: tuple[int, int] | None = None

    def __post_init__(self):
        v = np.array(self.isometry, dtype=complex)
        d_x, d_y = (int(x) for x in self.dims_out)
        d_a = v.shape[-1] if v.ndim else 0
        if d_a < 1 or v.size != d_x * d_y * d_a:
            raise ValueError(f"isometry shape {v.shape} does not match output dimensions {(d_x, d_y)}")
        if (d_x * d_y) % d_a != 0:
            raise ValueError(f"dimension mismatch: d_A = {d_a} does not divide {d_x}*{d_y}")
        flat = v.reshape(-1, d_a)
        # Written so that a NaN entry fails it too.
        if not np.max(np.abs(flat.conj().T @ flat - np.eye(d_a))) <= ATOL_STRUCTURAL:
            raise ValueError("dilation is not an isometry within tolerance")
        factors = (d_y,)
        if self.pointer_partition is not None:
            factors = tuple(int(x) for x in self.pointer_partition)
            if factors[0] * factors[1] != d_y:
                raise ValueError(f"pointer partition {factors} does not factor d_Y = {d_y}")
            object.__setattr__(self, "pointer_partition", factors)
        v = v.reshape((d_x, *factors, d_a))
        v.setflags(write=False)
        object.__setattr__(self, "isometry", v)
        object.__setattr__(self, "dims_out", (d_x, d_y))

    @property
    def dims_in(self) -> tuple[int, int]:
        d_a = self.isometry.shape[-1]
        return d_a, self.dims_out[0] * self.dims_out[1] // d_a


def _padded_count(raw_count: int, d_x: int, d_a: int, outcomes: int = 1) -> int:
    """Smallest Kraus count r >= raw_count with d_A dividing d_X * outcomes * r."""
    r = max(raw_count, 1)
    while (d_x * outcomes * r) % d_a != 0:
        r += 1
    return r


def stinespring(channel: QuantumMap) -> Purification:
    """Canonical dilation of a CPTP map: V[x, k, a] = K_k[x, a], ancilla input |0>_B.

    The one-instance case of ``_dilations``, for a map checked to be a channel.
    """
    check_cptp(channel)
    isometry = _dilations(channel.kraus[None])[0]
    return Purification(isometry, dims_out=isometry.shape[:2])


def _dilations(kraus: np.ndarray) -> np.ndarray:
    """The canonical isometries V[t, x, k, a] = K_tk[x, a] of an (n, K, d_X, d_A) stack of Kraus stacks.

    Each is zero-padded to ``_padded_count(K, d_X, d_A)`` ancilla slots.
    The operators are summed onto zeros like V = sum_k K_k (x) |k>, so a
    Kraus entry -0.0 prints as 0.0.  That each map is a channel, so that
    V'V = sum K'K = I, is the caller's to check.
    """
    n, count, d_x, d_a = kraus.shape
    isometries = np.zeros((n, d_x, _padded_count(count, d_x, d_a), d_a), dtype=complex)
    isometries[:, :, :count] += kraus.swapaxes(1, 2)
    return isometries


def purify_instrument(inst: Instrument) -> Purification:
    """Dilation of an instrument with a pointer factor carrying the outcome label.

    Outcome i of the instrument is recovered by projecting the pointer factor
    onto basis slot i and discarding the pointer and the extra factor.
    """
    d_a, d_x = inst.dim_in, inst.dim_out
    m = len(inst.outcomes)
    r = _padded_count(max(len(qmap.kraus) for _, qmap in inst.outcomes), d_x, d_a, outcomes=m)
    isometry = np.zeros((d_x, m, r, d_a), dtype=complex)
    for i, (_, qmap) in enumerate(inst.outcomes):
        isometry[:, i, : len(qmap.kraus)] += qmap.kraus.transpose(1, 0, 2)
    return Purification(isometry, dims_out=(d_x, m * r), pointer_partition=(m, r))


def _branch(purification: Purification, outcome_index: int | None = None) -> np.ndarray:
    """V as a (d_X, d_Z, d_A) array.

    Z is the whole of Y or, given ``outcome_index``, the discard factor with
    the pointer held at that slot.
    """
    v = purification.isometry
    if outcome_index is None:
        return v.reshape(v.shape[0], -1, v.shape[-1])
    if purification.pointer_partition is None:
        raise ValueError("purification has no pointer factor")
    if not 0 <= outcome_index < v.shape[1]:
        raise ValueError(f"outcome index {outcome_index} out of range for {v.shape[1]} pointer slots")
    return v[:, outcome_index]


def _image_map(v: np.ndarray, count: int):
    """rho -> tr_Z v rho v' on a (..., p, d_A, d_A) stack of probes, for ``count`` probes in all.

    ``v`` is (..., d_X, d_Z, d_A): one map, or a stack of maps on leading
    instance axes, which the probes share.  Two orders of one sum, whichever
    multiplies less for ``count`` probes: each probe through v and then v',
    or first the map's transfer matrix (``_transfer``), formed here once,
    and then every probe in one product.  These are the two contraction
    paths ``einsum`` chooses between, without its path search; for d_A > 1
    each gives einsum's bits where einsum takes it.  Returns the image
    function and the transfer matrix, or None on the per-probe order.
    """
    *lead, d_x, d_z, d_a = v.shape
    lead = tuple(lead)
    if d_z * (d_x + d_a) * count < d_x * d_a * (d_z + count):

        def images(probes: np.ndarray) -> np.ndarray:
            # sum_a rho[p, a, b] v[x, z, a], regrouped [(x, p), (z, b)] against v'[(z, b), y]
            p = probes.shape[-3]
            left = probes.swapaxes(-1, -2).reshape(lead + (-1, d_a)) @ np.moveaxis(v, -1, -3).reshape(lead + (d_a, -1))
            left = _regrouped(left, lead, (p, d_a, d_x, d_z), (2, 0, 3, 1)).reshape(lead + (d_x * p, -1))
            right = v.conj().reshape(lead + (d_x, -1)).swapaxes(-1, -2)
            return (left @ right).reshape(lead + (d_x, p, d_x)).swapaxes(-3, -2)

        return images, None
    transfer = _transfer(v)

    def images(probes: np.ndarray) -> np.ndarray:
        flat = probes.reshape(lead + (probes.shape[-3], -1)).swapaxes(-1, -2)
        return np.moveaxis((transfer @ flat).reshape(lead + (d_x, d_x, -1)), -1, -3)

    return images, transfer


def _transfer(v: np.ndarray) -> np.ndarray:
    """The (..., d_X d_X, d_A d_A) matrix sum_z v_z (x) conj(v_z) of (..., d_X, d_Z, d_A) maps.

    Column (a, b) is the image of the matrix unit E_ab, rows (x, y) in
    row-major order.
    """
    *lead, d_x, d_z, d_a = v.shape
    lead = tuple(lead)
    # sum_z conj(v[y, z, b]) v[x, z, a], regrouped [(x, y), (a, b)]
    gram = v.conj().swapaxes(-1, -2).reshape(lead + (-1, d_z)) @ v.swapaxes(-3, -2).reshape(lead + (d_z, -1))
    return _regrouped(gram, lead, (d_x, d_a, d_x, d_a), (2, 0, 3, 1)).reshape(lead + (d_x * d_x, -1))


def _regrouped(a: np.ndarray, lead: tuple[int, ...], shape: tuple[int, ...], order: tuple[int, ...]) -> np.ndarray:
    """``a`` reshaped to lead + shape, its trailing axes put in ``order`` behind the instance axes."""
    axes = tuple(range(len(lead)))
    return a.reshape(lead + shape).transpose(axes + tuple(len(lead) + i for i in order))


def verify_purification(
    original: QuantumMap | Instrument,
    purification: Purification,
    trials: int = 10,
    seed: int = 0,
) -> float:
    """Maximum entrywise round-trip defect on the operator basis plus random states.

    The round trip is taken on the isometry V = U(I (x) |b>): the images
    tr_Y V rho V' of the probes (the pointer held at the outcome's slot for
    an instrument) are compared with the Kraus action sum_k K rho K' of the
    original.  The probes are the d_A^2 matrix units E_ij in row-major
    order, then the random states of seeds seed ... seed + trials - 1,
    drawn once for every branch.  Each branch is the one-instance case of
    ``_round_trip_defects``.  A negative ``trials`` is refused: it would
    drop matrix units from the probes.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    d_a = purification.dims_in[0]
    if (original.dim_in, original.dim_out) != (d_a, purification.dims_out[0]):
        raise ValueError("purification dimensions do not match the original map")
    if isinstance(original, Instrument):
        branches = [(qmap, _branch(purification, i)) for i, (_, qmap) in enumerate(original.outcomes)]
    else:
        branches = [(original, _branch(purification))]
    states = linalg.random_density_matrices(d_a, range(seed, seed + trials))
    return max(float(_round_trip_defects(qmap.kraus, v, states)) for qmap, v in branches)


def _round_trip_defects(kraus: np.ndarray, v: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The largest entrywise gap between sum_k K rho K' and tr_Z v rho v' over the probes, per instance.

    ``kraus`` is (..., K, d_X, d_A), ``v`` (..., d_X, d_Z, d_A) and
    ``states`` (..., trials, d_A, d_A), on the same leading instance axes or
    none.  An instance's probes are the d_A^2 matrix units E_ij in row-major
    order, then its states; each side's order of contraction is chosen once
    for all of them (``_image_map``).  Where both sides have built their
    transfer matrices, the image of E_ij is column (i, j) of each, so the
    two matrices are compared whole and only the states go through them, in
    one product.  Otherwise every probe goes through both sides in the
    stacks of ``linalg.groups``, so the memory does not grow as d_A^4.
    """
    lead = v.shape[:-3]
    d_a = v.shape[-1]
    count = d_a * d_a + states.shape[-3]
    (expected, expected_transfer), (images, transfer) = (_image_map(w, count) for w in (kraus.swapaxes(-3, -2), v))
    if expected_transfer is not None and transfer is not None:
        defect = np.max(np.abs(expected_transfer - transfer), axis=(-2, -1))
        if states.shape[-3]:
            defect = np.maximum(defect, np.max(np.abs(expected(states) - images(states)), axis=(-3, -2, -1)))
        return defect
    defect = np.zeros(lead)
    for group in linalg.groups(count, 16 * d_a * d_a * math.prod(lead)):
        probes = _probes(states, group.start, group.stop)
        defect = np.maximum(defect, np.max(np.abs(expected(probes) - images(probes)), axis=(-3, -2, -1)))
    return defect


def _probes(states: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Probes start ... stop - 1 of the d*d matrix units E_ij in row-major order, then the states.

    ``states`` is (..., trials, d, d); its leading instance axes lead the probes too.
    """
    d = states.shape[-1]
    lead = states.shape[:-3]
    units = np.arange(start, min(stop, d * d))
    probes = np.zeros(lead + (stop - start, d * d), dtype=complex)
    probes[..., units - start, units] = 1.0
    probes = probes.reshape(lead + (-1, d, d))
    probes[..., len(units) :, :, :] = states[..., max(start - d * d, 0) : max(stop - d * d, 0), :, :]
    return probes


def rotate_ancilla(purification: Purification, seed: int) -> Purification:
    """An equivalent channel purification with a randomly rotated environment basis.

    Returns (I (x) W)V for the random unitary W of ``_rotations(d_Y, [seed])``
    on the discarded factor Y: a random phase on each basis vector, then
    ``ROTATION_REFLECTIONS`` random complex Householder reflections.  Any
    unitary W is the whole freedom of a Stinespring dilation: any two
    isometries with the same channel differ by such a W, while a rotation v
    of the ancilla input cancels in V = U(I (x) v)(I (x) v'|b>).  W is not
    Haar-distributed; it costs O(d_Y^2) to draw and O(d_X d_Y d_A) to apply.
    Pointer factors must stay aligned with outcome labels, so instrument
    purifications are not rotated.
    """
    if purification.pointer_partition is not None:
        raise ValueError("refusing to rotate the pointer basis of an instrument purification")
    (phases,), (axes,) = _rotations(purification.dims_out[1], (seed,))
    return Purification(_rotated(purification.isometry, phases, axes), dims_out=purification.dims_out)


def _rotations(d: int, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The random environment rotations W of ``rotate_ancilla``, one per seed, as (phases, axes).

    ``phases`` is (n, d), each entry of modulus 1, and ``axes`` (n,
    ``ROTATION_REFLECTIONS``, d), each row a unit vector u of the reflection
    I - 2 u u'.  Each seed's one (ROTATION_REFLECTIONS + 1, 2, d) normal
    draw (``linalg._normal_draws``) gives a complex Gaussian vector per row:
    the first, divided entrywise by its moduli, is the phases, and each
    other, divided by its norm, an axis.
    """
    raw = linalg._normal_draws((ROTATION_REFLECTIONS + 1, 2, d), seeds)
    g = raw[:, :, 0] + 1j * raw[:, :, 1]
    return g[:, 0] / np.abs(g[:, 0]), g[:, 1:] / np.linalg.norm(g[:, 1:], axis=-1, keepdims=True)


def _rotated(v: np.ndarray, phases: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """(I (x) W)V for an isometry V (d_X, d_Y, d_A) and the rotation W of ``phases`` (d_Y,) and ``axes`` (r, d_Y).

    W = H_r ... H_1 diag(phases), with H_j = I - 2 u_j u_j' for the rows u_j
    of ``axes``.  Each factor acts on every row (x, a) of V at once: a
    scaling, then per reflection one product with conj(u_j) and one rank-one
    update.  One instance per call, so that a stack of dilations, rotated
    one by one, keeps the bits of each ``rotate_ancilla`` call.
    """
    d_x, d_y, d_a = v.shape
    rows = np.multiply(v.swapaxes(-1, -2), phases, order="C").reshape(-1, d_y)
    for u in axes:
        rows -= np.multiply.outer(2.0 * (rows @ u.conj()), u)
    return rows.reshape(d_x, d_a, d_y).swapaxes(-1, -2)
