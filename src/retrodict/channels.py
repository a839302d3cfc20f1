"""Quantum maps, instruments and channels in Kraus form.

A quantum map is a completely positive, trace-non-increasing linear map
stored as a list of Kraus operators.  An instrument is an outcome-labelled
collection of quantum maps whose combined action preserves the trace.  Maps
are compared by their action on an operator basis, never by their Kraus
lists, because the decomposition is not unique.

A Kraus-form map is completely positive by construction, so a channel is
checked by trace preservation on sum K'K alone; the Choi spectrum is
computed only for the report of :func:`classify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import UndefinedConditionalError
from .linalg import ATOL_STRUCTURAL, dagger
from .tables import ProbabilityTable, join_labels


@dataclass(frozen=True, eq=False)
class QuantumMap:
    """A CP linear map between operator spaces, represented by Kraus operators.

    Each Kraus operator has shape (dim_out, dim_in).  Trace preservation is
    tested by :func:`is_trace_preserving`, not enforced here: the adjoint of a
    non-unital channel legitimately violates it.  Kraus decompositions are not
    unique, so maps compare by identity; test equality of maps by their action
    on an operator basis.
    """

    kraus: tuple[np.ndarray, ...]
    dim_in: int
    dim_out: int

    def __post_init__(self):
        if not self.kraus:
            raise ValueError("a quantum map needs at least one Kraus operator")
        frozen = []
        for k in self.kraus:
            k = np.array(k, dtype=complex)
            if k.shape != (self.dim_out, self.dim_in):
                raise ValueError(
                    f"Kraus operator shape {k.shape} does not match ({self.dim_out}, {self.dim_in})"
                )
            k.setflags(write=False)
            frozen.append(k)
        object.__setattr__(self, "kraus", tuple(frozen))


@dataclass(frozen=True)
class ChannelClassification:
    is_cp: bool
    is_tp: bool
    is_unital: bool
    choi_min_eigenvalue: float
    unital_defect: float


@dataclass(frozen=True, eq=False)
class Instrument:
    """Outcome-labelled quantum maps satisfying the completeness equation."""

    outcomes: tuple[tuple[str, QuantumMap], ...]
    dim_in: int
    dim_out: int

    def __post_init__(self):
        if not self.outcomes:
            raise ValueError("an instrument needs at least one outcome")
        normalized = []
        seen = set()
        for label, qmap in self.outcomes:
            label = str(label)
            if label in seen:
                raise ValueError(f"duplicate outcome label {label!r}")
            seen.add(label)
            if qmap.dim_in != self.dim_in or qmap.dim_out != self.dim_out:
                raise ValueError("all outcome maps must share the instrument dimensions")
            normalized.append((label, qmap))
        object.__setattr__(self, "outcomes", tuple(normalized))
        defect = _trace_defect(coarse_grain(self))
        if not defect < ATOL_STRUCTURAL:
            raise ValueError(f"completeness violated: max |sum K'K - I| = {defect:.3e}")

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.outcomes)

    def map_for(self, label: str) -> QuantumMap:
        for candidate, qmap in self.outcomes:
            if candidate == str(label):
                return qmap
        raise KeyError(f"unknown outcome label {label!r}")


def kraus_gram(qmap: QuantumMap) -> np.ndarray:
    """Sum of K'K, the effect the map contributes to the completeness equation."""
    return sum(dagger(k) @ k for k in qmap.kraus)


def apply(qmap: QuantumMap, rho: np.ndarray) -> np.ndarray:
    """Kraus action sum_k K rho K'."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (qmap.dim_in, qmap.dim_in):
        raise ValueError(f"operator shape {rho.shape} does not match input dimension {qmap.dim_in}")
    out = np.zeros((qmap.dim_out, qmap.dim_out), dtype=complex)
    for k in qmap.kraus:
        out += k @ rho @ dagger(k)
    return out


def choi_matrix(qmap: QuantumMap) -> np.ndarray:
    """Choi operator sum_ij E_ij (x) map[E_ij], input side leftmost."""
    dim = qmap.dim_in * qmap.dim_out
    choi = np.zeros((dim, dim), dtype=complex)
    for k in qmap.kraus:
        vec = k.T.reshape(-1)  # component (i, x) = K[x, i]
        choi += np.outer(vec, vec.conj())
    return choi


def _trace_defect(qmap: QuantumMap) -> float:
    """max |sum K'K - I|; NaN when an entry is not finite."""
    return float(np.max(np.abs(kraus_gram(qmap) - np.eye(qmap.dim_in))))


def is_trace_preserving(qmap: QuantumMap) -> bool:
    """sum K'K = I within ATOL_STRUCTURAL, the one channel test; a NaN or inf entry fails it.

    On ``adjoint_map(qmap)`` it tests sum K K' = I: whether a channel has an active reversal.
    """
    return _trace_defect(qmap) < ATOL_STRUCTURAL


def classify(qmap: QuantumMap, atol: float = ATOL_STRUCTURAL) -> ChannelClassification:
    """Structural report: CP via the Choi spectrum, TP and unital via Kraus sums.

    Only the report needs the Choi spectrum: a Kraus-form map is CP by
    construction, and every channel check reads ``is_trace_preserving``.
    """
    choi_min = float(np.linalg.eigvalsh(choi_matrix(qmap)).min())
    tp_defect = _trace_defect(qmap)
    unital_image = sum(k @ dagger(k) for k in qmap.kraus)
    if qmap.dim_in == qmap.dim_out:
        unital_defect = float(np.max(np.abs(unital_image - np.eye(qmap.dim_out))))
    else:
        unital_defect = float("inf")  # identity preservation needs isomorphic spaces
    return ChannelClassification(
        is_cp=choi_min >= -atol,
        is_tp=tp_defect < atol,
        is_unital=unital_defect < atol,
        choi_min_eigenvalue=choi_min,
        unital_defect=unital_defect,
    )


def check_cptp(qmap: QuantumMap) -> None:
    """Reject a map that is not a channel: CP by construction, it is checked on sum K'K = I."""
    if not is_trace_preserving(qmap):
        raise ValueError("transformation must be a CPTP map (a quantum channel)")


def adjoint_map(qmap: QuantumMap) -> QuantumMap:
    """The Hilbert-Schmidt adjoint, with Kraus list {K'}.

    Satisfies tr(A map[B]) = tr(adjoint[A] B).  The result may fail to be
    trace non-increasing; it is a channel exactly when the original is unital.
    """
    return QuantumMap(tuple(dagger(k) for k in qmap.kraus), dim_in=qmap.dim_out, dim_out=qmap.dim_in)


def outcome_probabilities(inst: Instrument, rho: np.ndarray) -> ProbabilityTable:
    """Generalized Born rule: P(i) = tr map_i[rho] for a state rho."""
    rho = linalg.check_state(rho, inst.dim_in)
    values = [float(np.trace(apply(qmap, rho)).real) for _, qmap in inst.outcomes]
    return ProbabilityTable.from_values(inst.labels(), values)


def state_update(inst: Instrument, rho: np.ndarray, outcome: str) -> np.ndarray:
    """Post-outcome state map_i[rho] / tr map_i[rho]."""
    rho = linalg.check_state(rho, inst.dim_in)
    image = apply(inst.map_for(outcome), rho)
    weight = np.trace(image).real
    if weight <= 1e-12:
        raise UndefinedConditionalError(f"outcome {outcome!r} has zero probability for this state")
    return image / weight


def coarse_grain(inst: Instrument) -> QuantumMap:
    """Forget the outcome: the trace-preserving map with all Kraus lists concatenated."""
    kraus: list[np.ndarray] = []
    for _, qmap in inst.outcomes:
        kraus.extend(qmap.kraus)
    return QuantumMap(tuple(kraus), dim_in=inst.dim_in, dim_out=inst.dim_out)


def compose_sequential(first: Instrument, second: Instrument) -> Instrument:
    """Run ``first`` then ``second``; outcome (i, j) has map second_j o first_i."""
    if first.dim_out != second.dim_in:
        raise ValueError(
            f"cannot compose: first outputs dimension {first.dim_out}, second expects {second.dim_in}"
        )
    outcomes = []
    for label_i, map_i in first.outcomes:
        for label_j, map_j in second.outcomes:
            kraus = tuple(kj @ ki for ki in map_i.kraus for kj in map_j.kraus)
            outcomes.append(
                (join_labels(label_i, label_j), QuantumMap(kraus, first.dim_in, second.dim_out))
            )
    return Instrument(tuple(outcomes), dim_in=first.dim_in, dim_out=second.dim_out)


def compose_parallel(a: Instrument, b: Instrument) -> Instrument:
    """Tensor two instruments; the first argument acts on the leftmost factor."""
    outcomes = []
    for label_i, map_i in a.outcomes:
        for label_j, map_j in b.outcomes:
            kraus = tuple(np.kron(ki, kj) for ki in map_i.kraus for kj in map_j.kraus)
            outcomes.append(
                (
                    join_labels(label_i, label_j),
                    QuantumMap(kraus, a.dim_in * b.dim_in, a.dim_out * b.dim_out),
                )
            )
    return Instrument(tuple(outcomes), dim_in=a.dim_in * b.dim_in, dim_out=a.dim_out * b.dim_out)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def make_unitary_channel(u: np.ndarray) -> QuantumMap:
    u = np.asarray(u, dtype=complex)
    if not linalg.is_unitary(u):
        raise ValueError("matrix is not unitary within tolerance")
    return QuantumMap((u,), dim_in=u.shape[0], dim_out=u.shape[0])


def identity_channel(d: int) -> QuantumMap:
    return QuantumMap((np.eye(d, dtype=complex),), dim_in=d, dim_out=d)


def identity_instrument(d: int) -> Instrument:
    return Instrument((("0", identity_channel(d)),), dim_in=d, dim_out=d)


def make_dephasing() -> QuantumMap:
    """Qubit dephasing: a nondestructive basis measurement with the result ignored."""
    return QuantumMap(
        (linalg.basis_projector(2, 0), linalg.basis_projector(2, 1)), dim_in=2, dim_out=2
    )


def make_noisy_operation(u: np.ndarray, dims: tuple[int, int]) -> QuantumMap:
    """rho -> tr_B U (rho (x) I_B/d_B) U' for a unitary on the (d_A, d_B) joint space.

    These channels are always unital.
    """
    d_a, d_b = int(dims[0]), int(dims[1])
    u = np.asarray(u, dtype=complex)
    if u.shape != (d_a * d_b, d_a * d_b):
        raise ValueError(f"unitary shape {u.shape} does not match dimensions {(d_a, d_b)}")
    if not linalg.is_unitary(u):
        raise ValueError("matrix is not unitary within tolerance")
    eye_a = np.eye(d_a, dtype=complex)
    kraus = []
    for y in range(d_b):
        bra_y = np.kron(eye_a, linalg.basis_ket(d_b, y).conj()[None, :])
        for b in range(d_b):
            ket_b = np.kron(eye_a, linalg.basis_ket(d_b, b)[:, None])
            kraus.append((bra_y @ u @ ket_b) / np.sqrt(d_b))
    return QuantumMap(tuple(kraus), dim_in=d_a, dim_out=d_a)


def amplitude_damping(gamma: float) -> QuantumMap:
    """Qubit amplitude damping with decay probability gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return QuantumMap((k0, k1), dim_in=2, dim_out=2)


def amplitude_damping_instrument(gamma: float) -> Instrument:
    k0, k1 = amplitude_damping(gamma).kraus
    return Instrument(
        (("0", QuantumMap((k0,), 2, 2)), ("1", QuantumMap((k1,), 2, 2))), dim_in=2, dim_out=2
    )


def projective_instrument(basis: np.ndarray) -> Instrument:
    """Nondestructive projective measurement onto the columns of ``basis``."""
    basis = np.asarray(basis, dtype=complex)
    if not linalg.is_unitary(basis):
        raise ValueError("measurement basis matrix must be unitary")
    d = basis.shape[0]
    outcomes = tuple(
        (str(i), QuantumMap((linalg.projector(basis[:, i]),), d, d)) for i in range(d)
    )
    return Instrument(outcomes, dim_in=d, dim_out=d)


def computational_measurement(d: int) -> Instrument:
    return projective_instrument(np.eye(d, dtype=complex))


def povm_instrument(effects: Sequence[np.ndarray]) -> Instrument:
    """A destructive test: positive operators summing to the identity.

    Each effect becomes a dim_out = 1 outcome whose Kraus rows square back to
    it; the outcome statistics are tr(effect rho).
    """
    effects = [np.asarray(e, dtype=complex) for e in effects]
    if not effects:
        raise ValueError("a test needs at least one effect")
    d = effects[0].shape[0]
    outcomes = []
    for j, effect in enumerate(effects):
        if effect.shape != (d, d) or not linalg.is_positive_semidefinite(effect):
            raise ValueError(f"effect {j} is not a positive semidefinite {d}x{d} operator")
        eigvals, eigvecs = np.linalg.eigh(effect)
        kraus = tuple(
            np.sqrt(val) * eigvecs[:, i].conj()[None, :]
            for i, val in enumerate(eigvals)
            if val > 1e-14
        ) or (np.zeros((1, d), dtype=complex),)
        outcomes.append((str(j), QuantumMap(kraus, dim_in=d, dim_out=1)))
    return Instrument(tuple(outcomes), dim_in=d, dim_out=1)


def random_cptp_map(dim_in: int, dim_out: int, kraus_count: int, seed: int) -> QuantumMap:
    """Random channel from the first dim_in columns of a Haar unitary on kraus_count * dim_out."""
    total = dim_out * kraus_count
    if total < dim_in:
        raise ValueError("kraus_count * dim_out must be at least dim_in")
    u = linalg.haar_random_unitary(total, seed)
    isometry = u[:, :dim_in]
    kraus = tuple(isometry[i * dim_out : (i + 1) * dim_out, :] for i in range(kraus_count))
    return QuantumMap(kraus, dim_in=dim_in, dim_out=dim_out)


def random_instrument(dim: int, n_outcomes: int, kraus_per_outcome: int, seed: int) -> Instrument:
    """Random instrument built by splitting a random channel's Kraus list."""
    channel = random_cptp_map(dim, dim, n_outcomes * kraus_per_outcome, seed)
    outcomes = []
    for i in range(n_outcomes):
        block = channel.kraus[i * kraus_per_outcome : (i + 1) * kraus_per_outcome]
        outcomes.append((str(i), QuantumMap(block, dim, dim)))
    return Instrument(tuple(outcomes), dim_in=dim, dim_out=dim)
