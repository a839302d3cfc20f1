"""Quantum maps, instruments and channels in Kraus form.

A quantum map is a completely positive, trace-non-increasing linear map
stored as its list of Kraus operators, held as one stacked array so that
each operation forms its per-operator terms in one batched numpy call.  Sums
over the list run in list order (``linalg.ordered_sum``), so a result does
not depend on how numpy would pair the terms.  Stacked Haar draws
(``linalg.haar_random_unitaries``) equal single draws bit for bit.  An
instrument is an outcome-labelled collection of quantum maps whose combined
action preserves the trace.  Maps are compared by their action on an
operator basis, never by their Kraus lists, because the decomposition is not
unique.

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

    ``kraus`` is one read-only complex array of shape (n, dim_out, dim_in),
    copied from the operators it is given; it indexes, slices and iterates
    as the list of operators.  Trace preservation is
    tested by :func:`is_trace_preserving`, not enforced here: the adjoint of a
    non-unital channel legitimately violates it.  Kraus decompositions are not
    unique, so maps compare by identity; test equality of maps by their action
    on an operator basis.
    """

    kraus: np.ndarray
    dim_in: int
    dim_out: int

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise ValueError("a quantum map needs at least one Kraus operator")
        for k in self.kraus:
            if np.shape(k) != (self.dim_out, self.dim_in):
                raise ValueError(
                    f"Kraus operator shape {np.shape(k)} does not match ({self.dim_out}, {self.dim_in})"
                )
        kraus = np.array(self.kraus, dtype=complex)
        kraus.setflags(write=False)
        object.__setattr__(self, "kraus", kraus)


@dataclass(frozen=True)
class ChannelClassification:
    """``classify``'s structural report: CP, TP and unital, and the two numbers they are read from."""

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
    return linalg.ordered_sum(dagger(qmap.kraus) @ qmap.kraus)


def apply(qmap: QuantumMap, rho: np.ndarray) -> np.ndarray:
    """Kraus action sum_k K rho K'."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (qmap.dim_in, qmap.dim_in):
        raise ValueError(f"operator shape {rho.shape} does not match input dimension {qmap.dim_in}")
    return linalg.ordered_sum(qmap.kraus @ rho @ dagger(qmap.kraus))


def choi_matrix(qmap: QuantumMap) -> np.ndarray:
    """Choi operator sum_ij E_ij (x) map[E_ij], input side leftmost.

    One outer product at a time: a stack of them would take n times the
    memory of the Choi matrix itself.
    """
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


def classify(qmap: QuantumMap) -> ChannelClassification:
    """Structural report: CP via the Choi spectrum, TP and unital via Kraus sums.

    Only the report needs the Choi spectrum: a Kraus-form map is CP by
    construction, and every channel check reads ``is_trace_preserving``.
    Unitality is that one criterion on the adjoint, sum K K' = I, which is
    also what decides inference symmetry and an active reversal; the test
    suite and ``retrodict verify`` hold it to sampled prediction and
    postdiction tables.
    """
    choi_min = float(np.linalg.eigvalsh(choi_matrix(qmap)).min())
    tp_defect = _trace_defect(qmap)
    if qmap.dim_in == qmap.dim_out:
        unital_defect = _trace_defect(adjoint_map(qmap))
    else:
        unital_defect = float("inf")  # identity preservation needs isomorphic spaces
    return ChannelClassification(
        is_cp=choi_min >= -ATOL_STRUCTURAL,
        is_tp=tp_defect < ATOL_STRUCTURAL,
        is_unital=unital_defect < ATOL_STRUCTURAL,
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
    return QuantumMap(dagger(qmap.kraus), dim_in=qmap.dim_out, dim_out=qmap.dim_in)


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
    kraus = np.concatenate([qmap.kraus for _, qmap in inst.outcomes])
    return QuantumMap(kraus, dim_in=inst.dim_in, dim_out=inst.dim_out)


def compose_sequential(first: Instrument, second: Instrument) -> Instrument:
    """Run ``first`` then ``second``; outcome (i, j) has map second_j o first_i."""
    if first.dim_out != second.dim_in:
        raise ValueError(
            f"cannot compose: first outputs dimension {first.dim_out}, second expects {second.dim_in}"
        )
    outcomes = []
    for label_i, map_i in first.outcomes:
        for label_j, map_j in second.outcomes:
            # [i, j] = K_j K_i, flattened with the i operators outer and the j operators inner.
            kraus = (map_j.kraus[None] @ map_i.kraus[:, None]).reshape(-1, second.dim_out, first.dim_in)
            outcomes.append(
                (join_labels(label_i, label_j), QuantumMap(kraus, first.dim_in, second.dim_out))
            )
    return Instrument(tuple(outcomes), dim_in=first.dim_in, dim_out=second.dim_out)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


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
    return QuantumMap(_noisy_kraus(u[None], d_a, d_b)[0], dim_in=d_a, dim_out=d_a)


def _noisy_kraus(us: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """The Kraus operators of ``make_noisy_operation`` for each unitary of a stack, as one (n, d_B^2, d_A, d_A) array.

    K_yb = (I (x) <y|) U (I (x) |b>) / sqrt(d_B) is the slice U[:, y, :, b]
    of U as (d_A, d_B, d_A, d_B); operator (y, b) is number y d_B + b.  The
    unitaries are not checked here.
    """
    blocks = (us.reshape(-1, d_a, d_b, d_a, d_b) / np.sqrt(d_b)).transpose(0, 2, 4, 1, 3)
    return blocks.reshape(len(blocks), d_b * d_b, d_a, d_a)


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


def random_cptp_map(dim_in: int, dim_out: int, kraus_count: int, seed: int) -> QuantumMap:
    """Random channel from the first dim_in columns of a Haar unitary on kraus_count * dim_out (a thin draw)."""
    total = dim_out * kraus_count
    if total < dim_in:
        raise ValueError("kraus_count * dim_out must be at least dim_in")
    isometry = linalg.haar_random_isometries(total, dim_in, (seed,))[0]
    kraus = tuple(isometry[i * dim_out : (i + 1) * dim_out, :] for i in range(kraus_count))
    return QuantumMap(kraus, dim_in=dim_in, dim_out=dim_out)


def _random_kraus_stacks(dim: int, kraus_count: int, seeds: Sequence[int]) -> np.ndarray:
    """The Kraus operators of ``random_cptp_map(dim, dim, kraus_count, seed)`` for each seed, bit for bit.

    One (len(seeds), kraus_count, dim, dim) stack from one thin Haar draw of
    the whole stack: the first dim columns of each unitary, cut into
    kraus_count operators.  Completeness, sum K'K = V'V = I, is checked
    once for every draw (``_check_completeness``); no map is built.
    """
    isometries = linalg.haar_random_isometries(kraus_count * dim, dim, seeds)
    _check_completeness(isometries)
    return isometries.reshape(len(seeds), kraus_count, dim, dim)


def _check_completeness(isometries: np.ndarray) -> None:
    """Reject a stack of isometries V = sum_k K_k (x) |k> unless each V'V = sum K'K = I.

    ``isometries`` is (..., d_out r, d_in), the operators' rows of each map
    in one axis.  Every map is checked at once, to an instrument's tolerance
    and with its message.
    """
    d = isometries.shape[-1]
    defect = float(np.max(np.abs(dagger(isometries) @ isometries - np.eye(d)), initial=0.0))
    if not defect < ATOL_STRUCTURAL:
        raise ValueError(f"completeness violated: max |sum K'K - I| = {defect:.3e}")


def random_instrument(dim: int, n_outcomes: int, kraus_per_outcome: int, seed: int) -> Instrument:
    """Random instrument built by splitting a random channel's Kraus list."""
    channel = random_cptp_map(dim, dim, n_outcomes * kraus_per_outcome, seed)
    outcomes = []
    for i in range(n_outcomes):
        block = channel.kraus[i * kraus_per_outcome : (i + 1) * kraus_per_outcome]
        outcomes.append((str(i), QuantumMap(block, dim, dim)))
    return Instrument(tuple(outcomes), dim_in=dim, dim_out=dim)
