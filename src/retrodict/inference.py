"""Prediction and postdiction tasks, time reversal, and identity checks.

Every basis table is a contraction of one non-negative transition array
T[x..., a...] = sum_K |K[x, a]|^2, reshaped to dims_out + dims_in: a
unitary is the case of one operator, and a preparation set {psi_i} gives
T[x, i] = |<x|U|psi_i>|^2.  A multi-outcome instrument stacks its outcomes
into T[k, x..., a...]: its outcome k is one more output factor, labelled
with the instrument's outcome labels.

Each axis of T has one role: given (a row axis, fixed at an outcome),
averaged (the flat weight I/d), guessed (a cell axis) or summed (an
unnormalized identity).  One contraction over the roles returns every row
of a table family, one per combination of given outcomes; a solved table is
one of its rows.  What is known and what is unknown set the roles, not the
direction of time, which only ``_kernel_view`` reads: prediction's data are
the input factors, postdiction's the output factors and the instrument
outcome, and a factor outside its mask is averaged or summed.  The flat
prior sits on the inputs, so a row with every input axis data and no output
axis data is a forward probability; every other row is divided by its
evidence, whose inverse is the channel's Bayes factor.

The identity checks compare these tables with an operator-level reference,
never with the kernel itself: T(U') = T(U)^T holds by construction, so a
check of the kernel against its own transpose would pass whatever the
kernel computed.  The reference is the Heisenberg pull-back
sum_k K' E K of the data-side effect, reduced to the guessed factors.  It
works factor by factor on the complex amplitudes: each data factor's effect
A_f' A_f (outcome rows <g| on a given factor, I/sqrt(d) on an ignored one)
is applied to its own axis of K, and the squared moduli are summed over the
traced axes.  One call covers every given outcome of a relation.  Both the
kernel and the reference read operators as one array, a Kraus list
(K, D_out, D_in) or (n, K, D_out, D_in) for n instances, so one call also
covers a stack of random instances.  ``identity_suite`` runs every check
on seeded random instances; it is ``retrodict verify``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .channels import (
    Instrument,
    QuantumMap,
    _check_completeness,
    _noisy_kraus,
    _random_kraus_stacks,
    adjoint_map,
    amplitude_damping,
    check_cptp,
    is_trace_preserving,
    make_dephasing,
)
from .channels import classify  # noqa: F401  (bound here for bench/test_bench.py's tracer test)
from .errors import NoActiveReverseError, UndefinedConditionalError
from .linalg import ATOL_STRUCTURAL, dagger
from .purify import (
    Purification,
    _dilations,
    _padded_count,
    _rotated,
    _rotations,
    _round_trip_defects,
    purify_instrument,
    stinespring,
)
from .tables import ProbabilityTable, join_labels

Given = Sequence[int | None]
Mask = Sequence[bool]

# A row to normalize whose flat-prior evidence falls below this has no table.
MIN_EVIDENCE = 1e-12

# The role of an axis of T, and the roles of a row's data.
GIVEN, AVERAGED, GUESSED, SUMMED = "given", "averaged", "guessed", "summed"
DATA = (GIVEN, AVERAGED)


# ---------------------------------------------------------------------------
# The transition-array kernel and its operator-level reference
# ---------------------------------------------------------------------------


def _transitions(
    transformation: np.ndarray | QuantumMap | Instrument, states: Sequence[np.ndarray] | None = None
) -> np.ndarray:
    """The transition array T[x, a] = sum_K |K[x, a]|^2 of shape (D_out, D_in).

    Operators come as one complex array: a Kraus list (K, D_out, D_in),
    summed in list order, or (n, K, D_out, D_in) for n instances, one array
    each; a stack of n unitaries is ``us[:, None]``.  At most one instance
    axis is accepted.  A task's transformation reads as one such array: a
    channel is its Kraus list, and a unitary matrix is one operator, whose
    columns with preparation ``states`` are the images U|psi_i>.  A
    multi-outcome instrument stacks one array per outcome into T[k, x, a];
    a single-outcome one is the channel of its outcome.  The solver, the
    sampler and the identity checks read their array from here.

    Each T keeps the memory layout of its operators: the reductions of
    ``_contract`` follow it, so a transposed operator must keep its layout
    for the tables to keep their bits.
    """
    if isinstance(transformation, Instrument):
        stacks = [qmap.kraus for _, qmap in transformation.outcomes]
    else:
        kraus = transformation.kraus if isinstance(transformation, QuantumMap) else np.asarray(transformation, complex)
        if kraus.ndim == 2:  # a task's unitary
            kraus = (kraus if states is None else kraus @ np.stack(states, axis=1))[None]
        stacks = [kraus]
    # swapaxes, not np.moveaxis, whose Python-level axis handling showed in verify's time per call.
    arrays = [linalg.ordered_sum((kraus.real**2 + kraus.imag**2).swapaxes(0, -3)) for kraus in stacks]
    return np.stack(arrays) if len(arrays) > 1 else arrays[0]


def _contract(t: np.ndarray, roles: Sequence[str]) -> np.ndarray:
    """Every row of one table family: the guessed cells for each combination of given outcomes.

    ``t`` has one axis per role, in T's order: the instrument outcome, the
    output factors, then the input factors, behind ``t.ndim - len(roles)``
    instance axes.  The data axes move to the front in T order, the averaged
    ones are averaged and the summed ones summed out; rows follow
    ``itertools.product`` order over the given outcomes, and cells are
    flattened in label order, shaped (instances..., rows, cells).  No
    reduction crosses an instance axis, so each instance's rows are bit for
    bit those of its own call when its array keeps its own memory layout.
    """
    lead = t.ndim - len(roles)
    order = sorted(range(len(roles)), key=lambda axis: roles[axis] not in DATA)
    rows = math.prod(d for d, role in zip(t.shape[lead:], roles) if role == GIVEN)
    t = t.transpose(tuple(range(lead)) + tuple(lead + axis for axis in order))
    left = [roles[axis] for axis in order]
    t = t.mean(axis=tuple(lead + i for i, role in enumerate(left) if role == AVERAGED))
    left = [role for role in left if role != AVERAGED]
    t = t.sum(axis=tuple(lead + i for i, role in enumerate(left) if role == SUMMED))
    return t.reshape(t.shape[:lead] + (rows, -1))


def _normalized(roles: Sequence[str], n_out: int) -> bool:
    """Whether a family's rows are divided by their evidence: all but a forward probability's,
    whose input axes are all data and whose first ``n_out`` axes, the outputs, are not."""
    return any(role in DATA for role in roles[:n_out]) or not all(role in DATA for role in roles[n_out:])


def _table_rows(kraus: np.ndarray, dims: Sequence[int], roles: Sequence[str]) -> np.ndarray:
    """The unnormalized rows of a table family of a Kraus array, its T's axes in ``dims`` and ``roles``.

    ``kraus`` is (K, D_out, D_in), or (n, K, D_out, D_in) for n instances,
    whose rows come from one contraction, shaped (n, rows, cells).  Both
    stages are looked up in this module when called, so the identity checks
    that read the kernel from other modules read the one held here.
    """
    t = _transitions(kraus)
    return _contract(t.reshape(t.shape[:-2] + tuple(dims)), roles)


def _evidence(numerators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's flat-prior evidence, and whether it is missing: below ``MIN_EVIDENCE``, or NaN."""
    evidence = numerators.sum(axis=-1, keepdims=True)
    return evidence, ~(evidence[..., 0] >= MIN_EVIDENCE)


def _bayes_rows(numerators: np.ndarray, given: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Flat-prior postdiction: each row of numerators (or the one row) divided by its evidence.

    Returns the rows and the Bayes factors 1 / evidence, which a channel's
    postdiction carries.  A row without evidence has no postdiction; the
    error names ``given`` when the caller has it.
    """
    evidence, missing = _evidence(numerators)
    if missing.any():
        outcome = "a test outcome" if given is None else f"test outcome {given}"
        raise UndefinedConditionalError(f"{outcome} has zero probability under the flat prior")
    return numerators / evidence, 1.0 / evidence[..., 0]


def _pull_back_reference(
    kraus: np.ndarray,
    dims_data: Sequence[int],
    outcomes: Sequence[Sequence[int] | None],
    dims_guess: Sequence[int],
    mask: Mask,
) -> np.ndarray:
    """Operator-level reference the identity checks hold the kernel to.

    Each K_k maps the guessed space into the data space (U for postdiction
    through U, U' for prediction).  The data-side effect is a product of
    factor effects E_f = A_f' A_f: a given factor lists its outcomes and
    A_f stacks their rows <g|, an ignored factor passes ``None`` and
    A_f = I/sqrt(d).  A factor that lists all its outcomes in order has
    A_f = I, so only its axis moves.  Each A_f acts on its own axis of the
    amplitudes K_k, reshaped to dims_data + dims_guess, so the diagonal of
    sum_k K_k' E K_k reduced to the guessed factors is
    sum_k |(A_1 (x) ... ) K_k|^2 summed over the ignored data axes and the
    unguessed guess axes.  Every listed
    outcome is done in one pass, and no array grows beyond K_k.

    ``kraus`` is one array in the form ``_transitions`` reads: (K, D_data,
    D_guess), or (n, K, D_data, D_guess) for n instances.  Returns the
    unnormalized guessed cells in label order, one row per combination of
    the listed outcomes in ``itertools.product`` order, shaped (n, rows,
    cells) for instances: each factor is one matrix product per instance, as
    for a single operator, so each instance's rows are bit for bit those of
    its own call.
    """
    factors = [_factor_effect(d, listed) for d, listed in zip(dims_data, outcomes)]
    n_guess = len(dims_guess)
    summed = tuple(k for k, m in enumerate(mask) if not m) + tuple(
        n_guess + f for f, listed in enumerate(outcomes) if listed is None
    )
    lead = kraus.shape[:-3]
    n_lead = len(lead)
    cells = 0.0
    for k in kraus.swapaxes(0, -3):
        amplitudes = k.reshape(lead + tuple(dims_data) + tuple(dims_guess))
        for a in factors:
            # Contracts the first data axis; A_f's output axis lands last.
            moved = np.moveaxis(amplitudes, n_lead, -1)
            if a is None:  # A_f = I
                amplitudes = moved
                continue
            contracted = moved.reshape(lead + (-1, a.shape[1])) @ a.T
            amplitudes = contracted.reshape(moved.shape[:-1] + a.shape[:1])
        # In the memory order a last product by I would have left, so the sums below pair terms alike.
        amplitudes = np.ascontiguousarray(amplitudes)
        squares = amplitudes.real**2 + amplitudes.imag**2
        cells = cells + squares.sum(axis=tuple(n_lead + axis for axis in summed))
    # Left: the instance axis, the guessed axes, then the given data axes.
    n_kept = sum(bool(m) for m in mask)
    kept = tuple(range(n_lead, n_lead + n_kept))
    order = tuple(range(n_lead)) + tuple(range(n_lead + n_kept, cells.ndim)) + kept
    return cells.transpose(order).reshape(lead + (-1, math.prod(d for d, m in zip(dims_guess, mask) if m)))


def _factor_effect(d: int, listed: Sequence[int] | None) -> np.ndarray | None:
    """A data factor's A_f: I/sqrt(d) for an ignored factor, else the bras <g| of its listed outcomes.

    A factor that lists all of 0 ... d - 1 in order has A_f = I, returned as
    None: ``_pull_back_reference`` skips its product.
    """
    if listed is None:
        return np.eye(d) / np.sqrt(d)
    listed = list(listed)
    for g in listed:
        if not 0 <= g < d:
            raise ValueError(f"basis index {g} out of range for dimension {d}")
    return None if listed == list(range(d)) else np.eye(d, dtype=complex)[listed]


@functools.lru_cache(maxsize=256)
def _joined_labels(labels: tuple[tuple[str, ...], ...], mask: tuple[bool, ...]) -> tuple[str, ...]:
    """The label of every outcome combination of the factors in the mask, in ``itertools.product`` order.

    ``labels`` lists each factor's outcome labels.  These are the given labels
    of a family's rows and the labels of its cells; they depend on nothing
    else, so they are built once.
    """
    kept = [factor for factor, m in zip(labels, mask) if m]
    return tuple(join_labels(*combo) for combo in itertools.product(*kept))


_NOT_UNITARY = "transformation matrix is not unitary within tolerance"


def _check_unitary_arg(u: np.ndarray) -> np.ndarray:
    """``u`` as a complex unitary matrix, or a ValueError; a stack of matrices is refused."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or not linalg.is_unitary(u):
        raise ValueError(_NOT_UNITARY)
    return u


# ---------------------------------------------------------------------------
# Open systems
# ---------------------------------------------------------------------------


def predict_open(
    u: np.ndarray,
    dims_in: Sequence[int],
    dims_out: Sequence[int],
    known_input: Given,
    guess_output_mask: Mask,
) -> ProbabilityTable:
    """Prediction with partial data: unknown input factors carry the flat prior I/d,
    output factors outside the guess mask are discarded (marginalized)."""
    known = tuple(g is not None for g in known_input)
    return solve(InferenceTask(u, dims_in, dims_out, "predict", known, guess_output_mask, given_input=known_input))


def postdict_open(
    u: np.ndarray,
    dims_in: Sequence[int],
    dims_out: Sequence[int],
    known_output: Given,
    guess_input_mask: Mask,
) -> ProbabilityTable:
    """Postdiction with partial data: ignored output factors carry flat weights 1/d,
    input factors outside the guess mask are marginalized with a bare identity."""
    known = tuple(g is not None for g in known_output)
    return solve(InferenceTask(u, dims_in, dims_out, "postdict", guess_input_mask, known, given_output=known_output))


# ---------------------------------------------------------------------------
# Quantum channels
# ---------------------------------------------------------------------------


def postdict_channel(channel: QuantumMap, x: int) -> ProbabilityTable:
    """Flat-prior Bayes inversion of the generalized Born rule.

    The table carries the normalization factor f(x) = 1 / tr |x><x| channel[I],
    which multiplies the prediction probabilities into the postdiction ones.
    """
    dims = ((channel.dim_in,), (channel.dim_out,))
    return solve(InferenceTask(channel, *dims, "postdict", (True,), (True,), given_output=(x,)))


def postdict_channel_via_purification(
    channel: QuantumMap, x: int, purification: Purification | None = None
) -> ProbabilityTable:
    """Postdiction computed on a purification instead of the channel itself.

    Runs the dilation on its known ancilla state, |a> -> V|a>, and
    postdicts a from x with the output ancilla ignored: the purified
    open-system task P(a, b | x, U) conditioned on the ancilla preparation.
    Any purification of the channel gives the same table.  The numerators
    are the diagonal of the operator-level pull-back
    V'(|x><x| (x) I/d_Y)V = V_x' V_x / d_Y, not the transition-array kernel,
    so comparing this table with ``postdict_channel`` checks the kernel.
    Building the purification checks the channel; one that is passed in was
    checked when it was built.
    """
    if purification is None:
        purification = stinespring(channel)
    if purification.pointer_partition is not None:
        raise ValueError("expected a channel purification, not an instrument purification")
    d_a = purification.dims_in[0]
    if d_a != channel.dim_in:
        raise ValueError("purification input dimension does not match the channel")
    d_x = purification.dims_out[0]
    if not 0 <= x < d_x:
        raise ValueError(f"test outcome {x} out of range for factor dimension {d_x}")
    values, _ = _bayes_rows(_purified_numerators(purification.isometry, [x])[0], str(x))
    return ProbabilityTable.from_values([str(a) for a in range(d_a)], values, given=str(x), direction="postdict")


def _purified_numerators(isometry: np.ndarray, outcomes=slice(None)) -> np.ndarray:
    """The flat-prior postdiction numerators of a channel's dilation, one row per test outcome x.

    ``isometry`` is V shaped (..., d_X, d_Y, d_A), one dilation or a stack.
    Row x, for each x in ``outcomes`` (every one by default), is the diagonal
    of the pull-back V_x' V_x / d_Y, indexed by the input a: one matrix
    product per x, as ``postdict_channel_via_purification`` reads its row.
    """
    v = isometry[..., outcomes, :, :]
    return np.diagonal(dagger(v) @ v, axis1=-2, axis2=-1).real / isometry.shape[-2]


def _purified_ratio_defects(kraus: np.ndarray, trials: int, rotation_seeds: Sequence[int]) -> np.ndarray:
    """The purified-ratio defect of each channel of an (n, K, d_X, d_A) stack of Kraus stacks.

    Instance t's defect is the largest of its round trip,
    ``verify_purification(channel, rotated, trials, seed=t)`` for
    ``rotated = rotate_ancilla(stinespring(channel), rotation_seeds[t])``,
    and the gaps between the channel's flat-prior postdiction rows and
    those read off its dilation and off that rotation, bit for bit, with
    no map or purification built.  The round trip runs on the rotation:
    the dilation's slices are the K_k themselves, so both of its sides
    would be one sum.  The states of seeds 0 ... n + trials - 2 are drawn
    once, and instance t reads its window t ... t + trials - 1.

    Instances go in the stacks of ``linalg.groups``, each counted by the
    larger of its Kraus stack and d_Y^2 complex entries.  A stack's
    dilations V are checked at once, V'V = sum K'K = I
    (``channels._check_completeness``); its rotations are one draw, each
    applied on its own as ``rotate_ancilla`` applies it, so that each
    keeps that call's bits; its direct rows come from one ``_transitions``
    call, looked up when called, and the numerators of the stack's
    dilations from one product and of their rotations from another: one
    product over both would need a stacked copy of both, which costs
    milliseconds from d_A = 12 on.
    """
    n, count, d_x, d_a = kraus.shape
    states = linalg.random_density_matrices(d_a, range(n + trials - 1))
    windows = states[np.arange(n)[:, None] + np.arange(trials)]
    d_y = _padded_count(count, d_x, d_a)
    defects = []
    for group in linalg.groups(n, 16 * max(kraus[0].size, d_y * d_y)):
        v = _dilations(kraus[group])
        _check_completeness(v.reshape(len(v), -1, d_a))
        rotated = np.stack([_rotated(*instance) for instance in zip(v, *_rotations(d_y, rotation_seeds[group]))])
        defect = _round_trip_defects(kraus[group], rotated, windows[group])
        direct, _ = _bayes_rows(_table_rows(kraus[group], (d_x, d_a), (GIVEN, GUESSED)))
        for dilations in (v, rotated):
            via, _ = _bayes_rows(_purified_numerators(dilations))
            defect = np.maximum(defect, np.max(np.abs(direct - via), axis=(1, 2)))
        defects.append(defect)
    return np.concatenate(defects)


# ---------------------------------------------------------------------------
# General (not necessarily orthogonal) preparations
# ---------------------------------------------------------------------------


def _check_preparation_states(states: Sequence[np.ndarray], d: int) -> None:
    if not len(states):
        raise ValueError("at least one preparation state is required")
    for i, psi in enumerate(states):
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        if psi.shape != (d,):
            raise ValueError(f"state {i} has length {psi.shape[0]}, expected {d}")
        # Written so that a NaN norm fails it too.
        if not abs(np.linalg.norm(psi) - 1.0) <= ATOL_STRUCTURAL:
            raise ValueError(f"state {i} is not normalized")


@dataclass(frozen=True)
class GeneralPrepCheck:
    """``general_prep_purified_check``'s two postdiction tables and their largest difference."""

    direct: ProbabilityTable
    purified: ProbabilityTable
    max_defect: float


def general_prep_purified_check(
    states: Sequence[np.ndarray], u: np.ndarray, x: int
) -> GeneralPrepCheck:
    """Verify that postdiction over general preparations is a purified-task ratio.

    The controlled preparation |a_0>|b_i> -> |psi_i>|b_i> is read on its only
    columns that matter, the isometry W with column i = |psi_i> (x) |b_i>.
    U acts on W's first factor, and postdicting b_i from x with the output
    ancilla ignored gives P(a_0, b_i | x, U') / P(a_0 | x, U') for
    U' = (U (x) I) U_P, which must equal P(psi_i | x, U).  The purified
    numerators are the operator-level pull-back, not the transition-array
    kernel, so the comparison checks the kernel.
    """
    u = np.asarray(u, dtype=complex)
    dims = u.shape[:1]
    task = InferenceTask(u, dims, dims, "postdict", (True,), (True,), given_output=(x,), preparation_states=states)
    direct = solve(task)  # checks U and the states
    n, d = len(states), u.shape[0]
    w = np.zeros((d, n, n), dtype=complex)
    for i, psi in enumerate(states):
        w[:, i, i] = np.reshape(psi, -1)
    evolved = np.tensordot(u, w, axes=([1], [0])).reshape(d * n, n)
    numerators = _pull_back_reference(evolved[None], (d, n), ((x,), None), (n,), (True,))
    values, _ = _bayes_rows(numerators[0], str(x))
    purified = ProbabilityTable.from_values([str(i) for i in range(n)], values, given=str(x), direction="postdict")
    return GeneralPrepCheck(direct, purified, direct.max_difference(purified))


# ---------------------------------------------------------------------------
# Inference tasks and time reversal
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InferenceTask:
    """A prepare-transform-measure inference problem.

    ``known_input_mask`` marks the input factors that take part in the task:
    they carry given outcomes when predicting and are the guessed alternatives
    when postdicting.  ``known_output_mask`` plays the mirrored role on the
    output side; mask entries are booleans.  Factors outside the masks are
    ignored (flat prior on the data side, marginalized on the guessing
    side).  ``preparation_states`` switches the input alternatives from a
    basis to an arbitrary pure-state set; ``given_outcome`` is the observed
    instrument outcome label, data when postdicting.
    """

    transformation: np.ndarray | QuantumMap | Instrument
    dims_in: tuple[int, ...]
    dims_out: tuple[int, ...]
    direction: str
    known_input_mask: tuple[bool, ...]
    known_output_mask: tuple[bool, ...]
    given_input: tuple[int | None, ...] = ()
    given_output: tuple[int | None, ...] = ()
    preparation_states: tuple[np.ndarray, ...] | None = None
    given_outcome: str | None = None

    def __post_init__(self):
        if self.direction not in ("predict", "postdict"):
            raise ValueError(f"unknown direction {self.direction!r}")
        dims_in = tuple(int(d) for d in self.dims_in)
        dims_out = tuple(int(d) for d in self.dims_out)
        object.__setattr__(self, "dims_in", dims_in)
        object.__setattr__(self, "dims_out", dims_out)
        for name in ("known_input_mask", "known_output_mask"):
            mask = tuple(getattr(self, name))
            if not all(isinstance(m, (bool, np.bool_)) for m in mask):
                raise ValueError(f"{name} entries must be booleans, got {mask!r}")
            object.__setattr__(self, name, tuple(bool(m) for m in mask))
        given_input = tuple(None if g is None else as_outcome(g) for g in self.given_input) or (None,) * len(dims_in)
        given_output = tuple(None if g is None else as_outcome(g) for g in self.given_output) or (None,) * len(dims_out)
        object.__setattr__(self, "given_input", given_input)
        object.__setattr__(self, "given_output", given_output)
        if len(self.known_input_mask) != len(dims_in) or len(given_input) != len(dims_in):
            raise ValueError("input masks and outcomes must have one entry per input factor")
        if len(self.known_output_mask) != len(dims_out) or len(given_output) != len(dims_out):
            raise ValueError("output masks and outcomes must have one entry per output factor")
        if self.preparation_states is not None:
            states = tuple(np.asarray(s, dtype=complex).reshape(-1) for s in self.preparation_states)
            object.__setattr__(self, "preparation_states", states)
            if len(dims_in) != 1:
                raise ValueError("preparation state sets require a single input factor")
            if not isinstance(self.transformation, np.ndarray):
                raise ValueError("preparation state sets require a unitary transformation")
        total_in = linalg.dims_total(dims_in)
        total_out = linalg.dims_total(dims_out)
        if isinstance(self.transformation, (Instrument, QuantumMap)):
            if (total_in, total_out) != (self.transformation.dim_in, self.transformation.dim_out):
                raise ValueError("declared dimensions do not match the transformation")
        else:
            u = np.asarray(self.transformation, dtype=complex)
            if total_in != total_out or u.shape != (total_in, total_in):
                raise ValueError("declared dimensions do not match the transformation matrix")


def as_outcome(value) -> int:
    """An outcome index from an integer, an integral number or a numeric string, never from a boolean."""
    try:
        index = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad outcome {value!r}") from exc
    if isinstance(value, (bool, np.bool_)) or (not isinstance(value, str) and index != value):
        raise ValueError(f"bad outcome {value!r}: not an integer")
    return index


def _check_transformation(task: InferenceTask) -> None:
    """Structural validation, done once where a task enters the solver.

    A matrix must be unitary and its preparation states normalized, a map
    must be a channel; an instrument's completeness was checked when it was
    built.
    """
    transformation = task.transformation
    if isinstance(transformation, QuantumMap):
        check_cptp(transformation)
    elif not isinstance(transformation, Instrument):
        u = _check_unitary_arg(transformation)
        if task.preparation_states is not None:
            _check_preparation_states(task.preparation_states, u.shape[0])


def solve(task: InferenceTask) -> ProbabilityTable:
    """Solve any inference task on the transition-array kernel.

    The transformation is validated once; its transition array is contracted
    with the task's own factors, masks and given outcomes, and with the
    instrument outcome as one more output factor.  Ignored data factors
    carry the flat weight 1/d whatever the transformation, and only a
    channel's postdiction carries the Bayes factor.  Solving needs the data:
    a predict task must carry outcomes on its known input factors, a postdict
    task on its known output factors, and one through a multi-outcome
    instrument the observed outcome label.  Tasks without them are still
    valid as ensemble descriptions for the sampler.
    """
    _check_transformation(task)
    return _solve_checked(task)


def _kernel_view(task: InferenceTask):
    """A task as the kernel reads it: each axis of T's labels, role and given outcome, and the count of output axes.

    The axes run as T's do: the instrument outcome, the output factors, then
    the input factors.  A preparation-state set is one input factor with one
    alternative per state.  A multi-outcome instrument's outcome is one more
    output axis, labelled with its labels, data exactly when the output side
    is, and given at the index of ``given_outcome`` among them (None for a
    label it lacks).  The direction becomes roles only here.
    """
    dims_in = task.dims_in if task.preparation_states is None else (len(task.preparation_states),)
    labels = tuple(tuple(map(str, range(d))) for d in task.dims_out + dims_in)
    # Each side's roles in and outside its mask: the output side's, then the input side's.
    out_side, in_side = ((GUESSED, SUMMED), DATA) if task.direction == "predict" else (DATA, (GUESSED, SUMMED))
    roles = tuple(out_side[not m] for m in task.known_output_mask) + tuple(in_side[not m] for m in task.known_input_mask)
    given = task.given_output + task.given_input
    if isinstance(task.transformation, Instrument) and len(task.transformation.outcomes) > 1:
        outcomes = task.transformation.labels()
        labels, roles = (outcomes,) + labels, (out_side[0],) + roles
        given = (outcomes.index(task.given_outcome) if task.given_outcome in outcomes else None,) + given
    return labels, roles, given, len(labels) - len(dims_in)


def _solve_checked(task: InferenceTask) -> ProbabilityTable:
    """The body of ``solve`` for a task whose transformation has been validated: its given outcomes' row.

    Each given outcome is checked against its axis before any array is
    built.  A scenario's transformation is validated when it is parsed, so
    the ``predict`` and ``postdict`` commands solve here.
    """
    view = _kernel_view(task)
    labels, roles, given, n_out = view
    rows = [axis for axis, role in enumerate(roles) if role == GIVEN]
    n_outcome = n_out - len(task.dims_out)
    for side, first, last in (("output", n_outcome, n_out), ("input", n_out, len(roles))):
        missing = [axis - first for axis in rows if first <= axis < last and given[axis] is None]
        if missing:
            raise ValueError(f"solving this task requires given outcomes on {side} factors {missing}")
    if n_outcome and 0 in rows and given[0] is None:
        if task.given_outcome is None:
            raise ValueError("postdiction through an instrument requires the observed outcome label")
        raise ValueError(f"the instrument has no outcome labelled {task.given_outcome!r}")
    for axis in rows:
        if not 0 <= given[axis] < len(labels[axis]):
            side = "preparation" if axis >= n_out else "test"
            raise ValueError(f"{side} outcome {given[axis]} out of range for factor dimension {len(labels[axis])}")
    family = _solve_rows(view, _transitions(task.transformation, task.preparation_states))
    row = np.ravel_multi_index(tuple(given[axis] for axis in rows), tuple(len(labels[axis]) for axis in rows))
    return _row_table(task, family, row)


def _solve_rows(view, t: np.ndarray) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray, bool]:
    """A validated task's family: given labels, cell labels, an unnormalized row per given label, and if they normalize.

    ``view`` is the task's ``_kernel_view`` and ``t`` its ``_transitions``.
    The view's given outcomes are not read: there is one row per combination
    of outcomes of its given axes.  ``_row_table`` makes a row into a table.
    """
    labels, roles, _, n_out = view
    if GUESSED not in roles:
        raise ValueError("at least one factor must be guessed")
    rows = _contract(t.reshape(tuple(map(len, labels))), roles)
    givens = _joined_labels(labels, tuple(role == GIVEN for role in roles))
    return givens, _joined_labels(labels, tuple(role == GUESSED for role in roles)), rows, _normalized(roles, n_out)


def _row_table(task: InferenceTask, family, row: int) -> ProbabilityTable:
    """Row ``row`` of a family from ``_solve_rows`` as a table, labelled with the task's direction.

    A row of a normalized family is divided by its evidence, and a channel's
    carries its Bayes factor.
    """
    givens, cells, rows, normalized = family
    values, factor = _bayes_rows(rows[row], givens[row]) if normalized else (rows[row], None)
    factor = float(factor) if factor is not None and isinstance(task.transformation, QuantumMap) else None
    return ProbabilityTable.from_values(cells, values, given=givens[row], direction=task.direction, factor=factor)


def time_reverse(task: InferenceTask) -> InferenceTask:
    """The task about the same events with the arrow of time flipped.

    The transformation is replaced by its adjoint and the preparation and test
    sides swap, so the given data stays attached to the same physical factors
    while the inference direction flips.  The reversed task has the same
    solution table as the original when the transformation is unitary or a
    unital channel.  A channel whose adjoint is not a channel has no reversed
    task.
    """
    if isinstance(task.transformation, Instrument):
        raise ValueError("time reversal is defined for unitary and channel tasks")
    if isinstance(task.transformation, QuantumMap):
        reversed_transformation = adjoint_map(task.transformation)
        if not is_trace_preserving(reversed_transformation):
            raise NoActiveReverseError(
                "the adjoint map is not trace preserving; only unital channels admit an active reversal"
            )
    else:
        reversed_transformation = dagger(np.asarray(task.transformation, dtype=complex))
    if task.preparation_states is not None:
        raise ValueError("time reversal requires basis preparations")
    return InferenceTask(
        transformation=reversed_transformation,
        dims_in=task.dims_out,
        dims_out=task.dims_in,
        direction="postdict" if task.direction == "predict" else "predict",
        known_input_mask=task.known_output_mask,
        known_output_mask=task.known_input_mask,
        given_input=task.given_output,
        given_output=task.given_input,
    )


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourTaskReport:
    """The four conceptually distinct task tables and the Born table they equal, each indexed [a, x]."""

    predict_forward: np.ndarray
    postdict_forward: np.ndarray
    predict_reversed: np.ndarray
    postdict_reversed: np.ndarray
    reference: np.ndarray
    max_defect: float = field(init=False)

    def __post_init__(self):
        tables = (self.predict_forward, self.postdict_forward, self.predict_reversed, self.postdict_reversed)
        object.__setattr__(self, "max_defect", max(float(np.max(np.abs(t - self.reference))) for t in tables))


def _born_table(kraus: np.ndarray) -> np.ndarray:
    """The operator-level Born values tr |x><x| K|a><a|K', indexed [a, x]: one pull-back of every |x><x|."""
    dim_out, dim_in = kraus.shape[-2:]
    return _pull_back_reference(kraus, (dim_out,), (range(dim_out),), (dim_in,), (True,)).T


def four_task_check(transformation: np.ndarray | QuantumMap) -> FourTaskReport:
    """Evaluate prediction and postdiction for a transformation and its adjoint, at every (a, x).

    The reference is the operator-level Born table tr |x><x| K|a><a|K' of the
    unitary or unital channel.  All four task tables must coincide with it.
    The transformation is validated once, and each direction's transition
    array is built once.
    """
    if isinstance(transformation, QuantumMap):
        reverse = adjoint_map(transformation)
        if not (is_trace_preserving(transformation) and is_trace_preserving(reverse)):
            raise ValueError("the four-task equality holds for unital channels only")
        kraus, back_kraus = transformation.kraus, reverse.kraus
    else:
        kraus = _check_unitary_arg(transformation)[None]
        back_kraus = dagger(kraus)
    # The adjoint of a unitary or of a unital channel needs no check of its own.
    ahead, back = _transitions(kraus), _transitions(back_kraus)
    return FourTaskReport(
        predict_forward=_contract(ahead, (GUESSED, GIVEN)),
        postdict_forward=_bayes_rows(_contract(ahead, (GIVEN, GUESSED)))[0].T,
        predict_reversed=_contract(back, (GUESSED, GIVEN)).T,
        postdict_reversed=_bayes_rows(_contract(back, (GIVEN, GUESSED)))[0],
        reference=_born_table(kraus),
    )


def open_reversal_check(
    u: np.ndarray, dims_in: Sequence[int], dims_out: Sequence[int] | None = None
) -> dict[str, float]:
    """Check all six open-system relations between a task and its time reverse.

    Each relation equates a table solved for the adjoint of U with the
    operator-level pull-back through U of the task with the data and guess
    sides swapped.  Returns the maximum defect per relation plus an overall
    ``max`` entry.  ``u`` may be an (n, D, D) stack of unitaries, checked
    in one ``linalg.is_unitary`` call that fails if any member fails: every
    relation is then one contraction and one pull-back for the whole stack,
    and its entry is the maximum over the stack, equal to the maximum of the
    per-instance entries.
    """
    dims_out = dims_in if dims_out is None else dims_out
    if len(dims_in) != 2 or len(dims_out) != 2:
        raise ValueError("open_reversal_check takes exactly two factors per side")
    u = np.asarray(u, dtype=complex)
    stack = u if u.ndim == 3 else u[None]
    if not len(stack):
        raise ValueError("open_reversal_check needs at least one unitary")
    if stack.shape[1:] != (linalg.dims_total(dims_out), linalg.dims_total(dims_in)):
        raise ValueError("declared dimensions do not match the transformation matrix")
    if not linalg.is_unitary(stack):
        raise ValueError(_NOT_UNITARY)
    forward = stack[:, None]  # each unitary a Kraus list of one
    ud = dagger(forward)
    t = _transitions(ud).reshape(len(stack), *dims_in, *dims_out)
    # Each relation's roles of the axes of T(U'): U's input factors (a, b), then its output factors (x, y).
    relations = (
        ("pre-a-xy", (GUESSED, SUMMED, GIVEN, GIVEN)),
        ("pre-ab-x", (GUESSED, GUESSED, GIVEN, AVERAGED)),
        ("post-xy-a", (GIVEN, AVERAGED, GUESSED, GUESSED)),
        ("post-x-ab", (GIVEN, GIVEN, GUESSED, SUMMED)),
        ("pre-a-x", (GUESSED, SUMMED, GIVEN, AVERAGED)),
        ("post-x-a", (GIVEN, AVERAGED, GUESSED, SUMMED)),
    )
    defects: dict[str, float] = {}
    for name, roles in relations:
        rows = _contract(t, roles)
        # The reference pulls the data side's effect back through the operator into it.
        sides, kraus = ((dims_out, roles[2:]), (dims_in, roles[:2])), forward
        if _normalized(roles, len(dims_in)):
            rows, _ = _bayes_rows(rows)
            sides, kraus = sides[::-1], ud
        (data_dims, data), (guess_dims, guess) = sides
        outcomes = tuple(range(d) if role == GIVEN else None for d, role in zip(data_dims, data))
        reference = _pull_back_reference(kraus, data_dims, outcomes, guess_dims, [role == GUESSED for role in guess])
        defects[name] = float(np.max(np.abs(rows - reference)))
    defects["max"] = max(defects.values())
    return defects


@dataclass(frozen=True)
class TowardsPastReport:
    """The Born table and the reversed postdiction table, each indexed [a, x]."""

    born: np.ndarray
    reversed_postdiction: np.ndarray
    max_defect: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "max_defect", float(np.max(np.abs(self.born - self.reversed_postdiction))))


def channel_toward_past_check(channel: QuantumMap, purification: Purification | None = None) -> TowardsPastReport:
    """The generalized Born value doubles as a time-reversed postdiction.

    tr |x><x| channel[|a><a|] equals the postdiction of x in the task where
    the dilation runs backwards and the output a is the data, whether or not
    the channel itself admits an active reversal.  Run backwards with its
    known ancilla fixed at |b>, the dilation is V' = (I (x) <b|)U', so the
    postdiction reads V' alone.  Every (a, x) comes from one pull-back and
    one postdiction family on V'.
    Building the purification checks the channel; one that is passed in was
    checked when it was built.
    """
    if purification is None:
        purification = stinespring(channel)
    d_a = purification.dims_in[0]
    back = dagger(purification.isometry.reshape(1, -1, d_a))
    rows, _ = _bayes_rows(_table_rows(back, (d_a, *purification.dims_out), (GIVEN, GUESSED, SUMMED)))
    return TowardsPastReport(_born_table(channel.kraus), rows)


# ---------------------------------------------------------------------------
# No signalling from the further unknown
# ---------------------------------------------------------------------------


def _kraus_stack(inst: Instrument) -> tuple[np.ndarray, np.ndarray]:
    """An instrument's Kraus operators in one stack, outcome by outcome, and where each outcome's run starts."""
    stacks = [qmap.kraus for _, qmap in inst.outcomes]
    return np.concatenate(stacks), np.cumsum([0] + [len(k) for k in stacks[:-1]])


def _random_followers(d: int, n_outcomes: int, count: int, seed: int) -> np.ndarray:
    """The Kraus operators of ``count`` random followers, two per outcome, as one (count * 2 n, d, d) stack.

    Follower t is ``random_instrument(d, n_outcomes, 2, seed + 101 (t + 1))``
    bit for bit.  Every follower is drawn in one call, and their
    completeness is checked at once (``channels._random_kraus_stacks``).
    """
    return _random_kraus_stacks(d, 2 * n_outcomes, _follower_seeds(seed, count)).reshape(-1, d, d)


def _follower_seeds(seed: int, count: int) -> list[int]:
    """The seeds of the random followers of a no-signalling instance of seed ``seed``."""
    return [seed + 101 * (t + 1) for t in range(count)]


def _sequential_kraus(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Every Kraus operator F_l E_k of the stack ``second`` run after the stack ``first``, indexed [k, l]."""
    return second[None] @ first[:, None]


def _traces(kraus: np.ndarray, state: np.ndarray) -> np.ndarray:
    """tr K state K' for each operator K of a stack, broadcast over the leading axes of both."""
    return np.trace(kraus @ state @ dagger(kraus), axis1=-2, axis2=-1).real


@dataclass(frozen=True)
class NoSignallingReport:
    """``no_signalling_check``'s three defects and the conditional readings it skipped."""

    marginal_defect: float
    purified_defect: float
    conditional_defect: float
    skipped_conditionals: tuple[str, ...]

    @property
    def max_defect(self) -> float:
        return max(self.marginal_defect, self.purified_defect, self.conditional_defect)


def no_signalling_check(
    e: Instrument, f: Instrument, rho: np.ndarray, extra_followers: int = 4, seed: int = 0
) -> NoSignallingReport:
    """Marginalizing a later operation leaves the earlier statistics unchanged.

    Three readings are verified: (i) the prediction marginals of f o e match
    the statistics of e alone, for the given f and ``extra_followers`` random
    ones; (ii) the purified postdiction reading, where both operations are
    dilated and run backwards; (iii) conditioning on the later outcome does
    update the earlier guess, by exactly the sequential probability ratio.

    This is the one-instance case of ``_no_signalling_defects``, which
    computes (i) and (iii) on Kraus stacks; the random followers are one
    stack (``_random_followers``).  ``rho`` is checked with
    ``linalg.check_state`` before any follower is drawn.  An outcome of f
    with joint weight below 1e-12 has no conditional and is listed as
    skipped.
    """
    if extra_followers < 0:
        raise ValueError(f"extra_followers must be non-negative, got {extra_followers}")
    if e.dim_out != f.dim_in:
        raise ValueError("instruments are not composable: output and input dimensions differ")
    rho = linalg.check_state(rho, e.dim_in)
    e_kraus, e_starts = _kraus_stack(e)
    f_kraus, f_starts = _kraus_stack(f)
    followers = _random_followers(f.dim_in, len(f.outcomes), extra_followers, seed)
    marginal, conditional, skipped = _no_signalling_defects(
        e_kraus[None], e_starts, f_kraus[None], f_starts, followers[None], rho[None]
    )
    dilations = (purify_instrument(inst).isometry[None] for inst in (e, f))
    return NoSignallingReport(
        marginal_defect=float(marginal[0]),
        purified_defect=float(_purified_no_signalling_defects(*dilations)[0]),
        conditional_defect=float(conditional[0]),
        skipped_conditionals=tuple(label for label, s in zip(f.labels(), skipped[0]) if s),
    )


def _no_signalling_stack(
    e: np.ndarray, f: np.ndarray, rhos: np.ndarray, followers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The marginal, conditional and purified defects of a stack of no-signalling instances, one each.

    ``e`` and ``f`` are (n, 2 m, d, d) Kraus stacks whose outcome i holds
    operators 2i and 2i + 1, as ``random_instrument(d, m, 2, seed)`` cuts
    them, ``rhos`` their states, and ``followers`` each instance's random
    followers of f's shape, as ``_random_followers`` stacks them.  Instance t
    gives the defects of ``no_signalling_check`` on its own instruments, bit
    for bit, with no instrument built: each dilation is its Kraus stack
    regrouped as V[x, i, k, a] = K_ik[x, a], which a d x d map fills
    without padding.  Completeness is the caller's to check, once per stack.
    """
    starts = np.arange(0, e.shape[1], 2)
    marginal, conditional, _ = _no_signalling_defects(e, starts, f, np.arange(0, f.shape[1], 2), followers, rhos)
    dilations = (k.reshape(len(k), -1, 2, *k.shape[-2:]).transpose(0, 3, 1, 2, 4) for k in (e, f))
    return marginal, conditional, _purified_no_signalling_defects(*dilations)


def _no_signalling_defects(
    e: np.ndarray,
    e_starts: np.ndarray,
    f: np.ndarray,
    f_starts: np.ndarray,
    followers: np.ndarray,
    rhos: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Readings (i) and (iii) of ``no_signalling_check`` for a stack of instances, and the outcomes of f skipped.

    ``e`` and ``f`` are (n, K, d_out, d_in) Kraus stacks whose outcomes are
    runs of operators starting at ``e_starts`` and ``f_starts``, and
    ``followers`` holds each instance's random followers, two operators per
    outcome of f.  A follower's joint table is one batched product of the
    composed operators F_l E_k, from ``_sequential_kraus`` for each instance,
    applied to rho and summed over each outcome's operators, so outcomes may
    hold different numbers of operators.  The conditionals of (iii) come
    from the nested application F_j[E_i[rho]], with the denominator
    F_j[E[rho]] of the coarse-grained e, never from the composed operators:
    the two sides of (iii) are separate computations.  No reduction crosses
    the instance axis.  ``rhos`` is an (n, d_in, d_in) stack of states, read
    as given: ``no_signalling_check`` checks the state a caller passes in,
    and the identity suite's come from ``linalg.random_density_matrices``.
    """
    if e.shape[-2] != f.shape[-1]:
        raise ValueError("instruments are not composable: output and input dimensions differ")
    n, n_e, n_f = len(rhos), len(e_starts), len(f_starts)

    # Each outcome's image E_i[rho], whose trace is the statistics of e alone.
    terms = e @ rhos[:, None] @ dagger(e)
    images = np.add.reduceat(terms, e_starts, axis=1)
    alone = np.trace(images, axis1=-2, axis2=-1).real

    def composed_with(second: np.ndarray) -> np.ndarray:
        # tr F_l E_k rho E_k' F_l' of each instance, summed over each outcome's run of operators k
        composed = np.stack([_sequential_kraus(first, then) for first, then in zip(e, second)])
        return np.add.reduceat(_traces(composed, rhos[:, None, None]), e_starts, axis=1)

    # Joint tables [i, j] by composition: the given follower's, then the random ones', two operators per outcome.
    joint = np.add.reduceat(composed_with(f), f_starts, axis=2)
    extra = composed_with(followers).reshape(n, n_e, -1, n_f, 2).sum(axis=-1)
    marginals = np.concatenate([joint.sum(axis=2)[..., None], extra.sum(axis=-1)], axis=2)
    marginal = np.max(np.abs(marginals - alone[..., None]), axis=(1, 2))

    # Row i of ``nested`` is tr F_j[E_i[rho]]; its last row, tr F_j[E[rho]], is each conditional's denominator.
    states = np.concatenate([images, linalg.ordered_sum(terms.swapaxes(0, 1))[:, None]], axis=1)
    nested = np.add.reduceat(_traces(f[:, None], states[:, :, None]), f_starts, axis=2)
    weight = joint.sum(axis=1)
    skipped = weight < 1e-12
    kept = np.broadcast_to(~skipped[:, None], joint.shape)
    by_joint = np.divide(joint, weight[:, None], out=np.zeros_like(joint), where=kept)
    by_nesting = np.divide(nested[:, :-1], nested[:, -1:], out=np.zeros_like(joint), where=kept)
    return marginal, np.max(np.abs(by_joint - by_nesting), axis=(1, 2), initial=0.0), skipped


def _purified_no_signalling_defects(v_e: np.ndarray, v_f: np.ndarray) -> np.ndarray:
    """Postdiction reading of no signalling on stacks of instrument dilations, one defect per instance.

    ``v_e`` is (n, D, P_e, Z_e, A) and ``v_f`` (n, Z2, P_f, Z_f, D).  Each
    pair is chained into one isometry and run backwards: summing the guess
    over the second pointer must reproduce the postdiction computed from the
    first dilation alone, for every data outcome a.
    """
    n, d, m_e = v_e.shape[:3]
    d_a, m_f = v_e.shape[-1], v_f.shape[2]

    # (V_f (x) I_{P_e Z_e}) V_e: the second dilation consumes D and leaves
    # the factors (Z2, P_f, Z_f, P_e, Z_e).
    chain = (v_f.reshape(n, -1, d) @ v_e.reshape(n, d, -1)).reshape(v_f.shape[:-1] + v_e.shape[2:])
    # Isometries compose to an isometry; both were checked when drawn or built.
    # Each row is one data outcome a; the joint cells are (y, x) over the pointers.
    chain_back, single_back = (dagger(v.reshape(n, 1, -1, d_a)) for v in (chain, v_e))
    joint = _table_rows(chain_back, (d_a, *chain.shape[1:-1]), (GIVEN, SUMMED, GUESSED, SUMMED, GUESSED, SUMMED))
    single = _table_rows(single_back, (d_a, *v_e.shape[1:-1]), (GIVEN, SUMMED, GUESSED, SUMMED))
    summed = _bayes_rows(joint)[0].reshape(n, d_a, m_f, m_e).sum(axis=2)
    return np.max(np.abs(summed - _bayes_rows(single)[0]), axis=(1, 2))


# ---------------------------------------------------------------------------
# Inference symmetry and the deterministic effect
# ---------------------------------------------------------------------------


def _table_asymmetry(channel: QuantumMap | np.ndarray) -> float:
    """Max |P_pre(x|a) - P_post(a|x)| over the computational bases, from one transition array.

    ``channel`` is a map, a bare Kraus stack, or a stack of Kraus stacks,
    each with its own array, whose gap is the largest of theirs.  T[x, a] is
    the prediction P(x|a), and row x of T divided by its sum is the
    flat-prior postdiction P(a|x).
    """
    t = _transitions(channel)
    t = t.reshape((-1,) + t.shape[-2:])
    evidence = t.sum(axis=-1, keepdims=True)
    gaps = np.max(np.abs(t - t / np.maximum(evidence, MIN_EVIDENCE)), axis=(1, 2))
    # Zero-evidence outcome: the postdiction row cannot match any
    # normalized prediction column, so symmetry fails outright.
    gaps[evidence.min(axis=(1, 2)) < MIN_EVIDENCE] = 1.0
    return float(gaps.max())


def _sampled_table_asymmetry(channels: Sequence[QuantumMap], seed: int) -> list[float]:
    """Each channel's largest prediction-postdiction gap over sampled basis pairs, read off the kernel.

    The computational bases, and for a channel whose input and output
    dimensions agree, five Haar-rotated basis pairs: pair t is (V, W), the
    draws of seeds seed + 2t and seed + 2t + 1.  The ten draws of a dimension
    are made once, in one stack, for every channel of that dimension.  The
    Kraus stack K and its five rotations W' K V, one batched product, form
    one stack of Kraus stacks, whose tables are read through one
    ``_transitions`` call, looked up when called; no map is built.  The
    stacks go in the groups of ``linalg.groups``, so a long Kraus list is
    not held six times.  This only corroborates
    ``is_inference_symmetric``, which quantifies over all bases: the
    identity suite and the tests hold the two to each other.
    """
    rotations: dict[int, np.ndarray] = {}
    gaps = []
    for channel in channels:
        kraus = channel.kraus
        if channel.dim_in != channel.dim_out:
            gaps.append(_table_asymmetry(kraus))
            continue
        d = channel.dim_in
        if d not in rotations:
            rotations[d] = linalg.haar_random_unitaries(d, range(seed, seed + 10))
        v, w = rotations[d][0::2, None], dagger(rotations[d][1::2, None])
        samples = []
        # Stack 0 is K itself and stack t + 1 pair t's rotation.
        for group in linalg.groups(6, kraus.nbytes):
            pairs = slice(max(group.start - 1, 0), group.stop - 1)
            rotated = w[pairs] @ kraus @ v[pairs]
            samples.append(_table_asymmetry(np.concatenate((kraus[None], rotated)) if group.start == 0 else rotated))
        gaps.append(max(samples))
    return gaps


def is_inference_symmetric(channel: QuantumMap) -> bool:
    """Prediction and postdiction tables coincide for every basis pair.

    One criterion decides: the channel is unital, sum K K' = I, which is the
    adjoint map being trace preserving.  No table is built here; the test
    suite and the ``unital-symmetric-adjoint`` check of ``retrodict verify``
    compare the verdict with ``_sampled_table_asymmetry``.
    """
    check_cptp(channel)
    return is_trace_preserving(adjoint_map(channel))


@dataclass(frozen=True)
class DeterministicEffectReport:
    """Solution of sum_x w(x) adjoint[|x><x|] = I and its uniqueness margins."""

    weights: tuple[float, ...]
    solution_defect: float
    min_singular_value: float
    min_alternative_residual: float

    @property
    def unique_flat_solution(self) -> bool:
        return self.solution_defect < 1e-8 and self.min_singular_value > 1e-6


def deterministic_effect_check(
    channel: QuantumMap, n_random_candidates: int = 3, seed: int = 0
) -> DeterministicEffectReport:
    """Only the flat weighting w = 1 turns the output basis into a sure effect.

    Solves the linear system tr(sum_x w(x)|x><x| channel[rho]) = 1 for all rho
    and reports how far alternative weightings miss it.  This is the
    one-instance case of ``_deterministic_effect_stack``.
    """
    check_cptp(channel)
    weights, solution, singular, residual = _deterministic_effect_stack(channel.kraus[None], n_random_candidates, seed)
    return DeterministicEffectReport(
        weights=tuple(weights[0].tolist()),
        solution_defect=float(solution[0]),
        min_singular_value=float(singular[0]),
        min_alternative_residual=float(residual[0]),
    )


def _deterministic_effect_stack(
    kraus: np.ndarray, n_random_candidates: int = 3, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The deterministic-effect solution of each channel of an (n, K, d_out, d_in) stack of Kraus stacks.

    Column x of channel t is its pull-back sum_k K_k'|x><x|K_k, entry
    [i, j] = sum_k conj(K_k[x, i]) K_k[x, j]: one batched product over k
    builds every column of every instance.  Each least-squares solve of
    sum_x w(x) column_x = I, split into real and imaginary parts, comes from
    one stacked SVD, with ``np.linalg.lstsq``'s cutoff of the singular
    values.  The alternative weightings, a 1.5 bump on each x and then
    ``n_random_candidates`` draws of the generator of ``seed``, depend on
    d_out alone: they are drawn once, and every residual comes from one
    product.  Returns the weights (n, d_out) and, per instance, the largest
    |w - 1|, the smallest singular value and the smallest residual of an
    alternative.  Completeness is the caller's to check.
    """
    if n_random_candidates < 0:
        raise ValueError(f"n_random_candidates must be non-negative, got {n_random_candidates}")
    n, _, d_out, d_in = kraus.shape
    rows = kraus.swapaxes(1, 2)  # [t, x, k, j] = K_k[x, j]
    columns = (dagger(rows) @ rows).reshape(n, d_out, -1).swapaxes(1, 2)
    m_real = np.concatenate([columns.real, columns.imag], axis=1)
    t_real = np.concatenate([np.eye(d_in).reshape(-1), np.zeros(d_in * d_in)])
    u, singular_values, vh = np.linalg.svd(m_real, full_matrices=False)
    cutoff = np.finfo(float).eps * max(m_real.shape[1:]) * singular_values[:, :1]
    inverse = np.divide(1.0, singular_values, out=np.zeros_like(singular_values), where=singular_values > cutoff)
    weights = (dagger(vh) @ (inverse * (t_real @ u))[..., None])[..., 0]

    rng = np.random.default_rng(seed)
    candidates = list(1.0 + 0.5 * np.eye(d_out))
    for _ in range(n_random_candidates):
        w = rng.uniform(0.0, 2.0, d_out)
        if np.max(np.abs(w - 1.0)) < 0.25:
            w = w + 0.5  # keep candidates visibly away from the flat weighting
        candidates.append(w)
    residuals = np.linalg.norm(m_real @ np.transpose(candidates) - t_real[:, None], axis=1)
    return weights, np.max(np.abs(weights - 1.0), axis=1), singular_values.min(axis=1), residuals.min(axis=1)


# ---------------------------------------------------------------------------
# The identity suite
# ---------------------------------------------------------------------------


def _pool_defects(us: np.ndarray, dims: tuple[int, int]) -> tuple[float, float, float]:
    """The closed-symmetry, open-reversal and open-ratio-laws defects of a stack of D x D unitaries.

    The stack's transition array is built once and contracted three times.
    """
    d_a, d_b = dims
    # Both tables against the Born values |<x|U|a>|^2 read off U itself, indexed [a, x]:
    # the prediction rows are [a, x] and the postdiction rows [x, a].
    born = np.abs(us.swapaxes(-1, -2)) ** 2
    kraus = us[:, None]  # each unitary a Kraus list of one
    t = _transitions(kraus)
    pre = _contract(t, (GUESSED, GIVEN))
    post, _ = _bayes_rows(_contract(t, (GIVEN, GUESSED)))
    closed = max(float(np.max(np.abs(pre - born))), float(np.max(np.abs(post.swapaxes(-1, -2) - born))))
    # Solved predictions, held below to operator-level postdictions, so the
    # law is not read twice off one transition array.
    pre = _contract(t.reshape(t.shape[:-2] + dims + dims), (GUESSED, SUMMED, GIVEN, AVERAGED))
    del t, born, post  # D x D stacks, not held through open_reversal_check

    reversal = open_reversal_check(us, dims)["max"]

    post = _pull_back_reference(kraus, dims, (range(d_a), None), dims, (True, False))
    return closed, reversal, float(np.max(np.abs(d_b * post.swapaxes(-1, -2) - d_b * pre)))


def identity_suite(
    dims: tuple[int, int], seed: int, tolerance: float | None
) -> tuple[list[tuple[str, float, float, bool | None]], dict[str, float]]:
    """The paper's identities on seeded random instances: the checks in order, and the suite's metrics.

    Each check is (name, defect, tolerance, passed), ``passed`` None where
    defect < tolerance decides.  ``tolerance`` overrides every threshold but
    deterministic-effect's; None keeps 1e-12 for the exact identities and
    1e-10 for those read through a purification.

    Instance seeds are offsets from 1000 * seed.  One pool of five D x D Haar
    unitaries (offsets 0-4) is drawn once, in the stacks of ``linalg.groups``:
    each stack serves closed-symmetry, open-reversal and open-ratio-laws,
    which hold the kernel to their own closed forms or operator-level
    references, and its unitaries are checked once, in one ``is_unitary``
    call of ``open_reversal_check``.
    Draws 0-2 give purified-ratio's noisy channels and draw 3 the unital
    suite's, with no second check.  purified-ratio (rotations 40-42),
    no-signalling (instruments 70-72 and 80-82, states 90-92, the followers
    of 0-2) and deterministic-effect (maps 97-99) each run their three
    instances as one stack; four-task's unitary is 50, the unital suite's
    95 (the two drawn in one call) and towards-past's map 60.  The small
    maps, instruments and followers are thin Haar draws
    (``linalg.haar_random_isometries``).  The fixed channels,
    ``amplitude_damping(0.5)`` and ``make_dephasing()``, are built once and
    shared by every check that uses them.
    """
    d_a, d_b = dims
    d = d_a * d_b
    tol_exact = tolerance if tolerance is not None else 1e-12
    tol_purified = tolerance if tolerance is not None else 1e-10
    rng_base = seed * 1000
    checks: list[tuple[str, float, float, bool | None]] = []

    pooled = []
    noisy = []
    seeds = range(rng_base, rng_base + 5)
    for group in linalg.groups(len(seeds), 16 * d * d):
        us = linalg.haar_random_unitaries(d, seeds[group])
        pooled.append(_pool_defects(us, (d_a, d_b)))
        noisy.append(_noisy_kraus(us[: max(0, 4 - group.start)], d_a, d_b))
    del us  # a D x D stack, not held through purified-ratio
    noisy = np.concatenate(noisy)
    for name, defect in zip(("closed-symmetry", "open-reversal", "open-ratio-laws"), np.max(pooled, axis=0)):
        checks.append((name, defect, tol_exact, None))

    damping, dephasing = amplitude_damping(0.5), make_dephasing()
    check_cptp(damping)
    rows, factors = _bayes_rows(_table_rows(damping.kraus, (2, 2), (GIVEN, GUESSED)))
    defect = max(
        float(np.max(np.abs(rows - [[2 / 3, 1 / 3], [0.0, 1.0]]))),
        float(np.max(np.abs(factors - [2 / 3, 2.0]))),
    )
    checks.append(("channel-bayes-factor", defect, tol_exact, None))

    defect = _purified_ratio_defects(noisy[:3], 5, range(rng_base + 40, rng_base + 43)).max()
    checks.append(("purified-ratio", defect, tol_purified, None))

    small_unitaries = linalg.haar_random_unitaries(d_a, (rng_base + 50, rng_base + 95))
    defect = max(four_task_check(small_unitaries[0]).max_defect, four_task_check(dephasing).max_defect)
    checks.append(("four-task", defect, tol_exact, None))

    small_maps = _random_kraus_stacks(d_a, 2, [rng_base + 60, *range(rng_base + 97, rng_base + 100)])
    past_map = QuantumMap(small_maps[0], d_a, d_a)
    # Building each channel's purification checks that the map is a channel.
    defect = max(channel_toward_past_check(channel).max_defect for channel in (damping, past_map))
    checks.append(("towards-past", defect, tol_purified, None))

    seeds = [*range(rng_base + 70, rng_base + 73), *range(rng_base + 80, rng_base + 83)]
    kraus = _random_kraus_stacks(d_a, 4, seeds + [s for t in range(3) for s in _follower_seeds(rng_base + t, 2)])
    states = linalg.random_density_matrices(d_a, range(rng_base + 90, rng_base + 93))
    followers = kraus[6:].reshape(3, -1, d_a, d_a)
    marginal, conditional, purified = _no_signalling_stack(kraus[:3], kraus[3:6], states, followers)
    checks.append(("no-signalling", max(marginal.max(), conditional.max()), tol_exact, None))
    checks.append(("no-signalling-purified", purified.max(), tol_purified, None))

    suite = [
        ("unitary", QuantumMap((small_unitaries[1],), d_a, d_a), True),
        ("dephasing", dephasing, True),
        ("noisy", QuantumMap(noisy[3], d_a, d_a), True),
        ("amplitude-damping", damping, False),
    ]
    # The criterion sum K K' = I against the tables the kernel gives on sampled bases.
    gaps = _sampled_table_asymmetry([channel for _, channel, _ in suite], rng_base)
    agreement = all(
        is_inference_symmetric(channel) == (gap < 1e-9) == expected for (_, channel, expected), gap in zip(suite, gaps)
    )
    checks.append(("unital-symmetric-adjoint", 0.0 if agreement else 1.0, 0.5, None))

    _, solution, _, residual = _deterministic_effect_stack(small_maps[1:])
    checks.append(("deterministic-effect-solution", solution.max(), 1e-8, None))
    checks.append(("deterministic-effect-alternatives", 1e-6, residual.min(), None))
    return checks, {"deterministic_effect_min_alternative_residual": float(residual.min())}
