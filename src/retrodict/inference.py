"""Prediction and postdiction tasks, time reversal, and identity checks.

Every basis table is a contraction of one non-negative transition array
T[x..., a...] = sum_k |K_k[x, a]|^2, reshaped to dims_out + dims_in: a
unitary is the case of one operator, an instrument has one array per
outcome, and a preparation set {psi_i} gives T[x, i] = |<x|U|psi_i>|^2.

Prediction conditions on preparation outcomes and guesses test outcomes;
postdiction conditions on test outcomes and guesses preparation outcomes
under a flat prior over the alternatives.  On the data side a given factor
is fixed at its outcome and an ignored factor is averaged (the flat weight
I/d); on the guessing side the factors outside the mask are summed out (an
unnormalized identity).  Postdiction then normalizes, and the inverse of
the normalizer is the channel's Bayes factor.

The identity checks compare these tables with an operator-level reference,
never with the kernel itself: T(U') = T(U)^T holds by construction, so a
check of the kernel against its own transpose would pass whatever the
kernel computed.  The reference is the Heisenberg pull-back
sum_k K' E K of the data-side effect, reduced to the guessed factors.  It
works factor by factor on the complex amplitudes: each data factor's effect
A_f' A_f (outcome rows <g| on a given factor, I/sqrt(d) on an ignored one)
is applied to its own axis of K, and the squared moduli are summed over the
traced axes.  One call covers every given outcome of a relation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import linalg
from .channels import (
    Instrument,
    QuantumMap,
    adjoint_map,
    apply,
    check_cptp,
    coarse_grain,
    compose_sequential,
    is_trace_preserving,
    outcome_probabilities,
    random_instrument,
)
from .channels import classify  # noqa: F401  (bound here for bench/test_bench.py's tracer test)
from .errors import NoActiveReverseError, UndefinedConditionalError
from .linalg import ATOL_STRUCTURAL, dagger
from .purify import Purification, purify_instrument, stinespring
from .tables import ProbabilityTable, join_labels

Given = Sequence[int | None]
Mask = Sequence[bool]


# ---------------------------------------------------------------------------
# The transition-array kernel and its operator-level reference
# ---------------------------------------------------------------------------


def _transitions(
    transformation: np.ndarray | QuantumMap, states: Sequence[np.ndarray] | None = None
) -> np.ndarray:
    """The transition array T[x, a] = sum_k |K_k[x, a]|^2 of shape (D_out, D_in).

    A channel sums over its Kraus operators; a matrix whose columns are the
    images of the alternatives (a unitary) is the case of one operator.  With
    preparation ``states`` the columns are the images U|psi_i>.
    """
    if isinstance(transformation, QuantumMap):
        kraus = transformation.kraus
    else:
        u = np.asarray(transformation, dtype=complex)
        kraus = (u if states is None else u @ np.stack(states, axis=1),)
    return sum(k.real**2 + k.imag**2 for k in kraus)


def _transition_arrays(
    transformation: np.ndarray | QuantumMap | Instrument, states: Sequence[np.ndarray] | None = None
) -> list[tuple[str, np.ndarray]]:
    """Every transition array of a transformation, each with its label prefix.

    An instrument has one array per outcome, prefixed by the outcome label
    when there are several; anything else has one unprefixed array.  The
    solver and the sampler both read their arrays from here.
    """
    if isinstance(transformation, Instrument):
        multi = len(transformation.outcomes) > 1
        return [(label if multi else "", _transitions(qmap)) for label, qmap in transformation.outcomes]
    return [("", _transitions(transformation, states))]


def _contract(
    t: np.ndarray,
    dims_out: Sequence[int],
    dims_in: Sequence[int],
    direction: str,
    given: Given,
    mask: Mask,
) -> np.ndarray:
    """The guessed cells of one table, flattened in label order.

    Prediction reads the input side as data, postdiction the output side.
    Each data factor is fixed at its given outcome or, when ignored,
    averaged; the guess-side factors outside ``mask`` are summed out.
    """
    n_out = len(dims_out)
    t = t.reshape(tuple(dims_out) + tuple(dims_in))
    data_dims, side = dims_out, "test"
    if direction == "predict":
        t = t.transpose(list(range(n_out, t.ndim)) + list(range(n_out)))
        data_dims, side = dims_in, "preparation"
    for d, g in zip(data_dims, given):
        if g is None:
            t = t.mean(axis=0)
        elif 0 <= g < d:
            t = t[g]
        else:
            raise ValueError(f"{side} outcome {g} out of range for factor dimension {d}")
    return t.sum(axis=tuple(k for k, m in enumerate(mask) if not m)).reshape(-1)


def _postdiction(
    labels: Sequence[str], numerators: np.ndarray, given: str, with_factor: bool = False
) -> ProbabilityTable:
    """Flat-prior Bayes normalization; the factor 1 / evidence rides along on request."""
    evidence = float(numerators.sum())
    if evidence < 1e-12:
        raise UndefinedConditionalError(
            f"test outcome {given} has zero probability under the flat prior"
        )
    return ProbabilityTable.from_values(
        labels,
        numerators / evidence,
        given=given,
        direction="postdict",
        factor=1.0 / evidence if with_factor else None,
    )


def _prefixed(prefix: str, label: str) -> str:
    return join_labels(prefix, label) if prefix else label


def _solve_table(
    arrays: Sequence[tuple[str, np.ndarray]],
    dims_out: Sequence[int],
    dims_in: Sequence[int],
    direction: str,
    given: Given,
    mask: Mask,
    with_factor: bool = False,
) -> ProbabilityTable:
    """One solved table from prefixed transition arrays of a validated transformation.

    A prediction lists the contracted cells of every array under its prefix;
    a postdiction takes the one array of the observed outcome, prefixes the
    given label with it and normalizes.
    """
    labels = _guessed_labels(tuple(dims_out if direction == "predict" else dims_in), tuple(mask))
    if direction == "predict":
        cells = [_prefixed(prefix, label) for prefix, _ in arrays for label in labels]
        values = np.concatenate([_contract(t, dims_out, dims_in, direction, given, mask) for _, t in arrays])
        return ProbabilityTable.from_values(cells, values, given=_given_label(given), direction="predict")
    ((prefix, t),) = arrays
    numerators = _contract(t, dims_out, dims_in, direction, given, mask)
    return _postdiction(labels, numerators, _prefixed(prefix, _given_label(given)), with_factor)


def _pull_back_reference(
    kraus: Sequence[np.ndarray],
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
    A_f = I/sqrt(d).  Each A_f acts on its own axis of the amplitudes K_k,
    reshaped to dims_data + dims_guess, so the diagonal of sum_k K_k' E K_k
    reduced to the guessed factors is sum_k |(A_1 (x) ... ) K_k|^2 summed
    over the ignored data axes and the unguessed guess axes.  Every listed
    outcome is done in one pass, and no array grows beyond K_k.

    Returns the unnormalized guessed cells in label order, one row per
    combination of the listed outcomes in ``itertools.product`` order.
    """
    factors = [
        np.eye(d) / np.sqrt(d) if listed is None else np.stack([linalg.basis_ket(d, g) for g in listed])
        for d, listed in zip(dims_data, outcomes)
    ]
    n_guess = len(dims_guess)
    summed = tuple(k for k, m in enumerate(mask) if not m) + tuple(
        n_guess + f for f, listed in enumerate(outcomes) if listed is None
    )
    cells = 0.0
    for k in kraus:
        amplitudes = np.asarray(k).reshape(tuple(dims_data) + tuple(dims_guess))
        for a in factors:
            # Contracts the leading data axis; A_f's output axis lands last.
            amplitudes = np.tensordot(amplitudes, a, axes=([0], [1]))
        cells = cells + (amplitudes.real**2 + amplitudes.imag**2).sum(axis=summed)
    # Left: the guessed axes, then the given data axes.
    n_kept = sum(bool(m) for m in mask)
    cells = cells.transpose(tuple(range(n_kept, cells.ndim)) + tuple(range(n_kept)))
    return cells.reshape(-1, math.prod(d for d, m in zip(dims_guess, mask) if m))


@functools.lru_cache(maxsize=256)
def _guessed_labels(dims: tuple[int, ...], mask: tuple[bool, ...]) -> tuple[str, ...]:
    """The guessed cells' labels, which depend on nothing but the dims and the mask."""
    keep = [k for k, m in enumerate(mask) if m]
    if not keep:
        raise ValueError("at least one factor must be guessed")
    ranges = [range(dims[k]) for k in keep]
    return tuple(join_labels(*(str(i) for i in combo)) for combo in itertools.product(*ranges))


def _given_label(given: Given) -> str:
    return join_labels(*(str(g) for g in given if g is not None))


# ---------------------------------------------------------------------------
# Closed systems
# ---------------------------------------------------------------------------


def _check_unitary_arg(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if not linalg.is_unitary(u):
        raise ValueError("transformation matrix is not unitary within tolerance")
    return u


def predict_closed(u: np.ndarray, a: int, d: int | None = None) -> ProbabilityTable:
    """Born rule for a closed system: P(x | a) = |<x|U|a>|^2."""
    dims = np.shape(u)[:1] if d is None else (d,)
    return solve(InferenceTask(u, dims, dims, "predict", (True,), (True,), given_input=(a,)))


def postdict_closed(u: np.ndarray, x: int, d: int | None = None) -> ProbabilityTable:
    """Flat-prior Bayes inversion of the Born rule; equals the transposed prediction."""
    dims = np.shape(u)[:1] if d is None else (d,)
    return solve(InferenceTask(u, dims, dims, "postdict", (True,), (True,), given_output=(x,)))


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


def predict_channel(channel: QuantumMap, a: int) -> ProbabilityTable:
    """Generalized Born rule P(x | a) = tr |x><x| channel[|a><a|]."""
    dims = ((channel.dim_in,), (channel.dim_out,))
    return solve(InferenceTask(channel, *dims, "predict", (True,), (True,), given_input=(a,)))


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
    d_x, d_y = purification.dims_out
    if not 0 <= x < d_x:
        raise ValueError(f"test outcome {x} out of range for factor dimension {d_x}")
    v_x = purification.isometry[x]
    numerators = np.diagonal(dagger(v_x) @ v_x).real / d_y
    return _postdiction([str(a) for a in range(d_a)], numerators, str(x))


# ---------------------------------------------------------------------------
# General (not necessarily orthogonal) preparations
# ---------------------------------------------------------------------------


def _check_preparation_states(states: Sequence[np.ndarray], d: int | None = None) -> list[np.ndarray]:
    checked = []
    for i, psi in enumerate(states):
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        if d is None:
            d = psi.shape[0]
        if psi.shape != (d,):
            raise ValueError(f"state {i} has length {psi.shape[0]}, expected {d}")
        # Written so that a NaN norm fails it too.
        if not abs(np.linalg.norm(psi) - 1.0) <= ATOL_STRUCTURAL:
            raise ValueError(f"state {i} is not normalized")
        checked.append(psi)
    if not checked:
        raise ValueError("at least one preparation state is required")
    return checked


def _general_prep_task(states: Sequence[np.ndarray], u: np.ndarray, direction: str, x=None) -> InferenceTask:
    u = np.asarray(u, dtype=complex)
    dims = u.shape[:1]
    return InferenceTask(u, dims, dims, direction, (True,), (True,), given_output=(x,), preparation_states=tuple(states))


def predict_general_prep(states: Sequence[np.ndarray], u: np.ndarray) -> list[ProbabilityTable]:
    """One prediction row per preparation state: P(x | psi_i) = |<x|U|psi_i>|^2.

    The transformation is checked once and its transition array built once
    for every row.
    """
    task = _general_prep_task(states, u, "predict")
    _check_transformation(task)
    arrays = _transition_arrays(task.transformation, task.preparation_states)
    return [_solve_checked(replace(task, given_input=(i,)), arrays) for i in range(len(task.preparation_states))]


def postdict_general_prep(states: Sequence[np.ndarray], u: np.ndarray, x: int) -> ProbabilityTable:
    """Flat prior over the listed states; Bayes inversion of the prediction rows."""
    return solve(_general_prep_task(states, u, "postdict", x))


def preparation_unitary(states: Sequence[np.ndarray]) -> np.ndarray:
    """Controlled preparation on A (x) B: |a_0>|b_i> -> |psi_i>|b_i>.

    B is an n-dimensional ancilla recording which state was prepared; the
    remaining columns are completed deterministically.
    """
    states = _check_preparation_states(states)
    n = len(states)
    d = states[0].shape[0]
    columns = np.zeros((d * n, n), dtype=complex)
    for i, psi in enumerate(states):
        columns[:, i] = np.kron(psi, linalg.basis_ket(n, i))
    # Column slots for |a_0> (x) |b_i> in the A-first convention are 0*n + i.
    return linalg.complete_to_unitary(columns, list(range(n)))


@dataclass(frozen=True)
class GeneralPrepCheck:
    direct: ProbabilityTable
    purified: ProbabilityTable
    max_defect: float


def general_prep_purified_check(
    states: Sequence[np.ndarray], u: np.ndarray, x: int
) -> GeneralPrepCheck:
    """Verify that postdiction over general preparations is a purified-task ratio.

    Builds U' = (U (x) I) U_P and compares P(psi_i | x, U) with
    P(a_0, b_i | x, U') / P(a_0 | x, U').
    """
    direct = postdict_general_prep(states, u, x)
    u = np.asarray(u, dtype=complex)
    n = len(states)
    d = u.shape[0]
    # U' is a product of unitaries and needs no check of its own; the
    # (a_0, b_i) cells are the first n of the (a, b) grid.
    u_prime = np.kron(u, np.eye(n, dtype=complex)) @ preparation_unitary(states)
    joint = _contract(_transitions(u_prime), (d, n), (d, n), "postdict", (x, None), (True, True))
    purified = _postdiction([str(i) for i in range(n)], joint[:n], str(x))
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
    output side.  Factors outside the masks are ignored (flat prior on the
    data side, marginalized on the guessing side).  ``preparation_states``
    switches the input alternatives from a basis to an arbitrary pure-state
    set; ``given_outcome`` conditions on an instrument outcome label when
    postdicting through an instrument.
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
        object.__setattr__(self, "known_input_mask", tuple(bool(m) for m in self.known_input_mask))
        object.__setattr__(self, "known_output_mask", tuple(bool(m) for m in self.known_output_mask))
        # Outcomes as ints, so that 1.0 or a numpy integer indexes outcome 1.
        given_input = tuple(None if g is None else int(g) for g in self.given_input) or (None,) * len(dims_in)
        given_output = tuple(None if g is None else int(g) for g in self.given_output) or (None,) * len(dims_out)
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


def _require_given(given: Given, mask: Mask, side: str) -> None:
    missing = [k for k, (g, m) in enumerate(zip(given, mask)) if m and g is None]
    if missing:
        raise ValueError(f"solving this task requires given outcomes on {side} factors {missing}")


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


def _observed_outcome(task: InferenceTask) -> int:
    """Position of the observed instrument outcome among the task's arrays."""
    if not isinstance(task.transformation, Instrument):
        return 0
    labels = task.transformation.labels()
    if task.given_outcome is None:
        if len(labels) > 1:
            raise ValueError("postdiction through an instrument requires the observed outcome label")
        return 0
    if task.given_outcome not in labels:
        raise ValueError(f"the instrument has no outcome labelled {task.given_outcome!r}")
    return labels.index(task.given_outcome)


def solve(task: InferenceTask) -> ProbabilityTable:
    """Solve any inference task on the transition-array kernel.

    The transformation is validated once; its transition arrays (one per
    instrument outcome) are contracted with the task's own factors, masks
    and given outcomes.  Ignored data factors carry the flat weight 1/d
    whatever the transformation, and only a channel's postdiction carries
    the Bayes factor.  Solving needs the data: a predict task must carry
    outcomes on its known input factors, a postdict task on its known output
    factors.  Tasks without them are still valid as ensemble descriptions for
    the sampler.
    """
    _check_transformation(task)
    return _solve_checked(task)


def _solve_checked(
    task: InferenceTask, arrays: Sequence[tuple[str, np.ndarray]] | None = None
) -> ProbabilityTable:
    """The body of ``solve`` for a task whose transformation has passed ``_check_transformation``.

    Callers that solve many tasks on one transformation check it once and
    solve each task here, passing the ``_transition_arrays`` of the
    transformation (and preparation states) they built once.
    """
    if task.direction == "predict":
        data, data_mask, guess_mask = task.given_input, task.known_input_mask, task.known_output_mask
        _require_given(data, data_mask, "input")
    else:
        data, data_mask, guess_mask = task.given_output, task.known_output_mask, task.known_input_mask
        _require_given(data, data_mask, "output")
    states = task.preparation_states
    if arrays is None:
        arrays = _transition_arrays(task.transformation, states)
    if task.direction == "postdict":
        observed = _observed_outcome(task)
        arrays = arrays[observed : observed + 1]
    dims_in = task.dims_in if states is None else (len(states),)
    given = tuple(g if m else None for g, m in zip(data, data_mask))
    with_factor = isinstance(task.transformation, QuantumMap)
    return _solve_table(arrays, task.dims_out, dims_in, task.direction, given, guess_mask, with_factor)


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
    """The four conceptually distinct probabilities that share one value."""

    predict_forward: float
    postdict_forward: float
    predict_reversed: float
    postdict_reversed: float
    reference: float
    max_defect: float = field(init=False)

    def __post_init__(self):
        defect = max(
            abs(v - self.reference)
            for v in (
                self.predict_forward,
                self.postdict_forward,
                self.predict_reversed,
                self.postdict_reversed,
            )
        )
        object.__setattr__(self, "max_defect", defect)


def _born_reference(kraus: Sequence[np.ndarray], a: int, x: int) -> float:
    """The operator-level Born value tr |x><x| K|a><a|K', read off the pull-back of |x><x|."""
    dim_out, dim_in = kraus[0].shape
    if not 0 <= a < dim_in:
        raise ValueError(f"preparation outcome {a} out of range for dimension {dim_in}")
    return float(_pull_back_reference(kraus, (dim_out,), ((x,),), (dim_in,), (True,))[0, a])


def four_task_check(transformation: np.ndarray | QuantumMap, a: int, x: int) -> FourTaskReport:
    """Evaluate prediction and postdiction for a transformation and its adjoint.

    The reference is the operator-level Born value tr |x><x| K|a><a|K' of the
    unitary or unital channel.  All four task solutions must coincide with it.
    """
    if isinstance(transformation, QuantumMap):
        forward, reverse, kraus = transformation, adjoint_map(transformation), transformation.kraus
        if not (is_trace_preserving(forward) and is_trace_preserving(reverse)):
            raise ValueError("the four-task equality holds for unital channels only")
    else:
        u = _check_unitary_arg(transformation)
        forward, reverse, kraus = u, dagger(u), (u,)
    # The adjoint of a unitary or of a unital channel needs no check of its own.
    dims = ((kraus[0].shape[0],), (kraus[0].shape[1],))
    ahead, back = _transition_arrays(forward), _transition_arrays(reverse)
    return FourTaskReport(
        predict_forward=_solve_table(ahead, *dims, "predict", (a,), (True,))[str(x)],
        postdict_forward=_solve_table(ahead, *dims, "postdict", (x,), (True,))[str(a)],
        predict_reversed=_solve_table(back, *dims[::-1], "predict", (x,), (True,))[str(a)],
        postdict_reversed=_solve_table(back, *dims[::-1], "postdict", (a,), (True,))[str(x)],
        reference=_born_reference(kraus, a, x),
    )


def open_reversal_check(
    u: np.ndarray, dims_in: Sequence[int], dims_out: Sequence[int] | None = None
) -> dict[str, float]:
    """Check all six open-system relations between a task and its time reverse.

    Each relation equates a table solved for the adjoint of U with the
    operator-level pull-back through U of the task with the data and guess
    sides swapped.  Returns the maximum defect per relation plus an overall
    ``max`` entry.
    """
    dims_out = dims_in if dims_out is None else dims_out
    if len(dims_in) != 2 or len(dims_out) != 2:
        raise ValueError("open_reversal_check takes exactly two factors per side")
    task = InferenceTask(u, dims_in, dims_out, "predict", (True, True), (True, True))
    _check_transformation(task)
    u = np.asarray(u, dtype=complex)
    ud, dims_in, dims_out = dagger(u), task.dims_in, task.dims_out
    arrays = _transition_arrays(ud)
    (d_x, d_y), (d_a, d_b) = dims_out, dims_in
    relations = (
        ("pre-a-xy", "predict", (range(d_x), range(d_y)), (True, False)),
        ("pre-ab-x", "predict", (range(d_x), None), (True, True)),
        ("post-xy-a", "postdict", (range(d_a), None), (True, True)),
        ("post-x-ab", "postdict", (range(d_a), range(d_b)), (True, False)),
        ("pre-a-x", "predict", (range(d_x), None), (True, False)),
        ("post-x-a", "postdict", (range(d_a), None), (True, False)),
    )
    defects: dict[str, float] = {}
    for name, direction, outcomes, mask in relations:
        if direction == "predict":
            reference = _pull_back_reference((u,), dims_out, outcomes, dims_in, mask)
        else:
            reference = _pull_back_reference((ud,), dims_in, outcomes, dims_out, mask)
        givens = itertools.product(*((None,) if listed is None else listed for listed in outcomes))
        tables = [_solve_table(arrays, dims_in, dims_out, direction, given, mask).probabilities() for given in givens]
        defects[name] = float(np.max(np.abs(np.array(tables) - reference)))
    defects["max"] = max(defects.values())
    return defects


@dataclass(frozen=True)
class TowardsPastReport:
    born_value: float
    reversed_postdiction: float
    defect: float


def channel_toward_past_check(
    channel: QuantumMap, a: int, x: int, purification: Purification | None = None
) -> TowardsPastReport:
    """The generalized Born value doubles as a time-reversed postdiction.

    tr |x><x| channel[|a><a|] equals the postdiction of x in the task where
    the dilation runs backwards and the output a is the data, whether or not
    the channel itself admits an active reversal.  Run backwards with its
    known ancilla fixed at |b>, the dilation is V' = (I (x) <b|)U', so the
    postdiction reads V' alone.
    Building the purification checks the channel; one that is passed in was
    checked when it was built.
    """
    if purification is None:
        purification = stinespring(channel)
    born = _born_reference(channel.kraus, a, x)
    d_a = purification.dims_in[0]
    reversed_table = _solve_table(
        _transition_arrays(dagger(purification.isometry.reshape(-1, d_a))),
        (d_a,),
        purification.dims_out,
        "postdict",
        (a,),
        (True, False),
    )
    value = reversed_table[str(x)]
    return TowardsPastReport(born, value, abs(born - value))


# ---------------------------------------------------------------------------
# No signalling from the further unknown
# ---------------------------------------------------------------------------


def _sequential_joint(e: Instrument, f: Instrument, rho: np.ndarray) -> np.ndarray:
    """Joint outcome probabilities of f o e as a (|e|, |f|) array, by composition."""
    joint_table = outcome_probabilities(compose_sequential(e, f), rho)
    values = joint_table.probabilities().reshape(len(e.outcomes), len(f.outcomes))
    return values


@dataclass(frozen=True)
class NoSignallingReport:
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
    """
    if e.dim_out != f.dim_in:
        raise ValueError("instruments are not composable: output and input dimensions differ")
    rho = linalg.check_state(rho, e.dim_in)

    alone = outcome_probabilities(e, rho).probabilities()

    followers = [f]
    for t in range(extra_followers):
        followers.append(random_instrument(f.dim_in, len(f.outcomes), 2, seed + 101 * (t + 1)))
    marginal_defect = 0.0
    for follower in followers:
        joint = _sequential_joint(e, follower, rho)
        marginal_defect = max(marginal_defect, float(np.max(np.abs(joint.sum(axis=1) - alone))))

    joint = _sequential_joint(e, f, rho)
    conditional_defect = 0.0
    skipped: list[str] = []
    grained_e = coarse_grain(e)
    evolved = apply(grained_e, rho)
    for j, (label_j, map_j) in enumerate(f.outcomes):
        weight = joint[:, j].sum()
        denominator = float(np.trace(apply(map_j, evolved)).real)
        if weight < 1e-12:
            skipped.append(label_j)
            continue
        for i, (label_i, map_i) in enumerate(e.outcomes):
            direct = float(np.trace(apply(map_j, apply(map_i, rho))).real) / denominator
            conditional_defect = max(conditional_defect, abs(joint[i, j] / weight - direct))

    purified_defect = _purified_no_signalling_defect(e, f)

    return NoSignallingReport(
        marginal_defect=marginal_defect,
        purified_defect=purified_defect,
        conditional_defect=conditional_defect,
        skipped_conditionals=tuple(skipped),
    )


def _purified_no_signalling_defect(e: Instrument, f: Instrument) -> float:
    """Postdiction reading of no signalling on canonical dilations of e and f.

    Both instruments are purified, chained into one isometry, and run backwards:
    summing the guess over the second pointer must reproduce the postdiction
    computed from the first dilation alone, for every data outcome a.
    """
    v_e = purify_instrument(e).isometry  # (D, P_e, Z_e, A)
    v_f = purify_instrument(f).isometry  # (Z2, P_f, Z_f, D)
    d_a = e.dim_in
    m_e, m_f = v_e.shape[1], v_f.shape[1]

    # (V_f (x) I_{P_e Z_e}) V_e: the second dilation consumes D and leaves
    # the factors (Z2, P_f, Z_f, P_e, Z_e).
    chain = np.einsum("zpqd,dmea->zpqmea", v_f, v_e, optimize=True)
    # Isometries compose to an isometry; both were checked when built.
    chain_back = _transition_arrays(dagger(chain.reshape(-1, d_a)))
    single_back = _transition_arrays(dagger(v_e.reshape(-1, d_a)))

    defect = 0.0
    for a in range(d_a):
        joint = _solve_table(
            chain_back, (d_a,), chain.shape[:-1], "postdict", (a,), (False, True, False, True, False)
        )
        single = _solve_table(single_back, (d_a,), v_e.shape[:-1], "postdict", (a,), (False, True, False))
        for x in range(m_e):
            summed = sum(joint[join_labels(str(y), str(x))] for y in range(m_f))
            defect = max(defect, abs(summed - single[str(x)]))
    return defect


# ---------------------------------------------------------------------------
# Inference symmetry and the deterministic effect
# ---------------------------------------------------------------------------


def _table_asymmetry(channel: QuantumMap) -> float:
    """Max |P_pre(x|a) - P_post(a|x)| over the computational bases, from one transition array.

    T[x, a] is the prediction P(x|a), and row x of T divided by its sum is
    the flat-prior postdiction P(a|x).
    """
    t = _transitions(channel)
    evidence = t.sum(axis=1, keepdims=True)
    if evidence.min() < 1e-12:
        # Zero-evidence outcome: the postdiction row cannot match any
        # normalized prediction column, so symmetry fails outright.
        return 1.0
    return float(np.max(np.abs(t - t / evidence)))


def _rotated_channel(channel: QuantumMap, v: np.ndarray, w: np.ndarray) -> QuantumMap:
    """The same channel expressed in rotated preparation and test bases."""
    kraus = tuple(dagger(w) @ k @ v for k in channel.kraus)
    return QuantumMap(kraus, channel.dim_in, channel.dim_out)


def is_inference_symmetric(
    channel: QuantumMap, tol: float = ATOL_STRUCTURAL, basis_samples: int = 5, seed: int = 0
) -> bool:
    """Prediction and postdiction tables coincide for every basis pair.

    The identity-preservation criterion channel[I] = sum K K' = I decides
    the answer; the tables are additionally compared over the computational
    bases and ``basis_samples`` Haar-rotated basis pairs, and a disagreement
    raises, since the criterion quantifies over all bases while sampling can
    only corroborate it.
    """
    check_cptp(channel)
    d = channel.dim_out
    verdict = channel.dim_in == d and bool(np.max(np.abs(apply(channel, np.eye(d)) - np.eye(d))) < ATOL_STRUCTURAL)
    samples = [_table_asymmetry(channel)]
    if channel.dim_in == channel.dim_out:
        for t in range(basis_samples):
            v = linalg.haar_random_unitary(channel.dim_in, seed + 2 * t)
            w = linalg.haar_random_unitary(channel.dim_out, seed + 2 * t + 1)
            samples.append(_table_asymmetry(_rotated_channel(channel, v, w)))
    sampled = max(samples) < max(tol, 1e-9)
    if sampled != verdict:
        raise RuntimeError(
            f"identity-preservation criterion ({verdict}) disagrees with sampled tables ({sampled})"
        )
    return verdict


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
    and reports how far alternative weightings miss it.
    """
    check_cptp(channel)
    adj = adjoint_map(channel)
    columns = [apply(adj, linalg.basis_projector(channel.dim_out, x)) for x in range(channel.dim_out)]
    m = np.stack([c.reshape(-1) for c in columns], axis=1)
    target = np.eye(channel.dim_in, dtype=complex).reshape(-1)
    m_real = np.vstack([m.real, m.imag])
    t_real = np.concatenate([target.real, target.imag])
    weights, _, _, singular_values = np.linalg.lstsq(m_real, t_real, rcond=None)
    solution_defect = float(np.max(np.abs(weights - 1.0)))

    rng = np.random.default_rng(seed)
    candidates = []
    for x in range(channel.dim_out):
        bump = np.ones(channel.dim_out)
        bump[x] += 0.5
        candidates.append(bump)
    for _ in range(n_random_candidates):
        w = rng.uniform(0.0, 2.0, channel.dim_out)
        if np.max(np.abs(w - 1.0)) < 0.25:
            w = w + 0.5  # keep candidates visibly away from the flat weighting
        candidates.append(w)
    min_residual = min(
        float(np.linalg.norm(m_real @ w - t_real)) for w in candidates
    )
    return DeterministicEffectReport(
        weights=tuple(float(w) for w in weights),
        solution_defect=solution_defect,
        min_singular_value=float(singular_values.min()) if singular_values.size else 0.0,
        min_alternative_residual=min_residual,
    )
