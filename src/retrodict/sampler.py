"""Monte Carlo simulation of prepare-transform-measure ensembles.

Counting convention: each trial draws a preparation alternative uniformly,
pushes it through the transformation (sampling the instrument outcome when
there is one), measures the output basis, and records the pair of labels the
task cares about.  The outcome and measurement distributions of alternative
a are column a of the transition array T[k, x, a] the inference kernel
builds: outcome k's weight is the sum of its column over x, and its
measurement distribution is that column.  The instrument outcome is one more
output factor, counted under the labels the kernel gives it.  Conditioning
the counts on the input reproduces the prediction tables; conditioning on the
output reproduces the postdiction tables, because the uniform preparation
realizes the flat prior.

Randomness comes from the Philox 4x64 counter-based generator (numpy's
``np.random.Philox``, 10 rounds, documented constants).  The generator is
keyed by the ensemble seed and yields a fixed block of THREE uniform doubles
per trial, in trial order; trial t consumes exactly slots [3t, 3t+3).  Counts
are therefore reproducible bit-for-bit and independent of how trials are
scheduled.  Each ensemble is drawn from one keyed stream, in chunks of
``CHUNK_TRIALS`` trials that fill one reused buffer in turn; numpy buffers
Philox's 4-word blocks, so the chunks continue the stream word for word,
whatever their size (``trial_uniforms`` is the stream's definition, from any
trial on).  The chunk is sized for a core's 2 MiB L2 cache: its uniforms,
alternatives, search positions and targets take about 100 bytes a trial,
under 1 MB at 2**13 trials, so each stage reads back what the previous one
wrote without going to memory.  The CDFs of every alternative are stacked
once, so a chunk draws each stage for all its trials with one batched
search.  The measurement search gives each trial's flat position in the
stacked measurement CDFs, row (alternative, outcome) and index, and the
chunk adds its positions to one histogram shaped like those CDFs, work in
proportion to the chunk whatever the size of T.  After the last chunk the
histogram is folded once into the (input label, output label) count grid,
``count_grid``: an index that rounding at the top pushed past its row's last
entry counts as that entry, and the axes no label keeps are summed.  A
unitary, a channel or a preparation set has a single outcome, so its
outcome stage draws nothing: the outcome is 0 and its uniform is skipped,
still consumed from the stream.  Memory is bounded by T and the chunk, not
by ``shots``.

The grid read along its rows gives the prediction rows, and read down its
columns the postdiction rows.  ``verdicts`` holds every sampled row to its
closed form in one array pass; ``compare`` is its one-row case.
``sample_checks`` is ``retrodict sample``: one ensemble, both directions'
sampled rows, and their verdicts as the report's checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import inference
from .errors import UndefinedConditionalError
from .inference import InferenceTask
from .tables import ProbabilityTable, first_invalid_row

SLOTS_PER_TRIAL = 3
# Trials counted per chunk, sized for the cache: a chunk's uniforms, alternatives,
# search positions and targets, about 100 bytes a trial, stay under 1 MB, inside one
# core's 2 MiB L2.  Memory stays bounded in shots, and the counts do not depend on it.
CHUNK_TRIALS = 1 << 13
# Philox is keyed by one 64-bit word: seeds lie in [0, SEED_LIMIT).
SEED_LIMIT = 2**64


def _stream(seed: int, first: int = 0) -> np.random.Generator:
    """The ensemble's Philox stream, keyed by ``seed``, positioned at trial ``first``'s first slot.

    The words before it are skipped by advancing the counter (four words
    per step) and discarding the remainder.  numpy buffers each 4-word
    block, so successive draws from the returned generator continue the
    stream word for word, whatever their sizes.
    """
    bit_generator = np.random.Philox(key=np.uint64(seed))
    skipped, remainder = divmod(SLOTS_PER_TRIAL * first, 4)
    bit_generator.advance(skipped)
    bit_generator.random_raw(remainder)
    return np.random.Generator(bit_generator)


def trial_uniforms(seed: int, shots: int, first: int = 0) -> np.ndarray:
    """The (shots, 3) array of uniform doubles driving trials first, ..., first + shots - 1.

    Raw 64-bit Philox words are mapped to [0, 1) doubles by the standard
    (word >> 11) * 2**-53 conversion, which is numpy's ``Generator.random``
    on this bit generator.  The block equals rows [first, first + shots) of
    the block from trial 0.
    """
    return _stream(seed, first).random((shots, SLOTS_PER_TRIAL))


@dataclass(frozen=True)
class EnsembleResult:
    """Joint counts of (input label, output label) pairs over an ensemble."""

    joint_counts: dict[tuple[str, str], int]
    shots: int
    seed: int

    def __post_init__(self):
        total = sum(self.joint_counts.values())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected {self.shots}")


def _prepare_alternatives(task: InferenceTask, view):
    """The grid's layout: its input and output labels, each of T's axes' size, the axes summed; and T.

    ``view`` is the task's ``inference._kernel_view``.  A side's labels are
    the kernel's labels of its given or guessed axes, the factors in its
    mask.  The axes run as a count of T's entries is laid out: the input
    factors of its columns, then the instrument outcome and output factors
    of its flattened rows.  The axes no label keeps are summed.
    """
    labels, roles, _, n_out = view
    labels, roles = labels[n_out:] + labels[:n_out], roles[n_out:] + roles[:n_out]
    kept = tuple(role in (inference.GIVEN, inference.GUESSED) for role in roles)
    n_in = len(labels) - n_out
    layout = (
        inference._joined_labels(labels[:n_in], kept[:n_in]),
        inference._joined_labels(labels[n_in:], kept[n_in:]),
        tuple(map(len, labels)),
        tuple(axis for axis, k in enumerate(kept) if not k),
    )
    return layout, inference._transitions(task.transformation, task.preparation_states)


def _padded_cumsum(weights: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums, padded with +inf to a power-of-two width."""
    n = weights.shape[-1]
    cdfs = np.full((len(weights), 1 << (n - 1).bit_length()), np.inf)
    np.cumsum(weights, axis=-1, out=cdfs[:, :n])
    return cdfs


def _transformation_stages(t: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """The outcome CDF of each alternative a, and the measurement CDF of each (a, outcome k), padded.

    Row (a, k) is column a of outcome k's T, and k's weight is its sum.
    Unitaries, channels and preparation sets are single-outcome: their
    outcome is not drawn and has no CDF (None), but its uniform is still in every trial's block.
    """
    n_x, n_alt = t.shape[-2:]
    columns = np.ascontiguousarray(np.moveaxis(t.reshape(-1, n_x, n_alt), -1, 0))
    outcome_cdfs = _padded_cumsum(columns.sum(axis=-1)) if columns.shape[1] > 1 else None
    return outcome_cdfs, _padded_cumsum(columns.reshape(-1, n_x))


def _grouped_inverse_cdf(groups: np.ndarray, u: np.ndarray, cdfs: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Per trial t, the inverse-CDF draw of u[t] from row groups[t] of ``_padded_cumsum``'s cdfs, as a flat position.

    A branchless binary search counts the row's entries at most u times its
    total, ``totals[groups[t]]``: on a nondecreasing row,
    ``searchsorted(side="right")``.  The search moves a flat position, row
    times width plus index, so each step is one gather.  The index is not
    clipped: a count of n, from rounding at the top, is the caller's to read
    as n - 1.
    """
    flat, width = cdfs.ravel(), cdfs.shape[1]
    target = u * totals[groups]
    position, step = groups * width, width >> 1
    while step:
        position += step * (flat[step - 1 :][position] <= target)
        step >>= 1
    return position


def count_grid(task: InferenceTask, shots: int, seed: int) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Simulate ``shots`` independent trials: the input labels, the output labels, and the count grid.

    The grid is an int64 array of shape (input labels, output labels).  The
    labels are those of the task's table families: the given labels of its
    prediction rows and of its postdiction rows.
    """
    return _count_grid(*_prepare_alternatives(task, inference._kernel_view(task)), shots, seed)


def _count_grid(layout, t: np.ndarray, shots: int, seed: int) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """``count_grid`` on a task's ``_prepare_alternatives``: its grid layout and its transition array.

    The ensemble's ``_measurement_histogram`` is folded once into the grid:
    a draw that rounding at the top pushed past its row's last entry counts
    as that entry, and the axes no label keeps are summed.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    in_labels, out_labels, shape, summed = layout
    n_x = t.shape[-2]
    histogram = _measurement_histogram(t, shots, seed)
    histogram[:, n_x - 1] += histogram[:, n_x:].sum(axis=1)
    grid = histogram[:, :n_x].reshape(shape).sum(axis=summed)
    return in_labels, out_labels, grid.reshape(len(in_labels), len(out_labels))


def _measurement_histogram(t: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """How many of ``shots`` trials drew each position of ``_transformation_stages``'s measurement CDFs.

    Row (a, k) of the int64 result counts the trials of alternative a and
    outcome k by the unclipped index of their measurement draw.  Each chunk
    adds its positions with ``np.add.at``, work in proportion to the chunk
    whatever the size of T.
    """
    outcome_cdfs, meas_cdfs = _transformation_stages(t)
    n_x, n_alt = t.shape[-2:]
    meas_totals = meas_cdfs[:, n_x - 1].copy()
    if outcome_cdfs is not None:
        n_outcomes = len(meas_cdfs) // n_alt
        outcome_totals = outcome_cdfs[:, n_outcomes - 1].copy()
        # Outcome position (a, j) draws its measurement from row (a, min(j, K - 1)).
        padded_k = np.minimum(np.arange(outcome_cdfs.shape[1]), n_outcomes - 1)
        meas_rows = (np.arange(n_alt)[:, None] * n_outcomes + padded_k).ravel()
    histogram = np.zeros(meas_cdfs.shape, dtype=np.int64)
    stream, block = _stream(seed), np.empty((min(CHUNK_TRIALS, shots), SLOTS_PER_TRIAL))
    for first in range(0, shots, CHUNK_TRIALS):
        uniforms = block[: min(CHUNK_TRIALS, shots - first)]
        stream.random(out=uniforms)
        rows = (uniforms[:, 0] * n_alt).astype(np.int64)
        np.minimum(rows, n_alt - 1, out=rows)
        if outcome_cdfs is not None:  # else the one outcome is 0, and its uniform goes unread
            rows = meas_rows[_grouped_inverse_cdf(rows, uniforms[:, 1], outcome_cdfs, outcome_totals)]
        np.add.at(histogram.ravel(), _grouped_inverse_cdf(rows, uniforms[:, 2], meas_cdfs, meas_totals), 1)
    return histogram


def run_ensemble(task: InferenceTask, shots: int, seed: int) -> EnsembleResult:
    """Simulate ``shots`` independent trials of the task's scenario: ``count_grid`` as a dict of label pairs."""
    in_labels, out_labels, grid = count_grid(task, shots, seed)
    rows, columns = np.nonzero(grid)
    pairs = zip(rows.tolist(), columns.tolist(), grid[rows, columns].tolist())
    counts = {(in_labels[i], out_labels[j]): n for i, j, n in pairs}
    return EnsembleResult(joint_counts=counts, shots=shots, seed=seed)


def empirical_conditionals(result: EnsembleResult, direction: str) -> dict[str, ProbabilityTable]:
    """Conditional frequency tables, one per conditioning cell with nonzero count.

    ``predict`` conditions on the input label, ``postdict`` on the output
    label.  Cells that never occurred are simply absent (skipped).
    """
    if direction not in ("predict", "postdict"):
        raise ValueError(f"unknown direction {direction!r}")
    grouped: dict[str, dict[str, int]] = {}
    for (in_label, out_label), n in result.joint_counts.items():
        data, guess = (in_label, out_label) if direction == "predict" else (out_label, in_label)
        grouped.setdefault(data, {})
        grouped[data][guess] = grouped[data].get(guess, 0) + n
    tables = {}
    for data, cells in sorted(grouped.items()):
        total = sum(cells.values())
        tables[data] = ProbabilityTable(
            {guess: n / total for guess, n in sorted(cells.items())},
            given=data,
            direction=direction,
        )
    return tables


def _analytic_rows(family, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of a ``_solve_rows`` family, which a sample drew, as probabilities, checked in one array pass.

    The first of them that ``inference._row_table`` would reject raises: a
    row to normalize without evidence is undefined, and an entry out of
    range or a sum off 1 raises the table's error.
    """
    givens, cells, numerators, normalized = family
    values = numerators[rows]
    missing = np.zeros(len(rows), dtype=bool)
    if normalized:
        evidence, missing = inference._evidence(values)
        values = values / np.where(missing[:, None], 1.0, evidence)
    invalid = first_invalid_row(cells, values)
    if missing[: len(rows) if invalid is None else invalid[0] + 1].any():
        given = givens[rows[int(np.argmax(missing))]]
        raise UndefinedConditionalError(f"cell {given!r} was sampled but has zero probability")
    if invalid is not None:
        raise invalid[1]
    return values


def sample_checks(
    predict_task: InferenceTask, postdict_task: InferenceTask, shots: int, seed: int, floor: float
) -> tuple[list[tuple[str, float, float, bool]], dict[str, float]]:
    """Draw one ensemble, read it both ways, and hold every sampled conditional row to its closed form.

    The tasks predict and postdict on one validated scenario.  Returns the
    checks, (name, defect, bound, passed) for each sampled row of the
    prediction family and then of the postdiction family, and each
    direction's largest deviation as ``max_deviation_<direction>``.

    Each task's kernel view is built once, and the predict task's also gives
    the alternatives.  The transition array is built once: each direction's
    rows are solved on it in one contraction, and the ensemble is counted on
    it.  The grid is read along its rows to predict and down its columns to
    postdict, its labels being the families' given labels.  A direction's
    sampled rows, in the order of their given labels, are checked in one
    array pass; no table is built.
    """
    tasks = (predict_task, postdict_task)
    views = [inference._kernel_view(task) for task in tasks]
    layout, t = _prepare_alternatives(tasks[0], views[0])
    # Solving first rejects a task that guesses nothing before any trial runs.
    families = [inference._solve_rows(view, t) for view in views]
    _, _, counts = _count_grid(layout, t, shots, seed)
    checks: list[tuple[str, float, float, bool]] = []
    metrics = {}
    for task, family, grid in zip(tasks, families, (counts, counts.T)):
        givens = family[0]
        trials = grid.sum(axis=1)
        sampled = np.array(sorted(np.flatnonzero(trials).tolist(), key=givens.__getitem__))
        analytic = _analytic_rows(family, sampled)
        result = verdicts(grid[sampled] / trials[sampled, None], analytic, trials[sampled], floor)
        names = [f"sample-{task.direction}-given-{givens[row]}" for row in sampled.tolist()]
        checks += zip(names, result.defect.tolist(), result.bound.tolist(), result.passed.tolist())
        metrics[f"max_deviation_{task.direction}"] = float(result.defect.max())
    return checks, metrics


class Verdicts(NamedTuple):
    """Sampled rows held to their closed forms: per cell, then per row.

    ``deviations`` and ``bounds`` are (rows, cells).  Per row, ``defect`` is
    the largest deviation and ``worst`` its first cell, or -1 when every
    deviation is 0; ``bound`` is the first failing cell's bound, else the
    worst cell's, else the floor; ``passed`` is whether no cell fails.
    """

    deviations: np.ndarray
    bounds: np.ndarray
    defect: np.ndarray
    worst: np.ndarray
    bound: np.ndarray
    passed: np.ndarray


def verdicts(frequencies: np.ndarray, p: np.ndarray, trials: np.ndarray, floor: float = 0.01) -> Verdicts:
    """Every row of empirical frequencies against its analytic row, in one array pass.

    ``frequencies`` and ``p`` are (rows, cells), and ``trials`` is the count
    of each row's conditioning cell.  A cell fails when its deviation
    |frequency - p| exceeds max(floor, 4 sqrt(p (1-p) / trials)), a bound of
    zero included.
    """
    deviations = np.abs(frequencies - p)
    bounds = np.maximum(floor, 4.0 * np.sqrt(np.maximum(p * (1.0 - p), 0.0) / trials[:, None]))
    failing = deviations > bounds
    rows = np.arange(len(deviations))
    worst = deviations.argmax(axis=1)
    defect = deviations[rows, worst]
    worst[~(defect > 0.0)] = -1
    passed = ~failing.any(axis=1)
    reported = np.where(passed, worst, failing.argmax(axis=1))
    bound = np.where(reported < 0, floor, bounds[rows, reported])
    return Verdicts(deviations, bounds, defect, worst, bound, passed)


@dataclass(frozen=True)
class CompareReport:
    """``compare``'s verdict on one row: its largest deviation, worst and failing labels, and bounds."""

    max_deviation: float
    worst_label: str | None
    failures: tuple[str, ...]
    tolerances: dict[str, float]

    @property
    def passed(self) -> bool:
        return not self.failures


def compare(
    empirical: ProbabilityTable,
    analytic: ProbabilityTable,
    shots: int,
    floor: float = 0.01,
) -> CompareReport:
    """Check an empirical row against its closed form: ``verdicts`` on one row.

    ``shots`` is the number of trials behind the row, the count of its
    conditioning cell.  Outcomes absent from the empirical table count as
    frequency zero; an empirical outcome unknown to the analytic table is a
    label mismatch and is rejected.
    """
    unknown = set(empirical.entries) - set(analytic.entries)
    if unknown:
        raise ValueError(f"empirical outcomes {sorted(unknown)} do not appear in the analytic table")
    labels = analytic.labels()
    frequencies = [[empirical.entries.get(label, 0.0) for label in labels]]
    row = verdicts(np.array(frequencies), analytic.probabilities()[None], np.array([shots]), floor)
    worst = int(row.worst[0])
    failing = (row.deviations > row.bounds)[0].tolist()
    return CompareReport(
        max_deviation=float(row.defect[0]),
        worst_label=labels[worst] if worst >= 0 else None,
        failures=tuple(label for label, fails in zip(labels, failing) if fails),
        tolerances=dict(zip(labels, row.bounds[0].tolist())),
    )
