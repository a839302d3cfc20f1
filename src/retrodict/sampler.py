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
scheduled.  The ensemble is counted in chunks of ``CHUNK_TRIALS`` trials,
each chunk's uniforms starting at its first trial's slot (the counter is
advanced, not replayed).  The CDFs of every alternative are stacked once, so
a chunk draws each stage for all its trials with one batched search and
tallies its (input label, output label) cells with one ``bincount``.  Memory
is bounded by T and the chunk, not by ``shots``, and the chunk size cannot
change the counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import inference
from .errors import UndefinedConditionalError
from .inference import InferenceTask
from .tables import ProbabilityTable

SLOTS_PER_TRIAL = 3
# Trials counted per chunk; a chunk's uniforms take 24 bytes per trial.
CHUNK_TRIALS = 1 << 16
# Philox is keyed by one 64-bit word: seeds lie in [0, SEED_LIMIT).
SEED_LIMIT = 2**64


def trial_uniforms(seed: int, shots: int, first: int = 0) -> np.ndarray:
    """The (shots, 3) array of uniform doubles driving trials first, ..., first + shots - 1.

    Raw 64-bit Philox words are mapped to [0, 1) doubles by the standard
    (word >> 11) * 2**-53 conversion.  The words before trial ``first`` are
    skipped by advancing the counter (four words per step) and discarding
    the remainder, so the block equals rows [first, first + shots) of the
    block from trial 0.
    """
    bit_generator = np.random.Philox(key=np.uint64(seed))
    skipped, remainder = divmod(SLOTS_PER_TRIAL * first, 4)
    bit_generator.advance(skipped)
    bit_generator.random_raw(remainder)
    raw = bit_generator.random_raw(SLOTS_PER_TRIAL * shots)
    return ((raw >> np.uint64(11)).astype(np.float64) * 2.0**-53).reshape(shots, SLOTS_PER_TRIAL)


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


def _prepare_alternatives(task: InferenceTask):
    """Per side, its labels and each outcome combination's index among them; and the solver's transition array.

    A side's labels are the kernel's given labels of the factors in its mask.
    The input index runs over the columns of T, the output index over its
    flattened rows, the instrument outcome first.
    """
    sides = []
    for factors, mask in inference._kernel_view(task):
        kept = [len(labels) if m else 1 for labels, m in zip(factors, mask)]
        index = np.broadcast_to(np.arange(np.prod(kept)).reshape(kept), tuple(map(len, factors))).ravel()
        sides.append((inference._joined_labels(factors, mask), index))
    return sides, inference._transitions(task.transformation, task.preparation_states)


def _padded_cumsum(weights: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums, padded with +inf to a power-of-two width."""
    n = weights.shape[-1]
    cdfs = np.full((len(weights), 1 << (n - 1).bit_length()), np.inf)
    np.cumsum(weights, axis=-1, out=cdfs[:, :n])
    return cdfs


def _transformation_stages(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The outcome CDF of each alternative a, and the measurement CDF of each (a, outcome k), padded.

    Row (a, k) is column a of outcome k's T, and k's weight is its sum.
    Unitaries and channels are single-outcome; the outcome draw is still
    consumed so every trial advances the stream by the same amount.
    """
    n_x, n_alt = t.shape[-2:]
    columns = np.ascontiguousarray(np.moveaxis(t.reshape(-1, n_x, n_alt), -1, 0))
    return _padded_cumsum(columns.sum(axis=-1)), _padded_cumsum(columns.reshape(-1, n_x))


def _grouped_inverse_cdf(groups: np.ndarray, u: np.ndarray, cdfs: np.ndarray, n: int) -> np.ndarray:
    """Per trial t, the inverse-CDF draw of u[t] from row groups[t] of ``_padded_cumsum``'s n-entry cdfs.

    A branchless binary search counts the row's entries at most u times its
    total: on a nondecreasing row, ``searchsorted(side="right")``, here
    clipped to the last index against rounding at the top.
    """
    flat, base = cdfs.ravel(), groups * cdfs.shape[1]
    target = u * flat[base + (n - 1)]
    drawn, step = np.zeros_like(base), cdfs.shape[1] >> 1
    while step:
        drawn += step * (flat[base + drawn + (step - 1)] <= target)
        step >>= 1
    return np.minimum(drawn, n - 1)


def run_ensemble(task: InferenceTask, shots: int, seed: int) -> EnsembleResult:
    """Simulate ``shots`` independent trials of the task's scenario."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    ((in_labels, in_index), (out_labels, out_index)), t = _prepare_alternatives(task)
    outcome_cdfs, meas_cdfs = _transformation_stages(t)
    n_alt, n_x, n_outcomes = len(in_index), t.shape[-2], len(out_index) // t.shape[-2]
    # Cell (input label i, output label j) is i * len(out_labels) + j.
    grid = np.zeros(len(in_labels) * len(out_labels), dtype=np.int64)
    for first in range(0, shots, CHUNK_TRIALS):
        uniforms = trial_uniforms(seed, min(CHUNK_TRIALS, shots - first), first)
        alt = np.minimum((uniforms[:, 0] * n_alt).astype(np.int64), n_alt - 1)
        outcome = _grouped_inverse_cdf(alt, uniforms[:, 1], outcome_cdfs, n_outcomes)
        x = _grouped_inverse_cdf(alt * n_outcomes + outcome, uniforms[:, 2], meas_cdfs, n_x)
        grid += np.bincount(in_index[alt] * len(out_labels) + out_index[outcome * n_x + x], minlength=len(grid))

    cells = np.flatnonzero(grid)
    pairs = zip((cells // len(out_labels)).tolist(), (cells % len(out_labels)).tolist(), grid[cells].tolist())
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


def empirical_conditional(result: EnsembleResult, direction: str, given: str) -> ProbabilityTable:
    """The conditional row for one conditioning cell; empty cells are an error."""
    tables = empirical_conditionals(result, direction)
    if given not in tables:
        raise UndefinedConditionalError(f"conditioning cell {given!r} has zero count")
    return tables[given]


@dataclass(frozen=True)
class CompareReport:
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
    """Check an empirical row against its closed form, cell by cell.

    The per-cell tolerance is max(floor, 4 sqrt(p (1-p) / shots)) with p the
    analytic probability and ``shots`` the number of trials behind the row,
    the count of its conditioning cell.  Outcomes absent from the empirical
    table count as frequency zero; an empirical outcome unknown to the
    analytic table is a label mismatch and is rejected.
    """
    unknown = set(empirical.entries) - set(analytic.entries)
    if unknown:
        raise ValueError(f"empirical outcomes {sorted(unknown)} do not appear in the analytic table")
    max_dev = 0.0
    worst = None
    failures = []
    tolerances = {}
    for label, p in analytic.entries.items():
        tol = max(floor, 4.0 * np.sqrt(max(p * (1.0 - p), 0.0) / shots))
        dev = abs(empirical.entries.get(label, 0.0) - p)
        tolerances[label] = tol
        if dev > max_dev:
            max_dev, worst = dev, label
        if dev > tol:
            failures.append(label)
    return CompareReport(
        max_deviation=max_dev,
        worst_label=worst,
        failures=tuple(failures),
        tolerances=tolerances,
    )
