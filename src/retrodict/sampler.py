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
scheduled.  The ensemble is counted in chunks of ``CHUNK_TRIALS`` trials:
each chunk's uniforms start at its first trial's slot (the counter is
advanced, not replayed), its trials are grouped by alternative and drawn by
one inverse-CDF search per group, and its (alternative, outcome, x) cells
are tallied with one ``bincount``.  Memory is bounded by the chunk, not by
``shots``, and the chunk size cannot change the counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import inference
from .errors import UndefinedConditionalError
from .inference import InferenceTask
from .tables import ProbabilityTable, join_labels

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


def _restricted_label(combo: tuple, mask: tuple[bool, ...]) -> str:
    parts = [str(label) for label, m in zip(combo, mask) if m]
    return join_labels(*parts)


def _prepare_alternatives(task: InferenceTask) -> tuple[list[str], list[str], np.ndarray]:
    """Labels of the preparation alternatives and of the output cells, and the solver's transition array.

    The input labels are indexed like the columns of T, the output labels
    like its flattened rows, the instrument outcome first; both read like the
    kernel's given labels.
    """
    in_labels, out_labels = (
        [_restricted_label(combo, mask) for combo in itertools.product(*factors)]
        for factors, mask in inference._kernel_view(task)
    )
    return in_labels, out_labels, inference._transitions(task.transformation, task.preparation_states)


def _transformation_stages(t: np.ndarray, a: int):
    """Sampling data for alternative a: the outcome CDF and one measurement CDF per outcome.

    Unitaries and channels are single-outcome; the outcome draw is still
    consumed so every trial advances the stream by the same amount.
    """
    columns = t.reshape((-1,) + t.shape[-2:])[:, :, a]
    return np.cumsum([column.sum() for column in columns]), [np.cumsum(column) for column in columns]


def _grouped_inverse_cdf(groups: np.ndarray, u: np.ndarray, cdfs: list[np.ndarray]) -> np.ndarray:
    """Per trial t, the inverse-CDF draw of u[t] from the unnormalized cdfs[groups[t]].

    The draw is the first index whose cumulative weight exceeds u times the
    total, clipped to the last index against rounding at the top.
    """
    order = np.argsort(groups)
    bounds = np.cumsum(np.bincount(groups, minlength=len(cdfs)))
    drawn = np.empty(len(groups), dtype=np.int64)
    for cdf, trials in zip(cdfs, np.split(order, bounds[:-1])):
        if len(trials):
            index = np.searchsorted(cdf, u[trials] * cdf[-1], side="right")
            drawn[trials] = np.minimum(index, len(cdf) - 1)
    return drawn


def run_ensemble(task: InferenceTask, shots: int, seed: int) -> EnsembleResult:
    """Simulate ``shots`` independent trials of the task's scenario."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    in_labels, out_labels, t = _prepare_alternatives(task)
    prepared = [_transformation_stages(t, a) for a in range(len(in_labels))]
    branch_cdfs = [branch_cdf for branch_cdf, _ in prepared]
    meas_cdfs = [meas_cdf for _, branches in prepared for meas_cdf in branches]
    n_alt, n_out, n_branch = len(in_labels), len(out_labels), len(branch_cdfs[0])
    n_x = n_out // n_branch

    # Cell (alternative, outcome, x) is alternative * n_out + outcome * n_x + x.
    cells = np.zeros(n_alt * n_out, dtype=np.int64)
    for first in range(0, shots, CHUNK_TRIALS):
        uniforms = trial_uniforms(seed, min(CHUNK_TRIALS, shots - first), first)
        alt = np.minimum((uniforms[:, 0] * n_alt).astype(np.int64), n_alt - 1)
        pair = alt * n_branch + _grouped_inverse_cdf(alt, uniforms[:, 1], branch_cdfs)
        x = _grouped_inverse_cdf(pair, uniforms[:, 2], meas_cdfs)
        cells += np.bincount(pair * n_x + x, minlength=len(cells))

    counts: dict[tuple[str, str], int] = {}
    for cell in np.flatnonzero(cells):
        alt, out = divmod(int(cell), n_out)
        key = (in_labels[alt], out_labels[out])
        counts[key] = counts.get(key, 0) + int(cells[cell])
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
