"""Outcome probability tables with normalization metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Joint outcome labels join their per-factor parts with this separator.
LABEL_SEPARATOR = "·"

# A full conditional distribution must sum to 1 within this bound; individual
# entries may undershoot 0 or overshoot 1 by at most ENTRY_SLACK of float noise.
NORMALIZATION_ATOL = 1e-9
ENTRY_SLACK = 1e-12


def join_labels(*parts: str) -> str:
    return LABEL_SEPARATOR.join(parts)


def _out_of_range(value: float, label: str) -> ValueError:
    return ValueError(f"probability {value} for outcome {label!r} is out of range")


def _not_normalized(total: float) -> ValueError:
    return ValueError(f"table sums to {total}, not normalized within {NORMALIZATION_ATOL}")


@dataclass(frozen=True)
class ProbabilityTable:
    """Mapping from outcome labels to probabilities for one conditioning cell.

    ``given`` names the outcome that was conditioned on (None for marginal
    tables), ``direction`` records which way the inference ran, and ``factor``
    optionally carries the prediction-to-postdiction normalization constant.
    """

    entries: dict[str, float]
    given: str | None = None
    direction: str = "predict"
    factor: float | None = None
    normalization_defect: float = field(init=False)

    def __post_init__(self):
        if self.direction not in ("predict", "postdict"):
            raise ValueError(f"unknown direction {self.direction!r}")
        cleaned: dict[str, float] = {}
        # Each check is written so that NaN, which fails every comparison, fails it.
        for label, value in self.entries.items():
            value = float(value)
            if not -ENTRY_SLACK <= value <= 1.0 + ENTRY_SLACK:
                raise _out_of_range(value, label)
            cleaned[str(label)] = value
        object.__setattr__(self, "entries", cleaned)
        total = sum(cleaned.values())
        object.__setattr__(self, "normalization_defect", abs(total - 1.0))
        if not self.normalization_defect <= NORMALIZATION_ATOL:
            raise _not_normalized(total)

    @classmethod
    def from_values(
        cls,
        labels: Sequence[str],
        values: Sequence[float] | np.ndarray,
        given: str | None = None,
        direction: str = "predict",
        factor: float | None = None,
    ) -> "ProbabilityTable":
        values = np.asarray(values, dtype=float)
        if len(labels) != values.size:
            raise ValueError("labels and values must have matching lengths")
        return cls(dict(zip(labels, values.tolist())), given=given, direction=direction, factor=factor)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.entries)

    def probabilities(self) -> np.ndarray:
        return np.array(list(self.entries.values()), dtype=float)

    def __getitem__(self, label: str) -> float:
        return self.entries[str(label)]

    def max_difference(self, other: "ProbabilityTable") -> float:
        """Largest entrywise deviation over the union of labels (missing = 0)."""
        labels = set(self.entries) | set(other.entries)
        return max(abs(self.entries.get(l, 0.0) - other.entries.get(l, 0.0)) for l in labels)


def first_invalid_row(labels: Sequence[str], values: np.ndarray) -> tuple[int, ValueError] | None:
    """The first row of ``values`` that a table over ``labels`` would reject, with the table's error.

    The table's checks on every row at once: each entry in range, then the
    row's sum.  numpy's pairwise sum and the table's ``sum`` differ by a few
    ulp, far below half the bound, so only a row whose numpy sum is near or
    past the bound is summed again as the table sums it.
    """
    in_range = (values >= -ENTRY_SLACK) & (values <= 1.0 + ENTRY_SLACK)
    out_of_range = ~in_range.all(axis=1)
    suspect = ~(np.abs(values.sum(axis=1) - 1.0) <= NORMALIZATION_ATOL / 2)
    for row in np.flatnonzero(out_of_range | suspect).tolist():
        if out_of_range[row]:
            cell = int(np.argmin(in_range[row]))
            return row, _out_of_range(float(values[row, cell]), labels[cell])
        total = sum(values[row].tolist())
        if not abs(total - 1.0) <= NORMALIZATION_ATOL:
            return row, _not_normalized(total)
    return None
