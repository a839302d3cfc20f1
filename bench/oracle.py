"""Independent reference for the benchmark's output checks.

Numpy only; nothing here imports or mirrors retrodict.  Every basis task is a
contraction of one non-negative transition array T[x..., a...]:

- a map with Kraus operators K_k gives T[x, a] = sum_k |K_k[x, a]|^2
  (a unitary is the case of one operator);
- a preparation set {psi_i} through U gives T[x, i] = |<x|U|psi_i>|^2.

Prediction weights the input side with a one-hot vector on known factors and
1/d on ignored ones, and sums the ignored output factors.  Postdiction does
the same with the sides swapped and then normalizes; the normalizer's
inverse is the Bayes factor.
"""

from __future__ import annotations

import itertools

import numpy as np

SEPARATOR = "·"


def kraus_transition(kraus) -> np.ndarray:
    """T[x, a] = sum_k |K_k[x, a]|^2 for Kraus operators of shape (d_out, d_in)."""
    return sum(np.abs(np.asarray(k)) ** 2 for k in kraus)


def states_transition(u: np.ndarray, states) -> np.ndarray:
    """T[x, i] = |<x|U|psi_i>|^2; columns are the preparation alternatives."""
    return np.abs(np.asarray(u) @ np.stack([np.asarray(s) for s in states], axis=1)) ** 2


def _labels(dims, keep) -> list[str]:
    return [
        SEPARATOR.join(str(i) for i in combo)
        for combo in itertools.product(*(range(dims[k]) for k in keep))
    ]


def _weights(dims, given):
    """Per-factor data-side weights: one-hot on a given outcome, flat 1/d otherwise."""
    out = []
    for d, g in zip(dims, given):
        w = np.full(d, 1.0 / d) if g is None else np.eye(d)[g]
        out.append(w)
    return out


def _contract(t, dims_out, dims_in, data_side, given, keep):
    """Contract the data side with its weights and keep the guessed factors."""
    n_out = len(dims_out)
    tensor = np.asarray(t, dtype=float).reshape(tuple(dims_out) + tuple(dims_in))
    axes_out = list(range(n_out))
    axes_in = list(range(n_out, n_out + len(dims_in)))
    data_axes, guess_axes = (axes_in, axes_out) if data_side == "in" else (axes_out, axes_in)
    data_dims = dims_in if data_side == "in" else dims_out
    operands = [tensor, axes_out + axes_in]
    for axis, w in zip(data_axes, _weights(data_dims, given)):
        operands += [w, [axis]]
    return np.einsum(*operands, [guess_axes[k] for k in keep]).reshape(-1)


def predict_row(t, dims_out, dims_in, given_in, mask_out) -> dict[str, float]:
    """P(x_kept | a_known) with flat weights on ignored inputs."""
    keep = [k for k, m in enumerate(mask_out) if m]
    values = _contract(t, dims_out, dims_in, "in", given_in, keep)
    return dict(zip(_labels(dims_out, keep), values.tolist()))


def postdict_row(t, dims_out, dims_in, given_out, mask_in) -> tuple[dict[str, float], float]:
    """P(a_kept | x_known) under a flat prior, and the Bayes factor 1 / evidence."""
    keep = [k for k, m in enumerate(mask_in) if m]
    numerators = _contract(t, dims_out, dims_in, "out", given_out, keep)
    evidence = float(numerators.sum())
    if evidence <= 0.0:
        raise ValueError("conditioning outcome has zero probability")
    return dict(zip(_labels(dims_in, keep), (numerators / evidence).tolist())), 1.0 / evidence


def instrument_predict_row(transitions: dict[str, np.ndarray], a: int) -> dict[str, float]:
    """Joint (outcome, x) row for an instrument; single-outcome labels carry x alone."""
    multi = len(transitions) > 1
    row = {}
    for label, t in transitions.items():
        for x, p in enumerate(t[:, a].tolist()):
            row[f"{label}{SEPARATOR}{x}" if multi else str(x)] = p
    return row


def sample_joint(transitions, dims_out, dims_in, mask_in, mask_out) -> dict[tuple[str, str], float]:
    """P(input label, output label) for an ensemble with a uniform preparation.

    ``transitions`` maps instrument outcome labels to their arrays; a unitary
    or channel is a single entry with the label "".  The sampler prefixes the
    output label with the outcome label only when there are several outcomes.
    """
    multi = len(transitions) > 1
    keep_in = [k for k, m in enumerate(mask_in) if m]
    keep_out = [k for k, m in enumerate(mask_out) if m]
    n_alt = int(np.prod(dims_in))
    in_labels = _labels(dims_in, keep_in)
    out_labels = _labels(dims_out, keep_out)
    n_out = len(dims_out)
    joint: dict[tuple[str, str], float] = {}
    for branch, t in transitions.items():
        tensor = np.asarray(t, dtype=float).reshape(tuple(dims_out) + tuple(dims_in))
        kept = keep_out + [n_out + k for k in keep_in]
        block = np.einsum(tensor, list(range(tensor.ndim)), kept).reshape(
            len(out_labels), len(in_labels)
        ) / n_alt
        for (i, x_label), (j, a_label) in itertools.product(
            enumerate(out_labels), enumerate(in_labels)
        ):
            label = f"{branch}{SEPARATOR}{x_label}" if multi else x_label
            joint[(a_label, label)] = joint.get((a_label, label), 0.0) + float(block[i, j])
    return joint


def conditionals(joint: dict[tuple[str, str], float], direction: str):
    """Rows of the joint conditioned on the input (predict) or output (postdict).

    Returns {data cell: (P(data cell), {guess: P(guess | data cell)})} for
    every data cell of positive probability.
    """
    grouped: dict[str, dict[str, float]] = {}
    for (a_label, x_label), p in joint.items():
        data, guess = (a_label, x_label) if direction == "predict" else (x_label, a_label)
        grouped.setdefault(data, {})
        grouped[data][guess] = grouped[data].get(guess, 0.0) + p
    rows = {}
    for data, cells in grouped.items():
        total = sum(cells.values())
        if total > 0.0:
            rows[data] = (total, {g: p / total for g, p in cells.items()})
    return rows


def binomial_sigma(p: float, n: float) -> float:
    """Standard deviation of a frequency estimated from n draws of probability p."""
    return float(np.sqrt(max(p * (1.0 - p), 0.0) / n))


def max_difference(row: dict[str, float], reference: dict[str, float]) -> float:
    """Largest entrywise gap; a label missing on either side is a mismatch."""
    if set(row) != set(reference):
        return float("inf")
    return max(abs(row[k] - reference[k]) for k in reference)
