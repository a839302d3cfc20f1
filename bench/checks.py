"""Output checks: each CLI answer against the oracle or a property the method must have.

``reference`` runs once per case at set-up and stores what the check needs;
``check`` runs after every invocation, outside the timed region, and raises
``CheckFailed`` on a wrong answer.
"""

from __future__ import annotations

import json
import math

import numpy as np

import inputs
import oracle
from inputs import Z_SIGMA, Case

TABLE_ATOL = 1e-12
PURIFY_ATOL = 1e-10

# verify's twelve checks and the tolerance each is held to by default.  A
# tolerance above these would let the sweep pass on a weaker test.
VERIFY_TOLERANCES = {
    "closed-symmetry": 1e-12,
    "open-reversal": 1e-12,
    "open-ratio-laws": 1e-12,
    "channel-bayes-factor": 1e-12,
    "purified-ratio": 1e-10,
    "four-task": 1e-12,
    "towards-past": 1e-10,
    "no-signalling": 1e-12,
    "no-signalling-purified": 1e-10,
    "unital-symmetric-adjoint": 0.5,
    "deterministic-effect-solution": 1e-8,
    "deterministic-effect-alternatives": None,  # tolerance is the measured residual
}


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def transitions(case: Case) -> dict[str, np.ndarray]:
    """The oracle's transition arrays, keyed by instrument outcome ("" otherwise)."""
    if case.kind == "unitary":
        return {"": oracle.kraus_transition((case.matrix,))}
    if case.kind == "kraus":
        return {"": oracle.kraus_transition(case.kraus)}
    if case.kind == "states":
        return {"": oracle.states_transition(case.matrix, case.states)}
    return {label: oracle.kraus_transition(ops) for label, ops in case.outcomes.items()}


def _label(given) -> str:
    return oracle.SEPARATOR.join(str(g) for g in given if g is not None)


def reference(case: Case) -> dict:
    """What a correct answer to ``case`` is, from the oracle alone."""
    if case.expect_exit or case.command == "verify":
        return {}
    if case.command in ("classify", "purify"):
        t = transitions(case)
        if case.command == "classify":
            image = sum(k @ k.conj().T for k in case.kraus)
            oracle_unital = bool(np.max(np.abs(image - np.eye(image.shape[0]))) < 1e-10)
            _require(oracle_unital == case.unital, f"{case.name}: construction and oracle disagree")
        return {"transitions": t}
    if case.command == "sample":
        return _sample_reference(case)
    t = transitions(case)
    n_in = len(case.states) if case.kind == "states" else None
    dims_in = (n_in,) if n_in else case.dims_in
    if case.command == "predict":
        if case.kind == "instrument":
            row = oracle.instrument_predict_row(t, case.given_in[0])
        else:
            row = oracle.predict_row(t[""], case.dims_out, dims_in, case.given_in, case.mask_out)
        return {"row": row, "given": _label(case.given_in), "factor": None}
    key = case.outcome if case.kind == "instrument" else ""
    row, factor = oracle.postdict_row(t[key], case.dims_out, dims_in, case.given_out, case.mask_in)
    given = _label(case.given_out)
    if case.kind == "instrument":
        given = f"{case.outcome}{oracle.SEPARATOR}{given}"
    return {"row": row, "given": given, "factor": factor if case.kind == "kraus" else None}


def _sample_reference(case: Case) -> dict:
    joint = oracle.sample_joint(transitions(case), case.dims_out, case.dims_in, case.mask_in, case.mask_out)
    ref = {}
    for direction in ("predict", "postdict"):
        rows = oracle.conditionals(joint, direction)
        sigma = max(
            oracle.binomial_sigma(p, case.shots * weight)
            for weight, row in rows.values()
            for p in row.values()
        )
        ref[direction] = {
            "rows": rows,
            "bound": Z_SIGMA * sigma,
            # Cells expected this often are present in every run.
            "required": {c for c, (w, _) in rows.items() if w * case.shots >= 50},
        }
    return ref


def sample_tolerance(ref: dict) -> float:
    """The program's --tolerance floor that makes its own test a Z_SIGMA-sigma test."""
    bound = max(ref["predict"]["bound"], ref["postdict"]["bound"])
    return math.ceil(bound * 1e3) / 1e3


def check(case: Case, ref: dict, code: int, stdout: str, seed: int | None) -> None:
    if case.expect_exit:
        _require(code == case.expect_exit, f"{case.name}: exit {code}, expected {case.expect_exit}")
        return
    _require(code == 0, f"{case.name}: exit {code}")
    doc = json.loads(stdout)
    if case.command == "verify":
        _check_verify(case, doc)
    elif case.command == "sample":
        _check_sample(case, ref, doc, seed)
    elif case.command == "classify":
        _check_classify(case, doc)
    elif case.command == "purify":
        _check_purify(case, ref, doc)
    else:
        _check_table(case, ref, doc)


def _check_table(case: Case, ref: dict, doc: dict):
    _require(len(doc["tables"]) == 1, f"{case.name}: expected one table")
    table = doc["tables"][0]
    _require(table["direction"] == case.command, f"{case.name}: wrong direction")
    _require(table["given"] == ref["given"], f"{case.name}: given {table['given']!r}")
    entries = table["entries"]
    _require(abs(sum(entries.values()) - 1.0) < 1e-9, f"{case.name}: row does not sum to 1")
    gap = oracle.max_difference(entries, ref["row"])
    _require(gap <= TABLE_ATOL, f"{case.name}: table differs from the oracle by {gap:.3e}")
    if ref["factor"] is None:
        _require(table["factor"] is None, f"{case.name}: unexpected factor")
    else:
        gap = abs(table["factor"] - ref["factor"])
        _require(gap <= TABLE_ATOL * max(1.0, ref["factor"]), f"{case.name}: factor off by {gap:.3e}")


def _check_verify(case: Case, doc: dict):
    checks = {c["name"]: c for c in doc["checks"]}
    _require(set(checks) == set(VERIFY_TOLERANCES), f"{case.name}: checks {sorted(checks)}")
    _require(doc["passed"] is True, f"{case.name}: report not passed")
    for name, tolerance in VERIFY_TOLERANCES.items():
        c = checks[name]
        _require(c["passed"] and c["defect"] < c["tolerance"], f"{case.name}: {name} failed")
        if tolerance is not None:
            _require(c["tolerance"] <= tolerance, f"{case.name}: {name} tolerance widened")


def _check_classify(case: Case, doc: dict):
    m = doc["metrics"]
    _require(m["cp"] is True and m["tp"] is True, f"{case.name}: not reported as a channel")
    _require(m["unital"] is case.unital, f"{case.name}: unital {m['unital']}")
    _require(m["inference_symmetric"] is case.unital, f"{case.name}: symmetry {m['inference_symmetric']}")
    expected = "exists" if case.unital else "none"
    _require(m["active_reverse"] == expected, f"{case.name}: active reverse {m['active_reverse']}")


def _wire_array(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _check_purify(case: Case, ref: dict, doc: dict):
    """The dilation reproduces the oracle's transition arrays on every basis input."""
    checks = {c["name"]: c for c in doc["checks"]}
    _require(checks["purification-round-trip"]["passed"], f"{case.name}: round trip failed")
    p = doc["metrics"]["purification"]
    u = _wire_array(p["unitary"])
    _require(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < PURIFY_ATOL, f"{case.name}: not unitary")
    ancilla = _wire_array(p["ancilla_state"])
    d_a, _ = p["dims_in"]
    d_x, d_y = p["dims_out"]
    pointer = p["pointer_dims"] or (1, d_y)
    outputs = np.stack([u @ np.kron(np.eye(d_a)[a], ancilla) for a in range(d_a)], axis=1)
    weights = np.abs(outputs.reshape(d_x, pointer[0], pointer[1], d_a)) ** 2
    per_pointer = weights.sum(axis=2)  # [x, pointer slot, a]
    expected = ref["transitions"]
    if p["pointer_dims"] is None:
        got = {"": per_pointer.sum(axis=1)}
    else:
        got = {label: per_pointer[:, i, :] for i, label in enumerate(expected)}
    for label, t in expected.items():
        gap = float(np.max(np.abs(got[label] - t)))
        _require(gap < PURIFY_ATOL, f"{case.name}: dilation differs from the oracle by {gap:.3e}")


def _check_sample(case: Case, ref: dict, doc: dict, seed: int | None):
    m = doc["metrics"]
    _require(m["shots"] == case.shots and m["seed"] == seed, f"{case.name}: shots or seed not honoured")
    _require(all(c["passed"] for c in doc["checks"]), f"{case.name}: a sampled cell failed")
    for direction in ("predict", "postdict"):
        prefix = f"sample-{direction}-given-"
        cells = {c["name"][len(prefix):] for c in doc["checks"] if c["name"].startswith(prefix)}
        expected = ref[direction]
        _require(cells <= set(expected["rows"]), f"{case.name}: impossible {direction} cells")
        _require(expected["required"] <= cells, f"{case.name}: missing {direction} cells")
        deviation = m[f"max_deviation_{direction}"]
        _require(
            deviation <= expected["bound"],
            f"{case.name}: {direction} deviation {deviation:.4f} above {expected['bound']:.4f}",
        )


def check_counts(case: Case, ref: dict, first, second) -> None:
    """Two ensembles with one seed: identical counts, summing to the shots, near the oracle."""
    _require(first.joint_counts == second.joint_counts, f"{case.name}: counts differ between runs")
    _require(sum(first.joint_counts.values()) == case.shots, f"{case.name}: counts do not sum to shots")
    for direction in ("predict", "postdict"):
        rows = ref[direction]["rows"]
        grouped: dict[str, dict[str, int]] = {}
        for (a, x), n in first.joint_counts.items():
            data, guess = (a, x) if direction == "predict" else (x, a)
            grouped.setdefault(data, {})[guess] = n
        for data, cells in grouped.items():
            _require(data in rows, f"{case.name}: impossible cell {data!r}")
            total = sum(cells.values())
            for guess, p in rows[data][1].items():
                dev = abs(cells.get(guess, 0) / total - p)
                bound = Z_SIGMA * oracle.binomial_sigma(p, total)
                _require(dev <= bound, f"{case.name}: {direction} {data}->{guess} off by {dev:.4f}")



def property_checks() -> None:
    """Properties the oracle itself must have, checked at set-up of every run."""
    k0, k1 = inputs.amplitude_damping(0.5)
    t = oracle.kraus_transition((k0, k1))
    expected = {0: ({"0": 2 / 3, "1": 1 / 3}, 2 / 3), 1: ({"0": 0.0, "1": 1.0}, 2.0)}
    for x, (row, factor) in expected.items():
        got, got_factor = oracle.postdict_row(t, (2,), (2,), (x,), (True,))
        _require(oracle.max_difference(got, row) < 1e-15, f"amplitude damping postdiction given {x}")
        _require(abs(got_factor - factor) < 1e-15, f"amplitude damping factor given {x}")
    rng = np.random.default_rng(0)
    u = inputs.haar_unitary(rng, 6)
    t = oracle.kraus_transition((u,))
    for a in range(6):
        pre = oracle.predict_row(t, (6,), (6,), (a,), (True,))
        post, _ = oracle.postdict_row(t, (6,), (6,), (a,), (True,))
        _require(abs(sum(pre.values()) - 1.0) < 1e-12, "prediction row does not sum to 1")
        # Closed systems: P(x | a) = P(a | x).
        for x in range(6):
            _require(abs(pre[str(x)] - oracle.postdict_row(t, (6,), (6,), (x,), (True,))[0][str(a)]) < 1e-14,
                     "closed-system symmetry")
        _require(abs(sum(post.values()) - 1.0) < 1e-12, "postdiction row does not sum to 1")
    t = oracle.kraus_transition((inputs.haar_unitary(rng, 12),))
    row = oracle.predict_row(t, (3, 4), (3, 4), (1, None), (True, False))
    _require(abs(sum(row.values()) - 1.0) < 1e-12, "open prediction row does not sum to 1")
