"""Seeded inputs for the four workloads.

Every scenario is built here with numpy from the workload seed, written as a
scenario file in the program's wire format, and described by a ``Case`` that
carries the arrays the oracle needs.  The program only ever sees the files
and an argv.  Four malformed documents do not depend on the seed: they pin a
parsing fault (see the README) and fail in every run until it is mended.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The verify sweep.  An odd number of sizes puts the pooled median and 90th
# percentile of per-invocation latency inside one size's block of samples.
VERIFY_DIMS = ((2, 2), (3, 3), (4, 4), (5, 5), (6, 6))

# Sampling sizes: many trials on narrow scenarios, a few thousand on wide
# ones.  The narrow cases get distinct sizes for the same reason as the
# verify sweep: each percentile then reads one case's median.
SHOTS_NARROW = (10_000, 15_000, 20_000, 25_000, 35_000)
SHOTS_WIDE = {64: 4_000, 128: 3_000}

# A sampled conditional must lie within Z_SIGMA binomial standard deviations
# of the oracle.  At 4 sigma a two-sided normal tail is 6e-5 per cell; a run
# compares thousands of cells and the verdict is a fixed function of the
# seed, so a 4-sigma bound would fail whole runs on unlucky seeds.
Z_SIGMA = 6.0

MALFORMED_EXIT = 2


@dataclass
class Case:
    """One scenario file and everything needed to check the program's answer."""

    name: str
    command: str
    path: str
    expect_exit: int = 0
    kind: str = ""  # unitary, kraus, instrument, states
    dims_in: tuple[int, ...] = ()
    dims_out: tuple[int, ...] = ()
    mask_in: tuple[bool, ...] = ()
    mask_out: tuple[bool, ...] = ()
    given_in: tuple[int | None, ...] = ()
    given_out: tuple[int | None, ...] = ()
    outcome: str | None = None
    matrix: np.ndarray | None = None
    kraus: tuple[np.ndarray, ...] = ()
    outcomes: dict[str, tuple[np.ndarray, ...]] = field(default_factory=dict)
    states: tuple[np.ndarray, ...] = ()
    unital: bool | None = None
    shots: int = 0
    extra_argv: tuple[str, ...] = ()

    def argv(self, seed: int | None = None) -> list[str]:
        argv = [self.command, "--format", "json", *self.extra_argv]
        if self.path:
            argv += ["--scenario", self.path]
        if seed is not None:
            argv += ["--seed", str(seed)]
        return argv


# ---------------------------------------------------------------------------
# Random objects, built without the program
# ---------------------------------------------------------------------------


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_channel(rng: np.random.Generator, d: int, n_kraus: int) -> tuple[np.ndarray, ...]:
    """Kraus operators cut from an isometry: the first d columns of a Haar unitary."""
    iso = haar_unitary(rng, d * n_kraus)[:, :d]
    return tuple(iso[k * d : (k + 1) * d, :] for k in range(n_kraus))


def noisy_operation(u: np.ndarray, d_a: int, d_b: int) -> tuple[np.ndarray, ...]:
    """rho -> tr_B U (rho x I/d_B) U^dagger, a unital channel on the first factor."""
    blocks = u.reshape(d_a, d_b, d_a, d_b)
    return tuple(blocks[:, y, :, b] / np.sqrt(d_b) for y in range(d_b) for b in range(d_b))


def amplitude_damping(gamma: float) -> tuple[np.ndarray, np.ndarray]:
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return k0, k1


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
DEPHASING = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def _matrix_wire(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _ket_wire(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v)]


def _document(case: Case) -> dict:
    doc: dict = {"task": case.command, "dims_in": list(case.dims_in), "dims_out": list(case.dims_out)}
    if case.kind in ("unitary", "states"):
        doc["transformation"] = {"type": "unitary", "matrix": _matrix_wire(case.matrix)}
    elif case.kind == "kraus":
        doc["transformation"] = {"type": "kraus-channel", "kraus": [_matrix_wire(k) for k in case.kraus]}
    else:
        doc["transformation"] = {
            "type": "instrument",
            "outcomes": [
                {"label": label, "kraus": [_matrix_wire(k) for k in ops]}
                for label, ops in case.outcomes.items()
            ],
        }
    if case.kind == "states":
        doc["preparation"] = {"type": "states", "states": [_ket_wire(s) for s in case.states]}
    given: dict = {}
    if any(g is not None for g in case.given_in):
        given["input"] = list(case.given_in)
    if any(g is not None for g in case.given_out):
        given["output"] = list(case.given_out)
    if case.outcome is not None:
        given["outcome"] = case.outcome
    if given:
        doc["given"] = given
    if case.mask_in:
        doc["known_input_mask"] = list(case.mask_in)
    if case.mask_out:
        doc["known_output_mask"] = list(case.mask_out)
    return doc


def _write(directory: Path, case: Case) -> Case:
    path = directory / f"{case.name}.json"
    path.write_text(json.dumps(_document(case)), encoding="utf-8")
    case.path = str(path)
    return case


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------


def _sample_case(name, kind, dims, mask_in, mask_out, shots, **arrays) -> Case:
    return Case(
        name=name,
        command="sample",
        path="",
        kind=kind,
        dims_in=dims,
        dims_out=dims,
        mask_in=mask_in,
        mask_out=mask_out,
        shots=shots,
        **arrays,
    )


def sample_shots_cases(seed: int, directory: Path) -> list[Case]:
    """Hadamard, a qubit channel, a (2,2) open unitary, the two-outcome
    amplitude-damping instrument, and a (4,4) open unitary with one ignored
    factor per side."""
    rng = np.random.default_rng([seed, 1])
    k0, k1 = amplitude_damping(float(rng.uniform(0.3, 0.7)))
    cases = [
        _sample_case("hadamard", "unitary", (2,), (True,), (True,), SHOTS_NARROW[0], matrix=HADAMARD),
        _sample_case("channel-2", "kraus", (2,), (True,), (True,), SHOTS_NARROW[1],
                     kraus=random_channel(rng, 2, 2)),
        _sample_case("open-2x2", "unitary", (2, 2), (True, True), (True, True), SHOTS_NARROW[2],
                     matrix=haar_unitary(rng, 4)),
        _sample_case("ad-instrument", "instrument", (2,), (True,), (True,), SHOTS_NARROW[3],
                     outcomes={"0": (k0,), "1": (k1,)}),
        _sample_case("open-4x4", "unitary", (4, 4), (True, False), (True, False), SHOTS_NARROW[4],
                     matrix=haar_unitary(rng, 16)),
    ]
    return [_write(directory, c) for c in cases]


def sample_wide_cases(seed: int, directory: Path) -> list[Case]:
    """Open unitaries of total dimension 64 and 128 with partially ignored factors.

    Not 256: one sample invocation there takes 4-6 s, so a 20-second run
    held three or four rounds and its figures spread by 0.12-0.18 between
    runs.  Solving at 256 stays in the scenario-solve workload.
    """
    rng = np.random.default_rng([seed, 2])
    cases = [
        _sample_case(
            "open-4x16", "unitary", (4, 16), (True, False), (True, False), SHOTS_WIDE[64],
            matrix=haar_unitary(rng, 64),
        ),
        _sample_case(
            "open-8x8", "unitary", (8, 8), (True, False), (False, True), SHOTS_WIDE[64],
            matrix=haar_unitary(rng, 64),
        ),
        _sample_case(
            "open-8x16", "unitary", (8, 16), (True, False), (False, True), SHOTS_WIDE[128],
            matrix=haar_unitary(rng, 128),
        ),
    ]
    return [_write(directory, c) for c in cases]


def _pick(rng: np.random.Generator, d: int) -> int:
    return int(rng.integers(d))


def scenario_cases(seed: int, directory: Path, fixtures: Path) -> list[Case]:
    """Solve, classify and purify invocations on generated files, plus malformed ones."""
    rng = np.random.default_rng([seed, 3])
    cases: list[Case] = []

    def add(case: Case):
        cases.append(_write(directory, case))

    def solve_pair(name, kind, dims, mask_in, mask_out, given_in, given_out, outcome=None, **arrays):
        common = dict(kind=kind, dims_in=dims, dims_out=dims, mask_in=mask_in, mask_out=mask_out, **arrays)
        add(Case(name=f"{name}-predict", command="predict", path="", given_in=given_in,
                 given_out=(None,) * len(dims), **common))
        add(Case(name=f"{name}-postdict", command="postdict", path="", given_in=(None,) * len(dims),
                 given_out=given_out, outcome=outcome, **common))

    # Open unitaries with masks at D = 16, 64, 256.
    for d_a, d_b in ((4, 4), (8, 8), (16, 16)):
        u = haar_unitary(rng, d_a * d_b)
        solve_pair(
            f"open-{d_a}x{d_b}", "unitary", (d_a, d_b), (True, False), (True, False),
            (_pick(rng, d_a), None), (_pick(rng, d_a), None), matrix=u,
        )
    # A closed system and a fully known bipartite one.
    solve_pair("closed-8", "unitary", (8,), (True,), (True,), (_pick(rng, 8),), (_pick(rng, 8),),
               matrix=haar_unitary(rng, 8))
    solve_pair("open-2x8-full", "unitary", (2, 8), (True, True), (False, True),
               (_pick(rng, 2), _pick(rng, 8)), (None, _pick(rng, 8)), matrix=haar_unitary(rng, 16))
    # Kraus channels, d <= 16.
    channels = {
        "ad": amplitude_damping(float(rng.uniform(0.2, 0.8))),
        "random-4": random_channel(rng, 4, 3),
        "noisy-4": noisy_operation(haar_unitary(rng, 16), 4, 4),
        "random-16": random_channel(rng, 16, 2),
    }
    for name, kraus in channels.items():
        d = kraus[0].shape[0]
        solve_pair(f"channel-{name}", "kraus", (d,), (True,), (True,), (_pick(rng, d),), (_pick(rng, d),),
                   kraus=kraus)
    # Two-outcome instruments; condition only on outcomes of positive evidence.
    k0, k1 = amplitude_damping(float(rng.uniform(0.2, 0.8)))
    solve_pair("instrument-ad", "instrument", (2,), (True,), (True,), (_pick(rng, 2),), (_pick(rng, 2),),
               outcome="0", outcomes={"0": (k0,), "1": (k1,)})
    ops = random_channel(rng, 4, 4)
    solve_pair("instrument-4", "instrument", (4,), (True,), (True,), (_pick(rng, 4),), (_pick(rng, 4),),
               outcome="1", outcomes={"0": ops[:2], "1": ops[2:]})
    # General preparation sets through a unitary.
    for d, n in ((4, 3), (8, 5)):
        states = tuple(random_state(rng, d) for _ in range(n))
        solve_pair(f"states-{d}", "states", (d,), (True,), (True,), (_pick(rng, n),), (_pick(rng, d),),
                   matrix=haar_unitary(rng, d), states=states)
    # classify and purify at small d only: classify costs seconds at d = 16.
    structural = [
        ("dephasing", DEPHASING, True),
        ("ad", amplitude_damping(float(rng.uniform(0.2, 0.8))), False),
        ("unitary-4", (haar_unitary(rng, 4),), True),
        ("noisy-2", noisy_operation(haar_unitary(rng, 4), 2, 2), True),
    ]
    for name, kraus, unital in structural:
        d = kraus[0].shape[0]
        add(Case(name=f"classify-{name}", command="classify", path="", kind="kraus", dims_in=(d,),
                 dims_out=(d,), kraus=kraus, unital=unital))
    for name, kraus, _ in structural[1:]:
        d = kraus[0].shape[0]
        add(Case(name=f"purify-{name}", command="purify", path="", kind="kraus", dims_in=(d,),
                 dims_out=(d,), kraus=kraus))
    k0, k1 = amplitude_damping(float(rng.uniform(0.2, 0.8)))
    add(Case(name="purify-instrument-ad", command="purify", path="", kind="instrument", dims_in=(2,),
             dims_out=(2,), outcomes={"0": (k0,), "1": (k1,)}))
    cases.extend(malformed_cases(directory, fixtures))
    return cases


def malformed_cases(directory: Path, fixtures: Path) -> list[Case]:
    """The repo's two invalid fixtures and four documents the parser mishandles.

    None of them depends on the seed.  The documents are valid scenarios but
    for one field, so the expected answer is the parse-error exit code 2.
    """
    cases = []
    for name, code in (("bad_nonunitary", 3), ("bad_impossible_conditioning", 4)):
        target = directory / f"{name}.json"
        shutil.copyfile(fixtures / f"{name}.json", target)
        cases.append(Case(name=name, command="postdict" if "conditioning" in name else "predict",
                          path=str(target), expect_exit=code))
    base = {
        "task": "predict",
        "dims_in": [2],
        "dims_out": [2],
        "transformation": {"type": "unitary", "matrix": _matrix_wire(HADAMARD)},
        "given": {"input": [0]},
    }
    broken = {
        "dims-nested": {"dims_in": [[2]]},
        # "12" reads as the factors (1, 2); the given outcomes fit that reading.
        "dims-string": {"dims_in": "12", "given": {"input": [0, 1]}},
        "shots-string": {"shots": "abc"},
        "seed-string": {"seed": "x"},
    }
    for name, patch in broken.items():
        path = directory / f"malformed-{name}.json"
        path.write_text(json.dumps({**base, **patch}), encoding="utf-8")
        cases.append(Case(name=f"malformed-{name}", command="predict", path=str(path),
                          expect_exit=MALFORMED_EXIT))
    return cases
