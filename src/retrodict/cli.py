"""Command-line front end: run scenario files and identity verification sweeps.

Exit codes: 0 success, 2 parse error, 3 validation error (or an input too
large for the memory at hand), 4 undefined conditional, 5 verification
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__, linalg
from .channels import (
    Instrument,
    QuantumMap,
    _noisy_kraus,
    _random_kraus_stacks,
    amplitude_damping,
    check_cptp,
    classify,
    coarse_grain,
    make_dephasing,
)
from .errors import NoActiveReverseError, ScenarioError, UndefinedConditionalError
from .inference import (
    AVERAGED,
    GIVEN,
    GUESSED,
    SUMMED,
    InferenceTask,
    _bayes_rows,
    _deterministic_effect_stack,
    _follower_seeds,
    _kernel_view,
    _no_signalling_stack,
    _pull_back_reference,
    _purified_ratio_defects,
    _sampled_table_asymmetry,
    _solve_checked,
    _solve_rows,
    _table_rows,
    channel_toward_past_check,
    four_task_check,
    is_inference_symmetric,
    open_reversal_check,
)
from .purify import purify_instrument, stinespring, verify_purification
from .sampler import SEED_LIMIT, _analytic_rows, _count_grid, _prepare_alternatives, verdicts
from .sampler import run_ensemble  # noqa: F401  (bound here for bench/test_bench.py's tracer test)
from .serialize import (
    ScenarioFile,
    parse_scenario,
    purification_to_wire,
    scenario_digest,
    table_to_wire,
)
from .tables import ProbabilityTable

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_UNDEFINED_CONDITIONAL = 4
EXIT_VERIFICATION = 5

PARSE_CODES = ("malformed-document", "unknown-task")


class ReportDocument:
    """One command's report; its attributes, in the order set here, are the JSON report's fields."""

    def __init__(self, command: str, scenario_digest: str):
        self.command = command
        self.scenario_digest = scenario_digest
        self.tool_version = __version__
        self.tables: list[dict] = []
        self.checks: list[dict] = []
        self.metrics: dict = {}
        self.passed = True

    def add_table(self, table: ProbabilityTable):
        self.tables.append(table_to_wire(table))

    def add_check(self, name: str, defect: float, tolerance: float, passed: bool | None = None):
        ok = bool(defect < tolerance) if passed is None else bool(passed)
        self.checks.append(
            {"name": name, "defect": float(defect), "tolerance": float(tolerance), "passed": ok}
        )
        self.passed = self.passed and ok


def _task_from_scenario(scenario: ScenarioFile, direction: str) -> InferenceTask:
    return InferenceTask(
        transformation=scenario.transformation,
        dims_in=scenario.dims_in,
        dims_out=scenario.dims_out,
        direction=direction,
        known_input_mask=scenario.known_input_mask,
        known_output_mask=scenario.known_output_mask,
        given_input=scenario.given_input,
        given_output=scenario.given_output,
        preparation_states=scenario.preparation_states,
        given_outcome=scenario.given_outcome,
    )


def _run_classify(scenario: ScenarioFile, report: ReportDocument):
    transformation = scenario.transformation
    if isinstance(transformation, np.ndarray):
        channel = QuantumMap((transformation,), transformation.shape[0], transformation.shape[0])
    elif isinstance(transformation, Instrument):
        channel = coarse_grain(transformation)
    else:
        channel = transformation
    # Every transformation here is a channel (checked when parsed, or an instrument's coarse
    # graining), so sum K K' = I, unitality, is also inference symmetry and an active reversal.
    info = classify(channel)
    report.metrics.update(
        {
            "cp": info.is_cp,
            "tp": info.is_tp,
            "unital": info.is_unital,
            "choi_min_eigenvalue": info.choi_min_eigenvalue,
            # inf for a map between spaces of different dimension, which JSON cannot carry
            "unital_defect": info.unital_defect if math.isfinite(info.unital_defect) else None,
            "inference_symmetric": info.is_unital,
            "active_reverse": "exists" if info.is_unital else "none",
        }
    )


def _run_purify(scenario: ScenarioFile, report: ReportDocument, tolerance: float):
    transformation = scenario.transformation
    if isinstance(transformation, np.ndarray):
        transformation = QuantumMap((transformation,), transformation.shape[0], transformation.shape[0])
    purification = (purify_instrument if isinstance(transformation, Instrument) else stinespring)(transformation)
    report.metrics["purification"] = purification_to_wire(purification)
    report.add_check("purification-round-trip", verify_purification(transformation, purification), tolerance)


def _run_sample(scenario: ScenarioFile, report: ReportDocument, seed: int, floor: float):
    """Draw one ensemble, read it both ways, and hold every sampled conditional row to its closed form.

    The transformation was validated when the scenario was parsed.  Each
    task's kernel view is built once, and the predict task's also gives the
    sampler's alternatives.  The transition array is built once: each
    direction's rows are solved on it in one contraction, and the ensemble
    is counted on it.  The count grid is the same either way, and its
    labels are the families' given labels: the grid is
    read along its rows to predict and down its columns to postdict.  A
    direction's sampled rows, in the order of their given labels, are
    checked and compared in one array pass; no table is built.
    """
    shots = 100_000 if scenario.shots is None else scenario.shots
    tasks = [_task_from_scenario(scenario, direction) for direction in ("predict", "postdict")]
    views = [_kernel_view(task) for task in tasks]
    layout, t = _prepare_alternatives(tasks[0], views[0])
    # Solving first rejects a task that guesses nothing before any trial runs.
    families = [_solve_rows(view, t) for view in views]
    _, _, counts = _count_grid(layout, t, shots, seed)
    for task, family, grid in zip(tasks, families, (counts, counts.T)):
        givens = family[0]
        trials = grid.sum(axis=1)
        sampled = np.array(sorted(np.flatnonzero(trials).tolist(), key=givens.__getitem__))
        analytic = _analytic_rows(family, sampled)
        result = verdicts(grid[sampled] / trials[sampled, None], analytic, trials[sampled], floor)
        for row, defect, bound, passed in zip(
            sampled.tolist(), result.defect.tolist(), result.bound.tolist(), result.passed.tolist()
        ):
            report.add_check(f"sample-{task.direction}-given-{givens[row]}", defect, bound, passed=passed)
        report.metrics[f"max_deviation_{task.direction}"] = float(result.defect.max())
    report.metrics["shots"] = shots
    report.metrics["seed"] = seed


def _pool_defects(us: np.ndarray, dims: tuple[int, int]) -> tuple[float, float, float]:
    """The closed-symmetry, open-reversal and open-ratio-laws defects of a stack of D x D unitaries."""
    d_a, d_b = dims
    d = d_a * d_b
    # Both tables against the Born values |<x|U|a>|^2 read off U itself, indexed [a, x]:
    # the prediction rows are [a, x] and the postdiction rows [x, a].
    born = np.abs(us.swapaxes(-1, -2)) ** 2
    kraus = us[:, None]  # each unitary a Kraus list of one
    pre = _table_rows(kraus, (d, d), (GUESSED, GIVEN))
    post, _ = _bayes_rows(_table_rows(kraus, (d, d), (GIVEN, GUESSED)))
    closed = max(float(np.max(np.abs(pre - born))), float(np.max(np.abs(post.swapaxes(-1, -2) - born))))

    reversal = open_reversal_check(us, dims)["max"]

    # Solved predictions against operator-level postdictions, so the law
    # is not read twice off one transition array.
    pre = _table_rows(kraus, dims + dims, (GUESSED, SUMMED, GIVEN, AVERAGED))
    post = _pull_back_reference(kraus, dims, (range(d_a), None), dims, (True, False))
    return closed, reversal, float(np.max(np.abs(d_b * post.swapaxes(-1, -2) - d_b * pre)))


def _run_verify(report: ReportDocument, dims: tuple[int, int], seed: int, tolerance: float | None):
    """The full identity suite on seeded random instances.

    Each transformation is validated once, and each table family comes from
    one contraction of its transition array, with a row per given outcome:
    the four-task and towards-past checks take every (a, x) of an instance
    in one call, whatever d_A is.

    One pool of five D x D Haar unitaries, seeds 1000 * seed + 0 ... 4, is
    drawn once, in the stacks of ``linalg.groups``.  Each stack serves
    closed-symmetry, open-reversal and open-ratio-laws, and each holds the
    kernel to its own closed form or operator-level reference, so the checks
    share instances, not arithmetic.  Each pooled unitary is checked once,
    in ``open_reversal_check``.  Draws 0-2 then give purified-ratio's noisy
    channels and draw 3 the unital suite's, as Kraus stacks with no second
    check.  purified-ratio and deterministic-effect each run their three
    instances as one stack (``inference._purified_ratio_defects`` and
    ``inference._deterministic_effect_stack``); purified-ratio's environment
    rotations, a phase diagonal and ``purify.ROTATION_REFLECTIONS``
    Householder reflections each (``purify.rotate_ancilla``), are drawn on
    their own.  The small maps, instruments and followers are thin Haar
    draws (``linalg.haar_random_isometries``): only the d_A columns each
    keeps are QR-factored.
    """
    d_a, d_b = dims
    d = d_a * d_b
    tol_exact = tolerance if tolerance is not None else 1e-12
    tol_purified = tolerance if tolerance is not None else 1e-10
    rng_base = seed * 1000

    pooled = []
    noisy = []
    seeds = range(rng_base, rng_base + 5)
    for group in linalg.groups(len(seeds), 16 * d * d):
        us = linalg.haar_random_unitaries(d, seeds[group])
        pooled.append(_pool_defects(us, (d_a, d_b)))
        # open_reversal_check has checked each draw; draws 0-3 become the noisy channels' Kraus stacks.
        noisy.append(_noisy_kraus(us[: max(0, 4 - group.start)], d_a, d_b))
    del us  # a D x D stack, not held through purified-ratio
    noisy = np.concatenate(noisy)
    for name, defect in zip(("closed-symmetry", "open-reversal", "open-ratio-laws"), np.max(pooled, axis=0)):
        report.add_check(name, defect, tol_exact)

    channel = amplitude_damping(0.5)
    check_cptp(channel)
    rows, factors = _bayes_rows(_table_rows(channel.kraus, (2, 2), (GIVEN, GUESSED)))
    defect = max(
        float(np.max(np.abs(rows - [[2 / 3, 1 / 3], [0.0, 1.0]]))),
        float(np.max(np.abs(factors - [2 / 3, 2.0]))),
    )
    report.add_check("channel-bayes-factor", defect, tol_exact)

    # Instance t is verify_purification(channel, rotated, trials=5, seed=t) for the dilation
    # rotated = rotate_ancilla(stinespring(channel), rng_base + 40 + t), and the postdiction rows of both;
    # each round trip compares the two sides' transfer matrices whole, then pushes the five states.
    defect = _purified_ratio_defects(noisy[:3], 5, range(rng_base + 40, rng_base + 43)).max()
    report.add_check("purified-ratio", defect, tol_purified)

    u = linalg.haar_random_unitary(d_a, rng_base + 50)
    defect = max(four_task_check(u).max_defect, four_task_check(make_dephasing()).max_defect)
    report.add_check("four-task", defect, tol_exact)

    # random_cptp_map(d_A, d_A, 2, seed) of seeds +60 (towards-past) and +97...+99 (deterministic-effect).
    small_maps = _random_kraus_stacks(d_a, 2, [rng_base + 60, *range(rng_base + 97, rng_base + 100)])
    past_map = QuantumMap(small_maps[0], d_a, d_a)
    # Building each channel's purification checks that the map is a channel.
    defect = max(channel_toward_past_check(channel).max_defect for channel in (amplitude_damping(0.5), past_map))
    report.add_check("towards-past", defect, tol_purified)

    # Instance t is no_signalling_check(e, f, rho, extra_followers=2, seed=rng_base + t) on
    # random_instrument(d_A, 2, 2, seed) of seeds +70+t and +80+t: every instrument and follower in one draw.
    seeds = [*range(rng_base + 70, rng_base + 73), *range(rng_base + 80, rng_base + 83)]
    kraus = _random_kraus_stacks(d_a, 4, seeds + [s for t in range(3) for s in _follower_seeds(rng_base + t, 2)])
    states = linalg.random_density_matrices(d_a, range(rng_base + 90, rng_base + 93))
    followers = kraus[6:].reshape(3, -1, d_a, d_a)
    marginal, conditional, purified = _no_signalling_stack(kraus[:3], kraus[3:6], states, followers)
    report.add_check("no-signalling", max(marginal.max(), conditional.max()), tol_exact)
    report.add_check("no-signalling-purified", purified.max(), tol_purified)

    suite = [
        ("unitary", QuantumMap((linalg.haar_random_unitary(d_a, rng_base + 95),), d_a, d_a), True),
        ("dephasing", make_dephasing(), True),
        ("noisy", QuantumMap(noisy[3], d_a, d_a), True),
        ("amplitude-damping", amplitude_damping(0.5), False),
    ]
    # The criterion sum K K' = I against the tables the kernel gives on sampled bases.
    gaps = _sampled_table_asymmetry([channel for _, channel, _ in suite], rng_base)
    agreement = all(
        is_inference_symmetric(channel) == (gap < 1e-9) == expected for (_, channel, expected), gap in zip(suite, gaps)
    )
    report.add_check("unital-symmetric-adjoint", 0.0 if agreement else 1.0, 0.5)

    _, solution, _, residual = _deterministic_effect_stack(small_maps[1:])
    report.add_check("deterministic-effect-solution", solution.max(), 1e-8)
    report.add_check("deterministic-effect-alternatives", 1e-6, residual.min())
    report.metrics["deterministic_effect_min_alternative_residual"] = float(residual.min())
    report.metrics["seed"] = seed


def _format_text(report: ReportDocument) -> str:
    lines = [f"retrodict {report.tool_version}  command={report.command}"]
    for table in report.tables:
        given = table["given"] if table["given"] is not None else "-"
        lines.append(f"direction={table['direction']}  given={given}")
        width = max((len(label) for label in table["entries"]), default=1)
        for label, value in table["entries"].items():
            lines.append(f"  {label:<{width}}  {value:.12f}")
        if table["factor"] is not None:
            lines.append(f"  factor: {table['factor']:.12f}")
    for metric, value in report.metrics.items():
        if metric == "purification":
            lines.append(f"purification dims_in={value['dims_in']} dims_out={value['dims_out']}")
        else:
            lines.append(f"{metric}: {value}")
    for check in report.checks:
        verdict = "pass" if check["passed"] else "FAIL"
        lines.append(
            f"[{verdict}] {check['name']}: defect {check['defect']:.3e} < {check['tolerance']:.1e}"
        )
    return "\n".join(lines)


def _format_csv(report: ReportDocument) -> str:
    lines = []
    if report.tables:
        lines.append("given,outcome,probability")
        for table in report.tables:
            given = table["given"] if table["given"] is not None else ""
            for label, value in table["entries"].items():
                lines.append(f"{given},{label},{value!r}")
    if report.checks:
        lines.append("check,defect,tolerance,passed")
        for check in report.checks:
            lines.append(
                f"{check['name']},{check['defect']!r},{check['tolerance']!r},{check['passed']}"
            )
    return "\n".join(lines)


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"seed {seed} is outside [0, 2**64)")
    return seed


def _tolerance(text: str) -> float:
    try:
        tolerance = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 <= tolerance < math.inf:  # written so that NaN fails it too
        raise argparse.ArgumentTypeError(f"tolerance {text} is not a finite non-negative number")
    return tolerance


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; each ``parse_args`` returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="retrodict",
        description="Solve quantum prediction and postdiction tasks and verify their symmetries.",
    )
    parser.add_argument("command", choices=["predict", "postdict", "classify", "purify", "verify", "sample"])
    parser.add_argument("--scenario", help="path to a scenario JSON file")
    parser.add_argument("--format", choices=["text", "json", "csv"], default="text")
    parser.add_argument("--seed", type=_seed, default=None, help="override the scenario seed")
    parser.add_argument(
        "--tolerance",
        type=_tolerance,
        default=None,
        help="override comparison thresholds (structural validation stays fixed)",
    )
    parser.add_argument("--dims", type=int, nargs=2, metavar=("D_A", "D_B"), default=None)
    parser.add_argument("--shots", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    scenario = None
    try:
        if args.scenario:
            scenario = parse_scenario(args.scenario)
            if scenario.transformation is None and args.command != "verify":
                raise ScenarioError(
                    "missing-transformation", f"{args.command} needs a scenario with a transformation"
                )
        elif args.command not in ("verify",):
            print("error: --scenario is required for this command", file=sys.stderr)
            return EXIT_PARSE

        if args.seed is not None:
            seed = args.seed
        elif scenario is not None and scenario.seed is not None:
            seed = scenario.seed
        else:
            seed = 1 if args.command == "verify" else 0
        digest = scenario.digest if scenario else scenario_digest(
            {"command": args.command, "dims": args.dims or [2, 2], "seed": seed}
        )
        report = ReportDocument(command=args.command, scenario_digest=digest)

        if args.command in ("predict", "postdict"):
            # parse_scenario validated the transformation and the preparation states.
            report.add_table(_solve_checked(_task_from_scenario(scenario, args.command)))
        elif args.command == "classify":
            _run_classify(scenario, report)
        elif args.command == "purify":
            _run_purify(scenario, report, args.tolerance if args.tolerance is not None else 1e-10)
        elif args.command == "sample":
            if args.shots is not None:
                scenario = replace(scenario, shots=args.shots)
            _run_sample(scenario, report, seed, args.tolerance if args.tolerance is not None else 0.01)
        elif args.command == "verify":
            dims = tuple(args.dims) if args.dims else _dims_from_scenario(scenario)
            _run_verify(report, dims, seed, args.tolerance)
    except UndefinedConditionalError as exc:
        print(f"error [undefined-conditional]: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED_CONDITIONAL
    except NoActiveReverseError as exc:
        print(f"error [no-active-reverse]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ScenarioError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_PARSE if exc.code in PARSE_CODES else EXIT_VALIDATION
    except ValueError as exc:
        print(f"error [validation]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        # numpy's message names the allocation that failed; a bare MemoryError has none.
        print(f"error [too-large]: {str(exc) or 'not enough memory for this input'}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.format == "json":
        # The record's attributes in the order __init__ sets them.
        text = json.dumps(vars(report), indent=2, ensure_ascii=False, allow_nan=False)
    elif args.format == "csv":
        text = _format_csv(report)
    else:
        text = _format_text(report)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        pass  # the reader stopped early; the exit code still reports the run
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _dims_from_scenario(scenario: ScenarioFile | None) -> tuple[int, int]:
    if scenario is None:
        return (2, 2)
    dims = scenario.dims_in
    if len(dims) >= 2:
        return (dims[0], dims[1])
    return (dims[0], 2)


def entry_point():
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # what a closed pipe left buffered would fail again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
