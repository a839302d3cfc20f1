"""Command-line front end: run scenario files and identity verification sweeps.

Exit codes: 0 success, 2 parse error, 3 validation error, 4 undefined
conditional, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, linalg
from .channels import (
    Instrument,
    QuantumMap,
    adjoint_map,
    amplitude_damping,
    check_cptp,
    classify,
    coarse_grain,
    is_trace_preserving,
    make_dephasing,
    make_noisy_operation,
    random_cptp_map,
    random_instrument,
)
from .errors import NoActiveReverseError, ScenarioError, UndefinedConditionalError
from .inference import (
    InferenceTask,
    _check_transformation,
    _check_unitary_arg,
    _pull_back_reference,
    _solve_checked,
    _solve_table,
    _transition_arrays,
    channel_toward_past_check,
    deterministic_effect_check,
    four_task_check,
    is_inference_symmetric,
    no_signalling_check,
    open_reversal_check,
    postdict_channel_via_purification,
    solve,
)
from .purify import purify_instrument, rotate_ancilla, stinespring, verify_purification
from .sampler import SEED_LIMIT, compare, empirical_conditionals, run_ensemble
from .serialize import (
    ScenarioFile,
    parse_scenario,
    purification_to_wire,
    scenario_digest,
    table_to_wire,
)
from .tables import LABEL_SEPARATOR, ProbabilityTable

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_UNDEFINED_CONDITIONAL = 4
EXIT_VERIFICATION = 5

PARSE_CODES = ("malformed-document", "unknown-task")


@dataclass
class ReportDocument:
    command: str
    scenario_digest: str
    tool_version: str = __version__
    tables: list[dict] = field(default_factory=list)
    checks: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    passed: bool = True

    def add_table(self, table: ProbabilityTable):
        self.tables.append(table_to_wire(table))

    def add_check(self, name: str, defect: float, tolerance: float, passed: bool | None = None):
        ok = bool(defect < tolerance) if passed is None else bool(passed)
        self.checks.append(
            {"name": name, "defect": float(defect), "tolerance": float(tolerance), "passed": ok}
        )
        self.passed = self.passed and ok

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "scenario_digest": self.scenario_digest,
            "tool_version": self.tool_version,
            "tables": self.tables,
            "checks": self.checks,
            "metrics": self.metrics,
            "passed": self.passed,
        }


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
    info = classify(channel)
    symmetric = is_inference_symmetric(channel) if info.is_tp else False
    report.metrics.update(
        {
            "cp": info.is_cp,
            "tp": info.is_tp,
            "unital": info.is_unital,
            "choi_min_eigenvalue": info.choi_min_eigenvalue,
            "unital_defect": info.unital_defect,
            "inference_symmetric": symmetric,
            "active_reverse": "exists" if is_trace_preserving(adjoint_map(channel)) else "none",
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
    """Draw the ensemble in both directions and hold every conditional row to its closed form.

    The transformation is validated once, before any trial is drawn, and its
    transition arrays are built once; every row is then solved on them.
    """
    shots = 100_000 if scenario.shots is None else scenario.shots
    tasks = [_task_from_scenario(scenario, direction) for direction in ("predict", "postdict")]
    _check_transformation(tasks[0])
    arrays = _transition_arrays(tasks[0].transformation, tasks[0].preparation_states)
    for task in tasks:
        direction = task.direction
        result = run_ensemble(task, shots, seed)
        empirical = empirical_conditionals(result, direction)
        trials: dict[str, int] = {}
        for (in_label, out_label), n in result.joint_counts.items():
            cell = in_label if direction == "predict" else out_label
            trials[cell] = trials.get(cell, 0) + n
        worst = 0.0
        for given, row in empirical.items():
            if direction == "predict":
                analytic_task = replace(task, given_input=_labels_to_given(given, task.known_input_mask))
            else:
                outcome_label, basis_given = _split_outcome_label(task, given)
                analytic_task = replace(task, given_output=basis_given, given_outcome=outcome_label)
            outcome = compare(row, _solve_checked(analytic_task, arrays), trials[given], floor=floor)
            worst = max(worst, outcome.max_deviation)
            # The bound of a failing outcome, else of the farthest one; the
            # verdict is compare's, which also holds on a bound of zero.
            bound_label = outcome.failures[0] if outcome.failures else outcome.worst_label
            report.add_check(
                f"sample-{direction}-given-{given}",
                outcome.max_deviation,
                outcome.tolerances.get(bound_label, floor),
                passed=outcome.passed,
            )
        report.metrics[f"max_deviation_{direction}"] = worst
    report.metrics["shots"] = shots
    report.metrics["seed"] = seed


def _labels_to_given(label: str, mask: tuple[bool, ...]):
    parts = label.split(LABEL_SEPARATOR) if label else []
    values = iter(int(p) for p in parts)
    return tuple(next(values) if m else None for m in mask)


def _split_outcome_label(task: InferenceTask, label: str):
    """Separate an instrument outcome prefix from the measured basis label."""
    if isinstance(task.transformation, Instrument) and len(task.transformation.outcomes) > 1:
        for outcome_label, _ in task.transformation.outcomes:
            prefix = outcome_label + LABEL_SEPARATOR
            if label.startswith(prefix):
                return outcome_label, _labels_to_given(label[len(prefix) :], task.known_output_mask)
        raise UndefinedConditionalError(f"no instrument outcome matches label {label!r}")
    return None, _labels_to_given(label, task.known_output_mask)


def _run_verify(report: ReportDocument, dims: tuple[int, int], seed: int, tolerance: float | None):
    """The full identity suite on seeded random instances.

    Each transformation is validated once and its transition arrays are
    built once, then contracted for every given outcome.
    """
    d_a, d_b = dims
    d = d_a * d_b
    tol_exact = tolerance if tolerance is not None else 1e-12
    tol_purified = tolerance if tolerance is not None else 1e-10
    rng_base = seed * 1000

    defect = 0.0
    for t in range(5):
        arrays = _transition_arrays(_check_unitary_arg(linalg.haar_random_unitary(d, rng_base + t)))
        pre = [_solve_table(arrays, (d,), (d,), "predict", (a,), (True,)).probabilities() for a in range(d)]
        post = [_solve_table(arrays, (d,), (d,), "postdict", (x,), (True,)).probabilities() for x in range(d)]
        defect = max(defect, float(np.max(np.abs(np.transpose(pre) - np.array(post)))))
    report.add_check("closed-symmetry", defect, tol_exact)

    defect = max(
        open_reversal_check(linalg.haar_random_unitary(d_a * d_b, rng_base + 10 + t), (d_a, d_b))[
            "max"
        ]
        for t in range(5)
    )
    report.add_check("open-reversal", defect, tol_exact)

    defect = 0.0
    for t in range(5):
        u = _check_unitary_arg(linalg.haar_random_unitary(d, rng_base + 20 + t))
        # Solved predictions against operator-level postdictions, so the law
        # is not read twice off one transition array.
        dims, arrays = (d_a, d_b), _transition_arrays(u)
        pre = [
            _solve_table(arrays, dims, dims, "predict", (a, None), (True, False)).probabilities()
            for a in range(d_a)
        ]
        post = _pull_back_reference((u,), dims, (range(d_a), None), dims, (True, False))
        defect = max(defect, float(np.max(np.abs(d_b * post.T - d_b * np.array(pre)))))
    report.add_check("open-ratio-laws", defect, tol_exact)

    channel = amplitude_damping(0.5)
    check_cptp(channel)
    arrays = _transition_arrays(channel)
    table0, table1 = (_solve_table(arrays, (2,), (2,), "postdict", (x,), (True,), True) for x in (0, 1))
    defect = max(
        abs(table0["0"] - 2 / 3),
        abs(table0["1"] - 1 / 3),
        abs(table0.factor - 2 / 3),
        abs(table1["0"] - 0.0),
        abs(table1["1"] - 1.0),
        abs(table1.factor - 2.0),
    )
    report.add_check("channel-bayes-factor", defect, tol_exact)

    defect = 0.0
    for t in range(3):
        noisy = make_noisy_operation(linalg.haar_random_unitary(d, rng_base + 30 + t), (d_a, d_b))
        purification = stinespring(noisy)  # checks that the map is a channel
        rotated = rotate_ancilla(purification, rng_base + 40 + t)
        defect = max(defect, verify_purification(noisy, purification, trials=5, seed=t))
        arrays = _transition_arrays(noisy)
        for x in range(d_a):
            direct = _solve_table(arrays, (d_a,), (d_a,), "postdict", (x,), (True,), True)
            for dilation in (purification, rotated):
                via = postdict_channel_via_purification(noisy, x, dilation)
                defect = max(defect, direct.max_difference(via))
    report.add_check("purified-ratio", defect, tol_purified)

    defect = 0.0
    u = linalg.haar_random_unitary(d_a, rng_base + 50)
    for a in range(d_a):
        for x in range(d_a):
            defect = max(defect, four_task_check(u, a, x).max_defect)
    for a in range(2):
        for x in range(2):
            defect = max(defect, four_task_check(make_dephasing(), a, x).max_defect)
    report.add_check("four-task", defect, tol_exact)

    defect = 0.0
    for channel in (amplitude_damping(0.5), random_cptp_map(d_a, d_a, 2, rng_base + 60)):
        purification = stinespring(channel)  # checks that the map is a channel
        for a in range(channel.dim_in):
            for x in range(channel.dim_out):
                defect = max(defect, channel_toward_past_check(channel, a, x, purification).defect)
    report.add_check("towards-past", defect, tol_purified)

    defect = 0.0
    purified_defect = 0.0
    for t in range(3):
        e = random_instrument(d_a, 2, 2, rng_base + 70 + t)
        f = random_instrument(d_a, 2, 2, rng_base + 80 + t)
        rho = linalg.random_density_matrix(d_a, rng_base + 90 + t)
        outcome = no_signalling_check(e, f, rho, extra_followers=2, seed=rng_base + t)
        defect = max(defect, outcome.marginal_defect, outcome.conditional_defect)
        purified_defect = max(purified_defect, outcome.purified_defect)
    report.add_check("no-signalling", defect, tol_exact)
    report.add_check("no-signalling-purified", purified_defect, tol_purified)

    suite = [
        ("unitary", QuantumMap((linalg.haar_random_unitary(d_a, rng_base + 95),), d_a, d_a), True),
        ("dephasing", make_dephasing(), True),
        (
            "noisy",
            make_noisy_operation(linalg.haar_random_unitary(d, rng_base + 96), (d_a, d_b)),
            True,
        ),
        ("amplitude-damping", amplitude_damping(0.5), False),
    ]
    agreement = True
    for name, channel, expected in suite:
        # The verdict reads channel[I] = I; the adjoint check runs on the adjoint map itself.
        symmetric = is_inference_symmetric(channel, seed=rng_base)
        adjoint_cptp = is_trace_preserving(adjoint_map(channel))
        agreement = agreement and (symmetric == adjoint_cptp == expected)
    report.add_check("unital-symmetric-adjoint", 0.0 if agreement else 1.0, 0.5)

    worst_solution = 0.0
    worst_residual = np.inf
    for t in range(3):
        outcome = deterministic_effect_check(random_cptp_map(d_a, d_a, 2, rng_base + 97 + t))
        worst_solution = max(worst_solution, outcome.solution_defect)
        worst_residual = min(worst_residual, outcome.min_alternative_residual)
    report.add_check("deterministic-effect-solution", worst_solution, 1e-8)
    report.add_check("deterministic-effect-alternatives", 1e-6, worst_residual)
    report.metrics["deterministic_effect_min_alternative_residual"] = float(worst_residual)
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


def build_parser() -> argparse.ArgumentParser:
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
        type=float,
        default=None,
        help="override comparison thresholds (structural validation stays fixed)",
    )
    parser.add_argument("--dims", type=int, nargs=2, metavar=("D_A", "D_B"), default=None)
    parser.add_argument("--shots", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    scenario = None
    try:
        if args.scenario:
            scenario = parse_scenario(args.scenario)
        elif args.command not in ("verify",):
            print("error: --scenario is required for this command", file=sys.stderr)
            return EXIT_PARSE
    except ScenarioError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_PARSE if exc.code in PARSE_CODES else EXIT_VALIDATION

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

    try:
        if args.command in ("predict", "postdict"):
            report.add_table(solve(_task_from_scenario(scenario, args.command)))
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

    if args.format == "json":
        text = json.dumps(report.to_dict(), indent=2, ensure_ascii=False)
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
