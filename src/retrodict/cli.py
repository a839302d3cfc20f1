"""Command-line front end: argument parsing, dispatch, report formatting and exit codes.

The checks a report carries are computed in the library: ``verify`` runs
``inference.identity_suite`` and ``sample`` runs ``sampler.sample_checks``.

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

from . import __version__
from .channels import Instrument, QuantumMap, classify, coarse_grain
from .errors import ScenarioError, UndefinedConditionalError
from .inference import InferenceTask, _solve_checked, identity_suite
from .purify import purify_instrument, stinespring, verify_purification
from .sampler import SEED_LIMIT, sample_checks
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

    def add_checks(self, checks, metrics: dict):
        """A library call's checks, each (name, defect, tolerance, passed), in order; then its metrics."""
        for check in checks:
            self.add_check(*check)
        self.metrics.update(metrics)


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
    """``sampler.sample_checks`` on the scenario's two tasks; its transformation was validated when parsed."""
    shots = 100_000 if scenario.shots is None else scenario.shots
    tasks = (_task_from_scenario(scenario, direction) for direction in ("predict", "postdict"))
    report.add_checks(*sample_checks(*tasks, shots, seed, floor))
    report.metrics.update(shots=shots, seed=seed)


def _run_verify(report: ReportDocument, dims: tuple[int, int], seed: int, tolerance: float | None):
    """``inference.identity_suite``: the full identity suite on seeded random instances."""
    report.add_checks(*identity_suite(dims, seed, tolerance))
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
