"""Benchmark for retrodict: four workloads run in-process through ``retrodict.cli.main``.

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                    # every workload, one process each
    python3 bench/run.py --manifest         # rewrite BENCHMARK.json

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` an untraced pass is followed by a
traced pass over the same rounds, and the metrics are per-layer figures per
round.  See README.md for what each workload and metric means.
"""

from __future__ import annotations

import os

# One BLAS thread, so that the single-threaded program does not share the
# machine's two cores with BLAS workers.  Set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import manifest  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"
FIXTURES = ROOT / "tests" / "fixtures"

MESSAGE_LINES = 5

# The traced pass's self times, the self time of spans not listed and the
# tracer's own bookkeeping must add up to the traced invocation time within
# this share of it; what is left is time outside every span.
TRACE_CLOSURE = 0.01

# The machine's speed changes within seconds, so a reading is taken after
# every stretch of this much invocation time (about one reading per sampling
# or verify invocation, one per round of scenario solves).
READING_GAP_S = 0.1

# How the speed readings (speed.py) are weighed: the three kernels alike,
# except on sample-shots, whose time is the sampler's loop of small numpy
# calls (run_ensemble's self time is 98 % of a traced round).  Over ten runs
# per workload, that one exception narrowed sample-shots' spreads by 30 %
# or more, while hand-set splits tried for the other workloads were no
# steadier overall than equal weights (README.md).
EQUAL_WEIGHTS = {"interpreter": 1 / 3, "numpy_calls": 1 / 3, "blas": 1 / 3}
SPEED_WEIGHTS = {"sample-shots": {"numpy_calls": 1.0}}


def import_program():
    """Import the package from this checkout's sources."""
    if not (SRC / "retrodict" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import retrodict.cli  # noqa: F401

    loaded = Path(sys.modules["retrodict"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SystemExit(f"bench: imported retrodict from {loaded}, not from {SRC}")


@dataclass
class Op:
    """One timed invocation: raw seconds, whether it was a well-formed correct
    answer, and the speed factor from the readings around it."""

    seconds: float
    ok: bool
    factor: float

    @property
    def scaled(self) -> float:
        return self.seconds * self.factor


def _cases(workload: str, seed: int, directory: Path) -> list[inputs.Case]:
    if workload == "verify-sweep":
        return [
            inputs.Case(name=f"verify-{a}x{b}", command="verify", path="",
                        extra_argv=("--dims", str(a), str(b)))
            for a, b in inputs.VERIFY_DIMS
        ]
    if workload == "sample-shots":
        return inputs.sample_shots_cases(seed, directory)
    if workload == "sample-wide":
        return inputs.sample_wide_cases(seed, directory)
    return inputs.scenario_cases(seed, directory, FIXTURES)


class Run:
    """One workload's operations, their outcomes and their timings.

    An operation is one CLI invocation (timed) with its output check (not
    timed).  A round is every case of the workload once, in a fixed order.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.directory = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        self.cases = _cases(workload, seed, self.directory)
        self.refs: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []

    def prepare(self):
        """The oracle's answer to every case, and the sampled cases' argv.

        A sampled case gets the --tolerance floor that makes the program's
        own test the oracle's bound.  At the default floor the program rejects
        correct ensembles on some seeds (README.md, Correctness), which would
        put a seed-dependent count in ``failed``.
        """
        self.refs = [checks.reference(case) for case in self.cases]
        for case, ref in zip(self.cases, self.refs):
            if case.command == "sample":
                tolerance = checks.sample_tolerance(ref)
                case.extra_argv = ("--shots", str(case.shots), "--tolerance", repr(tolerance))

    def close(self):
        shutil.rmtree(self.directory, ignore_errors=True)

    def op_seed(self, case: inputs.Case, round_index: int) -> int | None:
        if case.command in ("verify", "sample"):
            return self.seed * 1000 + round_index
        return None

    def invoke(self, case: inputs.Case, ref: dict, round_index: int) -> tuple[float, bool]:
        """One operation; returns its time and whether it is a well-formed, correct answer."""
        seed = self.op_seed(case, round_index)
        argv = case.argv(seed)
        # Looked up per call, so that the traced pass reaches the wrapper.
        cli = sys.modules["retrodict.cli"]
        out = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback from the program is a failed operation
            code, error = None, exc
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if error is not None or code != case.expect_exit:
            self.failed += 1
            self.note(f"failed {case.name}: " + (repr(error) if error else f"exit {code}"))
            return elapsed, False
        try:
            checks.check(case, ref, code, out.getvalue(), seed)
        except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
            self.wrong += 1
            self.note(f"wrong {case.name}: {exc!r}")
            return elapsed, False
        return elapsed, not case.expect_exit

    def note(self, message: str):
        if len(self.messages) < MESSAGE_LINES:
            self.messages.append(message)

    def rounds_for(self, seconds: float, count: int = 0) -> list[list[Op]]:
        """Whole rounds until ``seconds`` have passed (exactly ``count`` rounds if given).

        A speed reading is taken before the first operation, then after each
        operation that ends READING_GAP_S or more of invocation time since the
        last reading, and after each round's last operation.
        """
        weights = SPEED_WEIGHTS.get(self.workload, EQUAL_WEIGHTS)
        start = time.perf_counter()
        rounds: list[list[Op]] = []
        before = speed.reading()
        while len(rounds) < count or not count and (not rounds or time.perf_counter() - start < seconds):
            ops: list[Op] = []
            pending: list[tuple[float, bool]] = []
            for i, (case, ref) in enumerate(zip(self.cases, self.refs)):
                pending.append(self.invoke(case, ref, len(rounds)))
                if sum(t for t, _ in pending) >= READING_GAP_S or i == len(self.cases) - 1:
                    after = speed.reading()
                    factor = speed.scale(before, after, weights)
                    ops += [Op(t, ok, factor) for t, ok in pending]
                    before, pending = after, []
            rounds.append(ops)
        return rounds

    def post_checks(self):
        """Untimed: run_ensemble twice with one seed per sampled scenario, against the oracle."""
        import retrodict as rd

        for case, ref in zip(self.cases, self.refs):
            if case.command != "sample":
                continue
            d = case.dims_in[0]
            if case.kind == "instrument":
                maps = tuple((label, rd.QuantumMap(ops, d, d)) for label, ops in case.outcomes.items())
                transformation = rd.Instrument(maps, d, d)
            elif case.kind == "kraus":
                transformation = rd.QuantumMap(case.kraus, d, d)
            else:
                transformation = case.matrix
            task = rd.InferenceTask(transformation, case.dims_in, case.dims_out, "predict",
                                    case.mask_in, case.mask_out)
            seed = self.seed * 1000 + 999
            first = rd.run_ensemble(task, case.shots, seed)
            second = rd.run_ensemble(task, case.shots, seed)
            try:
                checks.check_counts(case, ref, first, second)
            except checks.CheckFailed as exc:
                self.wrong += 1
                self.note(f"wrong {case.name}: {exc}")


def setup(workload: str, seed: int) -> tuple[Run, float]:
    """The import, the input generation and one cold warm-up invocation, timed.

    The oracle's references are computed between the two timed stretches and
    are not counted.  Returns the run and the set-up time, each stretch
    scaled by the speed readings around it.
    """
    weights = SPEED_WEIGHTS.get(workload, EQUAL_WEIGHTS)
    before = speed.reading()
    start = time.perf_counter()
    import_program()
    WORK.mkdir(exist_ok=True)
    run = Run(workload, seed)
    generate_s = time.perf_counter() - start
    after = speed.reading()
    setup_s = generate_s * speed.scale(before, after, weights)
    checks.property_checks()
    run.prepare()
    before = speed.reading()
    start = time.perf_counter()
    run.invoke(run.cases[0], run.refs[0], -1)
    warm_s = time.perf_counter() - start
    after = speed.reading()
    setup_s += warm_s * speed.scale(before, after, weights)
    # The warm-up invocation is set-up work, not a measured operation.
    run.attempted = run.failed = 0
    return run, setup_s


def _units(values: dict, rows) -> dict:
    return {row[0]: {"value": values[row[0]], "unit": row[1]} for row in rows}


def end_to_end(run: Run, rounds: list[list[Op]], setup_s: float) -> dict:
    """Scaled times: per-operation latency, and a round from each operation's median."""
    per_case = zip(*([op.scaled for op in ops] for ops in rounds))
    latencies = [op.scaled for ops in rounds for op in ops if op.ok]
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "round_s": sum(statistics.median(times) for times in per_case),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms.p50": 1e3 * statistics.median(latencies),
        "op_ms.p90": 1e3 * statistics.quantiles(latencies, n=10)[8],
    }
    return _units(values, manifest.END_TO_END)


def per_layer(run: Run, seconds: float) -> dict:
    """Untraced rounds for half the time, then as many rounds traced; scaled figures per round.

    Trace figures use one factor, the pass's time-weighted mean.  The listed
    self times, ``trace.unattributed_s`` (self time of the spans not listed)
    and ``trace.bookkeeping_s`` (the tracer's own time) are summed from the
    spans; they must come to ``trace.wall_s``, timed around each invocation,
    within TRACE_CLOSURE of it, or the run is not correct.
    """
    untraced = run.rounds_for(seconds / 2)
    tracer = spans.Tracer()
    with tracer:
        traced = run.rounds_for(0, count=len(untraced))
    tracer.write(WORK / f"spans-{run.workload}.jsonl")
    n = len(traced)
    traced_ops = [op for ops in traced for op in ops]
    raw = sum(op.seconds for op in traced_ops)
    wall = sum(op.scaled for op in traced_ops)
    factor = wall / raw
    values = {
        "trace.overhead_s": (wall - sum(op.scaled for ops in untraced for op in ops)) / n,
        "trace.wall_s": wall / n,
    }
    summary = tracer.summary()
    absent = {"calls": 0, "self_s": 0.0, "repeat_ratio": 0.0}
    for name, _, _ in manifest.PER_LAYER:
        if not name.startswith("trace."):
            span_name, stat = name.rsplit(".", 1)
            value = summary.get(span_name, absent)[stat]
            values[name] = {"calls": value / n, "self_s": factor * value / n}.get(stat, value)
    listed = {name[: -len(".self_s")] for name, _, _ in manifest.PER_LAYER if name.endswith(".self_s")}
    listed_s = sum(entry["self_s"] for span_name, entry in summary.items() if span_name in listed)
    unlisted_s = sum(entry["self_s"] for span_name, entry in summary.items() if span_name not in listed)
    bookkeeping_s = tracer.bookkeeping_s()
    outside_s = raw - listed_s - unlisted_s - bookkeeping_s
    print(f"bench: traced time outside every span: {outside_s:.5f} s of {raw:.4f} s", file=sys.stderr)
    if abs(outside_s) > TRACE_CLOSURE * raw:
        run.wrong += 1
        run.note(f"traced times do not add up: {outside_s:.4f} s of {raw:.4f} s outside every span")
    values["trace.unattributed_s"] = factor * unlisted_s / n
    values["trace.bookkeeping_s"] = factor * bookkeeping_s / n
    return _units(values, manifest.PER_LAYER)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run, setup_s = setup(workload, seed)
    try:
        if trace:
            metrics = per_layer(run, seconds)
        else:
            metrics = end_to_end(run, run.rounds_for(seconds), setup_s)
        run.post_checks()
    finally:
        run.close()
    for message in run.messages:
        print(f"bench: {message}", file=sys.stderr)
    return {"correct": run.wrong == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, so that peak memory is per workload."""
    results = {}
    for workload in (w["name"] for w in manifest.WORKLOADS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"bench: {workload} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results[workload] = result
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in manifest.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        text = json.dumps(manifest.manifest(), indent=2, ensure_ascii=False) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} numpy={np.__version__} nproc={os.cpu_count()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
