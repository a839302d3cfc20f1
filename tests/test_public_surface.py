import ast
import collections
import types
from pathlib import Path

import retrodict

ROOT = Path(__file__).resolve().parent.parent

# Every task kind is one call: solve(InferenceTask(...)).  A name added to or removed from the
# package changes one of these tuples, so the change shows in review.
PUBLIC = (
    "ChannelClassification", "DeterministicEffectReport", "FourTaskReport", "InferenceTask", "Instrument",
    "NoActiveReverseError", "NoSignallingReport", "ProbabilityTable", "Purification", "QuantumMap",
    "ScenarioError", "UndefinedConditionalError",
    "adjoint_map", "amplitude_damping", "amplitude_damping_instrument", "apply", "basis_ket", "basis_projector",
    "channel_toward_past_check", "classify", "coarse_grain", "compose_sequential",
    "deterministic_effect_check", "four_task_check", "general_prep_purified_check", "haar_random_unitary",
    "is_inference_symmetric", "is_trace_preserving", "make_dephasing", "make_noisy_operation",
    "open_reversal_check", "outcome_probabilities", "postdict_channel_via_purification",
    "projective_instrument", "purify_instrument", "random_cptp_map", "random_instrument", "rotate_ancilla",
    "solve", "state_update", "stinespring", "time_reverse", "verify_purification",
)

# Names that no library code calls but the benchmark under bench/ traces or calls.  They go once
# the benchmark no longer names them (ROADMAP items 1 and 6).
BENCHMARK_PINNED = (
    "CompareReport", "EnsembleResult", "compare", "empirical_conditionals", "no_signalling_check",
    "partial_trace", "postdict_channel", "postdict_open", "predict_open", "run_ensemble", "tensor",
)


def test_public_names_are_the_listed_ones():
    names = {name for name, value in vars(retrodict).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert not set(PUBLIC) & set(BENCHMARK_PINNED)
    assert sorted(names) == sorted(PUBLIC + BENCHMARK_PINNED)


def _referenced_names(tree: ast.AST) -> collections.Counter:
    """Every name a tree reads or imports: bare names, attribute names and imported names."""
    names = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_library_definition_is_used_by_the_library_or_the_benchmark():
    # A top-level function or class of src/retrodict that only the tests reference is not part of the
    # library.  References come from src/ and bench/, with the names that bench/spans.py traces by string;
    # a definition's references to itself do not count.
    sources = sorted((ROOT / "src" / "retrodict").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    referenced = sum((_referenced_names(tree) for tree in trees.values()), collections.Counter())
    spans = trees[ROOT / "bench" / "spans.py"]
    strings = (node.value for node in ast.walk(spans) if isinstance(node, ast.Constant))
    referenced.update(value for value in strings if isinstance(value, str))
    unused = []
    for path, tree in trees.items():
        if path.parent.name != "retrodict":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if referenced[node.name] - _referenced_names(node)[node.name] <= 0:
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass"


def test_every_dataclass_has_a_docstring():
    # Without one, dataclass builds __doc__ from inspect.signature of the class at import time.
    missing = []
    for path in sorted((ROOT / "src" / "retrodict").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator, node.decorator_list)):
                if ast.get_docstring(node) is None:
                    missing.append(f"{path.name}:{node.lineno} {node.name}")
    assert missing == []


def test_the_command_line_imports_one_private_name():
    # cli.py parses, dispatches and formats: the checks it reports run behind the public calls
    # inference.identity_suite and sampler.sample_checks, and only solving a validated task reaches inside.
    tree = ast.parse((ROOT / "src" / "retrodict" / "cli.py").read_text())
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == ["_solve_checked"]
