"""The benchmark reaches nmixfit by module, function and CLI flag.

``perfbench/tracer.py`` patches the functions it lists in
``LAYER_FUNCTIONS``; a rename in nmixfit would make ``--trace 1`` raise,
or stop it seeing a layer.  ``perfbench/worker.py`` runs CLI commands
in-process; a removed flag would fail every one of them.  Both files are
read from their source, not imported, so the benchmark's code never runs
here.
"""

import ast
import importlib
from pathlib import Path

import pytest

import nmixfit
from nmixfit import MixtureFamily, mle
from nmixfit.cli import build_parser

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKER = TRACER.with_name("worker.py")


def _layer_functions():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS in {TRACER}")


@pytest.mark.parametrize(
    "module_name, attr", sorted({(module, attr) for module, attr, _ in _layer_functions()})
)
def test_traced_function_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("engine", ["fit_ml", "fit_laplace"])
def test_fits_optimise_through_the_traced_name(engine, monkeypatch, small_sim):
    """Both engines reach the optimiser through ``nmixfit.mle``'s binding,
    the one the tracer wraps, so its fitcore spans see every fit."""
    calls = []
    original = mle.maximize_log_density

    def counting(*args, **kwargs):
        calls.append(engine)
        return original(*args, **kwargs)

    monkeypatch.setattr(mle, "maximize_log_density", counting)
    getattr(nmixfit, engine)(small_sim.table_mean, small_sim.designs_mean, MixtureFamily.POISSON)
    assert calls == [engine]


def _worker_cli_calls():
    """The CLI argument lists in the worker's source, as it passes them.

    A list bound to a name (``MODEL``, ``data``) is a fragment and is
    spliced where it is starred.  A list that starts with a subcommand is
    a call; one that starts with a flag is appended to calls (``[*argv,
    "--output-dir", out]``), so it is tried after every subcommand.  Values
    that are not literals become "1".
    """
    tree = ast.parse(WORKER.read_text())
    fragments = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List):
            for target in node.targets:
                fragments[getattr(target, "id", getattr(target, "attr", None))] = node.value

    def expand(node):
        for elt in node.elts:
            if isinstance(elt, ast.Starred):
                name = getattr(elt.value, "id", getattr(elt.value, "attr", None))
                if name in fragments:
                    yield from expand(fragments[name])
            else:
                yield str(elt.value) if isinstance(elt, ast.Constant) else "1"

    spliced = [id(node) for node in fragments.values()]
    lists = [
        list(expand(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.List) and id(node) not in spliced
    ]
    lists = [argv for argv in lists if any(token.startswith("--") for token in argv)]
    calls = [argv for argv in lists if not argv[0].startswith("--")]
    commands = sorted({argv[0] for argv in calls})
    suffixes = [argv for argv in lists if argv[0].startswith("--")]
    return calls + [[command, *suffix] for suffix in suffixes for command in commands]


def test_worker_reaches_every_cli_command():
    assert {argv[0] for argv in _worker_cli_calls()} == {
        "simulate", "fit", "lambda-fitted", "posterior-n"
    }


@pytest.mark.parametrize("argv", _worker_cli_calls(), ids=" ".join)
def test_worker_cli_flags_are_accepted(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"the CLI rejects the benchmark's call {argv}")
