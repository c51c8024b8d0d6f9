"""The output format is decided in one place: ``nmixfit.io``.

Every CSV goes through ``io.write_csv``, whose cell rule alone turns a
float into 17 significant digits.  A module that opens its own
``csv.writer`` or formats with ``.17g`` would fork that rule.  The
modules are read from their source, so no code of theirs runs here.
"""

import ast
from pathlib import Path

import pytest

import nmixfit

PACKAGE = Path(nmixfit.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "io.py")


def _format_forks(tree):
    """Lines that call ``csv.writer`` or hold a ``.17g`` format string."""
    writer_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "csv"
        for alias in node.names
        if alias.name == "writer"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "writer"
                and isinstance(func.value, ast.Name)
                and func.value.id == "csv"
            ) or (isinstance(func, ast.Name) and func.id in writer_names):
                yield node.lineno, "csv.writer"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if ".17g" in node.value:
                yield node.lineno, repr(node.value)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_io_writes_csv_cells(path):
    forks = list(_format_forks(ast.parse(path.read_text())))
    assert forks == [], f"{path.name} formats output outside nmixfit.io: {forks}"


def test_the_check_sees_both_forms():
    source = (
        "import csv\n"
        "from csv import writer as w\n"
        "csv.writer(h)\n"
        "w(h)\n"
        "text = '%.17g' % x\n"
        "text = f'{x:.17g}'\n"
    )
    assert [line for line, _ in _format_forks(ast.parse(source))] == [3, 4, 5, 6]
