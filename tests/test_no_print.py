"""Library modules report through return values, exceptions and logging;
only the command line front end writes to the terminal."""

import ast
import glob
import os

import aggmogp

PACKAGE_DIR = os.path.dirname(aggmogp.__file__)


def print_calls(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]


def test_library_modules_do_not_print():
    modules = sorted(glob.glob(os.path.join(PACKAGE_DIR, "*.py")))
    assert len(modules) > 1
    found = {}
    for path in modules:
        lines = print_calls(path)
        if lines and os.path.basename(path) != "cli.py":
            found[os.path.basename(path)] = lines
    assert found == {}, f"print calls outside cli.py: {found}"


def test_scan_sees_print_calls():
    assert print_calls(os.path.join(PACKAGE_DIR, "cli.py"))
