"""Every function, method and class in the library is used by the library.

A definition whose name appears nowhere else in the package's source,
and that the package does not export, is called only from tests or not
at all. Reference constructions that only tests need live in
``tests/oracles.py`` instead.
"""

import ast
import glob
import os

import aggmogp

PACKAGE_DIR = os.path.dirname(aggmogp.__file__)

# Reached from outside the package's own source, by name.
ALLOWED = {
    # argparse calls it on every usage problem.
    "_Parser.error",
    # Public geometry: the span of an interval support.
    "Interval.length",
}


def definitions_and_uses(paths):
    """``(qualified name, name)`` of every function, method and class
    defined in ``paths``, and how often each identifier is used there: as
    a name or an attribute that is read, or an imported name. Assignment
    targets are not uses, so a local ``product = …`` hides no unused
    ``product`` method."""
    defs, uses = [], {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((prefix + child.name, child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        visit(tree, "")
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Store):
                continue
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            uses[name] = uses.get(name, 0) + 1
    return defs, uses


def unused(paths):
    defs, uses = definitions_and_uses(paths)
    return sorted(
        qualified
        for qualified, name in defs
        if not uses.get(name)
        and name not in aggmogp.__all__
        and not (name.startswith("__") and name.endswith("__"))
        and qualified not in ALLOWED
    )


def test_library_defines_nothing_it_does_not_use():
    modules = sorted(glob.glob(os.path.join(PACKAGE_DIR, "*.py")))
    assert len(modules) > 1
    assert unused(modules) == []


def test_scan_sees_an_unused_definition(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "class Used:\n"
        "    def method(self):\n"
        "        self.stored = None\n"
        "        return helper()\n\n"
        "    def orphan(self):\n"
        "        pass\n\n"
        "    def stored(self):\n"
        "        pass\n\n"
        "    def local(self):\n"
        "        pass\n\n"
        "    def __repr__(self):\n"
        "        return 'Used'\n\n"
        "def helper():\n"
        "    local = Used()\n"
        "    return Used().method\n"
    )
    # ``stored`` and ``local`` are named only as assignment targets.
    assert unused([str(path)]) == ["Used.local", "Used.orphan", "Used.stored"]
