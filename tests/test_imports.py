"""Every module-level import of the package is used or exported, and the
CLI's start-up imports nothing it does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import colorperm

PACKAGE = Path(colorperm.__file__).parent


def module_level_imports(tree):
    """(bound name, line) of each import outside function and class
    bodies, __future__ aside."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    yield alias.asname or alias.name, node.lineno
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pending.extend(ast.iter_child_nodes(node))


def exported(tree):
    """The names listed in the module's __all__, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_every_module_level_import_is_used_or_exported(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"{name} (line {line})"
        for name, line in module_level_imports(tree)
        if name not in used | exported(tree)
    ]
    assert unused == []


def private_definitions(tree):
    """(name, node) of each function, class or assignment at module level
    whose name starts with an underscore, dunder names aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, node


def references(node):
    """Every name that the node reads, as a bare name or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_every_private_name_is_referenced_elsewhere(module):
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    orphans = [
        f"{name} (line {definition.lineno})"
        for name, definition in private_definitions(trees[module])
        if not any(
            name in references(node)
            for tree in trees.values()
            for node in tree.body
            if node is not definition
        )
    ]
    assert orphans == []


@pytest.mark.parametrize(
    "module",
    [
        # brute_tables imports the pool machinery only when it opens a pool.
        "concurrent.futures.process",
        # Every record is a NamedTuple.
        "dataclasses",
    ],
)
def test_importing_the_cli_leaves_out(module):
    code = f"import sys, colorperm.cli; print({module!r} in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout == "False\n"
