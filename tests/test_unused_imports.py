"""Every module-level import in ``src/repro`` is used.

A strict AST scan, with no linter dependency: an import counts as used
when the module reads its name (alone or as the root of an attribute
chain, in code or in a string annotation) or lists it in ``__all__``.
A name mentioned only in a docstring or a comment does not count.
Package ``__init__.py`` files are skipped: their imports are the
package's re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _module_imports(tree: ast.Module):
    """(line, bound name) of each import at module level, including
    those inside top-level ``if`` / ``try`` blocks."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse)
            pending.extend(getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)


def _annotations(node: ast.AST):
    if isinstance(node, ast.AnnAssign):
        yield node.annotation
    elif isinstance(node, ast.arg) and node.annotation is not None:
        yield node.annotation
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        if node.returns is not None:
            yield node.returns


def _used_names(tree: ast.Module):
    """Names the module reads, string annotations parsed, plus its
    ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in _annotations(node):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(
                    part.value, str
                ):
                    names.update(
                        sub.id
                        for sub in ast.walk(ast.parse(part.value, mode="eval"))
                        if isinstance(sub, ast.Name)
                    )
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def test_no_unused_module_level_imports():
    paths = sorted(
        path for path in SOURCE.rglob("*.py") if path.name != "__init__.py"
    )
    assert len(paths) > 50  # the scan found the package
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        unused.extend(
            f"{path.relative_to(SOURCE)}:{line}: {name}"
            for line, name in _module_imports(tree)
            if name not in used
        )
    assert not unused, f"unused imports: {sorted(unused)}"
