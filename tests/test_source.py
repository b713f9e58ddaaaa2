"""Checks on vulnvet's own source text."""

import ast
from pathlib import Path

import vulnvet

SRC = Path(vulnvet.__file__).parent


def _module_imports(tree):
    """(bound name, line) of every import a module runs at module level,
    nested in a module-level if or try too, but not in a def or class."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(child for child in ast.iter_child_nodes(node)
                           if isinstance(child, ast.stmt))
            pending.extend(stmt for handler in getattr(node, "handlers", ())
                           for stmt in handler.body)


def _names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _referenced(tree):
    """Every name the module reads, annotations included, quoted ones too."""
    names = _names(tree)
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= _names(ast.parse(part.value, mode="eval"))
    return names


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = _referenced(tree)
        unused += ["%s:%d: %s" % (path.relative_to(SRC).as_posix(), line, name)
                   for name, line in _module_imports(tree) if name not in used]
    assert unused == []


# documented library API that no command calls (see the README)
LIBRARY_API = {"diffing.py: consolidate_commits"}


def test_every_module_level_definition_is_used():
    # code no command uses goes: each module-level function and class is
    # named somewhere in vulnvet outside its own definition
    defined, used = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            names = _referenced(node)
            for part in ast.walk(node):
                if isinstance(part, ast.Attribute):
                    names.add(part.attr)
                elif isinstance(part, ast.alias):
                    names.add(part.name.rsplit(".", 1)[-1])
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(("%s: %s" % (path.relative_to(SRC).as_posix(), node.name),
                                node.name))
                names.discard(node.name)
            used |= names
    assert [where for where, name in defined
            if name not in used and where not in LIBRARY_API] == []
