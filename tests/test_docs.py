"""README.md and the docstrings under src/ name only what exists: a
`module._name` must be defined by that enlca module, a backticked `_name`
by some enlca module, a `BENCH_*.json` must be a file at the repository's
root, and a backticked key cited right after it a top-level key of that
file. So renaming or deleting a helper, a BENCH file or one of its keys
cannot leave its old name in the docs."""

import ast
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "enlca").glob("*.py"))
# a BENCH file and the backticked keys that follow it, as in
# `BENCH_tiles.json` `gemm_grid` and `tile_size_variants`
CITATION = re.compile(r"`?(BENCH_\w+\.json)`?((?:[\s,;]*(?:and\s+)?`\w+`)*)")


def defined(tree):
    """The names a module defines at top level or in a top-level class body."""
    names = set()
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else []
        for item in (node, *body):
            if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                names.add(item.name)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def parsed():
    """Every enlca module's syntax tree, by module name."""
    return {path.stem: ast.parse(path.read_text()) for path in SOURCES}


def docs(trees):
    """README.md, then every module, class and function docstring, as
    (where, text)."""
    yield "README.md", (ROOT / "README.md").read_text()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
                yield f"{module}.{getattr(node, 'name', '')}", ast.get_docstring(node)


def test_docs_name_only_defined_private_helpers():
    trees = parsed()
    names = {module: defined(tree) for module, tree in trees.items()}
    everywhere = set().union(*names.values())
    qualified = re.compile(rf"\b({'|'.join(names)})\.(_[A-Za-z]\w*)")
    backticked = re.compile(r"`(_[A-Za-z]\w*)")
    missing = {(where, f"{module}.{name}") for where, text in docs(trees)
               for module, name in qualified.findall(text) if name not in names[module]}
    missing |= {(where, name) for where, text in docs(trees)
                for name in backticked.findall(text) if name not in everywhere}
    assert not missing


def test_docs_cite_only_existing_bench_keys():
    missing = set()
    for where, text in docs(parsed()):
        for name, keys in CITATION.findall(text):
            if not (ROOT / name).is_file():
                missing.add((where, name))
                continue
            top = json.loads((ROOT / name).read_text())
            missing |= {(where, f"{name} {key}") for key in re.findall(r"`(\w+)`", keys) if key not in top}
    assert not missing
