"""README.md and the docstrings and comments under src/ name only what
exists: a `module.name`, public or private, must be defined or imported
by that enlca module, a backticked `_name` defined by some enlca module,
and so must every bare name README's module table backticks; a
`BENCH_*.json` must be a file at the repository's root, a backticked key
cited right after it a top-level key of that file, and a module constant
written as `NAME = value` must hold that value. So renaming or deleting
a function, a BENCH file or one of its keys, or changing a constant,
cannot leave its old name or value in the docs. README's quoted results
are rerun here."""

import ast
import contextlib
import importlib
import io
import json
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
SOURCES = sorted((ROOT / "src" / "enlca").glob("*.py"))
# a BENCH file and the backticked keys that follow it, as in
# `BENCH_tiles.json` `gemm_grid` and `tile_size_variants`, or in parentheses
CITATION = re.compile(r"`?(BENCH_\w+\.json)`?((?:[\s,;(]*(?:and\s+)?`\w+`)*)")


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
    """README.md, then every module, class and function docstring and each
    module's comments, joined, as (where, text)."""
    yield "README.md", README
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
                yield f"{module}.{getattr(node, 'name', '')}", ast.get_docstring(node)
        source = (ROOT / "src" / "enlca" / f"{module}.py").read_text()
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        yield f"{module} comments", "\n".join(t.string.lstrip("# ") for t in tokens if t.type == tokenize.COMMENT)


def test_docs_name_only_defined_names():
    trees = parsed()
    names = {module: defined(tree) for module, tree in trees.items()}
    everywhere = set().union(*names.values())
    # public or private, and a name a module imports is its attribute too
    # (`enla.phi`); `exact.py` is a file name, not a name of exact
    attributes = {module: names[module] | {alias.asname or alias.name for node in tree.body
                                           if isinstance(node, ast.ImportFrom) for alias in node.names}
                  for module, tree in trees.items()}
    qualified = re.compile(rf"\b({'|'.join(names)})\.(?!py\b)([A-Za-z_]\w*)")
    backticked = re.compile(r"`(_[A-Za-z]\w*)")
    missing = {(where, f"{module}.{name}") for where, text in docs(trees)
               for module, name in qualified.findall(text) if name not in attributes[module]}
    missing |= {(where, name) for where, text in docs(trees)
                for name in backticked.findall(text) if name not in everywhere}
    # the module table backticks only names that exist, the package's own aside
    table = re.search(r"\| module .*?\n\n", README, flags=re.S).group(0)
    missing |= {("README.md module table", name) for name in re.findall(r"`(\w+)`", table)
                if name not in everywhere | {"enlca"}}
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


def test_docs_state_module_constants_at_their_values():
    trees = parsed()
    constants = {module: {name: getattr(importlib.import_module(f"enlca.{module}"), name)
                          for name in defined(tree) if re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name)}
                 for module, tree in trees.items()}
    # NAME = a plain number, not the start of an expression such as 10^6
    stated = re.compile(r"\b(_?[A-Z][A-Z0-9_]*) = (\d[\d_]*(?:\.\d+)?(?:e[+-]?\d+)?)(?![\w.^*/])")
    checked, wrong = 0, set()
    for where, text in docs(trees):
        own = constants.get(re.match(r"\w+", where)[0], {})
        for name, value in stated.findall(text):
            held = [own[name]] if name in own else [c[name] for c in constants.values() if name in c]
            checked += bool(held)
            if held and float(value.replace("_", "")) not in held:
                wrong.add((where, f"{name} = {value}", tuple(held)))
    assert checked and not wrong


def test_readme_quick_start_prints_its_quoted_error():
    """README's library quick start prints the relative error its comment
    quotes, to the digits quoted."""
    code = re.search(r"## Library quick start\s+```python\n(.*?)```", README, flags=re.S).group(1)
    quoted = re.search(r"print\(.*# ~(\d+\.\d+)", code).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    value = float(out.getvalue())
    assert abs(value - float(quoted)) <= 0.5 * 10.0 ** -len(quoted.split(".")[1]), (value, quoted)
