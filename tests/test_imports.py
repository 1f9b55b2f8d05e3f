"""Every name a bdhit module imports is read somewhere in that module,
every name it exports is read somewhere else, and the package exports each
module's public names once; only model.py words the refusal of a
non-integer argument.

An AST scan stands in for a linter: a module that imports a name and
never reads it fails here.  __init__.py is exempt (its imports are the
package's re-exports), and so are `from __future__` imports.  An export
counts as read when another file under src/, tests/ or demos/ loads it as
a name or an attribute (`spectral_sum(...)`, `b.spectral_sum`).
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bdhit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .model import ProcessSpec, load_spec\n"
        "def f(x: ProcessSpec):\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "load_spec")]


def test_package_exports_every_module_name_once():
    # oracles stays out of the package namespace: only `bdhit.oracles` is bound
    import bdhit

    exported = {"__version__"}
    for path in MODULES:
        module = importlib.import_module(f"bdhit.{path.stem}")
        if path.stem == "oracles" or not hasattr(module, "__all__"):
            continue
        for name in module.__all__:
            assert getattr(bdhit, name) is getattr(module, name), (path.stem, name)
        exported.update(module.__all__)
    assert len(bdhit.__all__) == len(set(bdhit.__all__))
    assert set(bdhit.__all__) == exported


def names_read(source):
    """Names a source loads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_export_is_read_elsewhere():
    files = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
    reads = {p: names_read(p.read_text(encoding="utf-8")) for p in files}
    dead = [
        f"{path.stem}.{name}"
        for path in MODULES
        for name in getattr(importlib.import_module(f"bdhit.{path.stem}"), "__all__", ())
        if not any(name in read for p, read in reads.items() if p != path)
    ]
    assert dead == []


def test_export_scan_sees_names_and_attributes():
    source = "import bdhit as b\nfrom bdhit import f\nf(b.g, h=1)\nb.k = 2\n"
    assert names_read(source) == {"b", "f", "g"}


def top_level_names(source):
    """Names a module binds at top level with def, class or an assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_top_level_name_is_read():
    # catches a helper a refactor leaves behind, private or not
    files = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in files))
    orphans = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in sorted(top_level_names(path.read_text(encoding="utf-8")))
        if name not in read
    ]
    assert orphans == []


def test_top_level_scan_sees_defs_classes_and_constants():
    source = (
        "import os\n"
        "LIMIT = 3\n"
        "_width: int = 2\n"
        "def f(x):\n"
        "    inner = x\n"
        "    return inner\n"
        "class C:\n"
        "    attr = 1\n"
        "if os.name:\n"
        "    hidden = 1\n"
    )
    assert top_level_names(source) == {"LIMIT", "_width", "f", "C"}


def texts_containing(source, phrase):
    """Line numbers of the string constants (f-string parts too) holding phrase."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and phrase in node.value
    ]


def test_one_module_reads_integers():
    # model._as_int is the one integer reader: a module that words the
    # refusal itself has grown a copy of it
    copies = [
        (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "model.py"
        for line in texts_containing(path.read_text(encoding="utf-8"), "must be an integer")
    ]
    assert copies == []


def test_text_scan_sees_plain_and_formatted_strings():
    source = (
        "def f(x, n):\n"
        "    'x must be an integer'\n"
        "    raise ValueError(f'{n}: must be an integer, got {x!r}')\n"
        "g = 'must be positive'\n"
    )
    assert texts_containing(source, "must be an integer") == [2, 3]
