"""Every name a bdhit module imports is read somewhere in that module,
every name it exports is read somewhere else, and the package exports each
module's public names once; only model.py words the refusal of a
non-integer or non-real argument; only densities and oracles take
np.exp or np.expm1; cli runs no verify check itself; and no module loads
scipy or hashlib as it is imported (only _lapack reaches scipy, in its
fallback), nor does oracles import a main-path module.

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


def loads(nodes):
    """Names the AST nodes load, bare or as an attribute."""
    read = set()
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def names_read(source):
    """Names a source loads, bare or as an attribute."""
    return loads(ast.walk(ast.parse(source)))


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


def private_bindings(tree):
    """(name, statement) for each private name a module binds at module level.

    Bindings by def, class and assignment count, tuple targets and the
    bodies of module-level if, try, with and for blocks included; dunder
    names do not.
    """
    found = []
    todo = list(tree.body)
    while todo:
        stmt = todo.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [
                n.id
                for t in targets
                for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
        else:
            names = []
            for block in ("body", "orelse", "finalbody", "handlers"):
                todo.extend(getattr(stmt, block, ()))
        found += [(n, stmt) for n in names if n.startswith("_") and not n.startswith("__")]
    return found


def stranded_private_names(tree, read_elsewhere):
    """Private module-level names read neither in read_elsewhere nor in the
    module outside the statement that binds them."""
    stranded = set()
    for name, stmt in private_bindings(tree):
        inside = {id(node) for node in ast.walk(stmt)}
        own = loads(node for node in ast.walk(tree) if id(node) not in inside)
        if name not in own and name not in read_elsewhere:
            stranded.add(name)
    return sorted(stranded)


def test_every_private_name_is_read_outside_its_binding():
    # catches a private class or helper a refactor strands, even one that
    # still reads itself (a recursive helper, a class naming itself)
    files = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}
    reads = {p: loads(ast.walk(tree)) for p, tree in trees.items()}
    stranded = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in stranded_private_names(
            trees[path], set().union(*(r for p, r in reads.items() if p != path))
        )
    ]
    assert stranded == []


def test_private_scan_sees_tuples_blocks_and_self_reads():
    source = (
        "__all__ = []\n"
        "_LOW, _HIGH = 1, 2\n"
        "with open('f') as fh:\n"
        "    _kept = fh\n"
        "class _Rows:\n"
        "    def at(self):\n"
        "        return _Rows()\n"
        "def _walk(n):\n"
        "    return _walk(n - 1) + _LOW\n"
        "def f():\n"
        "    _inner = 1\n"
        "    return _inner\n"
    )
    tree = ast.parse(source)
    bound = sorted(name for name, _ in private_bindings(tree))
    assert bound == ["_HIGH", "_LOW", "_Rows", "_kept", "_walk"]
    assert stranded_private_names(tree, set()) == ["_HIGH", "_Rows", "_kept", "_walk"]
    assert stranded_private_names(tree, {"_HIGH", "_kept"}) == ["_Rows", "_walk"]


def texts_containing(source, phrase):
    """Line numbers of the string constants (f-string parts too) holding phrase."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and phrase in node.value
    ]


def wordings_outside_model(phrase):
    """(module, line) of each string outside model.py that holds phrase."""
    return [
        (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "model.py"
        for line in texts_containing(path.read_text(encoding="utf-8"), phrase)
    ]


def test_one_module_reads_integers():
    # model._as_int is the one integer reader: a module that words the
    # refusal itself has grown a copy of it
    assert wordings_outside_model("must be an integer") == []


@pytest.mark.parametrize("phrase", ["must be a real number", "must be finite"])
def test_one_module_reads_reals(phrase):
    # likewise model._as_real for times, horizons, theta, gamma, k(i),
    # walk rates and masses
    assert wordings_outside_model(phrase) == []


def numpy_exponentials(source):
    """Line numbers where the source reads np.exp or np.expm1."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr in ("exp", "expm1")
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    ]


def test_exponentials_stay_in_the_kernels():
    # every exp(-theta t) is taken by the two densities kernels, so their
    # error statement covers every value; oracles stay independent of them
    found = [
        (path.name, line)
        for path in MODULES
        if path.stem not in ("densities", "oracles")
        for line in numpy_exponentials(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_exponential_scan_sees_reads_and_calls():
    source = "import numpy as np\nf = np.exp\nnp.expm1(x, out=x)\nmath.exp(1)\nx.exp()\n"
    assert numpy_exponentials(source) == [2, 3]


def test_text_scan_sees_plain_and_formatted_strings():
    source = (
        "def f(x, n):\n"
        "    'x must be an integer'\n"
        "    raise ValueError(f'{n}: must be an integer, got {x!r}')\n"
        "g = 'must be positive'\n"
    )
    assert texts_containing(source, "must be an integer") == [2, 3]


# the kernels only the verify battery runs: cli reaches them through
# checks.run_checks, and keeps none of the checks itself
CHECK_KERNELS = (
    "apply_Q", "apply_DpiDs", "verify_columns", "orthogonality_defect", "stieltjes_check",
    "derivative_bound_sequence", "sample_path", "transformed_evaluator",
)


def check_kernel_reaches(source):
    """(line, name) where source imports one of CHECK_KERNELS or reads it,
    bare or as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {
                (node.lineno, alias.name.split(".")[-1])
                for alias in node.names
                if alias.name.split(".")[-1] in CHECK_KERNELS
            }
        found |= {(node.lineno, name) for name in loads([node]) if name in CHECK_KERNELS}
    return sorted(found)


def test_cli_runs_no_check_itself():
    assert check_kernel_reaches((SRC / "cli.py").read_text(encoding="utf-8")) == []


def test_check_kernel_scan_sees_imports_and_reads():
    source = (
        "from .model import apply_Q as q, load_spec\n"
        "import bdhit.spectral.orthogonality_defect\n"
        "from . import htransform\n"
        "ev2 = htransform.transformed_evaluator(ev, ht)\n"
        "sample_path = None\n"
        "f(stieltjes_check, verify_columns=1)\n"
    )
    assert check_kernel_reaches(source) == [
        (1, "apply_Q"),
        (2, "orthogonality_defect"),
        (4, "transformed_evaluator"),
        (6, "stieltjes_check"),
    ]


HEAVY = ("scipy", "hashlib")
# the scipy fallback of _lapack: scipy is reached only in these functions
LAPACK_FALLBACK = ("_linalg_dirs", "_load")


def heavy_reaches(source):
    """(line, top-level function or None, module) where source reaches scipy or hashlib.

    A reach is an import of the module, or a call that names it in a string
    argument, directly or through a module-level constant (find_spec("scipy"),
    __import__(name)).  Statements in the `except` handlers of a module-level
    try count as a function's: they run only when the try body fails.
    """
    tree = ast.parse(source)
    constants = {
        t.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for t in node.targets
        if isinstance(t, ast.Name)
    }

    def heavy(name):
        return name if isinstance(name, str) and name.split(".")[0] in HEAVY else None

    def named(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            return [node.module or ""]
        if isinstance(node, ast.Call):
            return [
                arg.value if isinstance(arg, ast.Constant) else constants.get(arg.id)
                for arg in node.args
                if isinstance(arg, (ast.Constant, ast.Name))
            ]
        return []

    def scan(nodes, where):
        return [
            (node.lineno, where, name)
            for stmt in nodes
            for node in ast.walk(stmt)
            for name in named(node)
            if heavy(name)
        ]

    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += scan([stmt], stmt.name)
        elif isinstance(stmt, ast.Try):
            found += scan(stmt.body + stmt.orelse + stmt.finalbody, None)
            found += scan(stmt.handlers, "except")
        else:
            found += scan([stmt], None)
    return sorted(found)


def test_no_module_loads_scipy_or_hashlib_on_import():
    # numpy's own LAPACK gives dlasq1 and CPython's own SHA-256 the digest;
    # scipy (a second OpenBLAS) and hashlib (OpenSSL) cost 7 MB per process
    found = [
        (path.name, line, where, name)
        for path in sorted(SRC.glob("*.py"))
        for line, where, name in heavy_reaches(path.read_text(encoding="utf-8"))
        if where is None
        or (name.startswith("scipy") and not (path.stem == "_lapack" and where in LAPACK_FALLBACK))
    ]
    assert found == []


def test_heavy_scan_sees_imports_calls_and_constants():
    source = (
        "import os, scipy.linalg\n"
        "_NAME = 'scipy.linalg.cython_lapack'\n"
        "try:\n"
        "    from _sha256 import sha256\n"
        "except ImportError:\n"
        "    from hashlib import sha256\n"
        "def f():\n"
        "    import hashlib\n"
        "    return find_spec('scipy'), find_spec(_NAME), find_spec('numpy'), '_hashlib'\n"
        "g = __import__('scipy').__version__\n"
    )
    assert heavy_reaches(source) == [
        (1, None, "scipy.linalg"),
        (6, "except", "hashlib"),
        (8, "f", "hashlib"),
        (9, "f", "scipy"),
        (9, "f", "scipy.linalg.cython_lapack"),
        (10, None, "scipy"),
    ]


def test_oracles_import_no_main_path_module():
    tree = ast.parse((SRC / "oracles.py").read_text(encoding="utf-8"))
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {
        "." * n.level + (n.module or "") for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
    }
    assert imported <= {"__future__", "math", "fractions", "numpy"}
