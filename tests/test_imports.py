"""Every module of the package uses every name it imports, every top-level
name it binds and every member of its classes has a caller, and importing
one module loads only that module's own imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import coloursym

PACKAGE = Path(coloursym.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# cli.py imports these without using them, so that perfbench/tracing.py can
# patch them in cli's namespace; the list empties when the tracer goes
TRACER_IMPORTS = {"cli.py": {"find_witness", "blocking_involutions", "lift", "order"}}


def unused_imports(source: str) -> set[str]:
    """The names a module binds by import and never reads."""
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_unused_imports_finds_only_unread_names():
    source = "from x import a, b as c, d\nimport e.f\nimport g\nprint(a, e.f)\ndef h(y: d): ...\n"
    assert unused_imports(source) == {"c", "g"}


def test_every_module_reads_every_name_it_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {path.name for path in modules} >= {"cli.py", "spin.py"}
    for path in modules:
        unused = unused_imports(path.read_text(encoding="utf-8"))
        assert unused == TRACER_IMPORTS.get(path.name, set()), path.name


def top_level_names(source: str) -> set[str]:
    """The functions, classes and module-level assignments a module binds."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def member_names(source: str) -> set[str]:
    """The methods, properties and annotated fields of a module's top-level
    classes, as Class.name; dunders are left out, since Python calls them."""
    names = set()
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                names.add(f"{cls.name}.{name}")
    return names


def names_read(source: str) -> set[str]:
    """The names a module reads: as a name, as an attribute, or by import."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_names_read_and_bound():
    source = "import a\nfrom b import c\nX = 1\nY: int = a.d(X)\ndef f(): return g\nclass K: pass\n"
    assert top_level_names(source) == {"X", "Y", "f", "K"}
    assert names_read(source) == {"c", "X", "int", "a", "d", "g"}
    source = "class K:\n    a: int\n    b = 1\n    def __init__(self): ...\n    @property\n    def c(self): ...\n"
    assert member_names(source + "def f():\n    class L:\n        d: int\n") == {"K.a", "K.c"}


# src/ holds only what a command, the benchmark or the acceptance suite
# reaches; an oracle that only unit tests call lives in tests/helpers.py
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = [*MODULES, *sorted((ROOT / "perfbench").glob("*.py"))]
CALLERS += [ROOT / "tests" / "helpers.py", ROOT / "tests" / "test_acceptance.py"]


def read_by_callers() -> set[str]:
    return set().union(*(names_read(path.read_text(encoding="utf-8")) for path in CALLERS))


def test_every_top_level_name_has_a_caller():
    read = read_by_callers()
    for path in MODULES:
        assert top_level_names(path.read_text(encoding="utf-8")) - read == set(), path.name


def test_every_class_member_has_a_caller():
    # matched by name alone: a member counts as read when any caller reads
    # an attribute or a name spelled like it
    read = read_by_callers()
    for path in MODULES:
        members = member_names(path.read_text(encoding="utf-8"))
        assert {m for m in members if m.partition(".")[2] not in read} == set(), path.name


def test_the_package_exports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert len(tree.body) == 1 and ast.get_docstring(tree) is not None


def test_importing_perms_loads_no_other_module():
    script = "import sys, coloursym.perms; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "coloursym.perms" in loaded
    heavy = {"numpy", "coloursym.graphs", "coloursym.equivariant", "coloursym.spin", "coloursym.cli"}
    assert loaded & heavy == set()
