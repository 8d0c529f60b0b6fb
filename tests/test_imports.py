"""Every module of the package uses every name it imports."""

import ast
from pathlib import Path

import coloursym

PACKAGE = Path(coloursym.__file__).parent

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
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        unused = unused_imports(path.read_text(encoding="utf-8"))
        assert unused == TRACER_IMPORTS.get(path.name, set()), path.name
