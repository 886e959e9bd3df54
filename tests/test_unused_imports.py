"""No module of gtopo imports a name at module level that it does not use.

A name counts as used when it is read anywhere in the module.  The only
exceptions are the names that bench/tracing.py wraps or captures on the
importing module, each with its reason.
"""

import ast
from pathlib import Path

import gtopo

SRC = Path(gtopo.__file__).resolve().parent
TRACING = SRC.parents[1] / "bench" / "tracing.py"

KEPT_FOR_TRACING = {
    ("cli", "decide_statement"): "wrapped by name as a span (_CLI_SPANS)",
    ("cli", "effective_witness"): "wrapped by name as a span (_CLI_SPANS)",
    ("realline", "make_set"): "its calls are captured here (_CAPTURES)",
}


def unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_imports_catches_a_dead_name():
    tree = ast.parse("from typing import Optional, Sequence\n"
                     "import os.path\n"
                     "def f(xs: Sequence[int]): return xs\n")
    assert unused_imports(tree) == {"Optional", "os"}


def test_no_module_imports_a_name_it_does_not_use():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.stem, name) for name in unused_imports(tree)}
    assert found - set(KEPT_FOR_TRACING) == set()
    tracing = TRACING.read_text(encoding="utf-8")
    for module, name in KEPT_FOR_TRACING:
        assert f'"{name}"' in tracing, (module, name)
