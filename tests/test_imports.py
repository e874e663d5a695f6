"""No module of the package imports a name it never uses.

Checked with the standard-library ast module.  A name counts as used when it
is read anywhere in the module or listed in its __all__.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "precondeig"

# bindings that perfbench/spans.py patches by module name, so they stay
# although the module itself never calls them
PATCHED_ONLY = {("problems", "lanczos_extremal")}


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return {name for name in imported if name not in used}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    allowed = {name for module, name in PATCHED_ONLY if module == path.stem}
    unused = unused_imports(path)
    assert unused - allowed == set()
    # an allowance whose import is gone or now used is stale
    assert allowed <= unused
