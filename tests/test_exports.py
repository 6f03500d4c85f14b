import ast
from pathlib import Path

import minkruled

SRC = Path(minkruled.__file__).parent


def test_public_names_are_unique_and_resolve():
    names = minkruled.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(minkruled, name)] == []
    namespace = {}
    exec("from minkruled import *", namespace)  # raises on a name the package lacks
    assert set(names) <= namespace.keys()


def test_public_names_are_sorted():
    assert minkruled.__all__ == sorted(minkruled.__all__)


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]
    assert unused == []


def test_no_system_kind_identity_test():
    """Kinds differ only through their ``synthesis.KINDS`` entry, never by an ``is SystemKind.X`` branch."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)):
                continue
            sides = (node.left, *node.comparators)
            if any(isinstance(x, ast.Attribute) and getattr(x.value, "id", None) == "SystemKind" for x in sides):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
