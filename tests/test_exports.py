import ast
import inspect
import re
from pathlib import Path

import minkruled
from minkruled import errors

SRC = Path(minkruled.__file__).parent
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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


def test_only_the_fork_module_forks():
    """The package's one ``os.fork`` call is in ``fork.py``; nothing else calls or imports ``fork``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "fork":
                found.append(f"{path.name}:{ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and "fork" in [alias.name for alias in node.names]:
                found.append(f"{path.name}:from {node.module} import fork")
    assert found == ["fork.py:os.fork"]


def _calls(node, owner=None):
    """Each call under ``node``, with the name of the innermost function that holds it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if isinstance(node, ast.Call):
        yield owner, node
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, owner)


def _writes(call: ast.Call) -> bool:
    """Whether a call may write a path: ``open`` in a mode not only for reading, ``os.open``, ``write_text``/``_bytes``."""
    func = call.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    if name in ("write_text", "write_bytes") or ast.unparse(func) == "os.open":
        return True
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set(mode.value) & set("wax+"))


def test_only_write_all_places_an_output():
    """``pipeline.write_all`` alone renames a file onto a path, and only the writers it runs open one for writing.

    So every output the package emits is placed all or none, one way.
    """
    places, opens = [], set()
    for path in sorted(SRC.glob("*.py")):
        for owner, call in _calls(ast.parse(path.read_text(), filename=str(path))):
            if ast.unparse(call.func) in ("os.replace", "os.rename", "shutil.move"):
                places.append(f"{path.name}:{owner}:{ast.unparse(call.func)}")
            elif _writes(call):
                opens.add(f"{path.name}:{owner}")
    assert places == ["pipeline.py:write_all:os.replace"]
    assert opens == {
        "mesh.py:export_mesh",
        "pipeline.py:write_report_json",
        "pipeline.py:write_samples_csv",
        "pipeline.py:write_sweep_summary",
    }


def _read_names(paths):
    """Every name a module body reads, as a bare name or an attribute."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_has_a_caller():
    """A public function is used by the package or a script, not only by the tests."""
    modules = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    read = _read_names(modules + sorted(SCRIPTS.glob("*.py")))
    functions = [name for name in minkruled.__all__ if inspect.isfunction(getattr(minkruled, name))]
    assert [name for name in functions if name not in read] == []


def test_every_error_class_is_raised():
    """Each class in ``errors`` is raised in the package, or is the base of one that is."""
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    classes = {name: cls for name, cls in vars(errors).items() if inspect.isclass(cls) and cls.__module__ == errors.__name__}
    raised_classes = [cls for name, cls in classes.items() if name in raised]
    assert [name for name, cls in classes.items() if not any(issubclass(r, cls) for r in raised_classes)] == []


#: What the oracle must not see: the angle track, its angles and the seed angles.
ANGLE_NAMES = {"track", "theta", "phi", "theta0", "phi0", "AngleTrack", "ruling_from_angles"}


def test_the_surface_and_its_oracle_name_no_angle():
    """``surface.py`` and ``verify.py`` name no angle, as an identifier, attribute, argument or string."""
    found = []
    for name in ("surface.py", "verify.py"):
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            words = [getattr(node, attr, None) for attr in ("id", "attr", "arg", "name", "asname", "value")]
            found += [f"{name}:{node.lineno}:{w}" for w in words if isinstance(w, str) and w in ANGLE_NAMES]
    assert found == []


def test_every_error_naming_an_arc_length_carries_it():
    """A ``raise`` whose f-string message formats an arc length (``s = {...}`` or ``s={...}``) passes ``s=``."""
    names_s = re.compile(r"(?<!\w)s ?= ?$")
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            call = node.exc
            messages = [arg for arg in call.args if isinstance(arg, ast.JoinedStr)]
            located = any(
                isinstance(part, ast.FormattedValue)
                and isinstance(before, ast.Constant)
                and names_s.search(before.value)
                for message in messages
                for before, part in zip(message.values, message.values[1:])
            )
            if located and "s" not in [kw.arg for kw in call.keywords]:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
