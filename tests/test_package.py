import argparse
import ast
import importlib
import importlib.util
import pathlib
import pkgutil
import re
import tomllib

import pytest

import f2wiener
from f2wiener import cli, fileio

MODULES = sorted(m.name for m in pkgutil.iter_modules(f2wiener.__path__)
                 if m.name != "__main__")
PACKAGE_DIR = pathlib.Path(f2wiener.__path__[0])
PERFBENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"f2wiener.{name}")
    assert hasattr(module, "__all__"), name
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = _loaded_names(tree)
        unused += [f"{path.stem}.{name}" for name in _imported_names(tree)
                   if name not in used]
    assert unused == []


def _definition(tree, name):
    # The def, class or assignment that binds name at module level.
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name == name:
                return node
        elif isinstance(node, ast.Assign):
            if any(getattr(t, "id", None) == name for t in node.targets):
                return node
    return None


def _mentions(tree, skip=None):
    """Every identifier a tree names outside its __all__ and skip: loaded
    names and attributes.  Imports are left out, so a re-export is no use;
    every import in the package is used."""
    skipped = {id(n) for node in (_definition(tree, "__all__"), skip)
               if node is not None for n in ast.walk(node)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _traced_names():
    """The parts of each (module, attribute) that perfbench's TRACED table
    patches, as strings, where the tracer's own lookup finds it in the
    package; a name it no longer finds is patched nowhere, so no use."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", PERFBENCH_DIR / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    found = set()
    for _, places, _ in tracing.TRACED:
        for module, attr in places:
            try:
                owner, key = tracing._owner(module, attr)
            except (ImportError, AttributeError):
                continue
            if hasattr(owner, key):
                found.update([module, *attr.split(".")])
    return found


def test_every_exported_name_has_a_user():
    # Each name in a module's __all__ is named in src/ or perfbench/ other
    # than by its own definition, an import or an __all__ entry, or is
    # patched by perfbench's tracer.
    trees = {path: ast.parse(path.read_text())
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             + sorted(PERFBENCH_DIR.rglob("*.py"))}
    traced = _traced_names()
    unused = []
    for name in MODULES:
        own = PACKAGE_DIR / f"{name}.py"
        for export in importlib.import_module(f"f2wiener.{name}").__all__:
            definition = _definition(trees[own], export)
            if export not in traced and not any(
                    export in _mentions(tree, definition if path == own
                                        else None)
                    for path, tree in trees.items()):
                unused.append(f"{name}.{export}")
    assert unused == []


def _object_dtype_uses(tree):
    """Lines that make or test for an object dtype: dtype=object (or
    np.object_, "O", "object"), .astype(object) and == / != object."""

    def is_object(node):
        return ((isinstance(node, ast.Name) and node.id == "object")
                or (isinstance(node, ast.Attribute)
                    and node.attr == "object_")
                or (isinstance(node, ast.Constant)
                    and node.value in ("O", "object")))

    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "dtype":
            found = is_object(node.value)
        elif isinstance(node, ast.Call):
            found = (isinstance(node.func, ast.Attribute)
                     and node.func.attr == "astype"
                     and any(map(is_object, node.args)))
        elif isinstance(node, ast.Compare):
            found = any(isinstance(n, ast.Name) and n.id == "object"
                        for n in [node.left, *node.comparators])
        else:
            found = False
        if found:
            yield node.lineno


def test_no_object_dtype_in_the_package():
    # Exact integers are stored as int64 under checked bounds, never as
    # numpy arrays of Python ints.
    probe = ast.parse("a = np.zeros(3, dtype=object)\nb = a.astype(object)\n"
                      "c = a.dtype == object\nd = np.array(x, dtype='O')\n"
                      "e = object.__new__(cls)\nf = a.dtype.kind == 'O'\n")
    assert sorted(_object_dtype_uses(probe)) == [1, 2, 3, 4]
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found = list(_object_dtype_uses(ast.parse(path.read_text())))
        assert found == [], f"{path.name}: lines {found}"


def test_no_module_reads_the_environment():
    # cli promises that no behavior depends on environment variables, so
    # no module, __main__ included, reads os.environ or os.getenv.
    for path in sorted(pathlib.Path(f2wiener.__path__[0]).glob("*.py")):
        found = re.findall(r"\b(?:environ|getenv)\b", path.read_text())
        assert found == [], path.name


def _subprocess_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "subprocess" for name in names):
            yield node.lineno


def test_no_module_imports_subprocess():
    # Every output is a function of its command line and the package
    # version, so the package runs no other program: no module, __main__
    # included, imports subprocess, at top level or inside a function.
    probe = ast.parse("import subprocess as sp\n"
                      "def f():\n    from subprocess import run\n")
    assert len(list(_subprocess_imports(probe))) == 2
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found = list(_subprocess_imports(ast.parse(path.read_text())))
        assert found == [], f"{path.name}: lines {found}"


def test_version_is_the_one_in_pyproject():
    # Certificates and witness files record the package version as their
    # tool_commit, so it is the version pyproject.toml declares.
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    assert declared == f2wiener.__version__ == fileio.tool_commit()


def _readme_without_fences() -> str:
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    return re.sub(r"```.*?```", "", readme.read_text(), flags=re.S)


def test_readme_flags_exist():
    # Every --flag the README names in inline code is an option of the
    # top-level parser or of some subcommand.
    parser = cli.build_parser()
    parsers = [parser] + [p for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction)
                          for p in action.choices.values()]
    options = {opt for p in parsers for action in p._actions
               for opt in action.option_strings}
    named = {flag for span in re.findall(r"`([^`]+)`",
                                         _readme_without_fences())
             for flag in re.findall(r"--[a-z][a-z0-9-]*", span)}
    assert named and named - options == set()
