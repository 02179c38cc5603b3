import importlib
import pathlib
import pkgutil
import re

import pytest

import f2wiener

MODULES = sorted(m.name for m in pkgutil.iter_modules(f2wiener.__path__)
                 if m.name != "__main__")


def test_package_all_names_resolve():
    missing = [n for n in f2wiener.__all__ if not hasattr(f2wiener, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"f2wiener.{name}")
    assert hasattr(module, "__all__"), name
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_no_module_reads_the_environment():
    # cli promises that no behavior depends on environment variables, so
    # no module, __main__ included, reads os.environ or os.getenv.
    for path in sorted(pathlib.Path(f2wiener.__path__[0]).glob("*.py")):
        found = re.findall(r"\b(?:environ|getenv)\b", path.read_text())
        assert found == [], path.name
