import argparse
import importlib
import pathlib
import pkgutil
import re

import pytest

import f2wiener
from f2wiener import cli

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


def test_readme_config_keys_match():
    sentence = re.search(r"the keys are (.*?), and any other key",
                         _readme_without_fences(), flags=re.S)
    assert sentence is not None
    assert tuple(re.findall(r"`(\w+)`", sentence.group(1))) == cli.CONFIG_KEYS
