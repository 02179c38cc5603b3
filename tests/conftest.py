import os

import pytest

import f2wiener


@pytest.fixture()
def package_env():
    """Environment for a child interpreter that must import this f2wiener.

    The absolute directory holding the imported package goes first on
    PYTHONPATH, so neither a relative entry such as PYTHONPATH=src nor the
    child's working directory decides which f2wiener it finds.
    """
    package_dir = os.path.dirname(os.path.abspath(f2wiener.__file__))
    root = os.path.dirname(package_dir)
    inherited = os.environ.get("PYTHONPATH")
    path = root if not inherited else root + os.pathsep + inherited
    return dict(os.environ, PYTHONPATH=path)
