import os

import numpy as np
import pytest

import f2wiener
from f2wiener import _kernels


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Compile the jitted wht_rows, when numba is installed, before timed
    tests run; without numba this is one small numpy transform."""
    arr = np.arange(8, dtype=np.int64).reshape(1, 8).copy()
    _kernels.wht_rows(arr)


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
