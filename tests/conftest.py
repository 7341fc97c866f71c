import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracle helpers

from hofq import _kernels_py, kernels


@pytest.fixture
def c_kernels():
    """The C kernels; skips only where no C compiler is on PATH, so that a
    broken build fails the tests instead of hiding behind the fallback."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    return kernels.compiled()


@pytest.fixture(params=["python", "c"])
def kernel_backend(request):
    """Both kernel implementations: the pure-Python reference and the C one."""
    if request.param == "python":
        return _kernels_py
    return request.getfixturevalue("c_kernels")
