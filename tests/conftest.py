import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracle helpers

from hofq import kernels


@pytest.fixture
def c_kernels():
    """The C kernels; skips only where no C compiler is on PATH, so that a
    broken build fails the tests instead of hiding behind the fallback."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    return kernels.compiled()


@pytest.fixture(params=["python", "c"])
def kernel_backend(request):
    """Both checked kernel backends: the pure-Python reference and the C
    one."""
    if request.param == "python":
        return kernels.PURE
    return request.getfixturevalue("c_kernels")
