import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes `import oracles` work everywhere


@pytest.fixture
def blas_at_two():
    """This process's OpenBLAS at 2 threads for the test, and its thread getter."""
    import onebitcs.harness as harness

    getter = harness._loaded_blas_function(harness._BLAS_GETTERS)
    if getter is None or harness._loaded_blas_function(harness._BLAS_SETTERS) is None:
        pytest.skip("no OpenBLAS thread getter and setter in this process")
    before = getter()
    harness._pin_blas_threads(2)
    try:
        if getter() != 2:
            pytest.skip("this OpenBLAS cannot run 2 threads")
        yield getter
    finally:
        harness._pin_blas_threads(before)
