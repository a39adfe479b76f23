import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes `import oracles` work everywhere


@pytest.fixture
def blas_at_two():
    """numpy's OpenBLAS at 2 threads for the test, and its thread getter."""
    import onebitcs.harness as harness

    functions = harness._numpy_openblas()
    if functions is None:
        pytest.skip("no OpenBLAS thread getter and setter behind numpy")
    getter, setter, _ = functions
    before = getter()
    setter(2)
    try:
        if getter() != 2:
            pytest.skip("this OpenBLAS cannot run 2 threads")
        yield getter
    finally:
        setter(before)
