import os

# One BLAS thread, set before numpy loads: the L-BFGS ascents and the small
# matmuls of the oracle run several times slower under OpenBLAS's default
# threads. A caller's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from tdesigncap import DesignSpec, build


@pytest.fixture(scope="session")
def qubit_sic():
    return build(DesignSpec("qubit_sic", 1.0))


@pytest.fixture(scope="session")
def qubit_mub():
    return build(DesignSpec("qubit_mub", 1.0))


@pytest.fixture(scope="session")
def icosahedron():
    return build(DesignSpec("icosahedron", 1.0))


@pytest.fixture(scope="session")
def qutrit_sic():
    return build(DesignSpec("qutrit_sic", 1.0))


@pytest.fixture(scope="session")
def qutrit_mub():
    return build(DesignSpec("qutrit_mub", 1.0))


@pytest.fixture(scope="session")
def hoggar():
    return build(DesignSpec("hoggar_sic", 1.0))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20160317)
