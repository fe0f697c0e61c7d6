import numpy as np
import pytest

from slicemean import AffineProblem, validate


@pytest.fixture(scope="session")
def fix_a0():
    """Axis constraint x2 = 0: centered slice, unit limiting variance."""
    return validate(AffineProblem(q=np.array([[0.0, 1.0]]), w0=np.array([0.0]), k=1))


@pytest.fixture(scope="session")
def fix_a3():
    """Axis constraint x2 = 3: off-center slice, unit limiting variance."""
    return validate(AffineProblem(q=np.array([[0.0, 1.0]]), w0=np.array([3.0]), k=1))


@pytest.fixture(scope="session")
def fix_b():
    """Oblique constraint 3 x1 + 4 x2 = 5: limit mean 0.6, variance 0.64."""
    return validate(AffineProblem(q=np.array([[3.0, 4.0]]), w0=np.array([5.0]), k=1))


@pytest.fixture(scope="session")
def fix_c():
    """Sum constraint on four coordinates with a two-dimensional cylinder."""
    return validate(
        AffineProblem(q=np.array([[1.0, 1.0, 1.0, 1.0]]), w0=np.array([2.0]), k=2)
    )
