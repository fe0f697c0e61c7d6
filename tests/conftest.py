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


@pytest.fixture(scope="session")
def rank_dip():
    """Two constraint rows that agree to 6e-10 on their first six columns and
    differ by a unit entry in the seventh; w0 = (0.1, 0.1), k = 1.

    validate gives n_min 5 and width 7, but the truncation to N = 6 columns
    is numerically rank 1 (sigma_2 / sigma_1 = 8.2e-12 < 1e-10), while N = 5
    (2.9e-10) and N >= 7 keep rank 2.
    """
    r1 = np.array([1.0, 0.5, -0.3, 0.8, 0.2, 50.0, 0.0])
    r2 = r1 + 6e-10 * np.array([0.3, -1.0, 0.5, 0.2, 0.7, 0.0, 0.0]) + np.eye(7)[6]
    return validate(AffineProblem(q=np.vstack([r1, r2]), w0=np.array([0.1, 0.1]), k=1))
