import numpy as np
import pytest

from slicemean import AffineProblem, harness, validate


@pytest.fixture(scope="session")
def fix_a0():
    """Axis constraint x2 = 0: centered slice, unit limiting variance."""
    return harness._fixture(harness.FIX_A0)


@pytest.fixture(scope="session")
def fix_a3():
    """Axis constraint x2 = 3: off-center slice, unit limiting variance."""
    return harness._fixture(harness.FIX_A3)


@pytest.fixture(scope="session")
def fix_b():
    """Oblique constraint 3 x1 + 4 x2 = 5: limit mean 0.6, variance 0.64."""
    return harness._fixture(harness.FIX_B)


@pytest.fixture(scope="session")
def fix_c():
    """Sum constraint on four coordinates with a two-dimensional cylinder."""
    return harness._fixture(harness.FIX_C)


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


@pytest.fixture(scope="session")
def onto_dip():
    """Two constraint rows whose truncation keeps rank 2 at every N, while
    the first coordinate row falls into their span at N = 6 only:
    q1 = e1 + 6e-10 (0, 0.3, -1, 0.5, 0.7, 0, 0) + e7,
    q2 = (0.3, 0.2, 0.5, 0.1, 0.4, 50, 0); w0 = (0.1, 0.1), k = 1.

    validate gives n_min 5 and width 7. At N = 6 the stacked matrix
    [Q_6; e1] has sigma_3 / sigma_1 = 1.1e-11 < 1e-10, so the kernel does
    not project onto R^1 there; N = 5 and N >= 7 are onto.
    """
    e = np.eye(7)
    q1 = e[0] + 6e-10 * np.array([0.0, 0.3, -1.0, 0.5, 0.7, 0.0, 0.0]) + e[6]
    q2 = np.array([0.3, 0.2, 0.5, 0.1, 0.4, 50.0, 0.0])
    return validate(AffineProblem(q=np.vstack([q1, q2]), w0=np.array([0.1, 0.1]), k=1))


@pytest.fixture(scope="session")
def late_support():
    """Two rows of 12 columns, zero until columns 10 and 11; w0 = (0.1, 0.1),
    k = 1. Q_N has a zero row for every N <= 10, so validate's n_min is 11,
    while k + m + 2 is 5."""
    q = np.zeros((2, 12))
    q[0, 9:] = [1.0, 0.5, 0.3]
    q[1, 10:] = [1.0, -0.7]
    return validate(AffineProblem(q=q, w0=np.array([0.1, 0.1]), k=1))
