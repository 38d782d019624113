import numpy as np
import pytest

from nlstab.grid import GridSpec
from nlstab.nonlinearity import NonlinearitySpec, cq_constants
from nlstab.profiles import continue_branch, dark_soliton, stationary_bubble
from nlstab.spectra import dichotomy_basis


@pytest.fixture(scope="session")
def gp_spec():
    return NonlinearitySpec.gp()


@pytest.fixture(scope="session")
def cq02():
    return cq_constants(0.2, 1.0, 1.0)


@pytest.fixture(scope="session")
def soliton_grid():
    return GridSpec(1, 40.0, 4096)


@pytest.fixture(scope="session")
def small_grid():
    return GridSpec(1, 40.0, 512)


@pytest.fixture(scope="session")
def bubble_1d(cq02):
    return stationary_bubble(cq02, "line", GridSpec(1, 30.0, 1024))


@pytest.fixture(scope="session")
def bubble_1d_small(cq02):
    return stationary_bubble(cq02, "line", GridSpec(1, 30.0, 512))


@pytest.fixture(scope="session")
def bubble_2d(cq02):
    # the radial bubble of the slow-branch-2d benchmark workload
    return stationary_bubble(cq02, "radial-2D", GridSpec(2, 30.0, 64))


@pytest.fixture(scope="session")
def wide_bubble_basis(cq02):
    # the line bubble at the settings of acceptance criteria 10 and 11
    grid = GridSpec(1, 200.0, 1024)
    bubble = stationary_bubble(cq02, "line", grid)
    lo = continue_branch(bubble, [-0.01])[0]
    hi = continue_branch(bubble, [0.01])[0]
    branch = [lo, bubble, hi]
    basis = dichotomy_basis(bubble, 0.0, branch, spec=cq02.spec)
    return bubble, branch, basis


@pytest.fixture(scope="session")
def soliton_c05(small_grid):
    return dark_soliton(0.5, small_grid)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
