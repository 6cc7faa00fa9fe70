import random

import pytest

from helpers import relabel
from unitals.figueroa import figueroa_bundle
from unitals.plane import hermitian_unital
from unitals.translations import build_atlas


@pytest.fixture(scope="session")
def h2():
    return hermitian_unital(2)


@pytest.fixture(scope="session")
def h3():
    return hermitian_unital(3)


@pytest.fixture(scope="session")
def h4():
    return hermitian_unital(4)


@pytest.fixture(scope="session")
def h5():
    return hermitian_unital(5)


@pytest.fixture(scope="session")
def atlas2(h2):
    return build_atlas(h2)


@pytest.fixture(scope="session")
def atlas3(h3):
    return build_atlas(h3)


@pytest.fixture(scope="session")
def atlas4(h4):
    return build_atlas(h4)


@pytest.fixture(scope="session")
def atlas5(h5):
    return build_atlas(h5)


@pytest.fixture(scope="session")
def fig():
    return figueroa_bundle(2)


@pytest.fixture(scope="session")
def fig_atlas(fig):
    return build_atlas(fig.unital)


@pytest.fixture(scope="session")
def fig_relabelled(fig):
    """The Figueroa unital with its points shuffled by a fixed seed.  The
    atlas searches points in label order, so this changes which points are
    searched and which are reached by transport."""
    perm = list(range(fig.unital.v))
    random.Random(2022).shuffle(perm)
    return relabel(fig.unital, perm)
