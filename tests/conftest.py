import pytest

from ririg.catalog import catalog_build
from ririg.fixtures import b2, b2_pair, b2_pair_with_identity, g3, g3_delta, \
    g3_id, luk3


@pytest.fixture(scope="session")
def catalog4():
    """Every algebra of size <= 4 with at most one modal symbol."""
    return catalog_build(4, 0).algebras() + catalog_build(4, 1).algebras()


@pytest.fixture(scope="session")
def catalog3():
    return catalog_build(3, 0).algebras() + catalog_build(3, 1).algebras()


@pytest.fixture(scope="session")
def catalog3_modal():
    """Size <= 3, exactly one modal (shared signature, usable for logic)."""
    return catalog_build(3, 1).algebras()


@pytest.fixture
def B2():
    return b2()


@pytest.fixture
def G3():
    return g3()


@pytest.fixture
def LUK3():
    return luk3()


@pytest.fixture
def G3D():
    return g3_delta()


@pytest.fixture
def G3I():
    return g3_id()


@pytest.fixture
def B2B2():
    return b2_pair()


@pytest.fixture
def B2B2_ID():
    return b2_pair_with_identity()


@pytest.fixture
def MB2():
    return b2()
