import pytest

from qbat.model import hamiltonian_set


@pytest.fixture(scope="session")
def hs():
    return hamiltonian_set()


@pytest.fixture(scope="session")
def p_hat(hs):
    return hs.current
