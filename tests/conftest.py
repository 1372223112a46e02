import pytest

from qbat.model import hamiltonian_set
from qbat.model import ec_operator as _ec_operator


@pytest.fixture(scope="session")
def hs():
    return hamiltonian_set()


@pytest.fixture(scope="session")
def p_hat(hs):
    return _ec_operator(hs.h0_hub, hs.h_charging)
