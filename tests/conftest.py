import pytest

from totprog.lvalues import DEFAULT_PREC
from totprog.primes import DEFAULT_LIMIT, prime_table


@pytest.fixture(scope="session")
def table():
    return prime_table(DEFAULT_LIMIT)


@pytest.fixture(scope="session")
def prec():
    return DEFAULT_PREC
