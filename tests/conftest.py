import pytest

from totprog.lvalues import DEFAULT_PREC
from totprog.cli import DEFAULT_LIMIT
from totprog.primes import prime_table


@pytest.fixture(scope="session")
def table():
    return prime_table(DEFAULT_LIMIT)


@pytest.fixture(scope="session")
def prec():
    return DEFAULT_PREC
