import pytest

from sqspiral.table import table_for


@pytest.fixture(scope="session")
def table400():
    return table_for(400)


@pytest.fixture(scope="session")
def table2000():
    return table_for(2000)


@pytest.fixture(scope="session")
def table100k():
    return table_for(100000)
