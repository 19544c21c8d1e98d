import pytest

from nimtower import builtin_factor_table, orders


@pytest.fixture(scope="session")
def table():
    return builtin_factor_table()


@pytest.fixture(autouse=True)
def empty_step_memo():
    # a step filed by an earlier test would answer without the kernel or
    # norm calls that a test patches and counts
    orders._y_step.cache_clear()
