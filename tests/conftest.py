import pytest

from duelhalt.reductions import setup


@pytest.fixture(scope="session")
def board_a():
    return setup("a")


@pytest.fixture(scope="session")
def board_b():
    return setup("b")
