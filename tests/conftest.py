import sys

import pytest

from duelhalt.reductions import setup


@pytest.fixture(scope="session")
def board_a():
    return setup("a")


@pytest.fixture(scope="session")
def board_b():
    return setup("b")


@pytest.fixture
def shallow_recursion():
    """Python's recursion limit at the current stack depth + 100 for the
    test, so any walk that recurses once per level of a deep input fails."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    yield
    sys.setrecursionlimit(limit)
