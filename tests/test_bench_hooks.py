"""The traced benchmark wraps program functions by module and name.

`perfbench/run.py --trace 1` looks each one up with `vars(owner)[attr]`, so
a rename in the program breaks the traced run with a KeyError; this test
makes that a tier-1 failure.
"""

import sys
from pathlib import Path

import pytest

from duelhalt import strategy

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture
def perfbench_on_path():
    sys.path.insert(0, PERFBENCH)
    try:
        yield
    finally:
        sys.path.remove(PERFBENCH)


def test_layers_install_and_unpatch(perfbench_on_path):
    import layers
    from tracer import Tracer

    original = strategy.check_winning
    tracer = Tracer(scopes=layers.SCOPES)
    try:
        layers.install(tracer)
        assert strategy.check_winning is not original
    finally:
        tracer.unpatch()
    assert strategy.check_winning is original
