"""The traced benchmark wraps program functions by module and name.

`perfbench/run.py --trace 1` looks each one up with `vars(owner)[attr]`, so
a rename in the program breaks the traced run with a KeyError; this test
makes that a tier-1 failure.
"""

import sys
from pathlib import Path

import pytest

from duelhalt import strategy, tm

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


def test_bounded_runs_step_through_the_traced_stepper(perfbench_on_path):
    # tm.steps_per_s counts tm.step calls inside tm.run_bounded: a bounded
    # run that bypassed tm.step would read 0 there
    import layers
    from tracer import Tracer

    tracer = Tracer(scopes=layers.SCOPES)
    try:
        layers.install(tracer)
        assert tm.run_bounded(tm.CURATED["successor"], 7, 20) == tm.Converged(8)
    finally:
        tracer.unpatch()
    assert tracer.scoped[layers.BOUNDED].get("tm.step", 0) > 0


def test_each_transition_is_applied_once(perfbench_on_path, board_a):
    # strategy.applies_per_transition is engine applies over Run.extend calls
    # inside check_winning: the planners apply each move of ours, the driver
    # each of the opponent's, and the driver reuses the planned configuration.
    # The one exception is the shifted increment cycles, whose four
    # configurations are linked as shifts of an applied cycle: every cycle
    # on the witness that the traced cycle planner did not play is one
    import layers
    from tracer import Tracer

    from duelhalt import reductions, scripts

    out = reductions.reduce_halting(tm.CURATED["identity"])
    tracer = Tracer(scopes=layers.SCOPES)
    try:
        layers.install(tracer)
        verdict = strategy.check_winning(out.run, out.strategy, strategy.Budget(200, 4))
        scripts.set_counters(board_a.final, 17)
    finally:
        tracer.unpatch()
    assert verdict.is_win
    inside = tracer.scoped[layers.CHECKER]
    assert inside["engine.run_extend"] == len(verdict.witness)
    cycles = sum(getattr(m, "effect", None) == "boe_flip_all" for m in verdict.witness)
    shifted = cycles - inside["scripts.increment_cycle_moves"]
    assert shifted > 0
    assert inside["engine.apply"] + 4 * shifted == inside["engine.run_extend"]
    # the counter planner still plans each increment cycle through the
    # traced function, so that layer does not read 0
    assert tracer.stats["scripts.increment_cycle_moves"].calls > 0
