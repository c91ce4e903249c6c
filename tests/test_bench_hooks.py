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


def test_each_transition_is_applied_once(perfbench_on_path, board_a, monkeypatch):
    # strategy.applies_per_transition is engine applies over Run.extend calls
    # inside check_winning.  Counted independently here:
    # - our transitions: the drive's next_move calls, less the root's check;
    # - the planned lines: each planned step is applied once, except the
    #   increment cycles linked from the cycle table as shifts of a recorded
    #   cycle (every planned cycle the traced cycle planner did not play);
    # - the moved turns: a recorded turn moved onto a later start by
    #   rules.transport is linked, not applied, so its steps are counted
    #   where the strategy moves it;
    # - the opponent's transitions: the distinct run nodes of every turn the
    #   shared walk yields, since turns share their prefixes and each node is
    #   made by one apply and one Run.extend.
    import layers
    from tracer import Tracer

    from duelhalt import reductions, scripts

    cases = [(reductions.reduce_halting(tm.CURATED["identity"]), strategy.Budget(200, 4)),
             (reductions.reduce_nis(tm.CURATED["successor"]),
              strategy.Budget(10, 8, cap_exhaustive=True))]
    for out, budget in cases:
        s = out.strategy
        planner = next(c for c in type(s).__mro__ if "_plan_turn" in vars(c))
        plan_turn, p2_turns = planner._plan_turn, strategy._p2_turns
        transported = strategy.Strategy._transported
        planned, turns, moved = [], [], []

        def counted_plan(self, conf, mode):
            line = plan_turn(self, conf, mode)
            if line is not None:
                planned.append(line.run.moves)
            return line

        def counted_turns(run, state, choices, strat):
            for choice, played in p2_turns(run, state, choices, strat):
                if played is not None:
                    turns.append((run, played[0]))
                yield choice, played

        def counted_moves(self, conf, key):
            steps = transported(self, conf, key)
            if steps is not None:
                moved.append([mv for _c, mv, _n in steps])
            return steps

        monkeypatch.setattr(planner, "_plan_turn", counted_plan)
        monkeypatch.setattr(strategy.Strategy, "_transported", counted_moves)
        monkeypatch.setattr(strategy, "_p2_turns", counted_turns)
        tracer = Tracer(scopes=layers.SCOPES)
        try:
            layers.install(tracer)
            verdict = strategy.check_winning(out.run, s, budget)
        finally:
            tracer.unpatch()
        monkeypatch.undo()
        assert verdict.is_win
        inside = tracer.scoped[layers.CHECKER]
        ours = inside["strategy.next_move"] - 1
        cycles = sum(getattr(m, "effect", None) == "boe_flip_all" for moves in planned
                     for m in moves)
        linked = cycles - inside["scripts.increment_cycle_moves"]
        theirs = set()
        for base, node in turns:
            while node is not base:
                theirs.add(id(node))
                node = node._parent
        assert linked > 0 and moved
        assert inside["engine.run_extend"] == ours + len(theirs)
        assert inside["engine.apply"] + 4 * linked == sum(map(len, planned)) + len(theirs)
        if out.strategy.descriptor[0] == "tm":
            # one line, with no opponent choice: the witness, made of the
            # planned lines and the moved turns
            assert cycles + sum(getattr(m, "effect", None) == "boe_flip_all"
                                for moves in moved for m in moves) \
                == sum(getattr(m, "effect", None) == "boe_flip_all" for m in verdict.witness)
            assert inside["engine.apply"] + 4 * linked + sum(map(len, moved)) \
                == inside["engine.run_extend"] == len(verdict.witness)
        else:
            assert len(theirs) < sum(len(node) - len(base) for base, node in turns)
    # the counter planner still plans each increment cycle through the
    # traced function, so that layer does not read 0
    tracer = Tracer(scopes=layers.SCOPES)
    try:
        layers.install(tracer)
        scripts.set_counters(board_a.final, 17)
    finally:
        tracer.unpatch()
    assert tracer.stats["scripts.increment_cycle_moves"].calls > 0
