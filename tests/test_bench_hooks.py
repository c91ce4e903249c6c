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


def test_a_traced_check_plans_through_the_traced_planner(perfbench_on_path):
    # strategy.plan_miss_ratio counts strategy.plan_turn calls, which the
    # tracer wraps only on the strategy classes that define _plan_turn: a
    # planner moved elsewhere would leave that metric reading 0
    import layers
    from tracer import Tracer

    from duelhalt import reductions

    out = reductions.reduce_halting(tm.CURATED["empty"])
    tracer = Tracer(scopes=layers.SCOPES)
    try:
        layers.install(tracer)
        assert strategy.check_winning(out.run, out.strategy, strategy.Budget(10, 2)).is_win
    finally:
        tracer.unpatch()
    assert tracer.scoped[layers.CHECKER].get("strategy.plan_turn", 0) > 0


def test_each_transition_is_applied_once(perfbench_on_path, board_a, monkeypatch):
    # strategy.applies_per_transition is engine applies over Run.extend calls
    # inside check_winning, and a call links one node: one transition, or a
    # whole moved line.  The transitions are the summed lengths of the nodes
    # linked, counted independently here:
    # - our transitions: the summed length of the turns the drives followed,
    #   every next_move answer (a WIN follows each turn to its end);
    # - the planned lines: each planned step is applied once, except the
    #   increment cycles linked as a recorded cycle moved by frame.transport
    #   (every planned cycle the traced cycle planner did not play);
    # - the moved turns: a recorded turn moved onto a later start by
    #   frame.transport is linked, not applied, so its steps are counted
    #   where the line table answers under a turn's tag without playing;
    #   none is moved onto the root, whose turn only the first drive asks for;
    # - the opponent's transitions: the distinct run nodes of every turn the
    #   shared walk yields, since turns share their prefixes and each node is
    #   made by one apply and one Run.extend;
    # - the moved rounds: the record of a round that repeats itself (the
    #   opponent's one turn and the drive after it) moved onto the rounds
    #   after it is linked as one joined line and the last round's two
    #   halves, with no apply, no next_move and no shared walk, so its steps
    #   are counted as the lengths of those lines; the channel check's
    #   counters move each turn, so it moves none.
    import layers
    from tracer import Tracer

    from duelhalt import reductions, scripts
    from duelhalt.engine import Run
    from duelhalt.engine.frame import Joined, LineTable, MovedLine

    cases = [(reductions.reduce_halting(tm.CURATED["identity"]), strategy.Budget(200, 4)),
             (reductions.reduce_nis(tm.CURATED["successor"]),
              strategy.Budget(10, 8, cap_exhaustive=True))]
    for out, budget in cases:
        s = out.strategy
        planner = next(c for c in type(s).__mro__ if "_plan_turn" in vars(c))
        plan_turn, p2_turns = planner._plan_turn, strategy._p2_turns
        table_line, answer = LineTable.line, strategy.Strategy.next_move
        split, extend = MovedLine.split, Run.extend
        planned, turns, moved, answers, halves, rounds, linked = [], [], [], [], {}, [], []

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

        def counted_moves(self, conf, tag, play):
            played = []
            steps = table_line(self, conf, tag, lambda: played.append(conf) or play())
            if not played and tag != scripts.CYCLE:
                moved.append((conf, [mv for mv, _n in steps]))
            return steps

        def counted_split(self, ends):
            got = split(self, ends)
            halves.update((id(half), half) for half in got)  # kept, so no id is reused
            return got

        def counted_extend(self, conf, move=None):
            run = extend(self, conf, move)
            linked.append(len(run) - len(self))
            if move is None and (halves.get(id(conf)) is conf or isinstance(conf, Joined)):
                rounds.extend(conf.moves())
            return run

        def counted_answers(self, conf, state):
            turn = answer(self, conf, state)
            answers.append(len(turn or ()))
            return turn

        monkeypatch.setattr(planner, "_plan_turn", counted_plan)
        monkeypatch.setattr(LineTable, "line", counted_moves)
        monkeypatch.setattr(strategy.Strategy, "next_move", counted_answers)
        monkeypatch.setattr(strategy, "_p2_turns", counted_turns)
        monkeypatch.setattr(MovedLine, "split", counted_split)
        monkeypatch.setattr(Run, "extend", counted_extend)
        tracer = Tracer(scopes=layers.SCOPES)
        try:
            layers.install(tracer)
            verdict = strategy.check_winning(out.run, s, budget)
        finally:
            tracer.unpatch()
        monkeypatch.undo()
        assert verdict.is_win
        inside = tracer.scoped[layers.CHECKER]
        assert len(answers) == inside["strategy.next_move"]
        ours = sum(answers)
        cycles = sum(getattr(m, "effect", None) == "boe_flip_all" for moves in planned
                     for m in moves)
        linked_cycles = cycles - inside["scripts.increment_cycle_moves"]
        theirs = set()
        for base, node in turns:
            while node is not base:
                theirs.add(id(node))
                node = node._parent
        assert linked_cycles > 0 and all(conf != out.run.last() for conf, _moves in moved)
        moved = [moves for _conf, moves in moved]
        assert moved and bool(rounds) == (s.descriptor[0] == "tm")
        assert inside["engine.run_extend"] == len(linked) < sum(linked)
        assert sum(linked) == ours + len(theirs) + len(rounds)
        assert inside["engine.apply"] + 4 * linked_cycles == sum(map(len, planned)) + len(theirs)
        if out.strategy.descriptor[0] == "tm":
            # one line, with no opponent choice: the witness, made of the
            # planned lines, the moved turns and the moved rounds
            assert cycles + sum(getattr(m, "effect", None) == "boe_flip_all"
                                for moves in moved + [rounds] for m in moves) \
                == sum(getattr(m, "effect", None) == "boe_flip_all" for m in verdict.witness)
            assert inside["engine.apply"] + 4 * linked_cycles + sum(map(len, moved)) \
                + len(rounds) == sum(linked) == len(verdict.witness)
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
